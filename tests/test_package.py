import nfradar


def test_all_names_resolve():
    # `from nfradar import *` raises on a name in __all__ that the package
    # no longer defines
    assert [name for name in nfradar.__all__
            if not hasattr(nfradar, name)] == []
    assert len(set(nfradar.__all__)) == len(nfradar.__all__)
