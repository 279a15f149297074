import math

import pytest

from nfradar import SPEED_OF_LIGHT, Scenario, reference_scenario
from nfradar.scenario import MAX_LENGTH, antenna_positions


def test_reference_values(ref_sc):
    assert ref_sc.n_antennas == 13
    assert ref_sc.spacing == 0.125
    assert ref_sc.antenna_gain_factor == 1.0
    assert ref_sc.bandwidth == 100e6
    assert ref_sc.carrier_freq == 77e9
    assert ref_sc.plate_width == 0.8
    assert ref_sc.plate_height == 1.75
    assert ref_sc.range == 4.0


def test_wavelength_wavenumber(ref_sc):
    assert ref_sc.wavelength == SPEED_OF_LIGHT / 77e9
    assert ref_sc.wavenumber == pytest.approx(2 * math.pi / ref_sc.wavelength, rel=1e-15)


def test_reference_overrides():
    sc = reference_scenario(carrier_freq=10e9, range=6.0)
    assert sc.carrier_freq == 10e9
    assert sc.range == 6.0
    assert sc.n_antennas == 13


def test_antenna_positions_reference(ref_sc):
    z = antenna_positions(ref_sc)
    assert z.shape == (13,)
    assert (z[0], z[6], z[12]) == (-0.75, 0.0, 0.75)
    for l in range(13):
        assert z[l] == (l - 6) * 0.125


def test_antenna_positions_symmetric(ref_sc):
    z = antenna_positions(ref_sc)
    n = ref_sc.n_antennas
    for l in range(n):
        assert z[l] + z[n - 1 - l] == 0.0


def test_antenna_positions_single_antenna():
    sc = reference_scenario(n_antennas=1)
    assert antenna_positions(sc).tolist() == [0.0]


def test_narrowband_gate():
    # B must stay well under the carrier for the separable signal model
    with pytest.raises(ValueError, match="narrowband"):
        reference_scenario(carrier_freq=1e9, bandwidth=200e6)
    # boundary: exactly a tenth of the carrier is still accepted
    # (gate relaxed because 4 m is only ~13 wavelengths at 1 GHz)
    reference_scenario(carrier_freq=1e9, bandwidth=100e6, min_range_wavelengths=10.0)


def test_range_validity_gate():
    # 4 m is only ~67 wavelengths at 5 GHz, below the default gate
    with pytest.raises(ValueError, match="field-formula validity"):
        reference_scenario(carrier_freq=5e9)
    # relaxing the gate admits the same geometry
    sc = reference_scenario(carrier_freq=5e9, min_range_wavelengths=60.0)
    assert sc.range == 4.0


def test_rejects_nonpositive_dimensions():
    for field, bad in [
        ("n_antennas", 0),
        ("spacing", 0.0),
        ("spacing", -0.1),
        ("bandwidth", 0.0),
        ("carrier_freq", -1.0),
        ("range", 0.0),
        ("plate_width", -0.5),
        ("plate_width", 0.0),
        ("plate_height", -2.0),
        ("plate_height", 0.0),
        ("antenna_gain_factor", -1.0),
        ("antenna_gain_factor", 0.0),
        ("free_space_impedance", 0.0),
    ]:
        with pytest.raises((ValueError, TypeError)):
            reference_scenario(**{field: bad})


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        reference_scenario(range=float("inf"))
    with pytest.raises(ValueError):
        reference_scenario(bandwidth=float("nan"))


@pytest.mark.parametrize("value,match", [
    (float("nan"), "finite"), (-5.0, "nonnegative"), (float("inf"), "finite")])
def test_rejects_invalid_min_range_wavelengths(value, match):
    # NaN or a negative margin would switch the validity floor off
    with pytest.raises(ValueError, match=f"min_range_wavelengths .*{match}"):
        reference_scenario(min_range_wavelengths=value)
    assert reference_scenario(min_range_wavelengths=0.0).range == 4.0


@pytest.mark.parametrize("field, longest, past", [
    ("range", dict(range=MAX_LENGTH), dict(range=2 * MAX_LENGTH)),
    # half-length (N - 1) spacing / 2 with N = 13
    ("spacing", dict(spacing=MAX_LENGTH / 6), dict(spacing=MAX_LENGTH / 5)),
    ("carrier_freq",
     dict(carrier_freq=SPEED_OF_LIGHT / MAX_LENGTH, bandwidth=1e-70,
          min_range_wavelengths=0.0),
     dict(carrier_freq=SPEED_OF_LIGHT / MAX_LENGTH / 2, bandwidth=1e-70,
          min_range_wavelengths=0.0)),
])
def test_max_length(field, longest, past):
    # the backends form wavelength r_s^3: at most 2.8e304 up to MAX_LENGTH
    reference_scenario(**longest)
    with pytest.raises(ValueError,
                       match=rf"^[^_]*{field}\b.* exceeds 1e\+76 m"):
        reference_scenario(**past)


def test_scenario_is_frozen(ref_sc):
    with pytest.raises(Exception):
        ref_sc.range = 5.0


def test_scenario_equality_roundtrip(ref_sc):
    assert ref_sc == reference_scenario()
    assert ref_sc != reference_scenario(range=4.5)
