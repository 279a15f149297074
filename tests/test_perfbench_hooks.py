"""The benchmark's traced run wraps package functions at the module
attributes their callers look up (perfbench/tracing.py). A rename of any
of those names breaks the benchmark; this check makes it fail here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracing.check_pristine()
    # uniform spacing: pair delays depend on |tx - rx| only, N values
    assert worker._distinct_delays() == \
        worker.workloads.SCENARIO["n_antennas"]
