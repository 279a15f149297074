"""The benchmark's traced run wraps package functions at the module
attributes their callers look up (perfbench/tracing.py). A rename of any
of those names breaks the benchmark; this check makes it fail here first.
So does an output that the benchmark's own checks (perfbench/reference.py)
would refuse.
"""

from pathlib import Path

import pytest

from nfradar.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracing.check_pristine()
    # uniform spacing: pair delays depend on |tx - rx| only, N values
    assert worker._distinct_delays() == \
        worker.workloads.SCENARIO["n_antennas"]


def test_envelope_counter_counts_samples(monkeypatch, tmp_path):
    # the traced run counts the objective's envelope samples from the
    # shape of what waveform_value returns: the 42-point grid is one chunk
    # whose delays span 0.060/B, so one block of 9 Chebyshev nodes x 128
    # samples, for any number of grid points, pairs or delay groups
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    out = tmp_path / "ambiguity.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.main(["ambiguity", "--set", "grid.min=3.99",
                            "--set", "grid.max=4.01", "--out",
                            str(out)]) == 0
    finally:
        tracer.uninstall()
    points = sum(line.startswith("curve,")
                 for line in out.read_text().splitlines())
    assert points == 42
    run = tracer.per_run()[0]
    assert run["estimator.envelope.calls"] == 1
    assert run["estimator.envelope.samples"] == 9 * 128


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["ambiguity-77g", "crb-sweep",
                                  "validate-10g"])
def test_workload_outputs_pass_reference_checks(monkeypatch, tmp_path,
                                                name, seed):
    # the benchmark checks each workload's CSV against its own loop
    # reference (1e-9 relative); an output drift past that fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reference
    import workloads

    assert name in workloads.NAMES
    out = tmp_path / f"{name}.csv"
    assert main(workloads.cli_args(name, seed) + ["--out", str(out)]) == 0
    text = out.read_text("ascii")
    assert reference.check_finite(text) == []
    items, failures = reference.CHECKS[name](text, seed)
    assert failures == []
    assert items > 0
