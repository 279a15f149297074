"""Spans around nfradar's public functions, installed from outside the
package.

Each wrapper replaces the module attribute its caller looks up (for
example nfradar.estimator.waveform_value, which is what the objective
calls, not nfradar.signal.waveform_value), records a span with name,
start, end, parent and run id, and adds the call's work counts. Spans are
kept in memory and written as JSON lines at the end. uninstall() puts the
original functions back, and check_pristine() confirms it by identity.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

import numpy as np

from nfradar import cli, em_exact, em_spa, estimator, signal, special_fn


def _pairs(scenario) -> int:
    return scenario.n_antennas ** 2


def _count_hypotheses_ambiguity(args, kwargs, out):
    scenario, grid = args[0], args[2]
    return {"estimator.hypotheses": np.size(grid) * _pairs(scenario)}


def _count_hypotheses_crb(args, kwargs, out):
    return {"estimator.hypotheses": 3 * _pairs(args[0])}  # 3-point stencil


def _count_synth_samples(args, kwargs, out):
    return {"signal.synthesize.samples": out.traces.size}


def _count_envelope(args, kwargs, out):
    # out is (pairs, ..., n): samples over pairs, per hypothesis and time
    return {"estimator.envelope.samples": out.size,
            "estimator.envelope.per_pair": out.size // out.shape[0]}


def _count_fresnel(args, kwargs, out):
    return {"special_fn.fresnel.evals": np.size(args[0])}


def _count_nodes(args, kwargs, out):
    return {"em_exact.nodes": np.size(out)}


def _count_table(args, kwargs, out):
    return {"cli.write_table.bytes": os.path.getsize(args[0]),
            "cli.write_table.rows": len(args[2])}


# (owner, attribute the caller looks up, the function it holds untraced,
# span name, work counter). The owner is the module whose code makes the
# call, or cli._RUNNERS for the experiment runner that cli.main picks.
SITES = (
    (cli, "parse_config", cli.parse_config, "cli.parse_config", None),
    (cli._RUNNERS, "validate-spa", cli.run_validate_spa, "cli.runner", None),
    (cli._RUNNERS, "ambiguity", cli.run_ambiguity, "cli.runner", None),
    (cli._RUNNERS, "crb", cli.run_crb, "cli.runner", None),
    (cli, "write_table", cli.write_table, "cli.write_table", _count_table),
    (cli, "ambiguity", estimator.ambiguity, "estimator.ambiguity",
     _count_hypotheses_ambiguity),
    (cli, "crb", estimator.crb, "estimator.crb", _count_hypotheses_crb),
    (cli, "half_power_width", estimator.half_power_width,
     "estimator.half_power_width", None),
    (cli, "synthesize", signal.synthesize, "signal.synthesize",
     _count_synth_samples),
    (cli, "add_awgn", signal.add_awgn, "signal.add_awgn", None),
    (cli, "exact_received_signal", em_exact.exact_received_signal,
     "em_exact.exact_received_signal", None),
    (cli, "spa_received_signal", em_spa.spa_received_signal,
     "em_spa.spa_received_signal", None),
    (estimator, "synthesize", signal.synthesize, "signal.synthesize",
     _count_synth_samples),
    (estimator, "waveform_value", signal.waveform_value,
     "estimator.envelope", _count_envelope),
    (estimator, "gain_and_delay_arrays", em_spa.gain_and_delay_arrays,
     "em_spa.gain_and_delay_arrays", None),
    # signal.synthesize imports these from their modules at call time
    (em_spa, "gain_and_delay_arrays", em_spa.gain_and_delay_arrays,
     "em_spa.gain_and_delay_arrays", None),
    (em_exact, "exact_received_signal", em_exact.exact_received_signal,
     "em_exact.exact_received_signal", None),
    (em_spa, "fresnel_conj", special_fn.fresnel_conj, "special_fn.fresnel",
     _count_fresnel),
    (em_exact, "waveform_value", signal.waveform_value, "em_exact.envelope",
     _count_nodes),
)
SPANS = ("cli.main",) + tuple(dict.fromkeys(site[3] for site in SITES))
COUNTS = ("estimator.envelope.samples", "estimator.hypotheses",
          "signal.synthesize.samples", "special_fn.fresnel.evals",
          "em_exact.nodes", "cli.write_table.bytes", "cli.write_table.rows")


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def check_pristine() -> None:
    """Raises unless every site holds its untraced function, by identity
    (e.g. nfradar.estimator.waveform_value is nfradar.signal.waveform_value)."""
    for owner, key, original, name, _ in SITES:
        if _get(owner, key) is not original:
            raise RuntimeError(f"{key} is not the untraced function of {name}")


class Tracer:
    """In-memory spans of single-threaded runs, one run id per cli.main."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, run, failed)
        self.counts: list[dict[str, int]] = []  # one dict per run
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent,
                                     len(self.counts) - 1, failed)
            if counter is not None:
                run = self.counts[-1]
                for key, value in counter(args, kwargs, out).items():
                    run[key] = run.get(key, 0) + int(value)
            return out
        return traced

    def install(self) -> None:
        check_pristine()
        for owner, key, original, name, counter in SITES:
            _set(owner, key, self.wrap(name, original, counter))

    @staticmethod
    def uninstall() -> None:
        for owner, key, original, _, _ in SITES:
            _set(owner, key, original)
        check_pristine()

    def main(self, argv) -> int:
        """cli.main as one traced run with its own run id."""
        self.counts.append({})
        return self.wrap("cli.main", cli.main)(argv)

    def per_run(self) -> list[dict[str, float]]:
        """Per run: <span>.calls/.total_s/.self_s, <span>.failures, and the
        work counts. Self time is the duration minus its children's."""
        runs = [dict.fromkeys(
                    [f"{s}.{m}" for s in SPANS
                     for m in ("calls", "total_s", "self_s", "failures")]
                    + list(COUNTS), 0.0) | counts
                for counts in self.counts]
        for name, start, end, parent, run, failed in self.spans:
            metrics = runs[run]
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.total_s"] += end - start
            metrics[f"{name}.self_s"] += end - start
            metrics[f"{name}.failures"] += failed
            if parent >= 0:
                metrics[f"{self.spans[parent][0]}.self_s"] -= end - start
        return runs

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, failed in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "run": run, "failed": failed}) + "\n")
            for run, counts in enumerate(self.counts):
                fh.write(json.dumps({"run": run, "counts": counts}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, distinct_delays: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}: the median over traced
    runs of each per-run value, and the given tracing overhead."""
    runs = tracer.per_run()
    for m in runs:
        m["estimator.envelope.ns_per_sample"] = 1e9 * _ratio(
            m["estimator.envelope.total_s"], m["estimator.envelope.samples"])
        # samples computed over samples needed if each distinct pair delay
        # (pairs with equal |d| share one) were evaluated once
        m["estimator.envelope.redundancy"] = _ratio(
            m["estimator.envelope.samples"],
            distinct_delays * m.get("estimator.envelope.per_pair", 0))
        m["special_fn.fresnel.ns_per_eval"] = 1e9 * _ratio(
            m["special_fn.fresnel.total_s"], m["special_fn.fresnel.evals"])
        m["em_exact.ns_per_node"] = 1e9 * _ratio(
            m["em_exact.exact_received_signal.total_s"], m["em_exact.nodes"])
    medians = {name: statistics.median(m[name] for m in runs)
               for name in runs[0]}
    medians["tracing.overhead_frac"] = overhead_frac
    return {name: (medians[name], unit) for name, unit in PER_LAYER}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith((".redundancy", "_frac")):
        return "ratio"
    return "count"


# every per-layer metric, in report order, with its unit
_NAMES = ([f"{s}.{m}" for s in SPANS for m in ("calls", "total_s", "self_s")]
          + ["estimator.half_power_width.failures"] + list(COUNTS)
          + ["estimator.envelope.ns_per_sample",
             "estimator.envelope.redundancy",
             "special_fn.fresnel.ns_per_eval", "em_exact.ns_per_node",
             "tracing.overhead_frac"])
PER_LAYER = tuple((name, _unit(name)) for name in _NAMES)
