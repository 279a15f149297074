"""nfradar benchmark: the paper's three experiments through nfradar.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen):

  ambiguity-77g  one ambiguity run over a 3,288-point lambda/8 grid
  crb-sweep      one crb run over 300 seeded ranges
  validate-10g   one validate-spa run, 169 pairs against the quadrature

--workload all (the default) runs each in turn. The harness itself only
parses arguments and starts fresh interpreters (worker.py), one at a time,
each single-threaded: one that warms up and measures for S seconds, with
three before and three after it that only measure set-up. With --trace 1
a single worker instead alternates untraced and traced runs for S
seconds, and the per-layer metrics replace the end-to-end ones. Every
output is checked; the last line of stdout is one JSON object with the
results.

It needs the nfradar sources under src/ next to this directory and exits
with an error, printing no result, if they are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_WORKERS = 6
TIME_LIMIT_S = 170.0  # one workload must finish within 180 s
ITEMS = {"ambiguity-77g": "grid hypotheses", "crb-sweep": "range points",
         "validate-10g": "validated pairs"}
END_TO_END = (("run_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# Times are scaled to a core on which worker.Calibration takes this long:
# t * CALIB_REF_S / (kernel time measured next to t). This removes most of
# the swings of a shared machine (up to 1.5x within a minute on a 2-vCPU
# Xeon VM) while a change of nfradar's speed still moves the scaled time
# in proportion.
CALIB_REF_S = 0.08


class WorkerFailed(RuntimeError):
    pass


def spawn(role: str, workload: str, seed: int, seconds: float,
          deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--role", role, "--workload",
           workload, "--seed", str(seed), "--seconds", repr(seconds)]
    try:
        # on timeout, run() kills the worker and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{role} worker for {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{role} worker for {workload} exited with "
                           f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten runs beyond it, but not
    below the median (fewer than 20 runs give the median)."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, dict]:
    """Returns (metrics as {name: (value, unit)}, operation counts)."""
    deadline = time.monotonic() + TIME_LIMIT_S

    def setups(n):
        return [] if trace else [spawn("setup", workload, seed, seconds,
                                       deadline) for _ in range(n)]

    # set-up samples before and after the measuring worker, so that their
    # median spans the whole run's machine load
    workers = setups(SETUP_WORKERS // 2)
    main = spawn("trace" if trace else "measure", workload, seed, seconds,
                 deadline)
    workers += [main] + setups(SETUP_WORKERS - SETUP_WORKERS // 2)
    ops = {"attempted": sum(w["attempted"] for w in workers),
           "failed": sum(w["failed"] for w in workers)}
    for w in workers:
        for message in w["failures"]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
    times = main["times"]
    if not times:
        raise WorkerFailed(f"no successful timed run of {workload}")
    print(f"== {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(times)} timed runs after a warm-up run of "
          f"{main['cold_s']:.4f} s; {main['items']} {ITEMS[workload]} per run")
    print(f"   wall time per run: median {statistics.median(times):.4f} s")
    print(f"   error_frac {ops['failed'] / ops['attempted']:.4g} "
          f"({ops['failed']} failed of {ops['attempted']} operations)")
    print(f"   env {json.dumps(main['env'], sort_keys=True)}")
    if trace:
        return {name: tuple(v) for name, v in main["layers"].items()}, ops

    scaled = [t * CALIB_REF_S / c
              for t, c in zip(times, main["calib_around"])]
    run_s = statistics.median(scaled)
    q = tail_percentile(len(scaled))
    tail = run_s if q == 50 else percentile(scaled, q)
    print(f"   run_s median {run_s:.4f} s, p{q} {tail:.4f} s over "
          f"{len(scaled)} runs; calibration kernel median "
          f"{statistics.median(main['calib_around']):.4f} s")
    values = {
        "run_s": run_s,
        "items_per_s": main["items"] / run_s,
        "setup_s": statistics.median(
            w["setup_s"] * CALIB_REF_S / w["calib_s"] for w in workers),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "nfradar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nfradar sources under {ROOT / 'src'}")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, ops = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += ops["attempted"]
            failed += ops["failed"]
    except WorkerFailed as exc:
        sys.exit(f"perfbench: {exc}")

    result = {}
    for name, (value, unit) in metrics.items():
        result[name] = {"value": value, "unit": unit}
        print(f"   {name:50s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
