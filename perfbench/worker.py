"""One fresh interpreter running one workload through nfradar.cli.main.

    python3 perfbench/worker.py --workload NAME --seed N --role ROLE --seconds S

Every role first measures set-up: importing nfradar, parsing the config
and making the first call, here the smallest run of the workload's
experiment. Then, by role:

  setup    stop;
  measure  one warm-up run whose output is checked against the loop
           reference, then untraced runs for S seconds, each output
           compared byte for byte with the warm-up output, with the
           calibration kernel timed before the first run and after each;
  trace    the warm-up run, then S seconds of untraced and traced runs
           in turn, and the per-layer metrics. Alternating keeps both
           sides under the same machine load, so their ratio measures the
           tracing overhead.

The calibration kernel also runs once after set-up in every role. The
worker pins itself to one CPU, so that the kernel and the runs it scales
see the same core. The last line of stdout is one JSON object with the
results. Nothing before the set-up measurement imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / "perfbench" / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Calibration:
    """A fixed mix of numpy and interpreter work, like the workloads' own,
    that shares no code with nfradar. On a shared machine the speed of a
    core changes from second to second with its neighbours' load; timing
    this kernel next to each run measures the speed that run saw."""

    def __init__(self):
        import numpy as np
        self.np = np
        # small enough that the kernel never sets the worker's peak memory
        self.x = np.linspace(-20.0, 20.0, 169 * 4 * 128).reshape(169, 4, 128)
        self.y = np.exp(1j * np.linspace(0.0, 30.0, 169 * 128)).reshape(
            169, 128)
        self()  # first-touch costs stay out of the timed calls

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(32):
            env = self.np.sinc(self.x)
            self.np.einsum("pgn,pn->pg", env, self.y)
            self.np.sqrt(self.x * self.x + 1.0)
        total = 0j
        for i in range(40000):
            total += complex(i, -i) * 0.5
        return time.perf_counter() - start


class Runs:
    """Counts operations (one cli.main call and its output check each)."""

    def __init__(self, out: Path):
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sink = io.StringIO()  # cli.main prints one line per run

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def call(self, main, argv) -> float | None:
        """Wall time of main(argv + --out), or None if it raised."""
        self.attempted += 1
        argv = argv + ["--out", str(self.out)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                main(argv)
        except Exception:  # any failure of the program is a failed operation
            self.fail(traceback.format_exc(limit=3))
            return None
        elapsed = time.perf_counter() - start
        self.sink.seek(0)
        self.sink.truncate()
        return elapsed

    def checked(self, main, argv, expected: bytes) -> float | None:
        """call(), then a byte comparison with the warm-up run's output."""
        elapsed = self.call(main, argv)
        if elapsed is not None and self.out.read_bytes() != expected:
            self.fail("output differs from the warm-up run's output")
            return None
        return elapsed


def environment() -> dict:
    import numpy
    import scipy
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
    env.update({var: os.environ.get(var, "") for var in THREAD_VARS})
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    runs = Runs(WORK_DIR / f"{args.workload}-{os.getpid()}.csv")
    try:
        result = _run(args, runs)
    finally:
        runs.out.unlink(missing_ok=True)
    result.update(attempted=runs.attempted, failed=runs.failed,
                  failures=runs.failures[:5])
    print(json.dumps(result))
    return 0


def _run(args, runs: Runs) -> dict:
    start = time.perf_counter()
    import nfradar.cli
    elapsed = runs.call(nfradar.cli.main,
                        workloads.cli_args(args.workload, args.seed,
                                           first_call=True))
    setup_s = time.perf_counter() - start
    if not Path(nfradar.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported nfradar from {nfradar.__file__}, "
                           f"not from {ROOT / 'src'}")

    import reference
    if elapsed is not None:
        for message in reference.check_finite(runs.out.read_text("ascii")):
            runs.fail(f"first call: {message}")
    calibrate = Calibration()
    result = {"setup_s": setup_s, "calib_s": calibrate()}
    if args.role == "setup":
        return result

    import tracing
    main = nfradar.cli.main
    argv = workloads.cli_args(args.workload, args.seed)
    tracing.check_pristine()
    cold_s = runs.call(main, argv)
    if cold_s is None:
        raise RuntimeError("warm-up run failed:\n" + runs.failures[-1])
    expected = runs.out.read_bytes()
    items, failures = reference.CHECKS[args.workload](
        expected.decode("ascii"), args.seed)
    if failures:
        runs.failed += 1
        runs.failures.extend(failures)
    result.update(cold_s=cold_s, items=items, env=environment())

    deadline = time.perf_counter() + args.seconds
    untraced, traced, calib = [], [], [calibrate()]
    tracer = tracing.Tracer()
    while time.perf_counter() < deadline:
        tracing.check_pristine()
        untraced.append(runs.checked(main, argv, expected))
        if args.role == "measure":
            calib.append(calibrate())
            continue
        tracer.install()
        try:
            traced.append(runs.checked(tracer.main, argv, expected))
        finally:
            tracer.uninstall()
    result["times"] = [t for t in untraced if t is not None]
    if args.role == "measure":
        # each run against the mean of the kernel times around it
        result["calib_around"] = [(a + b) / 2.0 for t, a, b in zip(
            untraced, calib, calib[1:]) if t is not None]
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    tracer.write(WORK_DIR / f"spans-{args.workload}.jsonl")
    # each traced run against the untraced run just before it
    overhead = statistics.median(b / a - 1.0 for a, b in zip(untraced, traced)
                                 if a is not None and b is not None)
    result["layers"] = tracing.layer_metrics(tracer, _distinct_delays(),
                                             overhead)
    return result


def _distinct_delays() -> int:
    """Distinct pair delays of the workload geometry: r_s depends on the
    antenna offset d only through d^2."""
    import numpy as np
    from nfradar.em_spa import pair_offsets
    from nfradar.scenario import Scenario
    _, d = pair_offsets(Scenario(**workloads.SCENARIO))
    return int(np.unique(d * d).size)


if __name__ == "__main__":
    sys.exit(main())
