"""The benchmark's workloads: each is one nfradar CLI experiment whose
arguments are generated from the workload seed.

Standard library only, so the harness process can import it without
loading numpy.
"""

from __future__ import annotations

import random

NAMES = ("ambiguity-77g", "crb-sweep", "validate-10g")

# The reference scenario the CLI defaults to. The output checks recompute
# results from these values, so a change of CLI defaults fails the checks
# instead of silently changing what the workload measures.
SCENARIO = dict(
    n_antennas=13,
    spacing=0.125,
    antenna_gain_factor=1.0,
    bandwidth=100e6,
    carrier_freq=77e9,
    plate_width=0.8,
    plate_height=1.75,
    range=4.0,
    free_space_impedance=376.730313668,
)
VALIDATION_CARRIER = 10e9

# ambiguity-77g: the true range is drawn from TRUE_RANGE and the lambda/8
# grid is narrowed from the default 2-8 m to AMBIGUITY_GRID, which still
# brackets the half-power crossings (width 0.25-0.4 m here) of any drawn
# range, so that a run takes about 1.5 s instead of 8 s.
TRUE_RANGE = (3.5, 4.5)
AMBIGUITY_GRID = (3.2, 4.8)
# About the mean sample power of the noise-free traces at 4 m (1.24e6):
# 0 dB per sample, far above the threshold region after coherent
# integration over 169 x 128 samples.
NOISE_POWER = 1e6

# crb-sweep: many small calls, a few hundred ranges drawn over the
# default grid span.
CRB_RANGES = (2.0, 8.0)
CRB_POINTS = 300


def true_range(seed: int) -> float:
    lo, hi = TRUE_RANGE
    return lo + (hi - lo) * random.Random(seed).random()


def crb_ranges(seed: int) -> list[float]:
    rng = random.Random(seed)
    lo, hi = CRB_RANGES
    return sorted(lo + (hi - lo) * rng.random() for _ in range(CRB_POINTS))


def cli_args(workload: str, seed: int, first_call: bool = False) -> list[str]:
    """Arguments for nfradar.cli.main, without --out.

    first_call gives the smallest run of the same experiment (one pair,
    one range, or a 9-point grid), which the set-up measurement makes.
    """
    if workload == "ambiguity-77g":
        r = true_range(seed)
        lo, hi = (r - 0.002, r + 0.002) if first_call else AMBIGUITY_GRID
        return ["ambiguity", "--seed", str(seed),
                "--set", f"scenario.range={r!r}",
                "--set", f"grid.min={lo!r}", "--set", f"grid.max={hi!r}",
                "--set", f"noise.noise_power={NOISE_POWER!r}"]
    if workload == "crb-sweep":
        ranges = crb_ranges(seed)[:1 if first_call else None]
        return ["crb", "--set",
                "sweep.range=" + ",".join(repr(r) for r in ranges)]
    if workload == "validate-10g":
        # deterministic: the seed is not used
        return ["validate-spa"] + (
            ["--set", "scenario.n_antennas=1"] if first_call else [])
    raise ValueError(f"unknown workload {workload!r}")
