"""Output checks for the benchmark's CSVs, against a small loop reference.

The reference evaluates the stationary-phase pair model one pair at a time
from the closed-form formulas (em_spa's module docstring) with scipy's
Fresnel integrals, and the matched-energy objective as a plain sum over
pairs. It shares no code with nfradar, so it stays valid when nfradar's
vectorized objective is rewritten.

Each check returns the number of work items in the output and a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.special

import workloads

SPEED_OF_LIGHT = 299792458.0
RTOL = 1e-9
# the CLI's synthesis defaults: window +-16/B around 2R/c, sampled at 4B
WINDOW_HALFSPAN = 16.0
OVERSAMPLING = 4.0
SAMPLED_POINTS = 16
SAMPLED_CRB_ROWS = 4


class ClosedForm:
    """The closed-form pair model of one scenario, evaluated pair by pair."""

    def __init__(self, carrier_freq: float):
        sc = workloads.SCENARIO
        self.bandwidth = sc["bandwidth"]
        self.wavelength = SPEED_OF_LIGHT / carrier_freq
        self.k = 2.0 * math.pi / self.wavelength
        self.width = sc["plate_width"]
        self.height = sc["plate_height"]
        self.xi = (-self.k * sc["free_space_impedance"]
                   * sc["antenna_gain_factor"] / (8.0 * math.pi))
        n = sc["n_antennas"]
        z = [(-(n - 1) / 2.0 + l) * sc["spacing"] for l in range(n)]
        # (z_s, d) per pair in tx-major order: specular height and the
        # antenna offset from it
        self.pairs = [((zt + zr) / 2.0, zt - (zt + zr) / 2.0)
                      for zt in z for zr in z]

    @staticmethod
    def _fresnel_conj(x: float) -> complex:
        s, c = scipy.special.fresnel(x)
        return complex(c, -s)

    def gain(self, z_s: float, d: float, R: float) -> complex:
        r = math.sqrt(R * R + d * d)
        if abs(z_s) > self.height / 2.0:
            return 0j
        lam = self.wavelength
        z_scale = 2.0 * R / math.sqrt(lam * r ** 3)
        alpha = self._fresnel_conj(math.sqrt(self.width ** 2 / (lam * r))) * (
            self._fresnel_conj((self.height / 2.0 - z_s) * z_scale)
            + self._fresnel_conj((self.height / 2.0 + z_s) * z_scale))
        return self.xi * alpha * complex(math.cos(-2.0 * self.k * r),
                                         math.sin(-2.0 * self.k * r)) / r

    def times(self, R: float) -> np.ndarray:
        center = 2.0 * R / SPEED_OF_LIGHT
        half = WINDOW_HALFSPAN / self.bandwidth
        rate = OVERSAMPLING * self.bandwidth
        n = max(int(round((2.0 * half) * rate)), 1)
        return (center - half) + np.arange(n) / rate

    def envelope(self, t: np.ndarray, r: float) -> np.ndarray:
        return np.sinc(self.bandwidth * (t - 2.0 * r / SPEED_OF_LIGHT))

    def received(self, R: float, noise_power: float = 0.0,
                 seed: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
        """Time base and one trace per pair at true range R. Noise follows
        nfradar's documented scheme: one PCG64 stream per trace, spawned
        from the root seed, real then imaginary part."""
        t = self.times(R)
        traces = [self.gain(z_s, d, R)
                  * self.envelope(t, math.sqrt(R * R + d * d))
                  for z_s, d in self.pairs]
        if noise_power > 0:
            scale = math.sqrt(noise_power / 2.0)
            children = np.random.SeedSequence(seed).spawn(len(traces))
            for trace, child in zip(traces, children):
                rng = np.random.Generator(np.random.PCG64(child))
                trace += scale * (rng.standard_normal(t.size)
                                  + 1j * rng.standard_normal(t.size))
        return t, traces

    def objective(self, t: np.ndarray, traces: list[np.ndarray],
                  r_hat: float, full: bool) -> float:
        """Coherent matched-energy objective |sum <m, y>|^2 / sum ||m||^2;
        the model gain is the full closed form, or the carrier phase only."""
        ip = 0j
        energy = 0.0
        for (z_s, d), y in zip(self.pairs, traces):
            r = math.sqrt(r_hat * r_hat + d * d)
            env = self.envelope(t, r)
            g = self.gain(z_s, d, r_hat) if full else complex(
                math.cos(-2.0 * self.k * r), math.sin(-2.0 * self.k * r))
            ip += g.conjugate() * complex(np.dot(env, y))
            energy += abs(g) ** 2 * float(np.dot(env, env))
        return abs(ip) ** 2 / energy if energy > 0 else 0.0


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    return header, rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _numbers(rows, columns, header, failures) -> list[dict]:
    """Rows as dicts of floats (None for an empty cell). Any cell that is
    not a finite number is a failure."""
    out = []
    for row in rows:
        record = {}
        for name, cell in zip(header, row):
            if name not in columns:
                continue
            if cell == "":
                record[name] = None
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                failures.append(f"non-finite {name} {cell!r} in row {row}")
            record[name] = value
        out.append(record)
    return out


def check_finite(text: str) -> list[str]:
    """Every numeric cell is finite and there is at least one row."""
    failures: list[str] = []
    header, rows = read_table(text)
    if not rows:
        failures.append("no rows")
    columns = set(header) - {"row_kind", "sweep_param"}
    _numbers(rows, columns, header, failures)
    return failures


def check_ambiguity(text: str, seed: int) -> tuple[int, list[str]]:
    failures: list[str] = []
    header, rows = read_table(text)
    numeric = {"sweep_value", "r_hat", "value", "width", "argmax"}
    kinds = [row[0] for row in rows]
    records = _numbers(rows, numeric, header, failures)
    curve = [r for r, kind in zip(records, kinds) if kind == "curve"]
    summary = [r for r, kind in zip(records, kinds) if kind == "summary"]

    model = ClosedForm(workloads.SCENARIO["carrier_freq"])
    step = model.wavelength / 8.0
    lo, hi = workloads.AMBIGUITY_GRID
    expected = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if len(curve) != expected or len(summary) != 1:
        failures.append(f"{len(curve)} curve and {len(summary)} summary "
                        f"rows, expected {expected} and 1")
        return len(curve), failures
    if failures:
        return len(curve), failures
    values = np.array([r["value"] for r in curve])
    grid = np.array([r["r_hat"] for r in curve])
    if np.any(values < 0) or np.any(values > 1):
        failures.append("ambiguity value outside [0, 1]")

    true_range = workloads.true_range(seed)
    width, argmax = summary[0]["width"], summary[0]["argmax"]
    if width is None or argmax is None:
        failures.append("summary row has no width or argmax")
        return len(curve), failures
    if abs(argmax - true_range) > width / 2.0:
        failures.append(f"argmax {argmax} is more than half a width "
                        f"({width}) from the true range {true_range}")

    # values are sqrt(J / J_max) with J_max at the argmax row; check the
    # ratios at a seeded sample of grid points against the reference J
    peak = int(np.argmax(values))
    if grid[peak] != argmax:
        failures.append(f"summary argmax {argmax} is not the peak row "
                        f"{grid[peak]}")
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(curve), SAMPLED_POINTS, replace=False)
    t, traces = model.received(true_range, workloads.NOISE_POWER, seed)
    j_peak = model.objective(t, traces, grid[peak], full=False)
    for i in sample:
        j = model.objective(t, traces, grid[i], full=False)
        want = math.sqrt(j / j_peak)
        if not _close(values[i], want):
            failures.append(f"value {values[i]!r} at r_hat {grid[i]!r}, "
                            f"reference {want!r}")
    return len(curve), failures


def check_crb(text: str, seed: int) -> tuple[int, list[str]]:
    failures: list[str] = []
    header, rows = read_table(text)
    records = _numbers(rows, set(header), header, failures)
    expected = workloads.crb_ranges(seed)
    if [r["range"] for r in records] != expected:
        failures.append(f"{len(records)} rows do not list the "
                        f"{len(expected)} requested ranges in order")
        return len(records), failures
    for r in records:
        if not (r["crb"] > 0 and r["curvature"] > 0):
            failures.append(f"non-positive bound or curvature in {r}")
    if failures:
        return len(records), failures

    # the CLI's defaults: full model, coherent, SNR 1 against the mean
    # sample power of all traces, stencil step min(lambda/4, c/(80B))
    model = ClosedForm(workloads.SCENARIO["carrier_freq"])
    h = min(model.wavelength / 4.0,
            SPEED_OF_LIGHT / (80.0 * model.bandwidth))
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(records), SAMPLED_CRB_ROWS, replace=False):
        R = records[i]["range"]
        t, traces = model.received(R)
        j0, j1, j2 = (model.objective(t, traces, r, full=True)
                      for r in (R - h, R, R + h))
        curvature = abs(j0 - 2.0 * j1 + j2) / (h * h)
        power = float(np.mean([np.mean(np.abs(y) ** 2) for y in traces]))
        bound = power / (2.0 * curvature)
        for name, want in (("curvature", curvature), ("crb", bound)):
            if not _close(records[i][name], want):
                failures.append(f"{name} {records[i][name]!r} at range "
                                f"{R!r}, reference {want!r}")
    return len(records), failures


# the README's 10 GHz acceptance bars
MAX_AMP_ERR_DB = 0.5
MAX_PHASE_ERR_DEG = 5.0


def check_validate(text: str, seed: int) -> tuple[int, list[str]]:
    del seed  # deterministic workload
    failures: list[str] = []
    header, rows = read_table(text)
    records = _numbers(rows, set(header), header, failures)
    model = ClosedForm(workloads.VALIDATION_CARRIER)
    if len(records) != len(model.pairs):
        failures.append(f"{len(records)} rows, expected {len(model.pairs)}")
        return len(records), failures
    if failures:
        return len(records), failures
    R = workloads.SCENARIO["range"]
    for r, (z_s, d) in zip(records, model.pairs):
        if abs(r["amp_err_db"]) > MAX_AMP_ERR_DB \
                or abs(r["phase_err_deg"]) > MAX_PHASE_ERR_DEG:
            failures.append(f"pair {r['tx']:.0f},{r['rx']:.0f} misses the "
                            f"acceptance bars: {r}")
        want = 20.0 * math.log10(abs(model.gain(z_s, d, R)))
        if not _close(r["spa_db"], want):
            failures.append(f"spa_db {r['spa_db']!r} of pair "
                            f"{r['tx']:.0f},{r['rx']:.0f}, reference {want!r}")
    return len(records), failures


CHECKS = {
    "ambiguity-77g": check_ambiguity,
    "crb-sweep": check_crb,
    "validate-10g": check_validate,
}
