"""Maximum-likelihood range estimation, ambiguity curves, and the numerical
Cramer-Rao bound.

The estimator correlates the received multistatic traces against model
signals regenerated at hypothesized standoffs R_hat. Two knowledge levels:

  full_information     model traces are the complete closed-form synthesis
                       at R_hat, per-pair Fresnel coefficients included;
  partial_information  only the delay and carrier-phase structure is kept,
                       s(t - 2 r_s(R_hat)/c) exp(-j 2 k r_s(R_hat)) per
                       pair, with the unknown complex gains profiled out.

The matched-energy objective is

    J(R_hat) = |sum_p <m_p, y_p>|^2 / sum_p ||m_p||^2      (coherent)
    J(R_hat) = sum_p |<m_p, y_p>|^2 / ||m_p||^2            (incoherent)

where m are the model traces and y the received ones. The incoherent
variant drops every cross-pair phase relation; for partial templates that
cancels the carrier phase per pair entirely, so it is bandwidth-only and
cannot see the near-field carrier information. Coherent is the default for
that reason.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario
from .signal import (SignalSet, WaveformRef, sample_times, synthesize,
                     waveform_value)
from .em_spa import gain_and_delay_arrays, pair_offsets

_COHERENCE = ("coherent", "incoherent")

# grid chunk for the vectorized objective: bounds the envelope block's
# memory. The same call gives the same bits; a value may still differ in
# the last bit when the grid is cut differently, because numpy and BLAS
# pick their reduction order by block shape
_GRID_CHUNK = 64
# crb ranges per block: bounds the stencil envelope block's memory
_RANGE_CHUNK = 16
# smallest crb stencil second difference, relative to J(R), taken as
# curvature: each J carries rounding error of up to about 1e-15 of J, so
# the floor keeps that error below a few percent of the curvature
_CURVATURE_FLOOR = 1e-13


class ModelKind(enum.Enum):
    FULL_INFORMATION = "full"
    PARTIAL_INFORMATION = "partial"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        for kind in cls:
            if text in (kind.value, kind.name.lower()):
                return kind
        raise ValueError(f"unknown model kind {text!r}")


@dataclass(frozen=True, eq=False)
class AmbiguityCurve:
    """Objective over a grid of hypothesized ranges.

    values holds the normalized amplitude of the matched-energy statistic
    (the square root of the objective), scaled so the global max is 1.
    The amplitude convention is what makes the half-power width of a
    bandwidth-limited curve come out at the classic c/2B.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.grid.size != self.values.size:
            raise ValueError("grid and values must be 1-D and equal length")
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.values < 0) or np.any(self.values > 1 + 1e-12):
            raise ValueError("values must lie in [0, 1]")


@dataclass(frozen=True)
class CrbResult:
    """Variance lower bound at one range, bound = noise / (2 |J''|); from
    an array of ranges every field is an array of that length."""

    range: float
    bound: float
    curvature: float


def _validate_hypothesis(scenario: Scenario, r_hat) -> None:
    """Refuses, naming the first offender, a hypothesized range that is
    not positive and finite or lies below the validity floor."""
    floor = scenario.min_range_wavelengths * scenario.wavelength
    r_hat = np.asarray(r_hat, dtype=float).ravel()
    bad = ~(np.isfinite(r_hat) & (r_hat > 0))
    if bad.any():
        raise ValueError(f"hypothesized range {r_hat[bad.argmax()]:g} m "
                         "must be positive and finite")
    bad = r_hat < floor
    if bad.any():
        raise ValueError(
            f"hypothesized range {r_hat[bad.argmax()]:g} m below validity "
            f"floor {floor:g} m "
            f"({scenario.min_range_wavelengths:g} wavelengths)")


def _pair_groups(scenario: Scenario):
    """(abs_d, group, geometry, of_pair): the pairs' delay groups and gain
    geometries, so that nothing per pair is computed twice.

    A pair's delay depends on |d| alone: abs_d holds the distinct values,
    group[p] the index of pair p's. Its full-model gain depends on
    (|z_s|, |d|) alone, bit for bit, because mirroring z_s only swaps the
    two Fresnel edge terms of a commutative add: geometry holds the
    distinct (|z_s|, |d|) as two rows, of_pair[p] the column of pair p's.
    13 antennas give 13 delay groups and 49 geometries for 169 pairs."""
    z_s, d = pair_offsets(scenario)
    abs_d, group = np.unique(np.abs(d), return_inverse=True)
    geometry, of_pair = np.unique(np.abs([z_s, d]), axis=1,
                                  return_inverse=True)
    return abs_d, group, geometry, of_pair


def _templates(scenario: Scenario, groups, rh: np.ndarray, t: np.ndarray,
               kind: ModelKind):
    """(env, energy, gain) of the model at hypotheses rh of any shape, on
    sample times t of shape rh.shape[:-1] + (n,): each delay group's
    envelope, shape (groups,) + rh.shape + (n,), and each pair's model
    energy |m_p|^2 sum_n e^2 and model gain, shape (pairs,) + rh.shape.
    The partial model's gain is the carrier phase exp(-j 2 k r_s) alone."""
    abs_d, group, geometry, of_pair = groups
    r_s = np.sqrt(rh ** 2 + abs_d.reshape((-1,) + (1,) * rh.ndim) ** 2)
    env = waveform_value(WaveformRef.sinc(scenario.bandwidth), t,
                         2.0 * r_s / SPEED_OF_LIGHT)
    # energies before gains: the reverse gave 40% more page faults per call
    env_sq = np.einsum("u...n,u...n->u...", env, env)[group]
    if kind is ModelKind.FULL_INFORMATION:
        # evaluated once per gain geometry, then indexed back to the pairs
        gain, _ = gain_and_delay_arrays(scenario, *geometry, rh)
        gain = gain[of_pair]
    else:
        gain = np.exp(-2j * scenario.wavenumber * r_s)[group]
    return env, np.abs(gain) ** 2 * env_sq, gain


def _reduce(ip: np.ndarray, energy: np.ndarray, coherence: str
            ) -> np.ndarray:
    """J from the pairs' inner products <m_p, y_p> and model energies
    ||m_p||^2, pairs on the leading axis: |sum ip|^2 / sum energy
    (coherent) or sum |ip|^2 / energy (incoherent); a zero-energy
    denominator contributes 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        if coherence == "coherent":
            num = np.abs(ip.sum(axis=0)) ** 2
            den = energy.sum(axis=0)
            return np.where(den > 0.0, num / den, 0.0)
        per_pair = np.where(energy > 0.0, np.abs(ip) ** 2 / energy, 0.0)
    return per_pair.sum(axis=0)


def _objective_on_grid(received: SignalSet, scenario: Scenario,
                       grid: np.ndarray, kind: ModelKind,
                       coherence: str) -> np.ndarray:
    """Raw objective J over a grid of hypotheses, vectorized over pairs and
    grid chunks. The one implementation of the objective's correlation of
    arbitrary received traces (crb correlates noise-free synthesis in
    closed form); a unit test checks it against a plain per-pair loop in
    tests/oracles.py.

    A pair's delay depends only on |d|, so the pairs fall into delay
    groups (13 for a 13-element array) that share one envelope; each
    group's correlations are one real matrix product of its envelopes with
    its traces stacked as real and imaginary columns."""
    if coherence not in _COHERENCE:
        raise ValueError(f"unknown coherence {coherence!r}")
    _validate_hypothesis(scenario, grid)
    groups = _pair_groups(scenario)
    group = groups[1]
    members = [np.flatnonzero(group == u) for u in range(groups[0].size)]
    # per group (n, 2m): the member traces' real parts, then imaginary
    y = received.traces
    stacked = [np.concatenate([y[idx].real, y[idx].imag]).T
               for idx in members]
    t = received.times

    out = np.empty(grid.size, dtype=float)
    for start in range(0, grid.size, _GRID_CHUNK):
        rh = grid[start:start + _GRID_CHUNK]
        # envelope block (groups, g, n); the chunk's only n-sized array
        env, energy, gain = _templates(scenario, groups, rh, t, kind)
        corr = np.empty((group.size, rh.size), dtype=complex)
        for u, idx in enumerate(members):
            prod = env[u] @ stacked[u]
            corr[idx] = (prod[:, :idx.size] + 1j * prod[:, idx.size:]).T
        out[start:start + _GRID_CHUNK] = _reduce(np.conj(gain) * corr,
                                                 energy, coherence)
    return out


def ambiguity(scenario: Scenario, true_range: float, grid,
              kind: ModelKind = ModelKind.PARTIAL_INFORMATION,
              coherence: str = "coherent",
              received: SignalSet | None = None) -> AmbiguityCurve:
    """Normalized amplitude of the objective over the grid, noise-free
    received signals generated at true_range. The grid must cover the true
    range so the peak is observable."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if not (grid[0] <= true_range <= grid[-1]):
        raise ValueError("grid does not cover the true range")
    if received is None:
        received = synthesize(scenario, true_range=true_range, backend="spa")
    raw = _objective_on_grid(received, scenario, grid, kind, coherence)
    amplitude = np.sqrt(np.maximum(raw, 0.0))
    peak = amplitude.max()
    if peak == 0.0:
        raise ValueError("objective identically zero over the grid")
    return AmbiguityCurve(grid=grid, values=amplitude / peak)


def estimate_range(received: SignalSet, scenario: Scenario, grid,
                   kind: ModelKind = ModelKind.PARTIAL_INFORMATION,
                   coherence: str = "coherent") -> float:
    """Grid argmax of the objective, refined by 3-point parabolic
    interpolation on the amplitude curve. Ties break toward smaller range;
    an edge peak is returned unrefined."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    raw = _objective_on_grid(received, scenario, grid, kind, coherence)
    amp = np.sqrt(np.maximum(raw, 0.0))
    i = int(np.argmax(amp))  # first max: tie toward smaller range
    if i == 0 or i == grid.size - 1:
        return float(grid[i])
    x0, x1, x2 = grid[i - 1:i + 2]
    v0, v1, v2 = amp[i - 1:i + 2]
    # vertex of the quadratic through the three points (uniform or not)
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (v1 - v0) + x1 * (v0 - v2) + x0 * (v2 - v1)) / denom
    b = (x2 * x2 * (v0 - v1) + x1 * x1 * (v2 - v0)
         + x0 * x0 * (v1 - v2)) / denom
    if a >= 0.0:
        return float(x1)
    vertex = -b / (2.0 * a)
    lo, hi = min(x0, x2), max(x0, x2)
    return float(min(max(vertex, lo), hi))


def half_power_width(curve: AmbiguityCurve) -> float:
    """Width of the contiguous region around the global peak where the
    curve stays at or above half its peak value, with linear-interpolated
    crossings. Requires a unique interior global max and a crossing on
    each side inside the grid."""
    values = curve.values
    grid = curve.grid
    vmax = values.max()
    peaks = np.flatnonzero(values == vmax)
    if peaks.size != 1:
        raise ValueError("global max is not unique")
    i = int(peaks[0])
    if i == 0 or i == values.size - 1:
        raise ValueError("global max at grid edge")
    half = 0.5 * vmax

    j = i
    while j > 0 and values[j - 1] >= half:
        j -= 1
    if j == 0 and values[0] >= half:
        raise ValueError("no half-power crossing left of the peak")
    left = grid[j - 1] + (half - values[j - 1]) * (grid[j] - grid[j - 1]) \
        / (values[j] - values[j - 1])

    j = i
    while j < values.size - 1 and values[j + 1] >= half:
        j += 1
    if j == values.size - 1 and values[-1] >= half:
        raise ValueError("no half-power crossing right of the peak")
    right = grid[j] + (half - values[j]) * (grid[j + 1] - grid[j]) \
        / (values[j + 1] - values[j])
    return float(right - left)


def default_crb_step(scenario: Scenario) -> float:
    """Stencil step resolving both carrier-scale lobes (lambda/4) and the
    bandwidth-limited main lobe (c/(80B), about width/35)."""
    return min(scenario.wavelength / 4.0,
               SPEED_OF_LIGHT / (80.0 * scenario.bandwidth))


def crb_stencil(scenario: Scenario, R, step: float | None = None
                ) -> tuple[np.ndarray, float]:
    """(stencil, h): the hypotheses R - h, R, R + h of crb along a new last
    axis, h the given step or default_crb_step. Refuses a step that is not
    positive, and any hypothesis that is not positive and finite or lies
    below the validity floor, naming the first."""
    h = default_crb_step(scenario) if step is None else float(step)
    if not h > 0:
        raise ValueError("step must be positive")
    R = np.asarray(R, dtype=float)
    stencil = np.stack([R - h, R, R + h], axis=-1)
    _validate_hypothesis(scenario, stencil)
    return stencil, h


def _stencil_objective(scenario: Scenario, stencil: np.ndarray,
                       coherence: str, snr_normalization: str
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(J, signal_power) of crb: full-model J at every stencil point (shape
    of stencil, one row per range R = stencil[:, 1]) against the
    noise-free synthesis at R, and that synthesis' signal power per range.

    Pair p's received trace is g_p(R) e_u(R, t): its model gain and its
    delay group's envelope at R, on synthesize's time base at R. So its
    correlation with the model m_p at R_hat is
    conj(m_p(R_hat)) g_p(R) sum_n e_u(R_hat, t_n) e_u(R, t_n), and no
    trace is formed. Ranges are taken _RANGE_CHUNK at a time."""
    groups = _pair_groups(scenario)
    reduce = np.mean if snr_normalization == "total" else np.max
    j = np.empty(stencil.shape)
    signal_power = np.empty(stencil.shape[0])
    for start in range(0, stencil.shape[0], _RANGE_CHUNK):
        block = slice(start, start + _RANGE_CHUNK)
        rh = stencil[block]
        # envelope block (groups, ranges, 3, n); the received traces at R
        # are the templates' stencil centre
        env, energy, model = _templates(
            scenario, groups, rh, sample_times(scenario, rh[:, 1]),
            ModelKind.FULL_INFORMATION)
        corr = np.einsum("ucjn,ucn->ucj", env, env[:, :, 1])[groups[1]]
        j[block] = _reduce(np.conj(model) * model[:, :, 1:2] * corr, energy,
                           coherence)
        # sum_n |y_p(t_n)|^2 per pair, reduced over the pairs
        signal_power[block] = reduce(energy[:, :, 1], axis=0) / env.shape[-1]
    return j, signal_power


def crb(scenario: Scenario, R, step: float | None = None, snr: float = 1.0,
        snr_normalization: str = "total",
        coherence: str = "coherent") -> CrbResult:
    """Numerical variance bound from the full-model objective curvature, at
    one range R or at each of a 1-D array of ranges; for an array the
    result's fields are arrays of its length.

    The noise-free objective is evaluated at R - step, R, R + step; the
    central second difference gives the curvature, and the bound is
    noise_power / (2 |J''|) with noise_power set by the constant receive
    SNR convention: "total" references the mean sample power over all
    traces, "per_pair" the strongest pair's mean sample power. Absolute
    levels therefore depend on that convention; shapes across sweeps do
    not. The step must resolve the main lobe (about width/20 or finer), or
    the stencil stops being concave and is rejected.

    The received data is the noise-free synthesis at R, correlated in
    closed form without forming a trace. An array of ranges is all or
    nothing: if any range is refused, the call raises, naming the first
    such range, and returns no bound.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    if snr_normalization not in ("total", "per_pair"):
        raise ValueError(
            f"unknown snr normalization {snr_normalization!r}")
    if coherence not in _COHERENCE:
        raise ValueError(f"unknown coherence {coherence!r}")
    if np.ndim(R) > 1:
        raise ValueError("R must be a scalar or a 1-D array of ranges")
    ranges = np.atleast_1d(np.asarray(R, dtype=float))
    stencil, h = crb_stencil(scenario, ranges, step)
    j, signal_power = _stencil_objective(scenario, stencil, coherence,
                                         snr_normalization)
    j0, j1, j2 = j.T
    second = j0 - 2.0 * j1 + j2
    bad = ~((j1 > j0) & (j1 > j2) & (-second > _CURVATURE_FLOOR * j1))
    if bad.any():
        raise ValueError(
            f"non-concave stencil at R = {float(ranges[bad.argmax()])!r}"
            " m: step does not resolve the objective curvature (too large "
            "for the main lobe, or so small the objective change is below "
            "float resolution)")
    curvature = np.abs(second) / (h * h)
    bound = signal_power / snr / (2.0 * curvature)
    if np.ndim(R) == 0:
        return CrbResult(range=float(ranges[0]), bound=float(bound[0]),
                         curvature=float(curvature[0]))
    return CrbResult(range=ranges, bound=bound, curvature=curvature)
