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
from dataclasses import dataclass, replace

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario
from .signal import SignalSet, sample_times, synthesize, waveform_value
from .em_spa import gain_and_delay_arrays, pair_groups
from .special_fn import (chebyshev_basis, chebyshev_node_count,
                         chebyshev_nodes, cis)

_COHERENCE = ("coherent", "incoherent")

# grid chunks of the objective: at most _GRID_CHUNK points and
# _CHUNK_CELLS pair-points (bounding the per-class arrays), over which the
# smallest-|d| delay moves by at most _CHUNK_SPAN / (2B), or one point
# where a single step moves more. Within a chunk the delay groups form
# bands whose delays span at most _CHUNK_SPAN / B: one band unless the
# groups' own delay spread is comparable to 1/B. So a band's Chebyshev
# node count is at most 17, well below the 128 samples of a trace
_GRID_CHUNK = 512
_CHUNK_CELLS = 1 << 17
_CHUNK_SPAN = 1.0
# crb ranges per chunk, one gain call each (and at most _CHUNK_CELLS
# geometry-points): bounds the per-class arrays
_RANGE_CHUNK = 64
# most delay bands of crb's lattice: 17 Chebyshev nodes x 128 samples each,
# 18 MB of envelope coefficients at the cap (the reference scene takes 1
# band, 128 antennas at 0.125 m spacing and 7.7 GHz bandwidth 388)
_MAX_CRB_BANDS = 1024
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
        if not np.all((self.values >= 0) & (self.values <= 1 + 1e-12)):
            raise ValueError("values must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class CrbResult:
    """The variance lower bound noise / (2 |J''|) and the curvature |J''| at
    one range, or arrays of both over an array of ranges. Known defect: half
    the textbook Cramer-Rao bound in variance (see crb)."""

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


def _gains(scenario: Scenario, groups, rh: np.ndarray, r_s: np.ndarray,
           kind: ModelKind) -> np.ndarray:
    """The model gains at hypotheses rh, shape (rows,) + rh.shape: one row
    per (|z_s|, |d|) geometry for the full model (pair p's row is
    groups[3][p]), one per delay group for the partial one, whose gain is
    the carrier phase exp(-j 2 k r_s) alone; r_s holds the delay groups'
    r_s at rh."""
    if kind is ModelKind.FULL_INFORMATION:
        return gain_and_delay_arrays(scenario, *groups[2], rh)[0]
    return cis(-2.0 * scenario.wavenumber * r_s)


def _scale(x: np.ndarray, axis=None) -> np.ndarray:
    """Multiplies complex x in place by 2^-e, exactly, and returns e, the
    np.frexp exponent of its largest real or imaginary magnitude over axis (all
    of x for None): a scaled copy per gain block made crb 5-8% slower (2-core
    Xeon VM). J has degree 2 in the traces and 0 in each hypothesis' gains, so
    this keeps J in range and moves no bit of a normalized curve."""
    e = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)).max(
        axis=axis, keepdims=True, initial=0.0))[1]
    np.ldexp(x.real, -e, out=x.real)
    np.ldexp(x.imag, -e, out=x.imag)
    return e


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


def _as_grid(grid) -> np.ndarray:
    """grid as a float array, refused unless 1-D, nonempty and strictly
    increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("empty grid")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _envelope_coefficients(scenario: Scenario, t: np.ndarray,
                           mid: np.ndarray, h: np.ndarray):
    """(coef, gram) of the sinc envelope e(tau) = sinc(B (t - tau)) on
    each band [mid - h, mid + h] of delays, from one waveform_value call
    at K first-kind Chebyshev points per band (chebyshev_nodes), K from
    chebyshev_node_count at the widest band. The envelope is an entire
    function of tau, and e(mid + h x) = sum_j T_j(x) coef[:, j], coef of
    shape (bands, K, n), with T_j(x) of chebyshev_basis on its first axis;
    gram = coef coef^T, shape (bands, K, K), gives the correlation of two
    envelopes of one band as sum_ij T_i(x) gram_ij T_j(x')."""
    x, to_coef = chebyshev_nodes(
        chebyshev_node_count(np.pi * scenario.bandwidth * h.max()))
    nodes = mid[:, None] + h[:, None] * x
    coef = to_coef @ waveform_value(scenario.bandwidth, t,
                                    nodes.ravel()).reshape(
                                        nodes.shape + t.shape)
    return coef, coef @ coef.transpose(0, 2, 1)


def _runs(lo: np.ndarray, hi: np.ndarray, width: float, longest: int
          ) -> list[int]:
    """Bounds of consecutive runs [start, stop) covering items
    0 .. lo.size - 1, each as long as possible with
    hi[stop - 1] - lo[start] <= width and at most longest items, and at
    least one item; lo and hi nondecreasing."""
    bounds = [0]
    while bounds[-1] < lo.size:
        start = bounds[-1]
        stop = int(np.searchsorted(hi, lo[start] + width, side="right"))
        bounds.append(min(max(stop, start + 1), start + longest))
    return bounds


def _objective_on_grid(received: SignalSet, scenario: Scenario,
                       grid, kind: ModelKind,
                       coherence: str) -> np.ndarray:
    """Raw objective J over a strictly increasing 1-D grid of hypotheses.
    The one implementation of the objective's correlation of arbitrary
    received traces (crb correlates noise-free synthesis in closed form);
    unit tests check it against a plain per-pair loop in tests/oracles.py.

    Correlations are taken per template class, not per pair: pairs whose
    model traces are equal (the same delay group and model gain) form a
    class. The coherent objective needs only the sum of a class's traces,
    so it correlates 13 delay groups (partial model) or 49 (|z_s|, |d|)
    geometries (full model) for 169 pairs, and its energy is
    sum_c count_c |g_c|^2 ||e_c||^2; the incoherent one keeps one class
    per pair.

    The envelope enters in delay space (_envelope_coefficients): each
    band of delay groups in a grid chunk (see _CHUNK_SPAN; one band per
    chunk unless the groups' own delay spread is comparable to 1/B) takes
    Chebyshev coefficients C on its delay interval, a chunk's bands in one
    envelope call, and each hypothesis' basis values T = (T_j(x)) give
    corr = T C y and ||e||^2 = T G T^T: 12 nodes on a 512-point lambda/8
    chunk of the reference scene, 17 at a span of 1/B.
    """
    if coherence not in _COHERENCE:
        raise ValueError(f"unknown coherence {coherence!r}")
    grid = _as_grid(grid)
    _validate_hypothesis(scenario, grid)
    groups = pair_groups(scenario)
    abs_d, group = groups[:2]
    # pair p's row in _gains' result; pairs with equal rows have equal
    # templates
    rows = groups[3] if kind is ModelKind.FULL_INFORMATION else group
    # template classes: a class's pairs lie in one delay group, so the
    # pairs sorted by (group, class) give each class one contiguous run,
    # and each group's classes are one contiguous run of classes
    of_class = rows if coherence == "coherent" else np.arange(group.size)
    order = np.lexsort((of_class, group))
    starts = np.flatnonzero(np.diff(of_class[order], prepend=-1))
    rep = order[starts]  # each class's first pair
    count = np.diff(starts, append=order.size)[:, None]
    y = np.add.reduceat(received.traces[order], starts)
    # group u's classes are first[u]:first[u + 1]
    first = np.searchsorted(group[rep], np.arange(abs_d.size + 1))
    # the nodes and times relative to the middle time t_ref: a node
    # written as t_ref + (mid - t_ref) + h x keeps the rounding of
    # mid - t_ref; formed as mid + h x it would carry the rounding of mid,
    # eps 2R/c
    t = received.times
    t_ref = t[t.size // 2]
    t_rel = t - t_ref
    width = _CHUNK_SPAN / scenario.bandwidth
    tau_0 = 2.0 * np.sqrt(grid ** 2 + abs_d[0] ** 2) / SPEED_OF_LIGHT
    chunks = _runs(tau_0, tau_0, width / 2.0,
                   max(min(_GRID_CHUNK, _CHUNK_CELLS // group.size), 1))

    out = np.empty(grid.size, dtype=float)
    for start, stop in zip(chunks[:-1], chunks[1:]):
        rh = grid[start:stop]
        r_s = np.sqrt(rh ** 2 + abs_d[:, None] ** 2)
        tau = 2.0 * r_s / SPEED_OF_LIGHT
        bands = _runs(tau[:, 0], tau[:, -1], width, abs_d.size)
        lo = tau[bands[:-1], 0]
        hi = tau[np.subtract(bands[1:], 1), -1]
        mid, h = (hi + lo) / 2.0, (hi - lo) / 2.0
        coef, gram = _envelope_coefficients(scenario, t_rel, mid - t_ref, h)
        # basis T_j(x) at every (group, hypothesis), shape (K, groups, g);
        # by_group is its (groups, K, g) view
        band = np.repeat(np.arange(mid.size), np.diff(bands))
        x = np.divide(tau - mid[band, None], h[band, None],
                      out=np.zeros_like(tau), where=h[band, None] > 0)
        basis = chebyshev_basis(x, coef.shape[1])
        by_group = basis.transpose(1, 0, 2)
        env_sq = np.einsum("ujg,ujg->ug", gram[band] @ by_group, by_group)
        corr = np.empty((rep.size, rh.size), dtype=complex)
        for i, (u0, u1) in enumerate(zip(bands[:-1], bands[1:])):
            coef_corr = y[first[u0]:first[u1]] @ coef[i].T
            for u, a, b in zip(range(u0, u1), first[u0:u1], first[u0 + 1:]):
                corr[a:b] = (coef_corr[a - first[u0]:b - first[u0]]
                             @ basis[:, u])
        gain = _gains(scenario, groups, rh, r_s, kind)[rows[rep]]
        _scale(gain, axis=0)
        energy = count * np.abs(gain) ** 2 * env_sq[group[rep]]
        out[start:stop] = _reduce(np.conj(gain) * corr, energy, coherence)
    return out


def _amplitude(received: SignalSet, scenario: Scenario, grid,
               kind: ModelKind, coherence: str) -> np.ndarray:
    """sqrt(max(J, 0)) over the grid, J of the received traces scaled, in a
    copy, by a power of two (_scale): finite for finite traces of any scale."""
    traces = received.traces.astype(complex)
    _scale(traces)
    raw = _objective_on_grid(replace(received, traces=traces), scenario,
                             grid, kind, coherence)
    return np.sqrt(np.maximum(raw, 0.0))


def ambiguity(scenario: Scenario, true_range: float, grid,
              kind: ModelKind = ModelKind.PARTIAL_INFORMATION,
              coherence: str = "coherent",
              received: SignalSet | None = None) -> AmbiguityCurve:
    """Normalized amplitude of the objective over the grid, noise-free
    received signals generated at true_range. The grid must cover the true
    range so the peak is observable; it must be 1-D and strictly
    increasing."""
    grid = _as_grid(grid)
    if not (grid[0] <= true_range <= grid[-1]):
        raise ValueError("grid does not cover the true range")
    if received is None:
        received = synthesize(scenario, true_range=true_range, backend="spa")
    amplitude = _amplitude(received, scenario, grid, kind, coherence)
    peak = amplitude.max()
    if peak == 0.0:
        raise ValueError("objective identically zero over the grid")
    return AmbiguityCurve(grid=grid, values=amplitude / peak)


def estimate_range(received: SignalSet, scenario: Scenario, grid,
                   kind: ModelKind = ModelKind.PARTIAL_INFORMATION,
                   coherence: str = "coherent") -> float:
    """Grid argmax of the objective, refined by 3-point parabolic
    interpolation on the amplitude curve. Ties break toward smaller range;
    an edge peak is returned unrefined. The grid must be 1-D and strictly
    increasing, so that the parabola's three points are neighbours."""
    grid = _as_grid(grid)
    amp = _amplitude(received, scenario, grid, kind, coherence)
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
    below = np.flatnonzero(values < half)
    left, right = below[below < i], below[below > i]
    if not left.size:
        raise ValueError("no half-power crossing left of the peak")
    if not right.size:
        raise ValueError("no half-power crossing right of the peak")
    # each crossing lies between the grid points j and j + 1
    j = np.array([left[-1], right[0] - 1])
    cross = grid[j] + (half - values[j]) * (grid[j + 1] - grid[j]) \
        / (values[j + 1] - values[j])
    return float(cross[1] - cross[0])


def _crb_lattice(scenario: Scenario, h: float) -> tuple[np.ndarray, float]:
    """(start, width): the delay bands of crb's stencil objective at step h
    (_stencil_objective), band i covering [start[i], start[i] + width].
    Refuses, before any node is built, a scene that needs more than
    _MAX_CRB_BANDS bands: their number grows with the array's largest pair
    offset times B."""
    floor = scenario.min_range_wavelengths * scenario.wavelength
    reach = (scenario.n_antennas - 1) * (scenario.spacing / 2.0)
    lo = -2.0 * h / SPEED_OF_LIGHT
    hi = 2.0 * (np.hypot(floor + 2.0 * h, reach) - floor - h) / SPEED_OF_LIGHT
    spread = 4.0 * h / SPEED_OF_LIGHT
    width = _CHUNK_SPAN / scenario.bandwidth
    n_bands = 1 + max(int(np.ceil((hi - lo - width) / (width - spread))), 0)
    if n_bands > _MAX_CRB_BANDS:
        raise ValueError(
            f"pair offsets up to {reach:g} m at bandwidth "
            f"{scenario.bandwidth:g} Hz need a crb delay lattice of "
            f"{n_bands} bands, more than {_MAX_CRB_BANDS}: narrow the array "
            "(n_antennas, spacing) or the bandwidth")
    width = min(width, hi - lo)
    return lo + (width - spread) * np.arange(n_bands), width


def crb_stencil(scenario: Scenario, R) -> tuple[np.ndarray, float]:
    """(stencil, h): the hypotheses R - h, R, R + h of crb along a new last
    axis, with h = min(lambda/4, c/(80B)), which resolves both the
    carrier-scale lobes and the bandwidth-limited main lobe (about
    width/35). Refuses a scene whose delay lattice is over budget
    (_crb_lattice), and any hypothesis that is not positive and finite or
    lies below the validity floor, naming the first."""
    h = min(scenario.wavelength / 4.0,
            SPEED_OF_LIGHT / (80.0 * scenario.bandwidth))
    _crb_lattice(scenario, h)
    R = np.asarray(R, dtype=float)
    stencil = np.stack([R - h, R, R + h], axis=-1)
    _validate_hypothesis(scenario, stencil)
    return stencil, h


def _stencil_objective(scenario: Scenario, stencil: np.ndarray, h: float,
                       coherence: str, snr_normalization: str
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, signal_power, e) of crb: full-model J at every stencil point (shape
    of stencil, rows R = stencil[:, 1], spaced by h) against the noise-free
    synthesis at R, and its signal power per range, both of range i times
    2^(-2e[i]) exactly: _scale scales the gains at each stencil point, those at
    R by 2^(-e[i]), and J has degree 0 in the model gains. Pair p's received
    trace is g_p(R) e(tau_u(R)), so its correlation with the model at R_hat is
    conj(g_p(R_hat)) g_p(R) <e(tau_u(R_hat)), e(tau_u(R))>: no trace is formed,
    and the pairs of one (|z_s|, |d|) geometry are one class. The envelope
    enters in delay space (_envelope_coefficients). Relative to the middle time
    2R/c of the synthesis time base, a stencil delay 2 (r_s(R_hat) - R)/c lies
    between -2h/c and its value at the lowest range the validity floor allows.
    That interval carries the Chebyshev nodes (13 on the reference scene), or
    where wider than 1/B each band of a lattice on it, 1/B wide and overlapping
    by the stencil's delay spread 4h/c <= 1/(20B), so that a range's three
    points share a band (4 bands of 17 at 1 GHz bandwidth). The nodes depend on
    the scene only, never on the ranges of a call. The correlation is
    T(x_R_hat) G T(x_R)^T, the energy T(x_R_hat) G T(x_R_hat)^T. Against
    long-double sinc sums (tests/oracles.py) the curvature is within 4.7e-10
    relative over 2-8 m at 13 and 4 antennas and at 1 GHz bandwidth."""
    groups = pair_groups(scenario)
    abs_d, group, geometry, of_pair = groups
    count = np.bincount(of_pair)[:, None, None]
    of_class = np.searchsorted(abs_d, geometry[1])  # each one's delay group
    d_sq = abs_d[:, None, None] ** 2
    start, width = _crb_lattice(scenario, h)
    t = sample_times(scenario, 0.0)
    coef, gram = _envelope_coefficients(scenario, t, start + width / 2.0,
                                        np.full(start.size, width / 2.0))
    k = coef.shape[1]

    j = np.empty(stencil.shape)
    signal_power = np.empty(stencil.shape[0])
    exponent = np.empty(stencil.shape[0], dtype=int)
    chunk = max(min(_RANGE_CHUNK, _CHUNK_CELLS // (3 * count.size)), 1)
    for first in range(0, stencil.shape[0], chunk):
        rh = stencil[first:first + chunk]
        R = rh[:, 1:2]
        r_s = np.sqrt(rh ** 2 + d_sq)
        # 2 (r_s - R)/c without cancellation (rh - R is exact), shape
        # (groups, ranges, 3)
        delay = 2.0 * ((rh - R) * (rh + R) + d_sq) \
            / ((r_s + R) * SPEED_OF_LIGHT)
        band = np.repeat(np.maximum(np.searchsorted(
            start, delay[..., 0], side="right") - 1, 0), 3)
        basis = chebyshev_basis(
            (delay.ravel() - start[band]) / (width / 2.0) - 1.0, k)
        weighted = np.empty_like(basis)
        for i in range(start.size):
            weighted[:, band == i] = gram[i] @ basis[:, band == i]
        weighted = weighted.reshape((k,) + delay.shape)
        basis = basis.reshape((k,) + delay.shape)
        env_sq = np.einsum("kurj,kurj->urj", weighted, basis)[of_class]
        corr = np.einsum("kurj,kur->urj", weighted, basis[..., 1])[of_class]
        gain = _gains(scenario, groups, rh, r_s, ModelKind.FULL_INFORMATION)
        exponent[first:first + chunk] = _scale(gain, axis=0)[0, :, 1]
        power = np.abs(gain) ** 2
        j[first:first + chunk] = _reduce(
            count * np.conj(gain) * gain[..., 1:2] * corr,
            count * power * env_sq, coherence)
        # sum_n |y_p(t_n)|^2 / n per geometry: the pairs' mean or the largest
        centre = power[..., 1] * env_sq[..., 1] / t.size
        signal_power[first:first + chunk] = (
            np.sum(count[..., 0] * centre, axis=0) / group.size
            if snr_normalization == "total" else centre.max(axis=0))
    return j, signal_power, exponent


def crb(scenario: Scenario, R, snr: float = 1.0,
        snr_normalization: str = "total",
        coherence: str = "coherent") -> CrbResult:
    """Numerical variance bound from the full-model objective curvature, at
    one range R or at each of a 1-D array of ranges; for an array the
    result's fields are arrays of its length.

    The noise-free objective is evaluated at R - h, R, R + h, h fixed by
    the scene (crb_stencil); the central second difference gives the
    curvature, and the bound is noise_power / (2 |J''|) with noise_power
    set by the constant receive SNR convention: "total" references the
    mean sample power over all traces, "per_pair" the strongest pair's
    mean sample power. Absolute levels therefore depend on that convention;
    shapes across sweeps do not. J and the signal power carry one power of
    two per range (_stencil_objective), which the bound cancels and the
    curvature takes back. Refused: a stencil not concave by more than J's
    rounding (_CURVATURE_FLOOR), a curvature that is not a normal float
    (7.85e12 g^2 at 4 m, gain factor g) and an overflowing bound.

    The received data is the noise-free synthesis at R, correlated in
    closed form without forming a trace. An array of ranges is all or
    nothing: if any range is refused, the call raises, naming the first
    such range, and returns no bound.

    Known defect: the bound is half the textbook Cramer-Rao bound
    sigma^2 / |J''| in variance. At 4 m on the reference scene sqrt(bound)
    is 0.280 mm against 0.397 mm, and 300 noisy trials of the full-model
    coherent estimator gave an RMSE of 0.407 mm.
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
    stencil, h = crb_stencil(scenario, ranges)
    j, signal_power, e = _stencil_objective(scenario, stencil, h, coherence,
                                            snr_normalization)
    j0, j1, j2 = j.T
    second = j0 - 2.0 * j1 + j2
    bad = ~((j1 > j0) & (j1 > j2) & (-second > _CURVATURE_FLOOR * j1))
    if bad.any():
        raise ValueError(
            f"non-concave stencil at R = {float(ranges[bad.argmax()])!r}"
            " m: the objective's second difference there is not resolved "
            "above its rounding")
    scaled = np.abs(second) / (h * h)
    with np.errstate(over="ignore"):
        curvature = np.ldexp(scaled, 2 * e)
        bound = signal_power / (2.0 * scaled) / snr
    bad = ~np.isfinite(curvature) | (curvature < np.finfo(float).tiny)
    if bad.any():
        raise ValueError(
            f"curvature at R = {float(ranges[bad.argmax()])!r} m is "
            f"{float(curvature[bad.argmax()]):g}, not a normal float")
    bad = np.isinf(bound)
    if bad.any():
        raise ValueError(
            f"bound at R = {float(ranges[bad.argmax()])!r} m overflows at "
            f"snr {snr:g}: it exceeds the largest float")
    if np.ndim(R) == 0:
        return CrbResult(range=float(ranges[0]), bound=float(bound[0]),
                         curvature=float(curvature[0]))
    return CrbResult(range=ranges, bound=bound, curvature=curvature)
