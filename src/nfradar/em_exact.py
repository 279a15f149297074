"""Brute-force physical-optics field integral over the plate.

This module is the ground-truth oracle: it evaluates the backscattered
signal of a (tx, rx) pair as

    u(t) = -2 k^2 eta L^2 I0 / (4 pi)^2 * integral over plate of g e^{j psi}

with

    g(y, z)   = s(t - (r_l + r_l')/c) cos(theta_l) cos(phi_l)
                cos^2(theta_l') / (r_l r_l')
    psi(y, z) = -k (r_l + r_l')
    r_l       = sqrt(R^2 + y^2 + (z - z_l)^2)

Geometry note. The antennas are y-oriented dipoles at (-R, 0, z_l); the
plate occupies x = 0. With the ray from antenna l to the plate point
(0, y, z), the angles are measured in the antenna's frame with the dipole
along y:

    cos(theta_l) = sqrt(R^2 + (z - z_l)^2) / r_l   (inclination from the
                                                    dipole axis)
    cos(phi_l)   = R / sqrt(R^2 + (z - z_l)^2)     (azimuth toward the
                                                    plate normal)

so cos(theta_l) cos(phi_l) = R / r_l, and the receive-side factor is
cos^2(theta_l') = (R^2 + (z - z_l')^2) / r_l'^2. This assignment is the one
that reduces g to R / r^3 at the specular point of every pair (the exact
stationary-point amplitude), which pins the convention unambiguously; the
specular-limit unit test asserts it.

Per-antenna factors. With rho_l^2 = R^2 + (z - z_l)^2 the integrand splits
into one factor per antenna,

    g e^{j psi} = s(t - (r_l + r_l')/c) A_l B_l',
    A_l = e^{-jk r_l} / r_l^2,   B_l = R rho_l^2 e^{-jk r_l} / r_l^3,

so r, A and B are computed once per antenna, and at a fixed delay the
plate sum is the matrix product A W B^T with the quadrature weights W.

The sinc as a frequency quadrature. The sinc is band-limited,
s(t - tau) = 1/2 integral over x in [-1, 1] of e^{j pi B x (t - tau)} dx,
and its delay factor e^{-j pi B x (r_l + r_l')/c} splits per antenna like
the carrier's. So at a Gauss-Legendre node x_m, weight w_m, the plate sum
M(x_m) is the constant waveform's at the phase wavenumber k + pi B x_m / c
(amplitudes and prefactor stay at the carrier), and the traces are
sum_m (w_m / 2) e^{j pi B x_m t} M(x_m); the constant waveform is the node
x = 0, weight 1, with no time factor. The largest pi B |t - tau| sets the
node count: 51 plate sums on synthesize's +-16/B window, where 44 reach
the sums' rounding and 40 are 6.9e-11 of the peak off.

The plate sum as a two-axis form. A and B depend on y only through u = y^2,
and both are smooth in u along a z row and in z along a y column: over the
reference plate's folded quarter the phase k r moves by at most 4.2 rad in
u and 69 rad in z at 10 GHz (32 and 531 rad at 77 GHz), which its 134
folded y nodes and 292 folded z rows (1,028 and 2,248) oversample many
times over. So the factors are evaluated at K_z x K_y first-kind Chebyshev
points instead, in z on the folded half and in u (77 x 24 at 10 GHz,
347 x 70 at 77 GHz, by _z_count's and _y_count's rules at the band's top
k + pi B / c), and each axis' weights become a real K x K matrix,
G = E_z diag(w_z) E_z^T and H = E_y diag(w_y) E_y^T, E the interpolation
matrix from the points to that axis' nodes. The half-plate sums are
A (G x H) B^T: H along u and G along z as two real matrix products, then
one complex product over the antennas (_axis_form, _plate_sum). The
nodes, weights, fold and mirror identity are those of the direct sum, so
this is the same quadrature up to interpolation and rounding: each pair
is within 1.2e-13 of the direct sum at 10 GHz, 6.0e-13 at 24 GHz and
1.8e-12 at 77 GHz, the size of the rounding eps k r of the phases. Along
an axis where the form would not be cheaper, the direct sum runs.

Quarter plate. The integrand depends on y only through y^2, so only the
y >= 0 half of the symmetric y nodes is evaluated. The elements and the
z nodes are symmetric about z = 0, so r_l(y, -z) = r_{N-1-l}(y, z): pair
(l, l') on the z < 0 half is pair (N-1-l, N-1-l') on the z > 0 half.
Only the z >= 0 half is summed, as M with folded weights, and the whole
plate is (M + M flipped in both antenna axes) / 2, which is bitwise
symmetric under that flip.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario, antenna_positions
# not called here: perfbench/tracing.py wraps em_exact.waveform_value by name
from .signal import WaveformRef, waveform_value  # noqa: F401
from .special_fn import (NODE_TOL, chebyshev_basis, chebyshev_node_count,
                         chebyshev_nodes, phase_node_count)

_RULES = ("midpoint", "gauss_legendre_composite")

# Bound on the values of the per-node arrays in one block of z points
# (points x antennas x y points); a block holds at least one point. The
# block size depends only on the scene, never on available memory, so the
# summation order and the result are bitwise reproducible. Blocks of 2^14
# keep the arrays in cache: on a 2-core Xeon VM, 2^16 took 1.4-1.7x as
# long at 10 GHz.
_BLOCK_NODES = 1 << 14
# Cost of one per-antenna factor (a square root, a complex exponential
# and four products) in real multiply-adds of the axis forms' matrix
# products: about 58 ns against 0.04-0.06 ns per multiply-add on a 2-core
# Xeon VM, one BLAS thread
_FACTOR_MACS = 1024
# Bound on the values of one block of Chebyshev basis rows at an axis'
# nodes in the set-up of its form (1 MB): one block for either axis at
# 10 GHz, 6 for z at 77 GHz
_BLOCK_BASIS = 1 << 17
# Bound on a sinc's time from the plate's delays in 1/B (synthesize's window
# is +-16/B): the frequency rule takes pi/2 plate sums per 1/B, 462 here
_TIME_REACH = 256.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Plate sampling density and rule for the double integral.

    points_per_wavelength is per axis; the integrand oscillates with
    spatial frequency at most 2k, so 10 points per wavelength resolves it
    with margin. Below 4, and any value that is not finite, the quadrature
    is refused.
    """

    points_per_wavelength: float = 10.0
    rule: str = "midpoint"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.points_per_wavelength)
                and self.points_per_wavelength >= 4):
            raise ValueError(
                "points_per_wavelength must be finite and at least 4")
        if self.rule not in _RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


def _antenna_factors(R: float, k: float, z_ant: np.ndarray, y_sq, z):
    """(r, A, B) of each antenna at z_ant (leading axis) on the plate
    points (y^2, z), broadcast: A = e^{-jkr}/r^2, B = R rho^2 e^{-jkr}/r^3."""
    shape = (-1,) + (1,) * np.ndim(z)
    rho_sq = R * R + (z - np.reshape(z_ant, shape)) ** 2
    r = np.sqrt(rho_sq + y_sq)
    a = np.exp(-1j * k * r) / (r * r)
    return r, a, a * (R * rho_sq / r)


def _axis_nodes(half_extent: float, wavelength: float,
                spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on [-half_extent, +half_extent]."""
    length = 2 * half_extent
    if length == 0.0:
        return np.empty(0), np.empty(0)
    n = max(int(np.ceil(length * spec.points_per_wavelength / wavelength)), 1)
    if spec.rule == "midpoint":
        h = length / n
        nodes = -half_extent + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)
        return nodes, weights
    # composite Gauss-Legendre, 8 nodes per panel, at least the midpoint count
    per_panel = 8
    n_panels = max(int(np.ceil(n / per_panel)), 1)
    gx, gw = np.polynomial.legendre.leggauss(per_panel)
    width = length / n_panels
    starts = -half_extent + width * np.arange(n_panels)
    nodes = (starts[:, None] + (gx[None, :] + 1) * (width / 2)).ravel()
    weights = np.tile(gw * (width / 2), n_panels)
    return nodes, weights


def _fold(nodes: np.ndarray, weights: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The upper half of nodes symmetric about 0, with doubled weights and
    the middle node (odd count) once: the whole rule for an integrand even
    in the node, or the half that the mirror identity completes."""
    mid = nodes.size // 2
    folded = 2.0 * weights[mid:]
    if nodes.size % 2:
        folded[0] = weights[mid]
    return nodes[mid:], folded


def _y_count(scenario: Scenario, k: float, n_y: int) -> int:
    """K of the y form at wavenumber k: Chebyshev points in u = y^2 on
    [0, u_max], u_max = (plate_width/2)^2, for the n_y folded y nodes.

    Along a z row the factors are smooth in u, with r = sqrt(rho^2 + u)
    and rho^2 = R^2 + (z - z_l)^2 >= R^2, and K meets two bounds:
    - the phase k r moves by k u / (r + rho) <= Phi =
      k u_max / (sqrt(R^2 + u_max) + R) over the interval, and
      chebyshev_node_count(Phi) holds the interpolation error of a
      linear phase of that span below NODE_TOL;
    - the branch point of r at u = -rho^2, nearest at -R^2, limits the
      Chebyshev coefficients' decay to rho_B^-K, with
      ln rho_B = arccosh(1 + 2 R^2 / u_max) (Trefethen, Approximation
      Theory and Approximation Practice, 2013, Thm 8.2), and K takes
      that to NODE_TOL too. It binds where R is within about two
      wavelengths and the plate much wider than R: at R = lambda/2 on a
      0.6 m plate at 2 GHz the phase bound alone gave 35 nodes, not 80,
      and sums 2.7e-11 off."""
    if not n_y:
        return 0
    R = scenario.range
    u_max = (scenario.plate_width / 2.0) ** 2
    return max(chebyshev_node_count(k * u_max
                                    / (math.sqrt(R * R + u_max) + R)),
               _branch_count(math.acosh(1.0 + 2.0 * R * R / u_max), n_y))


def _z_count(scenario: Scenario, k: float, z_ant: np.ndarray,
             n_z: int) -> int:
    """K of the z form at wavenumber k: Chebyshev points in z on the folded
    half [0, L], L = plate_height/2, for the n_z folded z nodes.

    At fixed u = y^2 the factors of antenna l are smooth in z, with
    r = sqrt(R^2 + u + (z - z_l)^2), and K meets two bounds:
    - the slope |dr/dz| = |z - z_l| / r is at most m / sqrt(R^2 + m^2),
      m = L + max |z_l|, so the phase k r spans at most
      s = L k m / sqrt(R^2 + m^2) over the interval, and
      phase_node_count(s), a Bernstein-ellipse bound, holds the
      interpolation error of a linear phase of that span below NODE_TOL
      (77 nodes at 10 GHz and 347 at 77 GHz on the reference plate, where
      chebyshev_node_count's Lagrange bound gives 122 and 751 of 292 and
      2,248 folded rows; 56 already reach 2.8e-13 at 10 GHz);
    - the branch points of r at z = z_l +- j sqrt(R^2 + u), nearest at
      z_l +- j R, bound the coefficients' decay as _y_count's does: at
      zeta, z mapped to [-1, 1], ln rho_B = arccosh((|zeta - 1| +
      |zeta + 1|) / 2), the least over the antennas. It binds where R is
      small against the plate height."""
    if not n_z:
        return 0
    R = scenario.range
    half = scenario.plate_height / 2.0
    m = half + float(np.max(np.abs(z_ant)))
    zeta = (2.0 * z_ant - half + 2j * R) / half
    decay = float(np.min(np.arccosh(
        (np.abs(zeta - 1.0) + np.abs(zeta + 1.0)) / 2.0)))
    return max(phase_node_count(half * k * m / math.hypot(R, m)),
               _branch_count(decay, n_z))


def _branch_count(decay: float, nodes: int) -> int:
    """Chebyshev points that take a coefficient decay rho_B^-K, ln rho_B =
    decay, to NODE_TOL; at most nodes."""
    digits = -math.log(NODE_TOL)
    return math.ceil(digits / max(decay, digits / nodes))


def _axis_form(x: np.ndarray, w: np.ndarray, hi: float, k: int,
               factors: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, gram): one axis of the folded plate sum of the
    constant-waveform integrand as a bilinear form in the per-antenna
    factors, sum_i w_i A(x_i) B(x_i) = A(points) gram B(points)^T, for
    factors evaluations of each point (the other axis' points times the
    antennas; module docstring).

    x holds the axis' node values in [0, hi] (y^2 or z) and w their
    weights. points holds k first-kind Chebyshev points on [0, hi], and
    gram = E diag(w) E^T, E the (k, x.size) interpolation matrix from them
    to x: E = to_coef^T T with T the basis rows at x, so gram is
    to_coef^T (T diag(w) T^T) to_coef, and the middle matrix is summed
    over blocks of nodes. The form costs k factors and 2 k^2 real
    multiply-adds per other point, and about k^2 (x.size + 2 k) to set
    up. Where that is not below the x.size factors of the direct sum (a
    factor costs about _FACTOR_MACS multiply-adds), points is x and gram
    None: the direct sum with the weights w."""
    n = x.size
    if factors * k + k * k * (2 * factors + n + 2 * k) / _FACTOR_MACS \
            >= factors * n:
        return x, None
    cheb, to_coef = chebyshev_nodes(k)
    products = np.zeros((k, k))
    span = max(_BLOCK_BASIS // k, 1)
    for lo in range(0, n, span):
        basis = chebyshev_basis(x[lo:lo + span] * (2.0 / hi) - 1.0, k)
        products += (basis * w[lo:lo + span]) @ basis.T
    return (cheb + 1.0) * (hi / 2.0), to_coef.T @ products @ to_coef


def _plate_sum(R: float, k: float, z_ant: np.ndarray, y_pts, y_w,
               h: np.ndarray | None, z_pts, z_w, g: np.ndarray | None
               ) -> np.ndarray:
    """The half-plate pair sums M at the phase wavenumber k, (N^2,):
    A (G x H) B^T from the factors at the points of the two axis forms
    (_axis_form; the weights where a form is None), in blocks of whole z
    points of at most _BLOCK_NODES values. H acts on each block. G couples
    every z point, so under the z form A and the y-weighted B are kept
    whole (antennas x z points x y points each) and G is applied a block of
    its rows at a time; under the direct z sum each block adds its pair
    sums at once."""
    n = z_ant.size
    kz, ky = z_pts.size, y_pts.size
    rows = max(_BLOCK_NODES // max(n * ky, 1), 1)
    total = np.zeros((n, n), dtype=complex)
    if g is not None:
        a_all = np.empty((n, kz, ky), dtype=complex)
        # z-leading, so that G is one real matrix product on its rows
        hb = np.empty((kz, n, ky), dtype=complex)
    for lo in range(0, kz, rows):
        block = slice(lo, lo + rows)
        _, a, b = _antenna_factors(R, k, z_ant, y_pts, z_pts[block, None])
        if h is None:
            b *= y_w
        else:
            parts = np.ascontiguousarray(np.moveaxis(b, 2, 0))
            b = np.moveaxis((h @ parts.view(float).reshape(ky, -1))
                            .view(complex).reshape(parts.shape), 0, 2)
        if g is None:
            b *= z_w[block, None]
            total += a.reshape(n, -1) @ b.reshape(n, -1).T
        else:
            a_all[:, block] = a
            hb[block] = b.swapaxes(0, 1)
    if g is not None:
        flat = hb.view(float).reshape(kz, -1)
        for lo in range(0, kz, rows):
            c = (g[lo:lo + rows] @ flat).view(complex).reshape(-1, n, ky)
            total += a_all[:, lo:lo + rows].reshape(n, -1) \
                @ c.swapaxes(0, 1).reshape(n, -1).T
    return total.reshape(n * n)


def _frequency_rule(scenario: Scenario, times: np.ndarray,
                    waveform: WaveformRef):
    """(top, offsets, synthesis): plate sums at the wavenumbers k + offsets,
    forms at k + top, and the (nodes, samples) matrix to the traces;
    (0, [0], None) for the constant waveform (module docstring)."""
    if waveform.kind == "constant":
        return 0.0, np.zeros(1), None
    band, R = waveform.bandwidth, scenario.range
    near = 2.0 * R / SPEED_OF_LIGHT
    hi = scenario.plate_height / 2.0 + antenna_positions(scenario)[-1]
    far = 2.0 * math.hypot(R, scenario.plate_width / 2.0, hi) / SPEED_OF_LIGHT
    lag = np.maximum(times - near, far - times)  # largest |t - tau|
    if np.any(lag > far - near + _TIME_REACH / band):
        raise ValueError(f"sample time {float(times[np.argmax(lag)])!r} s is "
                         f"more than {_TIME_REACH:g}/B off the plate's delays")
    # K Chebyshev points interpolate e^{j pi B (t - tau) x} within NODE_TOL;
    # M Gauss-Legendre nodes are exact to degree 2M - 1 (Trefethen, Thm 19.3)
    points = phase_node_count(2.0 * np.pi * band * np.max(lag, initial=0.0))
    x, w = np.polynomial.legendre.leggauss((points + 1) // 2 + 1)
    top = np.pi * band / SPEED_OF_LIGHT
    return top, top * x, w[:, None] / 2.0 * np.exp(
        1j * np.pi * band * np.multiply.outer(x, times))


def exact_received_signal(scenario: Scenario, t, waveform: WaveformRef,
                          quad: QuadratureSpec | None = None) -> np.ndarray:
    """u(t) of all N^2 pairs by direct quadrature of the plate integral.

    t is a scalar or a 1-D array of sample times; the result has shape
    (N^2,) + shape(t), rows in tx-major order (row i is tx i // N,
    rx i % N) like SignalSet rows. The plate sum is a form over the quarter
    plate at Chebyshev points in z and y^2, set up once per call, and the
    sinc takes M of them (module docstring). Times that are not finite, and
    a sinc's times more than 256/B from the plate's delays, are refused.

    Convergence contract: doubling points_per_wavelength moves the result
    by less than 0.1 dB in magnitude for densities of 10 per wavelength and
    above. Summation is blockwise with a fixed block size, so results are
    bitwise reproducible run to run.
    """
    if quad is None:
        quad = QuadratureSpec()
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    times = np.atleast_1d(times)
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    n = scenario.n_antennas
    z_ant = antenna_positions(scenario)
    top, offsets, synthesis = _frequency_rule(scenario, times, waveform)
    k = scenario.wavenumber
    lam = scenario.wavelength
    y_nodes, y_w = _fold(*_axis_nodes(scenario.plate_width / 2, lam, quad))
    z_nodes, z_w = _fold(*_axis_nodes(scenario.plate_height / 2, lam, quad))
    y_pts, h = _axis_form(y_nodes * y_nodes, y_w,
                          (scenario.plate_width / 2.0) ** 2,
                          _y_count(scenario, k + top, y_nodes.size),
                          n * z_nodes.size)
    z_pts, g = _axis_form(z_nodes, z_w, scenario.plate_height / 2.0,
                          _z_count(scenario, k + top, z_ant, z_nodes.size),
                          n * y_pts.size)
    total = np.stack([_plate_sum(scenario.range, k + dk, z_ant, y_pts, y_w, h,
                                 z_pts, z_w, g) for dk in offsets.tolist()], 1)
    if synthesis is not None:
        total = total @ synthesis
    # the z < 0 half by the mirror identity
    half = total.reshape(n, n, -1)
    total = ((half + half[::-1, ::-1]) / 2).reshape(n * n, -1)
    prefactor = (-2 * k * k * scenario.free_space_impedance
                 * scenario.antenna_gain_factor / (4 * np.pi) ** 2)
    out = prefactor * np.broadcast_to(total, (n * n, times.size))
    return out[:, 0] if np.ndim(t) == 0 else out
