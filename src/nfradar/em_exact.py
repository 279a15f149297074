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

so r, A and B are computed once per antenna. Under a sampled waveform the
plate sum of every pair carries its own delays; under the constant one it
is the matrix product A W B^T with the quadrature weights W.

The y sum as a K x K form (constant waveform). Along a z row A and B
depend on y only through u = y^2, smoothly: the phase k r moves by 4.2
rad over the reference plate's width at 10 GHz and 32 rad at 77 GHz,
which its 134 and 1,028 folded y nodes oversample many times over. So
the factors are evaluated at K Chebyshev points u_i instead (24 at
10 GHz, 70 at 77 GHz; the rule is _y_form's), and the y weights become
the K x K matrix H = E diag(w_y) E^T, E the interpolation matrix from the
u_i to the y nodes: each block of z rows adds A H (w_z B)^T. The nodes,
weights and z fold are those of the direct sum, so this is the same
quadrature up to interpolation and rounding: each pair is within 5.8e-14
of its direct sum at 10 GHz and 1.8e-13 at 24 GHz, the size of the
rounding eps k r of the phases. Where the form would not be cheaper, the
direct sum runs.

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
from .signal import WaveformRef, waveform_value
from .special_fn import (NODE_TOL, chebyshev_basis, chebyshev_node_count,
                         chebyshev_nodes)

_RULES = ("midpoint", "gauss_legendre_composite")

# Bound on the values of the per-node arrays in one block of z rows:
# rows x antennas x K y^2 values for the constant waveform (K of the y
# form, or the y nodes), rows x pairs x y nodes for a sampled one; a block
# holds at least one row. The block size depends
# only on the scene, never on available memory, so the summation order and
# the result are bitwise reproducible. Blocks of 2^14 keep the arrays in
# cache: on a 2-core Xeon VM, 2^16 took 1.4-1.7x as long at 10 GHz.
_BLOCK_NODES = 1 << 14
# Cost of one per-antenna factor (a square root, a complex exponential
# and four products) in multiply-adds of the y form's matrix products:
# 53-74 ns against 0.3-0.8 ns per complex multiply-add on a 2-core Xeon VM
_FACTOR_MACS = 128
# Bound on pairs times nodes times samples in one envelope block of a
# sampled waveform: the nodes of a block of z rows are taken span at a
# time, so the sines and cosines of each pair's node delays are computed
# once for all samples, in arrays of at most this many values (1 MB) once
# a node fits. At 10 GHz this kept peak RSS within 4 MB of a per-sample
# loop; 2^16 and 2^18 ran within the noise of 2^17.
_BLOCK_SAMPLES = 1 << 17


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


def _antenna_factors(scenario: Scenario, z_ant: np.ndarray, y_sq, z):
    """(r, A, B) of each antenna at z_ant (leading axis) on the plate
    points (y^2, z), broadcast: A = e^{-jkr}/r^2, B = R rho^2 e^{-jkr}/r^3."""
    R = scenario.range
    shape = (-1,) + (1,) * np.ndim(z)
    rho_sq = R * R + (z - np.reshape(z_ant, shape)) ** 2
    r = np.sqrt(rho_sq + y_sq)
    a = np.exp(-1j * scenario.wavenumber * r) / (r * r)
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


def _y_form(scenario: Scenario, y_nodes: np.ndarray, y_w: np.ndarray,
            factors: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(u, H): the folded y sum of the constant-waveform integrand as a
    bilinear form in the per-antenna factors at the values u of y^2,
    sum_y w_y A(y^2) B(y^2) = A(u) H B(u)^T, for factors = antennas x z
    rows evaluations of each y^2 (module docstring).

    u holds K first-kind Chebyshev points on [0, u_max],
    u_max = (plate_width/2)^2, and H = E diag(w_y) E^T, E the (K, ny)
    interpolation matrix from them to the y nodes' y^2. Along a z row the
    factors are smooth in u, with r = sqrt(rho^2 + u) and
    rho^2 = R^2 + (z - z_l)^2 >= R^2, and K meets two bounds:
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
      and sums 2.7e-11 off.
    The form costs K factors and K^2 multiply-adds per antenna and z row,
    and about K^2 ny to set up. Where that is not below the ny factors of
    the direct sum (a factor costs about _FACTOR_MACS multiply-adds), u
    holds the y nodes' y^2 and H is None: the direct sum with the
    weights w_y."""
    y_sq = y_nodes * y_nodes
    n_y = y_sq.size
    u_max = (scenario.plate_width / 2.0) ** 2
    k = n_y
    if n_y:
        R = scenario.range
        digits = -math.log(NODE_TOL)
        # ln rho_B, floored so that its count is at most n_y
        decay = max(math.acosh(1.0 + 2.0 * R * R / u_max), digits / n_y)
        k = max(chebyshev_node_count(scenario.wavenumber * u_max
                                     / (math.sqrt(R * R + u_max) + R)),
                math.ceil(digits / decay))
    if factors * k + k * k * (factors + n_y) / _FACTOR_MACS \
            >= factors * n_y:
        return y_sq, None
    x, to_coef = chebyshev_nodes(k)
    interp = to_coef.T @ chebyshev_basis(y_sq * (2.0 / u_max) - 1.0, k)
    return (x + 1.0) * (u_max / 2.0), (interp * y_w) @ interp.T


def exact_received_signal(scenario: Scenario, t, waveform: WaveformRef,
                          quad: QuadratureSpec | None = None) -> np.ndarray:
    """u(t) of all N^2 pairs by direct quadrature of the plate integral.

    t is a scalar or a 1-D array of sample times; the result has shape
    (N^2,) + shape(t), rows in tx-major order (row i is tx i // N,
    rx i % N) like SignalSet rows. The plate geometry of each block of z
    rows is computed once for every pair and sample; only the quarter plate
    y, z >= 0 is visited, and under the constant waveform the y sum is a
    K x K form (module docstring, _y_form).

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
    n = scenario.n_antennas
    z_ant = antenna_positions(scenario)
    lam = scenario.wavelength
    y_nodes, y_w = _fold(*_axis_nodes(scenario.plate_width / 2, lam, quad))
    z_nodes, z_w = _fold(*_axis_nodes(scenario.plate_height / 2, lam, quad))

    constant = waveform.kind == "constant"
    if constant:
        y_sq, y_form = _y_form(scenario, y_nodes, y_w, n * z_nodes.size)
    else:
        y_sq, y_form = y_nodes * y_nodes, None
    width = n if constant else n * n
    rows = max(_BLOCK_NODES // max(width * y_sq.size, 1), 1)
    # nodes per envelope block of a sampled waveform
    span = max(_BLOCK_SAMPLES // max(n * n * times.size, 1), 1)
    total = np.zeros((n * n, 1 if constant else times.size), dtype=complex)
    for start in range(0, z_nodes.size, rows):
        zb = z_nodes[start:start + rows, None]
        r, a, b = _antenna_factors(scenario, z_ant, y_sq, zb)
        wz = z_w[start:start + rows, None]
        wb = b * (wz * y_w) if y_form is None else (b * wz) @ y_form
        if constant:
            total[:, 0] += (a.reshape(n, -1) @ wb.reshape(n, -1).T).ravel()
            continue
        # one delay per pair and node, shared geometry for every sample
        tau = ((r[:, None] + r[None, :]) / SPEED_OF_LIGHT).reshape(n * n, -1)
        # (pairs, nodes, re/im) so the pair sums at every sample are one
        # real batched matrix product per envelope block
        prod = (a[:, None] * wb[None, :]).reshape(n * n, -1)
        parts = prod.view(float).reshape(n * n, -1, 2)
        for lo in range(0, tau.shape[1], span):
            env = waveform_value(waveform, times, tau[:, lo:lo + span])
            summed = np.matmul(env.swapaxes(1, 2), parts[:, lo:lo + span])
            total += summed.view(complex)[..., 0]

    # the z < 0 half by the mirror identity
    half = total.reshape(n, n, -1)
    total = ((half + half[::-1, ::-1]) / 2).reshape(n * n, -1)
    k = scenario.wavenumber
    prefactor = (-2 * k * k * scenario.free_space_impedance
                 * scenario.antenna_gain_factor / (4 * np.pi) ** 2)
    out = prefactor * np.broadcast_to(total, (n * n, times.size))
    return out[:, 0] if np.ndim(t) == 0 else out
