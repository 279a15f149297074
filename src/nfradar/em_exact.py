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

so r, A and B are computed once per antenna, and the plate sum of all N^2
pairs under the constant waveform is the matrix product A W B^T with the
quadrature weights W.

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

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario, antenna_positions
from .signal import WaveformRef, waveform_value

_RULES = ("midpoint", "gauss_legendre_composite")

# Bound on plate nodes times the leading size of the per-node arrays
# (antennas for the constant waveform, pairs for a sampled one) in one
# block of z rows; a block holds at least one row. The block size depends
# only on the scene, never on available memory, so the summation order and
# the result are bitwise reproducible. Blocks of 2^14 keep the arrays in
# cache: on a 2-core Xeon VM, 2^16 took 1.4-1.7x as long at 10 GHz.
_BLOCK_NODES = 1 << 14
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


def exact_received_signal(scenario: Scenario, t, waveform: WaveformRef,
                          quad: QuadratureSpec | None = None) -> np.ndarray:
    """u(t) of all N^2 pairs by direct quadrature of the plate integral.

    t is a scalar or a 1-D array of sample times; the result has shape
    (N^2,) + shape(t), rows in tx-major order (row i is tx i // N,
    rx i % N) like SignalSet rows. The plate geometry of each block of z
    rows is computed once for every pair and sample; only the quarter plate
    y, z >= 0 is visited (module docstring).

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
    y_sq = y_nodes * y_nodes

    constant = waveform.kind == "constant"
    width = n if constant else n * n
    rows = max(_BLOCK_NODES // max(width * y_nodes.size, 1), 1)
    # nodes per envelope block of a sampled waveform
    span = max(_BLOCK_SAMPLES // max(n * n * times.size, 1), 1)
    total = np.zeros((n * n, 1 if constant else times.size), dtype=complex)
    for start in range(0, z_nodes.size, rows):
        zb = z_nodes[start:start + rows, None]
        r, a, b = _antenna_factors(scenario, z_ant, y_sq, zb)
        wb = b * (z_w[start:start + rows, None] * y_w)
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
