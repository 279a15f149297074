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

    g e^{j psi} = s(t - (r_l + r_l')/c) e^{-2jkR} A_l B_l',
    A_l = e^{-jk (r_l - R)} / r_l^2,
    B_l = R rho_l^2 e^{-jk (r_l - R)} / r_l^3,

so r, A and B are computed once per antenna, and at a fixed delay the
plate sum is e^{-2jkR} times the matrix product A W B^T with the
quadrature weights W. The path excess r_l - R = (y^2 + (z - z_l)^2) /
(r_l + R) comes from the small terms, with no cancellation, so the
phases the factors round are k (r_l - R), at most 540 rad on the
reference plate at 77 GHz, not k r_l, 6,490 to 7,000 rad.

The sinc as a frequency quadrature. The sinc is band-limited,
s(t - tau) = 1/2 integral over x in [-1, 1] of e^{j pi B x (t - tau)} dx,
and its delay factor e^{-j pi B x (r_l + r_l')/c} splits per antenna like
the carrier's. So at a Gauss-Legendre node x_m, weight w_m, the plate sum
M(x_m) is the carrier wave's at the phase wavenumber k + pi B x_m / c
(amplitudes and prefactor stay at the carrier), B the scene's bandwidth,
and the traces are sum_m (w_m / 2) e^{j pi B x_m t} M(x_m); the carrier
wave (no time axis) is the node x = 0, weight 1, with no time factor. The
largest pi B |t - tau| sets the node count: 51 plate sums on synthesize's
+-16/B window, where 44 reach the sums' rounding and 40 are 6.9e-11 of
the peak off. Only e^{-jkr} changes with the wavenumber, so the geometry
of each block of plate nodes (r, r^2, R rho^2 / r) is computed once for
all 51 sums.

The plate rule. Each axis takes one Gauss-Legendre rule over the whole
plate, folded below, as the sinc takes one over its band: M = (K + 1) // 2
+ 1 nodes, exact to degree 2M - 1 >= K, with K the larger of two bounds
at the band's top wavenumber k + pi B / c (plate_node_counts):
- the pair phase k (r_l + r_l') has a slope of at most
  2k (D_y/2) / hypot(R, D_y/2) along y and 2k m / hypot(R, m) along z,
  m = D_z/2 + max |z_l|, so over the plate it spans at most s_y = D_y
  times the first and s_z = D_z times the second, and phase_node_count(s)
  holds the interpolation error of a linear phase of that span below
  NODE_TOL;
- the branch points of r, nearest at y = +-jR and at z = z_l +- jR,
  limit the decay of the integrand's Chebyshev coefficients to rho^-K
  (Trefethen, Approximation Theory and Approximation Practice, 2013,
  Thm 8.2), with ln rho = asinh(2R / D_y) along y and, at
  zeta = (z_l + jR) / (D_z/2), ln rho = arccosh((|zeta - 1| +
  |zeta + 1|) / 2), the least over the antennas, along z; K takes rho^-K
  to NODE_TOL. This binds where R is small against the plate, and grows
  like 39 (D/2) / R as R shrinks, so a plate that needs more than
  _MAX_AXIS_NODES along an axis is refused.
On the reference plate that is 26 x 103 nodes (13 x 52 folded) at 10 GHz
and 97 x 597 (49 x 299) at 77 GHz. Every pair is within 4.1e-14, 8.8e-14
and 1.9e-13 of the scene's largest pair from a converged 200 x 800,
300 x 1,500 and 600 x 2,000 node rule at 10, 24 and 77 GHz. Being exact
to degree 2M - 1, the rule takes about half the K points an
interpolating rule would, the factor of two that Gauss quadrature keeps
for integrands analytic in a large ellipse (Trefethen, Is Gauss
quadrature better than Clenshaw-Curtis?, SIAM Review 50, 2008).

Quarter plate. The integrand depends on y only through y^2, so only the
y >= 0 half of the symmetric y nodes is evaluated. The elements and the
z nodes are symmetric about z = 0, so r_l(y, -z) = r_{N-1-l}(y, z): pair
(l, l') on the z < 0 half is pair (N-1-l, N-1-l') on the z > 0 half.
Only the z >= 0 half is summed, as M with folded weights, and the whole
plate is (M + M flipped in both antenna axes) / 2, which is bitwise
symmetric under that flip.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario, antenna_positions
# not called here: perfbench/tracing.py wraps em_exact.waveform_value by name
from .signal import parse_times, plate_delays, waveform_value  # noqa: F401
from .special_fn import NODE_TOL, cis, gauss_legendre, phase_node_count

# Bound on the values of the per-node arrays in one block of z nodes
# (nodes x antennas x y nodes); a block holds at least one node. The
# block size depends only on the scene, never on available memory, so the
# summation order and the result are bitwise reproducible. Blocks of 2^14
# keep the arrays in cache: on a 2-core Xeon VM, 2^16 took 1.4-1.7x as
# long at 10 GHz.
_BLOCK_NODES = 1 << 14
# Bound on the Gauss-Legendre nodes of one plate axis, set by the plate
# sum: at 2,048 nodes on both axes one plate sum takes 1.1 s on one core
# of a 2-core Xeon VM, and exact sinc synthesis takes 51 of them, while
# gauss_legendre(2,048) takes 0.13 s and 17 MB of temporaries. The
# reference plate at 77 GHz takes 597 along z.
_MAX_AXIS_NODES = 2048
# ln of 1/NODE_TOL: the decay exponent a rule's nodes must reach
_DIGITS = -math.log(NODE_TOL)


def _antenna_geometry(R: float, z_ant: np.ndarray, y_sq, z):
    """(r - R, r^2, R rho^2 / r) of each antenna at z_ant (leading axis)
    on the plate points (y^2, z), broadcast: what the factors take from
    the geometry, the same at every wavenumber. The path excess is
    (y^2 + (z - z_l)^2) / (r + R) (module docstring)."""
    shape = (-1,) + (1,) * np.ndim(z)
    dz_sq = (z - np.reshape(z_ant, shape)) ** 2
    off_sq = dz_sq + y_sq
    r_sq = off_sq + R * R
    r = np.sqrt(r_sq)
    return off_sq / (r + R), r_sq, R * (R * R + dz_sq) / r


def _antenna_factors(k: float, geometry):
    """(A, B) at the phase wavenumber k from the geometry (r - R, r^2,
    R rho^2 / r) of _antenna_geometry: A = e^{-jk(r - R)}/r^2,
    B = R rho^2 e^{-jk(r - R)}/r^3."""
    excess, r_sq, scale = geometry
    a = cis(-k * excess) / r_sq
    return a, a * scale


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


def _axis_count(span: float, decay: float) -> int:
    """Gauss-Legendre nodes M = (K + 1) // 2 + 1 of one plate axis, exact
    to degree 2M - 1 >= K, with K the larger of phase_node_count(span)
    for a pair phase spanning span over the axis and the Chebyshev
    degree at which a decay rho^-K, ln rho = decay, reaches NODE_TOL
    (module docstring); _MAX_AXIS_NODES + 1 where a bound alone shows
    that M would exceed the budget."""
    # each test takes K past 2 _MAX_AXIS_NODES, and so M past the budget,
    # without phase_node_count's search over a huge span or a division by
    # a decay that rounded to 0 (phase_node_count(span) > span / 2)
    if span > 4.0 * _MAX_AXIS_NODES or decay * 2.0 * _MAX_AXIS_NODES < _DIGITS:
        return _MAX_AXIS_NODES + 1
    k = max(phase_node_count(span), math.ceil(_DIGITS / decay))
    return (k + 1) // 2 + 1


def plate_node_counts(scenario: Scenario, k: float | None = None
                      ) -> tuple[int, int]:
    """(M_y, M_z): the Gauss-Legendre nodes of the plate rule along y and
    z at the phase wavenumber k (the carrier's by default). A plate that
    needs more than _MAX_AXIS_NODES along an axis is refused with a
    ValueError, before any node is computed."""
    if k is None:
        k = scenario.wavenumber
    R = scenario.range
    half_y = scenario.plate_width / 2.0
    half_z = scenario.plate_height / 2.0
    z_ant = antenna_positions(scenario)
    m = half_z + float(np.max(np.abs(z_ant)))
    zeta = (z_ant + 1j * R) / half_z
    counts = (
        _axis_count(4.0 * k * half_y * half_y / math.hypot(R, half_y),
                    math.asinh(R / half_y)),
        _axis_count(4.0 * k * half_z * m / math.hypot(R, m), float(np.min(
            np.arccosh((np.abs(zeta - 1.0) + np.abs(zeta + 1.0)) / 2.0)))))
    for axis, count in zip("yz", counts):
        if count > _MAX_AXIS_NODES:
            raise ValueError(
                f"the {scenario.plate_width:g} x {scenario.plate_height:g} m "
                f"plate at range {R!r} m needs more than {_MAX_AXIS_NODES} "
                f"quadrature nodes along {axis}; raise the range or shrink "
                "the plate")
    return counts


def _plate_rule(scenario: Scenario, k: float):
    """((y, y_w), (z, z_w)): the folded nodes and weights of both plate
    axes' gauss_legendre rules at the phase wavenumber k
    (plate_node_counts)."""
    halves = (scenario.plate_width / 2.0, scenario.plate_height / 2.0)
    return [_fold(half * x, half * w) for half, (x, w) in zip(
        halves, map(gauss_legendre, plate_node_counts(scenario, k)))]


def _plate_sums(R: float, wavenumbers, z_ant: np.ndarray, y_sq, y_w, z,
                z_w) -> np.ndarray:
    """The half-plate pair sums M at each phase wavenumber k,
    (N^2, wavenumbers): the factors at the folded nodes (y^2 = y_sq, z)
    with the weights y_w, z_w, summed as A W B^T in blocks of whole z
    nodes of at most _BLOCK_NODES values, times e^{-2jkR}. A block's
    geometry is computed once for all wavenumbers, and every wavenumber's
    sum runs over the blocks in the same order."""
    n = z_ant.size
    rows = max(_BLOCK_NODES // (n * y_sq.size), 1)
    total = np.zeros((len(wavenumbers), n, n), dtype=complex)
    for lo in range(0, z.size, rows):
        block = slice(lo, lo + rows)
        geometry = _antenna_geometry(R, z_ant, y_sq, z[block, None])
        for k, sums in zip(wavenumbers, total):
            a, b = _antenna_factors(k, geometry)
            b *= y_w
            b *= z_w[block, None]
            sums += a.reshape(n, -1) @ b.reshape(n, -1).T
    total *= cis(-2.0 * R * np.array(wavenumbers))[:, None, None]
    return total.reshape(-1, n * n).T


def _frequency_rule(scenario: Scenario, times: np.ndarray | None):
    """(top, offsets, synthesis): plate sums at the wavenumbers k + offsets,
    the plate rule at k + top, and the (nodes, samples) matrix to the
    traces at the 1-D times under the scene's sinc, from one
    gauss_legendre rule over the band; (0, [0], [[1]]) for the carrier
    wave, times None (module docstring)."""
    if times is None:
        return 0.0, np.zeros(1), np.ones((1, 1))
    band = scenario.bandwidth
    near, far = plate_delays(scenario)
    lag = np.maximum(times - near, far - times)  # largest |t - tau|
    # K Chebyshev points interpolate e^{j pi B (t - tau) x} within NODE_TOL;
    # M Gauss-Legendre nodes are exact to degree 2M - 1 (Trefethen, Thm 19.3)
    points = phase_node_count(2.0 * np.pi * band * np.max(lag, initial=0.0))
    x, w = gauss_legendre((points + 1) // 2 + 1)
    top = np.pi * band / SPEED_OF_LIGHT
    return top, top * x, w[:, None] / 2.0 * cis(
        np.pi * band * np.multiply.outer(x, times))


def exact_received_signal(scenario: Scenario, t=None) -> np.ndarray:
    """u(t) of all N^2 pairs by direct quadrature of the plate integral.

    t is a finite scalar or 1-D array of sample times (parse_times), or
    None for the carrier wave; the result has shape (N^2,) + shape(t),
    rows in tx-major order (row i is tx i // N, rx i % N) like SignalSet
    rows. The plate sum is a Gauss-Legendre product rule over the quarter
    plate, its node counts set once per call at the band's top wavenumber,
    and the scene's sinc takes M plate sums (module docstring). Times more
    than 256/B from the plate's delays, and a plate that needs more than
    2,048 nodes along an axis (plate_node_counts), are refused.

    Convergence contract: the node counts hold the truncation error of
    each axis below NODE_TOL of the integrand's scale, so adding nodes
    along either axis moves no pair by more than 1e-12 of the scene's
    largest pair. Summation is blockwise with a fixed block size, so
    results are bitwise reproducible run to run.
    """
    times = parse_times(scenario, t)
    n = scenario.n_antennas
    z_ant = antenna_positions(scenario)
    top, offsets, synthesis = _frequency_rule(scenario, times)
    k = scenario.wavenumber
    (y, y_w), (z, z_w) = _plate_rule(scenario, k + top)
    total = _plate_sums(scenario.range, [k + dk for dk in offsets.tolist()],
                        z_ant, y * y, y_w, z, z_w) @ synthesis
    # the z < 0 half by the mirror identity
    half = total.reshape(n, n, -1)
    total = ((half + half[::-1, ::-1]) / 2).reshape(n * n, -1)
    prefactor = (-2 * k * k * scenario.free_space_impedance
                 * scenario.antenna_gain_factor / (4 * np.pi) ** 2)
    # np.shape(None) is (): the carrier wave has no time axis
    return (prefactor * total).reshape((n * n,) + np.shape(t))
