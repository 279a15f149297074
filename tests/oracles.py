"""Independent numerical references the tests check the package against.

Everything here is built from generic quadrature or written out pair by
pair from the formulas, deliberately sharing no code with the package
internals: the package evaluates special functions and closed forms in
bulk, the oracles integrate definitions directly or loop one pair at a
time with scalar math.
"""

import cmath
import math

import numpy as np
import scipy.special
from scipy.integrate import quad

_C = 299792458.0

# 16-node Gauss-Legendre on panels of 0.25 resolves exp(j pi t^2/2) to
# better than 1e-13 for |x| <= 12 (the quadratic phase advances < 5 rad
# per panel at the far end)
_PANEL = 0.25
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def fresnel_reference(x):
    """F(x) = integral_0^x exp(j pi t^2/2) dt by composite Gauss-Legendre."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x.shape, dtype=complex)
    for i, xi in enumerate(x):
        a = abs(xi)
        if a == 0.0:
            out[i] = 0.0
            continue
        n_panels = max(int(np.ceil(a / _PANEL)), 1)
        edges = np.linspace(0.0, a, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = np.exp(1j * np.pi * t * t / 2.0)
        integral = np.sum(vals * (_WEIGHTS[None, :] * half[:, None]))
        out[i] = integral if xi > 0 else -integral
    return out if out.size > 1 else complex(out[0])


def fresnel_adaptive(x: float) -> complex:
    """Same integral by scipy's adaptive quadrature (spot checks only)."""
    re, _ = quad(lambda t: np.cos(np.pi * t * t / 2), 0.0, x,
                 epsabs=1e-12, epsrel=1e-12, limit=200)
    im, _ = quad(lambda t: np.sin(np.pi * t * t / 2), 0.0, x,
                 epsabs=1e-12, epsrel=1e-12, limit=200)
    return re + 1j * im


def quadratic_phase_integral(curvature: float, lo: float, hi: float) -> complex:
    """integral of exp(-j * curvature * u^2) du over [lo, hi], adaptive.

    The separable factors of the stationary-phase plate integral have
    exactly this form in each axis.
    """
    re, _ = quad(lambda u: np.cos(curvature * u * u), lo, hi,
                 epsabs=1e-12, epsrel=1e-12, limit=400)
    im, _ = quad(lambda u: np.sin(curvature * u * u), lo, hi,
                 epsabs=1e-12, epsrel=1e-12, limit=400)
    return re - 1j * im


def _fresnel_conj(x: float) -> complex:
    s, c = scipy.special.fresnel(x)
    return complex(c, -s)


def pair_gain(sc, z_tx: float, z_rx: float, R: float
              ) -> tuple[complex, float, float]:
    """(gain, delay, r_s) of one pair at standoff R from the closed form
    written out with scalar math: xi * alpha * exp(-j 2 k r_s) / r_s with
    alpha the Fresnel-factor product, exactly 0 off the plate."""
    lam = _C / sc.carrier_freq
    k = 2.0 * math.pi / lam
    z_s = (z_tx + z_rx) / 2.0
    d = z_tx - z_s
    r_s = math.sqrt(R * R + d * d)
    half = sc.plate_height / 2.0
    alpha = 0.0
    if abs(z_s) <= half:
        scale = 2.0 * R / math.sqrt(lam * r_s ** 3)
        alpha = (_fresnel_conj(math.sqrt(sc.plate_width ** 2 / (lam * r_s)))
                 * (_fresnel_conj((half - z_s) * scale)
                    + _fresnel_conj((half + z_s) * scale)))
    xi = -k * sc.free_space_impedance * sc.antenna_gain_factor \
        / (8.0 * math.pi)
    gain = xi * alpha * cmath.exp(-2j * k * r_s) / r_s
    return gain, 2.0 * r_s / _C, r_s


def objective_loop(received, sc, r_hat: float, full: bool,
                   coherent: bool) -> float:
    """Matched-energy objective at one hypothesis, one pair at a time:
    model trace m_p = g_p s(t - tau_p) with the full closed-form gain or,
    for the partial model, the carrier phase exp(-j 2 k r_s) alone; then
    |sum <m, y>|^2 / sum ||m||^2 (coherent) or sum |<m, y>|^2 / ||m||^2."""
    n = sc.n_antennas
    z = [(l - (n - 1) / 2.0) * sc.spacing for l in range(n)]
    k = 2.0 * math.pi / (_C / sc.carrier_freq)
    t = received.times
    ips, energies = [], []
    for p in range(n * n):
        gain, delay, r_s = pair_gain(sc, z[p // n], z[p % n], r_hat)
        if not full:
            gain = cmath.exp(-2j * k * r_s)
        m = gain * np.sinc(sc.bandwidth * (t - delay))
        ips.append(np.vdot(m, received.traces[p]))
        energies.append(np.vdot(m, m).real)
    if coherent:
        total = sum(energies)
        return abs(sum(ips)) ** 2 / total if total > 0 else 0.0
    return sum(abs(ip) ** 2 / e for ip, e in zip(ips, energies) if e > 0)


def awgn_loop(traces, noise_power: float, seed: int) -> np.ndarray:
    """traces plus circular complex Gaussian noise, one trace at a time:
    trace i's PCG64 child of SeedSequence(seed) draws n real parts, then
    n imaginary parts, each scaled by sqrt(noise_power / 2)."""
    scale = np.sqrt(noise_power / 2.0)
    noisy = np.array(traces, dtype=complex)
    n = noisy.shape[1]
    children = np.random.SeedSequence(seed).spawn(noisy.shape[0])
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        noisy[i] += scale * (rng.standard_normal(n)
                             + 1j * rng.standard_normal(n))
    return noisy


_PI_LONG = 4 * np.arctan(np.longdouble(1))


def stencil_curvature(sc, R: float, step: float, coherent: bool):
    """|J(R - h) - 2 J(R) + J(R + h)| / h^2 of the full-model objective
    against the noise-free closed-form traces at R, in long double.

    The traces and the model traces are each pair's gain from pair_gain
    times a sinc summed in np.longdouble on the synthesis time base:
    2R/c - 16/B + n/(4B), n = 0 .. 127, formed in float64 as synthesis
    forms it. The stencil points R -+ h are rounded to float64 as crb
    rounds them; the objective is objective_loop's, written out."""
    n = sc.n_antennas
    z = [(l - (n - 1) / 2.0) * sc.spacing for l in range(n)]
    bw = np.longdouble(sc.bandwidth)
    start = 2.0 * R / _C - 16.0 / sc.bandwidth
    t = (start + np.arange(128) / (4.0 * sc.bandwidth)).astype(np.longdouble)

    def traces(r_hat):
        rows = []
        for p in range(n * n):
            gain, _, _ = pair_gain(sc, z[p // n], z[p % n], r_hat)
            z_s = (z[p // n] + z[p % n]) / 2.0
            d = np.longdouble(z[p // n] - z_s)
            r_s = np.sqrt(np.longdouble(r_hat) ** 2 + d * d)
            x = _PI_LONG * bw * (t - 2 * r_s / np.longdouble(_C))
            safe = np.where(x == 0, 1, x)
            env = np.where(x == 0, 1, np.sin(safe) / safe)
            rows.append(np.clongdouble(gain) * env)
        return np.array(rows)

    received = traces(R)
    j = []
    for r_hat in (R - step, R, R + step):
        m = traces(r_hat)
        ips = np.sum(np.conj(m) * received, axis=1)
        energies = np.sum(np.abs(m) ** 2, axis=1)
        if coherent:
            j.append(np.abs(np.sum(ips)) ** 2 / np.sum(energies))
        else:
            on = energies > 0
            j.append(np.sum(np.abs(ips[on]) ** 2 / energies[on]))
    return abs(j[0] - 2 * j[1] + j[2]) / np.longdouble(step) ** 2


def _plate_axis(half: float, width: float):
    """Nodes and weights of composite 16-node Gauss-Legendre on
    [-half, half], written out: equal panels of at most width."""
    if half == 0.0:
        return np.empty(0), np.empty(0)
    panels = max(math.ceil(2.0 * half / width), 1)
    h = 2.0 * half / panels
    nodes = [-half + (p + 0.5) * h + xi * h / 2.0
             for p in range(panels) for xi in _NODES]
    return np.array(nodes), np.tile(_WEIGHTS * h / 2.0, panels)


def pair_integrand(sc, z_tx: float, z_rx: float, y, z):
    """(path, g exp(-j k path)) of one pair at the plate points (y, z),
    broadcast: path = r_tx + r_rx and g = cos(theta_tx) cos(phi_tx)
    cos^2(theta_rx) / (r_tx r_rx), with the direction cosines written
    out. The phase is taken as exp(-2j k R) exp(-j k excess), the excess
    path - 2R summed as (y^2 + (z - z_l)^2) / (r_l + R) over both
    antennas: k path is about 13,000 rad at 77 GHz, and its rounding
    would move a weak pair by about 1e-12 of its peak."""
    k = 2.0 * math.pi / (_C / sc.carrier_freq)
    R = sc.range
    rho_tx = np.sqrt(R * R + (z - z_tx) ** 2)
    rho_rx = np.sqrt(R * R + (z - z_rx) ** 2)
    r_tx = np.sqrt(R * R + y * y + (z - z_tx) ** 2)
    r_rx = np.sqrt(R * R + y * y + (z - z_rx) ** 2)
    cos_theta_tx = rho_tx / r_tx
    cos_phi_tx = R / rho_tx
    cos_theta_rx = rho_rx / r_rx
    excess = (y * y + (z - z_tx) ** 2) / (r_tx + R) \
        + (y * y + (z - z_rx) ** 2) / (r_rx + R)
    g = cos_theta_tx * cos_phi_tx * cos_theta_rx ** 2 / (r_tx * r_rx)
    return r_tx + r_rx, \
        g * cmath.exp(-2j * k * R) * np.exp(-1j * k * excess)


def _converged_axis(sc, half: float):
    """exact_pair's rule along one plate axis of half-length half."""
    return _plate_axis(half, min(_C / sc.carrier_freq, sc.range))


def exact_pair(sc, z_tx: float, z_rx: float, t, bandwidth=None):
    """One pair's physical-optics signal u(t) by brute force over the whole
    plate grid: -2 k^2 eta I0 / (4 pi)^2 times the weighted sum of
    s(t - path/c) g exp(-j k path) (pair_integrand). bandwidth None is the
    constant waveform, otherwise the unit sinc; t scalar or 1-D.

    The rule is converged, not merely dense: a panel of at most a
    wavelength holds a phase advance of at most 4 pi over its 16 nodes,
    and a panel of at most R sees the branch points of r, R or more off
    the plate, outside its Bernstein ellipse of radius 4.2. Halving the
    panels moves no pair of the em_exact test scenes by more than 1e-14
    of its peak (panels of two wavelengths left the 6 m plate of WIDE6
    4.2e-13 off)."""
    k = 2.0 * math.pi / (_C / sc.carrier_freq)
    y, wy = _converged_axis(sc, sc.plate_width / 2.0)
    z, wz = _converged_axis(sc, sc.plate_height / 2.0)
    path, u = pair_integrand(sc, z_tx, z_rx, y[None, :], z[:, None])
    term = wz[:, None] * wy[None, :] * u
    scale = (-2.0 * k * k * sc.free_space_impedance * sc.antenna_gain_factor
             / (4.0 * math.pi) ** 2)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(times.size, dtype=complex)
    for j, tj in enumerate(times):
        s = 1.0 if bandwidth is None else \
            np.sinc(bandwidth * (tj - path / _C))
        out[j] = scale * np.sum(s * term)
    return complex(out[0]) if np.ndim(t) == 0 else out


def exact_line(sc, z_tx: float, z_rx: float, axis: str, at: float):
    """The integral of one pair's g exp(-j k path) (pair_integrand) along
    the plate axis "y" or "z", the other coordinate fixed at `at`, by
    exact_pair's converged rule."""
    half = (sc.plate_width if axis == "y" else sc.plate_height) / 2.0
    x, w = _converged_axis(sc, half)
    y, z = (x, at) if axis == "y" else (at, x)
    return complex(np.sum(w * pair_integrand(sc, z_tx, z_rx, y, z)[1]))
