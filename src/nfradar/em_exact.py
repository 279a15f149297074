"""Brute-force physical-optics field integral over the plate.

This module is the ground-truth oracle: it evaluates the backscattered
signal for one (tx, rx) pair as

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import SPEED_OF_LIGHT, AntennaPair, Scenario
from .signal import WaveformRef, waveform_value

_RULES = ("midpoint", "gauss_legendre_composite")

# z rows are processed in fixed-size blocks so the summation order (and
# therefore the floating-point result) never depends on available memory
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class QuadratureSpec:
    """Plate sampling density and rule for the double integral.

    points_per_wavelength is per axis; the integrand oscillates with
    spatial frequency at most 2k, so 10 points per wavelength resolves it
    with margin. Below 4 the quadrature is refused.
    """

    points_per_wavelength: float = 10.0
    rule: str = "midpoint"

    def __post_init__(self) -> None:
        if self.points_per_wavelength < 4:
            raise ValueError("points_per_wavelength must be at least 4")
        if self.rule not in _RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


def path_length_sum(pair: AntennaPair, R: float, y, z):
    """r_l + r_l' from plate point (y, z), >= 2R with equality only when
    y = 0 and z = z_l = z_l'."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    r_tx = np.sqrt(R * R + y * y + (z - pair.tx_z) ** 2)
    r_rx = np.sqrt(R * R + y * y + (z - pair.rx_z) ** 2)
    out = r_tx + r_rx
    return float(out) if out.ndim == 0 else out


def _amplitude_phase(pair: AntennaPair, scenario: Scenario, y, z, t: float,
                     waveform: WaveformRef):
    """Vectorized g and psi on arbitrary broadcastable (y, z) arrays."""
    R = scenario.range
    k = scenario.wavenumber
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)

    rho_tx = np.sqrt(R * R + (z - pair.tx_z) ** 2)
    rho_rx_sq = R * R + (z - pair.rx_z) ** 2
    r_tx = np.sqrt(rho_tx * rho_tx + y * y)
    r_rx = np.sqrt(rho_rx_sq + y * y)

    cos_theta_tx = rho_tx / r_tx
    cos_phi_tx = R / rho_tx
    cos_theta_rx_sq = rho_rx_sq / (r_rx * r_rx)

    path = r_tx + r_rx
    s = waveform_value(waveform, t - path / SPEED_OF_LIGHT)
    g = s * cos_theta_tx * cos_phi_tx * cos_theta_rx_sq / (r_tx * r_rx)
    psi = -k * path
    return g, psi


def integrand(pair: AntennaPair, scenario: Scenario, y: float, z: float,
              t: float, waveform: WaveformRef) -> complex:
    """g * exp(j psi) at a single plate point."""
    if abs(y) > scenario.plate_width / 2 or abs(z) > scenario.plate_height / 2:
        raise ValueError("integration point outside the plate rectangle")
    g, psi = _amplitude_phase(pair, scenario, y, z, t, waveform)
    return complex(g * np.exp(1j * psi))


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


def exact_received_signal(pair: AntennaPair, scenario: Scenario, t: float,
                          waveform: WaveformRef,
                          quad: QuadratureSpec | None = None) -> complex:
    """u(t) for one pair by direct quadrature of the plate integral.

    Convergence contract: doubling points_per_wavelength moves the result
    by less than 0.1 dB in magnitude for densities of 10 per wavelength and
    above. Summation is blockwise with a fixed block size, so results are
    bitwise reproducible run to run.
    """
    if quad is None:
        quad = QuadratureSpec()
    lam = scenario.wavelength
    y_nodes, y_w = _axis_nodes(scenario.plate_width / 2, lam, quad)
    z_nodes, z_w = _axis_nodes(scenario.plate_height / 2, lam, quad)
    if y_nodes.size == 0 or z_nodes.size == 0:
        return 0.0 + 0.0j

    row_sums = np.empty(z_nodes.size, dtype=complex)
    for start in range(0, z_nodes.size, _BLOCK_ROWS):
        zb = z_nodes[start:start + _BLOCK_ROWS, None]
        g, psi = _amplitude_phase(pair, scenario, y_nodes[None, :], zb, t,
                                  waveform)
        row_sums[start:start + _BLOCK_ROWS] = \
            (g * np.exp(1j * psi)) @ y_w
    integral = np.sum(row_sums * z_w)

    k = scenario.wavenumber
    prefactor = (-2 * k * k * scenario.free_space_impedance
                 * scenario.antenna_gain_factor / (4 * np.pi) ** 2)
    return complex(prefactor * integral)
