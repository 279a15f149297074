"""Stationary-phase closed form of the plate return.

For each pair the oscillatory plate integral collapses around the specular
point (y = 0, z_s = (z_l + z_l')/2), giving the per-pair model

    u(t) = xi * alpha * exp(-j 2 k r_s) / r_s * s(t - 2 r_s / c)

with xi = -k eta L^2 I0 / (8 pi) common to all pairs and alpha a product of
conjugate Fresnel integrals measuring how much of the plate contributes:

    alpha = F*(sqrt(Dy^2 / (lambda r_s)))
            * [F*((Dz/2 - z_s) 2R / sqrt(lambda r_s^3))
               + F*((Dz/2 + z_s) 2R / sqrt(lambda r_s^3))]
            * 1{|z_s| <= Dz/2}

The two z arguments are the distances from the specular point to the plate
edges in Fresnel units; both are nonnegative whenever the specular point is
on the plate. gain_and_delay_arrays is the one implementation of this
model: synthesis, the estimator and the single-pair view
spa_received_signal all evaluate it, broadcast over pairs and hypothesized
ranges.
"""

from __future__ import annotations

import numpy as np

from .scenario import SPEED_OF_LIGHT, AntennaPair, Scenario
from .signal import WaveformRef, waveform_value
from .special_fn import fresnel_conj


def spa_phase_expansion(z_s: float, r_s: float, scenario: Scenario, y, z):
    """Quadratic expansion of the phase about the specular point (0, z_s)
    at specular distance r_s:

    psi ~ -2 k r_s - (k / r_s) y^2 - (k R^2 / r_s^3) (z - z_s)^2
    """
    k = scenario.wavenumber
    R = scenario.range
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = (-2.0 * k * r_s
           - (k / r_s) * y * y
           - (k * R * R / r_s ** 3) * (z - z_s) ** 2)
    return float(out) if out.ndim == 0 else out


def xi(scenario: Scenario) -> complex:
    """Common prefactor -k eta L^2 I0 / (8 pi); real and negative."""
    return complex(-scenario.wavenumber * scenario.free_space_impedance
                   * scenario.antenna_gain_factor / (8.0 * np.pi))


def pair_offsets(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair specular z and antenna offset d = z_l - z_s for all N^2
    pairs in tx-major order. r_s(R) = sqrt(R^2 + d^2) for any hypothesized
    standoff R, so these two arrays are the whole pair geometry."""
    n = scenario.n_antennas
    z = (np.arange(n) - (n - 1) / 2.0) * scenario.spacing
    tx = np.repeat(z, n)
    rx = np.tile(z, n)
    z_s = (tx + rx) / 2.0
    return z_s, tx - z_s


def gain_and_delay_arrays(scenario: Scenario, z_s, d, R
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pair gains xi * alpha * exp(-j 2 k r_s) / r_s and delays 2 r_s / c
    at hypothesized standoff R.

    z_s and d come from pair_offsets (or are one pair's scalars); R
    broadcasts against them (e.g. shape (1, G) against (P, 1) for a grid of
    hypotheses). The gain is exactly 0 where the specular point is off the
    plate; a point exactly on the edge counts as on-plate.
    """
    R = np.asarray(R, dtype=float)
    r_s = np.sqrt(R * R + d * d)
    wavelength = scenario.wavelength
    half = scenario.plate_height / 2.0
    # argument forms: Dy/sqrt(lambda r) in y, edge distances scaled by
    # 2R/sqrt(lambda r^3) in z
    y_arg = np.sqrt(scenario.plate_width ** 2 / (wavelength * r_s))
    z_scale = 2.0 * R / np.sqrt(wavelength * r_s ** 3)
    alpha = (fresnel_conj(y_arg)
             * (fresnel_conj((half - z_s) * z_scale)
                + fresnel_conj((half + z_s) * z_scale))
             * (np.abs(z_s) <= half))
    k = scenario.wavenumber
    gain = xi(scenario) * alpha * np.exp(-2j * k * r_s) / r_s
    return gain, 2.0 * r_s / SPEED_OF_LIGHT


def spa_received_signal(pair: AntennaPair, scenario: Scenario, t,
                        waveform: WaveformRef):
    """One pair's closed-form signal at the scenario range: the pair gain
    times the waveform at the delayed time t."""
    z_s = (pair.tx_z + pair.rx_z) / 2.0
    gain, delay = gain_and_delay_arrays(scenario, z_s, pair.tx_z - z_s,
                                        scenario.range)
    out = gain * waveform_value(waveform, np.asarray(t, dtype=float) - delay)
    return complex(out) if np.ndim(out) == 0 else out
