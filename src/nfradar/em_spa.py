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
model: the estimator and spa_received_signal (which synthesis calls) both
evaluate it, over pairs and hypothesized ranges.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario
from .signal import parse_times, waveform_value
from .special_fn import cis, fresnel_conj


def xi(scenario: Scenario) -> complex:
    """Common prefactor -k eta L^2 I0 / (8 pi); real and negative."""
    return complex(-scenario.wavenumber * scenario.free_space_impedance
                   * scenario.antenna_gain_factor / (8.0 * np.pi))


def pair_offsets(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair specular z and antenna offset d = z_l - z_s for all N^2
    pairs in tx-major order. r_s(R) = sqrt(R^2 + d^2) for any hypothesized
    standoff R, so these two arrays are the whole pair geometry.

    For tx i and rx j, z_s = (i + j - (N-1)) s/2 and d = (i - j) s/2, s
    the spacing: each is one rounding of an integer times s/2, so pairs
    with the same index sum (or difference) get the same bits, and
    mirrored pairs exact negations. (z_i + z_j)/2 from the element
    positions split them by rounding: 28 distinct |d| and 61 (|z_s|, |d|)
    at spacing 0.1, not 13 and 49."""
    n = scenario.n_antennas
    idx = np.arange(n)
    half = scenario.spacing / 2.0
    z_s = (idx[:, None] + idx - (n - 1)) * half
    d = (idx[:, None] - idx) * half
    return z_s.ravel(), d.ravel()


def pair_groups(scenario: Scenario):
    """(abs_d, group, geometry, of_pair): the pairs' delay groups and gain
    geometries, so that nothing per pair is computed twice.

    A pair's delay depends on |d| alone: abs_d holds the distinct values,
    group[p] the index of pair p's, |i - j| for tx i and rx j. Its gain
    depends on (|z_s|, |d|) alone, bit for bit, because mirroring z_s only
    swaps the two Fresnel edge terms of a commutative add: geometry holds
    the distinct (|z_s|, |d|) as two rows in lexicographic order, of_pair[p]
    the column of pair p's. Both come from the integer indices, as the
    offsets of pair_offsets do, so they carry its bits: 13 delay groups and
    49 geometries for 169 pairs. A geometry's key |i + j - (N-1)| N + |i - j|
    orders them."""
    n = scenario.n_antennas
    idx = np.arange(n)
    half = scenario.spacing / 2.0
    diff = np.abs(idx[:, None] - idx).ravel()
    total = np.abs(idx[:, None] + idx - (n - 1)).ravel()
    key, of_pair = np.unique(total * n + diff, return_inverse=True)
    geometry = np.stack(np.divmod(key, n)) * half
    return idx * half, diff, geometry, of_pair


def gain_and_delay_arrays(scenario: Scenario, z_s, d, R
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pair gains xi * alpha * exp(-j 2 k r_s) / r_s and delays 2 r_s / c
    of every pair at every hypothesized standoff R.

    z_s and d are arrays of equal shape over pairs (pair_offsets gives
    them 1-D) or one pair's scalars; R has any shape. Both results have
    shape z_s.shape + R.shape. The gain is exactly 0 where the specular
    point is off the plate; a point exactly on the edge counts as on-plate.

    All but the z edge terms depend on |d| alone: r_s, the y factor, the
    z scale 2R/sqrt(lambda r_s^3), the carrier over r_s and the delay are
    evaluated once per distinct |d| (13 rows for the reference scene's 49
    geometries) and gathered, bit for bit what each pair's own would be.
    """
    z_s = np.asarray(z_s, dtype=float)
    d = np.asarray(d, dtype=float)
    R = np.asarray(R, dtype=float)
    pairs = (...,) + (None,) * R.ndim  # pair axes lead, hypotheses trail
    abs_d, of_d = np.unique(np.abs(d), return_inverse=True)
    of_d = of_d.reshape(d.shape)
    r_s = np.sqrt(R * R + (abs_d * abs_d)[pairs])
    wavelength = scenario.wavelength
    half = scenario.plate_height / 2.0
    # sqrt(Dy^2/(lambda r_s)) with Dy = m 2^e taken as sqrt(m^2/(lambda
    # r_s)) 2^e: the same bits wherever Dy^2 is a normal float, and no
    # underflow below Dy = 1e-154
    m, e = math.frexp(scenario.plate_width)
    y_factor = fresnel_conj(np.ldexp(np.sqrt(m * m / (wavelength * r_s)), e))
    per_d = y_factor * (xi(scenario) * cis(-2.0 * scenario.wavenumber * r_s)
                        / r_s)
    # z: both edge distances scaled by 2R/sqrt(lambda r^3), in one call
    scale = 2.0 * R / np.sqrt(wavelength * r_s ** 3)
    edges = np.stack([half - z_s, half + z_s])[(slice(None),) + pairs]
    z_terms = fresnel_conj(edges * scale[of_d])
    gain = (per_d[of_d] * (z_terms[0] + z_terms[1])
            * (np.abs(z_s) <= half)[pairs])
    return gain, (2.0 * r_s / SPEED_OF_LIGHT)[of_d]


def spa_received_signal(scenario: Scenario, t=None) -> np.ndarray:
    """u(t) of all N^2 pairs from the closed form at the scenario range:
    each pair's gain times the scene's sinc at its delayed time, the gains
    taken once per (|z_s|, |d|) geometry (pair_groups). The one
    closed-form synthesis; signal.synthesize calls it.

    t is a finite scalar or 1-D array of sample times within 256/B of the
    plate's delays (parse_times), or None for the carrier wave, the bare
    pair gains; the result has shape (N^2,) + shape(t), rows in tx-major
    order, like exact_received_signal.
    """
    times = parse_times(scenario, t)
    _, _, geometry, of_pair = pair_groups(scenario)
    gain, delay = gain_and_delay_arrays(scenario, *geometry, scenario.range)
    if times is None:
        return gain[of_pair]
    # geometries with equal |d| share a delay bit for bit: one waveform each
    shared, row = np.unique(delay, return_inverse=True)
    env = waveform_value(scenario.bandwidth, times, shared)[row]
    return (gain[:, None] * env)[of_pair].reshape(of_pair.shape + np.shape(t))
