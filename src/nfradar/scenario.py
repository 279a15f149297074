"""Physical scene description for a linear array facing a rectangular plate.

The array is a line of N y-oriented Hertzian dipoles along the z axis at
x = -R, the plate is the rectangle x = 0, |y| <= plate_width/2,
|z| <= plate_height/2, perfectly conducting. Every geometric quantity used
by the field and estimation modules derives from the Scenario value object
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"""Exact SI value, m/s."""

FREE_SPACE_IMPEDANCE = 376.730313668
"""CODATA free-space impedance, ohms."""


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description. Every field is finite and, but for
    min_range_wavelengths, strictly positive: a plate of zero width or
    height, or a zero gain factor, returns nothing and is refused.

    Parameters
    ----------
    n_antennas : int
        Number of array elements N (each acts as transmitter and receiver).
    spacing : float
        Element spacing along z, meters.
    antenna_gain_factor : float
        Product of dipole length squared and drive current, m^2 A.
    bandwidth : float
        Waveform bandwidth B, Hz.
    carrier_freq : float
        Carrier f_c, Hz. Wavelength and wavenumber derive from it.
    plate_width : float
        Plate extent along y, meters.
    plate_height : float
        Plate extent along z, meters.
    range : float
        Standoff distance R between array line and plate plane, meters.
    free_space_impedance : float
        Medium impedance, ohms. Overridable so unit tests can set 1.
    min_range_wavelengths : float
        Validity guard: construction rejects range < this many wavelengths.
        The field formulas assume r much larger than the wavelength; the
        default demands a 100 wavelength margin. Sweeps that probe short
        ranges at low carriers must lower it explicitly. Finite and
        nonnegative.
    """

    n_antennas: int
    spacing: float
    antenna_gain_factor: float
    bandwidth: float
    carrier_freq: float
    plate_width: float
    plate_height: float
    range: float
    free_space_impedance: float = FREE_SPACE_IMPEDANCE
    min_range_wavelengths: float = 100.0

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be at least 1")
        for name in ("spacing", "antenna_gain_factor", "bandwidth",
                     "carrier_freq", "plate_width", "plate_height",
                     "range", "free_space_impedance",
                     "min_range_wavelengths"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number")
            # a zero margin drops the range floor
            if name == "min_range_wavelengths":
                if value < 0:
                    raise ValueError(f"{name} must be nonnegative")
            elif value <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.bandwidth > self.carrier_freq / 10.0:
            raise ValueError(
                "narrowband assumption violated: bandwidth "
                f"{self.bandwidth:g} Hz exceeds carrier_freq/10 "
                f"({self.carrier_freq / 10.0:g} Hz)")
        if self.range < self.min_range_wavelengths * self.wavelength:
            raise ValueError(
                "range below field-formula validity: "
                f"{self.range:g} m < {self.min_range_wavelengths:g} "
                f"wavelengths ({self.min_range_wavelengths * self.wavelength:g} m)")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


def antenna_positions(scenario: Scenario) -> np.ndarray:
    """z coordinates of the N elements, (l - (N-1)/2) * spacing for
    l = 0 .. N-1: symmetric about z = 0."""
    n = scenario.n_antennas
    return (np.arange(n) - (n - 1) / 2.0) * scenario.spacing


def reference_scenario(**overrides) -> Scenario:
    """The reference scenario used throughout the numerical experiments.

    N = 13 elements at 0.125 m spacing, 0.8 m x 1.75 m plate at R = 4 m,
    77 GHz carrier, 100 MHz bandwidth, unit gain factor. Keyword overrides
    replace individual fields.
    """
    params = dict(
        n_antennas=13,
        spacing=0.125,
        antenna_gain_factor=1.0,
        bandwidth=100e6,
        carrier_freq=77e9,
        plate_width=0.8,
        plate_height=1.75,
        range=4.0,
    )
    params.update(overrides)
    return Scenario(**params)
