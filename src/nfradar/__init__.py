"""Near-field multistatic radar simulation and range estimation toolkit.

A linear antenna array observes a rectangular conducting plate at close
range. The package provides the exact physical-optics field integral, its
stationary-phase closed form, sampled multistatic signal synthesis, and
maximum-likelihood range estimation with ambiguity-function and
Cramer-Rao-bound analysis.
"""

__version__ = "0.1.0"

from .scenario import (FREE_SPACE_IMPEDANCE, SPEED_OF_LIGHT, Scenario,
                       reference_scenario)
from .special_fn import fresnel, fresnel_conj
from .em_exact import exact_received_signal
from .em_spa import spa_received_signal, xi
from .signal import (SignalSet, add_awgn, sample_times, synthesize,
                     waveform_value)
from .estimator import (AmbiguityCurve, CrbResult, ModelKind, ambiguity,
                        crb, estimate_range, half_power_width)

__all__ = [
    "FREE_SPACE_IMPEDANCE", "SPEED_OF_LIGHT",
    "Scenario", "reference_scenario",
    "fresnel", "fresnel_conj",
    "exact_received_signal",
    "spa_received_signal", "xi",
    "SignalSet", "add_awgn", "sample_times",
    "synthesize", "waveform_value",
    "AmbiguityCurve", "CrbResult", "ModelKind", "ambiguity", "crb",
    "estimate_range", "half_power_width",
]
