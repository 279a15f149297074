"""The transmit sinc, sampled multistatic signal synthesis, and noise
injection.

Signals are complex baseband: the carrier phase exp(-j 2 k r_s) lives in
the pair gain while the waveform is evaluated at the true delay, so nothing
is ever sampled at the carrier rate. Each transmitter gets its own
orthogonal time slot, so the N^2 traces are independent clean observations
with no inter-transmitter interference term.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .scenario import SPEED_OF_LIGHT, Scenario, antenna_positions

DEFAULT_OVERSAMPLING = 4.0
# window half-span around the nominal delay, in units of 1/B; +-16/B keeps
# the side lobes the ML objective uses while staying compact
DEFAULT_WINDOW_HALFSPAN = 16.0
# Bound on a backend's sample time from the plate's delays, in 1/B: the
# exact backend's frequency rule takes pi/2 plate sums per 1/B, 462 here
_TIME_REACH = 256.0


def waveform_value(bandwidth: float, t, delay) -> np.ndarray:
    """The unit sinc s(t) = sin(pi B t) / (pi B t), s(0) = 1, of bandwidth
    B at t - tau for every delay tau at every time t: t of shape (..., n)
    and delay of shape (..., m) give shape (..., m, n), leading axes
    broadcast. Elementwise np.sinc(B (t - tau)), so a sample's bits do not
    depend on the shapes of the call."""
    t = np.asarray(t, dtype=float)
    delay = np.asarray(delay, dtype=float)
    return np.sinc(bandwidth * (t[..., None, :] - delay[..., None]))


@dataclass(frozen=True, eq=False)
class SignalSet:
    """Sampled complex traces, one per ordered (tx, rx) pair.

    All traces share the uniform time base t_start + n / sample_rate,
    n = 0 .. samples-1. traces has shape (pairs, samples), rows in
    tx-major order: for an N-element array row i is tx i // N, rx i % N.
    Identity comparison only (the array field makes elementwise == a trap).
    """

    sample_rate: float
    t_start: float
    traces: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.traces.ndim != 2:
            raise ValueError(f"traces shape {self.traces.shape} does not "
                             "match (pairs, samples)")

    @property
    def times(self) -> np.ndarray:
        return (self.t_start
                + np.arange(self.traces.shape[1]) / self.sample_rate)


def sample_times(scenario: Scenario, R) -> np.ndarray:
    """The sample times of synthesis at standoff R (a scalar or an array):
    +-16/B around the round trip 2R/c, sampled at 4B (128 samples), on a
    new last axis."""
    rate = DEFAULT_OVERSAMPLING * scenario.bandwidth
    n = int(round(2.0 * DEFAULT_WINDOW_HALFSPAN * DEFAULT_OVERSAMPLING))
    center = 2.0 * np.asarray(R, dtype=float) / SPEED_OF_LIGHT
    start = center - DEFAULT_WINDOW_HALFSPAN / scenario.bandwidth
    return start[..., None] + np.arange(n) / rate


def plate_delays(scenario: Scenario) -> tuple[float, float]:
    """(near, far): bounds on the round-trip delays of the plate's points
    from the antennas, 2R/c and 2 hypot(R, D_y/2, D_z/2 + max z_l)/c."""
    R = scenario.range
    hi = scenario.plate_height / 2.0 + antenna_positions(scenario)[-1]
    return (2.0 * R / SPEED_OF_LIGHT, 2.0 * math.hypot(
        R, scenario.plate_width / 2.0, hi) / SPEED_OF_LIGHT)


def parse_times(scenario: Scenario, t) -> np.ndarray | None:
    """A backend's sample times t, a finite scalar or 1-D array, as a 1-D
    float array; None, the carrier wave with no time axis, stays None.
    Times more than _TIME_REACH/B off the plate's delays (plate_delays)
    are refused."""
    if t is None:
        return None
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    times = np.atleast_1d(times)
    near, far = plate_delays(scenario)
    off = np.maximum(near - times, times - far)
    if np.any(off > _TIME_REACH / scenario.bandwidth):
        raise ValueError(f"sample time {float(times[np.argmax(off)])!r} s is "
                         f"more than {_TIME_REACH:g}/B off the plate's delays")
    return times


def synthesize(scenario: Scenario, true_range: float | None = None,
               backend: str = "spa") -> SignalSet:
    """Noise-free SignalSet at plate standoff true_range, on the time base
    sample_times(scenario, true_range), under the unit sinc of the
    scenario bandwidth.

    backend "spa" is the closed form; "exact" integrates the physical-optics
    field at any carrier (on the reference scene, one core: 0.02-0.035 s
    at 10 GHz and 0.35-0.55 s at 77 GHz). A true_range the Scenario
    refuses as its range is refused.
    """
    if backend not in ("spa", "exact"):
        raise ValueError(f"unknown backend {backend!r}")
    R = scenario.range if true_range is None else float(true_range)
    work = dataclasses.replace(scenario, range=R)
    t = sample_times(scenario, R)

    if backend == "spa":
        from .em_spa import spa_received_signal
        traces = spa_received_signal(work, t)
    else:
        from .em_exact import exact_received_signal
        traces = exact_received_signal(work, t)

    return SignalSet(sample_rate=DEFAULT_OVERSAMPLING * scenario.bandwidth,
                     t_start=float(t[0]),
                     traces=np.ascontiguousarray(traces, dtype=complex))


def add_awgn(signals: SignalSet, noise_power: float, seed: int) -> SignalSet:
    """Adds circular complex Gaussian noise, variance noise_power per
    complex sample (noise_power/2 per quadrature component).

    Per-trace child seeds are spawned from the root seed, so a run that
    processes traces in parallel and a serial run produce bitwise-identical
    noise. Trace i's child stream gives 2n standard normals in one draw:
    the first n scaled are its real noise, the last n its imaginary noise,
    the same bits as two draws of n.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be nonnegative")
    if noise_power == 0:
        return dataclasses.replace(signals, traces=signals.traces.copy())
    pairs, n = signals.traces.shape
    draws = np.empty((pairs, 2 * n))
    for row, child in zip(draws, np.random.SeedSequence(seed).spawn(pairs)):
        np.random.Generator(np.random.PCG64(child)).standard_normal(out=row)
    draws *= np.sqrt(noise_power / 2.0)
    noisy = signals.traces.copy()
    noisy.real += draws[:, :n]
    noisy.imag += draws[:, n:]
    return dataclasses.replace(signals, traces=noisy)
