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
import operator
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the
# initial constant and multiplier of the pool's and of the output's hash,
# and the two multipliers of its mix
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, and the mask of its modulus 2^128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays: each call xors with the
    running constant, multiplies by its next value (const * mult), and
    xorshifts by 16 bits."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    value = x * _MIX[0] - y * _MIX[1]
    return value ^ (value >> 16)


def _pcg64_children(seed: int, count: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of each of SeedSequence(seed).spawn(count),
    the same as np.random.PCG64(child).state, with all children hashed at
    once in uint32 arrays.

    A child's entropy is the seed's 32-bit words, low first, padded with
    zeros to the pool's 4 words, then its spawn key i (one word, as
    count < 2^32). PCG64 takes generate_state(4, uint64) of its pool:
    initstate from words 0-1 and initseq from words 2-3, high word first,
    and seeds as inc = 2 initseq + 1, state = (inc + initstate) M + inc
    mod 2^128."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words += [0] * (_POOL_WORDS - len(words))
    entropy = np.empty((len(words) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count)

    hashmix = _hasher(*_HASH_A)
    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _hasher(*_HASH_B)
    out = np.array([hash_out(pool[i % _POOL_WORDS])
                    for i in range(2 * _POOL_WORDS)])
    # little-endian pairs of uint32 words are the uint64 words
    out = out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << 32
    children = []
    for s_hi, s_lo, q_hi, q_lo in out.T.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc
        children.append((state & _MASK128, inc))
    return children


def add_awgn(signals: SignalSet, noise_power: float, seed: int) -> SignalSet:
    """Adds circular complex Gaussian noise, variance noise_power per
    complex sample (noise_power/2 per quadrature component).

    Trace i's noise is the PCG64 stream of the i-th child of
    np.random.SeedSequence(seed).spawn(pairs), so a run that processes
    traces in parallel and a serial run produce bitwise-identical noise.
    All children's seeds are hashed at once (_pcg64_children), and one
    PCG64 generator is set to each child's state in turn. Trace i's
    stream gives 2n standard normals in one draw: the first n scaled are
    its real noise, the last n its imaginary noise, the same bits as two
    draws of n. seed must be a nonnegative integer.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be nonnegative")
    if noise_power == 0:
        return dataclasses.replace(signals, traces=signals.traces.copy())
    pairs, n = signals.traces.shape
    draws = np.empty((pairs, 2 * n))
    bit_generator = np.random.PCG64(0)
    normal = np.random.Generator(bit_generator).standard_normal
    for row, (state, inc) in zip(draws, _pcg64_children(seed, pairs)):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        normal(out=row)
    draws *= np.sqrt(noise_power / 2.0)
    noisy = signals.traces.copy()
    noisy.real += draws[:, :n]
    noisy.imag += draws[:, n:]
    return dataclasses.replace(signals, traces=noisy)
