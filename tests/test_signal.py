import dataclasses
import inspect
import re

import numpy as np
import pytest

import nfradar
from nfradar import (
    SPEED_OF_LIGHT,
    SignalSet,
    add_awgn,
    exact_received_signal,
    spa_received_signal,
    synthesize,
    reference_scenario,
    sample_times,
    waveform_value,
)
from nfradar.em_spa import gain_and_delay_arrays, pair_groups, pair_offsets
from nfradar.signal import _pcg64_children

from oracles import awgn_loop, exact_pair, pair_gain

CENTER_DELAY = 2.6685127615852163e-08  # 2 * 4 m / c
OUTER_DELAY = 2.7150150315155204e-08   # 2 * sqrt(16.5625) / c


def pair_arrays(sc):
    """Gains and delays of all pairs at the scenario range: the geometries'
    gains read through of_pair, the delay groups' delays through group."""
    groups = pair_groups(sc)
    gain, delay = gain_and_delay_arrays(sc, groups, sc.range)
    return gain[groups[3]], delay[groups[1]]


class TestWaveform:
    def test_sinc_values(self):
        t = np.array([-1e-8, 0.0, 5e-9, 1e-8])
        got = waveform_value(100e6, t, np.zeros(1))
        assert got.shape == (1, 4)
        assert got[0, 1] == 1.0
        assert got[0, 0] == pytest.approx(0.0, abs=1e-16)
        assert got[0, 3] == pytest.approx(0.0, abs=1e-16)
        # half the first null: sin(pi/2)/(pi/2) = 2/pi
        assert got[0, 2] == pytest.approx(2.0 / np.pi, rel=1e-15)

    def test_sinc_even(self):
        t = np.array([-7.5e-9, -3e-9, -1e-9, 0.0, 1e-9, 3e-9, 7.5e-9])
        got = waveform_value(100e6, t, np.zeros(1))[0]
        assert np.array_equal(got, got[::-1])

    def test_shapes_broadcast(self):
        # t (..., n) and delay (..., m) give (..., m, n), leading axes
        # broadcast
        t = np.zeros((4, 1, 5))
        delay = np.zeros((3, 2))
        assert waveform_value(1e8, t, delay).shape == (4, 3, 2, 5)
        assert waveform_value(1e8, t[0, 0], delay).shape == (3, 2, 5)
        assert waveform_value(1e8, np.empty(0), delay).shape == (3, 2, 0)

    @pytest.mark.parametrize("true_range", [2.0, 4.0, 8.0])
    def test_sinc_matches_np_sinc_on_objective_blocks(self, ref_sc,
                                                      true_range):
        # the objective's blocks: the time base at the true range against
        # each delay group's delays on lambda/8 grid chunks at either end
        # of the default 2-8 m grid and around the truth
        t = sample_times(ref_sc, true_range)
        abs_d = np.unique(np.abs(pair_offsets(ref_sc)[1]))
        step = ref_sc.wavelength / 8.0
        for start in (2.0, true_range - 32 * step, 8.0 - 63 * step):
            rh = start + step * np.arange(64)
            delay = 2.0 * np.sqrt(rh ** 2 + abs_d[:, None] ** 2) \
                / SPEED_OF_LIGHT
            want = np.sinc(ref_sc.bandwidth * (t - delay[..., None]))
            got = waveform_value(ref_sc.bandwidth, t, delay)
            assert np.array_equal(got, want)

    def test_sample_bits_independent_of_call_shape(self, ref_sc):
        # elementwise: one delay alone gives the bits it gets among 13,
        # and a 1-D time base the bits of the same times broadcast
        t = sample_times(ref_sc, 4.0)
        abs_d = np.unique(np.abs(pair_offsets(ref_sc)[1]))
        delay = 2.0 * np.sqrt(4.0 ** 2 + abs_d ** 2) / SPEED_OF_LIGHT
        assert delay.size == 13
        block = waveform_value(ref_sc.bandwidth, t, delay)
        for i in (0, 6, 12):
            assert np.array_equal(
                waveform_value(ref_sc.bandwidth, t, delay[i:i + 1])[0],
                block[i])
        wide = waveform_value(ref_sc.bandwidth, np.broadcast_to(t, (3, 128)),
                              delay)
        assert wide.shape == (3, 13, 128)
        assert all(np.array_equal(row, block) for row in wide)

    def test_delay_on_a_sample(self, ref_sc):
        t = sample_times(ref_sc, 4.0)
        got = waveform_value(ref_sc.bandwidth, t, t[[0, 17, 64, 127]])
        assert np.array_equal(got[[0, 1, 2, 3], [0, 17, 64, 127]],
                              np.ones(4))

    def test_delay_near_a_sample(self, ref_sc):
        # within 1e-6/B of a sample the sinc is 1 - (pi B dt)^2 / 6 to
        # rounding
        t = sample_times(ref_sc, 4.0)
        offsets = np.array([-1e-6, -3e-8, 1e-9, 4e-7]) / ref_sc.bandwidth
        delay = t[[3, 40, 64, 120]] + offsets
        got = waveform_value(ref_sc.bandwidth, t, delay)[[0, 1, 2, 3],
                                                         [3, 40, 64, 120]]
        want = np.sinc(ref_sc.bandwidth * (t[[3, 40, 64, 120]] - delay))
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert got[0] == pytest.approx(1.0 - (np.pi * 1e-6) ** 2 / 6,
                                       abs=1e-15)


class TestSignalSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="do not match"):
            SignalSet(times=np.zeros(3),
                      traces=np.zeros((1, 3, 1), dtype=complex))
        with pytest.raises(ValueError, match="do not match"):
            SignalSet(times=np.zeros(3), traces=np.zeros(3, dtype=complex))
        # times and traces must agree on the samples
        with pytest.raises(ValueError, match=re.escape(
                "times shape (4,) and traces shape (1, 3) do not match")):
            SignalSet(times=np.zeros(4),
                      traces=np.zeros((1, 3), dtype=complex))
        with pytest.raises(ValueError, match="do not match"):
            SignalSet(times=np.zeros((1, 3)),
                      traces=np.zeros((1, 3), dtype=complex))

    def test_times(self):
        t = np.array([1.0, 1.5, 2.0])
        s = SignalSet(times=t, traces=np.zeros((1, 3), dtype=complex))
        assert s.times is t
        assert [field.name for field in dataclasses.fields(SignalSet)] == [
            "times", "traces"]

class TestSynthesize:
    def test_sample_times_bracket_round_trip(self, ref_sc):
        B = ref_sc.bandwidth
        t = sample_times(ref_sc, 4.0)
        rt = 2.0 * 4.0 / SPEED_OF_LIGHT
        assert t.shape == (128,)
        assert t[0] == pytest.approx(rt - 16.0 / B, rel=1e-15)
        assert t[-1] + 1.0 / (4.0 * B) == pytest.approx(rt + 16.0 / B,
                                                         rel=1e-15)
        assert np.allclose(np.diff(t), 1.0 / (4.0 * B), rtol=1e-6, atol=0)
        # synthesis samples on exactly this time base
        for R in (4.0, 5.3):
            times = synthesize(ref_sc, true_range=R).times
            assert np.array_equal(times, sample_times(ref_sc, R))
        # an array of ranges gives one row per range, each the scalar call
        both = sample_times(ref_sc, np.array([4.0, 5.3]))
        assert both.shape == (2, 128)
        assert np.array_equal(both[0], sample_times(ref_sc, 4.0))
        assert np.array_equal(both[1], sample_times(ref_sc, 5.3))

    def test_shapes_and_defaults(self, ref_sc):
        s = synthesize(ref_sc)
        assert np.array_equal(s.times, sample_times(ref_sc, 4.0))
        assert s.traces.shape == (169, 128)
        assert s.traces.dtype == np.complex128

    def test_peak_near_round_trip(self, ref_sc):
        s = synthesize(ref_sc)
        # trace 84 is the monostatic center pair (6, 6)
        i = 6 * 13 + 6
        peak_t = s.times[np.argmax(np.abs(s.traces[i]))]
        assert abs(peak_t - CENTER_DELAY) <= 1.0 / (4.0 * ref_sc.bandwidth)

    def test_peak_value_is_pair_gain(self, ref_sc):
        # the time base starts 16/B before 2R/c, so at 4B sampling sample
        # 64 sits on the monostatic centre pair's delay 2R/c
        i = 6 * 13 + 6
        gain, delay, _ = pair_gain(ref_sc, 0.0, 0.0, 4.0)
        s = synthesize(ref_sc)
        assert s.times[64] == pytest.approx(delay, rel=1e-15)
        assert s.traces[i, 64] == pytest.approx(gain, rel=1e-12)

    def test_outer_pair_arrives_later(self, ref_sc):
        s = synthesize(ref_sc)
        t_center = s.times[np.argmax(np.abs(s.traces[6 * 13 + 6]))]
        t_outer = s.times[np.argmax(np.abs(s.traces[0 * 13 + 12]))]
        # 465 ps difference is below one sample at 400 MHz, so compare
        # interpolated energy centroids instead of argmax bins
        w_c = np.abs(s.traces[6 * 13 + 6]) ** 2
        w_o = np.abs(s.traces[0 * 13 + 12]) ** 2
        cen_c = np.sum(s.times * w_c) / np.sum(w_c)
        cen_o = np.sum(s.times * w_o) / np.sum(w_o)
        assert cen_o > cen_c
        assert abs(t_outer - t_center) <= 2.0 / (4.0 * ref_sc.bandwidth)

    def test_energy_locality(self, ref_sc):
        # at least 99% of each trace's energy within +-8/B of its delay
        s = synthesize(ref_sc)
        t = s.times
        _, delays = pair_arrays(ref_sc)
        for delay, trace in zip(delays, s.traces):
            mask = np.abs(t - delay) <= 8.0 / ref_sc.bandwidth
            total = np.sum(np.abs(trace) ** 2)
            assert np.sum(np.abs(trace[mask]) ** 2) >= 0.99 * total

    @pytest.mark.parametrize("overrides", [
        {}, {"plate_height": 0.5}, {"n_antennas": 4, "range": 3.3}])
    def test_rows_exact_per_pair(self, overrides):
        # synthesis evaluates one envelope per distinct delay: every row is
        # its pair's gain times the sinc at its delay, within 1e-14 of the
        # trace peak, and the reciprocal pair (rx, tx), with the same gain
        # and delay bit for bit, has the same row bit for bit
        sc = reference_scenario(**overrides)
        s = synthesize(sc)
        t = s.times
        gain, delay = pair_arrays(sc)
        peak = np.max(np.abs(s.traces))
        n = sc.n_antennas
        for p in range(s.traces.shape[0]):
            row = gain[p] * np.sinc(sc.bandwidth * (t - delay[p]))
            assert np.max(np.abs(s.traces[p] - row)) <= 1e-14 * peak
            q = (p % n) * n + p // n
            assert gain[q] == gain[p] and delay[q] == delay[p]
            assert np.array_equal(s.traces[q], s.traces[p])

    def test_true_range_override(self, ref_sc):
        s = synthesize(ref_sc, true_range=5.0)
        i = 6 * 13 + 6
        peak_t = s.times[np.argmax(np.abs(s.traces[i]))]
        assert abs(peak_t - 2.0 * 5.0 / SPEED_OF_LIGHT) <= \
            1.0 / (4.0 * ref_sc.bandwidth)

    @pytest.mark.parametrize("backend", ["spa", "exact"])
    @pytest.mark.parametrize("true_range", [0.1, -1.0, float("nan")])
    def test_invalid_true_range_refused(self, ref_sc, backend, true_range):
        # the standoff is checked as the scene's range, whatever the
        # backend: 0.1 m lies below the 0.39 m validity floor at 77 GHz
        with pytest.raises(ValueError, match="^range (must|below)"):
            synthesize(ref_sc, true_range=true_range, backend=backend)

    def test_unknown_backend(self, ref_sc):
        with pytest.raises(ValueError, match="unknown backend"):
            synthesize(ref_sc, backend="fdtd")

    def test_exact_at_77ghz(self):
        # the paper's carrier, once refused by a 12 GHz cost guard, on a
        # 0.1 x 0.25 m plate (12 y and 72 z nodes, 51 frequency nodes):
        # finite traces on synthesis' time base, the centre pair peaking at
        # its round trip
        sc = reference_scenario(plate_width=0.1, plate_height=0.25)
        s = synthesize(sc, backend="exact")
        assert s.traces.shape == (169, 128)
        assert np.all(np.isfinite(s.traces))
        assert np.argmax(np.abs(s.traces[84])) == 64
        assert np.array_equal(s.traces, exact_received_signal(sc, s.times))

    @pytest.mark.parametrize("true_range, bandwidth", [
        (None, 100e6), (4.3, 100e6), (None, 200e6), (4.3, 200e6),
    ], ids=["None", "4.3", "None-200MHz", "4.3-200MHz"])
    def test_exact_sinc_traces_match_oracle(self, true_range, bandwidth):
        # every sample of every pair against the brute-force plate sum, on
        # a 2 GHz scene small enough for the per-pair oracle: the sinc is
        # the scene's, at its bandwidth
        small = dict(n_antennas=3, carrier_freq=2e9, bandwidth=bandwidth,
                     min_range_wavelengths=20.0)
        sc = reference_scenario(**small)
        s = synthesize(sc, true_range=true_range, backend="exact")
        assert s.traces.shape == (9, 128)
        work = reference_scenario(**small, range=true_range or sc.range)
        z = (-0.125, 0.0, 0.125)
        for p in range(9):
            want = exact_pair(work, z[p // 3], z[p % 3], s.times,
                              sc.bandwidth)
            assert np.max(np.abs(s.traces[p] - want)) <= \
                1e-12 * np.max(np.abs(want))

    def test_spa_sinc_follows_scene(self):
        # closed-form synthesis at a 200 MHz scene is each pair's gain
        # times the 200 MHz sinc at its delay, on the 800 MHz time base,
        # bit for bit
        sc = reference_scenario(bandwidth=200e6)
        s = synthesize(sc)
        assert np.array_equal(s.times, sample_times(sc, sc.range))
        assert np.diff(s.times) == pytest.approx(1.0 / 800e6, rel=1e-6)
        gain, delay = pair_arrays(sc)
        assert np.array_equal(
            s.traces, gain[:, None] * waveform_value(2e8, s.times, delay))

    def test_no_waveform_parameter(self):
        # the scene's bandwidth is the one route to the sinc
        assert "WaveformRef" not in nfradar.__all__
        assert not hasattr(nfradar, "WaveformRef")
        assert list(inspect.signature(synthesize).parameters) == [
            "scenario", "true_range", "backend"]

    def test_carrier_wave_shape(self, ref_sc_10ghz):
        # t None is the carrier wave in both backends: one amplitude per
        # pair, no time axis
        for backend in (exact_received_signal, spa_received_signal):
            assert backend(ref_sc_10ghz).shape == (169,)
            assert backend(ref_sc_10ghz, None).shape == (169,)

    @pytest.mark.parametrize("t, message", [
        (np.zeros((2, 2)), "1-D"),
        (np.array([np.nan, 2.6e-8]), "must be finite"),
        (np.array([2.6e-8, np.inf]), "must be finite"),
        (-np.inf, "must be finite"),
        (1e300, "1e\\+300 s is more than 256/B off the plate's delays"),
        (1e-3, "0.001 s is more than 256/B off the plate's delays"),
    ])
    def test_backends_refuse_same_times(self, t, message):
        # one parse of t for both backends (parse_times): the closed form
        # once returned NaN rows for non-finite times and for t = 1e300,
        # whose sinc phase pi B t overflows
        sc = reference_scenario(n_antennas=1, carrier_freq=2e9,
                                min_range_wavelengths=20.0)
        errors = []
        for backend in (exact_received_signal, spa_received_signal):
            with pytest.raises(ValueError, match=message) as err:
                backend(sc, t)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_backend_consistency(self, ref_sc_10ghz):
        # the carrier wave makes the exact integral time-independent;
        # per-pair gains from both backends must agree to the
        # stationary-phase accuracy
        sc = ref_sc_10ghz
        a = exact_received_signal(sc)
        b = spa_received_signal(sc)
        amp_db = 20 * np.abs(np.log10(np.abs(a) / np.abs(b)))
        dphi = np.angle(a) - np.angle(b)
        dphi = np.degrees(np.abs((dphi + np.pi) % (2 * np.pi) - np.pi))
        assert np.max(amp_db) <= 0.5
        assert np.max(dphi) <= 5.0


class TestAwgn:
    def _small_set(self, ref_sc):
        return synthesize(ref_sc)

    def test_zero_noise_identity(self, ref_sc):
        s = self._small_set(ref_sc)
        n = add_awgn(s, 0.0, seed=7)
        assert np.array_equal(n.traces, s.traces)
        assert n.traces is not s.traces

    def test_negative_noise_rejected(self, ref_sc):
        with pytest.raises(ValueError, match="nonnegative"):
            add_awgn(self._small_set(ref_sc), -1.0, seed=0)

    @pytest.mark.parametrize("power", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, ref_sc, power):
        # NaN passed the old noise_power < 0 check, and both gave
        # non-finite traces; the CLI's noise.noise_power refuses both
        with pytest.raises(ValueError,
                           match="noise_power must be finite and nonnegative"):
            add_awgn(self._small_set(ref_sc), power, seed=0)

    def test_deterministic_per_seed(self, ref_sc):
        s = self._small_set(ref_sc)
        a = add_awgn(s, 1e-3, seed=123)
        b = add_awgn(s, 1e-3, seed=123)
        c = add_awgn(s, 1e-3, seed=124)
        assert np.array_equal(a.traces, b.traces)
        assert not np.array_equal(a.traces, c.traces)

    def test_variance(self):
        # >= 1e5 complex samples, sample variance within 2%
        base = SignalSet(np.arange(1024.0),
                         np.zeros((100, 1024), dtype=complex))
        noisy = add_awgn(base, 0.25, seed=99)
        n = noisy.traces.ravel()
        assert n.size >= 1e5
        var = np.mean(np.abs(n) ** 2)
        assert var == pytest.approx(0.25, rel=0.02)
        # circularity: real and imaginary parts carry half each
        assert np.mean(n.real ** 2) == pytest.approx(0.125, rel=0.03)
        assert np.mean(n.imag ** 2) == pytest.approx(0.125, rel=0.03)

    def test_noise_independent_of_trace_count(self, ref_sc):
        # child streams are spawned per trace: the first trace's noise
        # must not depend on how many other traces exist
        a = SignalSet(np.arange(64.0), np.zeros((1, 64), dtype=complex))
        b = SignalSet(np.arange(64.0), np.zeros((2, 64), dtype=complex))
        na = add_awgn(a, 1.0, seed=5)
        nb = add_awgn(b, 1.0, seed=5)
        assert np.array_equal(na.traces[0], nb.traces[0])

    @pytest.mark.parametrize("pairs", [169, 1])
    def test_matches_two_draws_per_trace(self, pairs, rng):
        # the stream perfbench/reference.py regenerates: per trace, a
        # PCG64 child of SeedSequence(seed), n real then n imaginary
        # draws; seeds of one, three and five 32-bit words
        traces = (rng.standard_normal((pairs, 128))
                  + 1j * rng.standard_normal((pairs, 128)))
        s = SignalSet(np.arange(128.0), traces)
        for seed in (11, 2 ** 64 + 5, 10 ** 40):
            got = add_awgn(s, 1e6, seed=seed).traces
            assert np.array_equal(got, awgn_loop(traces, 1e6, seed=seed))

    # one to five 32-bit words; 10^40 has five, more than the pool's
    # four, so its last word takes the remaining-entropy mix
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [0, 1, 3, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 + 5, 2 ** 128 - 1, 2 ** 128,
                                      10 ** 40])
    @pytest.mark.parametrize("count", [1, 169, 300])
    def test_child_states_match_numpy(self, seed, count):
        # the hashed (state, inc) of every child is numpy's own
        children = np.random.SeedSequence(seed).spawn(count)
        want = [np.random.PCG64(child).state["state"] for child in children]
        assert _pcg64_children(seed, count) == [
            (w["state"], w["inc"]) for w in want]

    @pytest.mark.parametrize("seed, error", [(-1, ValueError),
                                             (1.5, TypeError)])
    def test_seed_must_be_nonnegative_integer(self, ref_sc, seed, error):
        # as SeedSequence refuses them
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            add_awgn(self._small_set(ref_sc), 1.0, seed=seed)
