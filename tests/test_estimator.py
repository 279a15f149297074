import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from nfradar import (
    AmbiguityCurve,
    ModelKind,
    SignalSet,
    add_awgn,
    ambiguity,
    crb,
    estimate_range,
    half_power_width,
    synthesize,
    reference_scenario,
    spa_received_signal,
)
from nfradar import em_spa, estimator
from nfradar.em_spa import gain_and_delay_arrays, pair_offsets
from nfradar.estimator import _GRID_CHUNK, _RANGE_CHUNK, _objective_on_grid
from nfradar.signal import waveform_value
from nfradar.special_fn import chebyshev_node_count, cis, fresnel_conj

from oracles import objective_loop, stencil_curvature

PARTIAL = ModelKind.PARTIAL_INFORMATION
FULL = ModelKind.FULL_INFORMATION


@pytest.fixture(scope="module")
def received(ref_sc=None):
    return synthesize(reference_scenario())


class TestModelKind:
    def test_parse(self):
        assert ModelKind.parse("full") is FULL
        assert ModelKind.parse("partial") is PARTIAL
        assert ModelKind.parse("full_information") is FULL
        assert ModelKind.parse("partial_information") is PARTIAL
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelKind.parse("oracle")


def objective(received, sc, r_hat, kind=PARTIAL, coherence="coherent"):
    return _objective_on_grid(received, sc, np.atleast_1d(r_hat), kind,
                              coherence)


class TestModelSignals:
    def test_full_equals_synthesize(self, ref_sc, received):
        # at the truth the full model trace of every pair is the received
        # trace, so the coherent objective meets its Cauchy-Schwarz bound:
        # the received energy
        energy = np.sum(np.abs(received.traces) ** 2)
        assert objective(received, ref_sc, 4.0, FULL)[0] == \
            pytest.approx(energy, rel=1e-12)
        assert objective(received, ref_sc, 4.0, FULL, "incoherent")[0] == \
            pytest.approx(energy, rel=1e-12)

    def test_partial_single_antenna_template(self):
        # N = 1: r_s(R_hat) = R_hat exactly, so the template is the pure
        # delayed sinc with the carrier phase; received equal to it meets
        # the Cauchy-Schwarz bound there and nowhere else
        sc = reference_scenario(n_antennas=1)
        base = synthesize(sc)
        t = base.times
        template = (np.exp(-2j * sc.wavenumber * 4.2)
                    * np.sinc(sc.bandwidth * (t - 2 * 4.2 / 299792458.0)))
        received = SignalSet(base.sample_rate, base.t_start,
                             template[None, :])
        j = objective(received, sc, [4.19, 4.2, 4.21])
        assert j[1] == pytest.approx(np.sum(np.abs(template) ** 2),
                                     rel=1e-12)
        assert j[0] < j[1] and j[2] < j[1]

    def test_partial_unit_gain(self, ref_sc, received):
        # partial templates carry no Fresnel amplitude or drive level: the
        # partial objective ignores plate size and gain, the full one not
        other = reference_scenario(plate_width=3.0, plate_height=6.0,
                                   antenna_gain_factor=5.0)
        grid = [3.97, 4.0, 4.05]
        assert np.array_equal(objective(received, ref_sc, grid),
                              objective(received, other, grid))
        assert not np.allclose(objective(received, ref_sc, grid, FULL),
                               objective(received, other, grid, FULL))

    def test_hypothesis_floor(self, ref_sc, received):
        with pytest.raises(ValueError, match="validity floor"):
            objective(received, ref_sc, 0.1)
        with pytest.raises(ValueError, match="positive"):
            objective(received, ref_sc, -1.0)


class TestObjective:
    def test_unknown_coherence(self, ref_sc, received):
        with pytest.raises(ValueError, match="unknown coherence"):
            objective(received, ref_sc, 4.0, coherence="semi")

    def test_zero_received_zero_objective(self, ref_sc, received):
        zero = dataclasses.replace(received,
                                   traces=np.zeros_like(received.traces))
        for kind in (PARTIAL, FULL):
            assert objective(zero, ref_sc, 4.0, kind)[0] == 0.0
            assert objective(zero, ref_sc, 4.0, kind, "incoherent")[0] == 0.0

    def test_scaling_quadratic(self, ref_sc, received):
        base = objective(received, ref_sc, 4.05)[0]
        for c in (2.0, 0.5j, -1.3 + 0.7j):
            scaled = dataclasses.replace(received,
                                         traces=c * received.traces)
            assert objective(scaled, ref_sc, 4.05)[0] == \
                pytest.approx(abs(c) ** 2 * base, rel=1e-12)

    def test_incoherent_at_least_coherent(self, ref_sc, received):
        # dropping the cross-pair phase constraint can only raise the
        # profiled objective
        coh = objective(received, ref_sc, 4.1)[0]
        inc = objective(received, ref_sc, 4.1, coherence="incoherent")[0]
        assert inc >= coh

    def test_pair_symmetry(self, ref_sc, received):
        # swapping tx and rx gives the identical propagation path, so the
        # per-pair matched energies must be symmetric; the incoherent
        # objective of a set holding one pair's trace is that pair's
        # matched energy
        def contribution(p):
            traces = np.zeros_like(received.traces)
            traces[p] = received.traces[p]
            one = dataclasses.replace(received, traces=traces)
            return objective(one, ref_sc, 4.05, coherence="incoherent")[0]

        for l in range(13):
            for lp in range(l + 1, 13):
                a, b = contribution(l * 13 + lp), contribution(lp * 13 + l)
                assert a == pytest.approx(b, rel=1e-9, abs=0)

    def test_vectorized_grid_matches_loop(self, ref_sc, received):
        grid = np.array([3.9, 3.97, 4.0, 4.06, 4.2])
        for kind in (PARTIAL, FULL):
            for coherence in ("coherent", "incoherent"):
                fast = _objective_on_grid(received, ref_sc, grid, kind,
                                          coherence)
                for g, f in zip(grid, fast):
                    slow = objective_loop(received, ref_sc, float(g),
                                          kind is FULL,
                                          coherence == "coherent")
                    assert f == pytest.approx(slow, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {"n_antennas": 1}, {"n_antennas": 4}, {}, {"plate_height": 0.5}])
    def test_chunk_boundaries_match_loop(self, overrides):
        # a 0.1 mm grid of 2 _GRID_CHUNK + 76 points is cut by the point
        # cap alone: chunks of _GRID_CHUNK, _GRID_CHUNK and 76 points;
        # check the first and last point of each against the per-pair loop
        sc = reference_scenario(**overrides)
        received = synthesize(sc)
        grid = 3.9 + 1e-4 * np.arange(2 * _GRID_CHUNK + 76)
        edges = (0, _GRID_CHUNK - 1, _GRID_CHUNK, 2 * _GRID_CHUNK - 1,
                 2 * _GRID_CHUNK, grid.size - 1)
        for kind in (PARTIAL, FULL):
            for coherence in ("coherent", "incoherent"):
                fast = _objective_on_grid(received, sc, grid, kind,
                                          coherence)
                for i in edges:
                    slow = objective_loop(received, sc, float(grid[i]),
                                          kind is FULL,
                                          coherence == "coherent")
                    assert fast[i] == pytest.approx(slow, rel=1e-12)

    @pytest.mark.parametrize("overrides,grid,noisy", [
        # 2-8 m in 0.25 m steps: 9 chunks of at most 3 points, each
        # moving by up to 1/(2B) in delay
        ({}, np.arange(2.0, 8.0 + 1e-9, 0.25), False),
        ({}, np.array([4.0]), False),
        # 1 GHz: the delay groups' own spread (0.9/B at 2 m) is
        # comparable to 1/B, so each chunk has two bands of groups
        ({"bandwidth": 1e9}, np.arange(2.0, 2.3 + 1e-9, 0.025), False),
        ({"n_antennas": 1}, np.arange(3.5, 4.5 + 1e-9, 0.05), False),
        ({}, np.arange(3.95, 4.05 + 1e-9, 0.01), True),
    ], ids=["coarse", "one-point", "1ghz", "one-antenna", "noisy"])
    def test_regimes_match_loop(self, overrides, grid, noisy):
        # every point of the grid against the per-pair loop, the error
        # taken over the curve's peak so that far side lobes, whose own
        # value is small, are held to the same absolute level
        sc = reference_scenario(**overrides)
        received = synthesize(sc)
        if noisy:
            power = np.mean(np.abs(received.traces) ** 2)
            received = add_awgn(received, power, seed=11)
        for kind in (PARTIAL, FULL):
            for coherence in ("coherent", "incoherent"):
                fast = _objective_on_grid(received, sc, grid, kind,
                                          coherence)
                slow = np.array([objective_loop(received, sc, float(g),
                                                kind is FULL,
                                                coherence == "coherent")
                                 for g in grid])
                assert np.max(np.abs(fast - slow)) <= 1e-12 * slow.max()

    @pytest.mark.parametrize("grid,match", [
        (np.array([[3.9, 4.0], [4.05, 4.1]]), "must be 1-D"),
        # unsorted, the parabola through the argmax and its array
        # neighbours is fitted through points that are not grid neighbours
        ([4.1, 3.9, 4.0005, 4.2], "strictly increasing"),
        ([3.9, 4.0, 4.0, 4.1], "strictly increasing")])
    def test_grid_refused(self, ref_sc, received, grid, match):
        calls = (
            lambda g: estimate_range(received, ref_sc, g),
            lambda g: ambiguity(ref_sc, 4.0, g, received=received),
            lambda g: _objective_on_grid(received, ref_sc, g, PARTIAL,
                                         "coherent"))
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call(grid)
        est = estimate_range(received, ref_sc, [3.9, 4.0005, 4.1, 4.2])
        assert abs(est - 4.0) < 1e-3

    def test_swapped_pairs_exchanged(self, ref_sc, received):
        # tx/rx-swapped pairs share their template, so exchanging their
        # (noisy, hence different) traces leaves J unchanged; the pairs
        # are summed per template class, in another order
        noisy = add_awgn(received, np.mean(np.abs(received.traces) ** 2),
                         seed=3)
        swap = np.arange(169).reshape(13, 13).T.ravel()
        swapped = dataclasses.replace(noisy, traces=noisy.traces[swap])
        assert not np.array_equal(swapped.traces, noisy.traces)
        grid = np.arange(3.9, 4.1 + 1e-9, 0.01)
        for kind in (PARTIAL, FULL):
            for coherence in ("coherent", "incoherent"):
                a = _objective_on_grid(noisy, ref_sc, grid, kind, coherence)
                b = _objective_on_grid(swapped, ref_sc, grid, kind,
                                       coherence)
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(a)

    def test_one_envelope_block_per_chunk(self, ref_sc, received,
                                          monkeypatch):
        # the envelope is evaluated once per grid chunk, at K Chebyshev
        # nodes in delay: a (K, n) block whose K follows the chunk's delay
        # span. 13 antennas at 0.125 m and 25 at 0.0625 m have the same
        # largest |d|, so the same span, and get the same block for 169
        # or 625 pairs and 13 or 25 delay groups
        shapes = []

        def recording(w, t, delay):
            out = waveform_value(w, t, delay)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(estimator, "waveform_value", recording)
        grid = 3.9 + 0.0015 * np.arange(130)
        _objective_on_grid(received, ref_sc, grid, PARTIAL, "coherent")
        _objective_on_grid(received, ref_sc, grid, FULL, "incoherent")
        wide = reference_scenario(n_antennas=25, spacing=0.0625)
        _objective_on_grid(synthesize(wide), wide, grid, PARTIAL,
                           "incoherent")
        assert shapes == [(11, 128)] * 3
        # a 1,100-point grid: chunks of 500, 500 and 100 points, the
        # first two moving by 1/(2B) in delay
        shapes.clear()
        grid = 3.9 + 0.0015 * np.arange(1100)
        _objective_on_grid(received, ref_sc, grid, PARTIAL, "coherent")
        assert shapes == [(14, 128), (14, 128), (10, 128)]

    def test_node_count_bound(self):
        # the written-down bound 2 (s/2)^K / (K+1)! holds for the
        # Chebyshev interpolant of sinc(B (t - tau)) in tau over
        # [mid - h, mid + h], s = pi B h, built here by numpy's own
        # first-kind interpolation
        bandwidth, mid = 100e6, 26.7e-9
        times = mid + np.linspace(-16.0, 16.0, 9) / bandwidth
        x = np.linspace(-1.0, 1.0, 2001)
        for s in (0.2, 1.0, np.pi / 2):
            h = s / (np.pi * bandwidth)
            for k in range(2, 9):
                bound = 2.0 * (s / 2.0) ** k / math.factorial(k + 1)
                for t in times:
                    f = lambda v: np.sinc(bandwidth * (t - mid - h * v))
                    coef = np.polynomial.chebyshev.chebinterpolate(f, k - 1)
                    err = np.abs(np.polynomial.chebyshev.chebval(x, coef)
                                 - f(x))
                    assert err.max() <= bound + 1e-15
        assert chebyshev_node_count(0.0) == 1
        assert chebyshev_node_count(np.pi / 2) == 17
        # past s of about 1,400 the bound exceeds the float range before it
        # falls; the count must still be the smallest K that meets it
        for s in (2000.0, 1e5):
            k = chebyshev_node_count(s)
            log_bound = [math.log(2.0) + j * math.log(s / 2.0)
                         - math.lgamma(j + 2) for j in (k - 1, k)]
            assert log_bound[1] <= math.log(1e-17) < log_bound[0]

    @pytest.mark.parametrize("overrides", [
        {}, {"plate_height": 0.5}, {"n_antennas": 4}, {"spacing": 0.1}])
    def test_gain_geometries_exact(self, overrides):
        # gains evaluated once per distinct (|z_s|, |d|) and indexed back
        # to the pairs are bit for bit the per-pair gains, off-plate zeros
        # included
        sc = reference_scenario(**overrides)
        groups = em_spa.pair_groups(sc)
        if not overrides:
            assert groups[2].shape == (2, 49)
        z_s, d = pair_offsets(sc)
        # the geometries and their order are those of np.unique over columns
        geometry, of_pair = np.unique(np.abs([z_s, d]), axis=1,
                                      return_inverse=True)
        assert np.array_equal(groups[2], geometry)
        assert np.array_equal(groups[3], of_pair.ravel())
        R = np.array([[2.0, 3.99, 4.0], [4.3, 6.1, 8.0]])
        want, _ = gain_and_delay_arrays(sc, z_s, d, R)
        rows = groups[3]
        # the full model reads no r_s
        gain = estimator._gains(sc, groups, R, None, FULL)[rows]
        assert np.array_equal(gain, want)
        gain = estimator._gains(sc, groups, R[0], None, FULL)[rows]
        assert np.array_equal(gain, want[:, 0])


class TestAmbiguity:
    def test_peak_at_truth(self, ref_sc, received):
        grid = np.arange(3.8, 4.2 + 1e-12, 0.005)
        curve = ambiguity(ref_sc, 4.0, grid, received=received)
        i = int(np.argmax(curve.values))
        assert curve.grid[i] == pytest.approx(4.0, abs=1e-12)
        assert curve.values[i] == 1.0

    def test_full_model_peak_at_truth(self, ref_sc, received):
        grid = np.arange(3.8, 4.2 + 1e-12, 0.005)
        curve = ambiguity(ref_sc, 4.0, grid, kind=FULL, received=received)
        assert curve.grid[int(np.argmax(curve.values))] == \
            pytest.approx(4.0, abs=1e-12)

    def test_grid_must_cover_truth(self, ref_sc, received):
        with pytest.raises(ValueError, match="does not cover"):
            ambiguity(ref_sc, 4.0, np.arange(4.5, 5.0, 0.01),
                      received=received)

    def test_empty_grid(self, ref_sc, received):
        with pytest.raises(ValueError, match="empty grid"):
            ambiguity(ref_sc, 4.0, np.array([]), received=received)

    def test_incoherent_much_wider(self, ref_sc, received):
        # incoherent-partial drops every carrier phase relation, leaving a
        # bandwidth-only lobe; coherent keeps the near-field carrier
        # structure and is several times narrower
        grid = np.arange(3.0, 5.0 + 1e-12, 0.005)
        w_coh = half_power_width(
            ambiguity(ref_sc, 4.0, grid, received=received))
        w_inc = half_power_width(
            ambiguity(ref_sc, 4.0, grid, received=received,
                      coherence="incoherent"))
        assert w_inc > 5.0 * w_coh

    def test_synthesizes_when_received_omitted(self, ref_sc):
        grid = np.arange(3.9, 4.1 + 1e-12, 0.01)
        curve = ambiguity(ref_sc, 4.0, grid)
        assert curve.values.max() == 1.0

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AmbiguityCurve(grid=np.array([1.0, 1.0, 2.0]),
                           values=np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError, match="lie in"):
            AmbiguityCurve(grid=np.array([1.0, 2.0]),
                           values=np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="finite"):
            AmbiguityCurve(grid=np.array([1.0, 2.0]),
                           values=np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="equal length"):
            AmbiguityCurve(grid=np.array([1.0, 2.0]),
                           values=np.array([0.5]))


    def test_gain_scale_moves_no_bit(self, ref_sc):
        # J has degree 2 in the traces and 0 in each hypothesis' gains, and
        # both are scaled by powers of two: at a 2^600 gain factor, whose J
        # once overflowed into NaN cells, the curve and the estimate are
        # the unit factor's, bit for bit
        big = reference_scenario(antenna_gain_factor=2.0 ** 600)
        grid = 4.0 + ref_sc.wavelength / 8.0 * np.arange(-205, 206)
        for kind in (PARTIAL, FULL):
            want = ambiguity(ref_sc, 4.0, grid, kind).values
            assert np.array_equal(ambiguity(big, 4.0, grid, kind).values,
                                  want)
            assert estimate_range(synthesize(big), big, grid, kind) == \
                estimate_range(synthesize(ref_sc), ref_sc, grid, kind)

    @pytest.mark.parametrize("coherence", ["coherent", "incoherent"])
    def test_huge_noise_finite(self, ref_sc, received, coherence):
        # noise power 1e308 once overflowed J into NaN cells
        grid = 4.0 + ref_sc.wavelength / 8.0 * np.arange(-205, 206)
        noisy = add_awgn(received, 1e308, seed=0)
        curve = ambiguity(ref_sc, 4.0, grid, FULL, coherence,
                          received=noisy)
        assert np.all(np.isfinite(curve.values))
        assert curve.values.max() == 1.0
        assert grid[0] <= estimate_range(noisy, ref_sc, grid, FULL,
                                         coherence) <= grid[-1]


class TestEstimateRange:
    def test_noise_free_recovery(self, ref_sc, received):
        grid = np.arange(3.9, 4.1 + 1e-12, 0.001)
        est = estimate_range(received, ref_sc, grid)
        assert abs(est - 4.0) <= 0.001

    def test_argmax_invariant_under_scaling(self, ref_sc, received):
        grid = np.arange(3.95, 4.05 + 1e-12, 0.002)
        base_raw = _objective_on_grid(received, ref_sc, grid, PARTIAL,
                                      "coherent")
        base_est = estimate_range(received, ref_sc, grid)
        for c in (3.0, 1j, -0.2 - 0.9j, 1e6):
            scaled = dataclasses.replace(received,
                                         traces=c * received.traces)
            raw = _objective_on_grid(scaled, ref_sc, grid, PARTIAL,
                                     "coherent")
            # grid argmax is exactly invariant; the parabolic refinement
            # only sees rescaled ordinates so it moves at float precision
            assert np.argmax(raw) == np.argmax(base_raw)
            assert estimate_range(scaled, ref_sc, grid) == \
                pytest.approx(base_est, abs=1e-9)

    def test_zero_received_returns_first_point(self, ref_sc, received):
        # all-zero objective: first-occurrence argmax, edge point unrefined
        zero = dataclasses.replace(received,
                                   traces=np.zeros_like(received.traces))
        grid = np.array([3.5, 4.0, 4.5])
        assert estimate_range(zero, ref_sc, grid) == 3.5

    def test_edge_peak_unrefined(self, ref_sc, received):
        # grid entirely below the truth: peak lands on the last grid point
        # and is returned as-is
        grid = np.linspace(3.0, 3.5, 6)
        assert estimate_range(received, ref_sc, grid) == 3.5

    def test_empty_grid(self, ref_sc, received):
        with pytest.raises(ValueError, match="empty grid"):
            estimate_range(received, ref_sc, np.array([]))

    def test_refinement_beats_grid(self, ref_sc, received):
        # on a coarse grid that straddles the truth, the parabolic vertex
        # must land closer to 4.0 than the best grid point
        grid = np.arange(3.9- 0.0015, 4.1, 0.007)
        est = estimate_range(received, ref_sc, grid)
        best_grid = grid[np.argmin(np.abs(grid - 4.0))]
        assert abs(est - 4.0) < abs(best_grid - 4.0)


class TestHalfPowerWidth:
    def test_triangle(self):
        # triangular peak of height 1 over [-0.4, 0.4]: crossings at
        # +-0.2, width exactly 0.4
        grid = np.linspace(-0.4, 0.4, 81)
        values = 1.0 - np.abs(grid) / 0.4
        w = half_power_width(AmbiguityCurve(grid=grid, values=values))
        assert w == pytest.approx(0.4, rel=1e-12)

    def test_flat_curve_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="not unique"):
            half_power_width(AmbiguityCurve(grid=grid,
                                            values=np.ones(11) * 0.5))

    def test_edge_peak_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        values = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="grid edge"):
            half_power_width(AmbiguityCurve(grid=grid, values=values))

    def test_no_crossing_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        values = np.full(11, 0.9)
        values[5] = 1.0
        with pytest.raises(ValueError, match="no half-power crossing"):
            half_power_width(AmbiguityCurve(grid=grid, values=values))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_sided_crossing_rejected(self, side):
        # a curve that falls below half on one side only names the other
        grid = np.linspace(0.0, 1.0, 11)
        values = np.full(11, 0.9)
        values[5] = 1.0
        if side == "right":
            values[:2] = 0.1
        else:
            values[9:] = 0.1
        with pytest.raises(ValueError, match=f"crossing {side} of the peak"):
            half_power_width(AmbiguityCurve(grid=grid, values=values))

    def test_crossings_nearest_the_peak(self):
        # side lobes above half beyond a dip lie outside the contiguous
        # region: the crossings are those of the main lobe, 2/3 of a cell
        # from the peak as in test_interpolated_crossing
        grid = np.arange(9.0)
        values = np.array([0.0, 0.8, 0.1, 0.25, 1.0, 0.25, 0.1, 0.8, 0.0])
        w = half_power_width(AmbiguityCurve(grid=grid, values=values))
        assert w == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_interpolated_crossing(self):
        # peak 1 at x=2, neighbors at 0.25: crossing interpolates to
        # x = 2 +- 2/3 of a cell
        grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([0.0, 0.25, 1.0, 0.25, 0.0])
        w = half_power_width(AmbiguityCurve(grid=grid, values=values))
        assert w == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestCrb:
    def test_basic_result(self, ref_sc):
        r = crb(ref_sc, 4.0)
        assert r.range == 4.0
        assert r.bound > 0
        assert r.curvature > 0

    def test_snr_scales_bound_exactly(self, ref_sc):
        assert crb(ref_sc, 4.0, snr=2.0).bound == \
            crb(ref_sc, 4.0, snr=1.0).bound / 2.0

    def test_normalization_ordering(self, ref_sc):
        # the strongest pair's power is never below the all-trace mean, so
        # per_pair noise (and bound) is at least the total-normalized one
        total = crb(ref_sc, 4.0, snr_normalization="total").bound
        per_pair = crb(ref_sc, 4.0, snr_normalization="per_pair").bound
        assert per_pair >= total

    def test_validation(self, ref_sc):
        with pytest.raises(ValueError, match="snr must be positive"):
            crb(ref_sc, 4.0, snr=0.0)
        with pytest.raises(ValueError, match="snr normalization"):
            crb(ref_sc, 4.0, snr_normalization="median")

    def test_flat_stencil_refused(self, ref_sc, monkeypatch):
        # a stencil whose second difference does not clear the curvature
        # floor is refused rather than returning a huge or infinite bound
        monkeypatch.setattr(estimator, "_CURVATURE_FLOOR", np.inf)
        with pytest.raises(ValueError,
                           match=r"non-concave stencil at R = 4\.0 m"):
            crb(ref_sc, 4.0)

    def test_overflowing_bound_refused(self, ref_sc):
        # at a subnormal snr the noise power signal_power / snr overflows,
        # and the bound was inf: refused, naming the first such range,
        # without an overflow warning
        with pytest.raises(ValueError,
                           match=r"bound at R = 4\.0 m overflows at snr"):
            crb(ref_sc, [4.0, 2.0], snr=1e-320)
        assert np.all(np.isfinite(crb(ref_sc, [4.0, 2.0], snr=1e-300).bound))

    @pytest.mark.parametrize("power", [300, -300])
    def test_power_of_two_gain_moves_no_bit(self, power):
        # each range's gains are scaled by a power of two: at a gain factor
        # of 2^+-300 the bound keeps every bit of the unit-factor one, and
        # the curvature is exactly 2^+-600 times it
        unit = crb(reference_scenario(), [2.0, 4.0])
        scaled = crb(reference_scenario(antenna_gain_factor=2.0 ** power),
                     [2.0, 4.0])
        assert np.array_equal(scaled.bound, unit.bound)
        assert np.array_equal(scaled.curvature,
                              np.ldexp(unit.curvature, 2 * power))

    @pytest.mark.parametrize("factor", [1e75, 1e-100])
    def test_extreme_gain_finite(self, ref_sc, factor):
        # J of the unscaled gains would over- or underflow here; the bound
        # does not depend on the gain factor, the curvature goes as its
        # square (7.85e12 g^2 at 4 m)
        got = crb(reference_scenario(antenna_gain_factor=factor), 4.0)
        want = crb(ref_sc, 4.0)
        assert got.bound == pytest.approx(want.bound, rel=1e-9)
        assert got.curvature == pytest.approx(want.curvature * factor ** 2,
                                              rel=1e-9)

    @pytest.mark.parametrize("factor, value", [
        (1e148, "inf"), (1e300, "inf"), (1e-165, r"7\.8\d*e-318"),
        (1e-300, "0")])
    def test_curvature_beyond_floats_refused(self, factor, value):
        # the curvature 7.85e12 g^2 overflows above g of about 4.8e147, is
        # subnormal (a few digits at most) below about 5.3e-161 and 0
        # below about 8e-169: refused, naming the range
        with pytest.raises(ValueError, match=(
                rf"curvature at R = 4\.0 m is {value}, not a normal float")):
            crb(reference_scenario(antenna_gain_factor=factor), 4.0)

    def test_tiny_plate_width_accurate(self, ref_sc):
        # the y argument Dy / sqrt(lambda r_s) is formed without Dy^2,
        # which is subnormal below Dy = 1e-154: for a plate this narrow
        # the gains go as Dy, so the bound does not depend on it and the
        # curvature goes as its square (9.8e-308 at 1e-161)
        wide = crb(reference_scenario(plate_width=1e-100), 4.0)
        got = crb(reference_scenario(plate_width=1e-161), 4.0)
        assert got.bound == pytest.approx(wide.bound, rel=1e-9)
        assert got.curvature == pytest.approx(wide.curvature * 1e-122,
                                              rel=1e-9)

    def test_tiny_plate_width_refused(self):
        # every gain is finite and nonzero, so the stencil is concave; the
        # curvature underflows to 0 and is refused as such
        with pytest.raises(ValueError, match=(
                r"curvature at R = 4\.0 m is 0, not a normal float")):
            crb(reference_scenario(plate_width=1e-300), 4.0)

    def test_bound_divides_by_curvature_first(self, ref_sc):
        # at snr 1e-315 the noise power would overflow, but the bound,
        # 5.3e-9 / 1e-315, is a finite float
        bound = crb(ref_sc, 2.0, snr=1e-315).bound
        assert np.isfinite(bound)
        assert bound == pytest.approx(crb(ref_sc, 2.0).bound / 1e-315,
                                      rel=1e-12)

    def test_wide_lattice_refused(self):
        # 128 antennas at 1 km spacing offset pairs by up to 63.5 km: the
        # delay lattice would be 42,418 bands of 17 nodes, 738 MB of
        # envelope coefficients. Refused before any node is built (under
        # 1 MB traced)
        sc = reference_scenario(n_antennas=128, spacing=1000.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "need a crb delay lattice of 42418 bands, more than "
                    f"{estimator._MAX_CRB_BANDS}")):
                crb(sc, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_lattice_budget_inclusive(self, monkeypatch):
        # the 1 GHz reference scene takes 4 bands: allowed at a budget of
        # 4, refused at 3
        sc = reference_scenario(bandwidth=1e9)
        monkeypatch.setattr(estimator, "_MAX_CRB_BANDS", 4)
        assert crb(sc, 4.0).curvature > 0
        monkeypatch.setattr(estimator, "_MAX_CRB_BANDS", 3)
        with pytest.raises(ValueError, match="of 4 bands, more than 3"):
            crb(sc, 4.0)

    @pytest.mark.parametrize("overrides", [
        {}, {"bandwidth": 1e9},
        {"carrier_freq": 5e9, "min_range_wavelengths": 10.0},
        {"carrier_freq": 1e9, "min_range_wavelengths": 1.0}])
    def test_stencil_step(self, overrides):
        # h = min(lambda/4, c/(80B)): lambda/4 = 0.97 mm at 77 GHz, c/(80B)
        # = 37.5 mm at 100 MHz and 3.7 mm at 1 GHz, lambda/4 = 15 mm at
        # 5 GHz and 75 mm at 1 GHz
        sc = reference_scenario(**overrides)
        stencil, h = estimator.crb_stencil(sc, [3.0, 4.0])
        assert h == min(sc.wavelength / 4.0,
                        299792458.0 / (80.0 * sc.bandwidth))
        assert np.array_equal(stencil, [[3.0 - h, 3.0, 3.0 + h],
                                        [4.0 - h, 4.0, 4.0 + h]])

    @pytest.mark.parametrize("overrides", [
        {"n_antennas": 1}, {"n_antennas": 4}, {}, {"plate_height": 0.5}])
    def test_stencil_objective_matches_loop(self, overrides):
        # crb correlates the synthesis in closed form; every stencil J,
        # unscaled by its exact power of two, must equal the per-pair loop
        # on the synthesized traces, and the signal powers the traces'
        # sample powers
        sc = reference_scenario(**overrides)
        ranges = np.array([3.3, 4.0])
        stencil, h = estimator.crb_stencil(sc, ranges)
        received = [synthesize(sc, true_range=R) for R in ranges]
        for coherence in ("coherent", "incoherent"):
            j, total, e = estimator._stencil_objective(sc, stencil, h,
                                                       coherence, "total")
            j = np.ldexp(j, 2 * e[:, None])
            total = np.ldexp(total, 2 * e)
            for i, rx in enumerate(received):
                for k in range(3):
                    slow = objective_loop(rx, sc, float(stencil[i, k]), True,
                                          coherence == "coherent")
                    assert j[i, k] == pytest.approx(slow, rel=1e-12)
        _, per_pair, e = estimator._stencil_objective(sc, stencil, h,
                                                      "coherent", "per_pair")
        per_pair = np.ldexp(per_pair, 2 * e)
        for i, rx in enumerate(received):
            power = np.abs(rx.traces) ** 2
            assert total[i] == pytest.approx(power.mean(), rel=1e-12)
            assert per_pair[i] == pytest.approx(power.mean(axis=1).max(),
                                                rel=1e-12)

    @pytest.mark.parametrize("coherence", ["coherent", "incoherent"])
    def test_array_matches_scalar(self, ref_sc, coherence):
        # one call over a 2-8 m line crossing a _RANGE_CHUNK boundary gives
        # each range the bound of a call at that range alone: the
        # envelope's Chebyshev nodes depend on the scene only, not on the
        # ranges that share a call
        ranges = np.linspace(2.0, 8.0, _RANGE_CHUNK + 3)
        line = crb(ref_sc, ranges, coherence=coherence,
                   snr_normalization="per_pair")
        assert np.array_equal(line.range, ranges)
        for i, R in enumerate(ranges):
            one = crb(ref_sc, float(R), coherence=coherence,
                      snr_normalization="per_pair")
            assert isinstance(one.bound, float)
            assert line.bound[i] == pytest.approx(one.bound, rel=1e-12)
            assert line.curvature[i] == pytest.approx(one.curvature,
                                                      rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {}, {"bandwidth": 1e9}, {"n_antennas": 4}])
    def test_curvature_matches_long_double(self, overrides):
        # against long-double sinc sums on the synthesis time base with the
        # oracle's closed-form gains. rel 2e-9 is about 4x the worst error
        # of the per-sample stencil the delay-space one replaced (4.6e-10
        # on these cases, 5.4e-10 over 13 ranges of 2-8 m)
        sc = reference_scenario(**overrides)
        ranges = [2.0, 4.0, 7.5]
        for coherence in ("coherent", "incoherent"):
            got = crb(sc, ranges, coherence=coherence).curvature
            h = estimator.crb_stencil(sc, 4.0)[1]
            for R, curvature in zip(ranges, got):
                want = stencil_curvature(sc, R, h, coherence == "coherent")
                assert curvature == pytest.approx(float(want), rel=2e-9)

    def test_non_concave_names_first_range(self, ref_sc, monkeypatch):
        # the coherent second difference relative to J is 1.1e-3 at 3 m,
        # 6.3e-5 at 6 m and 2.1e-5 at 8 m: under a 2e-4 floor the line
        # fails as a whole, naming the first refused range, in the chunk
        # after the first
        monkeypatch.setattr(estimator, "_CURVATURE_FLOOR", 2e-4)
        ranges = np.r_[np.full(_RANGE_CHUNK + 1, 3.0), 6.0, 8.0]
        with pytest.raises(ValueError,
                           match=r"non-concave stencil at R = 6\.0 m"):
            crb(ref_sc, ranges)
        crb(ref_sc, ranges[:-2])

    def test_array_validation(self, ref_sc):
        with pytest.raises(ValueError, match="1-D array"):
            crb(ref_sc, np.full((2, 2), 4.0))
        with pytest.raises(ValueError, match="unknown coherence"):
            crb(ref_sc, 4.0, coherence="semi")
        # the first refused hypothesis is 0.301 - h = 0.300027 m, h the
        # lambda/4 step
        with pytest.raises(ValueError,
                           match=r"0\.300027 m below validity floor"):
            crb(ref_sc, [4.0, 0.301, 0.2])

    def test_one_gain_block_per_range_chunk(self, ref_sc, monkeypatch):
        # Fresnel work per hypothesis is the y factor of the 13 distinct
        # |d| and the two z edges of the 49 geometries (not 169 pairs), in
        # two blocks per _RANGE_CHUNK ranges of the stencil; the envelope
        # is one (K, 128) block of Chebyshev nodes per call, whatever the
        # ranges: 13 nodes on the reference scene's one band, 17 on each
        # of 4 bands at 1 GHz bandwidth
        fresnel_shapes, envelope_shapes = [], []

        def fresnel_recording(x):
            fresnel_shapes.append(np.shape(x))
            return fresnel_conj(x)

        def envelope_recording(w, t, delay):
            out = waveform_value(w, t, delay)
            envelope_shapes.append(out.shape)
            return out

        monkeypatch.setattr(em_spa, "fresnel_conj", fresnel_recording)
        monkeypatch.setattr(estimator, "waveform_value", envelope_recording)
        crb(ref_sc, 3.5 + 0.01 * np.arange(_RANGE_CHUNK + 4),
            coherence="incoherent")
        assert fresnel_shapes == [(13, _RANGE_CHUNK, 3),
                                  (2, 49, _RANGE_CHUNK, 3),
                                  (13, 4, 3), (2, 49, 4, 3)]
        assert envelope_shapes == [(13, 128)]
        envelope_shapes.clear()
        crb(ref_sc, 4.0)
        crb(reference_scenario(bandwidth=1e9), [2.0, 8.0])
        assert envelope_shapes == [(13, 128), (4 * 17, 128)]

    def test_carrier_once_per_delay_group(self, ref_sc, monkeypatch):
        # the carrier, 1/r_s, the y factor, the z scale and the delay are
        # evaluated once per distinct |d|, 13 rows on the reference scene,
        # not per (|z_s|, |d|) geometry (49) or pair (169): one carrier
        # call per crb range chunk, one per closed-form synthesis
        shapes = []

        def cis_recording(theta):
            shapes.append(np.shape(theta))
            return cis(theta)

        monkeypatch.setattr(em_spa, "cis", cis_recording)
        crb(ref_sc, 3.5 + 0.01 * np.arange(_RANGE_CHUNK + 4))
        assert shapes == [(13, _RANGE_CHUNK, 3), (13, 4, 3)]
        shapes.clear()
        spa_received_signal(ref_sc)
        assert shapes == [(13,)]
