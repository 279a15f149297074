import re
import tracemalloc

import numpy as np
import pytest

from nfradar import em_exact
from nfradar import (
    exact_received_signal,
    reference_scenario,
    synthesize,
)
from nfradar.scenario import SPEED_OF_LIGHT, antenna_positions
from nfradar.signal import sample_times
from nfradar.special_fn import phase_node_count

from oracles import exact_line, exact_pair, pair_integrand

# 2 GHz keeps the brute-force oracle cheap: about 18,000 plate nodes
SMALL = dict(carrier_freq=2e9, min_range_wavelengths=20.0)


def amp_db(a, b):
    return abs(20 * np.log10(abs(a) / abs(b)))


def phase_deg(a, b):
    d = np.angle(a) - np.angle(b)
    return abs(np.degrees((d + np.pi) % (2 * np.pi) - np.pi))


def plate_term(scenario, tx_z, rx_z, y, z):
    """(path r_tx + r_rx, g e^{j psi} of the carrier wave) of the
    pair (tx_z, rx_z) at the plate point (y, z), from the per-antenna
    factors the quadrature sums and their path excesses r - R, with the
    phase e^{-2jkR} that each plate sum takes once."""
    R, k = scenario.range, scenario.wavenumber
    geometry = em_exact._antenna_geometry(R, np.array([tx_z, rx_z]), y * y, z)
    a, b = em_exact._antenna_factors(k, geometry)
    excess = geometry[0]
    return (excess[0] + excess[1] + 2.0 * R,
            a[0] * b[1] * np.exp(-2j * R * k))


class TestIntegrand:
    # the integrand is g * exp(j psi) with psi = -k (r_tx + r_rx), so
    # dividing out that phase leaves the amplitude g

    def test_specular_amplitude_is_R_over_r_cubed(self, ref_sc):
        # pins the direction-cosine convention: at the specular point of
        # any pair the product of cosines collapses to R^2/r^2 and the
        # amplitude to R/r^3
        path, u = plate_term(ref_sc, 0.0, 0.0, 0.0, 0.0)
        psi = -ref_sc.wavenumber * path
        assert psi == -2.0 * ref_sc.wavenumber * 4.0
        assert u * np.exp(-1j * psi) == pytest.approx(0.0625, rel=1e-15)

    def test_specular_amplitude_bistatic(self, ref_sc):
        r = np.sqrt(16.5625)
        path, u = plate_term(ref_sc, -0.75, 0.75, 0.0, 0.0)
        psi = -ref_sc.wavenumber * path
        assert psi == pytest.approx(-ref_sc.wavenumber * 2 * r, rel=1e-15)
        assert u * np.exp(-1j * psi) == pytest.approx(4.0 / r**3, rel=1e-14)

    def test_phase_peaks_at_specular(self, ref_sc):
        # psi = -k (r + r') is maximal where the path is shortest
        k = ref_sc.wavenumber
        psi0 = -k * plate_term(ref_sc, 0.0, 0.0, 0.0, 0.0)[0]
        for y, z in [(0.1, 0.0), (0.0, 0.2), (-0.3, -0.5)]:
            assert -k * plate_term(ref_sc, 0.0, 0.0, y, z)[0] < psi0

    def test_parts_reassemble(self, ref_sc):
        # amplitude rebuilt from the direction cosines written out:
        # (R / r_tx) (rho_rx^2 / r_rx^2) / (r_tx r_rx)
        tx_z, rx_z = -0.625, -0.25
        y, z = 0.1, -0.3
        r_tx = np.sqrt(16.0 + y * y + (z - tx_z) ** 2)
        rho_rx_sq = 16.0 + (z - rx_z) ** 2
        r_rx = np.sqrt(rho_rx_sq + y * y)
        g = (4.0 / r_tx) * (rho_rx_sq / r_rx**2) / (r_tx * r_rx)
        path, u = plate_term(ref_sc, tx_z, rx_z, y, z)
        assert path == pytest.approx(r_tx + r_rx, rel=1e-15)
        assert u == pytest.approx(
            g * np.exp(-1j * ref_sc.wavenumber * (r_tx + r_rx)), rel=1e-12)

    def test_stationary_point_on_grid(self, ref_sc_10ghz):
        # the sampled phase attains its maximum at the grid cell holding
        # the specular point
        gy = np.linspace(-0.4, 0.4, 41)
        gz = np.linspace(-0.875, 0.875, 71)
        path, _ = plate_term(ref_sc_10ghz, 0.0, 0.0, gy[None, :],
                             gz[:, None])
        psi = -ref_sc_10ghz.wavenumber * path
        iz, iy = np.unravel_index(np.argmax(psi), psi.shape)
        assert abs(gy[iy] - 0.0) <= gy[1] - gy[0]
        assert abs(gz[iz] - 0.0) <= gz[1] - gz[0]


# scenes at 2 GHz where the branch points of r at distance R from the plate
# set the node count: R at half a wavelength before a plate wider than
# tall (81 y and 27 z nodes, where the phase span alone gives 32 and 18),
# and the same R before a plate taller than wide (30 and 79, against 18
# and 33)
BRANCH = {"n_antennas": 2, "plate_width": 0.6, "plate_height": 0.2,
          "range": 0.075, "min_range_wavelengths": 0.5}
TALL = {"n_antennas": 2, "plate_width": 0.2, "plate_height": 0.6,
        "range": 0.075, "min_range_wavelengths": 0.5}
# plates much wider than R, where the phase span sets many y nodes: 93 on
# a 3 m plate and 166 on a 6 m plate
WIDE = {"n_antennas": 2, "plate_width": 3.0, "plate_height": 0.5,
        "range": 0.4, "min_range_wavelengths": 2.0}
WIDE6 = {"n_antennas": 2, "plate_width": 6.0, "range": 0.4,
         "min_range_wavelengths": 2.0}
# a plate a wavelength and a third wide: 7 y nodes
NARROW = {"n_antennas": 4, "plate_width": 0.2}


def assert_line_rule(sc, axis, ats, line_sum, tol):
    """line_sum(z_tx, z_rx, at), a rule's integral of the pair integrand
    along the plate axis "y" or "z" with the other coordinate at `at`, is
    within tol of the largest converged line integral (oracles.exact_line)
    at each of ats, for every pair with the first antenna as tx and every
    monostatic pair."""
    z_ant = antenna_positions(sc)
    pairs = [(z_ant[0], b) for b in z_ant] + [(a, a) for a in z_ant[1:]]
    for at in ats:
        want = np.array([exact_line(sc, a, b, axis, at) for a, b in pairs])
        got = np.array([line_sum(a, b, at) for a, b in pairs])
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestExactReceivedSignal:
    @pytest.mark.parametrize("overrides, sampled", [
        (overrides, sampled) for sampled in (False, True) for overrides in (
            {"n_antennas": 1},
            # 14 and 13 y nodes: the fold without and with a middle node
            {"n_antennas": 4},
            {"n_antennas": 4, "plate_width": 0.76},
            # the z fold: an odd array, whose middle element is its own
            # mirror, with 27 z nodes and so a middle row at z = 0
            {"n_antennas": 3},
            {"n_antennas": 4, "plate_height": 1.7},
            # specular points of the outer pairs off the plate
            {"n_antennas": 4, "spacing": 0.25, "plate_height": 0.5},
            # a 1 mm plate: 4 y nodes, 2 folded
            {"n_antennas": 4, "plate_width": 1e-3},
            WIDE, BRANCH, TALL, WIDE6, NARROW)
    ], ids=[name + suffix for suffix in ("", "-sinc") for name in (
        "n1", "even-y", "odd-y", "odd-n", "even-z", "off-plate", "no-width",
        "wide", "branch", "tall", "wide-6m", "narrow")])
    def test_matches_oracle(self, overrides, sampled):
        # every pair, in tx-major rows, against the converged brute-force
        # per-pair plate sum; sampled traces relative to each pair's peak,
        # on windows of +-8/B and +-40/B about the round trip (the
        # frequency rule takes 33 and 96 nodes for 13 antennas on the
        # reference plate). The 6 m plate is the worst, at 8.2e-13; the
        # others are within 2.2e-14
        sc = reference_scenario(**{**SMALL, **overrides})
        if sampled:
            windows = [2.0 * sc.range / SPEED_OF_LIGHT
                       + np.linspace(-h, h, 17) / sc.bandwidth
                       for h in (8.0, 40.0)]
        else:
            windows = [None]  # the carrier wave
        n = sc.n_antennas
        z = [(l - (n - 1) / 2.0) * sc.spacing for l in range(n)]
        for t in windows:
            got = exact_received_signal(sc, t)
            assert got.shape == (n * n,) + np.shape(t)
            for p in range(n * n):
                want = (exact_pair(sc, z[p // n], z[p % n], t, sc.bandwidth)
                        if sampled else
                        exact_pair(sc, z[p // n], z[p % n], 0.0))
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[p] - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("overrides, counts, phase", [
        ({"carrier_freq": 10e9}, (26, 103), (26, 103)),
        ({"carrier_freq": 24e9}, (43, 210), (43, 210)),
        ({}, (97, 597), (97, 597)),
        ({**SMALL, **BRANCH}, (81, 27), (32, 18)),
        ({**SMALL, **TALL}, (30, 79), (18, 33)),
        ({**SMALL, **WIDE6}, (166, 61), (166, 61)),
    ], ids=["10g", "24g", "77g", "branch", "tall", "wide-6m"])
    def test_node_counts(self, overrides, counts, phase):
        # M = (K + 1) // 2 + 1 Gauss-Legendre nodes per axis, K from the
        # pair phase span over the axis or, where R is small against the
        # plate, the branch points of r; phase gives the counts of the
        # phase span alone
        sc = reference_scenario(**overrides)
        assert em_exact.plate_node_counts(sc) == counts
        k, R = sc.wavenumber, sc.range
        half_y, half_z = sc.plate_width / 2.0, sc.plate_height / 2.0
        m = half_z + np.max(np.abs(antenna_positions(sc)))
        assert tuple((phase_node_count(s) + 1) // 2 + 1 for s in (
            4.0 * k * half_y ** 2 / np.hypot(R, half_y),
            4.0 * k * half_z * m / np.hypot(R, m))) == phase

    @pytest.mark.parametrize("overrides, tol", [
        (SMALL, 1e-12), ({**SMALL, **WIDE}, 1e-12),
        ({**SMALL, **BRANCH}, 1e-12), ({**SMALL, **TALL}, 1e-12),
        ({**SMALL, **WIDE6}, 1e-12), ({**SMALL, **NARROW}, 1e-12),
        ({"carrier_freq": 10e9}, 1e-12), ({}, 1e-12),
    ], ids=["small", "wide", "branch", "tall", "wide-6m", "narrow", "10g",
            "77g"])
    def test_y_nodes(self, overrides, tol):
        # the folded y rule on its own integrates the pair integrand along
        # y, on the centre line z = 0, at the outer antenna and at the
        # plate's edge, within 1e-12 of the converged line integrals (the
        # 6 m plate is the worst, at 7.6e-13; 77 GHz is at 2.0e-13). The
        # integrand is even in y, so the folded half is the whole rule
        sc = reference_scenario(**overrides)
        (y, y_w), _ = em_exact._plate_rule(sc, sc.wavenumber)
        assert y.size == (em_exact.plate_node_counts(sc)[0] + 1) // 2
        assert_line_rule(
            sc, "y", (0.0, antenna_positions(sc)[-1], sc.plate_height / 2.0),
            lambda a, b, at: np.sum(y_w * pair_integrand(sc, a, b, y, at)[1]),
            tol)

    @pytest.mark.parametrize("overrides, tol", [
        (SMALL, 1e-12), ({**SMALL, "n_antennas": 1}, 1e-12),
        ({**SMALL, "n_antennas": 3}, 1e-12), ({**SMALL, **WIDE}, 1e-12),
        ({**SMALL, **BRANCH}, 1e-12), ({**SMALL, **TALL}, 1e-12),
        ({**SMALL, **WIDE6}, 1e-12), ({**SMALL, **NARROW}, 1e-12),
        ({"carrier_freq": 10e9}, 1e-12), ({}, 1e-12),
    ], ids=["small", "n1", "odd-n", "wide", "branch", "tall", "wide-6m",
            "narrow", "10g", "77g"])
    def test_z_nodes(self, overrides, tol):
        # the folded z rule, completed by the mirror identity (a pair's
        # z < 0 half is its integrand at -z), integrates the pair
        # integrand along z, on the centre line y = 0, a quarter across
        # and at the plate's edge, within 1e-12 of the converged line
        # integrals (77 GHz at 1.4e-13). n1 takes 13 folded nodes and
        # odd-n 14, with a middle node at z = 0 counted once
        sc = reference_scenario(**overrides)
        _, (z, z_w) = em_exact._plate_rule(sc, sc.wavenumber)
        assert z.size == (em_exact.plate_node_counts(sc)[1] + 1) // 2
        half = sc.plate_width / 2.0

        def line_sum(a, b, at):
            upper = pair_integrand(sc, a, b, at, z)[1]
            lower = pair_integrand(sc, a, b, at, -z)[1]
            return np.sum(z_w * (upper + lower)) / 2.0

        assert_line_rule(sc, "z", (0.0, half / 2.0, half), line_sum, tol)

    def test_block_bound(self, ref_sc_10ghz, monkeypatch):
        # the reference plate is summed over its quarter: 52 z x 13 y
        # folded nodes at 10 GHz and 299 x 49 at 77 GHz, in blocks of
        # whole z rows of at most _BLOCK_NODES values (antennas x y
        # nodes). The carrier wave is one plate sum; the sinc on
        # synthesize's +-16/B window takes 51, at the counts of the band's
        # top wavenumber (52 x 14 at 10 GHz), each block's geometry once
        # and its factors once per frequency node
        shapes, factor_shapes = [], []
        geometry = em_exact._antenna_geometry
        factors = em_exact._antenna_factors

        def recording(*args):
            out = geometry(*args)
            shapes.append(out[0].shape)
            return out

        def recording_factors(*args):
            out = factors(*args)
            factor_shapes.append(out[0].shape)
            return out

        def blocks(n_rows, y_nodes):
            rows = em_exact._BLOCK_NODES // (13 * y_nodes)
            full, tail = divmod(n_rows, rows)
            return [(13, b, y_nodes)
                    for b in [rows] * full + ([tail] if tail else [])]

        monkeypatch.setattr(em_exact, "_antenna_geometry", recording)
        monkeypatch.setattr(em_exact, "_antenna_factors", recording_factors)
        exact_received_signal(ref_sc_10ghz)
        assert shapes == factor_shapes == blocks(52, 13) == [(13, 52, 13)]
        shapes.clear()
        factor_shapes.clear()
        exact_received_signal(reference_scenario())
        assert shapes == factor_shapes == blocks(299, 49)
        assert max(np.prod(s) for s in shapes) <= em_exact._BLOCK_NODES
        shapes.clear()
        factor_shapes.clear()
        synthesize(ref_sc_10ghz, backend="exact")
        assert shapes == blocks(52, 14)
        assert factor_shapes == [s for s in blocks(52, 14) for _ in range(51)]

    @pytest.mark.parametrize("overrides, tol", [
        ({"carrier_freq": 10e9}, 1e-12), ({"carrier_freq": 24e9}, 1e-12),
        ({}, 1e-12),
        ({**SMALL, **BRANCH}, 1e-12), ({**SMALL, **TALL}, 1e-12),
        ({**SMALL, **WIDE6}, 1e-12),
        # test_matches_oracle's other scenes
        ({**SMALL, "n_antennas": 1}, 1e-12),
        ({**SMALL, "n_antennas": 4}, 1e-12),
        ({**SMALL, "n_antennas": 4, "plate_width": 0.76}, 1e-12),
        ({**SMALL, "n_antennas": 3}, 1e-12),
        ({**SMALL, "n_antennas": 4, "plate_height": 1.7}, 1e-12),
        ({**SMALL, "n_antennas": 4, "spacing": 0.25, "plate_height": 0.5},
         1e-12),
        ({**SMALL, **WIDE}, 1e-12), ({**SMALL, **NARROW}, 1e-12),
    ], ids=["10g", "24g", "77g", "branch", "tall", "wide-6m", "n1", "even-y",
            "odd-y", "odd-n", "even-z", "off-plate", "wide", "narrow"])
    def test_node_rule_converged(self, overrides, tol, monkeypatch):
        # a quarter more nodes along y, then along z, moves no pair by
        # more than tol of the scene's largest pair: 1e-12 (the 6 m plate
        # is the worst, at 8.2e-13). The factors round the phases of the
        # path excess k (r - R), so at 77 GHz one to 597 added z nodes
        # move no pair by more than 2.5e-13
        sc = reference_scenario(**overrides)
        u = exact_received_signal(sc)
        counts = em_exact.plate_node_counts(sc)
        for axis in (0, 1):
            more = list(counts)
            more[axis] += counts[axis] // 4 + 1
            monkeypatch.setattr(em_exact, "plate_node_counts",
                                lambda scenario, k=None: tuple(more))
            denser = exact_received_signal(sc)
            assert np.max(np.abs(u - denser)) <= tol * np.max(np.abs(u))

    @pytest.mark.parametrize("overrides, plate, axis", [
        ({"range": 1e-3}, "0.8 x 1.75 m plate at range 0.001", "y"),
        ({"range": 1e-3, "plate_width": 2e-3},
         "0.002 x 1.75 m plate at range 0.001", "z"),
        ({"plate_width": 4.8}, "4.8 x 1.75 m plate at range 4.0", "y"),
        ({"plate_height": 100.0}, "0.8 x 100 m plate at range 4.0", "z"),
    ], ids=["branch-y", "branch-z", "phase-y", "phase-z"])
    def test_refuses_plate_over_budget(self, overrides, plate, axis):
        # at R = 1 mm before the reference plate the branch points of r
        # would ask for 7,830 y and 17,127 z nodes, and gauss_legendre
        # for 0.59 GB (8,564 x 8,564) matrices at each Newton step of the
        # z rule; on a 2 mm wide plate only z is over the budget. A 4.8 m
        # wide plate's phase span takes about 2,090 y nodes, and a 100 m
        # tall plate's far more. Each plate is refused, naming the range,
        # the plate and the axis, before any node or factor array is built
        # (under 1 MB traced)
        sc = reference_scenario(**overrides, min_range_wavelengths=0.0)
        for t in (None, 2.0 * sc.range / SPEED_OF_LIGHT):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=re.escape(
                        f"the {plate} m needs more than "
                        f"{em_exact._MAX_AXIS_NODES} quadrature nodes "
                        f"along {axis}")):
                    exact_received_signal(sc, t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("span, decay", [
        (7950.0, 1.0), (8192.0, 1.0), (8192.5, 1.0), (1e300, 1.0),
        (1.0, 0.0095), (1.0, 0.00956), (1.0, 0.00957), (1.0, 1e-300),
        (1.0, 0.0),
    ])
    def test_axis_count_budget_bound(self, span, decay):
        # the two shortcuts past the budget (a span over 4 x 2,048, a
        # decay under ln(1/NODE_TOL) / (2 x 2,048)) answer exactly where
        # the full count would exceed _MAX_AXIS_NODES too: 7,950 and 8,192
        # take 2,088 and 2,150 nodes by the full count, decays near
        # 0.00956 cross the budget between them
        limit = em_exact._MAX_AXIS_NODES
        got = em_exact._axis_count(span, decay)
        if decay == 0.0 or span > 1e6:
            assert got == limit + 1
            return
        k = max(phase_node_count(span),
                int(np.ceil(-np.log(em_exact.NODE_TOL) / decay)))
        want = (k + 1) // 2 + 1
        assert (got > limit) == (want > limit)
        if want <= limit or got <= limit:
            assert got == want

    def test_sinc_counts_at_band_top(self, monkeypatch):
        # the sinc is a quadrature over its band of carrier-wave plate
        # sums at the wavenumbers k + pi B x / c, so the node counts are
        # set once, at the band's top k + pi B / c (14 y and 28 z nodes
        # here, where the carrier alone gives 14 and 27), and a delayed
        # waveform is never evaluated
        sc = reference_scenario(n_antennas=3, **SMALL)
        top = sc.wavenumber + np.pi * sc.bandwidth / SPEED_OF_LIGHT
        counts, blocks, ks = [], [], []
        count = em_exact.plate_node_counts
        geometry = em_exact._antenna_geometry
        factors = em_exact._antenna_factors

        def counting(scenario, k=None):
            out = count(scenario, k)
            counts.append((k, out))
            return out

        def recording(*args):
            blocks.append((np.size(args[2]), np.size(args[3])))
            return geometry(*args)

        def recording_factors(k, *args):
            ks.append(k)
            return factors(k, *args)

        def refused(*args):
            raise AssertionError("exact synthesis evaluated a waveform")

        monkeypatch.setattr(em_exact, "plate_node_counts", counting)
        monkeypatch.setattr(em_exact, "_antenna_geometry", recording)
        monkeypatch.setattr(em_exact, "_antenna_factors", recording_factors)
        monkeypatch.setattr(em_exact, "waveform_value", refused)
        synthesize(sc, backend="exact")
        assert counts == [(pytest.approx(top, rel=1e-15), (14, 28))]
        assert count(sc) == (14, 27)
        # one block of all 14 z rows x 7 y nodes, its factors at 50
        # frequency nodes symmetric about the carrier (51 for 13 antennas,
        # whose delays spread wider)
        ks = np.array(ks)
        assert blocks == [(7, 14)]
        assert ks.size == 50 and np.all(np.diff(ks) > 0)
        assert np.allclose(ks + ks[::-1], 2 * sc.wavenumber,
                           rtol=1e-15, atol=0)
        assert ks[-1] < top
        _, offsets, _ = em_exact._frequency_rule(
            reference_scenario(), sample_times(reference_scenario(), 4.0))
        assert offsets.size == 51

    @pytest.mark.parametrize("n", [4, 13])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_mirror_pairs_bitwise(self, n, sampled):
        # pair (l, l') and pair (N-1-l, N-1-l') see the plate mirrored in
        # z, so their signals agree to the bit
        sc = reference_scenario(n_antennas=n, **SMALL)
        if sampled:
            t = 2.0 * sc.range / 299792458.0 + np.array([-3e-9, 0.0, 4e-9])
        else:
            t = None  # the carrier wave
        u = exact_received_signal(sc, t).reshape((n, n) + np.shape(t))
        assert np.array_equal(u, u[::-1, ::-1])

    def test_sample_times_bitwise(self):
        # one call over many sample times matches a call at each time
        # alone within 1e-14 of the trace peak (each call's frequency rule
        # covers its own times), and repeats its own bits
        sc = reference_scenario(n_antennas=3, **SMALL)
        t = 2.0 * sc.range / 299792458.0 + np.array([-3e-9, 0.0, 4e-9])
        u = exact_received_signal(sc, t)
        assert np.array_equal(u, exact_received_signal(sc, t))
        peak = np.max(np.abs(u))
        for j, tj in enumerate(t):
            alone = exact_received_signal(sc, tj)
            assert np.max(np.abs(u[:, j] - alone)) <= 1e-14 * peak

    def test_empty_times(self):
        sc = reference_scenario(n_antennas=3, **SMALL)
        assert exact_received_signal(sc, np.empty(0)).shape == (9, 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_times(self, bad):
        # the sinc used to return NaN traces for these, with warnings
        sc = reference_scenario(n_antennas=1, **SMALL)
        with pytest.raises(ValueError, match="must be finite"):
            exact_received_signal(sc, np.array([0.0, bad]))

    def test_refuses_far_times(self):
        # the frequency rule takes about pi/2 nodes per 1/B between a time
        # and the plate's delays (462 just inside the bound), so under the
        # sinc a time more than 256/B from them is refused and named
        # (synthesize's window is +-16/B)
        sc = reference_scenario(n_antennas=1, **SMALL)
        near = 2.0 * sc.range / SPEED_OF_LIGHT
        far = 2.0 * np.hypot(4.0, np.hypot(0.4, 0.875)) / SPEED_OF_LIGHT
        for t in (near - 257.0 / sc.bandwidth, far + 257.0 / sc.bandwidth):
            with pytest.raises(ValueError, match=re.escape(repr(float(t)))):
                exact_received_signal(sc, np.array([near, t]))
        inside = np.array([near - 255.0 / sc.bandwidth,
                           far + 255.0 / sc.bandwidth])
        assert np.all(np.isfinite(exact_received_signal(sc, inside)))

    def test_rejects_2d_times(self):
        sc = reference_scenario(n_antennas=1, **SMALL)
        with pytest.raises(ValueError, match="1-D"):
            exact_received_signal(sc, np.zeros((2, 2)))

    @pytest.mark.parametrize("key, counts", [
        ("plate_width", (3, 103)), ("plate_height", (26, 3))])
    def test_tiny_plate(self, key, counts):
        # a 1 um plate side takes the fewest nodes and runs with no
        # overflow, division by 0 or invalid value; its return is finite
        # and nonzero
        sc = reference_scenario(carrier_freq=10e9, **{key: 1e-6})
        assert em_exact.plate_node_counts(sc) == counts
        with np.errstate(all="raise"):
            u = exact_received_signal(sc)
            t = synthesize(sc, backend="exact").traces
        assert np.all(np.isfinite(u)) and np.all(u != 0.0)
        assert np.all(np.isfinite(t))

    def test_doubles_with_gain_factor(self, ref_sc_10ghz):
        # the return is linear in the gain factor g: g -> 2g doubles it,
        # bit for bit, since a factor of 2 is exact
        sc = reference_scenario(carrier_freq=10e9, antenna_gain_factor=2.0)
        assert np.array_equal(exact_received_signal(sc),
                              2.0 * exact_received_signal(ref_sc_10ghz))

    def test_reciprocity(self, ref_sc_10ghz):
        u = exact_received_signal(ref_sc_10ghz).reshape(13, 13)
        assert amp_db(u[0, 5], u[5, 0]) <= 0.1
        assert phase_deg(u[0, 5], u[5, 0]) <= 1.0
        assert np.max(amp_db(u, u.T)) <= 0.1
        assert np.max(phase_deg(u, u.T)) <= 1.0

    def test_frequency_rule_converged(self):
        # a time 23.9/B before the round trip widens the span the frequency
        # rule covers and takes it from 50 to 66 nodes; the traces at
        # synthesize's times move by no more than 1e-14 of the peak (5e-15
        # here; with 8 nodes fewer than the rule they are 9.5e-13 off)
        sc = reference_scenario(**{**SMALL, **BRANCH})
        t = sample_times(sc, sc.range)
        wider = np.append(t, t[0] - 7.9 / sc.bandwidth)
        assert [em_exact._frequency_rule(sc, x)[1].size
                for x in (t, wider)] == [50, 66]
        u = exact_received_signal(sc, t)
        more = exact_received_signal(sc, wider)[:, :-1]
        assert np.max(np.abs(u - more)) <= 1e-14 * np.max(np.abs(u))

    def test_sinc_at_77ghz(self):
        # the paper's carrier on a 0.1 x 0.25 m plate, every fourth sample
        # of synthesize's window, against the converged brute-force sum
        # for the centre pair (6, 6) and the weak pairs (0, 0) and
        # (10, 11), whose specular points are off the plate. The tolerance
        # is relative to the scene's largest trace peak (the three pairs
        # are within 1.6e-13 of it): relative to its own peak the weak
        # (10, 11) is 2.3e-13 off
        sc = reference_scenario(plate_width=0.1, plate_height=0.25)
        t = sample_times(sc, sc.range)[::4]
        assert t.size == 32
        got = exact_received_signal(sc, t)
        peak = np.max(np.abs(got))
        z = antenna_positions(sc)
        for p in (0, 84, 141):
            want = exact_pair(sc, z[p // 13], z[p % 13], t, sc.bandwidth)
            assert np.max(np.abs(got[p] - want)) <= 1e-12 * peak

    def test_off_plate_specular_point_drops(self):
        # pair with z_s = -0.75: on the full plate the specular point is
        # interior, on a halved plate (edge at 0.4375) it is outside and
        # only edge diffraction remains
        sc_on = reference_scenario(carrier_freq=24e9)
        sc_off = reference_scenario(carrier_freq=24e9, plate_height=0.875)
        assert antenna_positions(sc_on)[0] == -0.75  # row 0: pair (0, 0)
        u_on = exact_received_signal(sc_on)[0]
        u_off = exact_received_signal(sc_off)[0]
        assert 20 * np.log10(abs(u_on) / abs(u_off)) >= 20.0

    def test_deterministic(self, ref_sc_10ghz):
        u1 = exact_received_signal(ref_sc_10ghz)
        u2 = exact_received_signal(ref_sc_10ghz)
        assert np.array_equal(u1, u2)
