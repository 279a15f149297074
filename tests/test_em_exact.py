import re

import numpy as np
import pytest

from nfradar import em_exact
from nfradar import (
    QuadratureSpec,
    WaveformRef,
    exact_received_signal,
    reference_scenario,
    synthesize,
)
from nfradar.scenario import SPEED_OF_LIGHT, antenna_positions
from nfradar.signal import sample_times
from nfradar.special_fn import chebyshev_node_count, phase_node_count

from oracles import exact_pair

CONST = WaveformRef.constant()
# 2 GHz keeps the brute-force oracle cheap: about 6,000 plate nodes
SMALL = dict(carrier_freq=2e9, min_range_wavelengths=20.0)


def amp_db(a, b):
    return abs(20 * np.log10(abs(a) / abs(b)))


def phase_deg(a, b):
    d = np.angle(a) - np.angle(b)
    return abs(np.degrees((d + np.pi) % (2 * np.pi) - np.pi))


def plate_term(scenario, tx_z, rx_z, y, z):
    """(path r_tx + r_rx, g e^{j psi} under the constant waveform) of the
    pair (tx_z, rx_z) at the plate point (y, z), from the per-antenna
    factors the quadrature sums."""
    r, a, b = em_exact._antenna_factors(scenario.range, scenario.wavenumber,
                                        np.array([tx_z, rx_z]), y * y, z)
    return r[0] + r[1], a[0] * b[1]


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


class TestQuadratureSpec:
    def test_density_floor(self):
        with pytest.raises(ValueError, match="at least 4"):
            QuadratureSpec(points_per_wavelength=3.9)

    @pytest.mark.parametrize("points", [np.nan, np.inf, -np.inf])
    def test_density_not_finite(self, points):
        # NaN and inf used to pass and fail later inside _axis_nodes
        with pytest.raises(ValueError, match="must be finite"):
            QuadratureSpec(points_per_wavelength=points)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            QuadratureSpec(rule="simpson")


def center_row(scenario):
    m = (scenario.n_antennas - 1) // 2
    return m * scenario.n_antennas + m


# constant-waveform scenes whose y form needs many nodes, at 2 GHz: a plate
# much wider than R near a lowered floor, where the phase span sets K (93
# of 401 y nodes), and R at half a wavelength under dense sampling, where
# the branch point of r sets it (80 of 320; the phase span alone gave 35
# nodes and errors of 2.7e-11)
WIDE = {"n_antennas": 2, "plate_width": 3.0, "plate_height": 0.5,
        "range": 0.4, "min_range_wavelengths": 2.0}
BRANCH = {"n_antennas": 2, "plate_width": 0.6, "plate_height": 0.2,
          "range": 0.075, "min_range_wavelengths": 0.5}
# the same R on a plate three times taller than wide, where the branch
# points of r in z set K_z (72 of 321 z rows; the phase span alone gave 31
# nodes and sums 3.2e-11 off)
TALL = {"n_antennas": 2, "plate_width": 0.2, "plate_height": 0.6,
        "range": 0.075, "min_range_wavelengths": 0.5}
# a 6 m plate at R = 0.4 m: K = 179 of 201 y nodes, so the direct sum runs
WIDE6 = {"n_antennas": 2, "plate_width": 6.0, "range": 0.4,
         "min_range_wavelengths": 2.0}
# 3 y nodes at 4 points per wavelength, fewer than K
NARROW = {"n_antennas": 4, "plate_width": 0.2}


class TestExactReceivedSignal:
    @pytest.mark.parametrize("overrides, rule, sampled, points", [
        ({"n_antennas": 1}, "midpoint", False, 10.0),
        # 54 and 51 y nodes: the fold with and without a middle node
        ({"n_antennas": 4}, "midpoint", False, 10.0),
        ({"n_antennas": 4, "plate_width": 0.76}, "midpoint", False, 10.0),
        # 15 Gauss-Legendre panels in z: the middle one straddles z = 0
        ({"n_antennas": 4}, "gauss_legendre_composite", False, 10.0),
        ({"n_antennas": 4, "plate_width": 0.76}, "midpoint", True, 10.0),
        ({"n_antennas": 4}, "gauss_legendre_composite", True, 10.0),
        # the z fold: an odd array, whose middle element is its own mirror;
        # 114 z rows, with no middle row; 16 z panels, with z = 0 on a
        # panel edge
        ({"n_antennas": 3}, "midpoint", False, 10.0),
        ({"n_antennas": 3}, "midpoint", True, 10.0),
        ({"n_antennas": 4, "plate_height": 1.7}, "midpoint", False, 10.0),
        ({"n_antennas": 4, "plate_height": 1.7}, "midpoint", True, 10.0),
        ({"n_antennas": 4, "plate_height": 1.85},
         "gauss_legendre_composite", False, 10.0),
        # specular points of the outer pairs off the plate
        ({"n_antennas": 4, "spacing": 0.25, "plate_height": 0.5},
         "midpoint", False, 10.0),
        ({"n_antennas": 4, "spacing": 0.25, "plate_height": 0.5},
         "gauss_legendre_composite", True, 10.0),
        ({"n_antennas": 4, "plate_width": 0.0}, "midpoint", False, 10.0),
        ({"n_antennas": 4, "plate_width": 0.0}, "midpoint", True, 10.0),
        (WIDE, "midpoint", False, 40.0),
        (WIDE, "gauss_legendre_composite", False, 40.0),
        (BRANCH, "midpoint", False, 160.0),
        (TALL, "midpoint", False, 160.0),
        (WIDE6, "midpoint", False, 10.0),
        (NARROW, "midpoint", False, 4.0),
        (WIDE, "midpoint", True, 40.0),
        (WIDE, "gauss_legendre_composite", True, 40.0),
        (BRANCH, "midpoint", True, 160.0),
        (TALL, "midpoint", True, 160.0),
        (WIDE6, "midpoint", True, 10.0),
        (NARROW, "midpoint", True, 4.0),
    ], ids=["n1", "even-y", "odd-y", "gl", "odd-y-sinc", "gl-sinc",
            "odd-n", "odd-n-sinc", "even-z", "even-z-sinc", "gl-even-z-panels",
            "off-plate", "off-plate-gl-sinc", "no-width", "no-width-sinc",
            "wide", "wide-gl", "branch", "tall", "wide-6m", "narrow",
            "wide-sinc", "wide-gl-sinc", "branch-sinc", "tall-sinc",
            "wide-6m-sinc", "narrow-sinc"])
    def test_matches_oracle(self, overrides, rule, sampled, points):
        # every pair, in tx-major rows, against the brute-force per-pair
        # plate sum; sampled traces relative to each pair's peak, on
        # windows of +-8/B and +-40/B about the round trip (the frequency
        # rule takes 33 and 96 nodes for 13 antennas on the reference
        # plate)
        sc = reference_scenario(**{**SMALL, **overrides})
        quad = QuadratureSpec(points, rule)
        if sampled:
            w = WaveformRef.sinc(sc.bandwidth)
            windows = [2.0 * sc.range / SPEED_OF_LIGHT
                       + np.linspace(-h, h, 17) / sc.bandwidth
                       for h in (8.0, 40.0)]
        else:
            w, windows = CONST, [0.0]
        n = sc.n_antennas
        z = [(l - (n - 1) / 2.0) * sc.spacing for l in range(n)]
        for t in windows:
            got = exact_received_signal(sc, t, w, quad)
            assert got.shape == (n * n,) + np.shape(t)
            for p in range(n * n):
                want = exact_pair(sc, z[p // n], z[p % n], t, w.bandwidth,
                                  points, rule)
                if sc.plate_width == 0.0:
                    assert np.all(got[p] == 0.0) and np.all(want == 0.0)
                    continue
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[p] - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("overrides, rule, points, nodes, phase", [
        ({}, "midpoint", 10.0, 14, 14),
        (WIDE, "midpoint", 40.0, 93, 93),
        (WIDE, "gauss_legendre_composite", 40.0, 93, 93),
        (BRANCH, "midpoint", 160.0, 80, 35),
        (WIDE6, "midpoint", 10.0, 201, 179),
        (NARROW, "midpoint", 4.0, 3, 8),
    ], ids=["small", "wide", "wide-gl", "branch", "wide-6m", "narrow"])
    def test_y_nodes(self, overrides, rule, points, nodes, phase,
                     monkeypatch):
        # the constant waveform's factors are taken at K Chebyshev points
        # in y^2, K from the phase span or, where R is near a wavelength,
        # the branch point; where K is near or above the folded y nodes
        # (201 and 3 here) the direct sum takes them at the nodes
        sizes = set()
        factors = em_exact._antenna_factors

        def recording(R, k, z_ant, y_sq, z):
            sizes.add(np.size(y_sq))
            return factors(R, k, z_ant, y_sq, z)

        monkeypatch.setattr(em_exact, "_antenna_factors", recording)
        sc = reference_scenario(**{**SMALL, **overrides})
        exact_received_signal(sc, 0.0, CONST, QuadratureSpec(points, rule))
        assert sizes == {nodes}
        u_max = sc.plate_width ** 2 / 4.0
        assert chebyshev_node_count(
            sc.wavenumber * u_max / (np.hypot(sc.range, sc.plate_width / 2)
                                     + sc.range)) == phase

    @pytest.mark.parametrize("overrides, rule, points, nodes, phase", [
        ({}, "midpoint", 10.0, 33, 33),
        ({"n_antennas": 1}, "midpoint", 10.0, 26, 26),
        ({"n_antennas": 4, "plate_height": 1.85},
         "gauss_legendre_composite", 10.0, 29, 29),
        (WIDE, "midpoint", 40.0, 24, 24),
        (BRANCH, "midpoint", 160.0, 33, 20),
        (TALL, "midpoint", 160.0, 72, 31),
        (WIDE6, "midpoint", 10.0, 51, 51),
        (NARROW, "midpoint", 4.0, 24, 28),
    ], ids=["small", "n1", "gl", "wide", "branch", "tall", "wide-6m",
            "narrow"])
    def test_z_nodes(self, overrides, rule, points, nodes, phase,
                     monkeypatch):
        # the constant waveform's factors are taken at K Chebyshev points
        # in z on the folded half, K from the phase span or, where R is
        # small against the plate height, the branch points of r at
        # z_l +- jR (33 of 107 and 72 of 321 rows where the phase span
        # alone gives 20 and 31); where K is near or above the folded z
        # rows (24 here) the direct sum takes them at the rows. The y form
        # is taken or not on its own: wide-6m sums y directly and z by the
        # form. The scenes after small are test_matches_oracle's, which
        # holds every pair within 1e-12 of the brute-force sum
        z_pts = []
        factors = em_exact._antenna_factors

        def recording(R, k, z_ant, y_sq, z):
            z_pts.extend(np.ravel(z))
            return factors(R, k, z_ant, y_sq, z)

        monkeypatch.setattr(em_exact, "_antenna_factors", recording)
        sc = reference_scenario(**{**SMALL, **overrides})
        exact_received_signal(sc, 0.0, CONST, QuadratureSpec(points, rule))
        assert len(z_pts) == nodes
        half = sc.plate_height / 2.0
        m = half + np.max(np.abs(antenna_positions(sc)))
        assert phase_node_count(
            half * sc.wavenumber * m / np.hypot(sc.range, m)) == phase

    def test_z_nodes_reference(self):
        # the reference plate: 77 of 292 folded z rows at 10 GHz, 138 of
        # 701 at 24 GHz and 347 of 2,248 at 77 GHz, where the Lagrange
        # bound of chebyshev_node_count would give 122, 254 and 751
        for carrier, nodes, rows, lagrange in [(10e9, 77, 292, 122),
                                               (24e9, 138, 701, 254),
                                               (77e9, 347, 2248, 751)]:
            sc = reference_scenario(carrier_freq=carrier)
            z, _ = em_exact._fold(*em_exact._axis_nodes(
                sc.plate_height / 2, sc.wavelength, QuadratureSpec()))
            assert z.size == rows
            z_ant = antenna_positions(sc)
            assert em_exact._z_count(sc, sc.wavenumber, z_ant, rows) == nodes
            m = 0.875 + 0.75
            assert chebyshev_node_count(
                0.875 * sc.wavenumber * m / np.hypot(4.0, m)) == lagrange

    def test_sinc_takes_both_forms(self, monkeypatch):
        # the sinc is a quadrature over its band of constant-waveform plate
        # sums at the wavenumbers k + pi B x / c, so it takes both axis
        # forms, set up once, with node counts at the band's top
        # k + pi B / c (15 y and 28 z points here, where the carrier alone
        # gives 14 and 28), and never evaluates a delayed waveform
        sc = reference_scenario(n_antennas=3, **SMALL)
        top = sc.wavenumber + np.pi * sc.bandwidth / SPEED_OF_LIGHT
        counts, grams, calls = [], [], []

        def recorded(name):
            inner = getattr(em_exact, name)

            def wrapper(*args):
                out = inner(*args)
                if name == "_axis_form":
                    grams.append(out[1])
                elif name == "_antenna_factors":
                    calls.append((args[1], np.size(args[3]), np.size(args[4])))
                else:
                    counts.append((name, args[1], out))
                return out
            monkeypatch.setattr(em_exact, name, wrapper)

        def refused(*args):
            raise AssertionError("exact synthesis evaluated a waveform")

        for name in ("_y_count", "_z_count", "_axis_form",
                     "_antenna_factors"):
            recorded(name)
        monkeypatch.setattr(em_exact, "waveform_value", refused)
        synthesize(sc, backend="exact")
        assert [(name, k) for name, k, _ in counts] == [
            ("_y_count", pytest.approx(top, rel=1e-15)),
            ("_z_count", pytest.approx(top, rel=1e-15))]
        assert [kk for _, _, kk in counts] == [15, 28]
        assert len(grams) == 2 and all(g is not None for g in grams)
        # one block of all 28 z points per frequency node, at 50 nodes
        # symmetric about the carrier (51 for 13 antennas, whose delays
        # spread wider)
        ks = np.array([k for k, _, _ in calls])
        assert {(y, z) for _, y, z in calls} == {(15, 28)}
        assert ks.size == 50 and np.all(np.diff(ks) > 0)
        assert np.allclose(ks + ks[::-1], 2 * sc.wavenumber,
                           rtol=1e-15, atol=0)
        assert ks[-1] < top

    def test_block_bound(self, ref_sc_10ghz, monkeypatch):
        # the factors are evaluated once per frequency node at the points
        # of the two axis forms, never at the plate's nodes: 13 x 77 x 24
        # values at 10 GHz (of 13 x 292 x 134 quarter-plate nodes) and
        # 13 x 347 x 70 at 77 GHz (of 13 x 2,248 x 1,028), in blocks of
        # whole z points of at most _BLOCK_NODES values (antennas x y
        # points). The constant waveform is one node; the sinc on
        # synthesize's +-16/B window takes 51 for the SMALL scene and the
        # reference one at 10 and 77 GHz, at the counts of the band's top
        # wavenumber (the same 77 x 24 at 10 GHz)
        shapes = []
        factors = em_exact._antenna_factors

        def recording(*args):
            out = factors(*args)
            shapes.append(out[0].shape)
            return out

        def blocks(n_rows, rows):
            full, tail = divmod(n_rows, rows)
            return [rows] * full + ([tail] if tail else [])

        bound = em_exact._BLOCK_NODES
        monkeypatch.setattr(em_exact, "_antenna_factors", recording)
        exact_received_signal(ref_sc_10ghz, 0.0, CONST)
        assert shapes == [(13, b, 24) for b in blocks(77, bound // (13 * 24))]
        shapes.clear()
        exact_received_signal(reference_scenario(), 0.0, CONST)
        assert shapes == [(13, b, 70) for b in blocks(347, bound // (13 * 70))]
        assert max(np.prod(s) for s in shapes) <= bound

        shapes.clear()
        synthesize(ref_sc_10ghz, backend="exact")
        assert shapes == 51 * [(13, b, 24)
                               for b in blocks(77, bound // (13 * 24))]
        assert max(np.prod(s) for s in shapes) <= bound
        # 33 z points x 15 y points: one block per node
        shapes.clear()
        synthesize(reference_scenario(**SMALL), backend="exact")
        assert shapes == 51 * [(13, 33, 15)]
        sc = reference_scenario()
        _, offsets, _ = em_exact._frequency_rule(
            sc, sample_times(sc, sc.range), WaveformRef.sinc(sc.bandwidth))
        assert offsets.size == 51

    @pytest.mark.parametrize("n", [4, 13])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_mirror_pairs_bitwise(self, n, sampled):
        # pair (l, l') and pair (N-1-l, N-1-l') see the plate mirrored in
        # z, so their signals agree to the bit
        sc = reference_scenario(n_antennas=n, **SMALL)
        if sampled:
            w = WaveformRef.sinc(sc.bandwidth)
            t = 2.0 * sc.range / 299792458.0 + np.array([-3e-9, 0.0, 4e-9])
        else:
            w, t = CONST, 0.0
        u = exact_received_signal(sc, t, w).reshape((n, n) + np.shape(t))
        assert np.array_equal(u, u[::-1, ::-1])

    def test_sample_times_bitwise(self):
        # one call over many sample times matches a call at each time
        # alone within 1e-14 of the trace peak (each call's frequency rule
        # covers its own times), and repeats its own bits
        sc = reference_scenario(n_antennas=3, **SMALL)
        w = WaveformRef.sinc(sc.bandwidth)
        t = 2.0 * sc.range / 299792458.0 + np.array([-3e-9, 0.0, 4e-9])
        u = exact_received_signal(sc, t, w)
        assert np.array_equal(u, exact_received_signal(sc, t, w))
        peak = np.max(np.abs(u))
        for j, tj in enumerate(t):
            alone = exact_received_signal(sc, tj, w)
            assert np.max(np.abs(u[:, j] - alone)) <= 1e-14 * peak
        const = exact_received_signal(sc, t, CONST)
        assert np.array_equal(const, np.repeat(
            exact_received_signal(sc, 0.0, CONST)[:, None], 3, axis=1))

    def test_empty_times(self):
        sc = reference_scenario(n_antennas=3, **SMALL)
        for w in (CONST, WaveformRef.sinc(sc.bandwidth)):
            assert exact_received_signal(sc, np.empty(0), w).shape == (9, 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_times(self, bad):
        # the sinc used to return NaN traces for these, with warnings
        sc = reference_scenario(n_antennas=1, **SMALL)
        for w in (CONST, WaveformRef.sinc(sc.bandwidth)):
            with pytest.raises(ValueError, match="must be finite"):
                exact_received_signal(sc, np.array([0.0, bad]), w)

    def test_refuses_far_times(self):
        # the frequency rule takes about pi/2 nodes per 1/B between a time
        # and the plate's delays (462 just inside the bound), so under the
        # sinc a time more than 256/B from them is refused and named
        # (synthesize's window is +-16/B); the constant waveform does not
        # depend on the time
        sc = reference_scenario(n_antennas=1, **SMALL)
        w = WaveformRef.sinc(sc.bandwidth)
        near = 2.0 * sc.range / SPEED_OF_LIGHT
        far = 2.0 * np.hypot(4.0, np.hypot(0.4, 0.875)) / SPEED_OF_LIGHT
        for t in (near - 257.0 / sc.bandwidth, far + 257.0 / sc.bandwidth):
            with pytest.raises(ValueError, match=re.escape(repr(float(t)))):
                exact_received_signal(sc, np.array([near, t]), w)
            assert np.all(np.isfinite(exact_received_signal(sc, t, CONST)))
        inside = np.array([near - 255.0 / sc.bandwidth,
                           far + 255.0 / sc.bandwidth])
        assert np.all(np.isfinite(exact_received_signal(sc, inside, w)))

    def test_rejects_2d_times(self):
        sc = reference_scenario(n_antennas=1, **SMALL)
        with pytest.raises(ValueError, match="1-D"):
            exact_received_signal(sc, np.zeros((2, 2)), CONST)

    def test_degenerate_plate_is_zero(self):
        # no y nodes and u_max = 0: exact zeros, with nothing divided by 0
        sc = reference_scenario(plate_width=0.0)
        with np.errstate(all="raise"):
            assert np.all(exact_received_signal(sc, 0.0, CONST) == 0.0)

    def test_zero_drive_is_zero(self, ref_sc_10ghz):
        sc = reference_scenario(carrier_freq=10e9, antenna_gain_factor=0.0)
        assert np.all(exact_received_signal(sc, 0.0, CONST) == 0.0)

    def test_reciprocity(self, ref_sc_10ghz):
        u = exact_received_signal(ref_sc_10ghz, 0.0, CONST).reshape(13, 13)
        assert amp_db(u[0, 5], u[5, 0]) <= 0.1
        assert phase_deg(u[0, 5], u[5, 0]) <= 1.0
        assert np.max(amp_db(u, u.T)) <= 0.1
        assert np.max(phase_deg(u, u.T)) <= 1.0

    def test_convergence_in_density(self, ref_sc_10ghz):
        # doubling the sampling density must not move the answer
        i = center_row(ref_sc_10ghz)
        u10 = exact_received_signal(ref_sc_10ghz, 0.0, CONST,
                                    QuadratureSpec(10.0))[i]
        u20 = exact_received_signal(ref_sc_10ghz, 0.0, CONST,
                                    QuadratureSpec(20.0))[i]
        assert amp_db(u10, u20) <= 0.1
        assert phase_deg(u10, u20) <= 1.0

    def test_frequency_rule_converged(self):
        # a time 23.9/B before the round trip widens the span the frequency
        # rule covers and takes it from 50 to 66 nodes; the traces at
        # synthesize's times move by no more than 1e-14 of the peak (5e-15
        # here; with 8 nodes fewer than the rule they are 9.5e-13 off)
        sc = reference_scenario(**{**SMALL, **BRANCH})
        w = WaveformRef.sinc(sc.bandwidth)
        t = sample_times(sc, sc.range)
        wider = np.append(t, t[0] - 7.9 / sc.bandwidth)
        assert [em_exact._frequency_rule(sc, x, w)[1].size
                for x in (t, wider)] == [50, 66]
        u = exact_received_signal(sc, t, w)
        more = exact_received_signal(sc, wider, w)[:, :-1]
        assert np.max(np.abs(u - more)) <= 1e-14 * np.max(np.abs(u))

    def test_sinc_at_77ghz(self):
        # the paper's carrier on a 0.1 x 0.25 m plate, every fourth sample
        # of synthesize's window, against the brute-force sum for the
        # centre pair (6, 6) and the weak pairs (0, 0) and (10, 11), whose
        # specular points are off the plate. The tolerance is relative to
        # the scene's largest trace peak (all 169 pairs are within
        # 2.2e-13 of it): relative to its own peak the weak (10, 11) is
        # 5.2e-12 off, which is the rounding of the form's phases k r
        # (about 6,500 rad here; the module docstring gives 1.8e-12 for
        # the constant waveform at 77 GHz), not the frequency rule
        sc = reference_scenario(plate_width=0.1, plate_height=0.25)
        t = sample_times(sc, sc.range)[::4]
        assert t.size == 32
        got = exact_received_signal(sc, t, WaveformRef.sinc(sc.bandwidth))
        peak = np.max(np.abs(got))
        z = antenna_positions(sc)
        for p in (0, 84, 141):
            want = exact_pair(sc, z[p // 13], z[p % 13], t, sc.bandwidth)
            assert np.max(np.abs(got[p] - want)) <= 1e-12 * peak

    def test_rule_cross_check(self, ref_sc_10ghz):
        # two genuinely different quadrature rules, same integral
        i = center_row(ref_sc_10ghz)
        um = exact_received_signal(ref_sc_10ghz, 0.0, CONST,
                                   QuadratureSpec(10.0, "midpoint"))[i]
        ug = exact_received_signal(
            ref_sc_10ghz, 0.0, CONST,
            QuadratureSpec(10.0, "gauss_legendre_composite"))[i]
        assert amp_db(um, ug) <= 0.1
        assert phase_deg(um, ug) <= 1.0

    def test_off_plate_specular_point_drops(self):
        # pair with z_s = -0.75: on the full plate the specular point is
        # interior, on a halved plate (edge at 0.4375) it is outside and
        # only edge diffraction remains
        sc_on = reference_scenario(carrier_freq=24e9)
        sc_off = reference_scenario(carrier_freq=24e9, plate_height=0.875)
        assert antenna_positions(sc_on)[0] == -0.75  # row 0: pair (0, 0)
        u_on = exact_received_signal(sc_on, 0.0, CONST)[0]
        u_off = exact_received_signal(sc_off, 0.0, CONST)[0]
        assert 20 * np.log10(abs(u_on) / abs(u_off)) >= 20.0

    def test_deterministic(self, ref_sc_10ghz):
        u1 = exact_received_signal(ref_sc_10ghz, 0.0, CONST)
        u2 = exact_received_signal(ref_sc_10ghz, 0.0, CONST)
        assert np.array_equal(u1, u2)
