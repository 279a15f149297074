import math

import numpy as np
import pytest

from nfradar import (
    spa_received_signal,
    reference_scenario,
    xi,
)
from nfradar.em_spa import gain_and_delay_arrays, pair_groups, pair_offsets
from nfradar.signal import sample_times, waveform_value

from oracles import fresnel_reference, pair_gain, quadratic_phase_integral

# tx-major row indices of the centre pair (6, 6), the outer pair (0, 12)
# with its elements at -0.75 and +0.75, and the monostatic edge pair (0, 0)
I_CENTER, I_OUTER, I_EDGE_MONO = 6 * 13 + 6, 12, 0
CENTER_DELAY = 2.6685127615852163e-08  # 2 * 4 m / c
OUTER_DELAY = 2.7150150315155204e-08   # 2 * sqrt(16.5625) / c


def arrays(sc):
    """Gains and delays of all pairs at the scenario range, read from the
    geometries' gains through of_pair and the delay groups' delays through
    group."""
    groups = pair_groups(sc)
    gain, delay = gain_and_delay_arrays(sc, groups, sc.range)
    return gain[groups[3]], delay[groups[1]]


def pair_positions(sc):
    """(tx_z, rx_z) of every pair in tx-major order, written out as
    (l - (N-1)/2) * spacing."""
    n = sc.n_antennas
    z = [(l - (n - 1) / 2.0) * sc.spacing for l in range(n)]
    return [(z[l], z[lp]) for l in range(n) for lp in range(n)]


def spa_gains(sc):
    """Gains of all pairs through spa_received_signal: the carrier wave
    (no time axis) is the bare pair gain."""
    return spa_received_signal(sc)


class TestSpecularGeometry:
    def test_center_pair(self, ref_sc):
        z_s, d = pair_offsets(ref_sc)
        assert (z_s[I_CENTER], d[I_CENTER]) == (0.0, 0.0)
        assert arrays(ref_sc)[1][I_CENTER] == 2 * 4.0 / 299792458.0

    def test_outer_pair(self, ref_sc):
        z_s, d = pair_offsets(ref_sc)
        assert z_s[I_OUTER] == 0.0
        # half-separation 0.75 against standoff 4
        assert math.hypot(4.0, d[I_OUTER]) == \
            pytest.approx(math.sqrt(16.5625), rel=1e-15)

    def test_monostatic_offset_pair(self, ref_sc):
        z_s, d = pair_offsets(ref_sc)
        assert (z_s[I_EDGE_MONO], d[I_EDGE_MONO]) == (-0.75, 0.0)
        assert arrays(ref_sc)[0][I_EDGE_MONO] != 0.0  # 0.75 < 0.875

    def test_off_plate(self):
        sc = reference_scenario(plate_height=0.875)
        assert spa_gains(sc)[I_EDGE_MONO] == 0.0  # 0.75 > 0.4375

    def test_edge_inclusive(self):
        sc = reference_scenario(plate_height=1.5)
        assert spa_gains(sc)[I_EDGE_MONO] != 0.0  # exactly on the edge


class TestPhaseExpansion:
    # the closed form's quadratic phase about the specular point (0, z_s)
    # of the outer pair, z_s = 0
    R_S = math.sqrt(16.5625)

    @staticmethod
    def quadratic_phase(sc, r_s, y, z):
        # psi ~ -2 k r_s - (k / r_s) y^2 - (k R^2 / r_s^3) z^2
        k, R = sc.wavenumber, sc.range
        return (-2.0 * k * r_s - (k / r_s) * y * y
                - (k * R * R / r_s**3) * z * z)

    def test_value_at_specular_point(self, ref_sc):
        assert self.quadratic_phase(ref_sc, self.R_S, 0.0, 0.0) == \
            -2.0 * ref_sc.wavenumber * self.R_S

    def test_curvatures(self, ref_sc):
        k = ref_sc.wavenumber
        h = 1e-3
        p0 = self.quadratic_phase(ref_sc, self.R_S, 0.0, 0.0)
        py = self.quadratic_phase(ref_sc, self.R_S, h, 0.0)
        pz = self.quadratic_phase(ref_sc, self.R_S, 0.0, h)
        # second differences of a phase near 1.3e4 rad: cancellation leaves
        # roughly 7 significant digits
        assert (py - p0) / h**2 == pytest.approx(-k / self.R_S, rel=1e-6)
        assert (pz - p0) / h**2 == pytest.approx(
            -k * ref_sc.range**2 / self.R_S**3, rel=1e-6)

    def test_agreement_inside_fresnel_window(self, ref_sc):
        # the quadratic expansion must track the true phase -k (r + r') to
        # a fraction of a radian across the first Fresnel zone in each axis
        lam = ref_sc.wavelength
        y_half = math.sqrt(lam * self.R_S) / 2
        z_half = math.sqrt(lam * self.R_S**3) / (2 * ref_sc.range)
        y = np.linspace(-y_half, y_half, 101)[None, :]
        z = np.linspace(-z_half, z_half, 101)[:, None]
        R = ref_sc.range
        path = (np.sqrt(R * R + y * y + (z + 0.75) ** 2)
                + np.sqrt(R * R + y * y + (z - 0.75) ** 2))
        exact = -ref_sc.wavenumber * path
        approx = self.quadratic_phase(ref_sc, self.R_S, y, z)
        assert np.max(np.abs(exact - approx)) <= 0.2


class TestAlpha:
    def test_wide_plate_limit(self, ref_sc):
        # for huge Fresnel arguments alpha approaches
        # (0.5 - 0.5j) * (1 - 1j) = -j
        gain = arrays(ref_sc)[0][I_CENTER]
        alpha = gain * 4.0 / (xi(ref_sc)
                              * np.exp(-2j * ref_sc.wavenumber * 4.0))
        assert abs(alpha - (-1j)) <= 0.15

    def test_swap_exact(self, ref_sc):
        gain, delay = arrays(ref_sc)
        assert gain[2 * 13 + 9] == gain[9 * 13 + 2]
        assert delay[2 * 13 + 9] == delay[9 * 13 + 2]
        spa = spa_gains(ref_sc)
        assert spa[2 * 13 + 9] == spa[9 * 13 + 2]

    def test_off_plate_is_zero(self):
        # every pair with its specular point beyond the edge, and only
        # those, has gain exactly 0
        sc = reference_scenario(plate_height=0.875)
        z_s, _ = pair_offsets(sc)
        gain = arrays(sc)[0]
        assert np.array_equal(gain == 0.0, np.abs(z_s) > 0.4375)
        assert np.any(gain == 0.0)

    def test_indicator_edge(self):
        # specular point exactly on the edge contributes; 1e-12 beyond does
        # not: pair (0, 0) has z_s = -0.75 exactly, and the plate's half
        # height is 0.75, then 0.75 - 1e-12
        assert pair_offsets(reference_scenario())[0][I_EDGE_MONO] == -0.75
        on_edge = reference_scenario(plate_height=1.5)
        beyond = reference_scenario(plate_height=1.5 - 2e-12)
        assert beyond.plate_height / 2.0 < 0.75
        assert arrays(on_edge)[0][I_EDGE_MONO] != 0.0
        assert arrays(beyond)[0][I_EDGE_MONO] == 0.0

    def test_depends_only_on_z_sum(self, ref_sc):
        # (z_l + z_l')/2 fixes z_s, and r_s enters only via the offset
        # magnitude, so pairs with equal sum and equal offset coincide
        gain = arrays(ref_sc)[0]
        assert gain[0 * 13 + 12] == gain[12 * 13 + 0]
        assert gain[1 * 13 + 11] == gain[11 * 13 + 1]


class TestXi:
    def test_frozen_reference_value(self, ref_sc):
        # -k eta / (8 pi) at the 77 GHz wavenumber 1613.800666902795
        v = xi(ref_sc)
        assert v.imag == 0.0
        assert v.real == pytest.approx(-24190.263445883622, rel=1e-12)

    def test_linear_in_carrier(self, ref_sc):
        sc2 = reference_scenario(carrier_freq=2 * ref_sc.carrier_freq)
        assert xi(sc2).real == pytest.approx(2 * xi(ref_sc).real, rel=1e-14)


class TestPairCoefficient:
    def test_center_delay(self, ref_sc):
        delay = arrays(ref_sc)[1][I_CENTER]
        assert delay == pytest.approx(CENTER_DELAY, rel=1e-12)

    def test_outer_delay(self, ref_sc):
        delay = arrays(ref_sc)[1]
        assert delay[I_OUTER] == pytest.approx(OUTER_DELAY, rel=1e-12)
        assert delay[I_OUTER] > delay[I_CENTER]

    def test_full_gain_assembly(self, ref_sc):
        # xi * alpha * exp(-j 2 k r_s) / r_s, with alpha rebuilt from the
        # Gauss-Legendre Fresnel reference
        lam, k = ref_sc.wavelength, ref_sc.wavenumber
        r_s = math.sqrt(16.5625)
        scale = 2 * 4.0 / math.sqrt(lam * r_s**3)
        alpha = np.conj(fresnel_reference(math.sqrt(0.64 / (lam * r_s)))) \
            * 2 * np.conj(fresnel_reference(0.875 * scale))
        expected = xi(ref_sc) * alpha * np.exp(-2j * k * r_s) / r_s
        assert arrays(ref_sc)[0][I_OUTER] == pytest.approx(expected,
                                                           rel=1e-12)

    def test_off_plate_gain_zero_delay_finite(self):
        sc = reference_scenario(plate_height=0.875)
        gain, delay = arrays(sc)
        assert gain[I_EDGE_MONO] == 0.0
        assert delay[I_EDGE_MONO] == pytest.approx(CENTER_DELAY, rel=1e-12)

    def test_equal_z_sum_pairs_identical(self, ref_sc):
        # (0,12) and (3,9) share z_s = 0 but differ in offset, so they
        # must differ; (0,12) and (12,0) share everything
        spa = spa_gains(ref_sc)
        assert spa[0 * 13 + 12] == spa[12 * 13 + 0]
        delay = arrays(ref_sc)[1]
        assert delay[3 * 13 + 9] < delay[0 * 13 + 12]

    def test_gain_magnitude_decreases_with_distance(self):
        # deep-Fresnel regime (arguments > 13, alpha pinned near -j): the
        # 1/r_s spreading dominates. On the small reference plate the
        # Fresnel ripple near argument 4 can locally beat 1/r, so the
        # guarantee only holds with alpha pinned.
        # The centre pair is geometry 0, (|z_s|, |d|) = (0, 0)
        sc = reference_scenario(plate_width=3.0, plate_height=6.0)
        groups = pair_groups(sc)
        assert groups[3][I_CENTER] == 0
        assert (groups[2][0][0], groups[0][groups[2][1][0]]) == (0.0, 0.0)
        R = np.array([4.0, 5.0, 6.5, 8.0, 10.0, 12.0])
        mags = np.abs(gain_and_delay_arrays(sc, groups, R)[0][0])
        assert np.all(np.diff(mags) < 0)


class TestLongFormEquivalence:
    def test_alpha_matches_plate_quadrature(self, rng):
        # the closed form collapses stationary-phase plate integrals into
        # Fresnel factors; rebuild the same coefficient from the defining
        # quadratic-phase integrals by adaptive quadrature
        checked = 0
        while checked < 20:
            fc = rng.uniform(1e9, 12e9)
            R = rng.uniform(3.0, 30.0)
            dy = rng.uniform(0.3, 1.5)
            dz = rng.uniform(0.8, 2.5)
            spacing = rng.uniform(0.05, 0.2)
            n = int(rng.integers(3, 13))
            sc = reference_scenario(
                carrier_freq=fc, range=R, plate_width=dy, plate_height=dz,
                spacing=spacing, n_antennas=n,
                bandwidth=min(100e6, fc / 10), min_range_wavelengths=10.0)
            z = (np.arange(n) - (n - 1) / 2) * spacing
            l = int(rng.integers(0, n))
            lp = int(rng.integers(0, n))
            z_s = (z[l] + z[lp]) / 2
            if abs(z_s) > dz / 2:
                continue
            checked += 1
            r_s = math.hypot(R, z[l] - z_s)
            gain = spa_gains(sc)[l * n + lp]
            k = sc.wavenumber
            pre = (-2 * k * k * sc.free_space_impedance
                   * sc.antenna_gain_factor / (4 * np.pi) ** 2)
            i_y = quadratic_phase_integral(k / r_s, -dy / 2, dy / 2)
            i_z = quadratic_phase_integral(
                k * R * R / r_s**3, -dz / 2 - z_s, dz / 2 - z_s)
            long_form = (pre * np.exp(-2j * k * r_s)
                         * (R / r_s**3) * i_y * i_z)
            assert abs(gain - long_form) <= 1e-6 * abs(long_form)


class TestSpaReceivedSignal:
    def test_peak_sample_is_full_gain(self, ref_sc):
        gain, delay = (v[I_CENTER] for v in arrays(ref_sc))
        assert spa_received_signal(ref_sc, delay)[I_CENTER] == gain

    def test_waveform_null(self, ref_sc):
        gain, delay = (v[I_CENTER] for v in arrays(ref_sc))
        t_null = delay + 1.0 / ref_sc.bandwidth
        assert abs(spa_received_signal(ref_sc, t_null)[I_CENTER]) < \
            1e-12 * abs(gain)

    def test_doubles_with_gain_factor(self, ref_sc):
        # xi and every trace are linear in the gain factor g: g -> 2g
        # doubles them, bit for bit, since a factor of 2 is exact
        sc = reference_scenario(antenna_gain_factor=2.0)
        t = np.linspace(26e-9, 28e-9, 16)
        assert xi(sc) == 2.0 * xi(ref_sc)
        for times in (None, t):
            assert np.array_equal(spa_received_signal(sc, times),
                                  2.0 * spa_received_signal(ref_sc, times))

    def test_array_matches_scalars(self, ref_sc):
        t = np.array([26.5e-9, 26.7e-9, 27.0e-9])
        vec = spa_received_signal(ref_sc, t)
        assert vec.shape == (169, 3)
        for ti, vi in zip(t, vec.T):
            assert np.array_equal(spa_received_signal(ref_sc, float(ti)), vi)

    def test_rows_are_pair_traces(self, ref_sc):
        # row i is pair (i // N, i % N): its gain times the waveform at
        # its own delay
        gain, delay = arrays(ref_sc)
        t = np.array([26.5e-9, 27.0e-9])
        vec = spa_received_signal(ref_sc, t)
        for i in (I_CENTER, I_OUTER, I_EDGE_MONO):
            assert np.array_equal(
                vec[i], gain[i] * np.sinc(ref_sc.bandwidth * (t - delay[i])))

    def test_rejects_2d_times(self, ref_sc):
        with pytest.raises(ValueError, match="1-D"):
            spa_received_signal(ref_sc, np.zeros((2, 2)))


class TestVectorHelpers:
    def test_pair_offsets_match_loops(self, ref_sc):
        z_s, d = pair_offsets(ref_sc)
        assert z_s.shape == d.shape == (169,)
        pairs = pair_positions(ref_sc)
        # tx-major: row 1 is pair (0, 1), row 13 is pair (1, 0)
        assert pairs[1] == (-0.75, -0.625) and pairs[13] == (-0.625, -0.75)
        for i, (tx_z, rx_z) in enumerate(pairs):
            assert z_s[i] == (tx_z + rx_z) / 2
            assert d[i] == tx_z - z_s[i]

    @pytest.mark.parametrize("spacing", [0.1, 0.07])
    def test_pair_offsets_one_value_per_class(self, spacing):
        # a spacing that is not a binary fraction: pairs with one index sum
        # share z_s and pairs with one index difference share d, bit for
        # bit, so 13 antennas give 13 delay groups and 49 (|z_s|, |d|)
        # geometries, and mirrored pairs are exact negations
        sc = reference_scenario(spacing=spacing)
        z_s, d = pair_offsets(sc)
        n = sc.n_antennas
        assert np.unique(np.abs(d)).size == 13
        assert np.unique(np.abs([z_s, d]), axis=1).shape == (2, 49)
        assert np.array_equal(z_s.reshape(n, n)[::-1, ::-1],
                              -z_s.reshape(n, n))
        assert np.array_equal(d.reshape(n, n)[::-1, ::-1], -d.reshape(n, n))
        near = dict(rel=1e-15, abs=1e-16)
        for i, (tx_z, rx_z) in enumerate(pair_positions(sc)):
            assert z_s[i] == pytest.approx((tx_z + rx_z) / 2, **near)
            assert d[i] == pytest.approx((tx_z - rx_z) / 2, **near)
        abs_d, _, (z_abs, of_d), _ = pair_groups(sc)
        assert abs_d.size == 13 and z_abs.shape == of_d.shape == (49,)

    @pytest.mark.parametrize("spacing", [0.1, 0.125, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 13, 20])
    def test_pair_groups_match_float_grouping(self, n, spacing):
        # the integer keys of pair_groups give what grouping the float
        # offsets of pair_offsets gives, bit for bit: np.unique of |d| and
        # of the (|z_s|, |d|) columns, with their order and inverses, each
        # geometry's |d| read as abs_d[of_d]; a pair's geometry lies in its
        # delay group; and the synthesis expanded from the geometries' gains
        # and the groups' waveforms is the per-pair one
        sc = reference_scenario(n_antennas=n, spacing=spacing)
        z_s, d = pair_offsets(sc)
        abs_d, group, (z_abs, of_d), of_pair = groups = pair_groups(sc)
        want_d, want_group = np.unique(np.abs(d), return_inverse=True)
        want_geometry, want_of_pair = np.unique(
            np.abs([z_s, d]), axis=1, return_inverse=True)
        assert np.array_equal(abs_d, want_d)
        assert np.array_equal(group, want_group)
        assert np.array_equal(np.stack([z_abs, abs_d[of_d]]), want_geometry)
        assert np.array_equal(of_pair, want_of_pair.ravel())
        assert np.array_equal(of_d[of_pair], group)
        t = sample_times(sc, sc.range)
        gain, delay = gain_and_delay_arrays(sc, groups, sc.range)
        want = gain[of_pair, None] * waveform_value(sc.bandwidth, t,
                                                    delay[group])
        assert np.array_equal(spa_received_signal(sc, t), want)
        assert np.array_equal(spa_received_signal(sc), gain[of_pair])

    def test_gain_and_delay_match_oracle(self):
        # every pair, on and off the plate, against the closed form written
        # out with scalar math; delays share the correctly rounded sqrt and
        # match bitwise
        for sc in (reference_scenario(), reference_scenario(
                carrier_freq=10e9, plate_height=0.5)):
            gain, delay = arrays(sc)
            spa = spa_gains(sc)
            for i, (tx_z, rx_z) in enumerate(pair_positions(sc)):
                g, tau, _ = pair_gain(sc, tx_z, rx_z, sc.range)
                assert delay[i] == tau
                assert gain[i] == pytest.approx(g, rel=1e-12, abs=0)
                assert spa[i] == pytest.approx(g, rel=1e-12, abs=0)
