import numpy as np
import pytest

from nfradar import (
    AntennaPair,
    QuadratureSpec,
    WaveformRef,
    all_pairs,
    antenna_z_position,
    exact_received_signal,
    integrand,
    path_length_sum,
    reference_scenario,
)
from nfradar.em_exact import _amplitude_phase

CONST = WaveformRef.constant()


def amp_db(a, b):
    return abs(20 * np.log10(abs(a) / abs(b)))


def phase_deg(a, b):
    d = np.angle(a) - np.angle(b)
    return abs(np.degrees((d + np.pi) % (2 * np.pi) - np.pi))


def center_pair(scenario):
    m = (scenario.n_antennas - 1) // 2
    z = antenna_z_position(scenario, m)
    return AntennaPair(m, m, z, z)


class TestPathLengthSum:
    def test_center_specular(self, ref_sc):
        pair = center_pair(ref_sc)
        assert path_length_sum(pair, 4.0, 0.0, 0.0) == 8.0

    def test_outer_pair_specular(self, ref_sc):
        # tx at -0.75, rx at +0.75: both legs sqrt(16 + 0.5625)
        pair = AntennaPair(0, 12, -0.75, 0.75)
        assert path_length_sum(pair, 4.0, 0.0, 0.0) == \
            pytest.approx(8.139410298049853, rel=1e-15)

    def test_off_axis_point(self, ref_sc):
        pair = center_pair(ref_sc)
        # legs sqrt(16 + 0.16 + 0.765625) each
        assert path_length_sum(pair, 4.0, 0.4, 0.875) == \
            pytest.approx(8.228152891141486, rel=1e-15)

    def test_lower_bound(self, rng, ref_sc):
        # strictly above 2R everywhere except the degenerate monostatic
        # broadside point
        pair = AntennaPair(0, 12, -0.75, 0.75)
        y = rng.uniform(-0.4, 0.4, 100)
        z = rng.uniform(-0.875, 0.875, 100)
        assert np.all(path_length_sum(pair, 4.0, y, z) > 8.0)

    def test_vectorized_matches_scalar(self, ref_sc):
        pair = AntennaPair(2, 9, -0.5, 0.375)
        y = np.array([0.0, 0.1, -0.3])
        z = np.array([0.2, -0.8, 0.0])
        vec = path_length_sum(pair, 4.0, y, z)
        for yi, zi, vi in zip(y, z, vec):
            assert path_length_sum(pair, 4.0, float(yi), float(zi)) == vi


class TestIntegrand:
    # the integrand is g * exp(j psi) with psi = -k * path_length_sum, so
    # dividing out that phase leaves the amplitude g

    def test_specular_amplitude_is_R_over_r_cubed(self, ref_sc):
        # pins the direction-cosine convention: at the specular point of
        # any pair the product of cosines collapses to R^2/r^2 and the
        # amplitude to R/r^3
        pair = center_pair(ref_sc)
        psi = -ref_sc.wavenumber * path_length_sum(pair, 4.0, 0.0, 0.0)
        assert psi == -2.0 * ref_sc.wavenumber * 4.0
        u = integrand(pair, ref_sc, 0.0, 0.0, 0.0, CONST)
        assert u * np.exp(-1j * psi) == pytest.approx(0.0625, rel=1e-15)

    def test_specular_amplitude_bistatic(self, ref_sc):
        pair = AntennaPair(0, 12, -0.75, 0.75)
        r = np.sqrt(16.5625)
        psi = -ref_sc.wavenumber * path_length_sum(pair, 4.0, 0.0, 0.0)
        assert psi == pytest.approx(-ref_sc.wavenumber * 2 * r, rel=1e-15)
        u = integrand(pair, ref_sc, 0.0, 0.0, 0.0, CONST)
        assert u * np.exp(-1j * psi) == pytest.approx(4.0 / r**3, rel=1e-14)

    def test_phase_peaks_at_specular(self, ref_sc):
        # psi = -k (r + r') is maximal where the path is shortest
        pair = center_pair(ref_sc)
        k = ref_sc.wavenumber
        psi0 = -k * path_length_sum(pair, 4.0, 0.0, 0.0)
        for y, z in [(0.1, 0.0), (0.0, 0.2), (-0.3, -0.5)]:
            assert -k * path_length_sum(pair, 4.0, y, z) < psi0

    def test_parts_reassemble(self, ref_sc):
        # amplitude rebuilt from the direction cosines written out:
        # s(t - path/c) (R / r_tx) (rho_rx^2 / r_rx^2) / (r_tx r_rx)
        pair = AntennaPair(1, 4, -0.625, -0.25)
        w = WaveformRef.sinc(ref_sc.bandwidth)
        t, y, z = 27e-9, 0.1, -0.3
        r_tx = np.sqrt(16.0 + y * y + (z - pair.tx_z) ** 2)
        rho_rx_sq = 16.0 + (z - pair.rx_z) ** 2
        r_rx = np.sqrt(rho_rx_sq + y * y)
        path = path_length_sum(pair, 4.0, y, z)
        g = (np.sinc(ref_sc.bandwidth * (t - path / 299792458.0))
             * (4.0 / r_tx) * (rho_rx_sq / r_rx**2) / (r_tx * r_rx))
        assert integrand(pair, ref_sc, y, z, t, w) == pytest.approx(
            g * np.exp(1j * (-ref_sc.wavenumber * path)), rel=1e-12)

    def test_rejects_points_off_plate(self, ref_sc):
        pair = center_pair(ref_sc)
        with pytest.raises(ValueError, match="outside the plate"):
            integrand(pair, ref_sc, 0.5, 0.0, 0.0, CONST)
        with pytest.raises(ValueError, match="outside the plate"):
            integrand(pair, ref_sc, 0.0, 1.0, 0.0, CONST)

    def test_stationary_point_on_grid(self, ref_sc_10ghz):
        # the sampled phase attains its maximum at the grid cell holding
        # the specular point
        pair = center_pair(ref_sc_10ghz)
        gy = np.linspace(-0.4, 0.4, 41)
        gz = np.linspace(-0.875, 0.875, 71)
        _, psi = _amplitude_phase(pair, ref_sc_10ghz, gy[None, :],
                                  gz[:, None], 0.0, CONST)
        iz, iy = np.unravel_index(np.argmax(psi), psi.shape)
        assert abs(gy[iy] - 0.0) <= gy[1] - gy[0]
        assert abs(gz[iz] - 0.0) <= gz[1] - gz[0]


class TestQuadratureSpec:
    def test_density_floor(self):
        with pytest.raises(ValueError, match="at least 4"):
            QuadratureSpec(points_per_wavelength=3.9)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            QuadratureSpec(rule="simpson")


class TestExactReceivedSignal:
    def test_degenerate_plate_is_zero(self):
        sc = reference_scenario(plate_width=0.0)
        pair = center_pair(sc)
        assert exact_received_signal(pair, sc, 0.0, CONST) == 0.0

    def test_zero_drive_is_zero(self, ref_sc_10ghz):
        sc = reference_scenario(carrier_freq=10e9, antenna_gain_factor=0.0)
        pair = center_pair(sc)
        assert exact_received_signal(pair, sc, 0.0, CONST) == 0.0

    def test_reciprocity(self, ref_sc_10ghz):
        sc = ref_sc_10ghz
        pa = AntennaPair(0, 5, antenna_z_position(sc, 0), antenna_z_position(sc, 5))
        pb = AntennaPair(5, 0, antenna_z_position(sc, 5), antenna_z_position(sc, 0))
        ua = exact_received_signal(pa, sc, 0.0, CONST)
        ub = exact_received_signal(pb, sc, 0.0, CONST)
        assert amp_db(ua, ub) <= 0.1
        assert phase_deg(ua, ub) <= 1.0

    def test_convergence_in_density(self, ref_sc_10ghz):
        # doubling the sampling density must not move the answer
        pair = center_pair(ref_sc_10ghz)
        u10 = exact_received_signal(pair, ref_sc_10ghz, 0.0, CONST,
                                    QuadratureSpec(10.0))
        u20 = exact_received_signal(pair, ref_sc_10ghz, 0.0, CONST,
                                    QuadratureSpec(20.0))
        assert amp_db(u10, u20) <= 0.1
        assert phase_deg(u10, u20) <= 1.0

    def test_rule_cross_check(self, ref_sc_10ghz):
        # two genuinely different quadrature rules, same integral
        pair = center_pair(ref_sc_10ghz)
        um = exact_received_signal(pair, ref_sc_10ghz, 0.0, CONST,
                                   QuadratureSpec(10.0, "midpoint"))
        ug = exact_received_signal(
            pair, ref_sc_10ghz, 0.0, CONST,
            QuadratureSpec(10.0, "gauss_legendre_composite"))
        assert amp_db(um, ug) <= 0.1
        assert phase_deg(um, ug) <= 1.0

    def test_off_plate_specular_point_drops(self):
        # pair with z_s = -0.75: on the full plate the specular point is
        # interior, on a halved plate (edge at 0.4375) it is outside and
        # only edge diffraction remains
        sc_on = reference_scenario(carrier_freq=24e9)
        sc_off = reference_scenario(carrier_freq=24e9, plate_height=0.875)
        pair = all_pairs(sc_on)[0]
        u_on = exact_received_signal(pair, sc_on, 0.0, CONST)
        u_off = exact_received_signal(pair, sc_off, 0.0, CONST)
        assert 20 * np.log10(abs(u_on) / abs(u_off)) >= 20.0

    def test_deterministic(self, ref_sc_10ghz):
        pair = center_pair(ref_sc_10ghz)
        u1 = exact_received_signal(pair, ref_sc_10ghz, 0.0, CONST)
        u2 = exact_received_signal(pair, ref_sc_10ghz, 0.0, CONST)
        assert u1 == u2
