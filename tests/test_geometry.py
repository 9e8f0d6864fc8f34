import numpy as np
import pytest
from oracles import cloud_density, inverse_area_sq

from sqfluor.geometry import (
    AtomCloud,
    BeamProfile,
    effective_area,
    fwhm_to_sigma,
    waist_fwhm_to_w0,
)

# A_eff for the 0.1 mm FWHM MOT beam and cloud, from the closed form.  It
# sits 1.9e-6 above the collimated closed form (pi/2) w0 sqrt(w0^2 + 8 sigma^2),
# as beam divergence requires; the quoted 220 um^2 lies below the bound
# pi w0^2/2 (see DECISIONS.md).  Frozen here as a regression anchor.
MOT_AEFF_COMPUTED = 1.9625731911731418e-8  # m^2, intensity-FWHM convention, z_R at 895 nm

# The oracle grid: cloud widths and Rayleigh ranges in units of the waist
# (None: collimated), each with equal beams, unequal beams (the second 1.6
# times wider with 0.7 times the Rayleigh range) and the second collimated.
GRID_W0 = 5.0e-5
GRID_SIGMAS = (0.02, 0.1, 0.5, 1.0, 10.0, 100.0, 1000.0)
GRID_RAYLEIGH = (1.0, 10.0, 1e2, 1e3, 1e4, None)


def grid_beams(pair: str, z_r):
    beam = BeamProfile(GRID_W0, z_r)
    if pair == "equal":
        return beam, beam
    if pair == "unequal":
        return beam, BeamProfile(1.6 * GRID_W0, None if z_r is None else 0.7 * z_r)
    return beam, BeamProfile(GRID_W0)


def w_squared(beam, z: float) -> float:
    """w^2(z) = w0^2 (1 + (z/z_R)^2), w0^2 for a collimated beam."""
    if beam.rayleigh_range is None:
        return beam.waist**2
    return beam.waist**2 * (1.0 + (z / beam.rayleigh_range) ** 2)


def brute_force_inverse_area_sq(beam_i, beam_ii, cloud, n_xy=221, n_z=201):
    """Direct 3D Simpson of |l_I|^2 |l_II|^2 rho / N (independent oracle)."""

    def simpson_w(n):
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return w / 3.0

    half_xy = 6.0 * max(beam_i.waist, beam_ii.waist, cloud.sigma)
    half_z = 6.0 * np.sqrt(2.0 * np.pi) * cloud.sigma
    x = np.linspace(-half_xy, half_xy, n_xy)
    z = np.linspace(-half_z, half_z, n_z)
    wx = simpson_w(n_xy) * (x[1] - x[0])
    wz = simpson_w(n_z) * (z[1] - z[0])
    total = 0.0
    for zi, wzi in zip(z, wz):
        w2_i = w_squared(beam_i, float(zi))
        w2_ii = w_squared(beam_ii, float(zi))
        profile = (
            (2.0 / (np.pi * w2_i)) * (2.0 / (np.pi * w2_ii))
            * np.exp(-2.0 * (x[:, None] ** 2 + x[None, :] ** 2) * (1.0 / w2_i + 1.0 / w2_ii))
        )
        rho = cloud_density(cloud, x[:, None], x[None, :], zi)
        total += wzi * np.sum(profile * rho * wx[:, None] * wx[None, :])
    return total / cloud.n_atoms


class TestConversions:
    def test_fwhm_to_sigma_unit_case(self):
        assert fwhm_to_sigma(2.0 * np.sqrt(2.0 * np.log(2.0))) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        sigma = 3.7e-5
        fwhm = sigma * 2.0 * np.sqrt(2.0 * np.log(2.0))
        assert fwhm_to_sigma(fwhm) == pytest.approx(sigma, rel=1e-12)

    def test_waist_conventions(self):
        fwhm = 1.0e-4
        assert waist_fwhm_to_w0(fwhm) == pytest.approx(fwhm / np.sqrt(2 * np.log(2)), rel=1e-12)
        assert waist_fwhm_to_w0(fwhm, "half") == pytest.approx(fwhm / 2.0, rel=1e-12)
        with pytest.raises(ValueError):
            waist_fwhm_to_w0(fwhm, "bogus")

    def test_cloud_density_integrates_to_n_atoms(self):
        cloud = AtomCloud(2.0e-5, 12345.0)
        half = 8.0 * cloud.sigma
        n = 81
        x = np.linspace(-half, half, n)
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (x[1] - x[0]) / 3.0
        total = np.einsum(
            "i,j,k,ijk->",
            w, w, w,
            cloud_density(cloud, x[:, None, None], x[None, :, None], x[None, None, :]),
        )
        assert total == pytest.approx(cloud.n_atoms, rel=1e-3)


class TestEffectiveArea:
    def test_matches_3d_brute_force_equal_beams(self):
        beam = BeamProfile(4.0e-5, wavelength=895e-9)
        cloud = AtomCloud(3.0e-5, 1e5)
        res = effective_area(beam, beam, cloud)
        brute = brute_force_inverse_area_sq(beam, beam, cloud)
        assert 1.0 / res.a_eff**2 == pytest.approx(brute, rel=2e-3)

    def test_matches_3d_brute_force_unequal_beams(self):
        beam_i = BeamProfile(4.0e-5, wavelength=895e-9)
        beam_ii = BeamProfile(6.5e-5, wavelength=1.36e-6)
        cloud = AtomCloud(2.5e-5, 1e5)
        res = effective_area(beam_i, beam_ii, cloud)
        brute = brute_force_inverse_area_sq(beam_i, beam_ii, cloud)
        assert 1.0 / res.a_eff**2 == pytest.approx(brute, rel=2e-3)

    def test_point_cloud_limit(self):
        w0 = 5.0e-5
        beam = BeamProfile(w0)  # collimated
        res = effective_area(beam, beam, AtomCloud(w0 / 100.0, 1e6))
        assert res.a_eff == pytest.approx(np.pi * w0**2 / 2.0, rel=1e-2)

    def test_monotone_in_cloud_width(self):
        beam = BeamProfile(5.0e-5, wavelength=895e-9)
        areas = [
            effective_area(beam, beam, AtomCloud(s, 1e6)).a_eff
            for s in np.geomspace(5e-6, 2e-4, 6)
        ]
        assert all(a2 > a1 for a1, a2 in zip(areas, areas[1:]))

    def test_beam_swap_symmetry(self):
        beam_i = BeamProfile(4.0e-5, wavelength=895e-9)
        beam_ii = BeamProfile(7.0e-5, wavelength=1.36e-6)
        cloud = AtomCloud(3.0e-5, 1e4)
        a12 = effective_area(beam_i, beam_ii, cloud).a_eff
        a21 = effective_area(beam_ii, beam_i, cloud).a_eff
        assert a12 == pytest.approx(a21, rel=1e-12)

    @pytest.mark.parametrize("pair", ["equal", "unequal", "collimated"])
    @pytest.mark.parametrize("z_r", GRID_RAYLEIGH)
    @pytest.mark.parametrize("sigma", GRID_SIGMAS)
    def test_matches_mpmath_oracle(self, sigma, z_r, pair):
        # Equal beams carry the closed form's cancellation, about
        # eps w0^2 / (8 sigma^2): 7e-14 at sigma = 0.02 w0.
        beam_i, beam_ii = grid_beams(pair, None if z_r is None else z_r * GRID_W0)
        cloud = AtomCloud(sigma * GRID_W0, 1e6)
        a_eff = effective_area(beam_i, beam_ii, cloud).a_eff
        tol = 2e-13 if pair == "equal" else 1e-15
        assert 1.0 / a_eff**2 == pytest.approx(inverse_area_sq(beam_i, beam_ii, cloud), rel=tol)

    def test_mot_case_study_regression(self, mot_area):
        # ~1.96e4 um^2: the closed form for these inputs, not the quoted
        # 220 um^2, which is below the lower bound (see DECISIONS.md).
        assert mot_area == pytest.approx(MOT_AEFF_COMPUTED, rel=1e-14)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BeamProfile(0.0)
        with pytest.raises(ValueError):
            AtomCloud(-1.0, 10.0)
