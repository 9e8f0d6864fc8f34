import numpy as np
import pytest
import scipy.constants

from sqfluor import constants
from sqfluor.spectral import GreenFunctionParams, LorentzianLineshape, green, lorentzian
from sqfluor.system import (
    CrossSectionPrefactor,
    DipoleCoupling,
    FourLevelSystem,
    MissingRateError,
    cross_section,
    cs_preset,
    dipole_from_rate,
    eta_prefactor,
    radiative_rate,
)

from conftest import CS_RATES

# Golden values frozen from the first verified computation with the shipped
# Cs rate table (regression anchors, not first-principles constants).
CS_ETA_GOLDEN = 2.0176993031193936e-12
CS_MU_SQ_BA_GOLDEN = 2.429759276226129e-58


def generic_system(**overrides):
    kwargs = dict(
        omega_ba=2.0e15,
        omega_cb=1.4e15,
        omega_cd=1.3e15,
        omega_da=2.1e15,
        gamma_r={"ba": 2e7, "cb": 5e6, "cd": 9e6, "da": 3e7},
        gamma_nr={"ba": 1e6, "cb": 2e6, "cd": 0.0, "da": 4e6},
    )
    kwargs.update(overrides)
    return FourLevelSystem(**kwargs)


class TestFourLevelSystem:
    def test_loop_closure_enforced(self):
        with pytest.raises(ValueError, match="loop"):
            generic_system(omega_da=2.2e15)

    def test_width_composition(self):
        sys4 = generic_system()
        assert sys4.gamma_b == 2e7 + 1e6
        assert sys4.gamma_c == (5e6 + 2e6) + (9e6 + 0.0)
        assert sys4.gamma_d == 3e7 + 4e6
        assert sys4.gamma("cb") == sys4.gamma_r["cb"] + sys4.gamma_nr["cb"]
        assert sys4.omega_ca == sys4.omega_ba + sys4.omega_cb

    def test_missing_rate_named(self):
        with pytest.raises(MissingRateError, match="cd"):
            generic_system(gamma_r={"ba": 1e7, "cb": 1e6, "da": 1e7})

    def test_zero_intermediate_width_rejected(self):
        with pytest.raises(ValueError):
            generic_system(
                gamma_r={"ba": 0.0, "cb": 5e6, "cd": 9e6, "da": 3e7},
                gamma_nr={"ba": 0.0, "cb": 0.0, "cd": 0.0, "da": 0.0},
            )


class TestRadiativeRate:
    def test_zero_dipole(self):
        assert radiative_rate(2.0e15, 0.0) == 0.0

    def test_cubic_scaling(self):
        base = radiative_rate(1.0e15, 1e-58)
        assert radiative_rate(2.0e15, 1e-58) == pytest.approx(8.0 * base, rel=1e-12)

    def test_round_trip_with_projection_factor(self):
        gamma = 2.87e7
        omega = 2.1e15
        mu_sq_projected = dipole_from_rate(gamma, omega)
        assert radiative_rate(omega, 3.0 * mu_sq_projected) == pytest.approx(gamma, rel=1e-12)

    def test_dipole_hand_evaluation(self):
        # Independent arithmetic with literal constants: the projected matrix
        # element is one third of Gamma * 3 pi eps0 c^3 hbar / omega^3.
        eps0 = 8.8541878188e-12  # CODATA 2022
        c = 2.99792458e8
        hbar = 1.0545718176461565e-34  # CODATA 2022: h / 2 pi, h = 6.62607015e-34 exactly
        omega = 2.0 * np.pi * c / 895e-9
        gamma = CS_RATES["gamma_r"]["ba"]
        by_hand = gamma * 3.0 * np.pi * eps0 * c**3 * hbar / omega**3 / 3.0
        assert dipole_from_rate(gamma, omega) == pytest.approx(by_hand, rel=1e-9, abs=0.0)
        assert by_hand == pytest.approx(CS_MU_SQ_BA_GOLDEN, rel=1e-9, abs=0.0)


class TestEta:
    def test_zero_dipole_rejected_by_invariant(self):
        # The prefactor type requires strictly positive couplings; a vanishing
        # matrix element is a construction error, and the formula limit is 0.
        with pytest.raises(ValueError):
            DipoleCoupling(0.0, 1e-58)
        with pytest.raises(ValueError):
            CrossSectionPrefactor(0.0)

    def test_linear_in_band_centers(self, cs_system):
        system, coupling = cs_system
        base = eta_prefactor(system, coupling, 1.0e15, 2.0e15).eta
        assert eta_prefactor(system, coupling, 3.0e15, 2.0e15).eta == pytest.approx(
            3.0 * base, rel=1e-12, abs=0.0
        )
        assert eta_prefactor(system, coupling, 1.0e15, 5.0e15).eta == pytest.approx(
            2.5 * base, rel=1e-12, abs=0.0
        )

    def test_cs_golden_value(self, cs_eta):
        assert cs_eta.eta == pytest.approx(CS_ETA_GOLDEN, rel=1e-9, abs=0.0)


class TestCrossSection:
    def test_double_resonance_closed_form(self, cs_system, cs_eta):
        system, _ = cs_system
        peak = cross_section(system.omega_ba, system.omega_cb, system, cs_eta)
        expected = cs_eta.eta * (2.0 / (np.pi * system.gamma_c)) * (4.0 / system.gamma_b**2)
        assert peak == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_lorentzian_falloff_at_fixed_sum(self, cs_system, cs_eta):
        system, _ = cs_system
        gb = system.gamma_b
        peak = cross_section(system.omega_ba, system.omega_cb, system, cs_eta)
        detuned = cross_section(
            system.omega_ba + 10 * gb, system.omega_cb - 10 * gb, system, cs_eta
        )
        assert detuned / peak == pytest.approx(0.25 / 100.0, rel=5e-3)

    def test_compositional_oracle(self, cs_system, cs_eta):
        system, _ = cs_system
        rng = np.random.default_rng(7)
        w_i = system.omega_ba + rng.uniform(-20, 20, 100) * system.gamma_b
        w_ii = system.omega_cb + rng.uniform(-20, 20, 100) * system.gamma_c
        direct = cross_section(w_i, w_ii, system, cs_eta)
        shape = LorentzianLineshape(system.omega_ca, system.gamma_c)
        g = GreenFunctionParams(system.omega_ba, system.gamma_b, 0.0)
        oracle = cs_eta.eta * lorentzian(w_i + w_ii, shape) * np.abs(green(w_i, g)) ** 2
        assert np.allclose(direct, oracle, rtol=1e-12, atol=0.0)

    def test_argmax_in_band_i_at_resonance(self, cs_system, cs_eta):
        system, _ = cs_system
        w_i = system.omega_ba + np.linspace(-5, 5, 2001) * system.gamma_b
        sigma = cross_section(w_i, system.omega_ca - w_i, system, cs_eta)
        assert abs(w_i[np.argmax(sigma)] - system.omega_ba) <= system.gamma_b / 100


class TestCsPreset:
    def test_width_ratio_matches_publication(self, cs_system):
        system, _ = cs_system
        assert system.gamma_b / system.gamma_c == pytest.approx(2.11, abs=0.01)

    def test_pump_wavelength(self, cs_system):
        system, _ = cs_system
        c = 2.99792458e8
        assert system.omega_ba == pytest.approx(2.0 * np.pi * c / 895e-9, rel=1e-12)

    def test_nonradiative_default_zero(self, cs_system):
        system, _ = cs_system
        assert all(v == 0.0 for v in system.gamma_nr.values())

    def test_missing_rates_error(self):
        with pytest.raises(MissingRateError):
            cs_preset({})
        with pytest.raises(MissingRateError, match="da"):
            cs_preset({"gamma_r": {"ba": 1e7, "cb": 1e6, "cd": 1e6}})

    def test_loop_closed_by_construction(self, cs_system):
        system, _ = cs_system
        assert system.omega_ba + system.omega_cb == pytest.approx(
            system.omega_cd + system.omega_da, rel=1e-14
        )


def test_constants_are_the_scipy_floats():
    assert constants.C_LIGHT == scipy.constants.c
    assert constants.EPS0 == scipy.constants.epsilon_0
    assert constants.HBAR == scipy.constants.hbar
    assert constants.PI == scipy.constants.pi
