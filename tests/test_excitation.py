import ast
import inspect
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.fft
from scipy.integrate import quad
import oracles
from oracles import (
    SUPPORT_EPSILON,
    ExactHermiteLatticeEngine,
    LatticePulsedEngine,
    RegimeViolationError,
    classical_pulse_pair_probability,
    classical_pulsed_population,
    eager_schmidt_decompose_analytic,
    cw_population_integral,
    gauss_legendre_mpmath,
    lattice_correlate,
    mode_time_profiles,
    modes_at,
    rate_squeezed_cw_broadband,
    scipy_lattice_correlate,
    truncated,
)

import sqfluor.excitation as excitation
from sqfluor.excitation import (
    CwExcitationEngine,
    PulsedExcitationEngine,
    VALIDITY_THRESHOLD,
    ExcitationOutcome,
    energy_ledger,
    fluorescence,
    matched_classical_cw,
    matched_classical_pulsed,
    max_intermediate_population,
    one_photon_coupling,
    p_classical_pulsed,
    p_squeezed_pulsed,
    population_integrals_from_probability,
    rate_classical_cw,
    rate_squeezed_cw,
    within_validity,
)
from sqfluor.sources import (
    ClassicalCW,
    ClassicalPulsed,
    SqueezedCW,
    SqueezedPulsed,
    gain_functions_cw,
    mode_squeezing,
    photon_number_pulsed,
    photon_rate_cw,
    schmidt_decompose,
)
from sqfluor.spectral import (
    ConvergenceError, GaussianAmplitude, NumericalError, green, lorentzian,
)
from sqfluor.system import FourLevelSystem, cross_section

# Regression anchor: coherent/classical for sigma_p = Gamma_b/10,
# sigma_c = Gamma_b at 0.01 photons per pulse (first verified run).
FIG6_TOP_MIDDLE_FACTOR = 356.54


def pulse_pair(system, width_over_gamma_b, ratio_ii=1.0, detuning_over_gamma_b=0.0):
    """One photon per band; sigma_II = ratio_ii sigma_I, band I detuned from omega_ba."""
    sigma, gb = width_over_gamma_b * system.gamma_b, system.gamma_b
    return ClassicalPulsed(
        GaussianAmplitude(system.omega_ba + detuning_over_gamma_b * gb, sigma),
        GaussianAmplitude(system.omega_cb, ratio_ii * sigma),
        1.0, 1.0,
    )


def classical_pulse_pair(system, sigma, n_photons):
    return ClassicalPulsed(
        GaussianAmplitude(system.omega_ba, sigma),
        GaussianAmplitude(system.omega_cb, sigma),
        n_photons,
        n_photons,
    )


GAUSS_SIZES = [10, 12, 16, 24, 32, 64, 512]


class TestGaussKronrod:
    """`excitation._gauss_kronrod(n)`, the rule every table settles on."""

    @pytest.mark.parametrize("n", GAUSS_SIZES)
    def test_rows_integrate_legendre_polynomials(self, n):
        # Int_0^1 P_d(2x - 1) dx is 1 at d = 0 and 0 above: the Kronrod row
        # is exact to d = 3n + 1, the Gauss row to d = 2n - 1.
        x, weights = excitation._gauss_kronrod(n)
        assert x.shape == (2 * n + 1,) and weights.shape == (2, 2 * n + 1)
        t = 2.0 * x - 1.0
        previous, p = np.zeros_like(t), np.ones_like(t)
        for d in range(3 * n + 2):
            exact = 1.0 if d == 0 else 0.0
            assert abs(float(weights[0] @ p) - exact) <= 1e-14, ("Kronrod", d)
            if d <= 2 * n - 1:
                assert abs(float(weights[1] @ p) - exact) <= 1e-14, ("Gauss", d)
            previous, p = p, ((2 * d + 1) * t * p - d * previous) / (d + 1)

    @pytest.mark.parametrize("n", GAUSS_SIZES)
    def test_gauss_row_is_gauss_legendre(self, n):
        # The odd-position nodes and the Gauss row are `leggauss(n)` on [0,
        # 1].  leggauss's own weights are off a 30-digit rule by up to
        # 1.2e-15 at n = 64 and 2.6e-15 at n = 512, so the weights are held
        # to that rule at 1e-15 (n <= 64; mpmath takes 2.6 s at 512) and to
        # leggauss at 3e-15.
        x, weights = excitation._gauss_kronrod(n)
        nodes, gauss = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x[1::2] - 0.5 * (nodes + 1.0))) <= 1e-15
        assert np.all(weights[1, ::2] == 0.0)
        assert np.max(np.abs(weights[1, 1::2] - 0.5 * gauss)) <= 3e-15
        if n <= 64:
            exact_nodes, exact_weights = gauss_legendre_mpmath(n)
            assert np.max(np.abs(x[1::2] - exact_nodes)) <= 1e-15
            assert np.max(np.abs(weights[1, 1::2] - exact_weights)) <= 1e-15

    def test_n10_is_quadpack_gk21(self):
        # QUADPACK's GK21 constants as scipy writes them (nodes from +1 down
        # to -1; 10 Gauss weights at the odd positions, 21 Kronrod weights).
        from scipy.integrate import _quad_vec

        tree = ast.parse(inspect.getsource(_quad_vec._quadrature_gk21))
        constants = {
            node.targets[0].id: np.array(ast.literal_eval(node.value), dtype=float)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        x, weights = excitation._gauss_kronrod(10)
        assert np.max(np.abs(x - 0.5 * (1.0 - constants["x"]))) <= 1e-15
        assert np.max(np.abs(weights[0] - 0.5 * constants["v"])) <= 1e-15
        assert np.max(np.abs(weights[1, 1::2] - 0.5 * constants["w"])) <= 1e-15

    def test_doubled_measures_the_difference_against_the_size_of_the_integrals(self):
        # A table whose Kronrod and Gauss values differ by 1e-12 of its
        # largest entry but 1e-14 of the size of its integrals (an
        # oscillating integrand) settles at its first level, with rel
        # from the size; one that never comes within TABLE_REL_TOL raises.
        calls = []

        def table(n):
            calls.append(n)
            values = np.array([1.0, -0.5])
            return np.stack([values, values * (1.0 + 1e-12)]), np.array([100.0, 50.0])

        values, n_nodes, rel = excitation._doubled(table, 32, "synthetic table")
        assert calls == [32] and n_nodes == 32 and values.tolist() == [1.0, -0.5]
        assert rel == pytest.approx(1e-14, rel=1e-3)
        with pytest.raises(ConvergenceError, match="synthetic table did not converge"):
            excitation._doubled(lambda n: (np.array([[1.0], [1.1]]), np.array([1.0])), 32, "synthetic table")


class TestClassicalCW:
    def test_zero_flux(self, cs_system, cs_eta):
        system, _ = cs_system
        out = rate_classical_cw(ClassicalCW(0.0, 1e10, system.omega_ba, system.omega_cb), system, cs_eta)
        assert out.total == 0.0
        assert out.incoherent == 0.0

    def test_resonant_closed_form(self, cs_system, cs_eta):
        system, _ = cs_system
        flux = 3.2e14
        out = rate_classical_cw(
            ClassicalCW(flux, 2 * flux, system.omega_ba, system.omega_cb), system, cs_eta
        )
        expected = (
            flux * 2 * flux * cs_eta.eta
            * (2.0 / (np.pi * system.gamma_c)) * (4.0 / system.gamma_b**2)
        )
        assert out.total == pytest.approx(expected, rel=1e-12)

    def test_exactly_bilinear(self, cs_system, cs_eta):
        system, _ = cs_system
        base = rate_classical_cw(
            ClassicalCW(1e12, 1e12, system.omega_ba, system.omega_cb), system, cs_eta
        ).total
        double = rate_classical_cw(
            ClassicalCW(2e12, 3e12, system.omega_ba, system.omega_cb), system, cs_eta
        ).total
        assert double == pytest.approx(6.0 * base, rel=1e-12)

    def test_a_given_cross_section_gives_the_same_bits(self, cs_system, cs_eta):
        system, _ = cs_system
        sigma = cross_section(system.omega_ba, system.omega_cb, system, cs_eta)
        for flux in (1e-3, 3.2e14, 7.1e22):
            src = ClassicalCW(flux, flux, system.omega_ba, system.omega_cb)
            assert (
                rate_classical_cw(src, system, cs_eta, sigma=sigma).total
                == rate_classical_cw(src, system, cs_eta).total
            )


class TestClassicalPulsed:
    def test_zero_photons(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        src = classical_pulse_pair(system, system.gamma_b, 0.0)
        out = p_classical_pulsed(src, system, cs_eta, mot_area, coupling)
        assert out.total == 0.0
        assert out.max_population == 0.0

    @pytest.mark.parametrize("n_i, n_ii", [(0.0, 0.0), (0.0, 2.0), (3.0, 0.0), (1.5, 2.0)])
    def test_validity_is_the_intermediate_population(self, cs_system, cs_eta, mot_area, n_i, n_ii):
        # The peak population of band I alone, against adaptive quadrature
        # of M(t) at each of the same 121 times; the coupling leaves the
        # probability as it is.
        system, coupling = cs_system
        src = ClassicalPulsed(
            GaussianAmplitude(system.omega_ba, system.gamma_b),
            GaussianAmplitude(system.omega_cb, system.gamma_b),
            n_i, n_ii,
        )
        out = p_classical_pulsed(src, system, cs_eta, mot_area, coupling)
        pop = classical_pulsed_population(src, system, coupling, mot_area)
        assert out.max_population == pytest.approx(pop, rel=1e-6, abs=0.0)
        assert (pop > 0.0) == (n_i > 0.0)
        assert out.total == p_classical_pulsed(src, system, cs_eta, mot_area).total

    @pytest.mark.parametrize("width_over_gamma_b, ratio_ii, detuning_over_gamma_b", [
        (1e-3, 3.0, 2.0), (1.0, 1.0, 0.0), (1e3, 1.0, 0.0), (1e3, 3.0, 2.0),
    ])
    def test_population_matches_quadrature(
        self, cs_system, cs_eta, mot_area, width_over_gamma_b, ratio_ii, detuning_over_gamma_b
    ):
        # Each M(t) is a Faddeeva value; adaptive quadrature of the same
        # integral on the same time grid, for pulses much narrower and much
        # wider than the Green line and a band-I centre off resonance.
        system, coupling = cs_system
        src = pulse_pair(system, width_over_gamma_b, ratio_ii, detuning_over_gamma_b)
        got = p_classical_pulsed(src, system, cs_eta, mot_area, coupling).max_population
        ref = classical_pulsed_population(src, system, coupling, mot_area)
        assert got == pytest.approx(ref, rel=1e-6, abs=0.0)

    def test_bilinear_in_photon_numbers(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        base = p_classical_pulsed(
            classical_pulse_pair(system, system.gamma_b, 1.0), system, cs_eta, mot_area
        ).total
        quadrupled = p_classical_pulsed(
            classical_pulse_pair(system, system.gamma_b, 2.0), system, cs_eta, mot_area
        ).total
        assert quadrupled == pytest.approx(4.0 * base, rel=1e-9, abs=0.0)

    def test_one_rung_ladder_reports_no_sampling_error(self, cs_system, cs_eta, mot_area):
        # A one-mode panel at 1 Gamma_b gets the single stride [1]: there is
        # no second rung to compare with, so the error is NaN, not 0.0.  A
        # multi-rung panel still reports a finite estimate.
        system, _ = cs_system
        gb = system.gamma_b
        separable = SqueezedPulsed(gb, gb, system.omega_ba, system.omega_cb)
        engine = LatticePulsedEngine(
            eager_schmidt_decompose_analytic(separable), system, cs_eta, mot_area
        )
        assert engine.ladder == [1]
        out = engine.outcome(0.7)
        assert out.total > 0.0
        assert np.isnan(out.diagnostics["incoherent_sampling_rel_err"])

        src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        dec = truncated(schmidt_decompose(src, trunc_tol=1e-6), 6)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert len(engine.ladder) > 1
        rel = engine.outcome(0.7).diagnostics["incoherent_sampling_rel_err"]
        assert np.isfinite(rel)

    def test_closed_form_reference_matches_nested_quadrature(self, cs_system, cs_eta, mot_area):
        # The Faddeeva reference against quad inside quad, once, at 1 Gamma_b:
        # the inner Int G_ba phi_I phi_II dbar-x is taken over u = x - c_I,
        # split at the Green line, and the outer over d = w - c_I - c_II.
        system, _ = cs_system
        sigma = system.gamma_b
        src = classical_pulse_pair(system, sigma, 1.0)
        norm = (np.pi * sigma**2) ** -0.5
        delta_i = src.amp_i.center - system.omega_ba
        delta_l = src.amp_i.center + src.amp_ii.center - system.omega_ca
        gb, gc = system.gamma_b, system.gamma_c

        def inner(d):
            center, reach = 0.5 * d, 12.0 * sigma / np.sqrt(2.0)

            def part(u, which):
                pair = norm * np.exp(-(u * u + (d - u) ** 2) / (2.0 * sigma**2))
                g = 1.0 / (-(delta_i + u) - 0.5j * gb)
                return which(g * pair) / np.sqrt(2.0 * np.pi)

            pole = -delta_i
            points = [pole] if center - reach < pole < center + reach else None
            re, im = (
                quad(part, center - reach, center + reach, args=(which,), points=points,
                     epsabs=1e-13 / gb, epsrel=1e-11, limit=200)[0]
                for which in (np.real, np.imag)
            )
            lorentz = (gc / (2.0 * np.pi)) / ((d + delta_l) ** 2 + 0.25 * gc**2)
            return lorentz * (re * re + im * im)

        reach = 12.0 * np.sqrt(2.0) * sigma
        value, _ = quad(inner, -reach, reach, points=[-delta_l],
                        epsabs=0.0, epsrel=1e-10, limit=400)
        nested = cs_eta.eta * value / mot_area**2
        assert classical_pulse_pair_probability(
            src, system, cs_eta, mot_area
        ) == pytest.approx(nested, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("ratio_ii, detuning_over_gamma_b", [
        (1.0, 0.0), (3.0, 0.0), (1.0, 2.0), (3.0, 2.0),
    ])
    @pytest.mark.parametrize("width_over_gamma_b", [1e-3, 0.01, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3])
    def test_matches_the_closed_form(
        self, cs_system, cs_eta, mot_area, width_over_gamma_b, ratio_ii, detuning_over_gamma_b
    ):
        # Equal and unequal widths (sigma_II = 3 sigma_I), on resonance and
        # with the band-I centre 2 Gamma_b off omega_ba.
        system, _ = cs_system
        src = pulse_pair(system, width_over_gamma_b, ratio_ii, detuning_over_gamma_b)
        got = p_classical_pulsed(src, system, cs_eta, mot_area).total
        exact = classical_pulse_pair_probability(src, system, cs_eta, mot_area)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("width_over_gamma_b, ratio_ii, detuning_over_gamma_b", [
        (1e-3, 1.0, 0.0), (0.01, 1.0, 2.0), (1.0, 3.0, 2.0), (1e3, 1.0, 0.0),
    ])
    def test_reports_its_quadrature_error(
        self, cs_system, cs_eta, mot_area, width_over_gamma_b, ratio_ii, detuning_over_gamma_b
    ):
        # The outer integral doubles its nodes as the squeezed tables do and
        # reports its last Gauss-Kronrod pair's difference.  At 0.01 Gamma_b
        # and 2 Gamma_b off omega_ba the integrand oscillates and Int
        # |integrand| is about 11 times the value; measured against the
        # value the difference would stall above TABLE_REL_TOL and raise at
        # MAX_TABLE_NODES.  `quadrature_nodes` counts the integrand's
        # evaluations, 2n + 2 per level of n Gauss nodes on two panels: the
        # integral settles within three levels (32, 64 and 128 nodes).
        system, _ = cs_system
        src = pulse_pair(system, width_over_gamma_b, ratio_ii, detuning_over_gamma_b)
        diagnostics = p_classical_pulsed(src, system, cs_eta, mot_area).diagnostics
        assert np.isfinite(diagnostics["quadrature_rel_err"])
        assert 0.0 <= diagnostics["quadrature_rel_err"] < 1e-12
        assert diagnostics["quadrature_nodes"] in (66, 66 + 130, 66 + 130 + 258)

    def test_cw_limit_oracle(self, cs_system, cs_eta, mot_area):
        # Narrowband resonant pulses: p / T_eff must approach the analytic CW
        # rate with T_eff = sqrt(2 pi)/sigma from the pulse-overlap integral
        # 1/T_eff = Int |phi(t)|^4 dt of the square-normalized Gaussian.
        system, _ = cs_system
        sigma = system.gamma_b / 100.0
        src = classical_pulse_pair(system, sigma, 1.0)
        prob = p_classical_pulsed(src, system, cs_eta, mot_area).total
        t_eff = np.sqrt(2.0 * np.pi) / sigma
        flux = 1.0 / (mot_area * t_eff)
        cw = rate_classical_cw(
            ClassicalCW(flux, flux, system.omega_ba, system.omega_cb), system, cs_eta
        ).total
        assert prob / t_eff == pytest.approx(cw, rel=2e-2)


class TestSqueezedCW:
    def test_vacuum(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        src = SqueezedCW(0.0, system.gamma_b, system.omega_ba, system.omega_cb)
        out = rate_squeezed_cw(src, system, cs_eta, mot_area, coupling)
        assert out.coherent == 0.0 and out.incoherent == 0.0
        assert out.max_population == 0.0

    def test_total_is_sum(self, cs_system, cs_eta, mot_area):
        # Every producer of an ExcitationOutcome, squeezed and classical.
        system, coupling = cs_system
        gb = system.gamma_b
        src = SqueezedCW(0.5, gb, system.omega_ba, system.omega_cb)
        gb_src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        outcomes = [
            rate_squeezed_cw(src, system, cs_eta, mot_area, coupling),
            rate_classical_cw(matched_classical_cw(src, mot_area, 1e9), system, cs_eta),
            p_squeezed_pulsed(gb_src, 0.8, system, cs_eta, mot_area, coupling),
            p_classical_pulsed(
                matched_classical_pulsed(gb_src, 0.8), system, cs_eta, mot_area
            ),
        ]
        for out in outcomes:
            assert out.total > 0.0
            assert out.total == out.coherent + out.incoherent

    def test_broadband_closed_form_within_ten_percent(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        src = SqueezedCW(2.0, 100 * system.gamma_b, system.omega_ba, system.omega_cb)
        full = rate_squeezed_cw(src, system, cs_eta, mot_area)
        limit = rate_squeezed_cw_broadband(src, system, cs_eta, mot_area)
        assert limit.coherent == pytest.approx(full.coherent, rel=0.10)
        assert limit.incoherent == pytest.approx(full.incoherent, rel=0.10)

    def test_broadband_ratio_limits(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        high = rate_squeezed_cw_broadband(
            SqueezedCW(25.0, 100 * gb, system.omega_ba, system.omega_cb),
            system, cs_eta, mot_area,
        )
        assert high.coherent / high.incoherent == pytest.approx(gb / gc, rel=1e-2)
        low = rate_squeezed_cw_broadband(
            SqueezedCW(1e-3, 100 * gb, system.omega_ba, system.omega_cb),
            system, cs_eta, mot_area,
        )
        assert low.coherent / low.incoherent == pytest.approx(
            (gb / gc) / np.sinh(1e-3) ** 2, rel=1e-3
        )

    def test_broadband_guard(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        src = SqueezedCW(1.0, 5 * system.gamma_b, system.omega_ba, system.omega_cb)
        with pytest.raises(RegimeViolationError):
            rate_squeezed_cw_broadband(src, system, cs_eta, mot_area)

    def test_narrowband_contributions_each_match_classical(self, cs_system, cs_eta, mot_area):
        # High gain, narrowband: coherent and incoherent each approach the
        # matched-flux classical rate individually.
        system, _ = cs_system
        src = SqueezedCW(12.0, 0.01 * system.gamma_b, system.omega_ba, system.omega_cb)
        out = rate_squeezed_cw(src, system, cs_eta, mot_area)
        classical = rate_classical_cw(
            matched_classical_cw(src, mot_area, photon_rate_cw(src)), system, cs_eta
        )
        assert out.coherent / classical.total == pytest.approx(1.0, abs=5e-3)
        assert out.incoherent / classical.total == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize(
        "beta_bar, ratio, detuning_b, detuning_c",
        [(1.3, 2.5, 7.0, 3.0), (1.3, 1.0, -2.0, 1.0), (3.0, 0.3, 0.5, -0.7)],
    )
    def test_detuned_rates_match_adaptive_quad(
        self, cs_system, cs_eta, mot_area, beta_bar, ratio, detuning_b, detuning_c
    ):
        # Band I detuned_b Gamma_b off omega_ba and the pump detuning_c Gamma_c
        # off omega_ca, so both the Green line's offset delta and L's offset
        # vc are nonzero.  Reference: adaptive quad of the unexpanded
        # integrands (no Gaussian series), in x = (w - c)/sigma_c_bar.
        system, _ = cs_system
        gb, gamma_c = system.gamma_b, system.gamma_c
        sigma = ratio * gb
        center_i = system.omega_ba + detuning_b * gb
        center_ii = (system.omega_ca + detuning_c * gamma_c) - center_i
        src = SqueezedCW(beta_bar, sigma, center_i, center_ii)
        out = rate_squeezed_cw(src, system, cs_eta, mot_area)

        delta = (system.omega_ba - center_i) / sigma
        vc = ((system.omega_ca - center_i) - center_ii) / sigma
        g, gc = 0.5 * gb / sigma, 0.5 * gamma_c / sigma
        assert abs(delta) > 0.1 and abs(vc) > 0.1
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=800)

        def gain(x):
            return beta_bar * np.exp(-0.5 * x * x)

        def sc_over_green(x, part):
            # s_I c_I G_ba dw = s_I c_I dx / (delta - x - i g).
            line = (delta - x) if part == "re" else g
            return np.sinh(gain(x)) * np.cosh(gain(x)) * line / ((delta - x) ** 2 + g * g)

        points = sorted({0.0, delta, delta - 10.0 * g, delta + 10.0 * g})
        amplitude = complex(*(
            quad(sc_over_green, -40.0, 40.0, args=(part,), points=points, **opts)[0]
            for part in ("re", "im")
        ))
        l_pump = float(lorentzian(src.pump_center, system.lineshape_ca()))
        coherent = cs_eta.eta * l_pump * abs(amplitude / (2.0 * np.pi)) ** 2 / mot_area**2
        assert out.coherent == pytest.approx(coherent, rel=1e-12, abs=0.0)

        def inner(x):
            # Int L(w) s_II^2(w - wI) dw in v = (w - c_I - c_II)/sigma_c_bar.
            def f(v):
                return (gc / np.pi) / ((v - vc) ** 2 + gc * gc) * np.sinh(gain(v - x)) ** 2

            kinks = sorted({q for q in (x, vc, vc - 10.0 * gc, vc + 10.0 * gc) if abs(q - x) < 14.0})
            return quad(f, x - 14.0, x + 14.0, points=kinks, **opts)[0]

        def outer(x):
            return np.sinh(gain(x)) ** 2 / ((x - delta) ** 2 + g * g) * inner(x)

        points = [q for q in points if abs(q) < 14.0]
        integral = quad(outer, -14.0, 14.0, points=points, **opts)[0] / sigma
        incoherent = cs_eta.eta * integral / ((2.0 * np.pi) ** 2 * mot_area**2)
        assert out.incoherent == pytest.approx(incoherent, rel=1e-12, abs=0.0)

    def test_diagnostics_report_the_series_and_the_table(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        src = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        diagnostics = rate_squeezed_cw(src, system, cs_eta, mot_area).diagnostics
        assert set(diagnostics) == {"series_terms", "quadrature_rel_err"}
        # At beta_bar = 10 the odd series (sinh cosh) keeps 36 terms, as many as sinh^2.
        assert diagnostics["series_terms"] == 36
        assert 0.0 < diagnostics["quadrature_rel_err"] <= excitation.TABLE_REL_TOL

    def test_table_raises_past_max_table_nodes(self, cs_system, cs_eta, mot_area, monkeypatch):
        # At sigma_c_bar = Gamma_b the table settles only at 64 nodes.
        system, _ = cs_system
        src = SqueezedCW(1.0, system.gamma_b, system.omega_ba, system.omega_cb)
        monkeypatch.setattr(excitation, "MAX_TABLE_NODES", 32)
        with pytest.raises(ConvergenceError, match="CW incoherent table did not converge"):
            rate_squeezed_cw(src, system, cs_eta, mot_area)
        monkeypatch.setattr(excitation, "MAX_TABLE_NODES", 64)
        assert rate_squeezed_cw(src, system, cs_eta, mot_area).incoherent > 0.0

    def test_column_engine_rejects_rows_it_cannot_read(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        column = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        engine = CwExcitationEngine(column, system, cs_eta, mot_area, coupling)
        # A row past the engine's beta_bar fails as a row, not as a programming error.
        with pytest.raises(NumericalError, match="past the engine's beta_bar_max") as info:
            rate_squeezed_cw(
                replace(column, beta_bar=10.5), system, cs_eta, mot_area, coupling, engine
            )
        assert not isinstance(info.value, ValueError)
        # An engine of another column, or of other inputs, is a programming error.
        for src, area in (
            (replace(column, sigma_c_bar=2.0 * system.gamma_b), mot_area),
            (replace(column, center_i=system.omega_ba + system.gamma_b), mot_area),
            (column, 2.0 * mot_area),
        ):
            with pytest.raises(ValueError, match="another column"):
                rate_squeezed_cw(src, system, cs_eta, area, coupling, engine)

    def test_photon_rate_from_the_column_engine(self, cs_system, cs_eta, mot_area):
        # One dot product of the engine's terms with its weights, against the
        # closed sum of the row's own series.
        system, coupling = cs_system
        column = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        engine = CwExcitationEngine(column, system, cs_eta, mot_area, coupling)
        for beta_bar in (0.01, 0.3, 1.0, 3.0, 9.9, 10.0):
            src = replace(column, beta_bar=beta_bar)
            assert photon_rate_cw(src, engine) == pytest.approx(
                photon_rate_cw(src), rel=1e-14, abs=0.0
            )

    def test_photon_rate_rejects_an_engine_of_another_column(
        self, cs_system, cs_eta, mot_area
    ):
        system, coupling = cs_system
        column = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        engine = CwExcitationEngine(column, system, cs_eta, mot_area, coupling)
        for src in (
            replace(column, beta_bar=1.0, sigma_c_bar=2.0 * system.gamma_b),
            replace(column, beta_bar=1.0, center_i=system.omega_ba + system.gamma_b),
            replace(column, beta_bar=0.0, center_ii=system.omega_cb + system.gamma_b),
        ):
            with pytest.raises(ValueError, match="another column"):
                photon_rate_cw(src, engine)

    def test_photon_rate_past_the_engine_fails_as_a_row(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        column = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        engine = CwExcitationEngine(column, system, cs_eta, mot_area, coupling)
        with pytest.raises(NumericalError, match="past the engine's beta_bar_max") as info:
            photon_rate_cw(replace(column, beta_bar=10.5), engine)
        assert not isinstance(info.value, ValueError)
        with pytest.raises(NumericalError, match="needs more than 480 terms"):
            photon_rate_cw(replace(column, beta_bar=400.0), engine)

    def test_photon_rate_from_the_engine_at_zero_gain(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        column = SqueezedCW(10.0, system.gamma_b, system.omega_ba, system.omega_cb)
        engine = CwExcitationEngine(column, system, cs_eta, mot_area, coupling)
        assert photon_rate_cw(replace(column, beta_bar=0.0), engine) == 0.0

    def test_overflowing_rates_raise_numerical_error(self, cs_system, cs_eta, mot_area):
        # The rates are products of two gains, past the largest double from
        # about beta_bar = 178 on, well before the series run out (353).
        system, coupling = cs_system
        assert rate_squeezed_cw(
            SqueezedCW(170.0, system.gamma_b, system.omega_ba, system.omega_cb),
            system, cs_eta, mot_area, coupling,
        ).total < np.inf
        with pytest.raises(NumericalError, match="overflow a double"):
            rate_squeezed_cw(
                SqueezedCW(200.0, system.gamma_b, system.omega_ba, system.omega_cb),
                system, cs_eta, mot_area, coupling,
            )

    def test_detuned_pump_matches_brute_force(self, cs_system, cs_eta, mot_area):
        # Band-I center 7 Gamma_b above the intermediate resonance and the
        # pump 3 Gamma_c above the two-photon line: exercises the off-center
        # kernel paths of both quadrature passes.
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        center_i = system.omega_ba + 7.0 * gb
        center_ii = (system.omega_ca + 3.0 * gc) - center_i
        src = SqueezedCW(1.3, 2.5 * gb, center_i, center_ii)
        out = rate_squeezed_cw(src, system, cs_eta, mot_area)

        def simpson(n):
            w = np.ones(n)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            return w / 3.0

        sig = src.sigma_c_bar
        area = mot_area
        shape = system.lineshape_ca()
        # coherent: single dense pass over band I
        n_i = 800_001
        span = max(9 * sig, 7.0 * gb + 40 * gb)
        w_i = np.linspace(center_i - span, center_i + span, n_i)
        wts = simpson(n_i) * (w_i[1] - w_i[0])
        s, c = gain_functions_cw(w_i, src, "I")
        amp = np.sum(wts * green(w_i, system.green_ba()) * s * c)
        coh_brute = (
            cs_eta.eta * float(lorentzian(src.pump_center, shape))
            * abs(amp / (2.0 * np.pi)) ** 2 / area**2
        )
        assert out.coherent == pytest.approx(coh_brute, rel=2e-3)
        # incoherent: dense nested pass
        n_1, n_2 = 2001, 4001
        w_i = np.linspace(center_i - 9 * sig, center_i + 9 * sig, n_1)
        w1 = simpson(n_1) * (w_i[1] - w_i[0])
        s_i, _ = gain_functions_cw(w_i, src, "I")
        g2 = np.abs(green(w_i, system.green_ba())) ** 2
        total = 0.0
        for wi, wgt, si2, gg in zip(w_i, w1, s_i**2, g2):
            lo = min(wi + center_ii - 9 * sig, system.omega_ca - 40 * gc)
            hi = max(wi + center_ii + 9 * sig, system.omega_ca + 40 * gc)
            w = np.linspace(lo, hi, n_2)
            w2 = simpson(n_2) * (w[1] - w[0])
            s_ii, _ = gain_functions_cw(w - wi, src, "II")
            total += wgt * si2 * gg * np.sum(w2 * lorentzian(w, shape) * s_ii**2)
        incoh_brute = cs_eta.eta * total / ((2.0 * np.pi) ** 2 * area**2)
        assert out.incoherent == pytest.approx(incoh_brute, rel=2e-3)


def brute_force_pulsed(dec, beta, system, eta, area, refine=1):
    """Dense nested-Simpson oracle for both pulsed squeezed contributions.

    It integrates over the whole JSA grid span, at inner step Gamma_b/10 and
    outer step Gamma_c/5, both divided by `refine`.
    """
    gb = system.gamma_b
    x_lo = dec.grid_i.center - dec.grid_i.half_span
    x_hi = dec.grid_i.center + dec.grid_i.half_span
    n_x = int((x_hi - x_lo) / (gb / (10.0 * refine))) | 1
    x = np.linspace(x_lo, x_hi, n_x)
    w_x = np.ones(n_x)
    w_x[1:-1:2], w_x[2:-1:2] = 4.0, 2.0
    w_x *= (x[1] - x[0]) / 3.0
    out_center = dec.grid_i.center + dec.grid_ii.center
    half_out = dec.grid_i.half_span + dec.grid_ii.half_span - 2 * dec.grid_i.half_span / n_x
    n_w = int(2 * half_out / (system.gamma_c / (5.0 * refine))) | 1
    w_grid = np.linspace(out_center - half_out, out_center + half_out, n_w)
    w_w = np.ones(n_w)
    w_w[1:-1:2], w_w[2:-1:2] = 4.0, 2.0
    w_w *= (w_grid[1] - w_grid[0]) / 3.0

    g_vals = green(x, system.green_ba())
    f_i = modes_at(dec, "I", x)
    b_mat = (w_x * g_vals)[None, :] * f_i / np.sqrt(2.0 * np.pi)
    shape = system.lineshape_ca()
    l_vals = lorentzian(w_grid, shape)
    pts_ii = dec.grid_ii.points
    k_all = np.empty((dec.n_modes, dec.n_modes, n_w), dtype=complex)
    for j, w in enumerate(w_grid):
        f_ii = np.vstack([
            np.interp(w - x, pts_ii, row, left=0.0, right=0.0) for row in dec.f_ii
        ])
        k_all[:, :, j] = f_ii @ b_mat.T
    r = mode_squeezing(dec.p, beta)
    s, c = np.sinh(r), np.cosh(r)
    amp = np.einsum("n,nnj->j", s * c, k_all)
    coherent = float(np.sum(w_w * l_vals * np.abs(amp) ** 2))
    weights = np.outer(s * s, s * s)
    incoherent = float(
        np.sum(w_w * l_vals * np.einsum("nm,nmj->j", weights, np.abs(k_all) ** 2))
    )
    return eta.eta * coherent / area**2, eta.eta * incoherent / area**2


def narrow_green_line(engine):
    """Whether the Green line is narrower than a quarter mode oscillation.

    Such an engine's step follows the modes alone; a wider line also bounds
    the step by Gamma_b / POINTS_PER_FEATURE.
    """
    return engine.sys.gamma_b < engine.osc / 4.0


def kernel_row(engine, n, m, stride):
    """Brute-force K_nm(w_j) = Int G_ba f_IIn(w_j - x) f_Im(x) dbar-x on one outer lattice.

    One dot product per outer point over the band-I support of mode m, with
    f_IIn(w_j - x_k) read as a strided view of the aligned band-II table.
    """
    fi_row = engine.fi[m]
    live = np.nonzero(np.abs(fi_row) > SUPPORT_EPSILON * np.max(np.abs(fi_row)))[0]
    k0, k1 = live[0], live[-1] + 1
    row = engine.fii_lat[n]
    step = row.strides[0]
    view = np.lib.stride_tricks.as_strided(
        row[engine.n_in - 1 :],
        shape=(engine.n_out(stride), engine.n_in),
        strides=(stride * step, -step),
        writeable=False,
    )[:, k0:k1]
    coeff = engine.cvec[k0:k1] * fi_row[k0:k1]
    return view @ coeff.real + 1j * (view @ coeff.imag)


@given(
    n_out=st.integers(1, 48),
    n_w=st.integers(1, 24),
    n_rows=st.integers(1, 3),
    n_modes=st.integers(1, 3),
    stride=st.integers(1, 6),
    extra=st.integers(0, 4),
    complex_weight=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_correlate_matches_direct_sum(
    n_out, n_w, n_rows, n_modes, stride, extra, complex_weight, seed
):
    # Entries share one magnitude scale (random sign, |x| in [0.5, 1.5]), so
    # the FFT's norm-wise rounding error bounds every output sum; the bound is
    # 1e-12 of that sum's absolute terms.
    rng = np.random.default_rng(seed)

    def entries(shape):
        return rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 1.5, shape)

    table = entries((n_rows, n_out + n_w - 1 + extra))
    weight = entries((n_modes, n_w))
    if complex_weight:
        weight = weight + 1j * entries((n_modes, n_w))
    got = lattice_correlate(weight, n_out)(table[:, None, :])
    assert got.shape == (n_rows, n_modes, n_out)
    for n in range(n_rows):
        for m in range(n_modes):
            for j in range(0, n_out, stride):
                terms = table[n, j : j + n_w] * weight[m]
                assert abs(got[n, m, j] - np.sum(terms)) <= 1e-12 * np.sum(np.abs(terms))


def test_fast_len_matches_scipy():
    lengths = range(1, 2**17 + 1)
    assert [oracles._fast_len(n) for n in lengths] == [
        scipy.fft.next_fast_len(n, real=True) for n in lengths
    ]


@pytest.mark.parametrize("complex_weight", [False, True])
@pytest.mark.parametrize(
    "n_out, n_w, weight_lead, table_lead",
    [
        (1, 1, (), ()),
        (48, 17, (3,), (2, 1)),
        (300, 257, (5,), ()),
        (1200, 1025, (12,), ()),
        (4096, 2049, (), (3,)),
    ],
)
def test_lattice_correlate_matches_scipy_fft_bit_for_bit(
    n_out, n_w, weight_lead, table_lead, complex_weight
):
    # numpy >= 2.0 and scipy.fft run the same pocketfft code, so the pulsed
    # kernel levels keep their bytes.  The engine's call is a stack of mode
    # weights against one table row, as in the (5,) and (12,) cases.
    rng = np.random.default_rng(n_out + n_w)
    weight = rng.standard_normal((*weight_lead, n_w))
    if complex_weight:
        weight = weight + 1j * rng.standard_normal(weight.shape)
    table = rng.standard_normal((*table_lead, n_out + n_w + 3))
    got = lattice_correlate(weight, n_out)(table)
    expected = scipy_lattice_correlate(weight, n_out)(table)
    assert got.shape == (*np.broadcast_shapes(weight_lead, table_lead), n_out)
    assert np.array_equal(got, expected)


def assert_levels_match_oracle(engine):
    """Coherent rows and T_nm at every ladder rung against kernel_row."""
    n_modes = engine.dec.n_modes
    for stride in engine.ladder:
        lam = engine.lorentz_weights[stride]
        rows = {
            (n, m): kernel_row(engine, n, m, stride)
            for n in range(n_modes)
            for m in range(n_modes)
        }
        expected = np.array([
            [lam @ np.abs(rows[n, m]) ** 2 for m in range(n_modes)] for n in range(n_modes)
        ])
        assert engine.incoherent_levels[stride] == pytest.approx(expected, rel=1e-12, abs=0.0)
        v_rows = engine.coherent_level(stride)
        diagonal = np.array([rows[n, n] for n in range(n_modes)])
        assert np.allclose(v_rows, diagonal, rtol=0.0, atol=1e-13 * np.max(np.abs(diagonal)))


class TestSqueezedPulsed:
    def test_vacuum(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        src = SqueezedPulsed(system.gamma_b, system.gamma_b, system.omega_ba, system.omega_cb)
        out = p_squeezed_pulsed(src, 0.0, system, cs_eta, mot_area)
        assert out.total == 0.0

    def test_zero_beta_is_exactly_zero(self, cs_system, cs_eta, mot_area):
        # At beta = 0 every series term is an exact zero, so every read is.
        system, coupling = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        engine = PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=1.0)
        out = engine.outcome(0.0)
        assert (out.coherent, out.incoherent, out.max_population) == (0.0, 0.0, 0.0)
        c, a = engine.series(0.0)
        assert not c.any() and not a.any()
        assert engine.coherent_probability(a) == 0.0
        assert engine.incoherent_probability(c) == 0.0

    def test_separable_identities(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        n_ph = 1.0
        beta = float(np.arcsinh(np.sqrt(n_ph)))
        src = SqueezedPulsed(system.gamma_b, system.gamma_b, system.omega_ba, system.omega_cb)
        out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area)
        classical = p_classical_pulsed(
            matched_classical_pulsed(src, beta), system, cs_eta, mot_area
        )
        # One mode (mu = 0): both tables are the classical kernel, exactly.
        assert out.coherent / out.incoherent == pytest.approx(1.0 + 1.0 / n_ph, rel=1e-12)
        assert out.total / classical.total == pytest.approx(2.0 + 1.0 / n_ph, rel=1e-2)

    def test_pair_regime_gain_order(self, cs_system, cs_eta, mot_area):
        # beta -> 0 with a correlated JSA: incoherent/coherent vanishes as the
        # photon number (pair-dominated regime).
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 4 * gb, system.omega_ba, system.omega_cb)
        ratios = []
        for beta in (1e-3, 2e-3):
            out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area)
            ratios.append(out.incoherent / out.coherent)
        assert ratios[1] / ratios[0] == pytest.approx(4.0, rel=5e-2)
        assert ratios[0] < 1e-4

    def test_engine_matches_brute_force(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 5 * gb, system.omega_ba, system.omega_cb)
        dec = schmidt_decompose(src, trunc_tol=1e-8)
        out = p_squeezed_pulsed(src, 1.0, system, cs_eta, mot_area)
        coh_brute, incoh_brute = brute_force_pulsed(dec, 1.0, system, cs_eta, mot_area)
        assert out.coherent == pytest.approx(coh_brute, rel=1e-2, abs=0.0)
        assert out.incoherent == pytest.approx(incoh_brute, rel=1e-2, abs=0.0)

    def test_padding_free_lattices_match_full_span_oracle(self, cs_system, cs_eta, mot_area):
        # Resolved Green pole on resonance at sigma_p = 0.1 Gamma_b: the
        # engine's lattices cover the mode supports only, narrower than the
        # JSA grid, while the oracle integrates the whole grid span.  Its
        # step-halving gap (refine 4 -> 8) is 7.5e-6 coherent and 1.06e-5
        # incoherent; the tolerances are 3x those.
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(0.1 * gb, 0.3 * gb, system.omega_ba, system.omega_cb)
        dec = truncated(schmidt_decompose(src, trunc_tol=1e-8), 3)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert not narrow_green_line(engine)
        assert engine.x[-1] - dec.grid_i.center < dec.grid_i.half_span
        assert engine.out_half < dec.grid_i.half_span + dec.grid_ii.half_span
        out = engine.outcome(1.0)
        coh_brute, incoh_brute = brute_force_pulsed(
            dec, 1.0, system, cs_eta, mot_area, refine=4
        )
        assert out.coherent == pytest.approx(coh_brute, rel=2.3e-5, abs=0.0)
        assert out.incoherent == pytest.approx(incoh_brute, rel=3.2e-5, abs=0.0)

    @pytest.mark.parametrize("detuned", [False, True])
    def test_coherent_form_is_the_lorentzian_read(
        self, cs_system, cs_eta, mot_area, detuned
    ):
        # w @ Q @ w = lam . |w @ V|^2 on every rung.  The detuned panel's
        # Green line is narrower than a quarter mode oscillation, and its
        # Lorentzian line narrower than its outer steps, so some of its
        # product-integration weights are negative.
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        if detuned:
            center_i = system.omega_ba + 5.0 * gb
            src = SqueezedPulsed(
                10 * gb, 50 * gb, center_i, (system.omega_ca + 2.0 * gc) - center_i
            )
            dec = truncated(eager_schmidt_decompose_analytic(src, trunc_tol=1e-6), 12)
        else:
            src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
            dec = truncated(schmidt_decompose(src, trunc_tol=1e-6), 6)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert narrow_green_line(engine) == detuned
        assert any(np.any(engine.lorentz_weights[s] < 0.0) for s in engine.ladder) == detuned
        for beta in (1e-4, 1e-3, 0.3, 1.5):
            r = mode_squeezing(dec.p, beta)
            w = np.sinh(r) * np.cosh(r)
            for stride in engine.ladder:
                form = w @ engine.coherent_forms[stride] @ w
                amp = w @ engine.coherent_level(stride)
                direct = engine.lorentz_weights[stride] @ np.abs(amp) ** 2
                assert form >= 0.0
                assert form == pytest.approx(direct, rel=1e-12, abs=0.0)
            assert engine.coherent_probability(beta)[0] >= 0.0

    def test_diagonal_kernel_identity(self, cs_system, cs_eta, mot_area):
        # The incoherent n = m kernel rows are exactly the coherent mode rows.
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        dec = schmidt_decompose(src, trunc_tol=1e-6)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        stride = engine.ladder[0]
        v_rows = engine.coherent_level(stride)
        for n in (0, 1, 3):
            row = kernel_row(engine, n, n, stride)
            scale = np.max(np.abs(row))
            assert np.allclose(row, v_rows[n], rtol=1e-10, atol=1e-11 * scale)

    def test_levels_match_oracle_with_resolved_green_line(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        dec = truncated(schmidt_decompose(src, trunc_tol=1e-6), 6)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert not narrow_green_line(engine)
        assert len(engine.ladder) > 1
        assert_levels_match_oracle(engine)

    def test_levels_match_oracle_with_narrow_green_line(self, cs_system, cs_eta, mot_area):
        # Detuned bands, so the line sits off the band centres.
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        center_i = system.omega_ba + 5.0 * gb
        center_ii = (system.omega_ca + 2.0 * gc) - center_i
        src = SqueezedPulsed(10 * gb, 50 * gb, center_i, center_ii)
        dec = truncated(eager_schmidt_decompose_analytic(src, trunc_tol=1e-6), 12)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert narrow_green_line(engine)
        assert len(engine.ladder) > 1
        assert_levels_match_oracle(engine)

    @pytest.mark.parametrize("detuned", [False, True])
    def test_one_correlator_call_per_mode(self, cs_system, cs_eta, mot_area, monkeypatch, detuned):
        # Both levels come from one pass: mode n's call gives K_nm for every
        # m, and its row n is the coherent row V_n, whether or not the Green
        # line also bounds the step.
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        if detuned:
            center_i = system.omega_ba + 5.0 * gb
            src = SqueezedPulsed(
                10 * gb, 50 * gb, center_i, (system.omega_ca + 2.0 * gc) - center_i
            )
        else:
            src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        dec = truncated(eager_schmidt_decompose_analytic(src, trunc_tol=1e-6), 6)
        tables = []

        def counting_correlate(weight, n_out):
            correlate = lattice_correlate(weight, n_out)

            def counted(table):
                tables.append(table.shape)
                return correlate(table)

            return counted

        monkeypatch.setattr(oracles, "lattice_correlate", counting_correlate)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area)
        assert narrow_green_line(engine) == detuned
        assert tables == [engine.fii_lat[0].shape] * dec.n_modes

    def test_detuned_engine_matches_brute_force(self, cs_system, cs_eta, mot_area):
        system, _ = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        center_i = system.omega_ba + 5.0 * gb
        center_ii = (system.omega_ca + 2.0 * gc) - center_i
        src = SqueezedPulsed(gb, 4 * gb, center_i, center_ii)
        dec = schmidt_decompose(src, trunc_tol=1e-8)
        out = p_squeezed_pulsed(src, 0.9, system, cs_eta, mot_area)
        coh_brute, incoh_brute = brute_force_pulsed(dec, 0.9, system, cs_eta, mot_area)
        assert out.coherent == pytest.approx(coh_brute, rel=1e-2, abs=0.0)
        assert out.incoherent == pytest.approx(incoh_brute, rel=1e-2, abs=0.0)

    def test_fig6_sweet_spot_regression(self, cs_system, cs_eta, mot_area):
        # sigma_p = Gamma_b/10, sigma_c = Gamma_b, 0.01 photons per pulse:
        # the coherent contribution beats the classical pulse pair by a large
        # factor (>= 10 qualitatively; exact value frozen on first run).
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb / 10.0, gb, system.omega_ba, system.omega_cb)
        dec = schmidt_decompose(src)
        from scipy.optimize import brentq

        beta = brentq(
            lambda b: np.sum(np.sinh(b * np.sqrt(dec.p)) ** 2) - 0.01, 0.0, 5.0, rtol=1e-13
        )
        out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area)
        classical = p_classical_pulsed(
            matched_classical_pulsed(src, beta), system, cs_eta, mot_area
        )
        factor = out.coherent / classical.total
        assert factor >= 10.0
        assert factor == pytest.approx(FIG6_TOP_MIDDLE_FACTOR, rel=2e-2)


class TestStepScan:
    """Values must not depend on where the lattice points fall against the lines.

    Stepping POINTS_PER_FEATURE from 12.00 to 12.50 moves the step by 4% and
    every node against the Green and Lorentzian poles.  Product-integration
    weights spread the coherent value by 2.3e-5 on the first panel and
    2.6e-7 on the second; the bounds reject Simpson weights with Green-core
    extraction, which spread it by 2.0e-3 and 1.9e-4.
    """

    @pytest.mark.parametrize(
        "sigma_p_over_gamma_b, sigma_c_over_sigma_p, coherent_spread, incoherent_spread",
        [(10.0, 10.0, 1e-4, 2e-4), (1.0, 3.0, 1e-5, 1e-5)],
    )
    def test_spread_over_points_per_feature(
        self, cs_system, cs_eta, mot_area, monkeypatch,
        sigma_p_over_gamma_b, sigma_c_over_sigma_p, coherent_spread, incoherent_spread,
    ):
        system, _ = cs_system
        sigma_p = sigma_p_over_gamma_b * system.gamma_b
        src = SqueezedPulsed(
            sigma_p, sigma_c_over_sigma_p * sigma_p, system.omega_ba, system.omega_cb
        )
        dec = eager_schmidt_decompose_analytic(src, trunc_tol=1e-6)
        values = []
        for points in np.linspace(12.0, 12.5, 11):
            monkeypatch.setattr(oracles, "POINTS_PER_FEATURE", points)
            engine = ExactHermiteLatticeEngine(src, dec, system, cs_eta, mot_area)
            out = engine.outcome(1.0)
            values.append((out.coherent, out.incoherent))
        coherent, incoherent = np.array(values).T
        assert np.ptp(coherent) / np.median(coherent) <= coherent_spread
        assert np.ptp(incoherent) / np.median(incoherent) <= incoherent_spread


class TestModeSignsAreFree:
    """Each Schmidt pair (f_In, f_IIn) is defined up to a common sign.

    Negating a pair negates every sum linear in one of its tables exactly,
    so every number the engine reports is bit-identical.
    """

    @pytest.mark.parametrize("detuned", [False, True])
    def test_flipped_pairs_give_identical_results(self, cs_system, cs_eta, mot_area, detuned):
        system, coupling = cs_system
        gb, gc = system.gamma_b, system.gamma_c
        if detuned:
            center_i = system.omega_ba + 5.0 * gb
            src = SqueezedPulsed(
                10 * gb, 50 * gb, center_i, (system.omega_ca + 2.0 * gc) - center_i
            )
        else:
            src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        dec = truncated(schmidt_decompose(src, trunc_tol=1e-6), 6)
        sign = np.ones((dec.n_modes, 1))
        sign[[1, 4]] = -1.0
        flipped = replace(dec, f_i=sign * dec.f_i, f_ii=sign * dec.f_ii)
        assert not np.array_equal(flipped.f_i, dec.f_i)

        results = []
        for d in (dec, flipped):
            engine = LatticePulsedEngine(d, system, cs_eta, mot_area, coupling)
            assert narrow_green_line(engine) == detuned
            out = engine.outcome(0.8)
            results.append((
                out.coherent, out.incoherent,
                out.diagnostics["coherent_sampling_rel_err"],
                out.diagnostics["incoherent_sampling_rel_err"],
                out.max_population,
            ))
        assert results[1] == results[0]


def _snapshot(value):
    """Identity of every object reachable through dicts, lists and tuples, plus array bytes."""
    if isinstance(value, np.ndarray):
        return ("array", id(value), value.tobytes())
    if isinstance(value, dict):
        return {key: _snapshot(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, id(value), [_snapshot(item) for item in value])
    return ("object", id(value))


class TestEngineBuildsWhatItReads:
    @pytest.fixture
    def few_mode_src(self, cs_system):
        system, _ = cs_system
        gb = system.gamma_b
        return SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)

    def test_builds_no_population_table_and_names_the_coupling(
        self, cs_system, cs_eta, mot_area, few_mode_src
    ):
        system, coupling = cs_system
        engine = PulsedExcitationEngine(few_mode_src, system, cs_eta, mot_area, r0_max=1.3)
        assert engine.population_table is None
        with pytest.raises(ValueError, match="coupling"):
            engine.max_population_weighted(np.ones(len(engine.c_orders)))
        coupled = PulsedExcitationEngine(
            few_mode_src, system, cs_eta, mot_area, coupling, r0_max=1.3
        )
        assert coupled.population_table.shape == (len(coupled.c_orders), 121)
        for beta in (0.0, 0.4, 1.3):
            out, ref = engine.outcome(beta), coupled.outcome(beta)
            assert out.max_population is None and ref.max_population >= 0.0
            assert (out.coherent, out.incoherent) == (ref.coherent, ref.incoherent)

    @pytest.mark.parametrize("sigma_p_over_gamma_b", [1.0, 10.0])
    def test_time_profiles_match_out_of_place_temporaries(
        self, cs_system, cs_eta, mot_area, sigma_p_over_gamma_b
    ):
        # The lattice oracle's phase matrix is exponentiated in place; the
        # bits must not move, with a Green line that bounds the step and
        # with one narrower than a quarter mode oscillation.
        system, coupling = cs_system
        sigma_p = sigma_p_over_gamma_b * system.gamma_b
        src = SqueezedPulsed(sigma_p, 6 * sigma_p, system.omega_ba, system.omega_cb)
        dec = truncated(schmidt_decompose(src, trunc_tol=1e-6), 6)
        engine = LatticePulsedEngine(dec, system, cs_eta, mot_area, coupling)
        assert narrow_green_line(engine) == (sigma_p_over_gamma_b == 10.0)
        assert engine.time_profiles.tobytes() == mode_time_profiles(engine).tobytes()

    def test_reads_reject_a_negative_beta_and_one_past_the_tables(
        self, cs_system, cs_eta, mot_area, few_mode_src
    ):
        system, coupling = cs_system
        engine = PulsedExcitationEngine(
            few_mode_src, system, cs_eta, mot_area, coupling, r0_max=1.3
        )
        reads = (engine.outcome, engine.series)
        for read in reads:
            with pytest.raises(ValueError, match="nonnegative"):
                read(-0.5)
        past = 1.3 / engine.sqrt_p0 * (1.0 + 1e-9)
        for read in reads:
            with pytest.raises(ValueError, match="r0_max"):
                read(past)


class TestEngineIsReadOnly:
    @pytest.fixture
    def few_mode(self, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 6 * gb, system.omega_ba, system.omega_cb)
        return PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=2.0)

    def test_public_methods_leave_the_engine_unchanged(self, few_mode):
        engine = few_mode
        before = _snapshot(vars(engine))
        for beta in (0.3, 1.1, np.array([0.0, 0.3, 1.1])):
            c, a = engine.series(beta)
            engine.outcome(beta)
            engine.coherent_probability(a)
            engine.incoherent_probability(c)
            engine.max_population_weighted(c)
        assert _snapshot(vars(engine)) == before

    def test_a_read_after_other_betas_equals_a_fresh_engines_first(self, few_mode):
        engine = few_mode
        fresh = PulsedExcitationEngine(
            engine.src, engine.sys, engine.eta, engine.area, engine.coupling,
            r0_max=engine.r0_max,
        )

        def bits(out):
            diagnostics = sorted((k, np.float64(v).tobytes()) for k, v in out.diagnostics.items())
            values = (out.coherent, out.incoherent, out.max_population)
            return [np.float64(v).tobytes() for v in values], diagnostics

        for beta in (0.05, 2.0, 0.0, 0.7):
            engine.outcome(beta)
        assert bits(engine.outcome(1.1)) == bits(fresh.outcome(1.1))

    def test_threads_sharing_one_engine_match_serial(self, few_mode):
        engine = few_mode
        betas = list(np.linspace(0.1, 1.5, 12))

        def results(beta):
            out = engine.outcome(beta)
            return out.coherent, out.incoherent, out.diagnostics, out.max_population

        serial = [results(beta) for beta in betas]
        n_threads = 8
        got = [None] * n_threads
        errors = []

        def work(k):
            try:
                order = betas[k:] + betas[:k]
                got[k] = [results(beta) for beta in order]
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for k in range(n_threads):
            assert got[k] == serial[k:] + serial[:k]


class TestEngineReadsArrays:
    """An array of betas is read in one call, each entry with the bits of its scalar read."""

    BETAS = np.array([0.0, 0.05, 0.3, 0.7, 1.1, 1.6, 2.0])

    @pytest.fixture(params=[6.0, 1.0], ids=["few-mode", "one-mode"])
    def engine(self, request, cs_system, cs_eta, mot_area):
        system, coupling = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, request.param * gb, system.omega_ba, system.omega_cb)
        return PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=2.0)

    @staticmethod
    def entries(out):
        return [
            np.asarray(v, dtype=float).tobytes()
            for v in (out.coherent, out.incoherent, out.max_population, out.total)
        ]

    def test_an_array_read_is_the_scalar_reads_bit_for_bit(self, engine):
        out = engine.outcome(self.BETAS)
        c, a = engine.series(self.BETAS)
        assert out.coherent.shape == out.incoherent.shape == out.max_population.shape == (7,)
        assert out.diagnostics == engine.diagnostics
        for k, beta in enumerate(self.BETAS.tolist()):
            one = engine.outcome(beta)
            assert isinstance(one.coherent, float) and isinstance(one.max_population, float)
            got = [np.float64(v[k]).tobytes()
                   for v in (out.coherent, out.incoherent, out.max_population, out.total)]
            assert got == self.entries(one)
            c1, a1 = engine.series(beta)
            assert (c[k].tobytes(), a[k].tobytes()) == (c1.tobytes(), a1.tobytes())
        # beta = 0: every term is an exact zero, and so is every read.
        assert not c[0].any() and not a[0].any()
        assert (out.coherent[0], out.incoherent[0], out.max_population[0]) == (0.0, 0.0, 0.0)

    def test_dropping_a_beta_leaves_the_other_entries_unchanged(self, engine):
        full = engine.outcome(self.BETAS)
        for k in range(len(self.BETAS)):
            rest = engine.outcome(np.delete(self.BETAS, k))
            assert self.entries(rest) == [
                np.delete(np.asarray(v), k).tobytes()
                for v in (full.coherent, full.incoherent, full.max_population, full.total)
            ]

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), 3.5])
    def test_a_bad_beta_in_an_array_raises_the_scalar_error(self, engine, bad):
        # A negative or NaN beta, or one whose r0 passes r0_max (3.5 does on
        # both engines), fails the whole read with the scalar read's error.
        with pytest.raises(ValueError) as scalar:
            engine.outcome(bad)
        for betas in (np.array([0.3, bad, 1.1]), np.array([bad])):
            with pytest.raises(ValueError) as batch:
                engine.outcome(betas)
            assert str(batch.value) == str(scalar.value)

    def test_an_empty_array_reads_nothing(self, engine):
        out = engine.outcome(np.array([]))
        assert out.coherent.shape == out.incoherent.shape == out.max_population.shape == (0,)

    def test_nonnegativity_is_checked_entry_by_entry(self):
        ExcitationOutcome(np.array([0.0, 1e-30]), np.array([2.0, 0.0]))
        for coherent, incoherent in (([1.0, -1e-300], [0.0, 0.0]), ([1.0, 1.0], [0.0, -2.0])):
            with pytest.raises(ValueError, match="nonnegative"):
                ExcitationOutcome(np.array(coherent), np.array(incoherent))


class TestFluorescence:
    def test_unit_branching(self, cs_eta):
        sys4 = FourLevelSystem(
            2.0e15, 1.4e15, 1.3e15, 2.1e15,
            {"ba": 2e7, "cb": 0.0, "cd": 9e6, "da": 3e7},
            {"ba": 0.0, "cb": 0.0, "cd": 0.0, "da": 0.0},
        )
        out = ExcitationOutcome(1e-5, 0.0)
        result = fluorescence(out, sys4, 1e6)
        assert result.branching_cd_over_c == 1.0
        assert result.branching_da_r_over_d == 1.0
        assert result.total == pytest.approx(1e-5 * 1e6, rel=1e-15)

    def test_no_radiative_relay_channel(self):
        sys4 = FourLevelSystem(
            2.0e15, 1.4e15, 1.3e15, 2.1e15,
            {"ba": 2e7, "cb": 5e6, "cd": 9e6, "da": 0.0},
            {"ba": 0.0, "cb": 0.0, "cd": 0.0, "da": 1e7},
        )
        result = fluorescence(ExcitationOutcome(1e-5, 0.0), sys4, 1e6)
        assert result.total == 0.0

    def test_zero_relay_width_raises(self):
        # Without a d-level width the d->a branching is undefined, so the
        # system itself is rejected, before any fluorescence is counted.
        with pytest.raises(ValueError, match="Gamma_d"):
            FourLevelSystem(
                2.0e15, 1.4e15, 1.3e15, 2.1e15,
                {"ba": 2e7, "cb": 5e6, "cd": 9e6, "da": 0.0},
            )

    def test_cs_detectability_line(self, cs_system, cs_eta):
        # Flux chosen so the per-atom rate is 1e-4/s; with 1e6 atoms the
        # count rate is 100 * (both branching ratios) cts/s, to be compared
        # with the 100 cts/s detectability line.
        system, _ = cs_system
        sigma_peak = float(
            cross_section(system.omega_ba, system.omega_cb, system, cs_eta)
        )
        flux = np.sqrt(1e-4 / sigma_peak)
        out = rate_classical_cw(
            ClassicalCW(flux, flux, system.omega_ba, system.omega_cb), system, cs_eta
        )
        result = fluorescence(out, system, 1e6)
        expected = 100.0 * result.branching_cd_over_c * result.branching_da_r_over_d
        assert result.total == pytest.approx(expected, rel=1e-9)
        assert result.total < 100.0  # below the line for these branching ratios

    def test_split_propagates(self, cs_system):
        system, _ = cs_system
        out = ExcitationOutcome(3e-6, 1e-6)
        result = fluorescence(out, system, 10.0)
        assert result.per_atom == result.per_atom_coherent + result.per_atom_incoherent
        assert result.per_atom_coherent / result.per_atom_incoherent == pytest.approx(3.0)


class TestEnergyLedger:
    def test_no_nonradiative_means_no_absorption(self, cs_system):
        system, _ = cs_system
        ledger = energy_ledger({"b": 1e-9, "c": 2e-9, "d": 3e-9}, system)
        assert all(v == 0.0 for v in ledger.absorbed.values())
        assert ledger.extinction == ledger.total_scattered

    def test_zero_populations(self, cs_system):
        system, _ = cs_system
        ledger = energy_ledger({}, system)
        assert ledger.extinction == 0.0

    def test_cross_module_count_identity(self, cs_system, cs_eta):
        # The d->a scattered energy divided by hbar w_da reproduces the
        # fluorescence count for the same excitation probability.
        from scipy.constants import hbar

        system, _ = cs_system
        p_exc = 3.7e-7
        pops = population_integrals_from_probability(p_exc, system)
        ledger = energy_ledger(pops, system)
        photons = ledger.scattered["da"] / (hbar * system.omega_da)
        count = fluorescence(ExcitationOutcome(p_exc, 0.0), system, 1.0).per_atom
        assert photons == pytest.approx(count, rel=1e-12)

    def test_negative_population_rejected(self, cs_system):
        system, _ = cs_system
        with pytest.raises(ValueError):
            energy_ledger({"b": -1.0}, system)


class TestValidity:
    @pytest.mark.parametrize(
        "ratio, beta_bar, detuning",
        [(r, b, 0.0) for r in (0.01, 1.0, 100.0) for b in (0.01, 1.0, 10.0, 30.0)]
        + [(1.0, 3.0, 0.7)],
    )
    def test_squeezed_cw_population_matches_quadrature(
        self, cs_system, mot_area, ratio, beta_bar, detuning
    ):
        # Item 12's Voigt series against an independent 20-digit quadrature.
        system, coupling = cs_system
        gb, g = system.gamma_b, 0.5 * system.gamma_b
        src = SqueezedCW(beta_bar, ratio * gb, system.omega_ba - detuning * gb, system.omega_cb)
        got = max_intermediate_population(src, system, coupling, mot_area)
        # The detuning the library sees: the difference of the two rounded frequencies.
        delta = (system.omega_ba - src.center_i) / g
        integral = cw_population_integral(beta_bar, ratio * gb / g, delta) / g
        kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
        expected = kappa * integral / (2.0 * np.pi * mot_area)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_the_series_raises_rather_than_truncate(self, cs_system, mot_area):
        system, coupling = cs_system
        gb = system.gamma_b
        finite = SqueezedCW(352.0, gb, system.omega_ba, system.omega_cb)
        assert np.isfinite(max_intermediate_population(finite, system, coupling, mot_area))
        beyond = SqueezedCW(353.0, gb, system.omega_ba, system.omega_cb)
        with pytest.raises(NumericalError, match="needs more than"):
            max_intermediate_population(beyond, system, coupling, mot_area)

    def test_zero_field(self, cs_system, mot_area):
        system, coupling = cs_system
        src = ClassicalCW(0.0, 0.0, system.omega_ba, system.omega_cb)
        assert max_intermediate_population(src, system, coupling) == 0.0
        sq = SqueezedCW(0.0, system.gamma_b, system.omega_ba, system.omega_cb)
        assert max_intermediate_population(sq, system, coupling, mot_area) == 0.0

    def test_cw_closed_form_vs_time_domain_oracle(self, cs_system, cs_eta, mot_area):
        # A very long resonant pulse is a time-domain quadrature of the same
        # second-order kernel; its peak population must match the CW closed
        # form at the pulse's peak flux.
        system, coupling = cs_system
        sigma = system.gamma_b / 200.0
        n_photons = 1e4
        src = ClassicalPulsed(
            GaussianAmplitude(system.omega_ba, sigma),
            GaussianAmplitude(system.omega_cb, sigma),
            n_photons, n_photons,
        )
        pulsed_pop = p_classical_pulsed(src, system, cs_eta, mot_area, coupling).max_population
        peak_flux = n_photons * (sigma / np.sqrt(np.pi)) / mot_area
        cw_pop = max_intermediate_population(
            ClassicalCW(peak_flux, peak_flux, system.omega_ba, system.omega_cb),
            system, coupling,
        )
        assert pulsed_pop == pytest.approx(cw_pop, rel=2e-2)

    def test_flag_threshold_exact(self, cs_system, cs_eta):
        system, coupling = cs_system
        kappa = one_photon_coupling(system.omega_ba, coupling.mu_sq_ba)
        flux_at_limit = VALIDITY_THRESHOLD / (kappa * 4.0 / system.gamma_b**2)
        at_limit = rate_classical_cw(
            ClassicalCW(flux_at_limit, flux_at_limit, system.omega_ba, system.omega_cb),
            system, cs_eta, coupling,
        )
        assert not within_validity(at_limit.max_population)
        below = rate_classical_cw(
            ClassicalCW(0.999 * flux_at_limit, flux_at_limit, system.omega_ba, system.omega_cb),
            system, cs_eta, coupling,
        )
        assert within_validity(below.max_population)


class TestEqualPhotonBudget:
    def test_cw_matched_flux(self, cs_system, mot_area):
        system, _ = cs_system
        src = SqueezedCW(1.4, 3 * system.gamma_b, system.omega_ba, system.omega_cb)
        rate = photon_rate_cw(src)
        classical = matched_classical_cw(src, mot_area, rate)
        assert classical.flux_i * mot_area == pytest.approx(rate, rel=1e-9)
        assert classical.center_i == system.omega_ba
        assert classical.center_ii == system.omega_cb

    def test_pulsed_matched_number_exact(self, cs_system):
        system, _ = cs_system
        gb = system.gamma_b
        src = SqueezedPulsed(gb, 5 * gb, system.omega_ba, system.omega_cb)
        classical = matched_classical_pulsed(src, 1.2)
        assert classical.n_photons_i == classical.n_photons_ii == photon_number_pulsed(src, 1.2)
        assert classical.amp_i.width == src.sigma_c
        assert classical.amp_ii.width == src.sigma_c
