import math

import numpy as np
import pytest
import scipy.optimize

from sqfluor.spectral import (
    ConvergenceError,
    GaussianAmplitude,
    GreenFunctionParams,
    LorentzianLineshape,
    NonFiniteIntegrandError,
    SpectralGrid,
    brentq,
    gaussian_amp,
    green,
    lorentzian,
    quad_1d,
    quad_converged,
)

W0 = 2.0e15
GAMMA = 3.0e7


class TestSpectralGrid:
    def test_rejects_even_or_small_point_counts(self):
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SpectralGrid(0.0, 0.0, 5)

    def test_points_exactly_uniform(self):
        grid = SpectralGrid(W0, 100 * GAMMA, 1001)
        steps = np.diff(grid.offsets)
        assert np.all(steps > 0)
        assert np.max(np.abs(steps - grid.step)) < 1e-9 * grid.step
        assert grid.points[0] == pytest.approx(W0 - 100 * GAMMA, rel=1e-15)

    def test_doubled_keeps_span_and_parity(self):
        grid = SpectralGrid(0.0, 1.0, 101).doubled()
        assert grid.n_points == 201
        assert grid.half_span == 1.0


class TestLorentzian:
    shape = LorentzianLineshape(W0, GAMMA)

    def test_peak_value(self):
        assert lorentzian(W0, self.shape) == pytest.approx(
            2.0 / (np.pi * GAMMA), rel=1e-12, abs=0.0
        )

    def test_half_maximum_points(self):
        for sign in (-1.0, 1.0):
            val = lorentzian(W0 + sign * GAMMA / 2.0, self.shape)
            assert val == pytest.approx(1.0 / (np.pi * GAMMA), rel=1e-12, abs=0.0)

    def test_area_over_50_widths(self):
        # Truncating the tails at +/-50 Gamma leaves exactly (2/pi) atan(100)
        # of the unit area; the numerical estimate must nail that analytic
        # value, and it is within 1% (not 1e-4) of one.
        grid = SpectralGrid(W0, 50 * GAMMA, 4001)
        area = quad_1d(lambda w: lorentzian(w, self.shape), grid)
        assert area == pytest.approx(2.0 / np.pi * np.arctan(100.0), abs=1e-7)
        assert abs(area - 1.0) < 1e-2

    def test_even_about_center(self):
        deltas = np.geomspace(1e-3 * GAMMA, 40 * GAMMA, 37)
        left = lorentzian(W0 - deltas, self.shape)
        right = lorentzian(W0 + deltas, self.shape)
        assert np.array_equal(left, right)

    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            LorentzianLineshape(W0, 0.0)


class TestGreen:
    params = GreenFunctionParams(W0, GAMMA, 0.0)

    def test_resonance_is_pure_imaginary(self):
        value = green(W0, self.params)
        assert value == pytest.approx(2.0j / GAMMA, rel=1e-12, abs=0.0)
        assert abs(value) ** 2 == pytest.approx(4.0 / GAMMA**2, rel=1e-12, abs=0.0)

    def test_far_detuned_asymptote(self):
        detuning = 100 * GAMMA
        value = abs(green(W0 + detuning, self.params))
        assert value == pytest.approx(1.0 / detuning, rel=1e-2)

    def test_identity_with_lorentzian(self):
        # 2 Im G_ca with only the upper width equals 2 pi L pointwise.
        shape = LorentzianLineshape(W0, GAMMA)
        grid = SpectralGrid(W0, 40 * GAMMA, 801)
        lhs = 2.0 * np.imag(green(grid.points, self.params))
        rhs = 2.0 * np.pi * lorentzian(grid.points, shape)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(rhs)

    def test_conjugation(self):
        w = W0 + np.linspace(-5, 5, 11) * GAMMA
        direct = 1.0 / (W0 - w + 0.5j * (GAMMA))
        assert np.array_equal(np.conj(green(w, self.params)), direct)

    def test_total_width_sums_upper_and_lower(self):
        g = GreenFunctionParams(W0, GAMMA, GAMMA / 2)
        assert green(W0, g) == pytest.approx(2.0j / (1.5 * GAMMA), rel=1e-12, abs=0.0)

    def test_degenerate_on_resonance_raises(self):
        from sqfluor.spectral import DegenerateParametersError

        with pytest.raises(DegenerateParametersError):
            green(W0, GreenFunctionParams(W0, 0.0, 0.0))


class TestGaussianAmplitude:
    amp = GaussianAmplitude(W0, 5.0e7)

    def test_peak_value(self):
        expected = (np.pi * self.amp.width**2) ** -0.25
        assert gaussian_amp(W0, self.amp) == pytest.approx(expected, rel=1e-12)

    def test_square_norm(self):
        grid = SpectralGrid(W0, 12 * self.amp.width, 2001)
        norm = quad_1d(lambda w: gaussian_amp(w, self.amp) ** 2, grid)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_one_sigma_ratio(self):
        ratio = gaussian_amp(W0 + self.amp.width, self.amp) / gaussian_amp(W0, self.amp)
        assert ratio == pytest.approx(np.exp(-0.5), rel=1e-12)


class TestQuadrature:
    def test_constant(self):
        assert quad_1d(lambda w: np.ones_like(w), SpectralGrid(0.0, 1.0, 11)) == pytest.approx(2.0)

    def test_unit_lorentzian(self):
        shape = LorentzianLineshape(0.0, 1.0)
        grid = SpectralGrid(0.0, 50.0, 4001)
        area = quad_1d(lambda w: lorentzian(w, shape), grid)
        assert area == pytest.approx(2.0 / np.pi * np.arctan(100.0), abs=1e-6)

    def test_gaussian_oracle(self):
        value = quad_1d(lambda x: np.exp(-x * x), SpectralGrid(0.0, 8.0, 2001))
        assert value == pytest.approx(np.sqrt(np.pi), abs=1e-8)

    def test_linearity(self):
        grid = SpectralGrid(0.0, 5.0, 501)
        f = lambda x: np.exp(-x * x)
        g = lambda x: 1.0 / (1.0 + x * x)
        combined = quad_1d(lambda x: 2.5 * f(x) + 0.3 * g(x), grid)
        separate = 2.5 * quad_1d(f, grid) + 0.3 * quad_1d(g, grid)
        assert combined == pytest.approx(separate, rel=1e-12)

    def test_refinement_monotone(self):
        # Monotone until the estimate hits the double-precision floor, so stay
        # on truncation-dominated grids.
        errors = []
        for n in (11, 15, 19, 23, 27, 31, 41, 51):
            value = quad_1d(lambda x: np.exp(-x * x), SpectralGrid(0.0, 8.0, n))
            errors.append(abs(value - np.sqrt(np.pi)))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_non_finite_reports_index(self):
        def bad(w):
            out = np.ones_like(w)
            out[3] = np.nan
            return out

        with pytest.raises(NonFiniteIntegrandError) as info:
            quad_1d(bad, SpectralGrid(0.0, 1.0, 11))
        assert info.value.index == 3


class TestQuadConverged:
    def test_smooth_gaussian_converges_fast(self):
        value, err = quad_converged(
            lambda x: np.exp(-x * x), SpectralGrid(0.0, 8.0, 201), rel_tol=1e-9,
            max_doublings=2,
        )
        assert value == pytest.approx(np.sqrt(np.pi), rel=1e-9)
        assert err <= 1e-9

    def test_zero_integrand_immediate(self):
        value, err = quad_converged(lambda x: np.zeros_like(x), SpectralGrid(0.0, 1.0, 11))
        assert value == 0.0 and err == 0.0

    def test_discontinuous_never_silent(self):
        step_fn = lambda x: (x > 0.3333).astype(float)
        with pytest.raises(ConvergenceError) as info:
            quad_converged(step_fn, SpectralGrid(0.0, 1.0, 11), rel_tol=1e-12, max_doublings=3)
        assert info.value.last != info.value.previous

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 0.5j])
    def test_convergence_error_message_has_plain_numbers(self, scale):
        step_fn = lambda x: scale * (x > 0.3333).astype(float)
        with pytest.raises(ConvergenceError) as info:
            quad_converged(step_fn, SpectralGrid(0.0, 1.0, 11), rel_tol=1e-12, max_doublings=3)
        message = str(info.value)
        assert "np." not in message
        assert f"last={info.value.last:.17g}," in message
        assert complex(message.split("last=")[1].split(",")[0]) == info.value.last


def solve_counted(solver, f, a, b, **kwargs):
    """(root, number of calls of f) of one bracketed solve."""
    calls = []
    root = solver(lambda x: calls.append(x) or f(x), a, b, **kwargs)
    return root, len(calls)


class TestBrentq:
    # Between them these reach every branch of the loop: the exponential
    # takes interpolation, extrapolation, accepted and rejected steps,
    # plain bisection and the minimum step of delta; the step function only
    # bisects; the ninth power is so flat near its root that the
    # extrapolation divides by zero, and runs out of iterations by default.
    CASES = {
        "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        "fixed point of cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
        "steep exponential": (lambda x: math.exp(x) - 1e6, 0.0, 100.0),
        "twentieth power": (lambda x: x**20 - 1.0, 0.0, 1.5),
        "step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
        "root near zero": (lambda x: x - 1e-300, -1.0, 1.0),
        "root at an end": (lambda x: x, 0.0, 1.0),
        "decreasing": (lambda x: 1.0 - x * x, 0.0, 3.0),
        "ninth power": (lambda x: (x - 0.5) ** 9, 0.0, 1.3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("tols", [{}, {"xtol": 1e-15, "rtol": 1e-13, "maxiter": 10_000}])
    def test_matches_scipy_bit_for_bit(self, name, tols):
        f, a, b = self.CASES[name]
        try:
            expected = solve_counted(scipy.optimize.brentq, f, a, b, **tols)
        except RuntimeError:
            # Out of iterations in both, at the same last iterate.
            expected = solve_counted(scipy.optimize.brentq, f, a, b, disp=False, **tols)
            with pytest.raises(ConvergenceError) as info:
                solve_counted(brentq, f, a, b, **tols)
            assert info.value.last == expected[0]
            return
        root, n_calls = solve_counted(brentq, f, a, b, **tols)
        assert type(root) is float
        assert (root, n_calls) == expected

    def test_same_sign_ends_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0)

    def test_running_out_of_iterations_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match="Brent's method did not converge") as info:
            brentq(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=2)
        assert isinstance(info.value, RuntimeError)
        assert 0.0 < info.value.rel_err < 1.0
