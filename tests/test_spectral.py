import math

import numpy as np
import pytest
import scipy.optimize
from scipy.special import wofz
from oracles import POLE_SERIES_RADIUS, pole_weights

from sqfluor.spectral import (
    ConvergenceError,
    GaussianAmplitude,
    GreenFunctionParams,
    LorentzianLineshape,
    SpectralGrid,
    brentq,
    gaussian_amp,
    green,
    lorentzian,
)

W0 = 2.0e15
GAMMA = 3.0e7


def simpson_weights(n_points, step):
    """Composite Simpson weights on an odd number of points `step` apart."""
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def simpson(f, grid):
    """Composite Simpson estimate of the integral of f over the grid span."""
    return simpson_weights(grid.n_points, grid.step) @ f(grid.points)


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
        area = simpson(lambda w: lorentzian(w, self.shape), grid)
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
        assert np.max(np.abs(lhs - rhs)) < 1e-15 * np.max(rhs)

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
        norm = simpson(lambda w: gaussian_amp(w, self.amp) ** 2, grid)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_one_sigma_ratio(self):
        ratio = gaussian_amp(W0 + self.amp.width, self.amp) / gaussian_amp(W0, self.amp)
        assert ratio == pytest.approx(np.exp(-0.5), rel=1e-12)


class TestPoleWeights:
    """Product integration of f(x)/(x - pole): exact for quadratics, third order otherwise.

    `oracles.pole_weights` takes the poles of `oracles.LatticePulsedEngine`.
    """

    FIRST, STEP, N = -3.0, 0.15, 41  # nodes x_k = -3 + 0.15 k, k < 41

    @staticmethod
    def exact_quadratic(coeffs, lo, hi, pole):
        """Int_lo^hi (a + b x + c x^2)/(x - pole) dx at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b, c = (mpmath.mpf(v) for v in coeffs)
            z = mpmath.mpc(pole.real, pole.imag)
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            f_z, df_z = a + b * z + c * z * z, b + 2 * c * z
            value = (
                f_z * (mpmath.log(hi - z) - mpmath.log(lo - z))
                + df_z * (hi - lo)
                + c * ((hi - z) ** 2 - (lo - z) ** 2) / 2
            )
            return complex(value)

    @pytest.mark.parametrize(
        "offset, imag",
        [
            (8.0, 0.01),  # on a node, a panel boundary
            (9.0, -0.3),  # on a panel midpoint
            (12.37, 2.0),  # between nodes
            (-5.5, 0.7),  # below the lattice
            (47.0, -0.5),  # 7 steps beyond the last node: every panel in the series
            (2e4, 1.0),  # far away: every panel in the series
        ],
    )
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0), (0.3, -1.2, 0.7)])
    def test_quadratics_are_integrated_exactly(self, offset, imag, coeffs):
        # offset and imag are in steps from the first node.
        pole = complex(self.FIRST + offset * self.STEP, imag * self.STEP)
        x = self.FIRST + self.STEP * np.arange(self.N)
        a, b, c = coeffs
        f = a + b * x + c * x * x
        weights = pole_weights(self.FIRST, self.STEP, self.N, pole)
        exact = self.exact_quadratic(coeffs, x[0], x[-1], pole)
        assert abs(weights @ f - exact) <= 1e-14 * (np.abs(weights) @ np.abs(f))

    def test_the_series_branch_serves_the_far_panels(self):
        # Panel midpoints sit at odd nodes; the nearest one to a pole 7
        # steps past the last node is 8 steps away.
        pole = complex(self.FIRST + 47.0 * self.STEP, -0.5 * self.STEP)
        mid = self.FIRST + self.STEP * np.arange(1, self.N, 2)
        assert np.min(np.abs(pole - mid)) / self.STEP > POLE_SERIES_RADIUS

    def test_weights_do_not_depend_on_the_units(self):
        pole = complex(0.4, 0.02)
        base = pole_weights(self.FIRST, self.STEP, self.N, pole)
        scaled = pole_weights(1e7 * self.FIRST, 1e7 * self.STEP, self.N, 1e7 * pole)
        assert np.allclose(scaled, base, rtol=1e-12, atol=0.0)

    def test_third_order_on_a_smooth_function_past_a_narrow_line(self):
        # Int exp(-x^2)/(x - z) dx = i pi w(z) for Im z > 0.  The line is
        # 1e-4 wide and sits on a node at every step, so each halving of the
        # step cuts the error by about 2^3.  Simpson on f/(x - z) does not
        # resolve the line and is off by more than 100% at every step.
        pole = 1.0 + 1e-4j
        exact = 1j * np.pi * wofz(pole)
        errors = []
        for n_points in (65, 129, 257, 513, 1025):
            step = 16.0 / (n_points - 1)
            x = -8.0 + step * np.arange(n_points)
            f = np.exp(-x * x)
            got = pole_weights(-8.0, step, n_points, pole) @ f
            errors.append(abs(got - exact) / abs(exact))
            plain = simpson_weights(n_points, step) @ (f / (x - pole))
            assert abs(plain - exact) / abs(exact) > 1.0
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 7.0) & (ratios < 9.0))
        assert errors[-1] < 1e-6

    @pytest.mark.parametrize("n_points", [1, 2, 4])
    def test_rejects_an_even_or_short_lattice(self, n_points):
        with pytest.raises(ValueError, match="odd"):
            pole_weights(0.0, 1.0, n_points, 1.0 + 1.0j)

    def test_rejects_a_pole_on_the_real_axis(self):
        with pytest.raises(ValueError, match="real axis"):
            pole_weights(0.0, 1.0, 5, 2.0)


class TestConvergenceError:
    @pytest.mark.parametrize("scale", [1.0, 1.0 - 0.5j])
    def test_message_has_plain_numbers(self, scale):
        # numpy scalars, as an iteration hands them over
        error = ConvergenceError(np.float64(2.0 / 3.0) * scale, np.float64(0.5) * scale, 0.25)
        message = str(error)
        assert "np." not in message
        assert f"last={error.last:.17g}," in message
        assert complex(message.split("last=")[1].split(",")[0]) == error.last


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


def lock_step_counted(f, a, b, **kwargs):
    """(roots, iterate arrays f was called on) of one lock-step solve."""
    calls = []
    roots = brentq(lambda x: calls.append(x) or f(x), a, b, **kwargs)
    return roots, calls


class TestBrentqLockStep:
    # Array families of TestBrentq.CASES: element i of each is a scalar
    # problem of its own, which scipy solves one at a time on the same numpy
    # expression (a 1-element array; numpy's power and the interpreter's may
    # differ in the last bit, so the powers are products).
    FAMILIES = {
        "cubic over constants": (
            lambda c: (lambda x: x * x * x - 2.0 * x - c),
            np.linspace(1.0, 50.0, 9), np.zeros(9), 4.0, {"xtol": np.geomspace(1e-15, 1e-6, 9)},
        ),
        "steep exponential": (
            lambda k: (lambda x: np.exp(x) - k),
            10.0 ** np.arange(1.0, 40.0, 4.0), 0.0, np.full(10, 100.0), {},
        ),
        "root at an end": (
            lambda r: (lambda x: x - r),
            np.array([0.0, 0.3, 1.0, 0.7, 0.0]), np.zeros(5), 1.0, {},
        ),
        "step": (
            lambda t: (lambda x: np.where(x < t, -1.0, 1.0)),
            np.array([1.0 / 3.0, 0.1, 0.9, 0.5 + 1e-9]), np.zeros(4), 1.0, {},
        ),
        "ninth power": (
            lambda c: (lambda x: (x - c) * ((x - c) * (x - c)) ** 4),
            np.array([0.5, 0.2, 1.1, 0.65]), np.zeros(4), 1.3,
            {"xtol": 1e-15, "rtol": 1e-13, "maxiter": 10_000},
        ),
    }

    @staticmethod
    def scalar_solves(family, params, a, b, tols):
        """scipy's (root, callback list) for each element, with its own tolerances."""
        a, b, xtol = np.broadcast_arrays(a, b, tols.get("xtol", 2e-12))
        solves = []
        for i, param in enumerate(params):
            calls = []
            f = family(param)
            kwargs = dict(tols, xtol=float(xtol[i]))
            root = scipy.optimize.brentq(
                lambda x: calls.append(x) or float(f(np.array([x]))[0]),
                float(a[i]), float(b[i]), **kwargs,
            )
            solves.append((root, calls))
        return solves

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_element_takes_its_scalar_steps(self, name):
        family, params, a, b, tols = self.FAMILIES[name]
        expected = self.scalar_solves(family, params, a, b, tols)
        roots, calls = lock_step_counted(family(params), a, b, **tols)
        assert roots.dtype == float and roots.shape == params.shape
        assert roots.tolist() == [root for root, _ in expected]
        assert len(calls) == max(len(c) for _, c in expected)
        for i, (root, scalar_calls) in enumerate(expected):
            # Iterate i follows its scalar solve, then stays at its root.
            iterates = [float(x[i]) for x in calls]
            assert iterates == scalar_calls + [root] * (len(calls) - len(scalar_calls))

    def test_a_scalar_bracket_is_solved_on_floats(self):
        seen = []
        root = brentq(lambda x: seen.append(type(x)) or x * x - 2.0, 0.0, 2.0)
        assert type(root) is float and set(seen) == {float}
        single = brentq(lambda x: x * x - 2.0, np.array([0.0]), 2.0)
        assert single.shape == (1,) and single[0] == root

    def test_same_sign_element_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x - np.array([2.0, -1.0]), np.zeros(2), 2.0)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: np.where(x > 1.5, np.nan, x - np.array([1.0, 1.2])), np.zeros(2), 2.0)

    def test_running_out_of_iterations_spares_the_others(self):
        # maxiter=2 stops the fixed point of cos short; the root at an end and
        # the linear root are found within two iterations.
        shifts = np.array([0.0, 1.0, 0.25])

        def f(x):
            return np.where(shifts == 0.0, np.cos(x) - x, x - shifts)

        roots = brentq(f, np.zeros(3), 1.0, maxiter=2)
        with pytest.raises(RuntimeError):
            scipy.optimize.brentq(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=2)
        assert math.isnan(roots[0])
        assert roots[1:].tolist() == [
            scipy.optimize.brentq(lambda x: x - s, 0.0, 1.0, maxiter=2) for s in shifts[1:]
        ]
