import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    eager_schmidt_decompose_analytic,
    g2_cw,
    g2_pulsed_kernels,
    geometric_weights,
    hermite_function_table,
    marginal_sigma,
    modes_at,
    truncated,
    weighted_mode_count,
)

from sqfluor.excitation import (
    CwExcitationEngine,
    PulsedExcitationEngine,
    max_intermediate_population,
)
from sqfluor.spectral import NumericalError, SpectralGrid, quad_1d
from sqfluor.sources import (
    CW_SERIES_CUT,
    LOG_FACTORIALS,
    ClassicalCW,
    ClassicalPulsed,
    GainSeries,
    GridTooCoarseError,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    default_jsa_grids,
    gain_functions_cw,
    geometric_mode_ratio,
    jsa_eval,
    mode_squeezing,
    photon_number_pulsed,
    photon_rate_cw,
    schmidt_decompose,
    schmidt_decompose_analytic,
    squeezing_from_roots,
)

CI = 2.105e15
CII = 1.385e15
SIGMA = 2.0e7


def cw_source(beta_bar=1.0, sigma=SIGMA, **kw):
    return SqueezedCW(beta_bar=beta_bar, sigma_c_bar=sigma, center_i=CI, center_ii=CII, **kw)


def pulsed_source(sigma_p=SIGMA, sigma_c=SIGMA):
    return SqueezedPulsed(sigma_p=sigma_p, sigma_c=sigma_c, center_i=CI, center_ii=CII)


class TestGainFunctions:
    def test_vacuum(self):
        s, c = gain_functions_cw(CI + np.linspace(-3, 3, 7) * SIGMA, cw_source(0.0), "I")
        assert np.all(s == 0.0)
        assert np.all(c == 1.0)

    def test_peak_at_band_center(self):
        src = cw_source(1.7)
        s, _ = gain_functions_cw(CI, src, "I")
        assert s == pytest.approx(np.sinh(1.7), rel=1e-12)

    def test_hyperbolic_identity_random_frequencies(self):
        rng = np.random.default_rng(3)
        w = CI + rng.uniform(-8, 8, 1000) * SIGMA
        s, c = gain_functions_cw(w, cw_source(2.3), "I")
        assert np.max(np.abs(c * c - s * s - 1.0)) < 1e-12

    def test_hyperbolic_identity_to_a_few_ulp_over_the_shipped_range(self):
        # beta_bar from 1e-5 (the broadband columns of the rate-matched
        # configs/cs_mot_cw_sweep.json) to 30, out to 12 widths.  c^2 - s^2
        # cancels, so the bound is in ulps of c^2.
        w = CI + np.linspace(-12.0, 12.0, 481) * SIGMA
        for beta_bar in np.geomspace(1e-5, 30.0, 200):
            s, c = gain_functions_cw(w, cw_source(beta_bar), "I")
            assert np.all(np.abs(c * c - s * s - 1.0) <= 4.0 * np.spacing(c * c))

    def test_band_mirror_symmetry(self):
        src = cw_source(1.2)
        w = CI + np.linspace(-5, 5, 41) * SIGMA
        s_i, _ = gain_functions_cw(w, src, "I")
        s_ii, _ = gain_functions_cw(src.pump_center - w, src, "II")
        assert np.allclose(s_ii, s_i, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("band, center", [("I", CI), ("II", CII)])
    @pytest.mark.parametrize("sigma", [2.0e5, SIGMA, 2.0e9])
    def test_exactly_zero_beyond_the_support_cut(self, band, center, sigma):
        # s is exactly 0.0 at 40 sigma_c_bar or more from the band centre, at
        # any gain: r = exp(-x^2/2) underflows to 0.0 once x^2/2 > 745.13, and
        # 40^2/2 = 800 (DECISIONS.md).
        cut = 40.0
        x = np.concatenate([np.linspace(cut, cut + 20.0, 2001), np.geomspace(cut + 20.0, 1e6, 200)])
        w = center + np.concatenate([x, -x]) * sigma
        assert np.all(np.abs(w - center) >= cut * sigma * (1.0 - 1e-6))
        for beta_bar in (1e-6, 1e-2, 1.0, 10.0, 1e3, 1e6):
            s, c = gain_functions_cw(w, cw_source(beta_bar, sigma), band)
            assert np.all(s == 0.0) and np.all(c == 1.0)
        # The cut is not vacuous: at 38 sigma the largest gain is still nonzero.
        s, _ = gain_functions_cw(center + 38.0 * sigma, cw_source(1e6, sigma), band)
        assert s > 0.0

    def test_bandwidth_and_entanglement_time(self):
        src = cw_source()
        assert src.omega_c == pytest.approx(np.sqrt(np.pi) * SIGMA, rel=1e-12)
        assert src.t_c == pytest.approx(2.0 * np.pi / src.omega_c, rel=1e-12)


class TestPhotonRateCW:
    def test_vacuum_rate(self):
        assert photon_rate_cw(cw_source(0.0)) == 0.0

    def test_low_gain_law(self):
        src = cw_source(0.01)
        assert photon_rate_cw(src) == pytest.approx(src.beta_bar**2 / src.t_c, rel=1e-2)

    def test_series_oracle_at_gain_two(self):
        # sinh^2(x) = sum_k (2x)^{2k} / (2 (2k)!) integrates termwise against
        # the Gaussian profile: rate = (1/2pi) sum_k (2 b)^{2k}/(2 (2k)!) sigma sqrt(pi/k).
        from math import factorial

        src = cw_source(2.0)
        series = sum(
            (2.0 * src.beta_bar) ** (2 * k)
            / (2.0 * factorial(2 * k))
            * src.sigma_c_bar
            * np.sqrt(np.pi / k)
            for k in range(1, 40)
        ) / (2.0 * np.pi)
        assert photon_rate_cw(src) == pytest.approx(series, rel=1e-4)

    def test_increasing_in_gain_and_bandwidth(self):
        r1 = photon_rate_cw(cw_source(1.0))
        assert photon_rate_cw(cw_source(2.0)) > r1
        assert photon_rate_cw(cw_source(1.0, sigma=2 * SIGMA)) > r1

    def test_band_ii_matches_band_i(self):
        # The closed sum takes no band: it must equal the rate integrated
        # directly from band II's gain function about its own center.
        from scipy.integrate import quad

        src = cw_source(1.3)
        half = 12.0 * src.sigma_c_bar
        band_ii, _ = quad(
            lambda w: gain_functions_cw(CII + w, src, "II")[0] ** 2,
            -half,
            half,
            points=[0.0],
            epsabs=0.0,
            epsrel=1e-11,
            limit=200,
        )
        assert photon_rate_cw(src) == pytest.approx(band_ii / (2.0 * np.pi), rel=1e-9)


class TestJsa:
    def test_peak_value(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=3 * SIGMA)
        assert jsa_eval(CI, CII, src) == pytest.approx(
            (np.pi * src.sigma_p * src.sigma_c) ** -0.5, rel=1e-12, abs=0.0
        )

    def test_antidiagonal_detuning_uses_only_sigma_c(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=5 * SIGMA)
        delta = 2.0 * SIGMA
        ratio = jsa_eval(CI + delta, CII - delta, src) / jsa_eval(CI, CII, src)
        assert ratio == pytest.approx(np.exp(-(delta**2) / src.sigma_c**2), rel=1e-12)

    def test_grid_square_norm(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=4 * SIGMA)
        grid_i, grid_ii = default_jsa_grids(src)
        m = jsa_eval(grid_i.points[:, None], grid_ii.points[None, :], src)
        norm = np.sum(m * m) * grid_i.step * grid_ii.step
        assert norm == pytest.approx(1.0, abs=1e-4)

    def test_anticorrelated_regime_enforced(self):
        with pytest.raises(ValueError):
            pulsed_source(sigma_p=2 * SIGMA, sigma_c=SIGMA)

    def test_separable_equals_product_of_classical_amplitudes(self):
        from sqfluor.spectral import GaussianAmplitude, gaussian_amp

        src = pulsed_source(sigma_p=SIGMA, sigma_c=SIGMA)
        sig = marginal_sigma(src)
        assert sig == pytest.approx(SIGMA, rel=1e-12)
        amp_i = GaussianAmplitude(CI, sig)
        amp_ii = GaussianAmplitude(CII, sig)
        w_i = CI + np.linspace(-4, 4, 17) * SIGMA
        w_ii = CII + np.linspace(-4, 4, 17) * SIGMA
        joint = jsa_eval(w_i[:, None], w_ii[None, :], src)
        product = gaussian_amp(w_i, amp_i)[:, None] * gaussian_amp(w_ii, amp_ii)[None, :]
        assert np.max(np.abs(joint - product)) < 1e-8 * np.max(np.abs(product))


class TestSchmidt:
    def test_separable_single_mode(self):
        dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=SIGMA))
        assert dec.n_modes == 1
        assert dec.p[0] == pytest.approx(1.0, abs=1e-6)

    def test_geometric_law_dual_oracle(self):
        # Oracle 1: the analytic geometric law.  Oracle 2: an independent SVD
        # at doubled resolution.
        src = pulsed_source(sigma_p=SIGMA, sigma_c=10 * SIGMA)
        dec = schmidt_decompose(src, trunc_tol=1e-10)
        mu = geometric_mode_ratio(src)
        law = (1.0 - mu) * mu ** np.arange(20)
        assert np.max(np.abs(dec.p[:20] - law)) < 1e-6
        half = 8.0 * src.sigma_c
        fine = schmidt_decompose(
            src,
            SpectralGrid(CI, half, 1023),
            SpectralGrid(CII, half, 1023),
            trunc_tol=1e-10,
        )
        assert np.max(np.abs(dec.p[:20] - fine.p[:20])) < 1e-8

    def test_weights_sum_to_one_with_tail(self):
        for ratio in (1.0, 3.0, 10.0):
            dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=ratio * SIGMA))
            assert np.sum(dec.p) + dec.tail == pytest.approx(1.0, abs=1e-8)

    def test_modes_orthonormal(self):
        dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=6 * SIGMA))
        for table, grid in ((dec.f_i, dec.grid_i), (dec.f_ii, dec.grid_ii)):
            gram = table @ table.T * grid.step
            assert np.max(np.abs(gram - np.eye(dec.n_modes))) < 1e-6

    def test_svd_and_analytic_decompositions_agree(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=8 * SIGMA)
        grids = default_jsa_grids(src, n_points=769)
        svd = schmidt_decompose(src, *grids, trunc_tol=1e-8)
        ana = eager_schmidt_decompose_analytic(src, trunc_tol=1e-8, grid_i=grids[0], grid_ii=grids[1])
        n = min(svd.n_modes, ana.n_modes, 12)
        assert np.max(np.abs(svd.p[:n] - ana.p[:n])) < 1e-8
        for k in range(n):
            prod_svd = np.outer(svd.f_i[k], svd.f_ii[k])
            prod_ana = np.outer(ana.f_i[k], ana.f_ii[k])
            scale = np.max(np.abs(prod_ana))
            assert np.max(np.abs(prod_svd - prod_ana)) < 1e-3 * scale

    def test_mode_product_invariant_under_sign_flips(self):
        dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=5 * SIGMA))
        k = 2
        product = np.outer(dec.f_i[k], dec.f_ii[k])
        flipped_i = -dec.f_i[k]
        flipped_ii = -dec.f_ii[k]
        assert np.array_equal(np.outer(flipped_i, flipped_ii), product)

    def test_analytic_reconstructs_the_jsa(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=6 * SIGMA)
        dec = eager_schmidt_decompose_analytic(src, trunc_tol=1e-10)
        w_i = dec.grid_i.points[::16]
        w_ii = dec.grid_ii.points[::16]
        f_i = modes_at(dec, "I", w_i)
        f_ii = modes_at(dec, "II", w_ii)
        recon = (np.sqrt(dec.p)[:, None, None] * f_i[:, :, None] * f_ii[:, None, :]).sum(0)
        direct = jsa_eval(w_i[:, None], w_ii[None, :], src)
        assert np.max(np.abs(recon - direct)) < 1e-4 * np.max(np.abs(direct))

    @pytest.mark.parametrize("ratio", [1.0, 6.0, 1000.0])
    def test_analytic_route_returns_the_spectrum_only(self, ratio):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=ratio * SIGMA)
        dec = schmidt_decompose_analytic(src, 1e-10)
        tabulated = eager_schmidt_decompose_analytic(src, 1e-10)
        assert (dec.f_i, dec.f_ii, dec.grid_i, dec.grid_ii) == (None, None, None, None)
        assert dec.p.tobytes() == tabulated.p.tobytes()
        assert (dec.n_modes, dec.tail) == (tabulated.n_modes, tabulated.tail)

    def test_grid_preconditions(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=4 * SIGMA)
        narrow = SpectralGrid(CI, 2.0 * src.sigma_c, 257)
        with pytest.raises(ValueError, match="6 sigma_c"):
            schmidt_decompose(src, narrow, SpectralGrid(CII, 8 * src.sigma_c, 257))

    def test_too_coarse_grid_raises(self):
        src = pulsed_source(sigma_p=SIGMA / 20, sigma_c=5 * SIGMA)
        grids = (
            SpectralGrid(CI, 8 * src.sigma_c, 65),
            SpectralGrid(CII, 8 * src.sigma_c, 65),
        )
        with pytest.raises(GridTooCoarseError):
            schmidt_decompose(src, *grids, trunc_tol=1e-10)

    def test_truncated(self):
        dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=10 * SIGMA))
        cut = truncated(dec, 5)
        assert cut.n_modes == 5
        assert cut.tail == pytest.approx(dec.tail + np.sum(dec.p[5:]), rel=1e-12, abs=0.0)


def mpmath_mode_count(p: np.ndarray, beta: float, rel_tail: float) -> int:
    """Modes whose sinh^2(beta sqrt(p_n)) weights reach 1 - rel_tail of their sum, at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        weights = [mpmath.sinh(mpmath.mpf(beta) * mpmath.sqrt(mpmath.mpf(v))) ** 2 for v in p]
        total = mpmath.fsum(weights)
        cumulative = mpmath.mpf(0)
        for n, weight in enumerate(weights):
            cumulative += weight
            if cumulative / total >= 1 - mpmath.mpf(rel_tail):
                return n + 1
    return len(p)


class TestWeightedModeCount:
    @staticmethod
    def spectrum(mu: float, n_modes: int = 200):
        p = (1.0 - mu) * mu ** np.arange(n_modes)
        grid = SpectralGrid(CI, SIGMA, 3)
        table = np.zeros((n_modes, 3))
        return SchmidtDecomposition(p, table, table, grid, grid, tail=0.0)

    def test_no_overflow_at_the_inversion_limit(self):
        # At beta = 1e6 every sinh(beta sqrt(p_n)) here overflows a double,
        # yet ten or so modes carry the weight: r_0 - r_n is about n/2.
        dec = self.spectrum(0.9999)
        count = weighted_mode_count(dec, 1e6, 1e-4)
        assert count == mpmath_mode_count(dec.p, 1e6, 1e-4)
        assert count > 1

    @pytest.mark.parametrize("mu", [0.5, 0.99, 0.9999])
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 30.0, 1e3, 1e6])
    def test_matches_high_precision_weights(self, mu, beta):
        dec = self.spectrum(mu)
        assert weighted_mode_count(dec, beta, 1e-4) == mpmath_mode_count(dec.p, beta, 1e-4)

    def test_zero_beta_weighs_by_p(self):
        dec = self.spectrum(0.5)
        assert weighted_mode_count(dec, 0.0, 1e-4) == mpmath_mode_count(dec.p, 1e-9, 1e-4)


class TestHermiteTable:
    def test_orthonormal_to_high_order(self):
        x = np.linspace(-40.0, 40.0, 20001)
        table = hermite_function_table(301, x)
        step = x[1] - x[0]
        gram_diag = np.sum(table[298] * table[298]) * step
        cross = np.sum(table[298] * table[296]) * step
        assert gram_diag == pytest.approx(1.0, abs=1e-8)
        assert abs(cross) < 1e-8


def source_of_mode_ratio(mu):
    """A pulsed source whose Schmidt weights are p_n = (1 - mu) mu^n."""
    root = np.sqrt(mu)
    return pulsed_source(sigma_p=SIGMA, sigma_c=SIGMA * (1.0 + root) / (1.0 - root))


def test_log_factorials_are_within_one_ulp_of_30_digit_values():
    # Every Gaussian-series term is exp(m log(2 r0) - log(2 m!)), so each
    # entry's last bit reaches the rows (and, through the photon-number
    # inversion, which rows a held-back Brent solve leaves failed).
    # scipy's gammaln is more than an ulp off at 91 of the 961 entries and
    # math.lgamma at 64 (3 ulp at log 2).
    assert len(LOG_FACTORIALS) == 961 and LOG_FACTORIALS[0] == LOG_FACTORIALS[1] == 0.0
    with mpmath.workdps(30):
        for m in range(2, len(LOG_FACTORIALS)):
            exact = mpmath.loggamma(m + 1)
            assert abs(mpmath.mpf(LOG_FACTORIALS[m]) - exact) <= np.spacing(float(exact)), m


class TestGainSeries:
    XS = (1e-3, 0.07, 0.5, 0.8, 1.0, 3.3, 10.0, 29.0, 100.0, 352.0)

    def test_array_reads_equal_scalar_reads_bit_for_bit(self):
        series = GainSeries(30.0)
        x = np.array([[0.0, 1e-3, 0.37], [0.8, 17.0, 30.0]])
        c, a = series.terms(x)
        assert c.shape == x.shape + series.even.shape and a.shape == x.shape + series.odd.shape
        for index in np.ndindex(x.shape):
            c_one, a_one = series.terms(float(x[index]))
            assert np.array_equal(c[index], c_one) and np.array_equal(a[index], a_one)

    def test_terms_take_math_log_of_2x_per_x(self):
        # A term is exp(m log(2x) - log(2 m!)) with math.log's log(2x), the
        # bits the engines' reads have always had.  numpy's log differs from
        # it in the last bit for a few arguments near 1 to 2; the grid below
        # holds some of them.
        series = GainSeries(2.0)
        logs = np.log(2.0) + LOG_FACTORIALS[series.orders.astype(int)]
        x = np.linspace(0.5, 1.1, 4001)
        c, a = series.terms(x)
        for row, value in enumerate(x.tolist()):
            terms = np.exp(series.orders * math.log(2.0 * value) - logs)
            assert np.array_equal(c[row], terms[1::2]) and np.array_equal(a[row], terms[0::2])

    def test_zero_gives_zero_terms(self):
        at_zero = GainSeries(0.0)
        assert at_zero.even.tolist() == [2.0] and at_zero.odd.tolist() == [1.0]
        for series in (at_zero, GainSeries(5.0)):
            c, a = series.terms(0.0)
            assert not c.any() and not a.any()
            c, a = series.terms(np.zeros(3))
            assert not c.any() and not a.any()

    @pytest.mark.parametrize("x", XS)
    def test_orders_run_from_the_first_to_the_last_the_cut_keeps(self, x):
        series = GainSeries(x)
        assert np.array_equal(series.even, np.arange(2.0, series.even[-1] + 1.0, 2.0))
        assert np.array_equal(series.odd, np.arange(1.0, series.odd[-1] + 1.0, 2.0))
        assert np.array_equal(series.orders, np.arange(1.0, len(series.orders) + 1.0))
        assert len(series.orders) == max(series.even[-1], series.odd[-1])
        # log b_m = m log(2x) - log(2 m!) to 30 digits: the last kept order
        # reaches the cut, the next one does not.
        with mpmath.workdps(30):
            cut = mpmath.log(CW_SERIES_CUT)

            def log_b(m):
                return m * mpmath.log(2 * mpmath.mpf(x)) - mpmath.log(2) - mpmath.loggamma(m + 1)

            for orders in (series.even, series.odd):
                first, last = int(orders[0]), int(orders[-1])
                largest = max(log_b(m) for m in range(first, last + 1, 2))
                assert log_b(last) >= largest + cut
                assert log_b(last + 2) < largest + cut

    @pytest.mark.parametrize("x", [353.0, 400.0, 1e4])
    def test_series_past_353_raise(self, x):
        with pytest.raises(NumericalError, match="needs more than 480 terms"):
            GainSeries(x)

    @pytest.mark.parametrize("sigma_over_gamma_b", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("beta_bar", [0.0, 0.01, 0.8, 3.0, 30.0, 150.0])
    def test_one_shot_cw_reads_equal_the_engine_bit_for_bit(
        self, cs_system, cs_eta, mot_area, sigma_over_gamma_b, beta_bar
    ):
        system, coupling = cs_system
        src = SqueezedCW(
            beta_bar, sigma_over_gamma_b * system.gamma_b, system.omega_ba, system.omega_cb
        )
        engine = CwExcitationEngine(src, system, cs_eta, mot_area, coupling)
        assert photon_rate_cw(src) == photon_rate_cw(src, engine)
        population = max_intermediate_population(src, system, coupling, mot_area)
        assert population == engine.outcome(beta_bar).max_population

    @pytest.mark.parametrize("sigma_c_over_sigma_p", [1.0, 3.0, 30.0, 1000.0])
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.9, 5.0, 60.0])
    def test_one_shot_photon_number_equals_the_engine_bit_for_bit(
        self, cs_system, cs_eta, mot_area, sigma_c_over_sigma_p, beta
    ):
        system = cs_system[0]
        src = SqueezedPulsed(
            system.gamma_b, sigma_c_over_sigma_p * system.gamma_b, system.omega_ba, system.omega_cb
        )
        r0 = float(squeezing_from_roots(np.sqrt(1.0 - geometric_mode_ratio(src)), beta))
        engine = PulsedExcitationEngine(src, system, cs_eta, mot_area, r0_max=r0)
        assert photon_number_pulsed(src, beta) == engine.photon_number(beta)


class TestPhotonNumberPulsed:
    def test_vacuum(self):
        assert photon_number_pulsed(pulsed_source(), 0.0) == 0.0

    def test_single_mode_sinh(self):
        assert photon_number_pulsed(pulsed_source(), 1.0) == pytest.approx(
            np.sinh(1.0) ** 2, rel=1e-15
        )

    def test_geometric_law_oracle_high_gain(self):
        # Every mode: the spectrum's sum to where mu^n underflows.
        src = pulsed_source(sigma_p=SIGMA / 10, sigma_c=10 * SIGMA)
        mu = geometric_mode_ratio(src)
        n = np.arange(20000)
        oracle = np.sum(np.sinh(3.0 * np.sqrt((1 - mu) * mu**n)) ** 2)
        assert photon_number_pulsed(src, 3.0) == pytest.approx(oracle, rel=1e-13)

    def test_low_gain_equals_beta_squared(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=5 * SIGMA)
        assert photon_number_pulsed(src, 0.05) == pytest.approx(0.05**2, rel=1e-3)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            photon_number_pulsed(pulsed_source(), -0.5)

    def test_increasing_in_gain(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=5 * SIGMA)
        values = [photon_number_pulsed(src, b) for b in (0.1, 0.5, 1.0, 2.0)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


@given(mu=st.floats(0.0, 0.999), b1=st.floats(0.0, 20.0), b2=st.floats(0.0, 20.0))
def test_photon_number_is_monotone_in_beta(mu, b1, b2):
    src = source_of_mode_ratio(mu)
    lo, hi = sorted((b1, b2))
    assert photon_number_pulsed(src, lo) <= photon_number_pulsed(src, hi)


class TestG2CW:
    def test_leading_orders_in_gain(self):
        small, big = 1e-4, 2e-4
        coh_small, incoh_small = g2_cw(CI, CII, CI, CII, cw_source(small))
        coh_big, incoh_big = g2_cw(CI, CII, CI, CII, cw_source(big))
        assert abs(coh_big) / abs(coh_small) == pytest.approx((big / small) ** 2, rel=1e-4)
        assert incoh_big / incoh_small == pytest.approx((big / small) ** 4, rel=1e-4)

    def test_center_value(self):
        coh, _ = g2_cw(CI, CII, CI, CII, cw_source(1.4))
        assert coh == pytest.approx(np.sinh(1.4) ** 2 * np.cosh(1.4) ** 2, rel=1e-12)


class TestG2Pulsed:
    def test_single_mode_kernels(self):
        dec = schmidt_decompose(pulsed_source())
        kernels = g2_pulsed_kernels(dec, 0.8)
        w = CI + CII + 0.3 * SIGMA
        w_i = CI - 0.2 * SIGMA
        f_ii = modes_at(dec, "II", w - w_i)[0, 0]
        f_i = modes_at(dec, "I", w_i)[0, 0]
        expected = f_ii * f_i * np.sinh(0.8) * np.cosh(0.8)
        assert kernels.coherent(w, w_i) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_diagonal_incoherent_terms_match_coherent_with_c_to_s(self):
        dec = schmidt_decompose(pulsed_source(sigma_p=SIGMA, sigma_c=6 * SIGMA))
        kernels = g2_pulsed_kernels(dec, 1.1)
        w = CI + CII + 0.5 * SIGMA
        w_i = CI + 0.4 * SIGMA
        family = kernels.incoherent_family(w, w_i)
        f_ii = modes_at(dec, "II", w - w_i)[:, 0]
        f_i = modes_at(dec, "I", w_i)[:, 0]
        r = mode_squeezing(dec.p, 1.1)
        s, c = np.sinh(r), np.cosh(r)
        coherent_terms = f_ii * f_i * s * c
        swapped = coherent_terms * s / c
        assert np.allclose(np.diag(family), swapped, rtol=1e-12, atol=0.0)

    def test_broadband_high_gain_ratio_approaches_one(self):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=50 * SIGMA)
        mu = geometric_mode_ratio(src)
        dec = eager_schmidt_decompose_analytic(src, trunc_tol=1e-8)
        ratios = []
        for mult in (1.0, 6.0):
            beta = mult / np.sqrt(1.0 - mu)
            k = g2_pulsed_kernels(dec, beta)
            ratios.append(
                float(k.g2_coherent_value(CI, CII) / k.g2_incoherent_value(CI, CII))
            )
        assert abs(ratios[1] - 1.0) < 5e-3
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_out_of_grid_raises(self):
        dec = schmidt_decompose(pulsed_source())
        kernels = g2_pulsed_kernels(dec, 1.0)
        with pytest.raises(ValueError, match="outside"):
            kernels.coherent(CI + CII + 100 * SIGMA, CI)


class TestClassicalSources:
    def test_negative_photon_numbers_rejected(self):
        from sqfluor.spectral import GaussianAmplitude

        with pytest.raises(ValueError):
            ClassicalPulsed(GaussianAmplitude(CI, SIGMA), GaussianAmplitude(CII, SIGMA), -1.0, 0.0)
        with pytest.raises(ValueError):
            ClassicalCW(-1.0, 0.0, CI, CII)


class TestExports(object):
    def test_jsi_and_schmidt_csv(self, tmp_path):
        src = pulsed_source(sigma_p=SIGMA, sigma_c=3 * SIGMA)
        from sqfluor.sources import export_jsi_csv, export_schmidt_csv

        grid_i = SpectralGrid(CI, 4 * src.sigma_c, 17)
        grid_ii = SpectralGrid(CII, 4 * src.sigma_c, 17)
        jsi = tmp_path / "jsi.csv"
        export_jsi_csv(src, grid_i, grid_ii, jsi)
        lines = jsi.read_text().splitlines()
        assert lines[0] == "omega_I,omega_II,jsi"
        assert len(lines) == 1 + 17 * 17
        dec = schmidt_decompose(src)
        spec = tmp_path / "schmidt.csv"
        export_schmidt_csv(dec, spec)
        lines = spec.read_text().splitlines()
        assert lines[0] == "n,p_n"
        assert len(lines) == 1 + dec.n_modes


@given(
    mu=st.floats(0.0, 0.99),
    beta=st.floats(0.0, 1e6, allow_nan=False),
)
def test_squeezing_from_roots_is_mode_squeezing_bit_for_bit(mu, beta):
    p = geometric_weights(mu)
    assert squeezing_from_roots(np.sqrt(p), beta).tobytes() == mode_squeezing(p, beta).tobytes()


@pytest.mark.parametrize("beta", [-1e-300, -2.0, float("nan")])
def test_squeezing_rejects_a_negative_or_nan_beta(beta):
    p = geometric_weights(0.5)
    for read in (lambda: mode_squeezing(p, beta), lambda: squeezing_from_roots(np.sqrt(p), beta)):
        with pytest.raises(ValueError, match="nonnegative"):
            read()
