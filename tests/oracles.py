"""Reference evaluators that only the tests use.

Each one restates a quantity the library computes another way (or not at
all at run time): correlation kernels straight from the mode tables or the
CW gain functions, the single-photon marginal width of the double-Gaussian
JSA, the Gaussian cloud density, the excitation probability of a
classical pulse pair in closed form and its validity population by
adaptive quadrature, the broadband limit of the CW squeezed rates, the
integral of a linear interpolant against |G_ba|^2 and the CW population
integral by `mpmath`, the lattice correlation on `scipy.fft`, the CW J pass over the whole lattice, a
pulsed sweep row and a CSV cell as the library computed them before the
per-row reads were trimmed, and Simpson doublings that evaluate every
point of each grid.
"""

import numpy as np
import scipy.fft
from scipy.integrate import quad
from scipy.special import wofz

from sqfluor.excitation import (
    SPAN_SIGMAS_CW,
    ExcitationOutcome,
    PulsedExcitationEngine,
    fluorescence,
    within_validity,
    lorentzian_sample_weights,
    one_photon_coupling,
)
from sqfluor.geometry import AtomCloud
from sqfluor.sources import (
    ClassicalPulsed,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    gain_functions_cw,
    mode_squeezing,
)
from sqfluor.spectral import quad_1d

TWO_PI = 2.0 * np.pi


def marginal_sigma(src: SqueezedPulsed) -> float:
    """Single-photon marginal amplitude width of the double Gaussian.

    |gamma|^2 integrated over the partner frequency is Gaussian with intensity
    width such that the amplitude sigma is sqrt((sigma_p^2 + sigma_c^2)/2);
    equals sigma_c exactly in the separable case sigma_p = sigma_c.
    """
    return np.sqrt(0.5 * (src.sigma_p**2 + src.sigma_c**2))


def geometric_weights(mu: float, tail: float = 1e-10) -> np.ndarray:
    """Schmidt weights p_n = (1 - mu) mu^n of the double-Gaussian JSA, cut at `tail`."""
    n_modes = 1 if mu == 0.0 else int(np.ceil(np.log(tail) / np.log(mu)))
    return (1.0 - mu) * mu ** np.arange(n_modes)


def cloud_density(cloud: AtomCloud, x, y, z):
    """Number density (atoms/m^3) of the isotropic Gaussian cloud; integrates to n_atoms."""
    norm = (2.0 * np.pi * cloud.sigma**2) ** 1.5
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2 + np.asarray(z) ** 2
    return cloud.n_atoms * np.exp(-r2 / (2.0 * cloud.sigma**2)) / norm


def g2_cw(omega_i, omega_ii, omega_i_prime, omega_ii_prime, src: SqueezedCW):
    """Delta-limit CW correlation kernels at the given frequency arguments.

    Returns (coherent, incoherent): the coherent kernel is the factorized
    s c product over unprimed/primed band-I arguments (meaningful on the
    energy shell wI + wII = wI' + wII' = pump center); the incoherent
    kernel is the diagonal photon-density product s_I^2(wI) s_II^2(wII).
    """
    s, c = gain_functions_cw(omega_i, src, "I")
    s_p, c_p = gain_functions_cw(omega_i_prime, src, "I")
    coherent = s * c * s_p * c_p
    s_ii, _ = gain_functions_cw(omega_ii, src, "II")
    incoherent = s**2 * s_ii**2
    return coherent, incoherent


class G2PulsedKernels:
    """Pulsed correlation kernels of a Schmidt decomposition at pump strength |beta|.

    Evaluators take the sum frequency w = wI + wII and wI, mirroring the
    integrands of the excitation formulas; mode tables are interpolated
    linearly and evaluation outside the tables raises.
    """

    def __init__(self, dec: SchmidtDecomposition, beta: float):
        self.dec = dec
        r = mode_squeezing(dec.p, beta)[:, None]
        self.s, self.c = np.sinh(r), np.cosh(r)

    def coherent(self, omega, omega_i):
        f_ii = self.dec.modes_at("II", np.asarray(omega) - np.asarray(omega_i))
        f_i = self.dec.modes_at("I", omega_i)
        return np.squeeze(np.sum(self.s * self.c * f_ii * f_i, axis=0))

    def incoherent_family(self, omega, omega_i):
        """(n, m) matrix of f_IIn(w - wI) f_Im(wI) s_n s_m at scalar arguments."""
        f_ii = self.dec.modes_at("II", float(omega) - float(omega_i))[:, 0]
        f_i = self.dec.modes_at("I", float(omega_i))[:, 0]
        s = self.s[:, 0]
        return np.outer(s * f_ii, s * f_i)

    def g1_value(self, band: str, omega):
        """Diagonal first-order correlation sum_n s_n^2 |f_n|^2."""
        f = self.dec.modes_at(band, omega)
        return np.squeeze(np.sum(self.s**2 * f * f, axis=0))

    def g2_coherent_value(self, omega_i, omega_ii):
        """|sum_n f_IIn(wII) f_In(wI) s_n c_n|^2 at equal primed/unprimed args."""
        f_ii = self.dec.modes_at("II", omega_ii)
        f_i = self.dec.modes_at("I", omega_i)
        amp = np.sum(self.s * self.c * f_ii * f_i, axis=0)
        return np.squeeze(np.abs(amp) ** 2)

    def g2_incoherent_value(self, omega_i, omega_ii):
        """G1_I(wI) G1_II(wII) at equal primed/unprimed args."""
        return self.g1_value("I", omega_i) * self.g1_value("II", omega_ii)


def g2_pulsed_kernels(dec: SchmidtDecomposition, beta: float) -> G2PulsedKernels:
    return G2PulsedKernels(dec, beta)


def classical_pulsed_population(src: ClassicalPulsed, sys, coupling, a_eff) -> float:
    """Peak intermediate population of a classical pulse pair, by `quad` at each time.

    max_t (kappa N_I / A) |M(t)|^2 with M(t) = Int G_ba phi_I e^{-i(w - c_I)t}
    dbar-w, G_ba(w) = 1/(omega_ba - w - i Gamma_b/2), on the 121 times over
    +/-6 durations 1/sigma_I that `p_classical_pulsed` reads.  Each M(t) is
    taken in u = w - c_I over +/-12 sigma_I, real and imaginary parts
    apart, split at the Green line and its shoulders.
    """
    if src.n_photons_i == 0.0:
        return 0.0
    sigma = src.amp_i.width
    norm = (np.pi * sigma**2) ** -0.25
    delta = sys.omega_ba - src.amp_i.center
    half_gamma = 0.5 * sys.gamma_b
    reach = 12.0 * sigma
    # The Green line and its shoulders, out to 1000 half-widths.
    points = sorted(
        delta + side * half_gamma * k for k in (0.0, 10.0, 100.0, 1000.0) for side in (-1, 1)
    )
    points = [p for p in dict.fromkeys(points) if -reach < p < reach] or None
    # About 1e-13 of |M(0)|, which is near norm sigma / |delta - i Gamma_b/2| when
    # the pulse is narrower than the line and near norm when it is wider.
    epsabs = 1e-13 * norm * sigma / np.hypot(np.hypot(delta, half_gamma), sigma)

    def abs2_m(t):
        def part(u, which):
            g = 1.0 / (delta - u - 1j * half_gamma)
            phase = np.exp(-0.5 * u * u / sigma**2 - 1j * u * t)
            return which(g * norm * phase) / np.sqrt(2.0 * np.pi)

        re, im = (
            quad(part, -reach, reach, args=(which,), points=points,
                 epsabs=epsabs, epsrel=1e-11, limit=2000)[0]
            for which in (np.real, np.imag)
        )
        return re * re + im * im

    times = np.linspace(-6.0 / sigma, 6.0 / sigma, 121)
    peak = max(abs2_m(t) for t in times)
    kappa = one_photon_coupling(src.amp_i.center, coupling.mu_sq_ba)
    return kappa * src.n_photons_i * peak / a_eff


def classical_pulse_pair_probability(src: ClassicalPulsed, sys, eta, a_eff) -> float:
    """`p_classical_pulsed` from the Faddeeva form of its inner integral.

    phi_I(x) phi_II(w - x) is A(w) exp(-(x - mu(w))^2 / (2 s^2)) with
    1/s^2 = 1/sigma_I^2 + 1/sigma_II^2, so with G_ba(x) = 1/(z_b - x),
    z_b = omega_ba - i Gamma_b/2, and zeta = (z_b - mu(w)) / (sqrt(2) s)
    in the lower half plane,

        K(w) = Int G_ba phi_I phi_II dbar-x = A(w) i pi conj(w(conj zeta)) / sqrt(2 pi)

    with w the Faddeeva function (`scipy.special.wofz`; Weideman, SIAM J.
    Numer. Anal. 31, 1497 (1994)).  The outer Int L(w) |K(w)|^2 dw is taken
    by adaptive quadrature in the detuning d = w - c_I - c_II, split at the
    L line and where mu(w) crosses omega_ba.
    """
    sig_i, sig_ii = src.amp_i.width, src.amp_ii.width
    s2 = 1.0 / (1.0 / sig_i**2 + 1.0 / sig_ii**2)
    var_sum = sig_i**2 + sig_ii**2
    norm = (np.pi * sig_i**2) ** -0.25 * (np.pi * sig_ii**2) ** -0.25
    delta_i = src.amp_i.center - sys.omega_ba
    delta_l = src.amp_i.center + src.amp_ii.center - sys.omega_ca
    gamma_b, gamma_c = sys.gamma_b, sys.gamma_c

    def integrand(d):
        # mu(w) - omega_ba = delta_i + s^2 d / sigma_II^2
        zeta = (-(delta_i + s2 * d / sig_ii**2) - 0.5j * gamma_b) / np.sqrt(2.0 * s2)
        k = norm * np.exp(-d * d / (2.0 * var_sum)) * 1j * np.pi * np.conj(wofz(np.conj(zeta)))
        lorentz = (gamma_c / (2.0 * np.pi)) / ((d + delta_l) ** 2 + 0.25 * gamma_c**2)
        return lorentz * abs(k) ** 2 / (2.0 * np.pi)

    reach = 12.0 * np.sqrt(var_sum)
    breaks = [b for b in (-delta_l, -delta_i * sig_ii**2 / s2) if -reach < b < reach]
    value, _ = quad(integrand, -reach, reach, points=breaks or None,
                    epsabs=0.0, epsrel=1e-12, limit=2000)
    return eta.eta * (src.n_photons_i / a_eff) * (src.n_photons_ii / a_eff) * value


class RegimeViolationError(ValueError):
    """A closed-form limit was requested outside its regime of validity."""


def rate_squeezed_cw_broadband(src: SqueezedCW, sys, eta, a_eff: float) -> ExcitationOutcome:
    """Broadband closed forms; guarded to sigma_c_bar >= 10 Gamma_b.

    coherent   -> (eta/Gamma_c) s_I^2(w_ba) c_I^2(w_ba) / (2 pi A^2)
    incoherent -> (eta/Gamma_b) s_I^4(w_ba) / (2 pi A^2)
    """
    if src.sigma_c_bar < 10.0 * sys.gamma_b:
        raise RegimeViolationError(
            "broadband closed form requires sigma_c_bar >= 10 Gamma_b "
            f"(got ratio {src.sigma_c_bar / sys.gamma_b:.3g})"
        )
    s, c = gain_functions_cw(sys.omega_ba, src, "I")
    s, c = float(s), float(c)
    coherent = eta.eta * s * s * c * c / (TWO_PI * sys.gamma_c * a_eff**2)
    incoherent = eta.eta * s**4 / (TWO_PI * sys.gamma_b * a_eff**2)
    return ExcitationOutcome(coherent, incoherent)


def linear_interpolant_line_integral(nodes, samples, a: float, g: float) -> float:
    """Int f(x) / ((x - a)^2 + g^2) dx at 40 digits, f the linear interpolant of the samples.

    f is zero outside the nodes; each interval's integral is taken in
    closed form (atan and log), so the nodes may be any increasing sequence
    of numbers `mpmath.mpf` takes exactly.
    """
    import mpmath

    with mpmath.workdps(40):
        a, g = mpmath.mpf(a), mpmath.mpf(g)
        total = mpmath.mpf(0)
        for k in range(len(nodes) - 1):
            lo, hi = mpmath.mpf(nodes[k]) - a, mpmath.mpf(nodes[k + 1]) - a
            f0, f1 = mpmath.mpf(samples[k]), mpmath.mpf(samples[k + 1])
            slope = (f1 - f0) / (hi - lo)
            area = (mpmath.atan(hi / g) - mpmath.atan(lo / g)) / g
            moment = (mpmath.log(hi * hi + g * g) - mpmath.log(lo * lo + g * g)) / 2
            total += (f0 - slope * lo) * area + slope * moment
        return float(total)


def cw_population_integral(beta_bar: float, sigma: float, delta: float) -> float:
    """Int sinh^2(beta_bar exp(-(u + delta)^2 / (2 sigma^2))) / (u^2 + 1) du by `mpmath.quad`.

    This is g Int |G_ba|^2 s_I^2 dw in u = (w - omega_ba)/g, g = Gamma_b/2,
    with sigma = sigma_c_bar/g and delta = (omega_ba - c_I)/g; 20 digits.
    Beyond 12 sigma the integrand is below e^-70 of its peak.  The splits
    are the Gaussian's centre, its gain-narrowed width and the Lorentzian's
    core.
    """
    import mpmath

    with mpmath.workdps(20):
        beta_bar, sigma, delta = (mpmath.mpf(v) for v in (beta_bar, sigma, delta))

        def f(u):
            r = mpmath.exp(-((u + delta) ** 2) / (2 * sigma**2))
            return mpmath.sinh(beta_bar * r) ** 2 / (u * u + 1)

        narrow = sigma / mpmath.sqrt(1 + 2 * beta_bar)
        edges = {-delta + side * narrow * m for m in (0, 2, 5) for side in (-1, 1)}
        edges |= {-delta - 12 * sigma, -delta + 12 * sigma}
        edges |= {mpmath.mpf(e) for e in (-1, 0, 1) if abs(e + delta) < 12 * sigma}
        return float(mpmath.quad(f, sorted(edges)))


def scipy_lattice_correlate(weight: np.ndarray, n_out: int):
    """`excitation.lattice_correlate` on `scipy.fft`, as the library ran before numpy.fft."""
    n_w = weight.shape[-1]
    n_table = n_out + n_w - 1
    size = scipy.fft.next_fast_len(n_table, real=True)
    flipped = weight[..., ::-1]
    is_complex = np.iscomplexobj(weight)
    parts = (flipped.real, flipped.imag) if is_complex else (flipped,)
    spectra = [scipy.fft.rfft(part, size) for part in parts]

    def correlate(table: np.ndarray) -> np.ndarray:
        spec_t = scipy.fft.rfft(table[..., :n_table], size)
        out = [scipy.fft.irfft(spec_t * spec, size)[..., n_w - 1 : n_table] for spec in spectra]
        return out[0] + 1j * out[1] if is_complex else out[0]

    return correlate


def full_cw_j_lattice(src: SqueezedCW, sys, scale: float, points_per_scale: float):
    """`excitation.cw_j_lattice` over every lattice column, not just its window.

    Returns (w_i_pts, w_pts, u_tab, lam): the n_w lattice points, n_w + n_i - 1
    entries of s_II^2 and the n_w Lorentzian sample weights.
    """
    h = scale / points_per_scale
    half_u = SPAN_SIGMAS_CW * src.sigma_c_bar
    n_i = 2 * int(np.ceil(half_u / h)) + 1
    w_i_pts = src.center_i + h * (np.arange(n_i) - (n_i - 1) // 2)

    lo = w_i_pts[0] + src.center_ii - half_u
    hi = w_i_pts[-1] + src.center_ii + half_u
    if lo < sys.omega_ca < hi:
        lo = min(lo, sys.omega_ca - 30.0 * sys.gamma_c)
        hi = max(hi, sys.omega_ca + 30.0 * sys.gamma_c)
    n_w = int(np.ceil((hi - lo) / h)) + 1
    n_w = n_w if n_w % 2 == 1 else n_w + 1
    w_pts = lo + h * np.arange(n_w)
    lam = lorentzian_sample_weights(w_pts, h, sys.lineshape_ca(), 0.5 * scale)

    u_axis = (w_pts[0] - w_i_pts[-1]) + h * np.arange(n_w + n_i - 1)
    s_u, _ = gain_functions_cw(u_axis, src, "II")
    return w_i_pts, w_pts, s_u * s_u, lam


def full_lattice_j(u_tab: np.ndarray, lam: np.ndarray, n_i: int) -> np.ndarray:
    """J[j] = sum_k u_tab[k - j + n_i - 1] lam[k]: the strided product over every column."""
    step = u_tab.strides[0]
    u_view = np.lib.stride_tricks.as_strided(u_tab[n_i - 1 :], (n_i, len(lam)), (-step, step))
    return u_view @ lam


def _old_converge(engine: PulsedExcitationEngine, evaluate):
    previous = None
    value = 0.0
    rel = np.nan if len(engine.ladder) == 1 else np.inf
    for stride in engine.ladder:
        value = evaluate(stride)
        if previous is not None:
            rel = abs(value - previous) / max(abs(value), 1e-300)
            if rel <= engine.sample_rel_tol:
                break
        previous = value
    return value, rel


def pulsed_row(engine: PulsedExcitationEngine, beta: float, n_photons: float,
               cl_unit: float, sys, n_atoms: float) -> dict:
    """The CSV cells of one pulsed sweep row, with the row arithmetic of before.

    `mode_squeezing` on the mode weights for each of the three reads,
    `np.outer` for the incoherent weights, the whole ladder loop even for
    one rung, and `fluorescence()` of the squeezed outcome and of a
    classical `ExcitationOutcome`.  The engine is only read: its levels,
    forms, time profiles and coupling.
    """
    p = engine.dec.p
    pop = None
    if engine.coupling is not None:
        s = np.sinh(mode_squeezing(p, beta))
        pop = engine.kappa * float(np.max((s * s) @ engine.time_profiles)) / engine.area
    coherent = incoherent = 0.0
    if beta != 0.0:
        r = mode_squeezing(p, beta)
        w = np.sinh(r) * np.cosh(r)
        value, _ = _old_converge(
            engine, lambda stride: float(w @ engine.coherent_forms[stride] @ w)
        )
        coherent = engine.eta.eta * value / engine.area**2
        s = np.sinh(mode_squeezing(p, beta))
        s2 = s * s
        weights = np.outer(s2, s2)
        value, _ = _old_converge(
            engine, lambda stride: float(np.sum(weights * engine.incoherent_levels[stride]))
        )
        incoherent = engine.eta.eta * value / engine.area**2
    out = ExcitationOutcome(coherent, incoherent, pop)
    p_cl = cl_unit * n_photons**2
    fl_sq = fluorescence(out, sys, n_atoms)
    fl_cl = fluorescence(ExcitationOutcome(p_cl, 0.0), sys, n_atoms)
    return {
        "beta": beta,
        "photons_per_pulse": n_photons,
        "p_classical": p_cl,
        "p_sq_coherent": out.coherent,
        "p_sq_incoherent": out.incoherent,
        "n_fluor_classical": fl_cl.total,
        "n_fluor_sq_coherent": fl_sq.per_atom_coherent * n_atoms,
        "n_fluor_sq_incoherent": fl_sq.per_atom_incoherent * n_atoms,
        "n_fluor_sq_total": fl_sq.total,
        "crossover": beta * np.sqrt(p[0]) >= 1.0,
        "validity": within_validity(out.max_population),
    }


def old_fmt(value) -> str:
    """A CSV cell as `cli._fmt` wrote it before its lookup by exact type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reevaluating_doublings(f, grid):
    """`spectral.simpson_doublings` as the quadrature ran before: every point of every grid."""
    while True:
        yield quad_1d(f, grid)
        grid = grid.doubled()


def mode_time_profiles(engine: PulsedExcitationEngine) -> np.ndarray:
    """The engine's time profiles with out-of-place temporaries, as it built them before."""
    duration = 1.0 / engine.sigma_like
    t_grid = np.linspace(-6.0 * duration, 6.0 * duration, 121)
    phase = np.exp(-1j * np.outer(engine.x - engine.dec.grid_i.center, t_grid))
    m_prof = (engine.cvec[None, :] * engine.fi) @ phase
    return np.abs(m_prof) ** 2
