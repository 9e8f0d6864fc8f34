"""Reference evaluators that only the tests use.

Each one restates a quantity the library computes another way (or not at
all at run time): correlation kernels straight from the mode tables or the
CW gain functions, the single-photon marginal width of the double-Gaussian
JSA, the Gaussian cloud density, the beam-cloud overlap 1/A_eff^2 by
`mpmath`, the excitation probability of a classical pulse pair in closed
form and its validity population by adaptive quadrature, the broadband
limit of the CW squeezed rates, the CW population integral by `mpmath`,
the lattice correlation on `scipy.fft`, the Schmidt-mode helpers the
lattice sweep used (`truncated`, `weighted_mode_count`, `modes_at`), a
pulsed sweep row and a CSV cell as the library computes them with
`fluorescence()` and as `cli._fmt` writes them, the CSV body as
`csv.writer` wrote it before `cli.emit` formatted by column, and the analytic
Schmidt decomposition with its Hermite mode tables (which the library
does not tabulate).

The pulsed squeezed references are here too.  `LatticePulsedEngine` is the
Schmidt-mode lattice engine the library ran before its Gaussian-series
tables, with its FFT lattice correlation and its product-integration
weights for the Green and Lorentzian poles (`pole_weights`, which the
classical pulse pair also took before it moved onto the tables' rule);
`ExactHermiteLatticeEngine` puts
exact Hermite functions on its lattices.  `incoherent_kernel`,
`coherent_kernel` and `population_kernel` restate the three table entries of
`excitation.PulsedExcitationEngine` from their closed-form pieces and take
the last integral by adaptive `quad` (the coherent one in frequency, the
population with its two time integrals in the other order), and
`photon_number_series` is N(beta) = sum_k c_k / (1 - mu^k), in `mpmath`
too (`photon_number_mpmath`).  `spectrum_beta_for_photons` solves for
beta on a cut spectrum, as the sweep did before, for the lattice oracle.

The CW squeezed references are the same construction on the CW gains:
`cw_incoherent_table` (the incoherent double integral's K x K kernel by
Gauss-Legendre panels), `cw_incoherent_entry` (one entry of it in
frequency, by adaptive `quad`), `cw_coherent_amplitude` and
`cw_photon_rate` in closed form, and `cw_reference_columns`, the three
rate columns of resonant CW sweep rows.

`gauss_legendre_mpmath` is the n-point Gauss-Legendre rule on [0, 1] to 30
digits, for the Gauss row of `excitation._gauss_kronrod`.
"""

import csv
import io
from dataclasses import replace

import mpmath
import numpy as np
import scipy.fft
import scipy.optimize
from numpy.fft import irfft, rfft
from scipy.integrate import quad
from scipy.special import erfc, erfcx, gammaln, voigt_profile, wofz

from sqfluor.cli import _fmt
from sqfluor.excitation import (
    ExcitationOutcome,
    _time_grid,
    fluorescence,
    within_validity,
    one_photon_coupling,
)
from sqfluor.geometry import AtomCloud
from sqfluor.sources import (
    JSA_GRID_SPAN_SIGMAS,
    MAX_ANALYTIC_MODES,
    ClassicalPulsed,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    gain_functions_cw,
    geometric_mode_ratio,
    mode_squeezing,
    squeezing_from_roots,
)
from sqfluor.spectral import SpectralGrid
from sqfluor.system import CrossSectionPrefactor, DipoleCoupling, FourLevelSystem

TWO_PI = 2.0 * np.pi
SQRT_2PI = np.sqrt(2.0 * np.pi)


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


def inverse_area_sq(beam_i, beam_ii, cloud: AtomCloud, dps: int = 30) -> float:
    """1/A_eff^2 by `mpmath.quad` of the documented z integrand.

    Per z slice the x-y integrals against the cloud give
    g(z) 4 / (pi^2 W_I W_II (1 + 2 kappa sigma^2)), kappa = 2/W_I + 2/W_II,
    with W_J = w_J^2(z) and g the cloud's z density.  The half line is cut at
    12 sigma, past which the Gaussian leaves less than 1e-32 of the total,
    and split at the Rayleigh ranges shorter than 3 sigma.
    """

    with mpmath.workdps(dps):
        sigma = mpmath.mpf(cloud.sigma)
        beams = [
            (mpmath.mpf(b.waist) ** 2, None if b.rayleigh_range is None else mpmath.mpf(b.rayleigh_range))
            for b in (beam_i, beam_ii)
        ]

        def w2(beam, z):
            w0_sq, z_r = beam
            return w0_sq if z_r is None else w0_sq * (1 + (z / z_r) ** 2)

        def f(z):
            w2_i, w2_ii = w2(beams[0], z), w2(beams[1], z)
            kappa = 2 / w2_i + 2 / w2_ii
            g = mpmath.exp(-(z * z) / (2 * sigma**2)) / mpmath.sqrt(2 * mpmath.pi * sigma**2)
            return 2 * g * 4 / (mpmath.pi**2 * w2_i * w2_ii * (1 + 2 * kappa * sigma**2))

        edges = {mpmath.mpf(0), 12 * sigma}
        edges |= {z_r for _, z_r in beams if z_r is not None and z_r < 3 * sigma}
        return float(mpmath.quad(f, sorted(edges)))


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


def truncated(dec: SchmidtDecomposition, n_keep: int) -> SchmidtDecomposition:
    """The first n_keep modes of `dec`; the dropped weight moves to the tail."""
    n_keep = max(1, min(int(n_keep), dec.n_modes))
    if n_keep == dec.n_modes:
        return dec
    dropped = float(np.sum(dec.p[n_keep:]))
    return replace(
        dec,
        p=dec.p[:n_keep].copy(),
        f_i=dec.f_i[:n_keep].copy(),
        f_ii=dec.f_ii[:n_keep].copy(),
        tail=dec.tail + dropped,
    )


def weighted_mode_count(dec: SchmidtDecomposition, beta: float, rel_tail: float) -> int:
    """Modes needed so the dropped sinh^2 photon weight at |beta| is below rel_tail.

    The rule the lattice sweep kept its modes by.  No gain overflows at any
    |beta|: the weights are sinh^2(r_n) / sinh^2(r_0), r_0 = max r_n.
    """
    r = mode_squeezing(dec.p, beta)
    r_0 = float(np.max(r))
    if r_0 > 0.0:
        weights = np.exp(2.0 * (r - r_0)) * (np.expm1(-2.0 * r) / np.expm1(-2.0 * r_0)) ** 2
    else:
        weights = dec.p
    cumulative = np.cumsum(weights) / float(np.sum(weights))
    return int(np.searchsorted(cumulative, 1.0 - rel_tail)) + 1


def modes_at(dec: SchmidtDecomposition, band: str, omega) -> np.ndarray:
    """Linear interpolation of all mode tables of `dec` at `omega` (band 'I' or 'II')."""
    grid = dec.grid_i if band == "I" else dec.grid_ii
    table = dec.f_i if band == "I" else dec.f_ii
    pts = grid.points
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    slack = max(1e-9 * (pts[-1] - pts[0]), 32.0 * np.finfo(float).eps * np.max(np.abs(pts)))
    if np.any(omega_arr < pts[0] - slack) or np.any(omega_arr > pts[-1] + slack):
        raise ValueError(f"evaluation outside the band-{band} mode grid")
    omega_arr = np.clip(omega_arr, pts[0], pts[-1])
    return np.vstack([np.interp(omega_arr, pts, row) for row in table])


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
        f_ii = modes_at(self.dec, "II", np.asarray(omega) - np.asarray(omega_i))
        f_i = modes_at(self.dec, "I", omega_i)
        return np.squeeze(np.sum(self.s * self.c * f_ii * f_i, axis=0))

    def incoherent_family(self, omega, omega_i):
        """(n, m) matrix of f_IIn(w - wI) f_Im(wI) s_n s_m at scalar arguments."""
        f_ii = modes_at(self.dec, "II", float(omega) - float(omega_i))[:, 0]
        f_i = modes_at(self.dec, "I", float(omega_i))[:, 0]
        s = self.s[:, 0]
        return np.outer(s * f_ii, s * f_i)

    def g1_value(self, band: str, omega):
        """Diagonal first-order correlation sum_n s_n^2 |f_n|^2."""
        f = modes_at(self.dec, band, omega)
        return np.squeeze(np.sum(self.s**2 * f * f, axis=0))

    def g2_coherent_value(self, omega_i, omega_ii):
        """|sum_n f_IIn(wII) f_In(wI) s_n c_n|^2 at equal primed/unprimed args."""
        f_ii = modes_at(self.dec, "II", omega_ii)
        f_i = modes_at(self.dec, "I", omega_i)
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


def cw_population_integral(beta_bar: float, sigma: float, delta: float) -> float:
    """Int sinh^2(beta_bar exp(-(u + delta)^2 / (2 sigma^2))) / (u^2 + 1) du by `mpmath.quad`.

    This is g Int |G_ba|^2 s_I^2 dw in u = (w - omega_ba)/g, g = Gamma_b/2,
    with sigma = sigma_c_bar/g and delta = (omega_ba - c_I)/g; 20 digits.
    Beyond 12 sigma the integrand is below e^-70 of its peak.  The splits
    are the Gaussian's centre, its gain-narrowed width and the Lorentzian's
    core.
    """

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


def pulsed_row(engine, beta: float, n_photons: float, cl_unit: float, sys,
               n_atoms: float) -> dict:
    """The CSV cells of one pulsed sweep row, counted by `fluorescence()`.

    The squeezed outcome is the engine's, read at beta; the classical count
    is `fluorescence()` of a classical `ExcitationOutcome`.  The engine is
    only read.
    """
    out = engine.outcome(beta)
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
        "crossover": beta * np.sqrt(engine.dec.p[0]) >= 1.0,
        "validity": within_validity(out.max_population),
    }


def old_fmt(value) -> str:
    """A CSV cell by the `isinstance` chain of `cli._fmt`, restated to check `cli.emit` against."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_writer_body(rows: list[dict], columns: list[str], fmt=_fmt) -> str:
    """The header row and rows of a sweep CSV as `cli.emit` wrote them with `csv.writer`."""
    body = io.StringIO(newline="")
    writer = csv.writer(body)
    writer.writerow(columns)
    writer.writerows([fmt(row[c]) for c in columns] for row in rows)
    return body.getvalue()


def hermite_function_table(n_modes: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_{n_modes-1} on x (unit weight).

    Uses the normalized three-term recurrence, stable to high order:
    psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2}.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    out = np.empty((n_modes, len(x)))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_modes > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_modes):
        out[n] = x * np.sqrt(2.0 / n) * out[n - 1] - np.sqrt((n - 1.0) / n) * out[n - 2]
    return out


def eager_schmidt_decompose_analytic(
    src: SqueezedPulsed,
    trunc_tol: float = 1e-10,
    grid_i: SpectralGrid | None = None,
    grid_ii: SpectralGrid | None = None,
) -> SchmidtDecomposition:
    """`sources.schmidt_decompose_analytic` with its Hermite mode tables on grids.

    The spectrum is the library's bit for bit; the library tabulates no
    mode.  Without grids, both span +/-JSA_GRID_SPAN_SIGMAS sigma_c with six
    points per half-period of the fastest mode kept (at least 1001).
    """
    mu = geometric_mode_ratio(src)
    sigma_s = np.sqrt(src.sigma_p * src.sigma_c)
    if mu == 0.0:
        n_keep = 1
    else:
        n_keep = min(int(np.ceil(np.log(trunc_tol) / np.log(mu))), MAX_ANALYTIC_MODES)
    tail = 0.0 if mu == 0.0 else float(mu**n_keep)

    if grid_i is None or grid_ii is None:
        osc = np.pi * sigma_s / np.sqrt(2.0 * n_keep + 1.0)
        half = JSA_GRID_SPAN_SIGMAS * src.sigma_c
        n_points = int(np.ceil(2.0 * half / (osc / 6.0))) + 1
        n_points = max(n_points, 1001)
        n_points = n_points if n_points % 2 == 1 else n_points + 1
        grid_i = grid_i or SpectralGrid(src.center_i, half, n_points)
        grid_ii = grid_ii or SpectralGrid(src.center_ii, half, n_points)

    n = np.arange(n_keep)
    p = (1.0 - mu) * mu**n if mu > 0.0 else np.ones(1)
    f_i = hermite_function_table(n_keep, (grid_i.points - src.center_i) / sigma_s) / np.sqrt(sigma_s)
    f_ii = hermite_function_table(n_keep, (grid_ii.points - src.center_ii) / sigma_s) / np.sqrt(sigma_s)
    f_ii *= np.where(n % 2 == 0, 1.0, -1.0)[:, None]
    return SchmidtDecomposition(p, f_i, f_ii, grid_i, grid_ii, tail)


def mode_time_profiles(engine) -> np.ndarray:
    """The engine's time profiles with out-of-place temporaries, as it built them before."""
    duration = 1.0 / engine.sigma_like
    t_grid = np.linspace(-6.0 * duration, 6.0 * duration, 121)
    phase = np.exp(-1j * np.outer(engine.x - engine.dec.grid_i.center, t_grid))
    m_prof = (engine.cvec[None, :] * engine.fi) @ phase
    return np.abs(m_prof) ** 2


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a length pocketfft transforms fastest.

    Equals `scipy.fft.next_fast_len(n, real=True)`.  For each odd 3^i 5^k
    below the best length found so far, the smallest power-of-two multiple
    that reaches n is a candidate.
    """
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            candidate = f35 << ((n - 1) // f35).bit_length()
            if candidate < best:
                best = candidate
            f35 *= 3
        f5 *= 5
    return best


def lattice_correlate(weight: np.ndarray, n_out: int):
    """Correlator `table -> C` on a uniform lattice, for a fixed weight.

        C[..., j] = sum_k table[..., j + k] * weight[..., k],   0 <= j < n_out

    By the convolution theorem (Cooley & Tukey, Math. Comp. 19, 297 (1965))
    all n_out sums come from one rfft/irfft pair of length
    _fast_len(n_out + n_w - 1).  The weight spectrum is taken once and
    reused for every table passed to the correlator.  `table` is real with at
    least n_out + n_w - 1 points (later points are not read); `weight` is real
    or complex; leading axes broadcast.
    """
    n_w = weight.shape[-1]
    n_table = n_out + n_w - 1
    size = _fast_len(n_table)
    flipped = weight[..., ::-1]
    is_complex = np.iscomplexobj(weight)
    parts = (flipped.real, flipped.imag) if is_complex else (flipped,)
    spectra = [rfft(part, size) for part in parts]

    def correlate(table: np.ndarray) -> np.ndarray:
        spec_t = rfft(table[..., :n_table], size)
        out = [irfft(spec_t * spec, size)[..., n_w - 1 : n_table] for spec in spectra]
        return out[0] + 1j * out[1] if is_complex else out[0]

    return correlate


# Panels farther than this many of their half-widths from the pole use the series.
POLE_SERIES_RADIUS = 4.0
_POLE_SERIES_TERMS = 12  # |zeta| > 4: the first term left out is below 16**-12 / 9 of the leading one


def pole_weights(first: float, step: float, n_points: int, pole: complex) -> np.ndarray:
    """Complex weights W with Int f(x)/(x - pole) dx ~= W . f(x_k), x_k = first + step k.

    Product integration (Atkinson, *An Introduction to Numerical Analysis*,
    2nd ed., 1989, sec. 5.6; Davis & Rabinowitz, *Methods of Numerical
    Integration*, 2nd ed., 1984, sec. 2.5): on each Simpson panel f is
    replaced by its quadratic interpolant and 1/(x - pole) is integrated
    exactly, so the rule is exact for f quadratic on every panel however
    narrow the line is against the step.  On the panel with midpoint m,
    x = m + step t and zeta = (pole - m)/step; with J_k = Int_{-1}^{1}
    t^k/(t - zeta) dt,

        J0 = log(1 - zeta) - log(-1 - zeta),  J1 = 2 + zeta J0,  J2 = zeta J1,

    and the panel's three weights are (J2 - J1)/2, J0 - J2 and (J2 + J1)/2.
    J1 cancels as |zeta| grows, so panels more than POLE_SERIES_RADIUS steps
    from the pole take all three from the expansion 1/(t - zeta) = -sum_k
    t^k / zeta^(k+1) (`_pole_series`).  The pole must lie off the real axis;
    the weights do not depend on the units of x.
    """
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"pole weights need an odd n >= 3, got {n_points}")
    pole = complex(pole)
    if pole.imag == 0.0:
        raise ValueError("the pole must lie off the real axis")
    mid = 2.0 * np.arange((n_points - 1) // 2) + 1.0
    zeta = ((pole.real - first) / step - mid) + 1j * (pole.imag / step)
    j0, j1, j2 = (np.empty_like(zeta) for _ in range(3))

    near = np.abs(zeta) <= POLE_SERIES_RADIUS
    z = zeta[near]
    j0[near] = np.log(1.0 - z) - np.log(-1.0 - z)
    j1[near] = 2.0 + z * j0[near]
    j2[near] = z * j1[near]

    far = ~near
    j0[far], j1[far], j2[far] = _pole_series(zeta[far])

    weights = np.zeros(n_points, dtype=complex)
    weights[:-1:2] = 0.5 * (j2 - j1)
    weights[1::2] = j0 - j2
    weights[2::2] += 0.5 * (j2 + j1)
    return weights


def _pole_series(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J0, J1, J2), J_k = Int_{-1}^{1} t^k/(t - zeta) dt, for |zeta| > POLE_SERIES_RADIUS.

    From 1/(t - zeta) = -sum_k t^k / zeta^(k+1): J0 = -2 a/zeta, J2 = -2 b/zeta
    and J1 = J2/zeta, with a = sum_i u^i/(2i + 1), b = sum_i u^i/(2i + 3) and
    u = 1/zeta^2.
    """
    inv = 1.0 / zeta
    u = inv * inv
    a = b = 0.0
    for i in range(_POLE_SERIES_TERMS - 1, -1, -1):
        a = a * u + 1.0 / (2 * i + 1)
        b = b * u + 1.0 / (2 * i + 3)
    j2 = -2.0 * b * inv
    return -2.0 * a * inv, j2 * inv, j2


POINTS_PER_FEATURE = 12  # inner lattice points per mode oscillation (or per wide Gamma_b)
SAMPLES_PER_SIGMA = 8.0  # coarsest outer sampling per band-I width
MAX_SAMPLE_LEVELS = 3  # rungs of the stride ladder
SUPPORT_EPSILON = 1e-12  # table entries below this share of the peak lie outside the support


def _oscillation_scale(grid_points: np.ndarray, table: np.ndarray) -> float:
    """Smallest variation scale of the highest mode.

    extent/(crossings + 8): one lobe per zero crossing plus margin so that a
    crossing-free Gaussian still reports a fraction of its own width.
    """
    row = table[-1]
    live = np.abs(row) > 1e-6 * np.max(np.abs(row))
    if not np.any(live):
        return grid_points[-1] - grid_points[0]
    idx = np.nonzero(live)[0]
    segment = row[idx[0] : idx[-1] + 1]
    crossings = int(np.sum(np.abs(np.diff(np.sign(segment))) > 0))
    extent = grid_points[idx[-1]] - grid_points[idx[0]]
    return extent / (crossings + 8.0)


def _support_extent(grid_points: np.ndarray, table: np.ndarray) -> float:
    mask = np.abs(table[-1]) > SUPPORT_EPSILON * np.max(np.abs(table[-1]))
    idx = np.nonzero(mask)[0]
    center = 0.5 * (grid_points[0] + grid_points[-1])
    return max(abs(grid_points[idx[0]] - center), abs(grid_points[idx[-1]] - center))


class LatticePulsedEngine:
    """The Schmidt-mode lattice engine the library ran before its Gaussian-series tables.

    Construction tabulates the modes on a uniform inner lattice over the
    band-I mode support, whose step resolves the fastest mode oscillation
    (and Gamma_b too when the Green line is at least a quarter of it wide),
    then computes

        V_n(w_j) = Int G_ba f_IIn(w_j - x) f_In(x) dbar-x     (coherent)
        T_nm     = Int L(w) |Int G_ba f_IIn f_Im dbar-x|^2 dw (incoherent)

    on outer sample lattices aligned with the inner one, over the sum of
    the band-I and band-II supports.  Outside those supports the integrands
    carry a mode table below SUPPORT_EPSILON of its peak, so no lattice
    stretches towards the Green or Lorentzian poles.  Both lines are poles,
    G_ba(x) = -1/(x - z_b) and L(w) = Im[1/(w - z_c)]/pi, and both integrals
    take one rule, however narrow the line is against the step:
    product-integration weights (`pole_weights`), exact for a
    mode product that is quadratic on each Simpson panel.  On the aligned
    lattices the inner integral K_nm(w_j) is a lattice correlation of the
    band-II table with the Green-weighted band-I table, so
    `lattice_correlate` gives it for every m at every stride-1 outer point
    in one FFT pass per n, and each outer stride is a subsample of that
    pass.  V_n is K_nn, row n of mode n's pass.  The outer Lorentzian
    integral is a fixed linear functional lam of the outer samples, so on
    every rung both levels are real M x M matrices: T_nm and the coherent form
    Q_nm = Re sum_j lam_j V_n(w_j) conj(V_m(w_j)).  A beta sweep reads only
    w @ Q @ w with w_n = s_n c_n and sum_nm s_n^2 s_m^2 T_nm.  Both levels
    are read down one stride ladder (`ladder`), halving the stride until two
    rungs agree to `sample_rel_tol`; a one-rung ladder is read once.  The
    readers take the pump strength |beta| and weight the engine's own modes
    by the gains of `mode_squeezing`, formed from `sqrt_p`, the roots of the
    mode weights taken once.  The time profiles the peak intermediate
    population reads are built only with a coupling.

    Everything the public methods read is computed in __init__ and never
    changed afterwards, so one engine may serve many threads without a lock.
    """

    def __init__(
        self,
        dec: SchmidtDecomposition,
        sys: FourLevelSystem,
        eta: CrossSectionPrefactor,
        a_eff: float,
        coupling: DipoleCoupling | None = None,
        sample_rel_tol: float = 1e-3,
    ):
        self.dec = dec
        self.sys = sys
        self.eta = eta
        self.area = a_eff
        self.coupling = coupling
        self.sqrt_p = np.sqrt(dec.p)
        self.sample_rel_tol = sample_rel_tol
        self._build_lattice()
        # Int G_ba f dbar-x with G_ba(x) = -1/(x - z_b), z_b = omega_ba - i Gamma_b/2.
        z_b = sys.omega_ba - 0.5j * sys.gamma_b
        self.cvec = -pole_weights(self.x[0], self.h, self.n_in, z_b) / SQRT_2PI
        self.time_profiles = None
        if coupling is not None:
            self.kappa = one_photon_coupling(dec.grid_i.center, coupling.mu_sq_ba)
            # Time profiles first: their temporaries are freed before the levels'.
            self.time_profiles = self._mode_time_profiles()
        self.ladder = self._stride_ladder(self.sigma_like / SAMPLES_PER_SIGMA)
        self.lorentz_weights = {stride: self._lorentz_weights(stride) for stride in self.ladder}
        self.coherent_rows, self.incoherent_levels = self._kernel_pass()
        self.coherent_forms = {stride: self._coherent_form(stride) for stride in self.ladder}

    # -- lattice -----------------------------------------------------------

    def _build_lattice(self):
        dec, sys = self.dec, self.sys
        pts_i = dec.grid_i.points
        self.osc = _oscillation_scale(pts_i, dec.f_i)
        h = self.osc / POINTS_PER_FEATURE
        if sys.gamma_b >= self.osc / 4.0:
            # Without this floor such panels' ladders collapse to one rung (DECISIONS.md).
            h = min(h, sys.gamma_b / POINTS_PER_FEATURE)

        # The inner integrand carries a factor f_Im, so the inner lattice only
        # needs the band-I mode support, not the full JSA grid span.
        ext_i = _support_extent(pts_i, dec.f_i)
        half_i = min(dec.grid_i.half_span, ext_i + 4.0 * self.osc)
        n_in = int(np.ceil(2.0 * half_i / h)) + 1
        self.n_in = n_in if n_in % 2 == 1 else n_in + 1
        self.h = 2.0 * half_i / (self.n_in - 1)
        self.x = dec.grid_i.center - half_i + self.h * np.arange(self.n_in)

        self.fi = modes_at(dec, "I", self.x)

        # K_nm(w) vanishes once w - x leaves the band-II support for every x
        # in the band-I support, so the outer lattice covers the sum of the
        # two supports.
        ext_ii = _support_extent(dec.grid_ii.points, dec.f_ii)
        self.out_center = dec.grid_i.center + dec.grid_ii.center
        hard_cap = dec.grid_i.half_span + dec.grid_ii.half_span
        self.out_half = min(hard_cap, ext_i + ext_ii + 2.0 * self.osc)

        # Band-II tables on the shifted lattice: q_axis[m] is a band-II
        # frequency and q = (n_in - 1) + j*stride - k maps (w_j, x_k) pairs.
        n_out_max = int(np.ceil(2.0 * self.out_half / self.h)) + 2
        if n_out_max % 2 == 0:
            n_out_max += 1
        self.n_out_max = n_out_max
        out_lo = self.out_center - self.out_half
        self.q_axis = (out_lo - self.x[-1]) + self.h * np.arange(n_out_max + self.n_in - 1)
        pts_ii = dec.grid_ii.points
        self.fii_lat = np.vstack(
            [np.interp(self.q_axis, pts_ii, row, left=0.0, right=0.0) for row in dec.f_ii]
        )
        self.sigma_like = _support_extent(pts_i, dec.f_i[:1]) / 7.0

    # -- outer lattices --------------------------------------------------------

    def n_out(self, stride: int) -> int:
        """Number of outer samples at `stride` (odd, for Simpson)."""
        n = (self.n_out_max - 1) // stride + 1
        return n if n % 2 == 1 else n - 1

    def _rung(self, rows: np.ndarray, stride: int) -> np.ndarray:
        """Stride-1 outer samples subsampled onto the outer lattice of `stride`."""
        return rows[..., ::stride][..., : self.n_out(stride)]

    def _stride_ladder(self, target_spacing: float) -> list[int]:
        stride = max(1, int(np.floor(target_spacing / self.h)))
        while self.n_out(stride) < 33 and stride > 1:
            stride //= 2
        ladder = [stride]
        while stride > 1 and len(ladder) < MAX_SAMPLE_LEVELS:
            stride = max(1, stride // 2)
            ladder.append(stride)
        return ladder

    def _lorentz_weights(self, stride: int) -> np.ndarray:
        """Weights lam with Int L(w) Q(w) dw ~= lam . Q for real Q on the lattice of `stride`."""
        shape = self.sys.lineshape_ca()
        weights = pole_weights(
            self.out_center - self.out_half, self.h * stride, self.n_out(stride),
            shape.center + 0.5j * shape.fwhm,
        )
        return weights.imag / np.pi

    # -- kernel levels -------------------------------------------------------

    def _kernel_pass(self) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """(V_n rows, {stride: T_nm}) from one correlator call per mode n.

        On the aligned lattice K_nm(w_j) = sum_k fii_lat[n, j + k] B[m, k] with
        B the Green-weighted band-I tables, inner index reversed.  Mode n's
        call gives K_nm for every m at every stride-1 outer point; its row n
        is V_n.  |K_nm|^2 is formed for one n at a time, never for all pairs.
        Column r of `lam` holds rung r's Lorentzian weights at its stride-1
        positions, so one product per n weights every rung.
        """
        correlate = lattice_correlate((self.cvec[None, :] * self.fi)[:, ::-1], self.n_out_max)
        lam = np.zeros((self.n_out_max, len(self.ladder)))
        for r, stride in enumerate(self.ladder):
            self._rung(lam[:, r], stride)[:] = self.lorentz_weights[stride]
        n_modes = self.dec.n_modes
        v_rows = np.empty((n_modes, self.n_out_max), dtype=complex)
        t_all = np.empty((len(self.ladder), n_modes, n_modes))
        for n in range(n_modes):
            k_rows = correlate(self.fii_lat[n])
            v_rows[n] = k_rows[n]
            t_all[:, n, :] = ((k_rows.real**2 + k_rows.imag**2) @ lam).T
        return v_rows, dict(zip(self.ladder, t_all))

    def coherent_level(self, stride: int) -> np.ndarray:
        """V_n(w_j) on the outer lattice of `stride` (a view)."""
        return self._rung(self.coherent_rows, stride)

    def _coherent_form(self, stride: int) -> np.ndarray:
        """Q = Re(V diag(lam) V^H) on one rung, so that w @ Q @ w = lam . |w @ V|^2 for real w."""
        v = self.coherent_level(stride)
        lam = self.lorentz_weights[stride]
        return (v.real * lam) @ v.real.T + (v.imag * lam) @ v.imag.T

    # -- probabilities -------------------------------------------------------

    def _converge_levels(self, evaluate) -> tuple[float, float]:
        """(value, rel) down the ladder until two rungs agree to sample_rel_tol.

        rel is the change between the last two rungs evaluated.  A one-rung
        ladder has nothing to compare, so its rel is NaN ("not estimated"),
        never 0.0.
        """
        if len(self.ladder) == 1:
            return evaluate(self.ladder[0]), np.nan
        previous = None
        value = 0.0
        rel = np.inf
        for stride in self.ladder:
            value = evaluate(stride)
            if previous is not None:
                rel = abs(value - previous) / max(abs(value), 1e-300)
                if rel <= self.sample_rel_tol:
                    break
            previous = value
        return value, rel

    def coherent_probability(self, beta: float) -> tuple[float, float]:
        """(value, sampling_rel_err) of the coherent pulsed probability at |beta|."""
        r = squeezing_from_roots(self.sqrt_p, beta)
        weights = np.sinh(r) * np.cosh(r)

        def evaluate(stride: int) -> float:
            return float(weights @ self.coherent_forms[stride] @ weights)

        value, rel = self._converge_levels(evaluate)
        return self.eta.eta * value / self.area**2, rel

    def incoherent_probability(self, beta: float) -> tuple[float, float]:
        """(value, sampling_rel_err) of the incoherent pulsed probability at |beta|."""
        s = np.sinh(squeezing_from_roots(self.sqrt_p, beta))
        s2 = s * s
        weights = np.multiply.outer(s2, s2)

        def evaluate(stride: int) -> float:
            return float((weights * self.incoherent_levels[stride]).sum())

        value, rel = self._converge_levels(evaluate)
        return self.eta.eta * value / self.area**2, rel

    # -- intermediate-state population (validity diagnostic) -----------------

    def _mode_time_profiles(self) -> np.ndarray:
        """|Int G_ba f_In(w) e^{-i w t} dbar-w|^2 on a +/-6-duration time grid."""
        t_grid = _time_grid(1.0 / self.sigma_like)
        # In place: the n_in x 121 complex temporaries set the build's peak memory.
        phase = -1j * np.outer(self.x - self.dec.grid_i.center, t_grid)
        np.exp(phase, out=phase)
        m_prof = (self.cvec[None, :] * self.fi) @ phase
        return np.abs(m_prof) ** 2

    def max_population_weighted(self, weights: np.ndarray) -> float:
        """max_t sum_n weights_n |M_n(t)|^2 (no coupling or area factors)."""
        return float((weights @ self.time_profiles).max())

    def population(self, weights: np.ndarray) -> float:
        """max_t of (kappa/A) sum_n weights_n |Int G f_In e^{-iwt} dbar-w|^2.

        The weights are the mode gains s_n^2.  Needs the engine's coupling, whose
        single-photon coupling `kappa` and time profiles are taken once at
        construction; raises ValueError on an engine built without one.
        """
        if self.coupling is None:
            raise ValueError(
                "the intermediate-state population needs a dipole coupling; "
                "this engine was built with coupling=None"
            )
        return self.kappa * self.max_population_weighted(weights) / self.area

    def outcome(self, beta: float) -> ExcitationOutcome:
        """Coherent and incoherent probabilities at |beta|, with their diagnostics.

        With a coupling, the peak intermediate population comes too.  A
        sampling error is NaN where its ladder has a single stride.
        """
        pop = None
        if self.coupling is not None:
            s = np.sinh(squeezing_from_roots(self.sqrt_p, beta))
            pop = self.population(s * s)
        if beta == 0.0:
            return ExcitationOutcome(0.0, 0.0, pop)
        coherent, rel_c = self.coherent_probability(beta)
        incoherent, rel_ic = self.incoherent_probability(beta)
        return ExcitationOutcome(
            coherent, incoherent, pop,
            diagnostics={
                "coherent_sampling_rel_err": rel_c,
                "incoherent_sampling_rel_err": rel_ic,
                "truncation_tail": self.dec.tail,
            },
        )


class ExactHermiteLatticeEngine(LatticePulsedEngine):
    """A `LatticePulsedEngine` with exact Hermite functions on its lattices.

    The lattice engine interpolates the mode tables of
    `schmidt_decompose_analytic` linearly; these exact values take that
    table error out, so what is left is the error of its quadrature.
    """

    def __init__(self, src, *args, **kwargs):
        self.src = src
        super().__init__(*args, **kwargs)

    def _build_lattice(self):
        super()._build_lattice()
        src, n_modes = self.src, self.dec.n_modes
        sigma_s = np.sqrt(src.sigma_p * src.sigma_c)
        self.fi = hermite_function_table(n_modes, (self.x - src.center_i) / sigma_s)
        self.fi /= np.sqrt(sigma_s)
        sign = np.where(np.arange(n_modes) % 2 == 0, 1.0, -1.0)[:, None]
        self.fii_lat = hermite_function_table(n_modes, (self.q_axis - src.center_ii) / sigma_s)
        self.fii_lat *= sign / np.sqrt(sigma_s)


# ---------------------------------------------------------------------------
# Gaussian-series references for the pulsed squeezed tables
# ---------------------------------------------------------------------------


def pulsed_units(src: SqueezedPulsed, sys) -> dict:
    """mu, sigma_s and the dimensionless g, gc, vc and delta of a pulsed panel.

    Frequencies are in units of sigma_s = sqrt(sigma_p sigma_c): g and gc are
    the half-widths of the Green line and the Lorentzian, vc the
    Lorentzian's offset from c_I + c_II and delta the band-I centre's offset
    from omega_ba.
    """
    mu = ((src.sigma_c - src.sigma_p) / (src.sigma_c + src.sigma_p)) ** 2
    sigma_s = np.sqrt(src.sigma_p * src.sigma_c)
    return {
        "mu": mu,
        "sigma_s": sigma_s,
        "g": 0.5 * sys.gamma_b / sigma_s,
        "gc": 0.5 * sys.gamma_c / sigma_s,
        "vc": (sys.omega_ca - src.center_i - src.center_ii) / sigma_s,
        "delta": (src.center_i - sys.omega_ba) / sigma_s,
    }


def mehler_pair(rho: float) -> tuple[float, float]:
    """(A, N) = ((1 - rho)/(1 + rho), (pi (1 - rho^2))^(-1/2))."""
    return (1.0 - rho) / (1.0 + rho), 1.0 / np.sqrt(np.pi * (1.0 - rho * rho))


def _faddeeva_shifted(z: complex, log_scale: complex) -> complex:
    """e^log_scale w(z), with w(z) = 2 e^(-z^2) - w(-z) below the real axis."""
    if z.imag >= 0.0:
        return np.exp(log_scale) * wofz(z)
    return 2.0 * np.exp(log_scale - z * z) - np.exp(log_scale) * wofz(-z)


def lorentz_gauss(kappa: float, lam: float, vc: float, gc: float) -> complex:
    """Int l(v) e^(-kappa v^2 + i lam v) dv as two Faddeeva values (l: unit area, at vc, half-width gc)."""
    root = np.sqrt(kappa)
    zc = vc + 1j * gc
    z1 = root * zc - 1j * lam / (2.0 * root)
    z2 = -root * np.conj(zc) + 1j * lam / (2.0 * root)
    scale = -lam * lam / (4.0 * kappa)
    return 0.5 * (_faddeeva_shifted(z1, scale) + _faddeeva_shifted(z2, scale))


def _half_line(f, scale: float) -> float:
    """Int_0^inf f by adaptive quad, split at a few multiples of `scale`."""
    edges = [0.0] + [scale * m for m in (0.5, 2.0, 8.0, 32.0)] + [np.inf]
    return sum(
        quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def incoherent_kernel(mu: float, k: int, l: int, u: dict) -> float:
    """T_kl by adaptive quad over t of e^(-t^2/(8B)) H(t) Re[e^(i delta t) F(t)].

    rho_k = mu^k, rho_l = mu^l; H(t) = Int_t^inf e^(-s^2/(8P) - g s) ds,
    F = `lorentz_gauss` at kappa = A_k A_l/(A_k + A_l), lam = A_k t/(2B).
    """
    a_k, n_k = mehler_pair(mu**k)
    a_l, n_l = mehler_pair(mu**l)
    b, p = 0.5 * (a_k + a_l), 0.5 * (1.0 / a_k + 1.0 / a_l)
    g = u["g"]

    def f(t):
        h = np.sqrt(2.0 * np.pi * p) * np.exp(-t * t / (8.0 * p) - g * t) * erfcx(
            (t + 4.0 * p * g) / np.sqrt(8.0 * p)
        )
        lg = lorentz_gauss(a_k * a_l / (a_k + a_l), a_k * t / (2.0 * b), u["vc"], u["gc"])
        return np.exp(-t * t / (8.0 * b)) * h * np.real(np.exp(1j * u["delta"] * t) * lg)

    return np.pi * n_k * n_l / np.sqrt(b * p) * _half_line(f, min(np.sqrt(b), 1.0 / g))


def coherent_kernel(mu: float, k: int, l: int, u: dict) -> float:
    """Q_kl = Int l(v) N_k N_l e^(-v^2/(4A_k) - v^2/(4A_l)) Re[Phi_k conj(Phi_l)] dv by adaptive quad.

    rho = mu^(k + 1/2); Phi(v) = i pi conj(w(conj zeta)), zeta = -sqrt(A) (v/2 +
    delta + i g), is Int e^(-A (u - v/2)^2) (-1/(u + delta + i g)) du.
    """
    a_k, n_k = mehler_pair(mu ** (k + 0.5))
    a_l, n_l = mehler_pair(mu ** (l + 0.5))
    g, gc, vc, delta = u["g"], u["gc"], u["vc"], u["delta"]

    def amp(a, v):
        zeta = -np.sqrt(a) * (0.5 * v + delta + 1j * g)
        return 1j * np.pi * np.conj(wofz(np.conj(zeta)))

    def f(v):
        lorentz = (gc / np.pi) / ((v - vc) ** 2 + gc * gc)
        gauss = np.exp(-v * v * (0.25 / a_k + 0.25 / a_l))
        return lorentz * n_k * n_l * gauss * np.real(amp(a_k, v) * np.conj(amp(a_l, v)))

    reach = 2.0 * np.sqrt(45.0 * max(a_k, a_l))
    points = sorted({vc, vc - 10.0 * gc, vc + 10.0 * gc, -2.0 * delta})
    points = [x for x in points if -reach < x < reach]
    return quad(f, -reach, reach, points=points or None, epsabs=0.0, epsrel=1e-13, limit=800)[0]


def population_kernel(mu: float, k: int, tau: float, u: dict) -> float:
    """N_k Int_0^inf e^(-x^2/(4A)) cos(delta x) Int_x^inf e^(-g s - A (s - 2 tau)^2/4) ds dx.

    rho_k = mu^k.  The inner integral is one erfcx; the outer is adaptive
    quad.  The population of a row is (kappa/(sigma_s A_eff)) max over tau
    of sum_k c_k times this.
    """
    a, n = mehler_pair(mu**k)
    g, root = u["g"], np.sqrt(a)

    def inner(x):
        z = root * (x - 2.0 * tau) / 2.0 + g / root
        if z >= 0.0:
            return np.sqrt(np.pi / a) * np.exp(-g * x - a * (x - 2.0 * tau) ** 2 / 4.0) * erfcx(z)
        return np.sqrt(np.pi / a) * (
            2.0 * np.exp(g * g / a - 2.0 * g * tau)
            - np.exp(-g * x - a * (x - 2.0 * tau) ** 2 / 4.0) * erfcx(-z)
        )

    def f(x):
        return np.exp(-x * x / (4.0 * a)) * np.cos(u["delta"] * x) * inner(x)

    return n * _half_line(f, min(2.0 * root, 1.0 / g))


def series_terms(r0: float, orders: np.ndarray) -> np.ndarray:
    """(2 r0)^m / (2 m!) for each order m, in log space."""
    return np.exp(orders * np.log(2.0 * r0) - np.log(2.0) - gammaln(orders + 1.0))


def photon_number_series(mu: float, beta: float, n_terms: int = 200) -> float:
    """N(beta) = sum_k c_k / (1 - mu^k), c_k = (2 r0)^(2k) / (2 (2k)!), r0 = beta sqrt(1 - mu).

    sum_n sinh^2(r0 mu^(n/2)) with sinh^2 as its Gaussian series and the
    geometric sum over n done first: every mode, no truncation.
    """
    k = np.arange(1, n_terms + 1)
    c = series_terms(beta * np.sqrt(1.0 - mu), 2.0 * k)
    return float(np.sum(c / (1.0 - mu**k)))


def photon_number_mpmath(mu: float, beta: float, dps: int = 40) -> float:
    """N(beta) = sum_k c_k / (1 - mu^k) in `mpmath` at `dps` digits, to the last term that counts.

    mu and beta are taken as the exact values of their doubles; no term of
    the series is cut in advance.
    """
    with mpmath.workdps(dps):
        mu, r0 = mpmath.mpf(mu), mpmath.mpf(beta) * mpmath.sqrt(1 - mpmath.mpf(mu))
        total, k = mpmath.mpf(0), 1
        while True:
            term = (2 * r0) ** (2 * k) / (2 * mpmath.factorial(2 * k)) / (1 - mu**k)
            total += term
            if k > 2 * r0 and term < total * mpmath.mpf(10) ** (2 - dps):
                return float(total)
            k += 1


def spectrum_beta_for_photons(p: np.ndarray, n_photons) -> np.ndarray:
    """The beta with sum_n sinh^2(beta sqrt(p_n)) = N on a given (cut) spectrum, per photon number.

    What the library's sweep solved on before its betas came from the
    engine's whole-spectrum series, kept for the lattice oracle, which
    reads a truncated spectrum.  `scipy.optimize.brentq` solves asinh(sqrt
    N(beta)) = asinh(sqrt N) one N at a time on the superadditive bracket
    [y / sqrt(sum p), y / sqrt(max p)], each end moved out by 1e-12 so
    that rounding shows no wrong sign.
    """
    sqrt_p = np.sqrt(p)

    def solve(n_photons):
        y = np.arcsinh(np.sqrt(n_photons))
        lo, hi = y / np.sqrt(np.sum(p)), y / sqrt_p.max()
        if lo == hi:
            return lo
        return scipy.optimize.brentq(
            lambda beta: np.arcsinh(np.sqrt(np.sum(np.sinh(beta * sqrt_p) ** 2))) - y,
            lo * (1.0 - 1e-12), hi * (1.0 + 1e-12), xtol=1e-13 * lo, rtol=1e-13, maxiter=200,
        )

    return np.array([solve(n) for n in np.atleast_1d(n_photons)])


# ---------------------------------------------------------------------------
# Gaussian-series references for the CW squeezed rates (resonant rows)
# ---------------------------------------------------------------------------
#
# Both CW sweeps run resonant rows: c_I = omega_ba and c_I + c_II = omega_ca.
# In x = (w - c)/sigma, sigma = sigma_c_bar, sinh^2(beta_bar r) = sum_k b_k
# e^(-k x^2) with b_k = (2 beta_bar)^(2k) / (2 (2k)!), and sinh cosh(beta_bar
# r) = sum_k a_k e^(-(2k + 1) x^2 / 2) with a_k = (2 beta_bar)^(2k+1) /
# (2 (2k+1)!).  g = Gamma_b/(2 sigma) and gc = Gamma_c/(2 sigma) are the
# half-widths of |G_ba|^2 and of L in these units.  None of these reads the
# library's numerics.

CW_TAIL_EXPONENT = 46.0  # the half-line stops where the integrand's bound is below e^-46
CW_SERIES_CUT = 2.0**-60  # series terms below this share of the largest are left out


def cw_series_orders(beta_bar: float) -> np.ndarray:
    """The orders k >= 1 of b_k that reach CW_SERIES_CUT of the largest."""
    k = np.arange(1, 1000)
    log_b = 2.0 * k * np.log(2.0 * beta_bar) - gammaln(2.0 * k + 1.0)
    return k[: np.flatnonzero(log_b >= log_b.max() + np.log(CW_SERIES_CUT))[-1] + 1]


def _cw_f(tau, l, g):
    """F_l(tau) = sqrt(pi l) e^(-tau^2/(4l)) [erfcx(z1) + erfcx(z2)].

    z1 = g sqrt(l) + tau/(2 sqrt(l)) and z2 = g sqrt(l) - tau/(2 sqrt(l)).
    Where z2 < 0, e^(-tau^2/(4l)) erfcx(z2) is taken as e^(g^2 l - g tau)
    erfc(z2), which carries the Gaussian factor.
    """
    root = np.sqrt(l)
    gauss = np.exp(-tau * tau / (4.0 * l))
    z2 = g * root - tau / (2.0 * root)
    second = gauss * erfcx(np.abs(z2))
    neg = z2 < 0.0
    if np.any(neg):
        # z2 < 0 means g^2 l - g tau < -g^2 l <= 0: the clip moves no value
        # np.where keeps, and keeps the others from overflowing.
        second = np.where(neg, np.exp(np.minimum(g * g * l - g * tau, 0.0)) * erfc(z2), second)
    return np.sqrt(np.pi * l) * (gauss * erfcx(tau / (2.0 * root) + g * root) + second)


def cw_incoherent_table(orders: np.ndarray, g: float, gc: float, nodes: int = 64,
                        panels: int = 8) -> np.ndarray:
    """R[k, l] = (1/(2 g sqrt(k l))) Int_0^inf e^(-gc tau - tau^2/(4k)) F_l(tau) dtau.

    k is the order of the band-II term, l that of band I (the one under
    |G_ba|^2): R_kl = IntInt l(v) e^(-k (v - x)^2) e^(-l x^2) / (x^2 + g^2)
    dx dv, l(v) the unit-area Lorentzian of half-width gc.  Each entry is
    `panels` Gauss-Legendre panels of `nodes` nodes on [0, tau_k], where
    tau_k^2/(4k) + gc tau_k = CW_TAIL_EXPONENT (F_l is largest at 0).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    wt = np.tile(0.5 * w, panels) / panels
    k = np.asarray(orders, dtype=float)[:, None, None]
    l = np.asarray(orders, dtype=float)[None, :, None]
    top = 2.0 * CW_TAIL_EXPONENT / (gc + np.sqrt(gc * gc + CW_TAIL_EXPONENT / k))
    tau = top * t
    values = np.exp(-gc * tau - tau * tau / (4.0 * k)) * _cw_f(tau, l, g)
    return (values @ wt) * top[:, :, 0] / (2.0 * g * np.sqrt(k[:, :, 0] * l[:, :, 0]))


def cw_incoherent_entry(k: int, l: int, g: float, gc: float) -> float:
    """R[k, l] of `cw_incoherent_table` in frequency, by adaptive quad.

    Int e^(-l x^2) / (x^2 + g^2) J_k(x) dx, with J_k(x) = Int l(v) e^(-k (v -
    x)^2) dv = sqrt(pi/k) V(x; 1/sqrt(2k), gc), V the Voigt profile.
    """
    def f(x):
        voigt = voigt_profile(x, 1.0 / np.sqrt(2.0 * k), gc)
        return np.exp(-l * x * x) / (x * x + g * g) * np.sqrt(np.pi / k) * voigt

    reach = 12.0 / np.sqrt(l)
    points = [p for p in (g, 3.0 * g, gc, 3.0 * gc) if p < reach] or None
    return 2.0 * quad(f, 0.0, reach, points=points, epsabs=0.0, epsrel=1e-13, limit=800)[0]


def cw_incoherent_integral(beta_bar: float, sigma: float, gamma_b: float, gamma_c: float,
                           nodes: int = 64, panels: int = 8) -> float:
    """IntInt L(w) |G_ba(wI)|^2 s_II^2(w - wI) s_I^2(wI) dw dwI = sum_kl b_k b_l R_kl / sigma."""
    orders = cw_series_orders(beta_bar)
    b = series_terms(beta_bar, 2.0 * orders)
    table = cw_incoherent_table(orders, 0.5 * gamma_b / sigma, 0.5 * gamma_c / sigma, nodes, panels)
    return float(b @ table @ b) / sigma


def cw_coherent_amplitude(beta_bar: float, sigma: float, gamma_b: float) -> complex:
    """Int G_ba s_I c_I dw = i pi sum_k a_k erfcx(Gamma_b sqrt(2k + 1) / (2 sqrt(2) sigma)).

    G_ba = 1/(omega_ba - w - i Gamma_b/2); each Gaussian term against it is
    i pi w(i y) = i pi erfcx(y), w the Faddeeva function.
    """
    orders = 2.0 * np.arange(cw_series_orders(beta_bar)[-1] + 1) + 1.0
    y = gamma_b * np.sqrt(orders) / (2.0 * np.sqrt(2.0) * sigma)
    return 1j * np.pi * float(series_terms(beta_bar, orders) @ erfcx(y))


def cw_photon_rate(beta_bar: float, sigma: float) -> float:
    """Int sinh^2(beta_bar r(w)) dw / 2 pi = sum_k b_k sigma sqrt(pi/k) / 2 pi."""
    orders = cw_series_orders(beta_bar)
    b = series_terms(beta_bar, 2.0 * orders)
    return float(b @ (sigma * np.sqrt(np.pi / orders))) / TWO_PI


def cw_reference_columns(rows: list[dict], sys, eta, a_eff: float) -> list[dict]:
    """photon_rate_per_s, r_sq_coherent and r_sq_incoherent of resonant CW sweep rows.

    The rates take the sweep's prefactors: eta L(c_I + c_II) |amplitude/2pi|^2 /
    A^2 and eta (incoherent integral) / ((2 pi)^2 A^2), with L the unit-area
    Lorentzian of FWHM Gamma_c at omega_ca.  Each sigma_c_bar column
    builds one R table, for the orders of its largest beta_bar.
    """
    detuning = sys.omega_ba + sys.omega_cb - sys.omega_ca
    l_pump = (0.5 * sys.gamma_c / np.pi) / (detuning**2 + 0.25 * sys.gamma_c**2)
    out = []
    tables = {}
    for row in rows:
        ratio, beta_bar = row["sigma_c_over_gamma_b"], row["beta_bar"]
        sigma = ratio * sys.gamma_b
        if ratio not in tables:
            top = max(r["beta_bar"] for r in rows if r["sigma_c_over_gamma_b"] == ratio)
            orders = cw_series_orders(top)
            tables[ratio] = orders, cw_incoherent_table(
                orders, 0.5 * sys.gamma_b / sigma, 0.5 * sys.gamma_c / sigma
            )
        orders, table = tables[ratio]
        b = series_terms(beta_bar, 2.0 * orders)
        amplitude = cw_coherent_amplitude(beta_bar, sigma, sys.gamma_b)
        out.append({
            "photon_rate_per_s": cw_photon_rate(beta_bar, sigma),
            "r_sq_coherent": eta.eta * l_pump * abs(amplitude / TWO_PI) ** 2 / a_eff**2,
            "r_sq_incoherent": eta.eta * (float(b @ table @ b) / sigma) / (TWO_PI**2 * a_eff**2),
        })
    return out


def gauss_legendre_mpmath(n: int, dps: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [0, 1], to `dps` digits, as floats.

    Newton's method on P_n in mpmath from `leggauss`'s nodes (two steps;
    the second only confirms the first), weights 2/((1 - x^2) P_n'(x)^2)
    halved for [0, 1].
    """
    nodes, weights = [], []
    with mpmath.workdps(dps):
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(float(start))
            for _ in range(3):
                previous, p = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    previous, p = p, ((2 * k - 1) * x * p - (k - 1) * previous) / k
                slope = n * (x * p - previous) / (x * x - 1)
                x -= p / slope
            nodes.append(float((x + 1) / 2))
            weights.append(float(1 / ((1 - x * x) * slope * slope)))
    return np.array(nodes), np.array(weights)
