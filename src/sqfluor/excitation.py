"""Excitation probabilities and rates, fluorescence, energy ledger, validity.

Measure bookkeeping (the single likeliest source of silent factor errors):
the pulsed formulas carry one dbar-omega = domega/sqrt(2pi) in the inner
frequency integral, so inner integrals below divide by sqrt(2pi) exactly
once; the CW rate formulas are written with plain domega/2pi and are used
verbatim.  Outer integrals are plain domega.

    p_cl_pulse   = eta (N_I/A)(N_II/A) Int L(w) |Int G_ba phi_I phi_II dbar|^2 dw
    r_cl_cw      = F_I F_II eta L(wI+wII) |G_ba(wI)|^2
    r_sq_cw,c    = eta L(wp) |Int G_ba s_I c_I dw/2pi|^2 / A^2
    r_sq_cw,ic   = eta IntInt L(w) |G_ba s_II(w - wI) s_I(wI)|^2 dw dwI/(2pi)^2 / A^2
    p_sq_pulse,c = eta Int L(w) |sum_n Int G_ba f_IIn f_In dbar s_n c_n|^2 dw / A^2
    p_sq_pulse,ic= eta Int L(w) sum_nm |Int G_ba f_IIn f_Im dbar s_n s_m|^2 dw / A^2

Two CW integrals route through `peaked.quad_kernel_smooth`: the coherent
amplitude Int G_ba s_I c_I and the scale/24 outer pass of the incoherent
rate (the photon rate is `sources.photon_rate_cw`'s Simpson doubling).  The
intermediate population is a Voigt series (`max_intermediate_population`).
No CW rate carries an error estimate; the accuracy of the rates is checked
against Gaussian-series references under tests/.

A classical pulse pair is a closed form (`p_classical_pulsed`).  Squeezed
pulses of the double-Gaussian source are Gaussian series of their Schmidt
gains: Mehler's formula sums the Hermite modes of each term, and every
frequency integral left is Gaussian once the Green pole and the Lorentzian
are written in time.  `PulsedExcitationEngine` tabulates the one half-line
integral that remains per term pair (incoherent, coherent) or per term and
time (intermediate population), doubling its Gauss-Legendre nodes until
each table settles to 1e-13, and a row reads three small quadratic forms.
Tables are built once and only read afterwards, so sweep rows on several
threads share one engine without a lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np
from scipy.special import erf, erfcx, gammaln, wofz

from .constants import C_LIGHT, EPS0, HBAR, TWO_PI
from .peaked import (
    DEFAULT_NUMERICS,
    NumericsOptions,
    abs2_green_kernel,
    green_kernel,
    lorentzian_kernel,
    quad_kernel_smooth,
)
from .sources import (
    ClassicalCW,
    ClassicalPulsed,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    gain_functions_cw,
    geometric_mode_ratio,
    photon_number_pulsed,
    squeezing_from_roots,
)
from .spectral import (
    GaussianAmplitude,
    ConvergenceError,
    LorentzianLineshape,
    NumericalError,
    green,
    lorentzian,
    pole_weights,
    simpson_weights,
)
from .system import CrossSectionPrefactor, DipoleCoupling, FourLevelSystem, cross_section

__all__ = [
    "VALIDITY_THRESHOLD",
    "ExcitationOutcome",
    "FluorescenceResult",
    "EnergyLedger",
    "p_classical_pulsed",
    "rate_classical_cw",
    "rate_squeezed_cw",
    "p_squeezed_pulsed",
    "fluorescence",
    "branching_factor",
    "energy_ledger",
    "population_integrals_from_probability",
    "max_intermediate_population",
    "within_validity",
    "matched_classical_cw",
    "matched_classical_pulsed",
    "one_photon_coupling",
]

VALIDITY_THRESHOLD = 0.1
SPAN_SIGMAS_CW = 9.0
# The CW J pass leaves out s_II^2 below this share of its peak sinh^2(beta_bar):
# on every case checked no bit of J moves (DECISIONS.md).
CW_J_CUT = 2.0**-200
# s_II = sinh(beta_bar r), r = exp(-x^2/2) at x sigma_c_bar from the band centre,
# and sinh(beta_bar r) <= r sinh(beta_bar), so s_II^2 < CW_J_CUT sinh^2(beta_bar)
# once r^2 < CW_J_CUT: beyond sqrt(-ln CW_J_CUT) = 11.8 sigma_c_bar for any beta_bar.
CW_J_REACH_SIGMAS = float(np.sqrt(-np.log(CW_J_CUT)))
CW_J_ROW_BLOCKS = 4  # row blocks of the J pass, each summed over its own band
# Table of the Gaussian series of sinh^2 (`_sinh2_series`): it runs out from
# beta_bar = 353 on, below the 355.4 where sinh^2 overflows a double.
CW_SERIES_TERMS = 480
CW_SERIES_CUT = 2.0**-60  # terms below this share of the largest are left out
CLASSICAL_OUTER_POINTS = 4097  # samples of a classical pulse pair's outer integral


def _l_core_unresolved(
    first: float, last: float, n_points: int, step: float, shape: LorentzianLineshape
) -> bool:
    """Whether `lorentzian_sample_weights` corrects the L core on these samples."""
    core_inside = first + 2.0 * step < shape.center < last - 2.0 * step
    return core_inside and shape.fwhm < 4.0 * step and n_points >= 7


def lorentzian_sample_weights(
    pts: np.ndarray, step: float, shape: LorentzianLineshape, window: float
) -> np.ndarray:
    """Weights lam with Int L(w) Q(w) dw ~= lam . Q for Q sampled on `pts`.

    Simpson-times-L when the samples resolve the Lorentzian; when its core is
    narrower than the sampling, the core mass is replaced by the analytic
    Gaussian-window moment and Q(center) enters through a cubic interpolation
    stencil, keeping the functional linear in the samples.
    """
    center, fwhm = shape.center, shape.fwhm
    lam = simpson_weights(len(pts), step) * lorentzian(pts, shape)
    if not _l_core_unresolved(pts[0], pts[-1], len(pts), step, shape):
        return lam
    window = max(window, 4.0 * step)
    kernel = lorentzian_kernel(center, fwhm)
    m0, _ = kernel.gaussian_moments(window)
    g_w = np.exp(-((pts - center) ** 2) / (2.0 * window**2))
    s0 = np.sum(lam * g_w)
    j = int(np.searchsorted(pts, center)) - 1
    j = min(max(j, 1), len(pts) - 3)
    t = (center - pts[j]) / step
    stencil = np.array([
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t + 1.0) * (t - 1.0) / 6.0,
    ])
    lam = lam.copy()
    lam[j - 1 : j + 3] += (float(np.real(m0)) - s0) * stencil
    return lam


@dataclass(frozen=True)
class ExcitationOutcome:
    """Coherent/incoherent/total excitation, per atom.

    A probability for pulses, a rate (per second) for CW beams; classical
    light reports incoherent = 0 by convention so one shape serves all.
    `max_population` is the peak intermediate-state population, present
    when a dipole coupling was given (see `within_validity`).
    """

    coherent: float
    incoherent: float
    max_population: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.coherent < 0.0 or self.incoherent < 0.0:
            raise ValueError("excitation contributions must be nonnegative")

    @property
    def total(self) -> float:
        return self.coherent + self.incoherent


@dataclass(frozen=True)
class FluorescenceResult:
    """Fluorescence on d->a: excitation times the two branching ratios."""

    per_atom: float
    per_atom_coherent: float
    per_atom_incoherent: float
    total: float
    branching_cd_over_c: float
    branching_da_r_over_d: float
    n_atoms: float


@dataclass(frozen=True)
class EnergyLedger:
    """Scattered/absorbed energy per transition (J); extinction is their sum."""

    scattered: Mapping[str, float]
    absorbed: Mapping[str, float]
    extinction: float

    @classmethod
    def build(cls, scattered: Mapping[str, float], absorbed: Mapping[str, float]):
        ext = sum(scattered.values()) + sum(absorbed.values())
        return cls(scattered=dict(scattered), absorbed=dict(absorbed), extinction=ext)

    @property
    def total_scattered(self) -> float:
        return sum(self.scattered.values())

    @property
    def total_absorbed(self) -> float:
        return sum(self.absorbed.values())


def one_photon_coupling(omega: float, mu_sq: float) -> float:
    """Single-photon coupling omega |e.mu|^2 / (2 eps0 c hbar), units m^2/s."""
    return omega * mu_sq / (2.0 * EPS0 * C_LIGHT * HBAR)


# ---------------------------------------------------------------------------
# classical light
# ---------------------------------------------------------------------------


def rate_classical_cw(
    src: ClassicalCW,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    coupling: DipoleCoupling | None = None,
) -> ExcitationOutcome:
    """Closed-form CW rate F_I F_II sigma(wI, wII); no quadrature involved."""
    rate = float(src.flux_i * src.flux_ii * cross_section(src.center_i, src.center_ii, sys, eta))
    pop = None if coupling is None else max_intermediate_population(src, sys, coupling)
    return ExcitationOutcome(rate, 0.0, pop)


def _time_grid(duration: float) -> np.ndarray:
    """The 121 times over +/-6 pulse durations that peak populations are read at."""
    return np.linspace(-6.0 * duration, 6.0 * duration, 121)


def p_classical_pulsed(
    src: ClassicalPulsed,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    a_eff: float,
    coupling: DipoleCoupling | None = None,
) -> ExcitationOutcome:
    """Per-atom two-photon excitation probability for two classical pulses, in closed form.

    phi_I(x) phi_II(w - x) is exp(-d^2/(2V)) times a Gaussian in x of width s
    about c_I + s^2 d/sigma_II^2 (d = w - c_I - c_II, V = sigma_I^2 +
    sigma_II^2, s^2 = sigma_I^2 sigma_II^2/V), so K(d) = Int G_ba phi_I phi_II
    dbar-x is one Faddeeva value (Weideman, SIAM J. Numer. Anal. 31, 1497
    (1994)).  The outer Int L |K|^2 dd takes the Lorentzian by `pole_weights`
    on CLASSICAL_OUTER_POINTS samples over +/-12 sqrt(V).  With a coupling,
    the peak population max_t (kappa N_I/A) |M(t)|^2 comes too, read on
    `_time_grid` in durations 1/sigma_I: phi_I(w) e^{-i(w - c_I)t} is
    e^{-sigma_I^2 t^2/2} times a Gaussian about c_I - i sigma_I^2 t, so
    M(t) = Int G_ba phi_I e^{-i(w - c_I)t} dbar-w is one Faddeeva value too.
    """
    sig_i, sig_ii = src.amp_i.width, src.amp_ii.width
    delta = src.amp_i.center - sys.omega_ba
    pop = None
    if coupling is not None:
        t = _time_grid(1.0 / sig_i)
        z = (delta + 1j * (0.5 * sys.gamma_b - sig_i * sig_i * t)) / (np.sqrt(2.0) * sig_i)
        m2 = np.abs(np.exp(-0.5 * (sig_i * t) ** 2) * wofz(z)) ** 2 * np.sqrt(np.pi) / (2.0 * sig_i)
        kappa = one_photon_coupling(src.amp_i.center, coupling.mu_sq_ba)
        pop = kappa * src.n_photons_i * float(np.max(m2)) / a_eff
    if src.n_photons_i == 0.0 or src.n_photons_ii == 0.0:
        return ExcitationOutcome(0.0, 0.0, pop)

    var = sig_i * sig_i + sig_ii * sig_ii
    s = sig_i * sig_ii / np.sqrt(var)
    half = 12.0 * np.sqrt(var)
    step = 2.0 * half / (CLASSICAL_OUTER_POINTS - 1)
    d = -half + step * np.arange(CLASSICAL_OUTER_POINTS)
    z = (delta + (s / sig_ii) ** 2 * d + 0.5j * sys.gamma_b) / (np.sqrt(2.0) * s)
    k2 = np.exp(-d * d / var) * np.abs(wofz(z)) ** 2 / (2.0 * sig_i * sig_ii)
    shape = sys.lineshape_ca()
    pole = (shape.center - src.amp_i.center - src.amp_ii.center) + 0.5j * shape.fwhm
    lam = pole_weights(-half, step, CLASSICAL_OUTER_POINTS, pole).imag / np.pi
    prob = eta.eta * (src.n_photons_i / a_eff) * (src.n_photons_ii / a_eff) * float(lam @ k2)
    return ExcitationOutcome(prob, 0.0, pop)


# ---------------------------------------------------------------------------
# squeezed light, CW
# ---------------------------------------------------------------------------


def _cw_gain_scale(src: SqueezedCW) -> float:
    """Sharpest feature of the gain functions: the peak narrows as sqrt(gain)."""
    return src.sigma_c_bar / np.sqrt(1.0 + 2.0 * src.beta_bar)


def rate_squeezed_cw(
    src: SqueezedCW,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    a_eff: float,
    coupling: DipoleCoupling | None = None,
    opts: NumericsOptions = DEFAULT_NUMERICS,
) -> ExcitationOutcome:
    """Coherent + incoherent CW squeezed excitation rates (converged quadrature).

    `opts` sets the quadrature of the coherent amplitude and of the scale/24
    incoherent pass; the population takes none.  `diagnostics` is empty.
    """
    pop = None
    if coupling is not None:
        pop = max_intermediate_population(src, sys, coupling, a_eff)
    if src.beta_bar == 0.0:
        return ExcitationOutcome(0.0, 0.0, pop)

    g_ba = green_kernel(sys.omega_ba, sys.gamma_b)
    scale = _cw_gain_scale(src)

    def coherent_smooth(w):
        s, c = gain_functions_cw(w, src, "I")
        return s * c

    coh_integral = quad_kernel_smooth(
        g_ba, coherent_smooth, smooth_center=src.center_i,
        smooth_width=src.sigma_c_bar, smooth_scale=scale, opts=opts,
    )
    l_at_pump = float(lorentzian(src.pump_center, sys.lineshape_ca()))
    coherent = eta.eta * l_at_pump * abs(coh_integral / TWO_PI) ** 2 / a_eff**2

    incoh_value = _cw_incoherent_integral(src, sys, scale, opts)
    incoherent = eta.eta * incoh_value / (TWO_PI**2 * a_eff**2)
    return ExcitationOutcome(coherent, incoherent, pop)


def cw_j_lattice(
    src: SqueezedCW, sys: FourLevelSystem, scale: float, points_per_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w_i_pts, u_tab, lam) of the CW inner pass at step h = scale/points_per_scale.

    The omega lattice w_k = lo + h k (n_w points, n_w odd) covers the band-II
    support shifted by every band-I point wI_j and, when it lies inside, the
    L core to +/-30 Gamma_c.  Column k of the J pass reads s_II^2 at
    w_k - wI_j.  Only the window of columns that read an s_II^2 of at least
    CW_J_CUT sinh^2(beta_bar), its analytic peak, is built (and only a
    nonzero one, for a gain whose square underflows everywhere): `lam` holds
    their Lorentzian sample weights, and u_tab[m] = s_II^2 at w_k - wI_j with
    m = k - k0 - j + n_i - 1 (k0 the first window column), zero outside the
    cut, so it has len(lam) + n_i - 1 entries.  s_II is evaluated only out
    to CW_J_REACH_SIGMAS sigma_c_bar plus a step.  Each value is the one
    the whole lattice gives at that point; `lam` is empty when no value
    passes the cut.  The values left out are below 2^-200 of the peak, and
    on every case checked J is the whole lattice's bit for bit
    (DECISIONS.md).

    The +/-30 Gamma_c stretch adds no column that reads a nonzero s_II^2,
    yet it is kept: it sets `lo`, hence where the lattice points fall, the
    parity of their Simpson weights and the span the L core correction sums
    over, and the CW golden CSV under tests/data freezes the bytes these
    give.  The pulsed engine has no such stretch.
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

    # u index m (0 <= m < n_w + n_i - 1) sits at u0 + h m; s_II is evaluated
    # only where it can pass the cut.
    u0 = lo - w_i_pts[-1]
    reach = CW_J_REACH_SIGMAS * src.sigma_c_bar + h
    m_lo = max(0, int(np.floor((src.center_ii - reach - u0) / h)))
    m_hi = min(n_w + n_i - 1, int(np.ceil((src.center_ii + reach - u0) / h)) + 1)
    s_u, _ = gain_functions_cw(u0 + h * np.arange(m_lo, m_hi), src, "II")
    s2 = s_u * s_u
    kept = np.flatnonzero((s2 >= CW_J_CUT * np.sinh(src.beta_bar) ** 2) & (s2 > 0.0))
    if kept.size == 0:
        return w_i_pts, np.zeros(n_i - 1), np.zeros(0)
    first, last = m_lo + kept[0], m_lo + kept[-1]
    # Column k reads u indices k .. k + n_i - 1.
    cols = np.arange(max(0, first - (n_i - 1)), min(n_w - 1, last) + 1)
    u_tab = np.zeros(len(cols) + n_i - 1)
    u_tab[first - cols[0] : last + 1 - cols[0]] = s2[kept[0] : kept[-1] + 1]

    shape = sys.lineshape_ca()
    if _l_core_unresolved(lo, lo + h * (n_w - 1), n_w, h, shape):
        # The core correction sums over the whole lattice.
        lam = lorentzian_sample_weights(lo + h * np.arange(n_w), h, shape, 0.5 * scale)[cols]
    else:
        simpson = np.where(cols % 2 == 1, 4.0, 2.0)
        simpson[(cols == 0) | (cols == n_w - 1)] = 1.0
        lam = simpson * (h / 3.0) * lorentzian(lo + h * cols, shape)
    return w_i_pts, u_tab, lam


def cw_j_pass(u_tab: np.ndarray, lam: np.ndarray, n_i: int) -> np.ndarray:
    """J[j] = sum_k u_tab[k - j + n_i - 1] lam[k] over the window of `cw_j_lattice`.

    Each row is summed sequentially in k, as numpy's matmul does on a
    strided view whose rows overlap in memory (BLAS cannot take it).  The
    rows run in CW_J_ROW_BLOCKS blocks, each over only the columns where
    one of its rows reads a nonzero u_tab entry: the columns skipped add
    +/-0.0 products before a row's first term or after its last, and adding
    +/-0.0 to a partial sum that starts at +0.0 changes no bit, so J is the
    product over every column bit for bit.  A block keeps at least two rows,
    because numpy hands a one-row product to BLAS `dot`, whose summation
    order depends on the span; a single row (n_i = 1) therefore runs over
    every column.  Inside the window the weights are the full lattice's bit
    for bit: the Simpson weight follows from the index parity and the two
    ends, and the Lorentzian is elementwise.  A contiguous copy, a BLAS
    call or an FFT would change the summation order and the last bits of J.
    """
    j_vals = np.zeros(n_i)
    nonzero = np.flatnonzero(u_tab)
    if lam.size == 0 or nonzero.size == 0:
        return j_vals
    step = u_tab.strides[0]
    n_blocks = max(1, min(CW_J_ROW_BLOCKS, n_i // 2))
    bounds = [n_i * b // n_blocks for b in range(n_blocks + 1)]
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        # Row j reads a nonzero entry only at columns nonzero - (n_i - 1 - j).
        c0, c1 = 0, len(lam)
        if r1 - r0 > 1:
            c0 = max(c0, nonzero[0] - (n_i - 1 - r0))
            c1 = min(c1, nonzero[-1] - (n_i - 1 - (r1 - 1)) + 1)
        if c0 >= c1:
            continue
        u_view = np.lib.stride_tricks.as_strided(
            u_tab[n_i - 1 - r0 + c0 :], shape=(r1 - r0, c1 - c0), strides=(-step, step),
            writeable=False,
        )
        j_vals[r0:r1] = u_view @ lam[c0:c1]
    return j_vals


def _cw_outer_samples(
    src: SqueezedCW, sys: FourLevelSystem, scale: float, points_per_scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """(w_i_pts, s_I^2 J) on the band-I lattice of the J pass at step scale/points_per_scale."""
    w_i_pts, u_tab, lam = cw_j_lattice(src, sys, scale, points_per_scale)
    s_i, _ = gain_functions_cw(w_i_pts, src, "I")
    return w_i_pts, s_i * s_i * cw_j_pass(u_tab, lam, len(w_i_pts))


def _cw_incoherent_integral(
    src: SqueezedCW, sys: FourLevelSystem, scale: float, opts: NumericsOptions
) -> float:
    """IntInt L(w) |G_ba(wI)|^2 s_II^2(w - wI) s_I^2(wI) dw dwI (plain measure).

    The inner pass J(wI) = Int L(w) s_II^2(w - wI) dw is a correlation of the
    fixed photon-density shape with L; on a shared uniform lattice it is a
    strided matrix-vector product against Lorentzian sample weights, summed
    in row blocks over each block's band (`cw_j_pass`).  The value is the
    lattice at step scale/24, whose outer samples s_I^2 J are interpolated
    linearly and integrated against |G_ba|^2 by `quad_kernel_smooth`.
    """
    w_i_pts, samples = _cw_outer_samples(src, sys, scale, 24.0)

    def smooth(w):
        return np.interp(np.asarray(w, dtype=float), w_i_pts, samples, left=0.0, right=0.0)

    return float(np.real(quad_kernel_smooth(
        abs2_green_kernel(sys.omega_ba, sys.gamma_b), smooth, smooth_center=src.center_i,
        smooth_width=src.sigma_c_bar, smooth_scale=scale, opts=opts,
    )))


# ---------------------------------------------------------------------------
# squeezed light, pulsed
# ---------------------------------------------------------------------------


# Node doublings of a pulsed table stop once no entry moves by more than this
# share of the table's largest entry; past MAX_TABLE_NODES they raise.
TABLE_REL_TOL = 1e-13
MAX_TABLE_NODES = 1024
# A half-line integral stops where a bound on its integrand has fallen by
# e^-TAIL_EXPONENT (2.9e-20) from its start.
TAIL_EXPONENT = 45.0


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _reach(quadratic, linear):
    """The L > 0 with quadratic L^2 + linear L = TAIL_EXPONENT."""
    root = np.sqrt(linear * linear + 4.0 * quadratic * TAIL_EXPONENT)
    return 2.0 * TAIL_EXPONENT / (linear + root)


def _exp_erfcx(expo, z, expo_joined, scale=None):
    """e^expo erfcx(z); where z < 0, 2 e^expo_joined - e^expo erfcx(-z).

    The caller gives expo_joined = expo + z^2 in closed form, so neither
    factor of e^expo e^(z^2) overflows on its own, and may pass e^expo as
    `scale` when it has it.
    """
    out = (np.exp(expo) if scale is None else scale) * erfcx(np.abs(z))
    neg = z < 0.0
    if neg.any():
        out[neg] = 2.0 * np.exp(expo_joined[neg]) - out[neg]
    return out


def _lorentz_gauss(kappa, lam, vc: float, gc: float):
    """F = Int l(v) e^(-kappa v^2 + i lam v) dv for lam >= 0, real when vc = 0.

    l is the unit-area Lorentzian at vc with half-width gc.  F is a Voigt
    profile continued to a complex shift, two Faddeeva values (Weideman,
    SIAM J. Numer. Anal. 31, 1497 (1994)):

        F = e^(-lam^2/(4 kappa)) [w(z1) + w(z2)] / 2,
        z1 = sqrt(kappa) (vc + i gc) - i lam / (2 sqrt(kappa)),
        z2 = -sqrt(kappa) (vc - i gc) + i lam / (2 sqrt(kappa)).

    Where Im z1 < 0, w(z1) = 2 e^(-z1^2) - w(-z1), its exponent joined with
    the Gaussian's.  On resonance w(iy) = erfcx(y).
    """
    root = np.sqrt(kappa)
    y1 = root * gc - lam / (2.0 * root)
    gauss = -lam * lam / (4.0 * kappa)
    if vc == 0.0:
        scale = np.exp(gauss)
        first = _exp_erfcx(gauss, y1, kappa * gc * gc - gc * lam, scale)
        return 0.5 * (first + scale * erfcx(root * gc + lam / (2.0 * root)))
    zc = vc + 1j * gc
    neg = y1 < 0.0
    z1 = root * zc - 1j * lam / (2.0 * root)
    first = np.exp(gauss) * wofz(np.where(neg, -z1, z1))
    first[neg] = 2.0 * np.exp((1j * lam * zc - kappa * zc * zc)[neg]) - first[neg]
    second = np.exp(gauss) * wofz(-root * np.conj(zc) + 1j * lam / (2.0 * root))
    return 0.5 * (first + second)


def _real_with_phase(values, delta: float, t):
    """Re[e^(i delta t) values]: delta is the Green line's offset from the band-I centre."""
    if delta == 0.0:
        return np.real(values)
    return np.real(np.exp(1j * delta * t) * values)


def _mehler(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_rho, N_rho) = ((1 - rho)/(1 + rho), (pi (1 - rho^2))^(-1/2)) of Mehler's formula."""
    return (1.0 - rho) / (1.0 + rho), 1.0 / np.sqrt(np.pi * (1.0 - rho * rho))


def _incoherent_table(a, norm, g, gc, vc, delta, n_nodes):
    """T_kl = (pi N_k N_l / sqrt(B P)) Int_0^inf e^(-t^2/(8B)) H(t) Re[e^(i delta t) F(t)] dt.

    B = (A_k + A_l)/2, P = (1/A_k + 1/A_l)/2, H(t) = Int_t^inf e^(-s^2/(8P)
    - g s) ds (one erfcx) and F = `_lorentz_gauss` at kappa = A_k A_l/(2B),
    lam = A_k t/(2B).  The integrand falls at least as e^(-t^2 (1/(8B) +
    1/(8P)) - g t); Gauss-Legendre panels [0, L/4] and [L/4, L] of n/2
    nodes each take it to that reach L.
    """
    a_k, a_l = a[:, None, None], a[None, :, None]
    b = 0.5 * (a_k + a_l)
    p = 0.5 * (1.0 / a_k + 1.0 / a_l)
    reach = _reach(1.0 / (8.0 * b) + 1.0 / (8.0 * p), g)
    x, w = _gauss_legendre(n_nodes // 2)
    t = 0.25 * reach * np.concatenate([x, 1.0 + 3.0 * x], axis=-1)
    weights = 0.25 * reach * np.concatenate([w, 3.0 * w], axis=-1)
    # H's erfcx argument is positive (t, g >= 0), so e^expo erfcx(z) takes no join.
    h = np.exp(-t * t * (1.0 / (8.0 * b) + 1.0 / (8.0 * p)) - g * t) * erfcx(
        (t + 4.0 * p * g) / np.sqrt(8.0 * p)
    )
    f = _lorentz_gauss(a_k * a_l / (2.0 * b), a_k * t / (2.0 * b), vc, gc)
    integral = np.sum(h * _real_with_phase(f, delta, t) * weights, axis=-1)
    # H carries sqrt(2 pi P), so pi N_k N_l / sqrt(B P) becomes pi sqrt(2 pi) N_k N_l / sqrt(B).
    return np.pi * np.sqrt(2.0 * np.pi) * np.outer(norm, norm) / np.sqrt(b[..., 0]) * integral


def _coherent_table(a, norm, g, gc, vc, delta, n_nodes):
    """Q_kl = (pi N_k N_l / (2 sqrt(A_k A_l))) (S_kl + S_lk).

    S_kl = Int_0^inf e^(-P t^2/8) H(t; g + D t/8) Re[e^(i delta t) F(t)] dt
    with P = (1/A_k + 1/A_l)/2, D = 1/A_k - 1/A_l, H(t; y) = Int_t^inf
    e^(-P s^2/8 - y s) ds (one erfcx, y may be negative) and F =
    `_lorentz_gauss` at kappa = P/2, lam = t/2.  S_kl's integrand falls at
    least as e^(-t^2/(4 A_k) - g t), so row k takes its own reach.
    """
    a_k, a_l = a[:, None, None], a[None, :, None]
    p = 0.5 * (1.0 / a_k + 1.0 / a_l)
    x, w = _gauss_legendre(n_nodes)
    reach = _reach(1.0 / (4.0 * a_k), g)
    t = reach * x
    rate = g + (1.0 / a_k - 1.0 / a_l) * t / 8.0
    z = np.sqrt(p / 8.0) * t + rate * np.sqrt(2.0 / p)
    h = _exp_erfcx(-p * t * t / 4.0 - rate * t, z, 2.0 * rate * rate / p - p * t * t / 8.0)
    f = _real_with_phase(_lorentz_gauss(p / 2.0, t / 2.0, vc, gc), delta, t)
    s = (h * f) @ w * reach[..., 0] / np.sqrt(p[..., 0])
    scale = norm / np.sqrt(a)
    # H carries sqrt(2 pi / P).
    return 0.5 * np.pi * np.sqrt(2.0 * np.pi) * np.outer(scale, scale) * (s + s.T)


def _population_table(a, norm, g, delta, tau, n_nodes):
    """I_k(tau) = N_k Int_0^inf e^(-g s - A_k (s - 2 tau)^2/4) E_k(s) ds.

    E_k(s) = Int_0^s e^(-x^2/(4 A_k)) cos(delta x) dx, sqrt(pi A_k) erf(s /
    (2 sqrt(A_k))) on resonance and one Faddeeva value off it.  Past s0 =
    min(2 sqrt(A_k TAIL_EXPONENT), TAIL_EXPONENT/g), E_k is its limit
    sqrt(pi A_k) e^(-A_k delta^2) to e^-TAIL_EXPONENT (or the integrand has
    fallen by that much), and that piece is one erfcx; Gauss-Legendre nodes
    take [0, s0].
    """
    a_k = a[:, None]
    root = np.sqrt(a_k)
    cut = 2.0 * root * np.sqrt(TAIL_EXPONENT)
    if g > 0.0:
        cut = np.minimum(cut, TAIL_EXPONENT / g)
    x, w = _gauss_legendre(n_nodes)
    s = cut * x
    u = s / (2.0 * root)
    if delta == 0.0:
        inner = np.sqrt(np.pi * a_k) * erf(u)
    else:
        y = root * delta
        inner = np.sqrt(np.pi * a_k) * np.real(
            wofz(y + 0j) - np.exp(2j * u * y - u * u) * wofz(y + 1j * u)
        )
    # e^(-g s - A (s - 2 tau)^2/4) = e^(-g s - A s^2/4) e^(A s tau) e^(-A tau^2).
    weights = inner * w * cut * np.exp(-g * s - a_k * s * s / 4.0)
    near = np.matmul(weights[:, None, :], np.exp((a_k * s)[..., None] * tau))[:, 0, :]
    near *= np.exp(-a_k * tau * tau)
    z = root * (cut - 2.0 * tau) / 2.0 + g / root
    expo = -g * cut - a_k * (cut - 2.0 * tau) ** 2 / 4.0
    far = np.sqrt(np.pi / a_k) * _exp_erfcx(expo, z, g * g / a_k - 2.0 * g * tau)
    return norm[:, None] * (near + np.sqrt(np.pi * a_k) * np.exp(-a_k * delta * delta) * far)


def _doubled(table, n_nodes: int, what: str) -> tuple[np.ndarray, int, float]:
    """(table(n), n, rel) at the first n = n_nodes 2^j that moves by rel <= TABLE_REL_TOL.

    rel is the largest change from table(n/2) over the largest |entry|.
    Raises ConvergenceError where the next n would pass MAX_TABLE_NODES.
    """
    current, rel = table(n_nodes), math.inf
    previous = current
    while rel > TABLE_REL_TOL:
        if 2 * n_nodes > MAX_TABLE_NODES:
            raise ConvergenceError(
                float(np.max(np.abs(current))), float(np.max(np.abs(previous))), rel, what
            )
        previous, n_nodes = current, 2 * n_nodes
        current = table(n_nodes)
        peak = float(np.max(np.abs(current)))
        rel = float(np.max(np.abs(current - previous))) / peak if peak > 0.0 else 0.0
    return current, n_nodes, rel


def _on_resonance(offset: float, frequency: float) -> float:
    """offset, or 0.0 when it is within the rounding of two sums near `frequency`.

    omega_ca = omega_ba + omega_cb is itself rounded, so a source centred on
    both lines can sit a few ulp off omega_ca; the tables are even in that
    offset, so taking it as zero moves them at second order (below 1e-16).
    """
    return 0.0 if abs(offset) <= 2.0 * np.spacing(abs(frequency)) else offset


class PulsedExcitationEngine:
    """Pulsed squeezed excitation of the double-Gaussian source from three tables.

    With mu = ((sigma_c - sigma_p)/(sigma_c + sigma_p))^2 the Schmidt gains
    are s_n^2 = sum_k c_k mu^(nk) and s_n c_n = sum_k a_k mu^(n(k+1/2)),

        c_k = (2 r0)^(2k) / (2 (2k)!)  (k >= 1),
        a_k = (2 r0)^(2k+1) / (2 (2k+1)!)  (k >= 0),

    r0 = |beta| sqrt(1 - mu) the squeezing of the first mode.  Mehler's
    formula (J. Reine Angew. Math. 66, 161 (1866)) sums each power rho^n of
    the Hermite modes in closed form, so every mode sum becomes one
    Gaussian kernel per term, and with the Green pole and the Lorentzian
    written in time every frequency integral is Gaussian.  What is left is
    one smooth half-line integral per table entry (DECISIONS.md):

        incoherent   = eta c^T T c / (2 pi sigma_s^2 A^2)     (K x K, rho = mu^k)
        coherent     = eta a^T Q a / (2 pi sigma_s^2 A^2)     (K x K, rho = mu^(k+1/2))
        population   = kappa max_tau (c @ I)(tau) / (sigma_s A)  (K x 121 times)

    sigma_s = sqrt(sigma_p sigma_c) is the unit of frequency and tau =
    sigma_s t, over +/-6 durations 1/sigma_s.  K is where the series at
    `r0_max` drops below CW_SERIES_CUT of its largest term
    (`_gain_series`); a read past r0_max raises ValueError.  Each table
    doubles its Gauss-Legendre nodes until it moves by at most
    TABLE_REL_TOL and raises ConvergenceError if it cannot.  Terms with
    the same rho (all of them when mu = 0) share their entries.  Any source
    centres are allowed: the Green line's offset from the band-I centre
    enters as a phase and the Lorentzian's as a complex Faddeeva argument.

    Rows read c^T T c, a^T Q a and max_tau (c @ I); `diagnostics` reports
    `series_terms` (K) and `quadrature_rel_err` (the last node doubling's
    change, largest of the tables).  The tables are built in __init__ and
    only read afterwards, so threads may share one engine.  `dec` (the
    Schmidt decomposition the caller solved beta on), `n_in` (nodes per
    table entry) and `n_out_max` (table entries) are kept only for the
    benchmark's layer tracer (sweepbench/trace_layers.py), which reads
    them under those names.
    """

    def __init__(
        self,
        src: SqueezedPulsed,
        sys: FourLevelSystem,
        eta: CrossSectionPrefactor,
        a_eff: float,
        coupling: DipoleCoupling | None = None,
        *,
        r0_max: float,
        dec: SchmidtDecomposition | None = None,
    ):
        self.src = src
        self.sys = sys
        self.eta = eta
        self.area = a_eff
        self.coupling = coupling
        self.dec = dec
        mu = geometric_mode_ratio(src)
        self.sqrt_p0 = float(np.sqrt(1.0 - mu))
        self.r0_max = float(r0_max)
        sigma_s = float(np.sqrt(src.sigma_p * src.sigma_c))
        g, gc = 0.5 * sys.gamma_b / sigma_s, 0.5 * sys.gamma_c / sigma_s
        vc = _on_resonance((sys.omega_ca - src.center_i) - src.center_ii, sys.omega_ca) / sigma_s
        delta = (src.center_i - sys.omega_ba) / sigma_s

        # Orders m of the terms (2r0)^m / (2 m!): even for c_k, odd for a_k.
        self.c_orders = _series_orders(self.r0_max, odd=False)
        self.a_orders = _series_orders(self.r0_max, odd=True)
        # Every order up to the last, and log(2 m!), so that a row's terms
        # are one exp(m log(2 r0) - log(2 m!)).
        self._orders = np.arange(1.0, max(self.c_orders[-1], self.a_orders[-1]) + 1.0)
        self._logs = np.log(2.0) + gammaln(self._orders + 1.0)
        nodes, errs = [], []

        def table(build, orders, n_start, what):
            # rho = mu^(m/2) for both series; equal rho share one entry.
            rho, inverse = np.unique(mu ** (0.5 * orders), return_inverse=True)
            a, norm = _mehler(rho)
            values, n_nodes, rel = _doubled(lambda n: build(a, norm, n), n_start, what)
            nodes.append(n_nodes)
            errs.append(rel)
            return values, inverse

        incoh, inv = table(
            lambda a, norm, n: _incoherent_table(a, norm, g, gc, vc, delta, n),
            self.c_orders, 32, "incoherent table",
        )
        scale = eta.eta / (2.0 * np.pi * sigma_s**2 * a_eff**2)
        self.incoherent_table = scale * incoh[np.ix_(inv, inv)]
        coh, inv = table(
            lambda a, norm, n: _coherent_table(a, norm, g, gc, vc, delta, n),
            self.a_orders, 24, "coherent table",
        )
        self.coherent_table = scale * coh[np.ix_(inv, inv)]
        self.population_table = None
        if coupling is not None:
            tau = _time_grid(1.0)
            pop, inv = table(
                lambda a, norm, n: _population_table(a, norm, g, delta, tau, n),
                self.c_orders, 32, "population table",
            )
            kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
            self.population_table = (kappa / (sigma_s * a_eff)) * pop[inv]
        self.diagnostics = {
            "series_terms": max(len(self.c_orders), len(self.a_orders)),
            "quadrature_rel_err": max(errs),
        }
        self.n_in = max(nodes)
        self.n_out_max = self.incoherent_table.size + self.coherent_table.size

    def series(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """(c, a): the terms c_k and a_k at r0 = |beta| sqrt(1 - mu), as the tables' rows are ordered."""
        r0 = squeezing_from_roots(self.sqrt_p0, beta)
        if r0 > self.r0_max * (1.0 + 1e-12):
            raise ValueError(f"r0 = {r0!r} is past the tables' r0_max = {self.r0_max!r}")
        if r0 == 0.0:
            terms = np.zeros(len(self._orders))
        else:
            terms = np.exp(self._orders * math.log(2.0 * r0) - self._logs)
        return terms[1 : 2 * len(self.c_orders) : 2], terms[0 : 2 * len(self.a_orders) : 2]

    def coherent_probability(self, a: np.ndarray) -> float:
        """eta a^T Q a / (2 pi sigma_s^2 A^2) for the odd-order terms a of `series`."""
        return float(a @ self.coherent_table @ a)

    def incoherent_probability(self, c: np.ndarray) -> float:
        """eta c^T T c / (2 pi sigma_s^2 A^2) for the even-order terms c of `series`."""
        return float(c @ self.incoherent_table @ c)

    def max_population_weighted(self, c: np.ndarray) -> float:
        """max over the times of c @ population_table, for the even-order terms c of `series`.

        The table holds the coupling and area factors; an engine built
        without a coupling has none and raises ValueError.
        """
        if self.population_table is None:
            raise ValueError(
                "the intermediate-state population needs a dipole coupling; "
                "this engine was built with coupling=None"
            )
        return float((c @ self.population_table).max())

    def outcome(self, beta: float) -> ExcitationOutcome:
        """Coherent and incoherent probabilities at |beta|; with a coupling, the peak population."""
        c, a = self.series(beta)
        pop = None if self.coupling is None else self.max_population_weighted(c)
        return ExcitationOutcome(
            self.coherent_probability(a), self.incoherent_probability(c), pop,
            diagnostics=dict(self.diagnostics),
        )


def p_squeezed_pulsed(
    src: SqueezedPulsed,
    beta: float,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    a_eff: float,
    coupling: DipoleCoupling | None = None,
) -> ExcitationOutcome:
    """Pulsed squeezed excitation probability at pump strength |beta|.

    Builds a `PulsedExcitationEngine` for this one beta; a sweep over many
    betas builds one engine at the largest and reads it per row.
    """
    r0 = squeezing_from_roots(np.sqrt(1.0 - geometric_mode_ratio(src)), beta)
    engine = PulsedExcitationEngine(src, sys, eta, a_eff, coupling, r0_max=r0)
    return engine.outcome(beta)



# ---------------------------------------------------------------------------
# fluorescence and energy
# ---------------------------------------------------------------------------


def _branching_ratios(sys: FourLevelSystem) -> tuple[float, float]:
    """(Gamma_cd/Gamma_c, Gamma_da^r/Gamma_d): c decays to d, then d radiates to a."""
    return sys.gamma("cd") / sys.gamma_c, sys.gamma_r["da"] / sys.gamma_d


def branching_factor(sys: FourLevelSystem) -> float:
    """(Gamma_cd/Gamma_c)(Gamma_da^r/Gamma_d): d->a photons per excitation of |c>.

    `fluorescence` multiplies by it; a sweep takes it once for all its rows.
    """
    branch_cd, branch_da = _branching_ratios(sys)
    return branch_cd * branch_da


def fluorescence(
    outcome: ExcitationOutcome, sys: FourLevelSystem, n_atoms: float
) -> FluorescenceResult:
    """n = p (Gamma_cd/Gamma_c)(Gamma_da^r/Gamma_d) N_atoms, split preserved."""
    branch_cd, branch_da = _branching_ratios(sys)
    factor = branching_factor(sys)
    per_coh = outcome.coherent * factor
    per_ic = outcome.incoherent * factor
    per_atom = per_coh + per_ic
    return FluorescenceResult(
        per_atom=per_atom,
        per_atom_coherent=per_coh,
        per_atom_incoherent=per_ic,
        total=per_atom * n_atoms,
        branching_cd_over_c=branch_cd,
        branching_da_r_over_d=branch_da,
        n_atoms=n_atoms,
    )


def energy_ledger(
    population_integrals: Mapping[str, float], sys: FourLevelSystem
) -> EnergyLedger:
    """Scattered/absorbed energy from time-integrated level populations (s).

    population_integrals maps level -> Int <sigma_pp> dt for p in {b, c, d}.
    Scattered on pq is hbar w_pq Gamma^r_pq times the upper-level integral;
    absorbed uses Gamma^nr; extinction is their sum.
    """
    pops = {level: float(population_integrals.get(level, 0.0)) for level in ("b", "c", "d")}
    for level, value in pops.items():
        if value < 0.0:
            raise ValueError(f"population integral for {level!r} must be nonnegative")
    upper = {"ba": "b", "cb": "c", "cd": "c", "da": "d"}
    omegas = {
        "ba": sys.omega_ba, "cb": sys.omega_cb, "cd": sys.omega_cd, "da": sys.omega_da,
    }
    scattered = {
        t: HBAR * omegas[t] * sys.gamma_r[t] * pops[upper[t]] for t in upper
    }
    absorbed = {
        t: HBAR * omegas[t] * sys.gamma_nr[t] * pops[upper[t]] for t in upper
    }
    return EnergyLedger.build(scattered, absorbed)


def population_integrals_from_probability(
    p_excitation: float, sys: FourLevelSystem, b_integral: float = 0.0
) -> dict:
    """Time-integrated c and d populations implied by an excitation probability.

    Int <sigma_cc> dt = p / Gamma_c and the d level picks up the c -> d
    branching with its own lifetime: Int <sigma_dd> dt = (Gamma_cd/Gamma_d) p / Gamma_c.
    """
    if p_excitation < 0.0:
        raise ValueError("p_excitation must be nonnegative")
    int_cc = p_excitation / sys.gamma_c
    int_dd = sys.gamma("cd") * int_cc / sys.gamma_d
    return {"b": b_integral, "c": int_cc, "d": int_dd}


# ---------------------------------------------------------------------------
# perturbative-validity diagnostic
# ---------------------------------------------------------------------------


def within_validity(max_population: float) -> bool:
    """The perturbative rule: peak intermediate population below VALIDITY_THRESHOLD."""
    return max_population < VALIDITY_THRESHOLD


def _series_logs(x: float, orders: np.ndarray) -> np.ndarray:
    """log((2x)^m / (2 m!)) for each order m.

    sinh^2(x r) sums these times r^m over the even m >= 2, and sinh(x r)
    cosh(x r) over the odd m >= 1.
    """
    return orders * np.log(2.0 * x) - np.log(2.0) - gammaln(orders + 1.0)


def _gain_series(x: float, odd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(m, b_m) of sinh^2(x r) (even orders m) or sinh(x r) cosh(x r) (odd), b_m from `_series_logs`.

    The coefficients are formed in log space, since at x = 30 the largest is
    near e^60.  Terms below CW_SERIES_CUT of the largest are left out; they
    are contiguous at both ends, because log b_m is concave in m.  Raises
    NumericalError rather than truncate when a kept term would lie past the
    table of CW_SERIES_TERMS terms, so no series this returns sums past the
    largest double.
    """
    orders = 2.0 * np.arange(1, CW_SERIES_TERMS + 1) - (1.0 if odd else 0.0)
    log_b = _series_logs(x, orders)
    kept = np.flatnonzero(log_b >= log_b.max() + np.log(CW_SERIES_CUT))
    if kept[-1] == CW_SERIES_TERMS - 1:
        raise NumericalError(
            f"the Gaussian series at {x!r} needs more than {CW_SERIES_TERMS} terms"
        )
    return orders[kept], np.exp(log_b[kept])


def _sinh2_series(beta_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, b_k) of sinh^2(beta_bar r) = sum_{k >= 1} b_k r^(2k): `_gain_series` in k = m/2.

    b_k = (2 beta_bar)^(2k) / (2 (2k)!).  It runs out from beta_bar = 353 on.
    """
    orders, b_k = _gain_series(beta_bar)
    return orders / 2.0, b_k


def _series_orders(r0_max: float, odd: bool) -> np.ndarray:
    """Every order from the first (1 or 2) to the last `_gain_series` keeps at r0_max."""
    first = 1.0 if odd else 2.0
    last = _gain_series(r0_max, odd)[0][-1] if r0_max > 0.0 else first
    return np.arange(first, last + 1.0, 2.0)


def max_intermediate_population(
    src,
    sys: FourLevelSystem,
    coupling: DipoleCoupling,
    a_eff: float | None = None,
) -> float:
    """Peak second-order population of the intermediate state |b>.

    CW sources use time-independent closed forms: kappa F_I |G_ba(c_I)|^2 for
    a classical flux, and (kappa / 2 pi A) Int |G_ba|^2 s_I^2 dw for squeezed
    light.  That integral takes no quadrature: sinh^2 is a Gaussian series
    (`_sinh2_series`), and each Gaussian against |G_ba|^2 = 1/((w -
    omega_ba)^2 + g^2), g = Gamma_b/2, is a Voigt value (Weideman, SIAM J.
    Numer. Anal. 31, 1497 (1994)), so

        Int |G_ba|^2 s_I^2 dw = (pi/g) sum_k b_k Re w(sqrt(k) (omega_ba - c_I + i g) / sigma_c_bar)

    with w the Faddeeva function.  From beta_bar = 353 on it raises
    NumericalError.  Pulsed populations come with their probabilities, as
    the `max_population` of `p_classical_pulsed(..., coupling)`, a
    Faddeeva value per time point, and of `p_squeezed_pulsed(..., coupling)`,
    read from the engine's population table
    (`PulsedExcitationEngine.max_population_weighted`).
    """
    if isinstance(src, ClassicalCW):
        kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
        g_val = green(src.center_i, sys.green_ba())
        return float(src.flux_i * kappa * abs(g_val) ** 2)
    if isinstance(src, SqueezedCW):
        if src.beta_bar == 0.0:
            return 0.0
        kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
        k, b_k = _sinh2_series(src.beta_bar)
        g = 0.5 * sys.gamma_b
        z = np.sqrt(k) * ((sys.omega_ba - src.center_i + 1j * g) / src.sigma_c_bar)
        integral = (np.pi / g) * float(b_k @ wofz(z).real)
        return float(kappa * integral / (TWO_PI * a_eff))
    raise TypeError(f"unsupported source type {type(src).__name__}")


# ---------------------------------------------------------------------------
# equal-photon-budget comparison sources
# ---------------------------------------------------------------------------


def matched_classical_cw(src: SqueezedCW, a_eff: float, photon_rate: float) -> ClassicalCW:
    """Classical CW reference at the squeezed photon rate, same centers.

    The comparison protocol keeps each classical beam narrowband and on the
    squeezed band center, with flux = (photons/s)/A_eff per band.  Both bands
    carry the band-I rate `photon_rate` (from `photon_rate_cw(src, "I", ...)`):
    the band-II photon density is the same Gaussian gain profile shifted to
    its own center, so its integral is the same.
    """
    flux = photon_rate / a_eff
    return ClassicalCW(
        flux_i=flux, flux_ii=flux, center_i=src.center_i, center_ii=src.center_ii,
    )


def matched_classical_pulsed(
    dec: SchmidtDecomposition, beta: float, src: SqueezedPulsed
) -> ClassicalPulsed:
    """Classical pulse pair at the squeezed photon number at |beta|, sigma_I = sigma_II = sigma_c."""
    n_photons = photon_number_pulsed(dec.p, beta)
    return ClassicalPulsed(
        amp_i=GaussianAmplitude(src.center_i, src.sigma_c),
        amp_ii=GaussianAmplitude(src.center_ii, src.sigma_c),
        n_photons_i=n_photons,
        n_photons_ii=n_photons,
    )
