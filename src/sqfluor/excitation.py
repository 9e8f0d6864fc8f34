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
The incoherent rate's sampling estimate is not part of a rate:
`cw_incoherent_sampling_rel_err` builds the scale/12 lattice on request and
integrates its interpolant exactly by linear product integration
(`pole_weights_linear`).

A classical pulse pair is a closed form (`p_classical_pulsed`).  The
pulsed engine takes both lines by product integration (`pole_weights`),
samples the outer frequency dependence on a lattice aligned with its inner
grid, so the inner integrals at every outer point are one FFT correlation
(`lattice_correlate`), and estimates the sampling error by halving the
stride down a ladder of rungs, each coarser rung a subsample of that one
pass.  The estimate is the change between the last two rungs: it
is not a bound, it is NaN for a one-rung ladder, and a ladder that ends
before two rungs agree to `sample_rel_tol` returns its last value with
nothing but that estimate to show it.  The engine computes all of this when
it is built and is only read afterwards, so sweep rows on several threads
share one engine without a lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.fft import irfft, rfft
from scipy.special import gammaln, wofz

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
    photon_number_pulsed,
    squeezing_from_roots,
)
from .spectral import (
    GaussianAmplitude,
    LorentzianLineshape,
    NumericalError,
    green,
    lorentzian,
    pole_weights,
    pole_weights_linear,
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
    "cw_incoherent_sampling_rel_err",
    "p_squeezed_pulsed",
    "PulsedExcitationEngine",
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
SQRT_2PI = np.sqrt(2.0 * np.pi)
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
    incoherent pass; the population takes none.  `diagnostics` is empty: the
    incoherent rate's sampling estimate is `cw_incoherent_sampling_rel_err`,
    which needs a second lattice and which no sweep row reads.
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


def cw_incoherent_sampling_rel_err(
    src: SqueezedCW, sys: FourLevelSystem, fine: float
) -> float:
    """|fine - coarse| / |fine|: the sampling estimate of the CW incoherent rate.

    `fine` is the scale/24 value the estimate is taken for, the double
    integral `_cw_incoherent_integral` returns (plain measure, before the
    rate's prefactor), with scale = `_cw_gain_scale(src)`.  `coarse` is the
    same integral on the lattice at step scale/12, whose interpolant (zero
    outside the lattice) is integrated exactly by linear product integration
    (`pole_weights_linear` at omega_ba + i Gamma_b/2).  It is an estimate of
    the sampling error, not a bound: it also holds the adaptive quadrature
    error of `fine`, and at sigma_c_bar ~ Gamma_b it reads the scale/12
    interpolation error rather than that of `fine` (ROADMAP item 3).  No
    tolerance is applied to it and no sweep row computes it
    (DECISIONS.md).  The weights take the lattice's nominal nodes, offsets
    h (k - (n - 1)/2) from the band-I centre; the samples were taken at
    those offsets rounded to absolute frequencies (by up to 0.125 rad/s,
    half an ulp near 2e15 rad/s), which moves the integral by up to 7e-7 at
    sigma_c_bar = 0.003 Gamma_b (DECISIONS.md).
    """
    scale = _cw_gain_scale(src)
    w_i_pts, samples = _cw_outer_samples(src, sys, scale, 12.0)
    n_i, g = len(w_i_pts), 0.5 * sys.gamma_b
    # In offsets from the band-I centre, the lattice's own coordinates.
    h = scale / 12.0
    weights = pole_weights_linear(
        -h * ((n_i - 1) // 2), h, n_i, (sys.omega_ba - src.center_i) + 1j * g
    )
    coarse = float(weights.imag @ samples) / g
    return abs(fine - coarse) / max(abs(fine), 1e-300)


# ---------------------------------------------------------------------------
# squeezed light, pulsed
# ---------------------------------------------------------------------------


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


class PulsedExcitationEngine:
    """Schmidt-mode quadrature engine over beta-independent kernel levels.

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
    product-integration weights (`spectral.pole_weights`), exact for a
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

        self.fi = dec.modes_at("I", self.x)

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


def p_squeezed_pulsed(
    dec: SchmidtDecomposition,
    beta: float,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    a_eff: float,
    coupling: DipoleCoupling | None = None,
    *,
    mode_weight_tail: float = 1e-4,
    sample_rel_tol: float = 1e-3,
) -> ExcitationOutcome:
    """Pulsed squeezed excitation probability at pump strength |beta|.

    Modes that carry less than `mode_weight_tail` of the sinh^2 gain weight
    at |beta| are dropped before the engine is built.
    """
    working = dec.truncated(dec.weighted_mode_count(beta, mode_weight_tail))
    engine = PulsedExcitationEngine(working, sys, eta, a_eff, coupling, sample_rel_tol)
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


def _sinh2_series(beta_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, b_k) of sinh^2(beta_bar r) = sum_{k >= 1} b_k r^(2k).

    b_k = (2 beta_bar)^(2k) / (2 (2k)!).  The coefficients are formed in log space, since at beta_bar = 30 the
    largest is near e^60.  Terms below CW_SERIES_CUT of the largest are left
    out; they are contiguous at both ends, because log b_k is concave in k.
    Raises NumericalError rather than truncate when a kept term would lie
    past the table of CW_SERIES_TERMS terms, so no series this returns sums
    past the largest double.
    """
    k = np.arange(1, CW_SERIES_TERMS + 1)
    log_b = 2.0 * k * np.log(2.0 * beta_bar) - np.log(2.0) - gammaln(2.0 * k + 1.0)
    kept = np.flatnonzero(log_b >= log_b.max() + np.log(CW_SERIES_CUT))
    if kept[-1] == CW_SERIES_TERMS - 1:
        raise NumericalError(
            f"the Gaussian series of sinh^2 at beta_bar = {beta_bar!r} needs more than "
            f"{CW_SERIES_TERMS} terms"
        )
    return k[kept], np.exp(log_b[kept])


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
    read from the engine's mode time profiles.
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
