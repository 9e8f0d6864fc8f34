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

Squeezed light, CW and pulsed, is computed from Gaussian series of the
gains (`sources.GainSeries`), so every frequency integral is a Gaussian
against a Lorentzian or a Green pole.  On CW rows the coherent amplitude
Int G_ba s_I c_I is one Faddeeva value per term, the photon rate
(`sources.photon_rate_cw`) and the intermediate population
(`max_intermediate_population`) are closed sums too, and the incoherent
double integral is a quadratic form of one K x K table of half-line
integrals.  `CwExcitationEngine` holds that table and the Faddeeva values
of one sigma_c_bar column, and a row reads them (`rate_squeezed_cw`) and
its photon rate from the same terms (`photon_rate_cw(src, engine)`).

A classical pulse pair's inner integral is one Faddeeva value and its outer
one a half-line integral (`p_classical_pulsed`).  Squeezed pulses of the
double-Gaussian source are Gaussian series of their Schmidt gains: Mehler's
formula sums the Hermite modes of each term, and every frequency integral
left is Gaussian once the Green pole and the Lorentzian are written in
time.  `PulsedExcitationEngine` tabulates the one half-line integral that
remains per term pair (incoherent, coherent) or per term and time
(intermediate population); a panel's rows read three small quadratic
forms, all betas in one call.  Tables are built once and only read
afterwards.

Every pulsed or CW integral, a table or the classical pulse pair's one,
is taken on a Gauss-Kronrod pair (`_gauss_kronrod`): one set of integrand
samples gives the Kronrod table and the Gauss one, and the Gauss nodes
double only while the two differ by more than TABLE_REL_TOL = 1e-13 of
the size of the integrals (`_doubled`); past MAX_TABLE_NODES it raises
ConvergenceError.  Outcomes report that difference as
`quadrature_rel_err` in their `diagnostics`.  The CW rates and the
classical pulse pair are also checked against independent references
under tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .constants import C_LIGHT, EPS0, HBAR, TWO_PI
# Unused here: sweepbench's layer tracer wraps it on this module by name.
from .peaked import quad_kernel_smooth
from .sources import (
    ClassicalCW,
    ClassicalPulsed,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    GainSeries,
    _photon_weights,
    _rate_weights,
    geometric_mode_ratio,
    photon_number_pulsed,
    squeezing_from_roots,
)
from .special import erf, erfcx, wofz
from .spectral import (
    GaussianAmplitude,
    ConvergenceError,
    NumericalError,
    green,
    lorentzian,
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
    "CwExcitationEngine",
    "cw_column_beta_max",
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


@dataclass(frozen=True)
class ExcitationOutcome:
    """Coherent/incoherent/total excitation, per atom.

    A probability for pulses, a rate (per second) for CW beams; classical
    light reports incoherent = 0 by convention so one shape serves all.
    `max_population` is the peak intermediate-state population, present
    when a dipole coupling was given (see `within_validity`).  A pulsed
    engine read at an array of betas gives arrays, one entry per beta,
    and every entry must be nonnegative.
    """

    coherent: float | np.ndarray
    incoherent: float | np.ndarray
    max_population: float | np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        negative = (self.coherent < 0.0) | (self.incoherent < 0.0)
        # A row's floats give a bool, and skip numpy's any() on the hot CW path.
        if negative if isinstance(negative, bool) else negative.any():
            raise ValueError("excitation contributions must be nonnegative")

    @property
    def total(self) -> float | np.ndarray:
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
    sigma: float | None = None,
) -> ExcitationOutcome:
    """Closed-form CW rate F_I F_II sigma(wI, wII); no quadrature involved.

    `sigma` is the cross-section `system.cross_section` at src's centres,
    for a caller that reads many fluxes at the same centres (a CW sweep
    takes it once); without it, it is computed here.
    """
    if sigma is None:
        sigma = cross_section(src.center_i, src.center_ii, sys, eta)
    rate = float(src.flux_i * src.flux_ii * sigma)
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
    """Per-atom two-photon excitation probability for two classical pulses.

    With d = w - c_I - c_II, V = sigma_I^2 + sigma_II^2 and s^2 = sigma_I^2
    sigma_II^2/V, K(d) = Int G_ba phi_I phi_II dbar-x is one Faddeeva value
    w(a (delta + s^2 d/sigma_II^2) + i b), a = 1/(sqrt(2) s), b = a Gamma_b/2,
    delta = c_I - omega_ba (Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)).
    With w in time, Int L |K|^2 dd is 1/(sqrt(2 pi) sigma_I sigma_II) times
    one half-line integral (DECISIONS.md),

        Int_0^inf e^(-rho^2/4 - b rho) erfcx((rho + 4b)/sqrt(8)) Re[e^(i a delta rho) F] drho,

    F = `_lorentz_gauss` in units of sqrt(V) at lam = slope rho, slope =
    sigma_I/(sqrt(2) sigma_II), on the tables' Gauss-Kronrod pair
    (`_doubled`, against Int |integrand|: off resonance it oscillates);
    `quadrature_nodes` counts the integrand's evaluations.  With a coupling, the
    peak population max_t (kappa N_I/A) |M(t)|^2 comes too, on `_time_grid`
    in durations 1/sigma_I: phi_I(w) e^{-i(w - c_I)t} is e^{-sigma_I^2
    t^2/2} times a Gaussian about c_I - i sigma_I^2 t, so M(t) = Int G_ba
    phi_I e^{-i(w - c_I)t} dbar-w is one Faddeeva value too.
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

    root_v = math.sqrt(sig_i * sig_i + sig_ii * sig_ii)
    a = root_v / (math.sqrt(2.0) * sig_i * sig_ii)
    b, slope = 0.5 * a * sys.gamma_b, sig_i / (math.sqrt(2.0) * sig_ii)
    vc = _on_resonance((sys.omega_ca - src.amp_i.center) - src.amp_ii.center, sys.omega_ca)

    reach = _reach(0.25, b)

    def integral(n_nodes):
        x, weights = _two_panels(n_nodes)
        rho = reach * x
        h = np.exp(-rho * (0.25 * rho + b)) * erfcx((rho + 4.0 * b) / math.sqrt(8.0))
        f = _lorentz_gauss(1.0, slope * rho, vc / root_v, 0.5 * sys.gamma_c / root_v)
        pair, size = _rule_sums(h * _real_with_phase(f, a * delta, rho), weights)
        return reach * pair, reach * size

    value, n_nodes, rel = _doubled(integral, 32, "classical pulse pair")
    photons = eta.eta * (src.n_photons_i / a_eff) * (src.n_photons_ii / a_eff)
    prob = photons * float(value) / (math.sqrt(2.0 * np.pi) * sig_i * sig_ii)
    diagnostics = {"quadrature_rel_err": rel, "quadrature_nodes": _evaluations(32, n_nodes, 2)}
    return ExcitationOutcome(prob, 0.0, pop, diagnostics)


# ---------------------------------------------------------------------------
# squeezed light: half-line tables of the Gaussian series
# ---------------------------------------------------------------------------


# A table settles once its Kronrod and Gauss values differ by at most this
# share of the size of its integrals; its Gauss nodes double until then,
# and past MAX_TABLE_NODES it raises.
TABLE_REL_TOL = 1e-13
MAX_TABLE_NODES = 1024
# A half-line integral stops where a bound on its integrand has fallen by
# e^-TAIL_EXPONENT (2.9e-20) from its start.
TAIL_EXPONENT = 45.0


@lru_cache(maxsize=None)
def _gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [0, 1]: nodes x and weights of shape (2, 2n+1).

    Row 0 holds the Kronrod weights, exact to degree 3n+1; row 1 the n-point
    Gauss-Legendre weights, at the odd positions x[1::2] and zero at the
    Kronrod nodes between them.  For n = 10 it is QUADPACK's GK21
    (Piessens et al., 1983).  On [-1, 1], at x = cos t, the Gauss nodes are
    the zeros of Legendre's P_n and the Kronrod nodes those of the
    Stieltjes polynomial E_(n+1), and both are cosine sums in t:

        P_n(cos t) = sum_i g_i g_(n-i) cos((n - 2i) t),   g_i = binom(2i, i) / 4^i,
        E_(n+1)(cos t) = sum_k a_k cos((n + 1 - 2k) t),   a_0 = 1.

    Int P_n E_(n+1) T_m dx = 0 for odd m <= n fixes the a_k (Piessens &
    Branders, Math. Comp. 28, 135 (1974)): with I_j = Int P_n T_j dx, which
    vanishes for j < n, they are the power-series coefficients of (1 -
    s) / R(s), R(s) = sum_d (I_(n+2d) / I_n) s^d.  Newton's method in t
    takes the zeros on t <= pi/2 at once (the rule is symmetric), from
    Tricomi's estimates of the Legendre zeros and midway in angle between
    them; each m t is split at 2^-40 of t, so that its rounding does not
    grow with m.  With P' and E' the derivatives in t and c = -2 sin t /
    ((2n + 1) g_n), the weights on [-1, 1] are closed forms in the same
    sums (Monegato, SIAM Rev. 24, 137 (1982)): 2 / P_n'^2 for Gauss; for
    Kronrod, that plus c / (P_n' E_(n+1)) at the Gauss nodes and c /
    (P_n E_(n+1)') at the others.  Built on first use, in 0.3-0.5 ms at
    the tables' n in a fresh process, with no LAPACK call: an eigensolver's
    first call raised a sweep's peak memory (DECISIONS.md, "Tables settle
    on a Gauss-Kronrod pair").
    """
    g = np.cumprod([1.0] + [(2.0 * i - 1.0) / (2.0 * i) for i in range(1, n + 1)])
    legendre = g * g[::-1]
    half = (n + 1) // 2
    # I_(n+2d) from P_n's cosine sum: Int_0^pi cos(N t) sin t dt = 2/(1 - N^2) at even N.
    j = n + 2.0 * np.arange(half + 1)
    m = n - 2.0 * np.arange(n + 1)
    moments = np.einsum(
        "dm,m->d", 1.0 / (1.0 - np.add.outer(j, m) ** 2) + 1.0 / (1.0 - np.subtract.outer(j, m) ** 2),
        legendre,
    )
    r = moments / moments[0]
    a = np.zeros(half + 1)
    a[0] = 1.0
    for k in range(1, half + 1):
        a[k] = (-1.0 if k == 1 else 0.0) - np.dot(a[:k], r[k:0:-1])
    # The rule is symmetric about x = 0 (t = pi/2), so Newton runs on the
    # first n + 1 positions, t <= pi/2, and the rest are their mirror images.
    rows = n + 1
    orders = np.arange(n + 2.0)
    p_row, e_row = np.zeros(n + 2), np.zeros(n + 2)
    np.add.at(p_row, np.abs(n - 2 * np.arange(n + 1)), legendre)
    e_row[n + 1 - 2 * np.arange(half + 1)] = a
    gauss = np.arange(rows) % 2 == 1
    own = np.where(gauss[:, None], p_row, e_row)
    other = np.where(gauss[:, None], e_row, p_row)
    slope = -orders * own
    theta = np.pi * (4.0 * np.arange(1, n + 1) - 1.0) / (4.0 * n + 2.0)
    theta = np.arccos((1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.cos(theta))
    t = np.empty(2 * n + 1)
    t[1::2] = theta
    t[2:-1:2] = 0.5 * (theta[:-1] + theta[1:])
    t[0] = 0.4073 * theta[0]  # the first Kronrod angle's ratio to the first Gauss one, n = 10 to 512
    t = t[:rows]
    t[-1] = 0.5 * np.pi
    for _ in range(20):
        hi = np.round(t * 2.0**40) * 2.0**-40
        arg = np.multiply.outer(hi, orders)
        lo = np.multiply.outer(t - hi, orders)
        cos_hi, sin_hi = np.cos(arg), np.sin(arg)
        # cos and sin of m t to first order in m (t - hi) < 3e-10, whose square is below 1e-19.
        cosines, sines = cos_hi - sin_hi * lo, sin_hi + cos_hi * lo
        value = np.einsum("ij,ij->i", cosines, own)
        derivative = np.einsum("ij,ij->i", sines, slope)
        step = value / derivative
        if np.max(np.abs(step)) <= 1e-14:
            break
        t = t - step
    c = -2.0 * sines[:, 1] / ((2 * n + 1) * g[n])
    at_other = np.einsum("ij,ij->i", cosines, other)
    weights = np.zeros((2, rows))
    weights[1, gauss] = 2.0 / derivative[gauss] ** 2
    weights[0] = weights[1] + c / (derivative * at_other)
    weights = 0.5 * np.concatenate([weights, weights[:, -2::-1]], axis=1)
    x = -cosines[:, 1]
    x[-1] = 0.0
    x = np.concatenate([x, -x[-2::-1]])
    return 0.5 * (x + 1.0), weights


@lru_cache(maxsize=None)
def _two_panels(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gauss_kronrod(n_nodes // 2)` on each of the panels [0, 1/4] and [1/4, 1]: 2 n_nodes + 2 nodes."""
    x, w = _gauss_kronrod(n_nodes // 2)
    return 0.25 * np.concatenate([x, 1.0 + 3.0 * x]), 0.25 * np.concatenate([w, 3.0 * w], axis=1)


def _rule_sums(y, weights) -> tuple[np.ndarray, np.ndarray]:
    """(pair, size): y summed along its last axis under both weight rows, |y| under the Kronrod row.

    pair[0] is the Kronrod sum, pair[1] the Gauss one; einsum's own loop
    takes them, not a BLAS product.
    """
    return np.einsum("...m,jm->j...", y, weights), np.einsum("...m,m->...", np.abs(y), weights[0])


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
    """Re[e^(i delta t) values] for a real offset delta: a line's offset in units of the table."""
    if delta == 0.0:
        return np.real(values)
    return np.real(np.exp(1j * delta * t) * values)


def _doubled(table, n_nodes: int, what: str) -> tuple[np.ndarray, int, float]:
    """(values, n, rel) at the first n = n_nodes 2^j whose Gauss-Kronrod pair agrees to rel <= TABLE_REL_TOL.

    table(n) returns (pair, size) from one set of integrand samples:
    pair[0] the table under the Kronrod weights of n Gauss nodes, pair[1]
    under the n Gauss weights alone, and size the Kronrod table of
    |integrand|, the size of its integrals (an oscillating integrand can
    leave an entry far below it).  rel = max |K - G| / max size estimates
    the Gauss table's error, so it overstates the Kronrod values' error;
    the Kronrod values are returned.  Raises ConvergenceError where the
    next n would pass MAX_TABLE_NODES.
    """
    while True:
        pair, size = table(n_nodes)
        scale = float(np.max(size))
        rel = float(np.max(np.abs(pair[0] - pair[1]))) / scale if scale > 0.0 else 0.0
        if rel <= TABLE_REL_TOL:
            return pair[0], n_nodes, rel
        if 2 * n_nodes > MAX_TABLE_NODES:
            raise ConvergenceError(
                float(np.max(np.abs(pair[0]))), float(np.max(np.abs(pair[1]))), rel, what
            )
        n_nodes *= 2


def _evaluations(n_start: int, n_final: int, panels: int) -> int:
    """Integrand samples per entry of a table settled at n_final: 2n + panels at each level from n_start."""
    levels = (n_final // n_start).bit_length()
    return 2 * n_start * (2**levels - 1) + panels * levels


def _on_resonance(offset: float, frequency: float) -> float:
    """offset, or 0.0 when it is within the rounding of two sums near `frequency`.

    omega_ca = omega_ba + omega_cb is itself rounded, so a source centred on
    both lines can sit a few ulp off omega_ca; the tables are even in that
    offset, so taking it as zero moves them at second order (below 1e-16).
    """
    return 0.0 if abs(offset) <= 2.0 * np.spacing(abs(frequency)) else offset


# ---------------------------------------------------------------------------
# squeezed light, CW
# ---------------------------------------------------------------------------


def _cw_incoherent_table(k, g, gc, vc, delta, n_nodes):
    """R_kl = sqrt(pi/k)/g Int_0^inf e^(-gc t - t^2/(4k)) Re[e^(-i vc t) F_l(t)] dt.

    k is the order of the band-II term, l that of band I (the one under
    |G_ba|^2), and F_l = `_lorentz_gauss` at kappa = l, lam = t about the
    Green line at delta with half-width g.  |F_l| <= 1, so the integrand
    falls at least as fast as its band-II factor, and one grid of
    `_two_panels` to the reach of the largest k serves every entry.  The
    K x n factors E and F are the largest arrays held.

    Returns (pair, size) for `_doubled`: R under the Kronrod and the Gauss
    weights, and R under the Kronrod weights with |f| for f, the size of
    its integrals.  Off resonance f oscillates and an entry can be far
    below that size; on resonance f > 0 and size is R.
    """
    reach = _reach(1.0 / (4.0 * k[-1]), gc)
    x, weights = _two_panels(n_nodes)
    t = reach * x
    e = np.exp(-gc * t - t * t / (4.0 * k[:, None]))
    f = _real_with_phase(_lorentz_gauss(k[:, None], t, delta, g), -vc, t)
    prefactor = reach * (np.sqrt(np.pi / k) / g)[:, None]
    kronrod = e * weights[0]
    pair = np.stack([kronrod @ f.T, (e * weights[1]) @ f.T])
    return prefactor * pair, prefactor * (kronrod @ np.abs(f).T)


def _cw_faddeeva(src: SqueezedCW, sys: FourLevelSystem, orders: np.ndarray) -> np.ndarray:
    """w(sqrt(m/2) z) at each order m, z = (omega_ba - c_I + i Gamma_b/2) / sigma_c_bar."""
    z = (sys.omega_ba - src.center_i + 0.5j * sys.gamma_b) / src.sigma_c_bar
    return wofz(np.sqrt(0.5 * orders) * z)


def _cw_population(src, sys, coupling, a_eff, b_k, re_w) -> float:
    """(kappa / 2 pi A) (pi/g) sum_k b_k Re w_k, the peak population of squeezed CW light."""
    kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
    integral = (np.pi / (0.5 * sys.gamma_b)) * float(b_k @ re_w)
    return float(kappa * integral / (TWO_PI * a_eff))


def cw_column_beta_max(beta_bars) -> tuple[float, GainSeries]:
    """The largest of a column's beta_bars whose Gaussian series can be formed, and that series.

    Returns that beta_bar (else 0.0) and its `GainSeries`.  That is the
    beta_bar a column's `CwExcitationEngine` is built at, and the series
    is handed to it (`series=`), so it is formed once per column: it runs
    out from beta_bar = 353 on, and only the rows past it fail.
    """
    for beta_bar in sorted(beta_bars, reverse=True):
        try:
            return float(beta_bar), GainSeries(beta_bar)
        except NumericalError:
            continue
    return 0.0, GainSeries(0.0)


class CwExcitationEngine:
    """CW squeezed excitation of one sigma_c_bar column, read at any beta_bar up to its own.

    The tables depend on the column (sigma_c_bar, the source centres and the
    system), not on beta_bar, which sets only the terms a row reads.  Built
    at `src.beta_bar`, the engine holds, over every order m of the
    `sources.GainSeries` there (`gain_series`):
    - the Faddeeva values w(sqrt(m/2) z) of `_cw_faddeeva`: conj w at the
      odd orders for the coherent amplitude, Re w at the even ones for the
      intermediate population;
    - R, the K x K table of `_cw_incoherent_table` over k = m/2 = 1..K,
      settled on its Gauss-Kronrod pair to TABLE_REL_TOL (`_doubled`, else
      ConvergenceError);
    - the photon-rate weights sqrt(pi/k) sigma_c_bar / 2 pi of the same k.

    A row forms its terms b_k (sinh^2) and a_m (sinh cosh) once and reads
    a . conj w, b^T R b and b . Re w (`rate_squeezed_cw` has the formulas),
    and its photon rate as b . rate_weights (`sources.photon_rate_cw`).
    `diagnostics` reports `series_terms` (K) and `quadrature_rel_err` (R's
    Gauss-Kronrod difference), as the pulsed engine does.  `series`, the
    `GainSeries` at `src.beta_bar`, spares its second forming when the
    caller has it (`cw_column_beta_max`).
    """

    def __init__(
        self,
        src: SqueezedCW,
        sys: FourLevelSystem,
        eta: CrossSectionPrefactor,
        a_eff: float,
        coupling: DipoleCoupling | None = None,
        *,
        series: GainSeries | None = None,
    ):
        self.src = src
        self.sys = sys
        self.eta = eta
        self.area = a_eff
        self.coupling = coupling
        self.beta_bar_max = src.beta_bar
        # What a row's inputs must match, at any beta_bar (`rate_squeezed_cw`);
        # `sources.photon_rate_cw` checks the source's three.
        self.column = (src.sigma_c_bar, src.center_i, src.center_ii, sys, eta, a_eff, coupling)
        sigma = src.sigma_c_bar
        if series is None:
            series = GainSeries(src.beta_bar)
        self.gain_series = series
        population_w, coherent_w = series.split(_cw_faddeeva(src, sys, series.orders))
        self._coherent_w, self._population_w = np.conj(coherent_w), population_w.real
        self._l_at_pump = float(lorentzian(src.pump_center, sys.lineshape_ca()))
        # (beta_bar, terms) of the last `series` call, replaced as one tuple so
        # that a reader never pairs one row's beta_bar with another's terms.
        self._last_series = (None, None)

        g, gc = 0.5 * sys.gamma_b / sigma, 0.5 * sys.gamma_c / sigma
        delta = (sys.omega_ba - src.center_i) / sigma
        vc = _on_resonance((sys.omega_ca - src.center_i) - src.center_ii, sys.omega_ca) / sigma
        k = series.even / 2.0
        self.rate_weights = _rate_weights(series, sigma)
        self.incoherent_table, _, rel = _doubled(
            lambda n: _cw_incoherent_table(k, g, gc, vc, delta, n), 32, "CW incoherent table"
        )
        self.diagnostics = {"series_terms": max(len(series.even), len(series.odd)), "quadrature_rel_err": rel}

    def series(self, beta_bar: float) -> tuple[np.ndarray, np.ndarray]:
        """(b, a): the terms of sinh^2 (even orders) and sinh cosh (odd) at beta_bar.

        Past the engine's beta_bar_max it raises NumericalError: the series'
        own error where it cannot be formed at all.  The last beta_bar's
        terms are kept, so a row's rates and photon rate share one
        evaluation; the arrays are shared, to be read and not written.
        """
        last_beta_bar, last_terms = self._last_series
        if beta_bar == last_beta_bar:
            return last_terms
        if beta_bar > self.beta_bar_max:
            GainSeries(beta_bar)
            raise NumericalError(
                f"beta_bar = {beta_bar!r} is past the engine's beta_bar_max = {self.beta_bar_max!r}"
            )
        self._last_series = (beta_bar, self.gain_series.terms(beta_bar))
        return self._last_series[1]

    def outcome(self, beta_bar: float) -> ExcitationOutcome:
        """Coherent and incoherent rates at beta_bar; with a coupling, the peak population."""
        b, a = self.series(beta_bar)
        eta, area, sigma = self.eta.eta, self.area, self.src.sigma_c_bar
        with np.errstate(over="ignore"):
            amplitude = 1j * np.pi * (a @ self._coherent_w)
            coherent = eta * self._l_at_pump * abs(amplitude / TWO_PI) ** 2 / area**2
            incoherent = eta * (b @ self.incoherent_table @ b) / (sigma * TWO_PI**2 * area**2)
        if not math.isfinite(coherent + incoherent):
            # From about beta_bar = 178 on, as products of two gains.
            raise NumericalError(f"the CW rates at beta_bar = {beta_bar!r} overflow a double")
        pop = None
        if self.coupling is not None:
            pop = _cw_population(self.src, self.sys, self.coupling, area, b, self._population_w)
        return ExcitationOutcome(
            float(coherent), float(incoherent), pop, diagnostics=dict(self.diagnostics)
        )


def rate_squeezed_cw(
    src: SqueezedCW,
    sys: FourLevelSystem,
    eta: CrossSectionPrefactor,
    a_eff: float,
    coupling: DipoleCoupling | None = None,
    engine: CwExcitationEngine | None = None,
) -> ExcitationOutcome:
    """Coherent + incoherent CW squeezed excitation rates from the Gaussian series of the gains.

    In x = (w - c)/sigma, sigma = sigma_c_bar, sinh^2(beta_bar r) = sum_k b_k
    e^(-k x^2) and sinh cosh(beta_bar r) = sum_m a_m e^(-m x^2/2) over odd
    m (`sources.GainSeries`), so every CW integral is Gaussian against a
    Lorentzian.  The coherent amplitude is one Faddeeva value per term
    (Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)),

        Int G_ba s_I c_I dw = i pi sum_m a_m conj(w(sqrt(m/2) z)),
        z = (omega_ba - c_I + i Gamma_b/2) / sigma,

    erfcx on resonance.  The incoherent double integral is b^T R b / sigma,
    with R the K x K table of `_cw_incoherent_table` at g = Gamma_b/(2
    sigma), gc = Gamma_c/(2 sigma), delta = (omega_ba - c_I)/sigma and vc =
    (omega_ca - c_I - c_II)/sigma.  The terms, the Faddeeva values and R
    come from `engine`, a `CwExcitationEngine` of src's column built at a
    beta_bar of at least src's; a sweep builds one per sigma_c_bar column.
    Without it, a one-row engine is built at src.beta_bar.  An engine of
    another column raises ValueError; a beta_bar past the engine's,
    NumericalError.  `diagnostics` reports `series_terms` and
    `quadrature_rel_err`, as the pulsed engine does.
    """
    if engine is None:
        engine = CwExcitationEngine(src, sys, eta, a_eff, coupling)
    elif engine.column != (src.sigma_c_bar, src.center_i, src.center_ii, sys, eta, a_eff, coupling):
        raise ValueError("the engine was built for another column or other inputs")
    return engine.outcome(src.beta_bar)


# ---------------------------------------------------------------------------
# squeezed light, pulsed
# ---------------------------------------------------------------------------


def _mehler(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_rho, N_rho) = ((1 - rho)/(1 + rho), (pi (1 - rho^2))^(-1/2)) of Mehler's formula."""
    return (1.0 - rho) / (1.0 + rho), 1.0 / np.sqrt(np.pi * (1.0 - rho * rho))


def _incoherent_table(a, norm, g, gc, vc, delta, n_nodes):
    """T_kl = (pi N_k N_l / sqrt(B P)) Int_0^inf e^(-t^2/(8B)) H(t) Re[e^(i delta t) F(t)] dt.

    B = (A_k + A_l)/2, P = (1/A_k + 1/A_l)/2, H(t) = Int_t^inf e^(-s^2/(8P)
    - g s) ds (one erfcx) and F = `_lorentz_gauss` at kappa = A_k A_l/(2B),
    lam = A_k t/(2B).  The integrand falls at least as e^(-t^2 (1/(8B) +
    1/(8P)) - g t); Gauss-Kronrod panels [0, L/4] and [L/4, L] of n/2
    Gauss nodes each take it to that reach L.  Returns (pair, size) for
    `_doubled`, as `_cw_incoherent_table` does.
    """
    a_k, a_l = a[:, None, None], a[None, :, None]
    b = 0.5 * (a_k + a_l)
    p = 0.5 * (1.0 / a_k + 1.0 / a_l)
    reach = _reach(1.0 / (8.0 * b) + 1.0 / (8.0 * p), g)
    x, weights = _two_panels(n_nodes)
    t = reach * x
    # H is symmetric in k and l bit for bit (b and p are commutative sums),
    # so it is taken for k <= l and mirrored.  Its erfcx argument is
    # positive (t, g >= 0), so e^expo erfcx(z) takes no join.
    upper = np.triu_indices(len(a))
    tu, bu, pu = t[upper], b[upper], p[upper]
    h = np.empty_like(t)
    h[upper] = np.exp(-tu * tu * (1.0 / (8.0 * bu) + 1.0 / (8.0 * pu)) - g * tu) * erfcx(
        (tu + 4.0 * pu * g) / np.sqrt(8.0 * pu)
    )
    h.swapaxes(0, 1)[upper] = h[upper]
    f = _lorentz_gauss(a_k * a_l / (2.0 * b), a_k * t / (2.0 * b), vc, gc)
    pair, size = _rule_sums(h * _real_with_phase(f, delta, t), weights)
    # H carries sqrt(2 pi P), so pi N_k N_l / sqrt(B P) becomes pi sqrt(2 pi) N_k N_l / sqrt(B).
    prefactor = np.pi * np.sqrt(2.0 * np.pi) * np.outer(norm, norm) / np.sqrt(b[..., 0]) * reach[..., 0]
    return prefactor * pair, prefactor * size


def _coherent_table(a, norm, g, gc, vc, delta, n_nodes):
    """Q_kl = (pi N_k N_l / (2 sqrt(A_k A_l))) (S_kl + S_lk).

    S_kl = Int_0^inf e^(-P t^2/8) H(t; g + D t/8) Re[e^(i delta t) F(t)] dt
    with P = (1/A_k + 1/A_l)/2, D = 1/A_k - 1/A_l, H(t; y) = Int_t^inf
    e^(-P s^2/8 - y s) ds (one erfcx, y may be negative) and F =
    `_lorentz_gauss` at kappa = P/2, lam = t/2.  S_kl's integrand falls at
    least as e^(-t^2/(4 A_k) - g t), so row k takes its own reach, on one
    Gauss-Kronrod panel of n Gauss nodes.  Returns (pair, size) for
    `_doubled`, size from |S_kl| + |S_lk|.
    """
    a_k, a_l = a[:, None, None], a[None, :, None]
    p = 0.5 * (1.0 / a_k + 1.0 / a_l)
    x, weights = _gauss_kronrod(n_nodes)
    reach = _reach(1.0 / (4.0 * a_k), g)
    t = reach * x
    rate = g + (1.0 / a_k - 1.0 / a_l) * t / 8.0
    z = np.sqrt(p / 8.0) * t + rate * np.sqrt(2.0 / p)
    h = _exp_erfcx(-p * t * t / 4.0 - rate * t, z, 2.0 * rate * rate / p - p * t * t / 8.0)
    f = _real_with_phase(_lorentz_gauss(p / 2.0, t / 2.0, vc, gc), delta, t)
    pair, size = _rule_sums(h * f, weights)
    to_s = reach[..., 0] / np.sqrt(p[..., 0])
    pair, size = pair * to_s, size * to_s
    scale = norm / np.sqrt(a)
    # H carries sqrt(2 pi / P).
    prefactor = 0.5 * np.pi * np.sqrt(2.0 * np.pi) * np.outer(scale, scale)
    return prefactor * (pair + pair.swapaxes(1, 2)), prefactor * (size + size.T)


def _population_table(a, norm, g, delta, tau, n_nodes):
    """I_k(tau) = N_k Int_0^inf e^(-g s - A_k (s - 2 tau)^2/4) E_k(s) ds.

    E_k(s) = Int_0^s e^(-x^2/(4 A_k)) cos(delta x) dx, sqrt(pi A_k) erf(s /
    (2 sqrt(A_k))) on resonance and one Faddeeva value off it.  Past s0 =
    min(2 sqrt(A_k TAIL_EXPONENT), TAIL_EXPONENT/g), E_k is its limit
    sqrt(pi A_k) e^(-A_k delta^2) to e^-TAIL_EXPONENT (or the integrand has
    fallen by that much), and that piece is one erfcx; one Gauss-Kronrod
    panel of n Gauss nodes takes [0, s0].  Returns (pair, size) for
    `_doubled`, size with |E_k| for E_k.
    """
    a_k = a[:, None]
    root = np.sqrt(a_k)
    cut = 2.0 * root * np.sqrt(TAIL_EXPONENT)
    if g > 0.0:
        cut = np.minimum(cut, TAIL_EXPONENT / g)
    x, w = _gauss_kronrod(n_nodes)
    s = cut * x
    u = s / (2.0 * root)
    if delta == 0.0:
        inner = np.sqrt(np.pi * a_k) * erf(u)
    else:
        y = root * delta
        inner = np.sqrt(np.pi * a_k) * np.real(
            wofz(y + 0j) - np.exp(2j * u * y - u * u) * wofz(y + 1j * u)
        )
    # e^(-g s - A (s - 2 tau)^2/4) = e^(-g s - A s^2/4) e^(A s tau) e^(-A tau^2):
    # rows Kronrod, Gauss and Kronrod of |E_k| of one product per term.
    y = inner * cut * np.exp(-g * s - a_k * s * s / 4.0)
    weights = np.stack([y * w[0], y * w[1], np.abs(y) * w[0]], axis=1)
    near = np.matmul(weights, np.exp((a_k * s)[..., None] * tau))
    near *= np.exp(-a_k * tau * tau)[:, None, :]
    z = root * (cut - 2.0 * tau) / 2.0 + g / root
    expo = -g * cut - a_k * (cut - 2.0 * tau) ** 2 / 4.0
    far = np.sqrt(np.pi / a_k) * _exp_erfcx(expo, z, g * g / a_k - 2.0 * g * tau)
    out = norm[:, None, None] * (near + (np.sqrt(np.pi * a_k) * np.exp(-a_k * delta * delta) * far)[:, None])
    return out[:, :2].swapaxes(0, 1), out[:, 2]


def _rows_times(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """x @ table for each row of x, every entry summed over the terms in their order.

    The sum is einsum's fixed-order loop, not BLAS: a one-row BLAS product
    takes gemv and a many-row one gemm, whose last bits differ, so a row's
    bits would depend on how many rows are read with it (DECISIONS.md,
    "Pulsed panels read as arrays").
    """
    return np.einsum("...i,ij->...j", x, table)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of x with the same row of y, in einsum's fixed order."""
    return np.einsum("...j,...j->...", x, y)


def _one_or_rows(values: np.ndarray) -> float | np.ndarray:
    """A float for a one-beta read, the array of one entry per beta otherwise."""
    return float(values) if values.ndim == 0 else values


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
    (`sources.GainSeries`); a read past r0_max raises ValueError.  Each table
    settles on a Gauss-Kronrod pair (`_doubled`): its Gauss nodes double
    until its Kronrod and Gauss values differ by at most TABLE_REL_TOL of
    its Kronrod table of |integrand|, and it raises ConvergenceError if
    they cannot.  Terms with
    the same rho (all of them when mu = 0) share their entries.  Any source
    centres are allowed: the Green line's offset from the band-I centre
    enters as a phase and the Lorentzian's as a complex Faddeeva argument.

    A read takes one beta or an array of betas.  A sweep reads all the
    betas of a panel in one `outcome` call: the terms of every beta are one
    exp, and c^T T c, a^T Q a and max_tau (c @ I) are taken row by row
    (`_rows_times`), so that each entry has the bits of a read at its beta
    alone, whatever other betas share the call.  A scalar read is the same
    code with one beta and gives floats; an array read gives arrays, one
    entry per beta.  `diagnostics` reports `series_terms` (K) and
    `quadrature_rel_err` (the Gauss-Kronrod difference, largest of the
    tables), once for the whole read.  The tables are built in __init__ and
    only read afterwards.  `dec` (a cut Schmidt spectrum no read uses),
    `n_in` (integrand evaluations per entry of the costliest table, every
    level counted) and `n_out_max` (table entries) are kept
    only for the benchmark's layer tracer (sweepbench/trace_layers.py),
    which reads them under those names.
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
        self.gain_series = GainSeries(self.r0_max)
        self.c_orders, self.a_orders = self.gain_series.even, self.gain_series.odd
        self.photon_weights = _photon_weights(mu, self.c_orders / 2.0)
        evaluations, errs = [], []

        def table(build, orders, n_start, panels, what):
            # rho = mu^(m/2) for both series; equal rho share one entry.
            rho, inverse = np.unique(mu ** (0.5 * orders), return_inverse=True)
            a, norm = _mehler(rho)
            values, n_nodes, rel = _doubled(lambda n: build(a, norm, n), n_start, what)
            evaluations.append(_evaluations(n_start, n_nodes, panels))
            errs.append(rel)
            return values, inverse

        incoh, inv = table(
            lambda a, norm, n: _incoherent_table(a, norm, g, gc, vc, delta, n),
            self.c_orders, 32, 2, "incoherent table",
        )
        scale = eta.eta / (2.0 * np.pi * sigma_s**2 * a_eff**2)
        self.incoherent_table = scale * incoh[np.ix_(inv, inv)]
        coh, inv = table(
            lambda a, norm, n: _coherent_table(a, norm, g, gc, vc, delta, n),
            self.a_orders, 24, 1, "coherent table",
        )
        self.coherent_table = scale * coh[np.ix_(inv, inv)]
        self.population_table = None
        if coupling is not None:
            tau = _time_grid(1.0)
            pop, inv = table(
                lambda a, norm, n: _population_table(a, norm, g, delta, tau, n),
                self.c_orders, 32, 1, "population table",
            )
            kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
            self.population_table = (kappa / (sigma_s * a_eff)) * pop[inv]
        self.diagnostics = {
            "series_terms": max(len(self.c_orders), len(self.a_orders)),
            "quadrature_rel_err": max(errs),
        }
        self.n_in = max(evaluations)
        self.n_out_max = self.incoherent_table.size + self.coherent_table.size

    def series(self, beta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, a): the terms c_k and a_k at r0 = |beta| sqrt(1 - mu), as the tables' rows are ordered.

        For an array of betas, c and a take a leading axis, one row per
        beta.  A beta that is negative or NaN, or whose r0 is past r0_max,
        raises ValueError.
        """
        r0 = squeezing_from_roots(self.sqrt_p0, np.asarray(beta, dtype=float))
        past = r0[r0 > self.r0_max * (1.0 + 1e-12)]
        if past.size:
            raise ValueError(
                f"r0 = {float(past[0])!r} is past the tables' r0_max = {self.r0_max!r}"
            )
        return self.gain_series.terms(r0)

    def photon_number(self, beta: float | np.ndarray) -> float | np.ndarray:
        """N(beta) = c . photon_weights, the photons per pulse in each band, row by row.

        sum_n sinh^2(r0 mu^(n/2)) with the sum over the modes taken first:
        sum_k c_k / (1 - mu^k), every mode and no cut but the series' own at
        r0_max, as in `photon_number_pulsed`.  A sweep solves each row's beta on it.
        """
        c, _ = self.series(beta)
        return _one_or_rows(_row_dot(c, self.photon_weights))

    def coherent_probability(self, a: np.ndarray) -> float | np.ndarray:
        """eta a^T Q a / (2 pi sigma_s^2 A^2) for the odd-order terms a of `series`, row by row."""
        return _one_or_rows(_row_dot(_rows_times(a, self.coherent_table), a))

    def incoherent_probability(self, c: np.ndarray) -> float | np.ndarray:
        """eta c^T T c / (2 pi sigma_s^2 A^2) for the even-order terms c of `series`, row by row."""
        return _one_or_rows(_row_dot(_rows_times(c, self.incoherent_table), c))

    def max_population_weighted(self, c: np.ndarray) -> float | np.ndarray:
        """max over the times of c @ population_table, row by row, for the terms c of `series`.

        The table holds the coupling and area factors; an engine built
        without a coupling has none and raises ValueError.
        """
        if self.population_table is None:
            raise ValueError(
                "the intermediate-state population needs a dipole coupling; "
                "this engine was built with coupling=None"
            )
        return _one_or_rows(_rows_times(c, self.population_table).max(axis=-1))

    def outcome(self, beta: float | np.ndarray) -> ExcitationOutcome:
        """Coherent and incoherent probabilities at |beta|; with a coupling, the peak population.

        Floats for one beta; for an array of betas, arrays of one entry per beta.
        """
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

    Builds a `PulsedExcitationEngine` for this one beta; a sweep builds one
    engine per panel and reads all the panel's betas in one `outcome` call,
    which takes an array of betas and gives each entry the bits of a read
    at that beta alone.
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
    (`sources.GainSeries`), and each Gaussian against |G_ba|^2 = 1/((w -
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
        series = GainSeries(src.beta_bar)
        b, _ = series.terms(src.beta_bar)
        return _cw_population(src, sys, coupling, a_eff, b, _cw_faddeeva(src, sys, series.even).real)
    raise TypeError(f"unsupported source type {type(src).__name__}")


# ---------------------------------------------------------------------------
# equal-photon-budget comparison sources
# ---------------------------------------------------------------------------


def matched_classical_cw(src: SqueezedCW, a_eff: float, photon_rate: float) -> ClassicalCW:
    """Classical CW reference at the squeezed photon rate, same centers.

    The comparison protocol keeps each classical beam narrowband and on the
    squeezed band center, with flux = (photons/s)/A_eff per band.  Both bands
    carry the rate `photon_rate` (from `photon_rate_cw(src)`):
    the band-II photon density is the same Gaussian gain profile shifted to
    its own center, so its integral is the same.
    """
    flux = photon_rate / a_eff
    return ClassicalCW(
        flux_i=flux, flux_ii=flux, center_i=src.center_i, center_ii=src.center_ii,
    )


def matched_classical_pulsed(src: SqueezedPulsed, beta: float) -> ClassicalPulsed:
    """Classical pulse pair at `photon_number_pulsed(src, beta)`, sigma_I = sigma_II = sigma_c."""
    n_photons = photon_number_pulsed(src, beta)
    return ClassicalPulsed(
        amp_i=GaussianAmplitude(src.center_i, src.sigma_c),
        amp_ii=GaussianAmplitude(src.center_ii, src.sigma_c),
        n_photons_i=n_photons,
        n_photons_ii=n_photons,
    )
