"""Optical source models: classical coherent states and squeezed light.

CW squeezed light is parameterized by the normalized squeezing parameter
|beta_bar| and a Gaussian phase-matching profile of width sigma_c_bar; the
hyperbolic gain functions are

    s_J(w) = sinh(|beta_bar| r_J(w)),   c_J(w) = cosh(|beta_bar| r_J(w)),

with r_J(w) = exp(-(w - wbar_J)^2 / (2 sigma_c_bar^2)) peaking at one.  The
effective pair bandwidth is Omega_c = sqrt(pi) sigma_c_bar and the
entanglement time T_c = 2 pi / Omega_c.

Pulsed squeezed light uses the double-Gaussian joint spectral amplitude

    gamma(wI, wII) = (pi sigma_p sigma_c)^(-1/2)
                     * exp(-(wI + wII - wbar_p)^2 / (4 sigma_p^2))
                     * exp(-((wI - wbarI) - (wII - wbarII))^2 / (4 sigma_c^2)),

decomposed into Schmidt super-modes by SVD of the step-weighted grid matrix
(`schmidt_decompose`) or in closed form (`schmidt_decompose_analytic`, whose
Hermite modes are not tabulated).  Each mode pair (f_In, f_IIn) is defined
only up to a common sign, and no sign is fixed here: every observable reads
the products f_In f_IIn or moduli of sums linear in one table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .constants import PI, TWO_PI
from .spectral import GaussianAmplitude, NumericalError, SpectralGrid

__all__ = [
    "ClassicalPulsed",
    "ClassicalCW",
    "SqueezedCW",
    "SqueezedPulsed",
    "SchmidtDecomposition",
    "gain_functions_cw",
    "photon_rate_cw",
    "jsa_eval",
    "schmidt_decompose",
    "schmidt_decompose_analytic",
    "geometric_mode_ratio",
    "default_jsa_grids",
    "mode_squeezing",
    "squeezing_from_roots",
    "photon_number_pulsed",
    "export_jsi_csv",
    "export_schmidt_csv",
    "GridTooCoarseError",
]

JSA_GRID_POINTS = 512  # default discretization per axis
JSA_GRID_SPAN_SIGMAS = 8.0  # half-span in units of sigma_c
MAX_ANALYTIC_MODES = 2000  # mode cap of the closed-form decomposition
# Table of the Gaussian series of the gains (`_gain_series`): sinh^2 runs out
# from beta_bar = 353 on, below the 355.4 where it overflows a double.
CW_SERIES_TERMS = 480
CW_SERIES_CUT = 2.0**-60  # terms below this share of the largest are left out
# log(m!) for every order m a series of the table can reach, taken once.
LOG_FACTORIALS = gammaln(np.arange(2.0 * CW_SERIES_TERMS + 1.0) + 1.0)


class GridTooCoarseError(NumericalError, ValueError):
    """JSA grid cannot represent the requested decomposition fidelity."""


@dataclass(frozen=True)
class ClassicalPulsed:
    """Two coherent-state pulses with square-normalized Gaussian amplitudes."""

    amp_i: GaussianAmplitude
    amp_ii: GaussianAmplitude
    n_photons_i: float
    n_photons_ii: float

    def __post_init__(self):
        if self.n_photons_i < 0.0 or self.n_photons_ii < 0.0:
            raise ValueError("photon numbers must be nonnegative")


@dataclass(frozen=True)
class ClassicalCW:
    """Two CW coherent beams given by photon fluxes (photons / m^2 / s)."""

    flux_i: float
    flux_ii: float
    center_i: float
    center_ii: float

    def __post_init__(self):
        if self.flux_i < 0.0 or self.flux_ii < 0.0:
            raise ValueError("fluxes must be nonnegative")


@dataclass(frozen=True)
class SqueezedCW:
    """CW squeezed light: normalized gain |beta_bar|, Gaussian PMF width sigma_c_bar.

    A flat pump phase cancels in every |.|^2 the rates take, so none is kept.
    """

    beta_bar: float
    sigma_c_bar: float
    center_i: float
    center_ii: float

    def __post_init__(self):
        if self.beta_bar < 0.0:
            raise ValueError("beta_bar is a magnitude and must be nonnegative")
        if not self.sigma_c_bar > 0.0:
            raise ValueError("sigma_c_bar must be positive")

    @property
    def pump_center(self) -> float:
        return self.center_i + self.center_ii

    @property
    def omega_c(self) -> float:
        """Effective pair bandwidth Omega_c (Omega_c^2 = pi sigma_c_bar^2)."""
        return np.sqrt(PI) * self.sigma_c_bar

    @property
    def t_c(self) -> float:
        """Entanglement (pair coherence) time."""
        return TWO_PI / self.omega_c


@dataclass(frozen=True)
class SqueezedPulsed:
    """Pulsed squeezed light with the double-Gaussian JSA (anti-correlated regime).

    The pump strength |beta| is not part of the source: the Schmidt modes do
    not depend on it, and every quantity that does takes it as an argument.
    """

    sigma_p: float
    sigma_c: float
    center_i: float
    center_ii: float

    def __post_init__(self):
        if not self.sigma_p > 0.0:
            raise ValueError("sigma_p must be positive")
        if self.sigma_c < self.sigma_p:
            raise ValueError("anti-correlated regime requires sigma_c >= sigma_p")

    @property
    def pump_center(self) -> float:
        return self.center_i + self.center_ii


def _band_params(src: SqueezedCW, band: str):
    if band == "I":
        return src.center_i
    if band == "II":
        return src.center_ii
    raise ValueError(f"band must be 'I' or 'II', got {band!r}")


def gain_functions_cw(omega, src: SqueezedCW, band: str = "I"):
    """(s, c) at omega for one frequency band.

    c^2 - s^2 = 1 pointwise; s peaks at the band center where r_J = 1.
    """
    center = _band_params(src, band)
    omega_arr = np.asarray(omega, dtype=float)
    r = np.exp(-((omega_arr - center) ** 2) / (2.0 * src.sigma_c_bar**2))
    arg = src.beta_bar * r
    return np.sinh(arg), np.cosh(arg)


def _series_logs(x: float, orders: np.ndarray) -> np.ndarray:
    """log((2x)^m / (2 m!)) for each order m.

    sinh^2(x r) sums these times r^m over the even m >= 2, and sinh(x r)
    cosh(x r) over the odd m >= 1.
    """
    return orders * np.log(2.0 * x) - np.log(2.0) - LOG_FACTORIALS[orders.astype(int)]


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

    b_k = (2 beta_bar)^(2k) / (2 (2k)!).  With r = exp(-x^2/2) each term is
    a Gaussian b_k e^(-k x^2).  It runs out from beta_bar = 353 on.
    """
    orders, b_k = _gain_series(beta_bar)
    return orders / 2.0, b_k


def photon_rate_cw(src: SqueezedCW, engine=None) -> float:
    """Photon rate N/T = Int dw/2pi sinh^2(|beta_bar| r_J(w)), the same for either band.

    Each Gaussian term of `_sinh2_series` integrates in closed form:
    N/T = sum_k b_k sigma_c_bar sqrt(pi/k) / 2 pi.  With `engine`, an
    `excitation.CwExcitationEngine` of src's column, the sum is one dot
    product of the engine's terms b_k at src.beta_bar with its
    `rate_weights`.  An engine of another column raises ValueError; a
    beta_bar past the engine's, NumericalError.
    """
    if engine is not None:
        if engine.column[:3] != (src.sigma_c_bar, src.center_i, src.center_ii):
            raise ValueError("the engine was built for another column")
        b_k, _ = engine.series(src.beta_bar)
        return float(b_k @ engine.rate_weights)
    if src.beta_bar == 0.0:
        return 0.0
    k, b_k = _sinh2_series(src.beta_bar)
    return float(b_k @ np.sqrt(np.pi / k)) * src.sigma_c_bar / TWO_PI


def jsa_eval(omega_i, omega_ii, src: SqueezedPulsed):
    """Double-Gaussian JSA amplitude (the global pump phase cancels in every observable)."""
    x = np.asarray(omega_i, dtype=float) - src.center_i
    y = np.asarray(omega_ii, dtype=float) - src.center_ii
    norm = 1.0 / np.sqrt(PI * src.sigma_p * src.sigma_c)
    return norm * np.exp(-((x + y) ** 2) / (4.0 * src.sigma_p**2)) * np.exp(
        -((x - y) ** 2) / (4.0 * src.sigma_c**2)
    )


def default_jsa_grids(
    src: SqueezedPulsed, n_points: int = JSA_GRID_POINTS
) -> tuple[SpectralGrid, SpectralGrid]:
    n = n_points if n_points % 2 == 1 else n_points + 1
    half = JSA_GRID_SPAN_SIGMAS * src.sigma_c
    return (
        SpectralGrid(src.center_i, half, n),
        SpectralGrid(src.center_ii, half, n),
    )


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt spectrum of a JSA, with the mode tables where a grid holds them.

    Mode tables are continuum-normalized: sum f^2 * step = 1.  p sums to one
    over the full (untruncated) spectrum; `tail` is the truncated remainder.
    The modes do not depend on the pump strength; `mode_squeezing(p, beta)`
    gives the squeezing parameter of each mode at any |beta|.

    The SVD route sets the tables and their grids.  The analytic route sets
    them to None: its modes are Hermite functions in closed form, and no
    command reads a table of them (pulsed rows read the Gaussian-series
    tables, the `schmidt` subcommand the spectrum).
    """

    p: np.ndarray
    f_i: np.ndarray | None
    f_ii: np.ndarray | None
    grid_i: SpectralGrid | None
    grid_ii: SpectralGrid | None
    tail: float

    @property
    def n_modes(self) -> int:
        return len(self.p)


def schmidt_decompose(
    src: SqueezedPulsed,
    grid_i: SpectralGrid | None = None,
    grid_ii: SpectralGrid | None = None,
    trunc_tol: float = 1e-10,
) -> SchmidtDecomposition:
    """SVD of the step-weighted JSA matrix -> orthonormal super-modes.

    Keeps modes until the cumulative Schmidt weight reaches 1 - trunc_tol
    (weights renormalized to the full discrete spectrum); raises
    GridTooCoarseError when the grid cannot support that fidelity.
    """
    if not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must be in (0, 1)")
    if grid_i is None or grid_ii is None:
        default_i, default_ii = default_jsa_grids(src)
        grid_i = grid_i or default_i
        grid_ii = grid_ii or default_ii
    for grid, center in ((grid_i, src.center_i), (grid_ii, src.center_ii)):
        if abs(grid.center - center) > 0.1 * src.sigma_c or grid.half_span < 6.0 * src.sigma_c:
            raise ValueError("JSA grids must cover at least +/-6 sigma_c about each band center")

    w_i = grid_i.points
    w_ii = grid_ii.points
    matrix = jsa_eval(w_i[:, None], w_ii[None, :], src) * np.sqrt(grid_i.step * grid_ii.step)
    norm = float(np.sum(matrix * matrix))
    if abs(norm - 1.0) > 1e-3:
        raise GridTooCoarseError(
            f"discrete JSA square-norm {norm:.6f} deviates from 1; widen or refine the grids"
        )

    u_mat, sv, vh_mat = np.linalg.svd(matrix, full_matrices=False)
    p_all = sv * sv
    p_all = p_all / np.sum(p_all)
    cumulative = np.cumsum(p_all)
    n_keep = int(np.searchsorted(cumulative, 1.0 - trunc_tol)) + 1
    n_keep = min(n_keep, len(p_all))
    if n_keep > 0.75 * len(p_all):
        raise GridTooCoarseError(
            f"{n_keep} of {len(p_all)} grid modes needed for tail {trunc_tol:g}; "
            "the grid cannot faithfully hold that many modes"
        )
    tail = float(1.0 - cumulative[n_keep - 1])

    f_i = (u_mat[:, :n_keep].T / np.sqrt(grid_i.step)).copy()
    f_ii = (vh_mat[:n_keep, :] / np.sqrt(grid_ii.step)).copy()

    return SchmidtDecomposition(
        p=p_all[:n_keep].copy(),
        f_i=f_i,
        f_ii=f_ii,
        grid_i=grid_i,
        grid_ii=grid_ii,
        tail=tail,
    )


def geometric_mode_ratio(src: SqueezedPulsed) -> float:
    """mu = ((sigma_c - sigma_p)/(sigma_c + sigma_p))^2: p_n = (1 - mu) mu^n."""
    return ((src.sigma_c - src.sigma_p) / (src.sigma_c + src.sigma_p)) ** 2


def schmidt_decompose_analytic(
    src: SqueezedPulsed, trunc_tol: float = 1e-10
) -> SchmidtDecomposition:
    """Closed-form Schmidt spectrum of the double-Gaussian JSA.

    Mehler's expansion gives geometric weights p_n = (1-mu) mu^n with
    mu = ((sigma_c - sigma_p)/(sigma_c + sigma_p))^2, kept until the tail
    mu^n falls below trunc_tol (at most MAX_ANALYTIC_MODES).  The modes are
    Hermite functions of width sigma_s = sqrt(sigma_p sigma_c),

        f_In(w) = psi_n((w - c_I)/sigma_s) / sqrt(sigma_s),
        f_IIn(w) = (-1)^n psi_n((w - c_II)/sigma_s) / sqrt(sigma_s),

    with psi_n the orthonormal Hermite functions; they agree with the SVD
    route's up to the sign of each mode pair, at mode counts no affordable
    SVD grid can hold.  They are not tabulated: `f_i`, `f_ii`, `grid_i` and
    `grid_ii` are None.
    """
    if not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must be in (0, 1)")
    mu = geometric_mode_ratio(src)
    if mu == 0.0:
        n_keep = 1
    else:
        n_keep = min(int(np.ceil(np.log(trunc_tol) / np.log(mu))), MAX_ANALYTIC_MODES)
    tail = 0.0 if mu == 0.0 else float(mu**n_keep)
    p = (1.0 - mu) * mu ** np.arange(n_keep) if mu > 0.0 else np.ones(1)
    return SchmidtDecomposition(p=p, f_i=None, f_ii=None, grid_i=None, grid_ii=None, tail=tail)


def mode_squeezing(p: np.ndarray, beta: float) -> np.ndarray:
    """r_n = |beta| sqrt(p_n), the squeezing parameter of each Schmidt mode.

    Its gains are s_n = sinh(r_n) and c_n = cosh(r_n).
    """
    return squeezing_from_roots(np.sqrt(p), beta)


def squeezing_from_roots(sqrt_p: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    """`mode_squeezing` from the roots sqrt(p_n), for a caller that reads many betas.

    The same product beta * sqrt(p_n), so the same bits.  `beta` may be an
    array of betas against one root; a negative or NaN entry raises the
    ValueError of a scalar beta, naming the first such entry.
    """
    bad = np.asarray(beta)[~(np.asarray(beta) >= 0.0)]
    if bad.size:
        raise ValueError(f"beta is a magnitude and must be nonnegative, got {float(bad[0])!r}")
    return beta * sqrt_p


def _photon_weights(mu: float, k: np.ndarray) -> np.ndarray:
    """sum_n mu^(nk) = 1/(1 - mu^k) at each order k, the mode sum of the pulsed photon number."""
    return 1.0 / -np.expm1(k * np.log(mu)) if mu > 0.0 else np.ones(len(k))


def photon_number_pulsed(src: SqueezedPulsed, beta: float) -> float:
    """Photons per pulse per band at |beta|, sum_n sinh^2(r0 mu^(n/2)) over every Schmidt mode.

    r0 = |beta| sqrt(1 - mu); with the mode sum taken first, N = sum_k b_k /
    (1 - mu^k), b_k the terms of `_sinh2_series(r0)`.  No mode is cut.
    """
    mu = geometric_mode_ratio(src)
    r0 = float(squeezing_from_roots(np.sqrt(1.0 - mu), beta))
    if r0 == 0.0:
        return 0.0
    k, b_k = _sinh2_series(r0)
    return float(b_k @ _photon_weights(mu, k))


def export_jsi_csv(src: SqueezedPulsed, grid_i: SpectralGrid, grid_ii: SpectralGrid, path):
    """Write the joint spectral intensity on a grid: omega_I, omega_II, jsi."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega_I", "omega_II", "jsi"])
        for w_i in grid_i.points:
            amps = jsa_eval(w_i, grid_ii.points, src)
            for w_ii, amp in zip(grid_ii.points, amps):
                writer.writerow([repr(float(w_i)), repr(float(w_ii)), repr(float(amp * amp))])


def export_schmidt_csv(dec: SchmidtDecomposition, path):
    """Write the Schmidt spectrum: n, p_n."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "p_n"])
        for n, p_n in enumerate(dec.p):
            writer.writerow([n, repr(float(p_n))])
