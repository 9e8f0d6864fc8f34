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
import math
from dataclasses import dataclass

import numpy as np

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
    "GainSeries",
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
# Table of the Gaussian series of the gains (`GainSeries`): sinh^2 runs out
# from beta_bar = 353 on, below the 355.4 where it overflows a double.
CW_SERIES_TERMS = 480
CW_SERIES_CUT = 2.0**-60  # terms below this share of the largest are left out


def _log_factorials(n: int) -> np.ndarray:
    """log(m!) for m = 0..n: the running sum of math.log(k) carried as a pair of floats (TwoSum).

    Within 0.65 ulp of 30-digit values for every m <= 960, and correctly
    rounded at all but 7.  math.lgamma is more than an ulp off at 64 of
    them (3 ulp at m = 2, log 2) and scipy's gammaln at 91.
    """
    out, high, low = [0.0, 0.0], 0.0, 0.0
    for k in range(2, n + 1):
        term = math.log(k)
        total = high + term
        part = total - high
        low += (high - (total - part)) + (term - part)
        high = total
        out.append(high + low)
    return np.array(out[: n + 1])


# log(m!) for every order m a series of the table can reach, taken once.
LOG_FACTORIALS = _log_factorials(2 * CW_SERIES_TERMS)


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


def _last_kept_order(x: float, odd: bool) -> float:
    """The last order m of the Gaussian series at x whose term reaches CW_SERIES_CUT of the largest.

    The terms are compared in log space, since at x = 30 the largest is
    near e^60; log b_m is concave in m, so every later term is below the
    cut.  Raises NumericalError rather than truncate when that order would
    lie past the table of CW_SERIES_TERMS terms, so no series sums past the
    largest double.  At x = 0 every term is zero and the first order is kept.
    """
    first = 1.0 if odd else 2.0
    if x == 0.0:
        return first
    orders = np.arange(first, 2.0 * CW_SERIES_TERMS + 1.0, 2.0)
    log_b = orders * np.log(2.0 * x) - np.log(2.0) - LOG_FACTORIALS[orders.astype(int)]
    kept = np.flatnonzero(log_b >= log_b.max() + np.log(CW_SERIES_CUT))
    if kept[-1] == CW_SERIES_TERMS - 1:
        raise NumericalError(
            f"the Gaussian series at {x!r} needs more than {CW_SERIES_TERMS} terms"
        )
    return orders[kept[-1]]


class GainSeries:
    """The Gaussian series of the gains, every order up to the last the cut keeps at x_max.

    sinh^2(x r) = sum_k c_k r^(2k) over the `even` orders m = 2k and
    sinh(x r) cosh(x r) = sum_k a_k r^(2k+1) over the `odd` orders m = 2k +
    1, each term (2x)^m / (2 m!); with r a Gaussian, each term is one too.
    The orders run from the first (2 and 1) to the last `_last_kept_order`
    keeps at x_max, and `orders` holds all of them, 1..M.  From x_max =
    353 on the series cannot be formed, and building it raises NumericalError.
    """

    def __init__(self, x_max: float):
        self.x_max = x_max
        self.even = np.arange(2.0, _last_kept_order(x_max, odd=False) + 1.0, 2.0)
        self.odd = np.arange(1.0, _last_kept_order(x_max, odd=True) + 1.0, 2.0)
        self.orders = np.arange(1.0, max(self.even[-1], self.odd[-1]) + 1.0)
        self._logs = np.log(2.0) + LOG_FACTORIALS[1 : len(self.orders) + 1]

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(even, odd): the entries of values, over `orders` on its last axis, at each parity."""
        return values[..., 1 : 2 * len(self.even) : 2], values[..., 0 : 2 * len(self.odd) : 2]

    def terms(self, x: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, a): the terms c_k (even orders) and a_k (odd) at x, one exp(m log 2x - log 2 m!).

        log 2x is math.log's per x, whose bits every read keeps (np.log can
        differ in the last bit); at x = 0 every term is exp(-inf) = 0.  For
        an array of x, c and a take its shape as leading axes, and each row
        has the bits of a read at its x alone.  A read past x_max drops the
        terms past the last order kept there: its caller checks the range.
        """
        if isinstance(x, float):
            log_2x = math.log(2.0 * x) if x > 0.0 else -math.inf
            return self.split(np.exp(self.orders * log_2x - self._logs))
        x = np.asarray(x, dtype=float)
        log_2x = [math.log(2.0 * v) if v > 0.0 else -math.inf for v in x.reshape(-1).tolist()]
        terms = np.exp(np.multiply.outer(log_2x, self.orders) - self._logs)
        return self.split(terms.reshape(x.shape + self.orders.shape))


def _rate_weights(series: GainSeries, sigma_c_bar: float) -> np.ndarray:
    """sqrt(pi/k) sigma_c_bar / 2 pi at each even order 2k: the CW photon rate is c . these."""
    return np.sqrt(np.pi / (series.even / 2.0)) * sigma_c_bar / TWO_PI


def photon_rate_cw(src: SqueezedCW, engine=None) -> float:
    """Photon rate N/T = Int dw/2pi sinh^2(|beta_bar| r_J(w)), the same for either band.

    Each Gaussian term c_k of the `GainSeries` at src.beta_bar integrates in
    closed form: N/T = sum_k c_k sigma_c_bar sqrt(pi/k) / 2 pi.  With
    `engine`, an `excitation.CwExcitationEngine` of src's column, the terms
    and weights are the engine's (the same bits at its own beta_bar).  An
    engine of another column raises ValueError; a beta_bar past the engine's, NumericalError.
    """
    if engine is not None:
        if engine.column[:3] != (src.sigma_c_bar, src.center_i, src.center_ii):
            raise ValueError("the engine was built for another column")
        c, _ = engine.series(src.beta_bar)
        return float(c @ engine.rate_weights)
    series = GainSeries(src.beta_bar)
    c, _ = series.terms(src.beta_bar)
    return float(c @ _rate_weights(series, src.sigma_c_bar))


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

    r0 = |beta| sqrt(1 - mu); with the mode sum taken first, N = sum_k c_k /
    (1 - mu^k), c_k the even-order terms of the `GainSeries` at r0.  No
    mode is cut.
    """
    mu = geometric_mode_ratio(src)
    r0 = float(squeezing_from_roots(np.sqrt(1.0 - mu), beta))
    series = GainSeries(r0)
    c, _ = series.terms(r0)
    # einsum's fixed-order sum, as `PulsedExcitationEngine.photon_number` takes it.
    return float(np.einsum("j,j->", c, _photon_weights(mu, series.even / 2.0)))


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
