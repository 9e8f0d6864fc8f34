"""Frequency-domain primitives: grids, lineshapes, spectral amplitudes, root finding.

Conventions
-----------
All frequencies are angular (rad/s).  Lineshape and amplitude functions accept
scalars or numpy arrays and are pure.  The package's integrals are taken on
Gauss-Kronrod tables in `excitation`, not here.

Grids are built from exact uniform offsets about the grid center so that
detuning spacing is not polluted by the ~1e15 rad/s optical carrier.

`brentq` is the one root finder the package needs (Brent's method, Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4); it solves
one bracket or an array of brackets in lock step.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpectralGrid",
    "LorentzianLineshape",
    "GreenFunctionParams",
    "GaussianAmplitude",
    "lorentzian",
    "green",
    "gaussian_amp",
    "brentq",
    "NumericalError",
    "ConvergenceError",
    "DegenerateParametersError",
]


class NumericalError(Exception):
    """A computation could not produce a trustworthy number for its inputs.

    Sweeps turn a row that raises one of these into a failed row and go on;
    any other exception is a programming error and propagates.
    """


class ConvergenceError(NumericalError, RuntimeError):
    """An iteration failed to reach tolerance; carries its last two estimates.

    `what` names the iteration in the message: a table's Gauss-Kronrod
    doubling (`excitation._doubled`) or Brent's method.
    """

    def __init__(self, last: complex, previous: complex, rel_err: float, what: str = "quadrature"):
        self.last = last
        self.previous = previous
        self.rel_err = rel_err
        super().__init__(
            f"{what} did not converge: last={last:.17g}, previous={previous:.17g}, "
            f"rel_err={rel_err:.3e}"
        )


class DegenerateParametersError(NumericalError, ValueError):
    """Green function evaluated on resonance with zero total width."""


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid of angular frequencies: center +/- half_span, n_points odd."""

    center: float
    half_span: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")
        if not self.half_span > 0.0:
            raise ValueError(f"half_span must be positive, got {self.half_span}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_span / (self.n_points - 1)

    @property
    def offsets(self) -> np.ndarray:
        """Detunings from the grid center (exactly uniform)."""
        return np.linspace(-self.half_span, self.half_span, self.n_points)

    @property
    def points(self) -> np.ndarray:
        return self.center + self.offsets


@dataclass(frozen=True)
class LorentzianLineshape:
    """Unit-area Lorentzian: center ~ two-photon resonance, fwhm ~ final-state width."""

    center: float
    fwhm: float

    def __post_init__(self):
        if not self.fwhm > 0.0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")


@dataclass(frozen=True)
class GreenFunctionParams:
    """Single-transition spectral response 1/(w_pq - w - i(G_p + G_q)/2)."""

    transition_frequency: float
    gamma_upper: float
    gamma_lower: float = 0.0

    def __post_init__(self):
        if self.gamma_upper < 0.0 or self.gamma_lower < 0.0:
            raise ValueError("decay rates must be nonnegative")

    @property
    def gamma_total(self) -> float:
        return self.gamma_upper + self.gamma_lower


@dataclass(frozen=True)
class GaussianAmplitude:
    """Square-normalized Gaussian spectral amplitude with 1/e half-width `width`."""

    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")


def lorentzian(omega, shape: LorentzianLineshape):
    """(1/2pi) * fwhm / ((center - omega)^2 + fwhm^2/4); integrates to 1."""
    delta = shape.center - np.asarray(omega, dtype=float)
    return (shape.fwhm / (2.0 * np.pi)) / (delta * delta + 0.25 * shape.fwhm**2)


def green(omega, g: GreenFunctionParams):
    """Complex response 1/(w_pq - w - i*Gamma_tot/2).

    Raises DegenerateParametersError for an on-resonance evaluation with zero
    total width (the only case where the denominator can vanish).
    """
    omega_arr = np.asarray(omega, dtype=float)
    if g.gamma_total == 0.0 and np.any(omega_arr == g.transition_frequency):
        raise DegenerateParametersError(
            "green() on resonance with gamma_upper + gamma_lower == 0"
        )
    denom = (g.transition_frequency - omega_arr) - 0.5j * g.gamma_total
    return 1.0 / denom


def gaussian_amp(omega, a: GaussianAmplitude):
    """(1/(pi sigma^2))^(1/4) exp(-(w - center)^2 / (2 sigma^2)); square-norm 1."""
    delta = np.asarray(omega, dtype=float) - a.center
    return (np.pi * a.width**2) ** (-0.25) * np.exp(-(delta * delta) / (2.0 * a.width**2))


_BRENT_RTOL_MIN = 4.0 * sys.float_info.epsilon


def brentq(
    f: Callable,
    a: float | np.ndarray,
    b: float | np.ndarray,
    xtol: float | np.ndarray = 2e-12,
    rtol: float = _BRENT_RTOL_MIN,
    maxiter: int = 100,
) -> float | np.ndarray:
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    A statement-by-statement port of the netlib `zeroin` loop as SciPy's C
    `brentq` runs it, so root and evaluation count equal
    `scipy.optimize.brentq` bit for bit: two evaluations at the ends, then
    one per iteration.  Each iteration keeps the root bracketed by
    [x, x_blk] with |f(x)| <= |f(x_blk)|, returns x once f(x) == 0 or half
    the bracket is below delta = (xtol + rtol |x|)/2, and otherwise steps by
    inverse interpolation (secant or inverse quadratic) when that step is
    short enough, by bisection when it is not, and by at least delta.
    Raises ValueError for ends of the same sign or a NaN value of f, and
    `ConvergenceError` when maxiter iterations do not reach the tolerance.

    `a`, `b` and `xtol` may also be arrays, broadcast together; each element
    is then its own bracket, and all are solved in lock step.  f takes the
    array of current iterates and returns their values, so it is called
    twice at the ends and then once per iteration, 2 + the largest iteration
    count in all; an element that has finished stays at its root in that
    array.  Every element takes exactly the steps of its scalar solve.  One
    that runs out of iterations is NaN in the result, so the others keep
    their roots; the ValueErrors concern the whole call.
    """
    if np.any(np.asarray(xtol) <= 0.0):
        raise ValueError(f"xtol too small ({float(np.min(xtol)):g} <= 0)")
    if rtol < _BRENT_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL_MIN:g})")
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(xtol))
    xpre, xcur, tol = (
        np.broadcast_to(np.asarray(v, dtype=float), shape).flatten() for v in (a, b, xtol)
    )
    size = xcur.size

    def value(x, live):
        # f on the current iterates x of every element, read at the live ones;
        # a scalar bracket hands f a float.
        fx = f(float(x[0])) if shape == () else f(x.reshape(shape))
        fx = np.asarray(fx, dtype=float).reshape(size)[live]
        nan = np.isnan(fx)
        if nan.any():
            raise ValueError(f"the function value at x={float(x[live][nan][0])!r} is NaN")
        return fx

    live = np.arange(size)
    fpre = value(xpre, live)
    fcur = value(xcur, live)
    found = (fpre == 0.0) | (fcur == 0.0)
    root = np.where(found, np.where(fpre == 0.0, xpre, xcur), np.nan)
    live = np.flatnonzero(~found)
    xpre, xcur, fpre, fcur, tol = (v[live] for v in (xpre, xcur, fpre, fcur, tol))
    if np.any(np.signbit(fpre) == np.signbit(fcur)):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(maxiter):
        # Each line is a statement of the netlib loop, taken where its mask holds.
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )

        delta = (tol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            # Finished elements keep their root and leave the state arrays.
            root[live[done]] = xcur[done]
            state = (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, tol, delta, sbis)
            live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, tol, delta, sbis = (
                v[~done] for v in state
            )
        if live.size == 0:
            break

        with np.errstate(all="ignore"):
            # Division by zero gives inf or NaN, as in C, which fails the
            # step test below and so bisects.
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        # good short step where this holds, bisect elsewhere
        short = (
            (np.abs(spre) > delta)
            & (np.abs(fcur) < np.abs(fpre))
            & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        x = root.copy()
        x[live] = xcur
        fcur = value(x, live)
    if shape != ():
        return root.reshape(shape)
    if live.size:
        xcur, xpre = float(xcur[0]), float(xpre[0])
        rel_err = abs(xcur - xpre) / max(abs(xcur), abs(xpre))
        raise ConvergenceError(xcur, xpre, rel_err, what="Brent's method")
    return float(root[0])
