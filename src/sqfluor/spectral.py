"""Frequency-domain primitives: grids, lineshapes, spectral amplitudes, quadrature.

Conventions
-----------
All frequencies are angular (rad/s).  Lineshape and amplitude functions accept
scalars or numpy arrays and are pure.  Quadrature is composite Simpson on a
uniform grid; convergence is certified separately by `quad_converged`, which
doubles the resolution until successive estimates agree.

Grids are built from exact uniform offsets about the grid center so that
detuning spacing is not polluted by the ~1e15 rad/s optical carrier.
"""

from __future__ import annotations

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
    "quad_1d",
    "quad_converged",
    "simpson_weights",
    "NumericalError",
    "NonFiniteIntegrandError",
    "ConvergenceError",
    "DegenerateParametersError",
]


class NumericalError(Exception):
    """A computation could not produce a trustworthy number for its inputs.

    Sweeps turn a row that raises one of these into a failed row and go on;
    any other exception is a programming error and propagates.
    """


class NonFiniteIntegrandError(NumericalError, ValueError):
    """Integrand returned NaN/inf; carries the first offending grid index."""

    def __init__(self, index: int, omega: float):
        self.index = index
        self.omega = omega
        super().__init__(f"non-finite integrand at grid index {index} (omega={omega!r})")


class ConvergenceError(NumericalError, RuntimeError):
    """Grid-doubling quadrature failed to reach tolerance; carries both estimates."""

    def __init__(self, last: complex, previous: complex, rel_err: float):
        self.last = last
        self.previous = previous
        self.rel_err = rel_err
        super().__init__(
            f"quadrature did not converge: last={last:.17g}, previous={previous:.17g}, "
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

    def doubled(self) -> "SpectralGrid":
        """Same span with the step halved (point count 2n-1, still odd)."""
        return SpectralGrid(self.center, self.half_span, 2 * self.n_points - 1)


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


def simpson_weights(n_points: int, step: float = 1.0) -> np.ndarray:
    """Composite Simpson weights for an odd point count and sample spacing `step`."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"Simpson weights need an odd n >= 3, got {n_points}")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _evaluate(f: Callable, grid: SpectralGrid) -> np.ndarray:
    values = np.asarray(f(grid.points))
    if values.shape != grid.points.shape:
        values = np.broadcast_to(values, grid.points.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NonFiniteIntegrandError(idx, float(grid.points[idx]))
    return values


def quad_1d(f: Callable, grid: SpectralGrid):
    """Composite Simpson estimate of the integral of f over the grid span."""
    values = _evaluate(f, grid)
    return grid.step * np.sum(simpson_weights(grid.n_points) * values)


def quad_converged(
    f: Callable,
    grid: SpectralGrid,
    rel_tol: float = 1e-6,
    max_doublings: int = 6,
):
    """quad_1d with grid doubling until two estimates agree to rel_tol.

    Returns (value, achieved_rel_err).  The relative delta is measured against
    the larger of the two estimates; an exactly-zero pair converges
    immediately.  A ConvergenceError carrying both last estimates is raised
    when the cap is hit, so a poor result is never silent.
    """
    current = grid
    previous = quad_1d(f, current)
    estimate = previous
    rel_err = np.inf
    for level in range(max_doublings):
        current = current.doubled()
        estimate = quad_1d(f, current)
        scale = max(abs(estimate), abs(previous))
        if scale == 0.0:
            return estimate, 0.0
        rel_err = abs(estimate - previous) / scale
        if rel_err <= rel_tol:
            return estimate, rel_err
        if level < max_doublings - 1:
            previous = estimate
    raise ConvergenceError(estimate, previous, rel_err)
