"""Quadrature of (narrow kernel) x (smooth envelope) products.

The rate formulas repeatedly integrate a narrow atomic response (a complex
Green function, a unit-area Lorentzian, or |G|^2) against source envelopes
that can be orders of magnitude wider.  A uniform Simpson grid that resolves
the kernel core over the whole envelope support is hopeless in the broadband
regimes, so when the scales separate we subtract a local model of the
envelope under a Gaussian window centered on the kernel:

    integral = s0*M0 + s1*M1 + Simpson( kernel * (smooth - local model) )

where s0, s1 are the envelope value/derivative at the kernel center and
M0, M1 are analytic kernel-times-Gaussian moments (Faddeeva function).  The
residual vanishes at the kernel center and is integrable on the coarse
envelope grid; the leftover error is O((kernel width / envelope scale)^2).
When the scales do not separate, plain Simpson with convergence doubling is
used.  Both paths report an achieved error estimate.

No rate calls `quad_kernel_smooth` any more: the CW squeezed rates, the CW
intermediate population and the pulsed rows are all Gaussian series
(`excitation`).  It stays for its tests and because the benchmark's layer
tracer (sweepbench/trace_layers.py) wraps `excitation.quad_kernel_smooth`
by name.  `NumericsOptions` sets its tolerance, and
`config.RunConfig.numerics_options()` still returns its defaults for
sweepbench's worker; no command reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import erfcx
from .spectral import (
    GreenFunctionParams,
    LorentzianLineshape,
    SpectralGrid,
    green,
    lorentzian,
    quad_converged,
    simpson_doublings,
)

__all__ = [
    "NumericsOptions",
    "PeakedKernel",
    "green_kernel",
    "lorentzian_kernel",
    "abs2_green_kernel",
    "quad_kernel_smooth",
]

SPAN_SIGMAS = 9.0  # envelope support half-width, in units of its width
KERNEL_TAIL = 30.0  # kernel tail coverage when the kernel is the wide feature
POINTS_PER_FEATURE = 12  # base Simpson resolution per smallest feature
EXTRACTION_RATIO = 4.0  # extract the core when kernel is this much narrower
MIN_POINTS = 101  # smallest base Simpson grid
MAX_POINTS = 4_000_001  # largest base Simpson grid before giving up


@dataclass(frozen=True)
class NumericsOptions:
    """Shared quadrature knobs; defaults follow the sweep-runner presets."""

    rel_tol: float = 1e-6
    max_doublings: int = 6


DEFAULT_NUMERICS = NumericsOptions()


@dataclass(frozen=True)
class PeakedKernel:
    """Narrow analytic factor of an integrand: kind in {green, lorentzian, abs2_green}.

    `gamma` is the full width of the core (total linewidth for green/abs2_green,
    FWHM for the Lorentzian).
    """

    kind: str
    center: float
    gamma: float

    def __post_init__(self):
        if self.kind not in ("green", "lorentzian", "abs2_green"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.gamma > 0.0:
            raise ValueError("kernel gamma must be positive")

    def __call__(self, omega):
        if self.kind == "green":
            return green(omega, GreenFunctionParams(self.center, self.gamma))
        if self.kind == "lorentzian":
            return lorentzian(omega, LorentzianLineshape(self.center, self.gamma))
        delta = np.asarray(omega, dtype=float) - self.center
        return 1.0 / (delta * delta + 0.25 * self.gamma**2)

    def gaussian_moments(self, window: float):
        """(M0, M1) of kernel(w)*{1, (w-center)}*exp(-(w-center)^2/(2 window^2)) dw."""
        # w(ia) = exp(a^2) erfc(a); the Voigt profile at its centre,
        # sqrt(2 pi) window V(0; window, gamma/2), is the same value.
        a = self.gamma / (2.0 * np.sqrt(2.0) * window)
        wa = float(erfcx(a))
        if self.kind == "green":
            m0 = 1j * np.pi * wa
            m1 = -np.sqrt(2.0) * window * (np.sqrt(np.pi) - np.pi * a * wa)
            return m0, m1
        if self.kind == "lorentzian":
            return wa, 0.0
        return (2.0 * np.pi / self.gamma) * wa, 0.0


def green_kernel(transition_frequency: float, gamma_total: float) -> PeakedKernel:
    return PeakedKernel("green", transition_frequency, gamma_total)


def lorentzian_kernel(center: float, fwhm: float) -> PeakedKernel:
    return PeakedKernel("lorentzian", center, fwhm)


def abs2_green_kernel(transition_frequency: float, gamma_total: float) -> PeakedKernel:
    return PeakedKernel("abs2_green", transition_frequency, gamma_total)


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _base_grid(lo: float, hi: float, resolution: float) -> SpectralGrid:
    n = int(np.ceil((hi - lo) / resolution)) + 1
    n = _odd(max(n, MIN_POINTS))
    if n > MAX_POINTS:
        raise ValueError(
            f"quadrature grid of {n} points exceeds the {MAX_POINTS} cap; "
            "scales too disparate for a plain uniform grid"
        )
    return SpectralGrid(0.5 * (lo + hi), 0.5 * (hi - lo), n)


def quad_kernel_smooth(
    kernel: PeakedKernel,
    smooth: Callable,
    smooth_center: float,
    smooth_width: float,
    smooth_scale: float | None = None,
    opts: NumericsOptions = DEFAULT_NUMERICS,
):
    """Integral of kernel(w)*smooth(w) dw over the real line.

    smooth_width sets the envelope support (integration span ~ +/-9 widths);
    smooth_scale the smallest feature of `smooth` (defaults to smooth_width).
    `smooth` must accept numpy arrays, act elementwise (each grid doubling
    evaluates it at the new points only) and decay at the span edges.
    """
    w_span = float(smooth_width)
    w_scale = float(smooth_scale) if smooth_scale is not None else w_span
    if not (w_span > 0.0 and w_scale > 0.0):
        raise ValueError("smooth_width and smooth_scale must be positive")
    w_scale = min(w_scale, w_span)

    lo = smooth_center - SPAN_SIGMAS * w_span
    hi = smooth_center + SPAN_SIGMAS * w_span
    kernel_inside = (kernel.center > lo - 2.0 * w_span) and (kernel.center < hi + 2.0 * w_span)

    if kernel.gamma >= w_scale / EXTRACTION_RATIO or not kernel_inside:
        # Scales comparable (or the core never overlaps the envelope): resolve
        # everything that actually lies inside the span.
        resolution = w_scale / POINTS_PER_FEATURE
        if kernel_inside:
            lo = min(lo, kernel.center - min(KERNEL_TAIL * kernel.gamma, SPAN_SIGMAS * w_span))
            hi = max(hi, kernel.center + min(KERNEL_TAIL * kernel.gamma, SPAN_SIGMAS * w_span))
            resolution = min(resolution, kernel.gamma / POINTS_PER_FEATURE)
        grid = _base_grid(lo, hi, resolution)
        value, _ = quad_converged(
            lambda w: kernel(w) * smooth(w), grid, opts.rel_tol, opts.max_doublings
        )
        return value

    # Core extraction: local linear model under a Gaussian window.
    window = 0.5 * w_scale
    h = window * 1e-3
    s_mid = complex(np.asarray(smooth(np.array([kernel.center]))).ravel()[0])
    s_hi = complex(np.asarray(smooth(np.array([kernel.center + h]))).ravel()[0])
    s_lo = complex(np.asarray(smooth(np.array([kernel.center - h]))).ravel()[0])
    s0 = s_mid
    s1 = (s_hi - s_lo) / (2.0 * h)
    m0, m1 = kernel.gaussian_moments(window)
    analytic = s0 * m0 + s1 * m1

    def residual(w):
        delta = np.asarray(w, dtype=float) - kernel.center
        local = (s0 + s1 * delta) * np.exp(-(delta * delta) / (2.0 * window**2))
        return kernel(w) * (smooth(w) - local)

    lo = min(lo, kernel.center - SPAN_SIGMAS * window)
    hi = max(hi, kernel.center + SPAN_SIGMAS * window)
    estimates = simpson_doublings(residual, _base_grid(lo, hi, w_scale / POINTS_PER_FEATURE))
    rest = next(estimates)
    # Converge the residual against the magnitude of the full answer: near the
    # kernel core the residual has an O((gamma/scale)^2) kink that never
    # settles on its own scale but is negligible against the total.
    for _ in range(opts.max_doublings):
        new_rest = next(estimates)
        total = analytic + new_rest
        if abs(new_rest - rest) <= opts.rel_tol * max(abs(total), 1e-300):
            rest = new_rest
            break
        rest = new_rest
    return analytic + rest
