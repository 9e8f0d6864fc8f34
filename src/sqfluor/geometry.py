"""Gaussian beam / Gaussian atom-cloud overlap and the effective area.

The per-atom spectral flux normalization uses

    1/A_eff^2 = (1/N) Integral |l_I(r)|^2 |l_II(r)|^2 rho(r) d^3r

with circular Gaussian beams |l_J|^2 = (2/pi w_J^2(z)) exp(-2 r^2/w_J^2(z))
and an isotropic Gaussian cloud.  The transverse (x, y) integrals are
Gaussian and are done analytically, leaving a single z quadrature; for equal
beams this reduces to the closed 1D form

    1/A_eff^2 = (1/l0) Integral dz/A0(z) * exp(-pi z^2/l0^2) / (2 l0^2 + A0(z))

with l0 = sqrt(2 pi sigma^2) and A0(z) = pi w^2(z)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PI
from .peaked import DEFAULT_NUMERICS, NumericsOptions
from .spectral import SpectralGrid, quad_converged

__all__ = [
    "BeamProfile",
    "AtomCloud",
    "EffectiveArea",
    "effective_area",
    "fwhm_to_sigma",
    "waist_fwhm_to_w0",
]

_SQRT_2LN2 = np.sqrt(2.0 * np.log(2.0))
Z_SPAN_FACTOR = 10.0  # z half-span in units of the longest of l0 and the Rayleigh ranges


@dataclass(frozen=True)
class BeamProfile:
    """Circular Gaussian beam: w^2(z) = w0^2 (1 + (z/z_R)^2).

    rayleigh_range defaults to pi w0^2 / wavelength when a wavelength is given;
    with neither, the beam is treated as collimated (infinite z_R).
    """

    waist: float
    rayleigh_range: float | None = None
    wavelength: float | None = None

    def __post_init__(self):
        if not self.waist > 0.0:
            raise ValueError("waist must be positive")
        if self.rayleigh_range is None and self.wavelength is not None:
            object.__setattr__(self, "rayleigh_range", PI * self.waist**2 / self.wavelength)
        if self.rayleigh_range is not None and not self.rayleigh_range > 0.0:
            raise ValueError("rayleigh_range must be positive")

    def w_squared(self, z):
        if self.rayleigh_range is None:
            return np.full_like(np.asarray(z, dtype=float), self.waist**2)
        return self.waist**2 * (1.0 + (np.asarray(z, dtype=float) / self.rayleigh_range) ** 2)


@dataclass(frozen=True)
class AtomCloud:
    """Isotropic Gaussian cloud: per-axis width sigma, n_atoms total."""

    sigma: float
    n_atoms: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.n_atoms > 0.0:
            raise ValueError("n_atoms must be positive")

    @property
    def l0(self) -> float:
        return np.sqrt(2.0 * PI) * self.sigma


@dataclass(frozen=True)
class EffectiveArea:
    a_eff: float
    achieved_rel_err: float

    def __post_init__(self):
        if not self.a_eff > 0.0:
            raise ValueError("a_eff must be positive")


def fwhm_to_sigma(fwhm: float) -> float:
    """Gaussian density FWHM -> sigma."""
    if not fwhm > 0.0:
        raise ValueError("fwhm must be positive")
    return fwhm / (2.0 * _SQRT_2LN2)


def waist_fwhm_to_w0(fwhm: float, convention: str = "intensity") -> float:
    """Beam intensity-profile FWHM -> 1/e^2 waist w0.

    For |l|^2 ~ exp(-2 r^2/w^2) the intensity FWHM is w sqrt(2 ln 2).  The
    "half" convention (w0 = fwhm/2) is kept as an alternate reading of
    loosely-specified beam sizes.
    """
    if not fwhm > 0.0:
        raise ValueError("fwhm must be positive")
    if convention == "intensity":
        return fwhm / _SQRT_2LN2
    if convention == "half":
        return 0.5 * fwhm
    raise ValueError(f"unknown waist convention {convention!r}")


def effective_area(
    beam_i: BeamProfile,
    beam_ii: BeamProfile,
    cloud: AtomCloud,
    opts: NumericsOptions = DEFAULT_NUMERICS,
    base_points: int = 8001,
) -> EffectiveArea:
    """Converged z-quadrature of the beam-overlap integral (beams may differ).

    The x-y integrals against the Gaussian cloud are analytic per z slice,

        1/A^2 = Integral dz g(z) * 4 / (pi^2 wI^2 wII^2) / (1 + 2 kappa sigma^2),

    with kappa(z) = 2/wI^2 + 2/wII^2; equal beams reproduce the 1D closed form
    quoted in the module docstring exactly.
    """
    sigma = cloud.sigma
    l0 = cloud.l0

    def inv_a2_density(z):
        w2_i = beam_i.w_squared(z)
        w2_ii = beam_ii.w_squared(z)
        g_z = np.exp(-(z * z) / (2.0 * sigma**2)) / np.sqrt(2.0 * PI * sigma**2)
        kappa = 2.0 / w2_i + 2.0 / w2_ii
        transverse = (4.0 / (PI**2 * w2_i * w2_ii)) / (1.0 + 2.0 * kappa * sigma**2)
        return g_z * transverse

    spans = [l0]
    for beam in (beam_i, beam_ii):
        if beam.rayleigh_range is not None:
            spans.append(beam.rayleigh_range)
    half_span = Z_SPAN_FACTOR * max(spans)
    grid = SpectralGrid(0.0, half_span, base_points)
    inv_a2, rel_err = quad_converged(inv_a2_density, grid, opts.rel_tol, opts.max_doublings)
    if not inv_a2 > 0.0:
        raise ValueError("overlap integral is not positive; check geometry inputs")
    return EffectiveArea(a_eff=float(1.0 / np.sqrt(inv_a2)), achieved_rel_err=float(rel_err))
