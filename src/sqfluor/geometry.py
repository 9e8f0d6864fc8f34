"""Gaussian beam / Gaussian atom-cloud overlap and the effective area.

The per-atom spectral flux normalization uses

    1/A_eff^2 = (1/N) Integral |l_I(r)|^2 |l_II(r)|^2 rho(r) d^3r

with circular Gaussian beams |l_J|^2 = (2/pi w_J^2(z)) exp(-2 r^2/w_J^2(z))
and an isotropic Gaussian cloud.  The transverse (x, y) integrals are
Gaussian, and the remaining z average has a closed form in erfcx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PI
from .special import erfcx

__all__ = [
    "BeamProfile",
    "AtomCloud",
    "EffectiveArea",
    "effective_area",
    "fwhm_to_sigma",
    "waist_fwhm_to_w0",
]

_SQRT_2LN2 = np.sqrt(2.0 * np.log(2.0))


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


@dataclass(frozen=True)
class EffectiveArea:
    a_eff: float

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


# `opts` is unused; sweepbench's worker passes it.
def effective_area(beam_i: BeamProfile, beam_ii: BeamProfile, cloud: AtomCloud,
                   opts=None) -> EffectiveArea:
    """The beam-overlap integral in closed form; beams may differ (DECISIONS.md).

    Per z slice the x-y integrals are Gaussian: 1/A^2 = (4/pi^2) E[1/D(z^2)] over
    z ~ N(0, sigma^2), with D(u) = W_I W_II + 4 sigma^2 (W_I + W_II) and
    W_J(u) = w_J0^2 (1 + u/z_RJ^2).  D = alpha u^2 + beta u + gamma has negative
    roots u1, u2, so E[1/D] = (m(-u1) - m(-u2)) / (alpha (u1 - u2)), where
    m(a^2) = E[1/(z^2 + a^2)] = sqrt(pi/2) erfcx(a/(sqrt(2) sigma)) / (sigma a).
    One collimated beam gives alpha = 0 and m(gamma/beta)/beta, two give 1/gamma.
    With equal beams the roots are -z_R^2 and -z_R^2 (1 + 8 sigma^2/w0^2): for
    8 sigma^2 << w0^2 the m values nearly cancel, and the relative error is
    about eps w0^2 / (8 sigma^2), eps the double-precision epsilon.
    """
    sigma = cloud.sigma
    s = 4.0 * sigma**2
    a_i, a_ii = beam_i.waist**2, beam_ii.waist**2
    b_i, b_ii = (0.0 if b.rayleigh_range is None else (b.waist / b.rayleigh_range) ** 2
                 for b in (beam_i, beam_ii))
    alpha = b_i * b_ii
    beta = a_i * b_ii + a_ii * b_i + s * (b_i + b_ii)
    gamma = a_i * a_ii + s * (a_i + a_ii)

    def h(a2):  # m(a^2) = sqrt(pi) h(a^2) / (2 sigma^2)
        x = math.sqrt(a2) / (math.sqrt(2.0) * sigma)
        return float(erfcx(x)) / x

    if alpha > 0.0:
        # beta^2 - 4 alpha gamma as a sum of squares, and the stable quadratic formula.
        disc = (a_i * b_ii - a_ii * b_i + s * (b_ii - b_i)) ** 2 + 4.0 * s * s * alpha
        q = -0.5 * (beta + math.sqrt(disc))
        u1, u2 = q / alpha, gamma / q
        mean = (h(-u1) - h(-u2)) / (alpha * (u1 - u2)) * math.sqrt(PI) / (2.0 * sigma * sigma)
    elif beta > 0.0:
        mean = h(gamma / beta) / beta * math.sqrt(PI) / (2.0 * sigma * sigma)
    else:
        mean = 1.0 / gamma
    return EffectiveArea(a_eff=1.0 / math.sqrt(4.0 / PI**2 * mean))
