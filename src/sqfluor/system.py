"""Four-level emitter: level structure, decay rates, dipole couplings, cross-section.

Level ladder: ground |a>, intermediate |b>, two-photon excited |c>, relay |d>.
Dipole-allowed transitions are ba, cb, cd, da; pumping drives a->b->c and
fluorescence is collected on d->a.  Each transition carries a radiative and a
non-radiative decay rate whose sum is the total rate Gamma_pq; state widths
are Gamma_b = Gamma_ba, Gamma_c = Gamma_cb + Gamma_cd, Gamma_d = Gamma_da.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .constants import C_LIGHT, EPS0, HBAR, PI, TWO_PI
from .spectral import GreenFunctionParams, LorentzianLineshape, green, lorentzian

__all__ = [
    "TRANSITIONS",
    "FourLevelSystem",
    "DipoleCoupling",
    "CrossSectionPrefactor",
    "radiative_rate",
    "dipole_from_rate",
    "eta_prefactor",
    "cross_section",
    "cs_preset",
    "CS_WAVELENGTH_BA",
    "CS_WAVELENGTH_CB",
    "CS_WAVELENGTH_CD",
    "MissingRateError",
]

TRANSITIONS = ("ba", "cb", "cd", "da")

# Cs pumping scheme: 6S1/2 -> 6P1/2 near 895 nm, 6P1/2 -> 7S1/2 near 1.36 um;
# the relay decays 7S1/2 -> 6P3/2 near 1.47 um, fluorescence back to ground.
CS_WAVELENGTH_BA = 895e-9
CS_WAVELENGTH_CB = 1.36e-6
CS_WAVELENGTH_CD = 1.469e-6

LOOP_CLOSURE_RTOL = 1e-9


class MissingRateError(KeyError):
    """A required decay rate is absent from the configuration."""


def _rate_map(rates: Mapping[str, float], name: str) -> dict:
    out = {}
    for key in TRANSITIONS:
        if key not in rates:
            raise MissingRateError(f"{name} is missing transition {key!r}")
        value = float(rates[key])
        if value < 0.0:
            raise ValueError(f"{name}[{key!r}] must be nonnegative, got {value}")
        out[key] = value
    return out


@dataclass(frozen=True)
class FourLevelSystem:
    """Transition frequencies (rad/s) and decay-rate tables for the a,b,c,d ladder."""

    omega_ba: float
    omega_cb: float
    omega_cd: float
    omega_da: float
    gamma_r: Mapping[str, float]
    gamma_nr: Mapping[str, float] = field(default_factory=lambda: {k: 0.0 for k in TRANSITIONS})

    def __post_init__(self):
        object.__setattr__(self, "gamma_r", _rate_map(self.gamma_r, "gamma_r"))
        object.__setattr__(self, "gamma_nr", _rate_map(self.gamma_nr, "gamma_nr"))
        for name in ("omega_ba", "omega_cb", "omega_cd", "omega_da"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        closure = abs((self.omega_ba + self.omega_cb) - (self.omega_cd + self.omega_da))
        if closure > LOOP_CLOSURE_RTOL * self.omega_ca:
            raise ValueError(
                "energy loop not closed: omega_ba + omega_cb != omega_cd + omega_da "
                f"(mismatch {closure:.3e} rad/s)"
            )
        if not (self.gamma_b > 0.0 and self.gamma_c > 0.0 and self.gamma_d > 0.0):
            raise ValueError("Gamma_b, Gamma_c and Gamma_d must be positive")

    @property
    def omega_ca(self) -> float:
        return self.omega_ba + self.omega_cb

    def gamma(self, transition: str) -> float:
        """Total rate of one transition: radiative + non-radiative."""
        return self.gamma_r[transition] + self.gamma_nr[transition]

    @property
    def gamma_b(self) -> float:
        return self.gamma("ba")

    @property
    def gamma_c(self) -> float:
        return self.gamma("cb") + self.gamma("cd")

    @property
    def gamma_d(self) -> float:
        return self.gamma("da")

    def lineshape_ca(self) -> LorentzianLineshape:
        """Two-photon resonance profile L(omega)."""
        return LorentzianLineshape(self.omega_ca, self.gamma_c)

    def green_ba(self) -> GreenFunctionParams:
        """Intermediate-state response G_ba (ground state has zero width)."""
        return GreenFunctionParams(self.omega_ba, self.gamma_b, 0.0)


@dataclass(frozen=True)
class DipoleCoupling:
    """Squared projected dipole moments |e.mu|^2 (C^2 m^2) for the two pump steps."""

    mu_sq_ba: float
    mu_sq_cb: float

    def __post_init__(self):
        if not (self.mu_sq_ba > 0.0 and self.mu_sq_cb > 0.0):
            raise ValueError("squared dipole moments must be positive")


@dataclass(frozen=True)
class CrossSectionPrefactor:
    """eta = 2 pi wI wII |e.mu_cb|^2 |e.mu_ba|^2 / (2 eps0 c hbar)^2."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")


def radiative_rate(omega: float, mu_sq_total: float) -> float:
    """Spontaneous-emission rate omega^3 |mu|^2 / (3 pi eps0 c^3 hbar)."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if mu_sq_total < 0.0:
        raise ValueError("mu_sq_total must be nonnegative")
    return omega**3 * mu_sq_total / (3.0 * PI * EPS0 * C_LIGHT**3 * HBAR)


def dipole_from_rate(gamma_r: float, omega: float) -> float:
    """Projected |e.mu|^2 for linear polarization from a measured radiative rate.

    Includes the 1/3 projection factor; magnetic sublevels act as independent
    identical pathways so the *total* |mu|^2 entering radiative_rate is three
    times this value.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if gamma_r < 0.0:
        raise ValueError("gamma_r must be nonnegative")
    return (gamma_r * 3.0 * PI * EPS0 * C_LIGHT**3 * HBAR / omega**3) / 3.0


def eta_prefactor(
    system: FourLevelSystem,
    coupling: DipoleCoupling,
    omega_bar_i: float | None = None,
    omega_bar_ii: float | None = None,
) -> CrossSectionPrefactor:
    """Two-photon cross-section prefactor; band centers default to resonance."""
    w_i = system.omega_ba if omega_bar_i is None else omega_bar_i
    w_ii = system.omega_cb if omega_bar_ii is None else omega_bar_ii
    eta = (
        TWO_PI * w_i * w_ii * coupling.mu_sq_cb * coupling.mu_sq_ba
        / (2.0 * EPS0 * C_LIGHT * HBAR) ** 2
    )
    return CrossSectionPrefactor(eta)


def cross_section(omega_i, omega_ii, system: FourLevelSystem, eta: CrossSectionPrefactor):
    """sigma(wI, wII) = eta * L(wI + wII) * |G_ba(wI)|^2."""
    shape = system.lineshape_ca()
    g = system.green_ba()
    return eta.eta * lorentzian(np.asarray(omega_i) + np.asarray(omega_ii), shape) * np.abs(
        green(omega_i, g)
    ) ** 2


def cs_preset(
    config_rates: Mapping[str, Mapping[str, float]],
    wavelength_ba: float = CS_WAVELENGTH_BA,
    wavelength_cb: float = CS_WAVELENGTH_CB,
    wavelength_cd: float = CS_WAVELENGTH_CD,
) -> tuple[FourLevelSystem, DipoleCoupling]:
    """Cesium MOT preset: 895 nm / 1.36 um pumping, rates supplied by config.

    config_rates must provide gamma_r[transition] for the four transitions;
    gamma_nr defaults to zero (cold isolated MOT).  The relay frequency is
    closed by construction: omega_da = omega_ca - omega_cd.
    """
    if "gamma_r" not in config_rates:
        raise MissingRateError("config rates must contain a 'gamma_r' table")
    gamma_r = _rate_map(config_rates["gamma_r"], "gamma_r")
    gamma_nr = config_rates.get("gamma_nr")
    gamma_nr = (
        _rate_map(gamma_nr, "gamma_nr") if gamma_nr is not None else {k: 0.0 for k in TRANSITIONS}
    )
    omega_ba = TWO_PI * C_LIGHT / wavelength_ba
    omega_cb = TWO_PI * C_LIGHT / wavelength_cb
    omega_cd = TWO_PI * C_LIGHT / wavelength_cd
    omega_da = omega_ba + omega_cb - omega_cd
    system = FourLevelSystem(omega_ba, omega_cb, omega_cd, omega_da, gamma_r, gamma_nr)
    coupling = DipoleCoupling(
        mu_sq_ba=dipole_from_rate(gamma_r["ba"], omega_ba),
        mu_sq_cb=dipole_from_rate(gamma_r["cb"], omega_cb),
    )
    return system, coupling
