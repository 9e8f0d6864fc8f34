"""Run-configuration ingestion: JSON with explicit unit suffixes.

Quantities are strings "value unit" (or bare numbers for dimensionless
entries).  Lengths accept nm/um/mm/cm/m; frequencies and decay rates accept
rad/s directly or (k/M/G/T)Hz, which are ordinary frequencies and are
multiplied by 2 pi.  Every default applied during loading is echoed in the
provenance log carried by the RunConfig.  A `numerics` key that no command
reads is accepted, left out of `RunConfig.numerics` and listed in
`RunConfig.ignored`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .constants import TWO_PI
from .geometry import AtomCloud, BeamProfile, fwhm_to_sigma, waist_fwhm_to_w0
from .peaked import NumericsOptions
from .system import CS_WAVELENGTH_BA, CS_WAVELENGTH_CB, CS_WAVELENGTH_CD, cs_preset
from .system import DipoleCoupling, FourLevelSystem, TRANSITIONS

__all__ = [
    "RunConfig",
    "load_config",
    "parse_quantity",
    "ConfigError",
    "ConfigUnitError",
    "MissingKeyError",
]


class ConfigError(ValueError):
    """Configuration file failed validation."""


class ConfigUnitError(ConfigError):
    """A quantity carried an unknown or inappropriate unit suffix."""


class MissingKeyError(ConfigError):
    """A required configuration key is absent."""


_LENGTHS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
_HZ = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}


def parse_quantity(value: Any, kind: str, key: str) -> float:
    """Parse "number unit" into SI.  kind: length | angular_frequency | rate | dimensionless."""
    if isinstance(value, (int, float)):
        if kind == "dimensionless":
            return float(value)
        raise ConfigUnitError(f"{key}: bare number given; a unit suffix is required")
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a quantity string, got {type(value).__name__}")
    parts = value.split()
    if kind == "dimensionless":
        if len(parts) == 2 and parts[1] == "dimensionless":
            parts = parts[:1]
        if len(parts) != 1:
            raise ConfigUnitError(f"{key}: dimensionless value must be a bare number")
        try:
            return float(parts[0])
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse number {parts[0]!r}") from exc
    if len(parts) != 2:
        raise ConfigUnitError(f"{key}: expected 'value unit', got {value!r}")
    try:
        number = float(parts[0])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse number {parts[0]!r}") from exc
    unit = parts[1]
    if kind == "length":
        if unit not in _LENGTHS:
            raise ConfigUnitError(f"{key}: unknown length unit {unit!r}")
        return number * _LENGTHS[unit]
    if kind in ("angular_frequency", "rate"):
        if unit == "rad/s":
            return number
        if unit in _HZ:
            return number * _HZ[unit] * TWO_PI
        raise ConfigUnitError(f"{key}: unknown frequency unit {unit!r}")
    raise ValueError(f"unknown quantity kind {kind!r}")


@dataclass
class RunConfig:
    """Validated configuration, the provenance of every applied default and the keys ignored."""

    raw: dict
    system: FourLevelSystem
    coupling: DipoleCoupling
    geometry: dict
    source: dict
    numerics: dict
    output: dict
    defaults_applied: list = field(default_factory=list)
    ignored: list = field(default_factory=list)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def numerics_options(self) -> NumericsOptions:
        return NumericsOptions(
            rel_tol=self.numerics["rel_tol"],
            max_doublings=self.numerics["max_doublings"],
        )

    def beam(self) -> BeamProfile:
        geo = self.geometry
        wavelength = geo["rayleigh_wavelength_m"]
        return BeamProfile(geo["w0"], wavelength=wavelength) if wavelength else BeamProfile(geo["w0"])

    def cloud(self) -> AtomCloud:
        return AtomCloud(self.geometry["sigma"], self.geometry["n_atoms"])


def _get(section: Mapping, key: str, section_name: str):
    if key not in section:
        raise MissingKeyError(f"{section_name}.{key} is required")
    return section[key]


def _load_system(cfg: dict, log: list) -> tuple[FourLevelSystem, DipoleCoupling]:
    section = cfg.get("system")
    if section is None:
        raise MissingKeyError("system section is required")
    preset = section.get("preset", "cs")
    if preset not in ("cs", "custom"):
        raise ConfigError(f"system.preset must be 'cs' or 'custom', got {preset!r}")
    gamma_r_raw = _get(section, "gamma_r", "system")
    gamma_r = {}
    for t in TRANSITIONS:
        if t not in gamma_r_raw:
            raise MissingKeyError(f"system.gamma_r.{t} is required")
        gamma_r[t] = parse_quantity(gamma_r_raw[t], "rate", f"system.gamma_r.{t}")
    gamma_nr = None
    if "gamma_nr" in section:
        gamma_nr = {
            t: parse_quantity(section["gamma_nr"].get(t, "0 rad/s"), "rate", f"system.gamma_nr.{t}")
            for t in TRANSITIONS
        }
    else:
        log.append("system.gamma_nr defaulted to zero on all transitions (cold isolated MOT)")

    wavelengths = {}
    for key, default in (
        ("wavelength_ba", CS_WAVELENGTH_BA),
        ("wavelength_cb", CS_WAVELENGTH_CB),
        ("wavelength_cd", CS_WAVELENGTH_CD),
    ):
        if key in section or preset == "custom":
            wavelengths[key] = parse_quantity(_get(section, key, "system"), "length", f"system.{key}")
        else:
            wavelengths[key] = default
            log.append(f"system.{key} defaulted to {default*1e9:.1f} nm (Cs preset)")
    rates = {"gamma_r": gamma_r}
    if gamma_nr is not None:
        rates["gamma_nr"] = gamma_nr
    try:
        return cs_preset(rates, **wavelengths)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _load_geometry(cfg: dict, system: FourLevelSystem, log: list) -> dict:
    section = cfg.get("geometry")
    if section is None:
        raise MissingKeyError("geometry section is required")
    cloud_fwhm = parse_quantity(_get(section, "cloud_fwhm", "geometry"), "length", "geometry.cloud_fwhm")
    beam_fwhm = parse_quantity(_get(section, "beam_fwhm", "geometry"), "length", "geometry.beam_fwhm")
    n_atoms = parse_quantity(_get(section, "n_atoms", "geometry"), "dimensionless", "geometry.n_atoms")
    for key, value in (("cloud_fwhm", cloud_fwhm), ("beam_fwhm", beam_fwhm), ("n_atoms", n_atoms)):
        _require_positive(f"geometry.{key}", value)
    convention = section.get("waist_convention")
    if convention is None:
        convention = "intensity"
        log.append("geometry.waist_convention defaulted to 'intensity' (FWHM of |l|^2)")
    try:
        w0 = waist_fwhm_to_w0(beam_fwhm, convention)
    except ValueError as exc:
        raise ConfigError(f"geometry.waist_convention: {exc}") from exc
    ray = section.get("rayleigh_wavelength")
    if ray is None:
        ray = "ba"
        log.append("geometry.rayleigh_wavelength defaulted to the ba transition")
    if ray == "none":
        wavelength = None
    elif ray in ("ba", "cb"):
        omega = system.omega_ba if ray == "ba" else system.omega_cb
        from .constants import C_LIGHT

        wavelength = TWO_PI * C_LIGHT / omega
    else:
        wavelength = parse_quantity(ray, "length", "geometry.rayleigh_wavelength")
        _require_positive("geometry.rayleigh_wavelength", wavelength)
    return {
        "cloud_fwhm": cloud_fwhm,
        "beam_fwhm": beam_fwhm,
        "sigma": fwhm_to_sigma(cloud_fwhm),
        "w0": w0,
        "n_atoms": n_atoms,
        "waist_convention": convention,
        "rayleigh_wavelength_m": wavelength,
    }


_REGIMES = ("squeezed_cw", "squeezed_pulsed")
_FRACTION_KEYS = ("rel_tol", "trunc_tol")
_INTEGER_MINIMA = {"max_doublings": 1}


def _load_source(cfg: dict, log: list) -> dict:
    section = cfg.get("source")
    if section is None:
        raise MissingKeyError("source section is required")
    regime = _get(section, "regime", "source")
    if regime not in _REGIMES:
        raise ConfigError(f"source.regime must be one of {_REGIMES}, got {regime!r}")
    out = {"regime": regime}
    if regime == "squeezed_cw":
        out["sigma_c_over_gamma_b"] = _source_list(
            section, "sigma_c_over_gamma_b", [0.01, 0.1, 1.0, 10.0, 100.0]
        )
        if "sigma_c_over_gamma_b" not in section:
            log.append("source.sigma_c_over_gamma_b defaulted to [0.01, 0.1, 1, 10, 100]")
        axis = (("beta_bar_min", 1e-3), ("beta_bar_max", 30.0))
        out["match_rate_windows"] = _flag(section, "match_rate_windows", "source")
    else:
        out["sigma_p_over_gamma_b"] = _source_list(section, "sigma_p_over_gamma_b", [0.1, 1.0, 10.0])
        out["sigma_c_over_sigma_p"] = _source_list(section, "sigma_c_over_sigma_p", [1.0, 10.0, 100.0])
        if min(out["sigma_c_over_sigma_p"]) < 1.0:
            raise ConfigError(
                "source.sigma_c_over_sigma_p values must be >= 1 (anti-correlated regime), "
                f"got {out['sigma_c_over_sigma_p']!r}"
            )
        for key in ("sigma_p_over_gamma_b", "sigma_c_over_sigma_p"):
            if key not in section:
                log.append(f"source.{key} defaulted to the three-panel grid")
        axis = (("photons_min", 1e-2), ("photons_max", 1e4))
    for key, default in (*axis, ("points_per_decade", 60)):
        if key in section:
            out[key] = parse_quantity(section[key], "dimensionless", f"source.{key}")
        else:
            out[key] = default
            log.append(f"source.{key} defaulted to {default}")
        _require_positive(f"source.{key}", out[key])
    (lo, _), (hi, _) = axis
    if out[lo] > out[hi]:
        raise ConfigError(f"source.{lo} ({out[lo]!r}) must not exceed source.{hi} ({out[hi]!r})")
    return out


def _require_positive(key: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")


def _flag(section: Mapping, key: str, section_name: str) -> bool:
    """An optional JSON boolean, false when absent; a string such as "false" is rejected."""
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{section_name}.{key} must be true or false, got {value!r}")
    return value


def _source_list(section: Mapping, key: str, default: list) -> list:
    """A non-empty list of finite positive dimensionless values."""
    values = section.get(key, default)
    if not (isinstance(values, list) and values):
        raise ConfigError(f"source.{key} must be a non-empty list, got {values!r}")
    out = [parse_quantity(v, "dimensionless", f"source.{key}") for v in values]
    for value in out:
        _require_positive(f"source.{key}", value)
    return out


def _load_numerics(cfg: dict, log: list) -> dict:
    section = cfg.get("numerics", {})
    if "numerics" not in cfg:
        log.append("numerics section defaulted entirely")
    out = {}
    for key, default in (("rel_tol", 1e-6), ("max_doublings", 6), ("trunc_tol", 1e-10)):
        if key in section:
            out[key] = section[key]
        else:
            out[key] = default
            if "numerics" in cfg:
                log.append(f"numerics.{key} defaulted to {default}")
    for key in _FRACTION_KEYS:
        value = out[key]
        if not (_is_finite_number(value) and 0.0 < value < 1.0):
            raise ConfigError(f"numerics.{key} must be a number in (0, 1), got {value!r}")
    for key, minimum in _INTEGER_MINIMA.items():
        value = out[key]
        if not (_is_finite_number(value) and value == int(value) and value >= minimum):
            raise ConfigError(f"numerics.{key} must be an integer >= {minimum}, got {value!r}")
        out[key] = int(value)
    return out


def _is_finite_number(value) -> bool:
    """A finite JSON number; booleans and strings are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _load_output(cfg: dict, log: list) -> dict:
    section = cfg.get("output", {})
    out = {
        "path": section.get("path", "sweep.csv"),
        "json_mirror": _flag(section, "json_mirror", "output"),
    }
    if "path" not in section:
        log.append("output.path defaulted to sweep.csv")
    return out


def load_config(path) -> RunConfig:
    """Load, validate, and default-fill a JSON run configuration."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    log: list = []
    system, coupling = _load_system(raw, log)
    geometry = _load_geometry(raw, system, log)
    source = _load_source(raw, log)
    numerics = _load_numerics(raw, log)
    output = _load_output(raw, log)
    return RunConfig(
        raw=raw, system=system, coupling=coupling, geometry=geometry,
        source=source, numerics=numerics, output=output, defaults_applied=log,
        ignored=[f"numerics.{key}" for key in raw.get("numerics", {}) if key not in numerics],
    )
