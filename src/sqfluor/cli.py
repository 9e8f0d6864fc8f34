"""Sweep runner: reproduces the CW and pulsed comparison scans as CSV tables.

Subcommands
-----------
aeff             effective interaction area from the geometry section
cw-sweep         squeezed-vs-classical CW rates over (sigma_c_bar, beta_bar)
pulsed-sweep     squeezed-vs-classical pulsed counts over the 3x3 panel grid
schmidt          export the JSI grid and Schmidt spectrum of the pulsed source
validate-config  load a config, echoing every applied default
self-test        run the built-in oracle checks

Determinism: identical configs produce byte-identical CSV bodies; the
timestamp comment is suppressed under --reproducible.  Rows are computed
one after another, in grid order.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys as _sys
# Unused here: sweepbench's layer tracer subclasses it on this module.
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .constants import PI, TWO_PI
from .excitation import (
    PulsedExcitationEngine,
    branching_factor,
    matched_classical_cw,
    matched_classical_pulsed,  # unused here; sweepbench's layer tracer wraps it on this module
    p_classical_pulsed,
    rate_classical_cw,
    rate_squeezed_cw,
    within_validity,
)
from .geometry import effective_area
from .sources import (
    ClassicalPulsed,
    SqueezedCW,
    SqueezedPulsed,
    default_jsa_grids,
    export_jsi_csv,
    export_schmidt_csv,
    photon_rate_cw,
    schmidt_decompose,
    schmidt_decompose_analytic,
)
from .spectral import GaussianAmplitude, NumericalError, brentq
from .system import eta_prefactor

logger = logging.getLogger(__name__)

CW_COLUMNS = [
    "sigma_c_over_gamma_b", "beta_bar", "photon_rate_per_s", "r_classical",
    "r_sq_coherent", "r_sq_incoherent", "r_sq_total", "R_fluor_classical",
    "R_fluor_sq_total", "ratio_sq_over_cl", "ratio_coh_over_incoh",
    "crossover", "validity",
]

PULSED_COLUMNS = [
    "sigma_p_over_gamma_b", "sigma_c_over_sigma_p", "beta", "photons_per_pulse",
    "p_classical", "p_sq_coherent", "p_sq_incoherent", "n_fluor_classical",
    "n_fluor_sq_coherent", "n_fluor_sq_incoherent", "n_fluor_sq_total",
    "crossover", "validity",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# The cells csv.writer's default dialect quotes, doubling each quote inside.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cell(value) -> str:
    """`_fmt(value)` as one CSV cell, quoted as csv.writer quotes it."""
    text = _fmt(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_cells(values: list) -> list[str]:
    """The CSV cells of one column, formatted in one pass.

    A column of floats (np.float64 among them, a float subclass) takes
    `float.__repr__`, the bits `_fmt` writes for each; any other column
    takes `_csv_cell` cell by cell.
    """
    try:
        return list(map(float.__repr__, values))
    except TypeError:  # a bool, str or integer cell
        return [_csv_cell(v) for v in values]


def _failed_row(columns, fixed: dict) -> dict:
    row = {c: float("nan") for c in columns}
    row.update(fixed)
    row["validity"] = "failed"
    return row


def _map_rows(compute, tasks: list[dict], columns: list[str]) -> list[dict]:
    """compute(task) for every task, in task order.

    A task holds the row's fixed columns.  A row whose computation raises a
    `NumericalError` keeps those and is marked failed, the error's type and
    message are logged at WARNING, and the sweep goes on.  Any other
    exception propagates.
    """
    rows = []
    for task in tasks:
        try:
            rows.append(compute(task))
        except NumericalError as exc:
            logger.warning("row %s failed: %s: %s", task, type(exc).__name__, exc)
            rows.append(_failed_row(columns, task))
    return rows


def _fluorescence_counts(coherent: float, incoherent: float, factor: float, n_atoms: float):
    """(coherent, incoherent, total) d->a photon counts of `n_atoms` atoms.

    `factor` is `branching_factor`, taken once per sweep; the counts are
    those of `fluorescence`, in its operation order.
    """
    per_coh = coherent * factor
    per_ic = incoherent * factor
    return per_coh * n_atoms, per_ic * n_atoms, (per_coh + per_ic) * n_atoms


def _log_grid(lo: float, hi: float, points_per_decade: float) -> np.ndarray:
    decades = np.log10(hi / lo)
    n = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------------------
# CW sweep
# ---------------------------------------------------------------------------


# `jobs` is unused; sweepbench's worker passes it.
def run_cw_sweep(cfg: RunConfig, jobs: int = 1) -> list[dict]:
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud(), cfg.numerics_options()).a_eff
    n_atoms = cfg.geometry["n_atoms"]
    factor = branching_factor(system)
    src_cfg = cfg.source
    ratios = src_cfg["sigma_c_over_gamma_b"]
    base_grid = _log_grid(
        src_cfg["beta_bar_min"], src_cfg["beta_bar_max"], src_cfg["points_per_decade"]
    )

    tasks = []
    for ratio in ratios:
        grid = base_grid
        if src_cfg.get("match_rate_windows") and ratio != ratios[0]:
            # photon rate ~ beta_bar^2 / T_c: matching the rate window across
            # columns scales the beta window by sqrt(sigma_ref / sigma).
            grid = base_grid * np.sqrt(ratios[0] / ratio)
        for beta_bar in grid:
            tasks.append({"sigma_c_over_gamma_b": ratio, "beta_bar": float(beta_bar)})

    def compute(task):
        ratio, beta_bar = task["sigma_c_over_gamma_b"], task["beta_bar"]
        src = SqueezedCW(
            beta_bar=beta_bar, sigma_c_bar=ratio * system.gamma_b,
            center_i=system.omega_ba, center_ii=system.omega_cb,
        )
        out_sq = rate_squeezed_cw(src, system, eta, area, coupling)
        rate = photon_rate_cw(src)
        src_cl = matched_classical_cw(src, area, rate)
        out_cl = rate_classical_cw(src_cl, system, eta)
        *_, fl_sq = _fluorescence_counts(out_sq.coherent, out_sq.incoherent, factor, n_atoms)
        *_, fl_cl = _fluorescence_counts(out_cl.coherent, out_cl.incoherent, factor, n_atoms)
        return {
            "sigma_c_over_gamma_b": ratio,
            "beta_bar": beta_bar,
            "photon_rate_per_s": rate,
            "r_classical": out_cl.total,
            "r_sq_coherent": out_sq.coherent,
            "r_sq_incoherent": out_sq.incoherent,
            "r_sq_total": out_sq.total,
            "R_fluor_classical": fl_cl,
            "R_fluor_sq_total": fl_sq,
            "ratio_sq_over_cl": out_sq.total / out_cl.total if out_cl.total else float("nan"),
            "ratio_coh_over_incoh": (
                out_sq.coherent / out_sq.incoherent if out_sq.incoherent else float("nan")
            ),
            "crossover": beta_bar >= 1.0,
            "validity": within_validity(out_sq.max_population),
        }

    return _map_rows(compute, tasks, CW_COLUMNS)


# ---------------------------------------------------------------------------
# pulsed sweep
# ---------------------------------------------------------------------------


class PhotonInversionError(NumericalError, ValueError):
    """No beta up to 1e6 reaches the requested photon number."""


_BETA_MAX = 1e6
# Each end of a closed-form bracket wider than one point is moved outward by
# this fraction.  That shifts the solved function by about 1e-12 y, far above
# its rounding (a few ulp of y), so brentq sees the signs the bounds promise.
_BRACKET_SLACK = 1e-12


def _asinh(x):
    """math.asinh, elementwise on an array: np.arcsinh can differ from it in the last bit."""
    if np.ndim(x) == 0:
        return math.asinh(x)
    return np.array([math.asinh(v) for v in x.tolist()])


def _beta_bounds(p_weights: np.ndarray, y):
    """Closed-form bracket [y / sqrt(sum p), y / sqrt(p_max)] of the beta with asinh(sqrt N) = y."""
    return y / math.sqrt(float(np.sum(p_weights))), y / math.sqrt(float(np.max(p_weights)))


def _beta_for_photons(
    p_weights: np.ndarray, n_photons: float | np.ndarray
) -> float | np.ndarray:
    """Invert N = photon_number_pulsed(p, beta) = sum_n sinh^2(beta sqrt(p_n)) for beta.

    sinh^2(sqrt x) is a power series in x with nonnegative coefficients, so
    it is superadditive, and
    sinh^2(beta sqrt(p_max)) <= N(beta) <= sinh^2(beta sqrt(sum p)).
    With y = asinh(sqrt N) the root therefore lies in
    [y / sqrt(sum p), y / sqrt(p_max)].  For one mode the two ends meet and
    are the answer, with no evaluation of N.  Otherwise Brent's method solves
    asinh(sqrt(N(beta))) = y, close to linear in beta (exactly so for one
    mode), to 1e-13 relative in beta.  Raises
    `PhotonInversionError` when no beta up to 1e6 reaches N.

    `n_photons` may also be an array, such as a panel's photon grid: each
    element is bracketed as above and all are solved in one lock-step
    `brentq`, each to the bits of its scalar call.  An element whose scalar
    call would raise is NaN in the returned array; the scalar call on that N
    alone raises its error.
    """
    n = np.asarray(n_photons, dtype=float)
    scalar = n.ndim == 0
    y = _asinh(np.sqrt(np.where(n <= 0.0, 0.0, n)).reshape(-1))
    lo, hi = _beta_bounds(p_weights, y)

    sqrt_p = np.sqrt(p_weights)

    def excess(beta, y):
        # photon_number_pulsed(p_weights, beta), with sqrt(p) taken once, per
        # element of beta: its rows of s are summed as the 1-D sum would be.
        s = np.sinh(np.multiply.outer(beta, sqrt_p))
        return _asinh(np.sqrt(np.sum(s * s, axis=-1))) - y

    wide = lo != hi
    lo[wide] *= 1.0 - _BRACKET_SLACK
    hi[wide] *= 1.0 + _BRACKET_SLACK
    unreached = np.zeros(y.shape, dtype=bool)
    capped = hi > _BETA_MAX
    if capped.any():
        unreached = capped & ((lo > _BETA_MAX) | (excess(_BETA_MAX, y) < 0.0))
        if scalar and unreached[0]:
            raise PhotonInversionError(
                f"photon-number inversion failed to bracket N = {float(n):.17g}: "
                f"no beta up to {_BETA_MAX:g} reaches it"
            )
        hi[capped] = _BETA_MAX
    beta = lo.copy()
    solve = (lo != hi) & ~unreached
    if solve.any():
        target, a, b = y[solve], lo[solve], hi[solve]
        if scalar:
            # A scalar N is solved on floats, as any scalar root finder takes them.
            target, a, b = float(target[0]), float(a[0]), float(b[0])
        beta[solve] = brentq(
            lambda x: excess(x, target), a, b, xtol=1e-13 * a, rtol=1e-13, maxiter=200
        )
    if scalar:
        return float(beta[0])
    beta[unreached] = math.nan
    return beta.reshape(n.shape)


# `jobs` is unused; sweepbench's worker passes it.
def run_pulsed_sweep(cfg: RunConfig, jobs: int = 1) -> list[dict]:
    """Pulsed rows over the panel grid, one `PulsedExcitationEngine` per panel.

    Each panel takes one analytic Schmidt decomposition, whose spectrum
    (cut at `trunc_tol`) sets every row's beta in one lock-step inversion.
    The engine's tables reach r0_max = asinh(sqrt(N_max)), the largest
    first-mode squeezing any row of the panel can have (N >= sinh^2(r0)),
    so they do not depend on any inversion.  A panel whose tables cannot
    be built fails each of its rows with the build's error.
    """
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud(), cfg.numerics_options()).a_eff
    n_atoms = cfg.geometry["n_atoms"]
    src_cfg = cfg.source
    photon_grid = _log_grid(
        src_cfg["photons_min"], src_cfg["photons_max"], src_cfg["points_per_decade"]
    )
    r0_max = math.asinh(math.sqrt(float(photon_grid[-1])))

    factor = branching_factor(system)
    rows: list[dict] = []
    for sp_ratio in src_cfg["sigma_p_over_gamma_b"]:
        for sc_ratio in src_cfg["sigma_c_over_sigma_p"]:
            tasks = [
                {"sigma_p_over_gamma_b": sp_ratio, "sigma_c_over_sigma_p": sc_ratio,
                 "photons_per_pulse": float(n)}
                for n in photon_grid
            ]
            sigma_p = sp_ratio * system.gamma_b
            src = SqueezedPulsed(
                sigma_p=sigma_p, sigma_c=sc_ratio * sigma_p,
                center_i=system.omega_ba, center_ii=system.omega_cb,
            )
            dec = schmidt_decompose_analytic(src, trunc_tol=cfg.numerics["trunc_tol"])
            # Every row's beta in one inversion; NaN marks a row that fails.
            betas = dict(zip(photon_grid.tolist(), _beta_for_photons(dec.p, photon_grid).tolist()))
            try:
                engine = PulsedExcitationEngine(
                    src, system, eta, area, coupling, r0_max=r0_max, dec=dec
                )
            except NumericalError as exc:
                engine = exc  # each row of the panel fails with the build's error
            # The classical reference is exactly bilinear in the photon
            # numbers: it is computed once, at one photon per band.
            cl_unit = p_classical_pulsed(
                ClassicalPulsed(
                    GaussianAmplitude(src.center_i, src.sigma_c),
                    GaussianAmplitude(src.center_ii, src.sigma_c),
                    1.0, 1.0,
                ),
                system, eta, area,
            ).total

            def compute(task, _engine=engine, _p=dec.p, _betas=betas,
                        _sqrt_p0=math.sqrt(dec.p[0]), _cl_unit=cl_unit):
                if isinstance(_engine, NumericalError):
                    raise _engine
                n_photons = task["photons_per_pulse"]
                beta = _betas[n_photons]
                if math.isnan(beta):
                    # The scalar inversion raises this row's error.
                    beta = _beta_for_photons(_p, n_photons)
                out = _engine.outcome(beta)
                p_cl = _cl_unit * n_photons**2
                *_, fl_cl = _fluorescence_counts(p_cl, 0.0, factor, n_atoms)
                fl_coh, fl_ic, fl_sq = _fluorescence_counts(
                    out.coherent, out.incoherent, factor, n_atoms
                )
                return {
                    "sigma_p_over_gamma_b": task["sigma_p_over_gamma_b"],
                    "sigma_c_over_sigma_p": task["sigma_c_over_sigma_p"],
                    "beta": beta,
                    "photons_per_pulse": n_photons,
                    "p_classical": p_cl,
                    "p_sq_coherent": out.coherent,
                    "p_sq_incoherent": out.incoherent,
                    "n_fluor_classical": fl_cl,
                    "n_fluor_sq_coherent": fl_coh,
                    "n_fluor_sq_incoherent": fl_ic,
                    "n_fluor_sq_total": fl_sq,
                    "crossover": beta * _sqrt_p0 >= 1.0,
                    "validity": within_validity(out.max_population),
                }

            rows.extend(_map_rows(compute, tasks, PULSED_COLUMNS))
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit(rows: list[dict], columns: list[str], cfg: RunConfig, path,
         reproducible: bool = False) -> None:
    """CSV with a comment header recording config hash and settings.

    The header row and the rows are written as csv.writer's default dialect
    writes them (minimal quoting, `\r\n` line ends), column by column.
    With `output.json_mirror` set in the config, the rows also go to
    `<path>.json`.
    """
    lines = [
        f"# sqfluor {__version__}",
        f"# config_hash: sha256:{cfg.config_hash}",
        "# numerics: " + " ".join(
            f"{k}={cfg.numerics[k]}" for k in sorted(cfg.numerics)
        ),
    ]
    if not reproducible:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    with open(path, "w", newline="") as handle:
        for line in lines:
            handle.write(line + "\n")
        # Each column starts with its header cell, so the first record is the header.
        cells = [[_csv_cell(c)] + _column_cells([row[c] for row in rows]) for c in columns]
        handle.write("".join(",".join(record) + "\r\n" for record in zip(*cells)))
    if cfg.output["json_mirror"]:
        payload = {
            "config_hash": cfg.config_hash,
            "columns": columns,
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        with open(str(path) + ".json", "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_aeff(cfg: RunConfig, args) -> int:
    cloud = cfg.cloud()
    opts = cfg.numerics_options()
    from .constants import C_LIGHT
    from .geometry import BeamProfile

    for label, omega in (("ba", cfg.system.omega_ba), ("cb", cfg.system.omega_cb)):
        wavelength = TWO_PI * C_LIGHT / omega
        beam = BeamProfile(cfg.geometry["w0"], wavelength=wavelength)
        res = effective_area(beam, beam, cloud, opts)
        print(
            f"A_eff (z_R from {label} wavelength {wavelength*1e9:.1f} nm): "
            f"{res.a_eff:.6e} m^2 = {res.a_eff*1e12:.2f} um^2 "
            f"(rel_err {res.achieved_rel_err:.2e})"
        )
    return 0


def _regime_mismatch(cfg: RunConfig, command: str, regime: str) -> bool:
    """Print a one-line message if the config's source regime is not `regime`."""
    if cfg.source["regime"] == regime:
        return False
    print(f"{command} requires source.regime = {regime}", file=_sys.stderr)
    return True


def _cmd_cw_sweep(cfg: RunConfig, args) -> int:
    if _regime_mismatch(cfg, "cw-sweep", "squeezed_cw"):
        return 2
    rows = run_cw_sweep(cfg)
    out = args.out or cfg.output["path"]
    emit(rows, CW_COLUMNS, cfg, out, reproducible=args.reproducible)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_pulsed_sweep(cfg: RunConfig, args) -> int:
    if _regime_mismatch(cfg, "pulsed-sweep", "squeezed_pulsed"):
        return 2
    rows = run_pulsed_sweep(cfg)
    out = args.out or cfg.output["path"]
    emit(rows, PULSED_COLUMNS, cfg, out, reproducible=args.reproducible)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_schmidt(cfg: RunConfig, args) -> int:
    if _regime_mismatch(cfg, "schmidt export", "squeezed_pulsed"):
        return 2
    src_cfg = cfg.source
    sigma_p = src_cfg["sigma_p_over_gamma_b"][0] * cfg.system.gamma_b
    sigma_c = src_cfg["sigma_c_over_sigma_p"][0] * sigma_p
    src = SqueezedPulsed(
        sigma_p=sigma_p, sigma_c=sigma_c,
        center_i=cfg.system.omega_ba, center_ii=cfg.system.omega_cb,
    )
    dec = schmidt_decompose_analytic(src, trunc_tol=cfg.numerics["trunc_tol"])
    base = args.out or "schmidt"
    grids = default_jsa_grids(src, n_points=129)
    export_jsi_csv(src, *grids, f"{base}_jsi.csv")
    export_schmidt_csv(dec, f"{base}_schmidt.csv")
    print(f"wrote {base}_jsi.csv and {base}_schmidt.csv ({dec.n_modes} modes, tail {dec.tail:.2e})")
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    print(f"config OK (hash sha256:{cfg.config_hash})")
    print(f"Gamma_b/Gamma_c = {cfg.system.gamma_b / cfg.system.gamma_c:.4f}")
    return 0


def _self_test() -> int:
    """Small oracle suite: closed-form identities the numerics must reproduce."""
    from .spectral import (
        GreenFunctionParams, LorentzianLineshape, SpectralGrid,
        green, lorentzian, quad_1d,
    )
    from .sources import gain_functions_cw, geometric_mode_ratio
    from .excitation import energy_ledger, population_integrals_from_probability
    from .system import FourLevelSystem

    checks = []
    shape = LorentzianLineshape(2.0e15, 3.0e7)
    checks.append((
        "lorentzian peak = 2/(pi Gamma)",
        abs(float(lorentzian(shape.center, shape)) * np.pi * shape.fwhm - 2.0) < 1e-12,
    ))
    grid = SpectralGrid(shape.center, 50 * shape.fwhm, 4001)
    area = quad_1d(lambda w: lorentzian(w, shape), grid)
    checks.append((
        "lorentzian area matches (2/pi) atan(100)",
        abs(area - 2.0 / np.pi * np.arctan(100.0)) < 1e-6,
    ))
    g = GreenFunctionParams(shape.center, shape.fwhm, 0.0)
    w_test = shape.center + np.linspace(-5, 5, 11) * shape.fwhm
    ident = np.max(np.abs(2 * np.imag(green(w_test, g)) - TWO_PI * lorentzian(w_test, shape)))
    checks.append(("2 Im G = 2 pi L identity", ident < 1e-20))
    gauss = quad_1d(lambda x: np.exp(-x * x), SpectralGrid(0.0, 8.0, 2001))
    checks.append(("Simpson Gaussian = sqrt(pi)", abs(gauss - np.sqrt(PI)) < 1e-8))
    src = SqueezedCW(beta_bar=0.7, sigma_c_bar=1e7, center_i=2e15, center_ii=1.4e15)
    s, c = gain_functions_cw(2e15 + np.linspace(-3e7, 3e7, 101), src, "I")
    checks.append(("c^2 - s^2 = 1", float(np.max(np.abs(c * c - s * s - 1.0))) < 1e-12))
    rate = photon_rate_cw(SqueezedCW(0.01, 1e7, 2e15, 1.4e15))
    t_c = SqueezedCW(0.01, 1e7, 2e15, 1.4e15).t_c
    checks.append(("low-gain photon rate = beta^2/T_c", abs(rate * t_c / 1e-4 - 1) < 0.01))
    sep = SqueezedPulsed(1e7, 1e7, 2e15, 1.4e15)
    dec = schmidt_decompose(sep)
    checks.append(("separable JSA has one mode", dec.n_modes == 1 and abs(dec.p[0] - 1) < 1e-6))
    corr = SqueezedPulsed(1e7, 1e8, 2e15, 1.4e15)
    dec = schmidt_decompose(corr, trunc_tol=1e-8)
    mu = geometric_mode_ratio(corr)
    law = (1 - mu) * mu ** np.arange(10)
    checks.append((
        "Schmidt spectrum matches geometric law",
        float(np.max(np.abs(dec.p[:10] - law))) < 1e-6,
    ))
    sys4 = FourLevelSystem(
        2.0e15, 1.4e15, 1.3e15, 2.1e15,
        {"ba": 2e7, "cb": 5e6, "cd": 9e6, "da": 3e7},
        {"ba": 1e6, "cb": 0.0, "cd": 2e6, "da": 0.0},
    )
    ledger = energy_ledger(population_integrals_from_probability(1e-6, sys4, 1e-9), sys4)
    conserved = ledger.extinction - (ledger.total_scattered + ledger.total_absorbed)
    checks.append(("energy ledger conserves exactly", conserved == 0.0))

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} oracle checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqfluor",
        description="Two-photon excitation and fluorescence sweeps for a four-level emitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the flags it reads.
    for name in ("aeff", "cw-sweep", "pulsed-sweep", "schmidt", "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name in ("cw-sweep", "pulsed-sweep", "schmidt"):
            p.add_argument("--out", default=None)
        if name in ("cw-sweep", "pulsed-sweep"):
            p.add_argument("--reproducible", action="store_true")
    sub.add_parser("self-test")
    args = parser.parse_args(argv)

    if args.command == "self-test":
        return _self_test()
    try:
        cfg = load_config(args.config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    for note in cfg.defaults_applied:
        logger.warning("default: %s", note)
    for key in cfg.ignored:
        logger.warning("ignored: %s is read by no command", key)
    handlers = {
        "aeff": _cmd_aeff,
        "cw-sweep": _cmd_cw_sweep,
        "pulsed-sweep": _cmd_pulsed_sweep,
        "schmidt": _cmd_schmidt,
        "validate-config": _cmd_validate,
    }
    return handlers[args.command](cfg, args)


if __name__ == "__main__":
    raise SystemExit(main())
