"""Sweep runner: reproduces the CW and pulsed comparison scans as CSV tables.

Subcommands
-----------
aeff             effective interaction area from the geometry section
cw-sweep         squeezed-vs-classical CW rates over (sigma_c_bar, beta_bar)
pulsed-sweep     squeezed-vs-classical pulsed counts over the 3x3 panel grid
schmidt          export the JSI grid and Schmidt spectrum of the pulsed source
validate-config  load a config, echoing every applied default

Determinism: identical configs produce byte-identical CSV bodies; the
timestamp comment is suppressed under --reproducible.  CW rows are computed
one after another, in grid order; a pulsed panel's rows are read from its
engine in one call, each with the bits of a row computed alone.
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
from functools import partial

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .constants import TWO_PI
from .excitation import (
    CwExcitationEngine,
    PulsedExcitationEngine,
    branching_factor,
    cw_column_beta_max,
    matched_classical_cw,
    matched_classical_pulsed,  # unused here; sweepbench's layer tracer wraps it on this module
    p_classical_pulsed,
    rate_classical_cw,
    rate_squeezed_cw,
    within_validity,
)
from .geometry import BeamProfile, effective_area
from .sources import (
    MAX_ANALYTIC_MODES,
    ClassicalPulsed,
    SqueezedCW,
    SqueezedPulsed,
    default_jsa_grids,
    export_jsi_csv,
    export_schmidt_csv,
    photon_rate_cw,
    schmidt_decompose,  # unused here; sweepbench's layer tracer wraps it on this module
    schmidt_decompose_analytic,
)
from .spectral import GaussianAmplitude, NumericalError, brentq
from .system import cross_section, eta_prefactor

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


def _row_failure(task: dict, exc: NumericalError, columns: list[str]) -> dict:
    """The failed row of `task`, its error's type and message logged at WARNING."""
    logger.warning("row %s failed: %s: %s", task, type(exc).__name__, exc)
    return _failed_row(columns, task)


def _map_rows(compute, tasks: list[dict], columns: list[str]) -> list[dict]:
    """compute(task) for every task, in task order.

    A task holds the row's fixed columns.  A row whose computation raises a
    `NumericalError` keeps those and is marked failed (`_row_failure`), and
    the sweep goes on.  Any other exception propagates.
    """
    rows = []
    for task in tasks:
        try:
            rows.append(compute(task))
        except NumericalError as exc:
            rows.append(_row_failure(task, exc, columns))
    return rows


def _fluorescence_counts(coherent, incoherent, factor: float, n_atoms: float):
    """(coherent, incoherent, total) d->a photon counts of `n_atoms` atoms.

    `factor` is `branching_factor`, taken once per sweep; the counts are
    those of `fluorescence`, in its operation order.  On arrays of
    excitations (a pulsed panel) they are taken elementwise, with the same
    bits.
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
    """CW rows over the (sigma_c_bar, beta_bar) grid, one `CwExcitationEngine` per column.

    A row reads its squeezed rates and its photon rate from its column's
    engine; the classical pair's cross-section is taken once per sweep.
    Each column's engine is built at the largest of its beta_bars whose
    Gaussian series can be formed (`cw_column_beta_max`); a row past it
    fails with the series' error.  A column whose table fails fails each of
    its rows with that error.
    """
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
    n_atoms = cfg.geometry["n_atoms"]
    factor = branching_factor(system)
    # Every row's classical pair sits on the same centres, omega_ba and omega_cb.
    sigma_classical = cross_section(system.omega_ba, system.omega_cb, system, eta)
    src_cfg = cfg.source
    ratios = src_cfg["sigma_c_over_gamma_b"]
    base_grid = _log_grid(
        src_cfg["beta_bar_min"], src_cfg["beta_bar_max"], src_cfg["points_per_decade"]
    )

    def compute(task, engine, column):
        if isinstance(engine, NumericalError):
            raise engine
        ratio, beta_bar = task["sigma_c_over_gamma_b"], task["beta_bar"]
        src = SqueezedCW(beta_bar, column.sigma_c_bar, column.center_i, column.center_ii)
        out_sq = rate_squeezed_cw(src, system, eta, area, coupling, engine=engine)
        rate = photon_rate_cw(src, engine)
        src_cl = matched_classical_cw(src, area, rate)
        out_cl = rate_classical_cw(src_cl, system, eta, sigma=sigma_classical)
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

    rows: list[dict] = []
    for ratio in ratios:
        grid = base_grid
        if src_cfg.get("match_rate_windows") and ratio != ratios[0]:
            # photon rate ~ beta_bar^2 / T_c: matching the rate window across
            # columns scales the beta window by sqrt(sigma_ref / sigma).
            grid = base_grid * np.sqrt(ratios[0] / ratio)
        tasks = [{"sigma_c_over_gamma_b": ratio, "beta_bar": float(b)} for b in grid]
        beta_bar_max, series = cw_column_beta_max(task["beta_bar"] for task in tasks)
        column = SqueezedCW(
            beta_bar=beta_bar_max, sigma_c_bar=ratio * system.gamma_b,
            center_i=system.omega_ba, center_ii=system.omega_cb,
        )
        try:
            engine = CwExcitationEngine(column, system, eta, area, coupling, series=series)
        except NumericalError as exc:
            engine = exc  # each row of the column fails with the error
        compute_row = partial(compute, engine=engine, column=column)
        rows.extend(_map_rows(compute_row, tasks, CW_COLUMNS))
    return rows


# ---------------------------------------------------------------------------
# pulsed sweep
# ---------------------------------------------------------------------------


# Each end of a bracket wider than one point is moved outward by this
# fraction.  That shifts the solved function by about 1e-12 y, far above its
# rounding (a few ulp of y), so brentq sees the signs the bounds promise.
_BRACKET_SLACK = 1e-12


def _beta_for_photons(engine, n_photons: float | np.ndarray) -> float | np.ndarray:
    """Invert N = engine.photon_number(beta) for beta.

    N(beta) = sum_n sinh^2(beta sqrt(p_n)) over the whole spectrum p_n =
    (1 - mu) mu^n.  sinh^2(sqrt x) is a power series in x with nonnegative
    coefficients, so it is superadditive, and with sum p = 1,
    sinh^2(beta sqrt(1 - mu)) <= N(beta) <= sinh^2(beta).  With y =
    asinh(sqrt N) the root therefore lies in [y, y / sqrt(1 - mu)].  For
    one mode the two ends meet and are the answer, with no evaluation of N.
    Otherwise Brent's method solves asinh(sqrt(N(beta))) = y, close to
    linear in beta, to 1e-13 relative in beta.  The bracket's top is held
    within the engine's reach (r0 up to r0_max (1 + 1e-12)), which any N
    up to sinh^2(r0_max) needs.

    `n_photons` may also be an array, such as a panel's photon grid, solved
    in one lock-step `brentq`, each element to the bits of its scalar call.
    An element whose scalar call would raise `ConvergenceError` (out of
    iterations) is NaN.
    """
    n = np.asarray(n_photons, dtype=float)
    scalar = n.ndim == 0
    y = np.arcsinh(np.sqrt(n)).reshape(-1)
    lo, hi = y.copy(), y / engine.sqrt_p0
    wide = lo != hi
    lo[wide] *= 1.0 - _BRACKET_SLACK
    top = engine.r0_max * (1.0 + 0.5 * _BRACKET_SLACK) / engine.sqrt_p0
    hi[wide] = np.minimum(hi[wide] * (1.0 + _BRACKET_SLACK), top)
    beta = lo
    if wide.any():
        target, a, b = y[wide], lo[wide], hi[wide]
        if scalar:
            # A scalar N is solved on floats, as any scalar root finder takes them.
            target, a, b = float(target[0]), float(a[0]), float(b[0])
        beta[wide] = brentq(
            lambda x: np.arcsinh(np.sqrt(engine.photon_number(x))) - target,
            a, b, xtol=1e-13 * a, rtol=1e-13, maxiter=200,
        )
    return float(beta[0]) if scalar else beta.reshape(n.shape)


def _panel_rows(engine, tasks, grid_betas, cl_unit, factor, n_atoms) -> list[dict]:
    """The rows of one panel whose engine and classical reference were built, in task order.

    A row whose entry of the panel's lock-step inversion (`grid_betas`) is
    NaN is solved on its own; if that raises a `NumericalError` the row
    fails alone (`_row_failure`).  Every other row's beta is read in one
    `engine.outcome` call, and the counts, `crossover` and `validity` are
    taken elementwise, each with the bits of a row computed alone.
    """
    solved, failed = {}, {}
    for i, (task, beta) in enumerate(zip(tasks, grid_betas)):
        if math.isnan(beta):
            try:
                beta = _beta_for_photons(engine, task["photons_per_pulse"])
            except NumericalError as exc:
                failed[i] = _row_failure(task, exc, PULSED_COLUMNS)
                continue
        solved[i] = beta
    beta = np.array(list(solved.values()))
    n_photons = [tasks[i]["photons_per_pulse"] for i in solved]
    out = engine.outcome(beta)
    # cl_unit * n**2 on floats, as a row alone takes it: Python's n**2 is
    # pow(n, 2), numpy's is n * n, and the two may round apart.
    p_cl = np.array([cl_unit * n**2 for n in n_photons])
    *_, fl_cl = _fluorescence_counts(p_cl, 0.0, factor, n_atoms)
    fl_coh, fl_ic, fl_sq = _fluorescence_counts(out.coherent, out.incoherent, factor, n_atoms)
    columns = [
        beta, n_photons, p_cl, out.coherent, out.incoherent, fl_cl, fl_coh, fl_ic, fl_sq,
        beta * engine.sqrt_p0 >= 1.0, within_validity(out.max_population),
    ]
    computed = zip(*(np.asarray(column).tolist() for column in columns))
    return [
        failed[i] if i in failed else dict(zip(PULSED_COLUMNS, (
            task["sigma_p_over_gamma_b"], task["sigma_c_over_sigma_p"], *next(computed)
        )))
        for i, task in enumerate(tasks)
    ]


# `jobs` is unused; sweepbench's worker passes it.
def run_pulsed_sweep(cfg: RunConfig, jobs: int = 1) -> list[dict]:
    """Pulsed rows over the panel grid, one `PulsedExcitationEngine` per panel.

    Each panel builds its engine first.  Its tables reach r0_max =
    asinh(sqrt(N_max)), the largest first-mode squeezing any row of the
    panel can have (N >= sinh^2(r0)), so they do not depend on any
    inversion.  Every row's beta then comes from one lock-step inversion of
    the engine's own photon number, which sums every mode, and one engine
    read at all those betas at once (`_panel_rows`).  A panel whose tables
    or classical reference fail fails each of its rows with that error.
    """
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
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
            # Only sweepbench's layer tracer reads the spectrum (`dec`).
            dec = schmidt_decompose_analytic(src, trunc_tol=cfg.numerics["trunc_tol"])
            try:
                engine = PulsedExcitationEngine(
                    src, system, eta, area, coupling, r0_max=r0_max, dec=dec
                )
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
            except NumericalError as exc:
                # Each row of the panel fails with the error.
                rows.extend(_row_failure(task, exc, PULSED_COLUMNS) for task in tasks)
                continue
            # Every row's beta in one inversion; NaN marks a row to solve alone.
            grid_betas = _beta_for_photons(engine, photon_grid).tolist()
            rows.extend(_panel_rows(engine, tasks, grid_betas, cl_unit, factor, n_atoms))
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
    from .constants import C_LIGHT

    for label, omega in (("ba", cfg.system.omega_ba), ("cb", cfg.system.omega_cb)):
        wavelength = TWO_PI * C_LIGHT / omega
        beam = BeamProfile(cfg.geometry["w0"], wavelength=wavelength)
        a_eff = effective_area(beam, beam, cloud).a_eff
        print(
            f"A_eff (z_R from {label} wavelength {wavelength*1e9:.1f} nm): "
            f"{a_eff:.6e} m^2 = {a_eff*1e12:.2f} um^2"
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
    trunc_tol = cfg.numerics["trunc_tol"]
    dec = schmidt_decompose_analytic(src, trunc_tol=trunc_tol)
    if dec.tail > trunc_tol:
        logger.warning(
            "the exported Schmidt spectrum stops at %d modes (at most %d are kept) "
            "with a tail of %.2e, above trunc_tol = %g",
            dec.n_modes, MAX_ANALYTIC_MODES, dec.tail, trunc_tol,
        )
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
    args = parser.parse_args(argv)

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
