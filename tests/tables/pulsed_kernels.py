"""How far the pulsed columns moved from the Schmidt-mode lattice to the Gaussian-series tables.

    PYTHONPATH=src python tests/tables/pulsed_kernels.py [--points-per-decade P]

Run from the repository root.  Not a test: pytest does not collect this
file.  For every panel of `configs/cs_mot_pulsed_sweep.json` and of
sweepbench's pulsed workloads (their unshifted grids) it computes the rows
twice and prints one Markdown table, the one in the DECISIONS.md entry
"Pulsed rows from Gaussian-series tables":

- before: the sweep as it ran on the lattice engine
  (`tests/oracles.py::LatticePulsedEngine`): Schmidt modes kept by
  `weighted_mode_count` at the beta of the panel's largest N, every beta
  solved on that truncated spectrum;
- now: `sqfluor.cli.run_pulsed_sweep`, tables from the panel's source.

Columns: modes the lattice kept, the largest relative change of beta, of
each probability column and of the peak intermediate population over the
panel's rows, and how many `validity` and `crossover` flags flipped.  The
shipped config's three sigma_c/sigma_p = 100 panels take most of the run
time (their lattice builds); `--points-per-decade 1` gives the trimmed
sweep's rows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))
sys.path.insert(0, str(ROOT / "tests"))

import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)
from oracles import (  # noqa: E402
    LatticePulsedEngine,
    eager_schmidt_decompose_analytic,
    truncated,
    weighted_mode_count,
)

import sqfluor.cli as cli  # noqa: E402
from sqfluor.config import load_config  # noqa: E402
from sqfluor.excitation import VALIDITY_THRESHOLD  # noqa: E402
from sqfluor.geometry import effective_area  # noqa: E402
from sqfluor.sources import SqueezedPulsed  # noqa: E402
from sqfluor.spectral import ConvergenceError  # noqa: E402
from sqfluor.system import eta_prefactor  # noqa: E402

# The lattice engine's two settings, once the `numerics` keys of the same
# names (their defaults, and the values sweepbench's pulsed workloads set).
MODE_WEIGHT_TAIL = 1e-4
SAMPLE_REL_TOL = 1e-3


def lattice_rows(cfg, sp_ratio, sc_ratio, photon_grid):
    """[(beta, coherent, incoherent, population, crossover)] of one panel as the lattice sweep ran."""
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
    sigma_p = sp_ratio * system.gamma_b
    src = SqueezedPulsed(sigma_p, sc_ratio * sigma_p, system.omega_ba, system.omega_cb)
    dec = eager_schmidt_decompose_analytic(src, trunc_tol=cfg.numerics["trunc_tol"])
    try:
        beta_max = cli._beta_for_photons(dec.p, photon_grid[-1])
    except cli.PhotonInversionError:
        beta_max = cli._BETA_MAX
    except ConvergenceError:
        beta_max, _ = cli._beta_bounds(dec.p, math.asinh(math.sqrt(photon_grid[-1])))
    working = truncated(dec, weighted_mode_count(dec, beta_max, MODE_WEIGHT_TAIL))
    betas = cli._beta_for_photons(working.p, photon_grid)
    engine = LatticePulsedEngine(working, system, eta, area, coupling, SAMPLE_REL_TOL)
    rows = []
    for beta in betas:
        out = engine.outcome(beta)
        rows.append((beta, out.coherent, out.incoherent, out.max_population,
                     beta * math.sqrt(working.p[0]) >= 1.0))
    return working.n_modes, rows


def table_rows(path, sp_ratio, sc_ratio):
    """[(beta, coherent, incoherent, population, crossover)] of one panel from `run_pulsed_sweep`."""
    raw = json.loads(Path(path).read_text())
    raw["source"]["sigma_p_over_gamma_b"] = [sp_ratio]
    raw["source"]["sigma_c_over_sigma_p"] = [sc_ratio]
    populations = {}

    class Recording(cli.PulsedExcitationEngine):
        # The sweep reads a panel's betas in one call: each beta's peak
        # population is recorded under that beta.
        def outcome(self, beta):
            out = super().outcome(beta)
            populations.update(zip(
                np.atleast_1d(beta).tolist(), np.atleast_1d(out.max_population).tolist()
            ))
            return out

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.json"
        path.write_text(json.dumps(raw))
        engine_class, cli.PulsedExcitationEngine = cli.PulsedExcitationEngine, Recording
        try:
            rows = cli.run_pulsed_sweep(load_config(path))
        finally:
            cli.PulsedExcitationEngine = engine_class
    return [
        (r["beta"], r["p_sq_coherent"], r["p_sq_incoherent"],
         populations.get(r["beta"], math.nan), bool(r["crossover"]))
        for r in rows
    ]


def moved(before, now) -> str:
    return f"{max(abs(b / a - 1.0) for a, b in zip(before, now)):.1e}"


def panel_line(label, path, cfg, sp_ratio, sc_ratio) -> str:
    src_cfg = cfg.source
    photon_grid = cli._log_grid(
        src_cfg["photons_min"], src_cfg["photons_max"], src_cfg["points_per_decade"]
    )
    modes, before = lattice_rows(cfg, sp_ratio, sc_ratio, photon_grid)
    now = table_rows(path, sp_ratio, sc_ratio)
    columns = list(zip(*before)), list(zip(*now))
    flips_valid = sum(
        (a < VALIDITY_THRESHOLD) != (b < VALIDITY_THRESHOLD)
        for a, b in zip(columns[0][3], columns[1][3])
    )
    flips_cross = sum(a != b for a, b in zip(columns[0][4], columns[1][4]))
    cells = [moved(columns[0][j], columns[1][j]) for j in range(4)]
    return (
        f"| {label} | {sp_ratio:g} | {sc_ratio:g} | {len(now)} | {modes} | "
        + " | ".join(cells) + f" | {flips_valid} | {flips_cross} |"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--points-per-decade", type=float, default=None)
    args = parser.parse_args()
    configs = [("shipped", ROOT / "configs" / "cs_mot_pulsed_sweep.json")]
    tmp = tempfile.TemporaryDirectory()
    for name in ("pulsed-broadband", "pulsed-fewmode"):
        workload = dict(bench.WORKLOADS[name])
        source = dict(workload["source"])
        lo_key, lo, hi_key, hi = source.pop("range")
        source[lo_key], source[hi_key] = lo, hi
        raw = json.loads(configs[0][1].read_text())
        raw["source"], raw["numerics"] = source, workload["numerics"]
        path = Path(tmp.name) / f"{name}.json"
        path.write_text(json.dumps(raw))
        configs.append((name, path))
    print("| config | sigma_p/Gamma_b | sigma_c/sigma_p | rows | lattice modes | beta | "
          "p_sq_coherent | p_sq_incoherent | peak population | validity flips | "
          "crossover flips |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for label, path in configs:
        raw = json.loads(Path(path).read_text())
        if args.points_per_decade is not None:
            raw["source"]["points_per_decade"] = args.points_per_decade
            path = Path(tmp.name) / f"{label}-trimmed.json"
            path.write_text(json.dumps(raw))
        cfg = load_config(path)
        for sp_ratio in cfg.source["sigma_p_over_gamma_b"]:
            for sc_ratio in cfg.source["sigma_c_over_sigma_p"]:
                print(panel_line(label, path, cfg, sp_ratio, sc_ratio), flush=True)
    tmp.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
