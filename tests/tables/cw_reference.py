"""The CW reference table of `tests/data/regression_cw.json`, and the golden file's gaps from it.

    PYTHONPATH=src python tests/tables/cw_reference.py

Run from the repository root; takes a few seconds.  Not a test: pytest does
not collect this file.  It prints the Markdown tables of the DECISIONS.md
entries "The CW accuracy gate" (against the golden file the J lattice
wrote) and "CW rates from the Gaussian series" (against the one the series
write).  For each of the 15 rows: the photon rate,
r_sq_coherent and r_sq_incoherent from the Gaussian-series references
(`oracles.cw_reference_columns`), how far `tests/data/golden_cw.csv` is from
each (golden/reference - 1), and how far the incoherent double integral
moves from 64 x 8 to 128 x 16 Gauss-Legendre nodes.  Then the largest gap
per column, which `tests/test_cw_references.py::CW_GATE_REL_TOL` bounds.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from oracles import cw_incoherent_integral, cw_reference_columns  # noqa: E402

from sqfluor.config import load_config  # noqa: E402
from sqfluor.geometry import effective_area  # noqa: E402
from sqfluor.system import eta_prefactor  # noqa: E402

DATA = ROOT / "tests" / "data"
COLUMNS = ("photon_rate_per_s", "r_sq_coherent", "r_sq_incoherent")


def golden_rows() -> list[dict]:
    """The rows of golden_cw.csv, numbers as floats."""
    lines = [line for line in (DATA / "golden_cw.csv").read_text().splitlines()
             if not line.startswith("#")]
    return [
        {key: float(value) if key in COLUMNS or key in ("sigma_c_over_gamma_b", "beta_bar")
         else value for key, value in row.items()}
        for row in csv.DictReader(lines)
    ]


def main() -> None:
    cfg = load_config(DATA / "regression_cw.json")
    system = cfg.system
    eta = eta_prefactor(system, cfg.coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud(), cfg.numerics_options()).a_eff
    rows = golden_rows()
    refs = cw_reference_columns(rows, system, eta, area)

    print("| sigma_c_bar/Gamma_b | beta_bar | photon rate (1/s) | r_sq_coherent | "
          "r_sq_incoherent | golden - 1: photon | coherent | incoherent | "
          "integral, 128 x 16 vs 64 x 8 nodes |")
    print("|---|---|---|---|---|---|---|---|---|")
    worst = dict.fromkeys(COLUMNS, 0.0)
    for row, ref in zip(rows, refs, strict=True):
        gaps = {c: row[c] / ref[c] - 1.0 for c in COLUMNS}
        for c in COLUMNS:
            if abs(gaps[c]) > abs(worst[c]):
                worst[c] = gaps[c]
        sigma = row["sigma_c_over_gamma_b"] * system.gamma_b
        args = (row["beta_bar"], sigma, system.gamma_b, system.gamma_c)
        nodes = cw_incoherent_integral(*args, nodes=128, panels=16) / cw_incoherent_integral(*args)
        print(f"| {row['sigma_c_over_gamma_b']:g} | {row['beta_bar']:.4g} | "
              + " | ".join(f"{ref[c]:.10g}" for c in COLUMNS) + " | "
              + " | ".join(f"{gaps[c]:+.1e}" for c in COLUMNS)
              + f" | {nodes - 1.0:+.1g} |")
    print()
    print("largest |golden/reference - 1|: "
          + ", ".join(f"{c} {worst[c]:+.1e}" for c in COLUMNS))


if __name__ == "__main__":
    main()
