"""Levels, integrand evaluations and error estimates of every table a sweep builds.

    PYTHONPATH=src python tests/tables/quadrature_levels.py

Run from the repository root; takes about two seconds.  Not a test: pytest
does not collect this file.  It prints the Markdown tables of the
DECISIONS.md entry "Tables settle on a Gauss-Kronrod pair".  The sweeps
are those of `configs/cs_mot_pulsed_sweep.json`,
`configs/cs_mot_cw_sweep.json` and sweepbench's four workloads at seed 0
(`sweepbench/run.py`).  Per pulsed panel and CW column, each table that
`excitation._doubled` settles is listed with:

- its Gauss nodes per level, as the builder was called (`32` is one level,
  `32, 64` two);
- its integrand evaluations per entry, 2n + 2 per level of two panels
  (the incoherent tables and the classical pulse pair) or 2n + 1 of one
  (the coherent and population tables);
- `rel`, the settled level's max |K - G| over the largest entry of its
  Kronrod table of |integrand|.

A last column sums a pulsed panel's evaluations over its table entries
(K^2 per incoherent or coherent table, K per population table, 1 for the
classical pulse pair).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))

import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)

import sqfluor.cli as cli  # noqa: E402
import sqfluor.excitation as excitation  # noqa: E402
from sqfluor.config import load_config  # noqa: E402

PANELS = {"incoherent table": 2, "coherent table": 1, "population table": 1,
          "classical pulse pair": 2, "CW incoherent table": 2}


def record(config_path: Path) -> tuple[str, list]:
    """(regime, [(key, entries, what, levels, rel)]) of every table one sweep settles."""
    cfg = load_config(config_path)
    settled, key = [], [None, {}]
    doubled = excitation._doubled

    def recording(table, n_nodes, what):
        calls = []

        def counted(n):
            calls.append(n)
            return table(n)

        values, n_final, rel = doubled(counted, n_nodes, what)
        entries = 1 if what == "classical pulse pair" else values.size // (
            121 if what == "population table" else 1
        )
        settled.append((key[0], entries, what, calls, rel))
        return values, n_final, rel

    class Pulsed(cli.PulsedExcitationEngine):
        def __init__(self, src, *args, **kwargs):
            key[0] = f"{src.sigma_p / cfg.system.gamma_b:g} Gamma_b, {src.sigma_c / src.sigma_p:g}"
            super().__init__(src, *args, **kwargs)

    class Cw(cli.CwExcitationEngine):
        def __init__(self, src, *args, **kwargs):
            key[0] = f"{src.sigma_c_bar / cfg.system.gamma_b:g} Gamma_b"
            super().__init__(src, *args, **kwargs)

    originals = excitation._doubled, cli.PulsedExcitationEngine, cli.CwExcitationEngine
    excitation._doubled, cli.PulsedExcitationEngine, cli.CwExcitationEngine = recording, Pulsed, Cw
    try:
        if cfg.source["regime"] == "squeezed_cw":
            cli.run_cw_sweep(cfg)
            return "cw", settled
        cli.run_pulsed_sweep(cfg)
        return "pulsed", settled
    finally:
        excitation._doubled, cli.PulsedExcitationEngine, cli.CwExcitationEngine = originals


def evaluations(what: str, levels: list[int]) -> int:
    return sum(2 * n + PANELS[what] for n in levels)


def main() -> None:
    configs = [("configs/cs_mot_pulsed_sweep.json", ROOT / "configs" / "cs_mot_pulsed_sweep.json"),
               ("configs/cs_mot_cw_sweep.json", ROOT / "configs" / "cs_mot_cw_sweep.json")]
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in bench.WORKLOADS.items():
            raw, _ = bench.make_config(workload, 0)
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(raw))
            configs.append((f"sweepbench {name}", path))
        for title, path in configs:
            regime, settled = record(path)
            print(f"\n### {title}\n")
            if regime == "pulsed":
                print("| panel (sigma_p, sigma_c/sigma_p) | table | entries | nodes per level | "
                      "evaluations per entry | rel | panel evaluations |")
                print("|---|---|---|---|---|---|---|")
            else:
                print("| column (sigma_c_bar) | K^2 | nodes per level | evaluations per entry | rel |")
                print("|---|---|---|---|---|")
            totals = {}
            for key, entries, what, levels, rel in settled:
                totals[key] = totals.get(key, 0) + entries * evaluations(what, levels)
            for key, entries, what, levels, rel in settled:
                nodes = ", ".join(str(n) for n in levels)
                if regime == "pulsed":
                    last = what == "classical pulse pair"
                    print(f"| {key} | {what} | {entries} | {nodes} | {evaluations(what, levels)} | "
                          f"{rel:.1e} | {totals[key] if last else ''} |")
                else:
                    print(f"| {key} | {entries} | {nodes} | {evaluations(what, levels)} | {rel:.1e} |")


if __name__ == "__main__":
    main()
