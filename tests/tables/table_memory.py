"""Traced peak memory and wall time of each pulsed table, level by level.

    PYTHONPATH=src python tests/tables/table_memory.py [--repeats R]

Run from the repository root; takes about half a minute.  Not a test:
pytest does not collect this file.  It prints the Markdown table of the
DECISIONS.md entry "Pulsed tables in bounded chunks".

The panel is sweepbench's `pulsed-broadband` one: sigma_p = 0.1 Gamma_b,
sigma_c/sigma_p = 30 on the Cs system of `configs/cs_mot_pulsed_sweep.json`,
with r0_max = asinh(100), the sweeps' largest photon number 1e4 (K = 25
terms).  It is built on two-photon resonance and off it, with band I 2
Gamma_b off omega_ba and band II on omega_cb, as
`tests/test_pulsed_tables.py::test_tables_off_two_photon_resonance_settle`
detunes it.  Each of the engine's three table builders is then called at n
= 32, 64, ..., 1024 Gauss nodes (whatever level the table settles at), and
for each call it prints:

- the traced peak: `tracemalloc`'s peak over the call, in MiB above what
  was allocated when the call began (numpy's buffers are traced), after a
  first call has built and cached the Gauss-Kronrod rule of that n;
- the wall time: the least of R calls, in ms, with tracing off.

The levels run in one process, smallest first, so a table's small levels
are timed on a heap that earlier builds left behind.  A sweep builds its
first tables in a fresh process, where glibc maps each large temporary
afresh; there the unchunked tables took up to twice as long at 32 nodes.
"""

from __future__ import annotations

import argparse
import math
import time
import tracemalloc
from pathlib import Path

import sqfluor.excitation as excitation
from sqfluor.config import load_config
from sqfluor.geometry import effective_area
from sqfluor.sources import SqueezedPulsed
from sqfluor.system import eta_prefactor

ROOT = Path(__file__).resolve().parents[2]
LEVELS = (32, 64, 128, 256, 512, 1024)


def builders(detuning_over_gamma_b: float) -> list[tuple[str, object]]:
    """[(what, build(n))] of the panel's three tables, as its engine calls them."""
    cfg = load_config(ROOT / "configs" / "cs_mot_pulsed_sweep.json")
    system, coupling = cfg.system, cfg.coupling
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
    sigma_p = 0.1 * system.gamma_b
    src = SqueezedPulsed(
        sigma_p, 30.0 * sigma_p,
        system.omega_ba + detuning_over_gamma_b * system.gamma_b, system.omega_cb,
    )
    captured = []
    doubled = excitation._doubled

    def capturing(table, n_nodes, what):
        captured.append((what, table))
        return doubled(table, n_nodes, what)

    excitation._doubled = capturing
    try:
        engine = excitation.PulsedExcitationEngine(
            src, system, eta_prefactor(system, coupling), area, coupling,
            r0_max=math.asinh(100.0),
        )
    finally:
        excitation._doubled = doubled
    assert len(engine.c_orders) == 25, len(engine.c_orders)
    return captured


def traced_peak_mib(build, n: int) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build(n)
        return (tracemalloc.get_traced_memory()[1] - start) / 2.0**20
    finally:
        tracemalloc.stop()


def wall_ms(build, n: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        build(n)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="wall-time calls per entry (least kept)")
    args = parser.parse_args()
    print("| two-photon offset | table | " + " | ".join(f"n = {n}" for n in LEVELS) + " |")
    print("|---|---|" + "---|" * len(LEVELS))
    for label, detuning in (("on resonance", 0.0), ("band I 2 Gamma_b off", 2.0)):
        for what, build in builders(detuning):
            cells = []
            for n in LEVELS:
                build(n)  # the rule's nodes, built once per n and cached, are not counted
                peak = traced_peak_mib(build, n)
                cells.append(f"{peak:.1f} MiB, {wall_ms(build, n, args.repeats):.1f} ms")
            print(f"| {label} | {what} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
