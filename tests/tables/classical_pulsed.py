"""Tables of the classical pulse pair in closed form.

    PYTHONPATH=src python tests/tables/classical_pulsed.py [--quick]

Run from the repository root; takes about ten seconds (`--quick` skips the
population's adaptive-quadrature reference, which takes most of them).
Not a test: pytest does not collect this file.  It prints the Markdown
tables of the DECISIONS.md entry "Classical pulse pairs in closed form":

1. `p_classical_pulsed` against the Faddeeva-plus-`quad` reference
   (`tests/oracles.py::classical_pulse_pair_probability`) per pulse width
   and outer lattice size, on equal widths, on sigma_II = 3 sigma_I and on
   a band-I centre 2 Gamma_b off omega_ba: the largest relative deviation
   over those three pairs.
2. Per pulse width (equal widths, on resonance): how far the closed-form
   probability and peak population moved from the engine path they
   replaced (a one-mode Schmidt decomposition of 4097-point Gaussian
   tables through the lattice engine, `tests/oracles.py::LatticePulsedEngine`,
   rebuilt here from the library's pieces), and the closed-form population against adaptive
   quadrature of M(t) on the same time grid
   (`tests/oracles.py::classical_pulsed_population`).
3. On the classical reference of every panel of the shipped pulsed config
   and of sweepbench's pulsed workloads: how far `p_classical` moved.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))
sys.path.insert(0, str(ROOT / "tests"))

import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)
from oracles import (  # noqa: E402
    LatticePulsedEngine,
    classical_pulse_pair_probability,
    classical_pulsed_population,
)

import sqfluor.excitation as excitation  # noqa: E402
from sqfluor.config import load_config  # noqa: E402
from sqfluor.excitation import p_classical_pulsed  # noqa: E402
from sqfluor.sources import ClassicalPulsed, SchmidtDecomposition  # noqa: E402
from sqfluor.spectral import GaussianAmplitude, SpectralGrid, gaussian_amp  # noqa: E402
from sqfluor.system import CrossSectionPrefactor, eta_prefactor  # noqa: E402

WIDTHS = (1e-3, 0.01, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3)
LATTICES = (1025, 2049, 4097, 8193)
AREA = 1e-8


def pulse_pair(system, width, ratio_ii=1.0, detuning=0.0) -> ClassicalPulsed:
    """One photon per band; widths and detuning in Gamma_b."""
    gb = system.gamma_b
    return ClassicalPulsed(
        GaussianAmplitude(system.omega_ba + detuning * gb, width * gb),
        GaussianAmplitude(system.omega_cb, ratio_ii * width * gb),
        1.0, 1.0,
    )


def replaced(src, system, eta, coupling=None) -> tuple[float, float | None]:
    """(probability, population) as computed before: one engine over 4097-point tables."""

    def table(amp):
        grid = SpectralGrid(amp.center, 9.0 * amp.width, 4097)
        return grid, gaussian_amp(grid.points, amp)[None, :]

    grid_i, f_i = table(src.amp_i)
    grid_ii, f_ii = table(src.amp_ii)
    dec = SchmidtDecomposition(np.ones(1), f_i, f_ii, grid_i, grid_ii, tail=0.0)
    engine = LatticePulsedEngine(dec, system, CrossSectionPrefactor(1.0), AREA, coupling)
    pop = None if coupling is None else engine.population(np.array([src.n_photons_i]))
    value, _ = engine._converge_levels(lambda stride: float(engine.incoherent_levels[stride].sum()))
    prob = eta.eta * (src.n_photons_i / AREA) * (src.n_photons_ii / AREA) * value
    return prob, pop


def lattice_table(system, eta) -> None:
    print("| width/Gamma_b | " + " | ".join(f"{n} points" for n in LATTICES) + " |")
    print("|---|" + "---|" * len(LATTICES))
    kept = excitation.CLASSICAL_OUTER_POINTS
    try:
        for width in WIDTHS:
            pairs = [
                pulse_pair(system, width, ratio, detuning)
                for ratio, detuning in ((1.0, 0.0), (3.0, 0.0), (1.0, 2.0))
            ]
            exact = [classical_pulse_pair_probability(src, system, eta, AREA) for src in pairs]
            cells = []
            for n_points in LATTICES:
                excitation.CLASSICAL_OUTER_POINTS = n_points
                worst = max(
                    abs(p_classical_pulsed(src, system, eta, AREA).total / ref - 1.0)
                    for src, ref in zip(pairs, exact)
                )
                cells.append(f"{worst:.2g}")
            print(f"| {width:g} | " + " | ".join(cells) + " |", flush=True)
    finally:
        excitation.CLASSICAL_OUTER_POINTS = kept


def width_table(system, eta, coupling, quick: bool) -> None:
    print("| width/Gamma_b | p_classical moved | population moved | "
          "population vs quad |")
    print("|---|---|---|---|")
    for width in WIDTHS:
        src = pulse_pair(system, width)
        out = p_classical_pulsed(src, system, eta, AREA, coupling)
        prob_before, pop_before = replaced(src, system, eta, coupling)
        against_quad = "-"
        if not quick:
            ref = classical_pulsed_population(src, system, coupling, AREA)
            against_quad = f"{out.max_population / ref - 1.0:+.2g}"
        print(f"| {width:g} | {out.total / prob_before - 1.0:+.2e} | "
              f"{out.max_population / pop_before - 1.0:+.2e} | {against_quad} |", flush=True)


def panel_table(system, eta) -> None:
    sources = {"configs/cs_mot_pulsed_sweep.json": load_config(
        ROOT / "configs" / "cs_mot_pulsed_sweep.json"
    ).source}
    for name in ("pulsed-broadband", "pulsed-fewmode"):
        sources[f"sweepbench {name}"] = bench.WORKLOADS[name]["source"]
    print("| config | panels | largest p_classical now/before - 1 |")
    print("|---|---|---|")
    for name, source in sources.items():
        moves = []
        for sp in source["sigma_p_over_gamma_b"]:
            for sc in source["sigma_c_over_sigma_p"]:
                # The reference pair has sigma_I = sigma_II = sigma_c = sc sp Gamma_b.
                src = pulse_pair(system, sc * sp)
                before, _ = replaced(src, system, eta)
                moves.append(p_classical_pulsed(src, system, eta, AREA).total / before - 1.0)
        worst = max(moves, key=abs)
        print(f"| {name} | {len(moves)} | {worst:+.2e} |", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the quadrature population")
    args = parser.parse_args()
    cfg = load_config(ROOT / "configs" / "cs_mot.json")
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    lattice_table(system, eta)
    print()
    width_table(system, eta, coupling, args.quick)
    print()
    panel_table(system, eta)


if __name__ == "__main__":
    main()
