"""Tables of the classical pulse pair.

    PYTHONPATH=src python tests/tables/classical_pulsed.py [--quick]

Run from the repository root; takes about five seconds (`--quick` skips the
population's adaptive-quadrature reference, which takes most of them).
Not a test: pytest does not collect this file.  It prints the Markdown
tables of two DECISIONS.md entries, "The classical pulse pair on the
tables' rule" (tables 1 and 3) and "Classical pulse pairs in closed form"
(table 2):

1. Per case (pulse width; sigma_II = sigma_I or 3 sigma_I; band-I centre
   on omega_ba or 2 Gamma_b off it): the nodes `p_classical_pulsed` stopped
   at, the `quadrature_rel_err` it reported, and its deviation from the
   Faddeeva-plus-`quad` reference
   (`tests/oracles.py::classical_pulse_pair_probability`).
2. Per pulse width (equal widths, on resonance): how far the closed-form
   probability and peak population moved from the engine path they
   replaced (a one-mode Schmidt decomposition of 4097-point Gaussian
   tables through the lattice engine, `tests/oracles.py::LatticePulsedEngine`,
   rebuilt here from the library's pieces), and the closed-form population against adaptive
   quadrature of M(t) on the same time grid
   (`tests/oracles.py::classical_pulsed_population`).
3. On the classical reference of every panel of the shipped pulsed config
   and of sweepbench's pulsed workloads: nodes, reported error, deviation
   from the reference now and under the sampled outer rule it replaced
   (`sampled_outer_rule`), and how far `p_classical` moved.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.special import wofz

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))
sys.path.insert(0, str(ROOT / "tests"))

import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)
from oracles import (  # noqa: E402
    LatticePulsedEngine,
    classical_pulse_pair_probability,
    classical_pulsed_population,
    pole_weights,
)

from sqfluor.config import load_config  # noqa: E402
from sqfluor.excitation import p_classical_pulsed  # noqa: E402
from sqfluor.sources import ClassicalPulsed, SchmidtDecomposition  # noqa: E402
from sqfluor.spectral import GaussianAmplitude, SpectralGrid, gaussian_amp  # noqa: E402
from sqfluor.system import CrossSectionPrefactor, eta_prefactor  # noqa: E402

WIDTHS = (1e-3, 0.01, 0.1, 1.0, 3.0, 10.0, 100.0, 1e3)
PAIRS = ((1.0, 0.0), (3.0, 0.0), (1.0, 2.0), (3.0, 2.0))  # (sigma_II/sigma_I, detuning/Gamma_b)
SAMPLED_POINTS = 4097
AREA = 1e-8


def pulse_pair(system, width, ratio_ii=1.0, detuning=0.0) -> ClassicalPulsed:
    """One photon per band; widths and detuning in Gamma_b."""
    gb = system.gamma_b
    return ClassicalPulsed(
        GaussianAmplitude(system.omega_ba + detuning * gb, width * gb),
        GaussianAmplitude(system.omega_cb, ratio_ii * width * gb),
        1.0, 1.0,
    )


def sampled_outer_rule(src, system, eta) -> float:
    """The probability as the sampled outer rule took it.

    |K(d)|^2 on SAMPLED_POINTS samples over +/-12 sqrt(V), the Lorentzian
    taken by product integration (`pole_weights`).
    """
    sig_i, sig_ii = src.amp_i.width, src.amp_ii.width
    var = sig_i * sig_i + sig_ii * sig_ii
    s = sig_i * sig_ii / np.sqrt(var)
    half = 12.0 * np.sqrt(var)
    step = 2.0 * half / (SAMPLED_POINTS - 1)
    d = -half + step * np.arange(SAMPLED_POINTS)
    delta = src.amp_i.center - system.omega_ba
    z = (delta + (s / sig_ii) ** 2 * d + 0.5j * system.gamma_b) / (np.sqrt(2.0) * s)
    k2 = np.exp(-d * d / var) * np.abs(wofz(z)) ** 2 / (2.0 * sig_i * sig_ii)
    shape = system.lineshape_ca()
    pole = (shape.center - src.amp_i.center - src.amp_ii.center) + 0.5j * shape.fwhm
    lam = pole_weights(-half, step, SAMPLED_POINTS, pole).imag / np.pi
    return eta.eta * (src.n_photons_i / AREA) * (src.n_photons_ii / AREA) * float(lam @ k2)


def replaced(src, system, eta, coupling=None) -> tuple[float, float | None]:
    """(probability, population) as the engine path computed them: one engine over 4097-point tables."""

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


def case_table(system, eta) -> None:
    print("| width/Gamma_b | sigma_II/sigma_I | detuning/Gamma_b | nodes | "
          "quadrature_rel_err | vs reference |")
    print("|---|---|---|---|---|---|")
    for width in WIDTHS:
        for ratio, detuning in PAIRS:
            src = pulse_pair(system, width, ratio, detuning)
            out = p_classical_pulsed(src, system, eta, AREA)
            exact = classical_pulse_pair_probability(src, system, eta, AREA)
            print(f"| {width:g} | {ratio:g} | {detuning:g} | "
                  f"{out.diagnostics['quadrature_nodes']} | "
                  f"{out.diagnostics['quadrature_rel_err']:.1e} | "
                  f"{out.total / exact - 1.0:+.1e} |", flush=True)


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
    sources = {"shipped": load_config(
        ROOT / "configs" / "cs_mot_pulsed_sweep.json"
    ).source}
    for name in ("pulsed-broadband", "pulsed-fewmode"):
        sources[f"sweepbench {name}"] = bench.WORKLOADS[name]["source"]
    print("| config | sigma_p/Gamma_b | sigma_c/sigma_p | nodes | quadrature_rel_err | "
          "vs reference | sampled rule vs reference | p_classical moved |")
    print("|---|---|---|---|---|---|---|---|")
    for name, source in sources.items():
        for sp in source["sigma_p_over_gamma_b"]:
            for sc in source["sigma_c_over_sigma_p"]:
                # The reference pair has sigma_I = sigma_II = sigma_c = sc sp Gamma_b.
                src = pulse_pair(system, sc * sp)
                out = p_classical_pulsed(src, system, eta, AREA)
                before = sampled_outer_rule(src, system, eta)
                exact = classical_pulse_pair_probability(src, system, eta, AREA)
                print(f"| {name} | {sp:g} | {sc:g} | {out.diagnostics['quadrature_nodes']} | "
                      f"{out.diagnostics['quadrature_rel_err']:.1e} | "
                      f"{out.total / exact - 1.0:+.1e} | {before / exact - 1.0:+.1e} | "
                      f"{out.total / before - 1.0:+.2e} |", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the quadrature population")
    args = parser.parse_args()
    cfg = load_config(ROOT / "configs" / "cs_mot.json")
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    case_table(system, eta)
    print()
    width_table(system, eta, coupling, args.quick)
    print()
    panel_table(system, eta)


if __name__ == "__main__":
    main()
