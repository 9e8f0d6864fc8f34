"""Tables of the CW by-products: the scale/12 sampling estimate and the population.

    PYTHONPATH=src python tests/tables/cw_byproducts.py [--quick]

Run from the repository root; takes about a minute (`--quick` skips the
49-cell grid).  Not a test: pytest does not collect this file.  It prints
the Markdown tables of the DECISIONS.md entry "CW by-products without
adaptive quadrature":

1. On the grid sigma_c_bar/Gamma_b in {0.003, ..., 1000} x beta_bar in
   {1e-3, ..., 30}: the incoherent sampling estimate as it was computed
   before (the scale/12 interpolant of the outer samples through
   `quad_kernel_smooth`, the code path that change replaced, rebuilt here
   from the library's pieces) and as that change computed it (that
   interpolant integrated exactly on the nominal nodes, here by
   `oracles.linear_interpolant_line_integral`, which the library's linear
   product integration matched to 1e-13 until the estimate, read by no
   row, was deleted), against 40-digit mpmath
   integrals of the scale/12 and scale/24 interpolants: how far apart the
   two lattices are, how far the shipped scale/24 value is from the exact
   integral of its own interpolant, and how much the rounding of the
   lattice's absolute frequencies moves the scale/12 integral.  The last
   column takes the scale/24 samples through quadratic product integration
   instead (`pole_weights`, the rule of ROADMAP item 8), against the
   shipped value.
2. On every row of the shipped CW configs and of sweepbench's `cw-mot`
   config at seeds 0 and 7: the largest move of the estimate, and
   `max_population` by the quadrature it replaced against the Voigt series.
3. The smallest |max_population/0.1 - 1| over those rows, by either method:
   a validity flag flips only where the two differ by more than it.
   Then, on the nine cells of ROADMAP item 3's accuracy table, quadratic
   product integration of the scale/24 samples against the shipped value.
4. The series against 20-digit mpmath quadrature, on the 13 cases of
   `tests/test_excitation.py` and on the `cw-mot` rows at seed 0.

The exact integrals are in offsets from the band-I centre.  They take the
interpolants on the abscissae their samples were computed at, the rounded
absolute frequencies w_i_pts as `np.interp` sees them, except the last
column of table 1, which compares the scale/12 integral on those with the
one on the nominal nodes h (k - (n - 1)/2) that the estimate weighted.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))
sys.path.insert(0, str(ROOT / "tests"))

import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)
from oracles import cw_population_integral, linear_interpolant_line_integral  # noqa: E402

import sqfluor.cli as cli  # noqa: E402
from sqfluor.config import load_config  # noqa: E402
from sqfluor.excitation import (  # noqa: E402
    _cw_gain_scale,
    _cw_incoherent_integral,
    _cw_outer_samples,
    max_intermediate_population,
    one_photon_coupling,
)
from sqfluor.geometry import effective_area  # noqa: E402
from sqfluor.peaked import DEFAULT_NUMERICS, abs2_green_kernel, quad_kernel_smooth  # noqa: E402
from sqfluor.sources import SqueezedCW, gain_functions_cw  # noqa: E402
from sqfluor.spectral import ConvergenceError, pole_weights  # noqa: E402

RATIOS = (0.003, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
BETAS = (1e-3, 0.01, 0.3, 1.0, 3.0, 10.0, 30.0)
CONFIGS = ("configs/cs_mot.json", "configs/cs_mot_cw_sweep.json", "tests/data/regression_cw.json")
TWO_PI = 2.0 * np.pi


def nominal_nodes(n_points: int, step: float) -> list:
    """The lattice nodes h (k - (n - 1)/2) at 40 digits."""
    with mpmath.workdps(40):
        h = mpmath.mpf(step)
        return [h * (k - (n_points - 1) // 2) for k in range(n_points)]


def rounded_nodes(w_i_pts: np.ndarray, center: float) -> list:
    """The abscissae w_i_pts - center, exactly (both are doubles)."""
    with mpmath.workdps(40):
        return [mpmath.mpf(w) - mpmath.mpf(center) for w in w_i_pts]


def sampling_estimate(src, system, fine) -> float:
    """|fine - coarse| / fine, coarse the exact integral of the scale/12 interpolant on the nominal nodes."""
    scale = _cw_gain_scale(src)
    w_i_pts, samples = _cw_outer_samples(src, system, scale, 12.0)
    coarse = linear_interpolant_line_integral(
        nominal_nodes(len(w_i_pts), scale / 12.0), samples,
        system.omega_ba - src.center_i, 0.5 * system.gamma_b,
    )
    return abs(fine - coarse) / fine


def replaced_coarse(src, system, scale, opts=DEFAULT_NUMERICS) -> float:
    """The scale/12 term as computed before: its interpolant through `quad_kernel_smooth`."""
    w_i_pts, samples = _cw_outer_samples(src, system, scale, 12.0)

    def smooth(w):
        return np.interp(np.asarray(w, dtype=float), w_i_pts, samples, left=0.0, right=0.0)

    return float(np.real(quad_kernel_smooth(
        abs2_green_kernel(system.omega_ba, system.gamma_b), smooth, smooth_center=src.center_i,
        smooth_width=src.sigma_c_bar, smooth_scale=scale, opts=opts,
    )))


def replaced_population(src, system, coupling, a_eff, opts=DEFAULT_NUMERICS) -> float:
    """`max_population` as computed before: |G_ba|^2 s_I^2 through `quad_kernel_smooth`."""
    kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)

    def smooth(w):
        s, _ = gain_functions_cw(w, src, "I")
        return s * s

    integral = quad_kernel_smooth(
        abs2_green_kernel(system.omega_ba, system.gamma_b), smooth, smooth_center=src.center_i,
        smooth_width=src.sigma_c_bar, smooth_scale=_cw_gain_scale(src), opts=opts,
    )
    return float(kappa * np.real(integral) / (TWO_PI * a_eff))


def population_reference(src, system, coupling, a_eff) -> float:
    """`max_population` from a 20-digit mpmath quadrature of Int |G_ba|^2 s_I^2 dw."""
    g = 0.5 * system.gamma_b
    integral = cw_population_integral(
        src.beta_bar, src.sigma_c_bar / g, (system.omega_ba - src.center_i) / g
    ) / g
    kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
    return kappa * integral / (TWO_PI * a_eff)


def grid_table(system) -> None:
    gb, g = system.gamma_b, 0.5 * system.gamma_b
    print("| sigma_c_bar/Gamma_b | beta_bar | estimate before | estimate now | now - before | "
          "exact 12 vs 24 | shipped value vs exact 24 | exact 12, nominal vs rounded nodes | "
          "quadratic 24 vs shipped |")
    print("|---|---|---|---|---|---|---|---|---|")
    for ratio in RATIOS:
        for beta_bar in BETAS:
            src = SqueezedCW(beta_bar, ratio * gb, system.omega_ba, system.omega_cb)
            scale = _cw_gain_scale(src)
            fine = _cw_incoherent_integral(src, system, scale, DEFAULT_NUMERICS)
            try:
                rel_before = abs(fine - replaced_coarse(src, system, scale)) / fine
            except ConvergenceError:
                rel_before = float("nan")
            a = system.omega_ba - src.center_i
            exact = {}
            for pps in (12.0, 24.0):
                w_i_pts, samples = _cw_outer_samples(src, system, scale, pps)
                exact[pps] = linear_interpolant_line_integral(
                    rounded_nodes(w_i_pts, src.center_i), samples, a, g
                )
                if pps == 12.0:
                    nominal = linear_interpolant_line_integral(
                        nominal_nodes(len(w_i_pts), scale / pps), samples, a, g
                    )
            rel_now = abs(fine - nominal) / fine
            lattice = abs(exact[12.0] - exact[24.0]) / exact[24.0]
            shipped = (fine - exact[24.0]) / exact[24.0]
            nodes = nominal / exact[12.0] - 1.0
            print(f"| {ratio:g} | {beta_bar:g} | {rel_before:.3g} | {rel_now:.3g} | "
                  f"{rel_now - rel_before:+.2g} | {lattice:.3g} | {shipped:+.3g} | {nodes:+.2g} | "
                  f"{quadratic_against_shipped(system, src):+.3g} |", flush=True)


def quadratic_against_shipped(system, src) -> float:
    """Quadratic product integration of the scale/24 samples, relative to the shipped value."""
    scale = _cw_gain_scale(src)
    fine = _cw_incoherent_integral(src, system, scale, DEFAULT_NUMERICS)
    w_i_pts, samples = _cw_outer_samples(src, system, scale, 24.0)
    n_i, h, g = len(w_i_pts), scale / 24.0, 0.5 * system.gamma_b
    pole = (system.omega_ba - src.center_i) + 1j * g
    quadratic = float(pole_weights(-h * ((n_i - 1) // 2), h, n_i, pole).imag @ samples) / g
    return quadratic / fine - 1.0


def item3_cells(system) -> None:
    gb = system.gamma_b
    print("| sigma_c_bar/Gamma_b | beta_bar 0.1 | beta_bar 1 | beta_bar 10 |")
    print("|---|---|---|---|")
    for ratio in (0.01, 1.0, 100.0):
        cells = [
            quadratic_against_shipped(
                system, SqueezedCW(beta_bar, ratio * gb, system.omega_ba, system.omega_cb)
            )
            for beta_bar in (0.1, 1.0, 10.0)
        ]
        print(f"| {ratio:g} | " + " | ".join(f"{c:+.2g}" for c in cells) + " |")


def sweep_rows(cfg) -> list:
    """(src, outcome) of every squeezed row `run_cw_sweep` computes on this config."""
    captured = []
    original = cli.rate_squeezed_cw

    def recording(src, *args, **kwargs):
        out = original(src, *args, **kwargs)
        captured.append((src, out))
        return out

    cli.rate_squeezed_cw = recording
    try:
        cli.run_cw_sweep(cfg)
    finally:
        cli.rate_squeezed_cw = original
    return captured


def config_tables(quick_reference: bool) -> None:
    configs = [(name, load_config(ROOT / name)) for name in CONFIGS]
    with tempfile.TemporaryDirectory() as work:
        for seed in (0, 7):
            raw, _ = bench.make_config(bench.WORKLOADS["cw-mot"], seed)
            path = Path(work) / f"cw_mot_seed{seed}.json"
            path.write_text(json.dumps(raw))
            configs.append((f"sweepbench cw-mot, seed {seed}", load_config(path)))

    print("| config | rows | largest move of the estimate | largest |series/before - 1| "
          "of max_population | smallest |pop/0.1 - 1| (before, series) |")
    print("|---|---|---|---|---|")
    seed0_rows = None
    for name, cfg in configs:
        system, coupling, opts = cfg.system, cfg.coupling, cfg.numerics_options()
        area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud(), opts).a_eff
        rows = sweep_rows(cfg)
        moves, pops, margins_before, margins_now = [], [], [], []
        for src, out in rows:
            scale = _cw_gain_scale(src)
            fine = _cw_incoherent_integral(src, system, scale, opts)
            fine_rel = sampling_estimate(src, system, fine)
            try:
                before = abs(fine - replaced_coarse(src, system, scale, opts)) / fine
                moves.append(abs(fine_rel - before))
            except ConvergenceError:
                pass
            pop_before = replaced_population(src, system, coupling, area, opts)
            pops.append(abs(out.max_population / pop_before - 1.0))
            margins_before.append(abs(pop_before / 0.1 - 1.0))
            margins_now.append(abs(out.max_population / 0.1 - 1.0))
        print(f"| {name} | {len(rows)} | {max(moves):.2g} | {max(pops):.2g} | "
              f"{min(margins_before):.3g}, {min(margins_now):.3g} |", flush=True)
        if name.endswith("seed 0"):
            seed0_rows = (rows, system, coupling, area)

    if quick_reference or seed0_rows is None:
        return
    rows, system, coupling, area = seed0_rows
    worst_before = worst_now = 0.0
    for src, out in rows:
        ref = population_reference(src, system, coupling, area)
        before = replaced_population(src, system, coupling, area)
        worst_before = max(worst_before, abs(before / ref - 1))
        worst_now = max(worst_now, abs(out.max_population / ref - 1))
    print(f"\ncw-mot seed 0, max_population against mpmath: before {worst_before:.2g}, "
          f"series {worst_now:.2g} (largest relative error over {len(rows)} rows)")


def series_cases(system, coupling) -> None:
    area = 1e-8
    gb = system.gamma_b
    cases = [(r, b, 0.0) for r in (0.01, 1.0, 100.0) for b in (0.01, 1.0, 10.0, 30.0)]
    cases.append((1.0, 3.0, 0.7))
    worst = 0.0
    for ratio, beta_bar, detuning in cases:
        src = SqueezedCW(beta_bar, ratio * gb, system.omega_ba - detuning * gb, system.omega_cb)
        got = max_intermediate_population(src, system, coupling, area)
        worst = max(worst, abs(got / population_reference(src, system, coupling, area) - 1))
    print(f"\nseries against mpmath on the {len(cases)} test cases: "
          f"largest relative error {worst:.2g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the 49-cell grid")
    args = parser.parse_args()
    cfg = load_config(ROOT / "configs" / "cs_mot.json")
    if not args.quick:
        grid_table(cfg.system)
        print()
    config_tables(args.quick)
    print()
    item3_cells(cfg.system)
    series_cases(cfg.system, cfg.coupling)


if __name__ == "__main__":
    main()
