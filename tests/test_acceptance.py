"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` (or let the summary lines
surface through pytest's captured output on failure).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    eager_schmidt_decompose_analytic,
    g2_pulsed_kernels,
    truncated,
    weighted_mode_count,
)

from sqfluor.cli import CW_COLUMNS, emit, run_cw_sweep
from sqfluor.config import load_config
from sqfluor.excitation import (
    energy_ledger,
    fluorescence,
    matched_classical_cw,
    matched_classical_pulsed,
    p_classical_pulsed,
    p_squeezed_pulsed,
    rate_classical_cw,
    rate_squeezed_cw,
)
from sqfluor.geometry import AtomCloud, BeamProfile, effective_area, fwhm_to_sigma, waist_fwhm_to_w0
from sqfluor.sources import (
    ClassicalCW,
    SqueezedCW,
    SqueezedPulsed,
    geometric_mode_ratio,
    photon_rate_cw,
    schmidt_decompose,
)
from sqfluor.spectral import GaussianAmplitude, SpectralGrid
from sqfluor.sources import ClassicalPulsed
from sqfluor.system import FourLevelSystem, TRANSITIONS
from sqfluor.excitation import ExcitationOutcome, population_integrals_from_probability

DATA = Path(__file__).resolve().parent / "data"


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_effective_area(cs_system):
    """A_eff for the 0.1 mm MOT case study, checked against the closed form.

    For collimated beams of waist w0 and an isotropic Gaussian cloud of
    per-axis width sigma, the documented overlap integral gives

        A_eff = (pi/2) w0 sqrt(w0^2 + 8 sigma^2),

    and beam divergence can only enlarge it.  Since w(z) >= w0, every cloud
    obeys A_eff >= pi w0^2 / 2; the quoted reference of 220 um^2 lies below
    that bound for 0.1 mm beams, so it is reported, not used as the target.
    """
    quoted = 220e-12
    cloud = AtomCloud(fwhm_to_sigma(0.1e-3), 1e6)
    sigma = cloud.sigma
    t0 = time.perf_counter()
    results = {}
    closed_forms = {}
    lower_bounds = {}
    for convention in ("intensity", "half"):
        w0 = waist_fwhm_to_w0(0.1e-3, convention)
        closed_forms[convention] = 0.5 * np.pi * w0 * np.sqrt(w0**2 + 8.0 * sigma**2)
        lower_bounds[convention] = 0.5 * np.pi * w0**2
        beam = BeamProfile(w0)
        results[f"{convention}/collimated"] = effective_area(beam, beam, cloud).a_eff
        for label, wavelength in (("895nm", 895e-9), ("1360nm", 1.36e-6)):
            beam = BeamProfile(w0, wavelength=wavelength)
            results[f"{convention}/{label}"] = effective_area(beam, beam, cloud).a_eff
    elapsed = time.perf_counter() - t0

    checks = []
    for convention, closed in closed_forms.items():
        checks.append(results[f"{convention}/collimated"] == pytest.approx(closed, rel=1e-14))
        for label in ("895nm", "1360nm"):
            a_eff = results[f"{convention}/{label}"]
            checks.append(a_eff >= closed and a_eff == pytest.approx(closed, rel=1e-4))
        checks.append(quoted < lower_bounds[convention])
    passed = all(checks) and elapsed < 1.0
    detail = (
        "A_eff = "
        + ", ".join(f"{k}: {v * 1e12:.1f} um^2" for k, v in results.items())
        + "; closed form "
        + ", ".join(f"{k}: {v * 1e12:.1f} um^2" for k, v in closed_forms.items())
        + "; lower bound pi w0^2/2 "
        + ", ".join(f"{k}: {v * 1e12:.0f} um^2" for k, v in lower_bounds.items())
        + f"; quoted reference 220 um^2 (below the bound); runtime {elapsed:.2f}s"
    )
    report(1, passed, detail)
    # DECISIONS.md records the bound, the closed form and the computed values;
    # test_geometry also checks the formula against an independent 3D
    # quadrature.
    assert passed, detail


def test_criterion_2_cw_narrowband_factor_two(cs_system, cs_eta, mot_area):
    system, _ = cs_system
    ratios = []
    worst_time = 0.0
    for beta_bar in (10.0, 14.0):
        src = SqueezedCW(beta_bar, 0.01 * system.gamma_b, system.omega_ba, system.omega_cb)
        t0 = time.perf_counter()
        out = rate_squeezed_cw(src, system, cs_eta, mot_area)
        classical = rate_classical_cw(
            matched_classical_cw(src, mot_area, photon_rate_cw(src)), system, cs_eta
        )
        worst_time = max(worst_time, time.perf_counter() - t0)
        ratios.append(out.total / classical.total)
    passed = all(abs(r - 2.0) <= 0.10 for r in ratios) and worst_time < 10.0
    detail = (
        f"total/classical = {ratios[0]:.4f}, {ratios[1]:.4f} (target 2 +/- 5%), "
        f"worst point {worst_time:.2f}s"
    )
    report(2, passed, detail)
    assert passed, detail


def test_criterion_3_cw_broadband_ratio_law(cs_system, cs_eta, mot_area):
    system, _ = cs_system
    gb, gc = system.gamma_b, system.gamma_c
    sigma = 100.0 * gb
    deviations = []
    for beta_bar in (0.1, 0.4, 1.0, 3.0, 10.0):
        src = SqueezedCW(beta_bar, sigma, system.omega_ba, system.omega_cb)
        out = rate_squeezed_cw(src, system, cs_eta, mot_area)
        law = (gb / gc) * (1.0 + 1.0 / np.sinh(beta_bar) ** 2)
        deviations.append(out.coherent / out.incoherent / law - 1.0)
    src = SqueezedCW(20.0, sigma, system.omega_ba, system.omega_cb)
    out = rate_squeezed_cw(src, system, cs_eta, mot_area)
    limit = out.coherent / out.incoherent
    passed = max(abs(d) for d in deviations) <= 0.05 and abs(limit - 2.11) <= 0.05 * 2.11
    detail = (
        f"max |ratio/law - 1| = {max(abs(d) for d in deviations):.3%} over beta_bar in [0.1, 10]; "
        f"high-gain ratio {limit:.3f} vs 2.11"
    )
    report(3, passed, detail)
    assert passed, detail


def test_criterion_4_scaling_exponents(cs_system, cs_eta, mot_area):
    system, _ = cs_system
    sigma = system.gamma_b

    def coherent_slope(betas):
        logs_x, logs_y = [], []
        for beta_bar in betas:
            src = SqueezedCW(beta_bar, sigma, system.omega_ba, system.omega_cb)
            logs_x.append(np.log(photon_rate_cw(src)))
            logs_y.append(np.log(rate_squeezed_cw(src, system, cs_eta, mot_area).coherent))
        return float(np.polyfit(logs_x, logs_y, 1)[0])

    low = coherent_slope(np.geomspace(1e-3, 1e-2, 5))
    high = coherent_slope(np.geomspace(10.0, 30.0, 5))
    fluxes = np.geomspace(1e10, 1e14, 5)
    rates = [
        rate_classical_cw(ClassicalCW(f, f, system.omega_ba, system.omega_cb), system, cs_eta).total
        for f in fluxes
    ]
    # classical photon rate per band is proportional to the flux
    classical = float(np.polyfit(np.log(fluxes), np.log(rates), 1)[0])
    passed = abs(low - 1.0) <= 0.02 and abs(high - 2.0) <= 0.02 and abs(classical - 2.0) <= 0.02
    detail = f"slopes: coherent low {low:.4f} (1.00), high {high:.4f} (2.00), classical {classical:.4f} (2.00)"
    report(4, passed, detail)
    assert passed, detail


def test_criterion_5_low_gain_photon_rate(cs_system):
    system, _ = cs_system
    src = SqueezedCW(0.01, system.gamma_b, system.omega_ba, system.omega_cb)
    rate = photon_rate_cw(src)
    expected = src.beta_bar**2 / src.t_c
    passed = abs(rate / expected - 1.0) <= 0.01
    detail = f"rate / (beta_bar^2/T_c) = {rate / expected:.5f} (1 +/- 1%)"
    report(5, passed, detail)
    assert passed, detail


def test_criterion_6_schmidt_spectrum_oracle(cs_system):
    system, _ = cs_system
    gb = system.gamma_b
    t0 = time.perf_counter()
    sep = SqueezedPulsed(gb, gb, system.omega_ba, system.omega_cb)
    dec_sep = schmidt_decompose(sep)
    sep_ok = dec_sep.n_modes == 1 and abs(dec_sep.p[0] - 1.0) <= 1e-6
    worst = 0.0
    for ratio, n_grid in ((10.0, None), (100.0, 1025)):
        src = SqueezedPulsed(gb / np.sqrt(ratio), gb * np.sqrt(ratio),
                             system.omega_ba, system.omega_cb)
        grids = None
        if n_grid:
            half = 8.0 * src.sigma_c
            grids = (
                SpectralGrid(system.omega_ba, half, n_grid),
                SpectralGrid(system.omega_cb, half, n_grid),
            )
        dec = (
            schmidt_decompose(src, *grids, trunc_tol=1e-6)
            if grids else schmidt_decompose(src, trunc_tol=1e-6)
        )
        mu = geometric_mode_ratio(src)
        law = (1.0 - mu) * mu ** np.arange(20)
        worst = max(worst, float(np.max(np.abs(dec.p[:20] - law))))
    elapsed = time.perf_counter() - t0
    passed = sep_ok and worst <= 1e-4 and elapsed < 5.0
    detail = (
        f"separable p0 = {dec_sep.p[0]:.8f}; max |p_n - geometric| = {worst:.2e} "
        f"over first 20 modes (<= 1e-4); runtime {elapsed:.2f}s"
    )
    report(6, passed, detail)
    assert passed, detail


def test_criterion_7_pulsed_separable_identities(cs_system, cs_eta, mot_area):
    system, _ = cs_system
    gb = system.gamma_b
    worst_ratio = worst_total = 0.0
    for n_photons in (0.1, 1.0, 10.0):
        beta = float(np.arcsinh(np.sqrt(n_photons)))
        src = SqueezedPulsed(gb, gb, system.omega_ba, system.omega_cb)
        out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area)
        classical = p_classical_pulsed(
            matched_classical_pulsed(src, beta), system, cs_eta, mot_area
        )
        worst_ratio = max(
            worst_ratio, abs(out.coherent / out.incoherent / (1.0 + 1.0 / n_photons) - 1.0)
        )
        worst_total = max(
            worst_total, abs(out.total / classical.total / (2.0 + 1.0 / n_photons) - 1.0)
        )
    passed = worst_ratio <= 0.01 and worst_total <= 0.01
    detail = (
        f"max |coh/incoh / (1+1/N) - 1| = {worst_ratio:.3%}, "
        f"max |total/classical / (2+1/N) - 1| = {worst_total:.3%} (<= 1%)"
    )
    report(7, passed, detail)
    assert passed, detail


def test_criterion_8_pulsed_broadband_convergence(cs_system, cs_eta, mot_area):
    """Fig.-7 quantity: ratio of the coherent to incoherent contributions to
    the second-order correlation function at the band centers, for
    sigma_p = 10 Gamma_b and sigma_c/sigma_p in {10, 100} at |beta| sqrt(p0) >= 3.

    The full-quadrature probability ratio is reported alongside: it stays
    below one because mode pairs of odd combined parity contribute
    principal-value terms that the broadband-limit expressions drop (see
    DECISIONS.md).  The pulsed tables, which hold every Schmidt mode, give
    0.7328 at sigma_c/sigma_p = 10 and 0.5509 at 100.
    """
    system, _ = cs_system
    gb = system.gamma_b
    g2_ratios = {}
    full_ratios = {}
    for ratio in (10.0, 100.0):
        sigma_p = 10.0 * gb
        src = SqueezedPulsed(sigma_p, ratio * sigma_p, system.omega_ba, system.omega_cb)
        mu = geometric_mode_ratio(src)
        beta = 3.0 / np.sqrt(1.0 - mu)
        dec = eager_schmidt_decompose_analytic(src, trunc_tol=1e-5)
        kernels = g2_pulsed_kernels(truncated(dec, weighted_mode_count(dec, beta, 1e-6)), beta)
        g2_ratios[ratio] = float(
            kernels.g2_coherent_value(system.omega_ba, system.omega_cb)
            / kernels.g2_incoherent_value(system.omega_ba, system.omega_cb)
        )
        out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area)
        full_ratios[ratio] = out.coherent / out.incoherent
    passed = all(abs(r - 1.0) <= 0.05 for r in g2_ratios.values())
    detail = (
        f"G2 coherent/incoherent at centers: {g2_ratios[10.0]:.4f}, {g2_ratios[100.0]:.4f} "
        f"(1 +/- 5%); full-quadrature probability ratios: {full_ratios[10.0]:.4f}, "
        f"{full_ratios[100.0]:.4f} (reported; odd-parity pairs excluded from the limit)"
    )
    report(8, passed, detail)
    assert passed, detail


def test_criterion_9_energy_conservation(cs_system):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        omegas = rng.uniform(0.5e15, 3e15, 3)
        omega_ba, omega_cb, omega_cd = omegas
        omega_da = omega_ba + omega_cb - omega_cd
        if omega_da <= 0:
            continue
        gamma_r = {t: rng.uniform(0, 5e7) for t in TRANSITIONS}
        gamma_nr = {t: rng.uniform(0, 5e7) for t in TRANSITIONS}
        gamma_r["ba"] += 1.0  # keep the constructor invariants satisfied
        gamma_r["cb"] += 1.0
        sys4 = FourLevelSystem(omega_ba, omega_cb, omega_cd, omega_da, gamma_r, gamma_nr)
        pops = {level: rng.uniform(0, 1e-6) for level in ("b", "c", "d")}
        ledger = energy_ledger(pops, sys4)
        worst = max(
            worst,
            abs(ledger.extinction - (ledger.total_scattered + ledger.total_absorbed)),
        )
    system, _ = cs_system
    p_exc = 7.3e-8
    ledger = energy_ledger(population_integrals_from_probability(p_exc, system), system)
    from scipy.constants import hbar

    photons = ledger.scattered["da"] / (hbar * system.omega_da)
    count = fluorescence(ExcitationOutcome(p_exc, 0.0), system, 1.0).per_atom
    count_dev = abs(photons / count - 1.0)
    passed = worst == 0.0 and count_dev <= 1e-12
    detail = (
        f"1000 randomized ledgers: max |extinction - scattered - absorbed| = {worst:.1e}; "
        f"d->a photon count vs branching formula: rel dev {count_dev:.2e}"
    )
    report(9, passed, detail)
    assert passed, detail


def test_criterion_10_oracle_equivalence_and_regression(cs_system, cs_eta, mot_area, tmp_path):
    system, _ = cs_system
    sigma = system.gamma_b / 100.0
    src = ClassicalPulsed(
        GaussianAmplitude(system.omega_ba, sigma),
        GaussianAmplitude(system.omega_cb, sigma),
        1.0, 1.0,
    )
    prob = p_classical_pulsed(src, system, cs_eta, mot_area).total
    t_eff = np.sqrt(2.0 * np.pi) / sigma
    flux = 1.0 / (mot_area * t_eff)
    cw = rate_classical_cw(
        ClassicalCW(flux, flux, system.omega_ba, system.omega_cb), system, cs_eta
    ).total
    oracle_dev = abs(prob / t_eff / cw - 1.0)

    cfg = load_config(DATA / "regression_cw.json")
    rows = run_cw_sweep(cfg)
    fresh = tmp_path / "regression_cw.csv"
    emit(rows, CW_COLUMNS, cfg, fresh, reproducible=True)
    golden = (DATA / "golden_cw.csv").read_bytes()
    identical = fresh.read_bytes() == golden
    passed = oracle_dev <= 0.01 and identical
    detail = (
        f"pulsed-engine CW limit vs closed form: rel dev {oracle_dev:.3%} (<= 1%); "
        f"golden sweep CSV byte-identical: {identical}"
    )
    report(10, passed, detail)
    assert passed, detail
