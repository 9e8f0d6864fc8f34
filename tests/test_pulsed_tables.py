"""The Gaussian-series tables of the pulsed squeezed engine against their references.

`excitation.PulsedExcitationEngine` reads three tables per panel.  Each is
checked here against `tests/oracles.py`: the entries against adaptive
quadrature of their closed-form pieces, the one-mode limit against the
classical pulse pair, the many-mode panels against the Schmidt-mode lattice
engine with exact Hermite tables, and every row against tables built at
twice the nodes and ten more series terms.
"""

import logging
import math

import numpy as np
import pytest

import oracles
from oracles import (
    ExactHermiteLatticeEngine,
    classical_pulse_pair_probability,
    coherent_kernel,
    eager_schmidt_decompose_analytic,
    incoherent_kernel,
    photon_number_mpmath,
    photon_number_series,
    population_kernel,
    pulsed_units,
)

import sqfluor.cli as cli
import sqfluor.excitation as excitation
from sqfluor.cli import run_pulsed_sweep
from sqfluor.config import load_config
from sqfluor.excitation import (
    PulsedExcitationEngine,
    one_photon_coupling,
    p_classical_pulsed,
    p_squeezed_pulsed,
)
from sqfluor.sources import (
    ClassicalPulsed,
    SqueezedPulsed,
    geometric_mode_ratio,
    photon_number_pulsed,
)
from sqfluor.spectral import ConvergenceError, GaussianAmplitude
from test_cli import tiny_pulsed_config

# (sigma_p / Gamma_b, sigma_c / sigma_p) of the shipped pulsed config and of
# sweepbench's two pulsed workloads (pulsed-fewmode's six are among the nine).
SHIPPED_PANELS = [(sp, sc) for sp in (0.1, 1.0, 10.0) for sc in (1.0, 10.0, 100.0)] + [
    (0.1, 30.0)
]


def panel(system, sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned=False):
    """A double-Gaussian source; detuned: band I 5 Gamma_b off omega_ba, the pair 2 Gamma_c off omega_ca."""
    gb, gc = system.gamma_b, system.gamma_c
    sigma_p = sigma_p_over_gamma_b * gb
    center_i, center_ii = system.omega_ba, system.omega_cb
    if detuned:
        center_i = system.omega_ba + 5.0 * gb
        center_ii = (system.omega_ca + 2.0 * gc) - center_i
    return SqueezedPulsed(sigma_p, sigma_c_over_sigma_p * sigma_p, center_i, center_ii)


def raw_tables(src, system, n_terms, n_nodes=128):
    """T, Q and the population table at tau = -1, 0, 0.7, 3 (no prefactors)."""
    u = pulsed_units(src, system)
    vc = excitation._on_resonance(u["vc"] * u["sigma_s"], system.omega_ca) / u["sigma_s"]
    mu = u["mu"]
    a_c, n_c = excitation._mehler(mu ** np.arange(1.0, n_terms + 1.0))
    a_a, n_a = excitation._mehler(mu ** (np.arange(n_terms) + 0.5))
    tau = np.array([-1.0, 0.0, 0.7, 3.0])
    return (
        excitation._incoherent_table(a_c, n_c, u["g"], u["gc"], vc, u["delta"], n_nodes),
        excitation._coherent_table(a_a, n_a, u["g"], u["gc"], vc, u["delta"], n_nodes),
        excitation._population_table(a_c, n_c, u["g"], u["delta"], tau, n_nodes),
        tau,
        dict(u, vc=vc),
    )


@pytest.mark.parametrize("sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned", [
    (1.0, 10.0, False), (0.1, 3.0, False), (10.0, 5.0, True),
])
def test_table_entries_match_adaptive_quadrature(
    cs_system, sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned
):
    # The coherent reference integrates in frequency and the population's in
    # the other time order, so only the incoherent one shares its form.
    system, _ = cs_system
    src = panel(system, sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned)
    t, q, pop, tau, u = raw_tables(src, system, 6)
    mu = u["mu"]
    for k, l in ((0, 0), (0, 5), (5, 0), (2, 3)):
        assert t[k, l] == pytest.approx(incoherent_kernel(mu, k + 1, l + 1, u), rel=1e-12)
        assert q[k, l] == pytest.approx(coherent_kernel(mu, k, l, u), rel=1e-12)
    for k in (0, 5):
        for j, time in enumerate(tau):
            assert pop[k, j] == pytest.approx(population_kernel(mu, k + 1, time, u), rel=1e-12)


@pytest.mark.parametrize("width_over_gamma_b", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_one_mode_tables_are_the_classical_pulse_pair(
    cs_system, cs_eta, mot_area, width_over_gamma_b
):
    # At sigma_c = sigma_p (mu = 0) the one Schmidt mode is the classical
    # pulse, so with N = sinh^2(beta) photons per band both squeezed levels
    # are the classical pair's probability times (s c)^2 / N^2 and s^4 / N^2,
    # and the population is the classical one.
    system, coupling = cs_system
    width = width_over_gamma_b * system.gamma_b
    src = SqueezedPulsed(width, width, system.omega_ba, system.omega_cb)
    beta = 0.9
    n_photons = math.sinh(beta) ** 2
    pair = ClassicalPulsed(
        GaussianAmplitude(src.center_i, width), GaussianAmplitude(src.center_ii, width),
        n_photons, n_photons,
    )
    out = p_squeezed_pulsed(src, beta, system, cs_eta, mot_area, coupling)
    exact = classical_pulse_pair_probability(pair, system, cs_eta, mot_area)
    assert out.incoherent == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert out.coherent == pytest.approx(exact * math.cosh(beta) ** 2 / n_photons, rel=1e-10)
    population = p_classical_pulsed(pair, system, cs_eta, mot_area, coupling).max_population
    assert out.max_population == pytest.approx(population, rel=1e-12)


@pytest.mark.parametrize("sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned", [
    (1.0, 3.0, False), (10.0, 10.0, False), (10.0, 5.0, True),
])
def test_rows_match_the_exact_hermite_lattice_engine(
    cs_system, cs_eta, mot_area, monkeypatch,
    sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned,
):
    # The lattice oracle at 24 points per feature, read on one stride-1
    # outer lattice (no ladder), with exact Hermite tables on all but 1e-14
    # of the Schmidt weight (the coherent amplitude weights mode n by
    # sqrt(p_n), so a 1e-14 tail leaves 1e-7).  Its population is read on its
    # own time grid, so the tables' population is taken on that grid too.
    system, coupling = cs_system
    src = panel(system, sigma_p_over_gamma_b, sigma_c_over_sigma_p, detuned)
    dec = eager_schmidt_decompose_analytic(src, trunc_tol=1e-14)
    monkeypatch.setattr(oracles, "POINTS_PER_FEATURE", 24)
    monkeypatch.setattr(oracles, "SAMPLES_PER_SIGMA", 1e9)
    lattice = ExactHermiteLatticeEngine(src, dec, system, cs_eta, mot_area, coupling)
    assert lattice.ladder == [1]
    betas = [0.1, 1.0, 2.5]
    r0_max = max(betas) * math.sqrt(dec.p[0])
    engine = PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=r0_max)
    u = pulsed_units(src, system)
    tau = u["sigma_s"] * excitation._time_grid(1.0 / lattice.sigma_like)
    a_c, n_c = excitation._mehler(u["mu"] ** (0.5 * engine.c_orders))
    pop_table = excitation._population_table(a_c, n_c, u["g"], u["delta"], tau, 128)
    kappa = one_photon_coupling(src.center_i, coupling.mu_sq_ba)
    for beta in betas:
        out, ref = engine.outcome(beta), lattice.outcome(beta)
        assert out.coherent == pytest.approx(ref.coherent, rel=1e-6, abs=0.0)
        assert out.incoherent == pytest.approx(ref.incoherent, rel=1e-6, abs=0.0)
        c, _ = engine.series(beta)
        peak = kappa * float(np.max(c @ pop_table)) / (u["sigma_s"] * mot_area)
        assert peak == pytest.approx(ref.max_population, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.669, 0.875, 0.961])
def test_photon_number_series_matches_the_analytic_spectrum(mu):
    # sum_k c_k / (1 - mu^k) over every mode against sum_n sinh^2(beta sqrt(p_n))
    # over the spectrum cut at 1e-16 of its weight.
    p = (1.0 - mu) * mu ** np.arange(1 if mu == 0.0 else 2000)
    p = p[p >= 1e-16 * p[0]]
    for beta in (0.01, 0.5, 3.0, 20.0):
        mode_sum = float(np.sum(np.sinh(beta * np.sqrt(p)) ** 2))
        assert photon_number_series(mu, beta) == pytest.approx(mode_sum, rel=1e-13)
        assert photon_number_mpmath(mu, beta) == pytest.approx(mode_sum, rel=1e-13)


@pytest.mark.parametrize("sigma_c_over_sigma_p", [10.0, 100.0, 1e3, 1e4])
def test_engine_photon_number_matches_mpmath(cs_system, cs_eta, mot_area, sigma_c_over_sigma_p):
    # N(beta) = c . photon_weights sums every mode, also far past the
    # analytic spectrum's 2000-mode cap (from sigma_c/sigma_p of about 440).
    system, _ = cs_system
    src = panel(system, 0.01, sigma_c_over_sigma_p)
    r0_max = math.asinh(100.0)
    engine = PulsedExcitationEngine(src, system, cs_eta, mot_area, r0_max=r0_max)
    betas = np.array([1e-3, 0.1, 1.0, 3.0, r0_max]) / engine.sqrt_p0
    read = engine.photon_number(betas)
    assert read.tolist() == [engine.photon_number(beta) for beta in betas.tolist()]
    mu = geometric_mode_ratio(src)
    for beta, n_photons in zip(betas.tolist(), read.tolist()):
        oracle = photon_number_mpmath(mu, beta)
        assert n_photons == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert photon_number_pulsed(src, beta) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma_p_over_gamma_b, sigma_c_over_sigma_p", SHIPPED_PANELS)
def test_rows_equal_tables_at_twice_the_nodes_and_ten_more_terms(
    cs_system, cs_eta, mot_area, monkeypatch, sigma_p_over_gamma_b, sigma_c_over_sigma_p
):
    system, coupling = cs_system
    src = panel(system, sigma_p_over_gamma_b, sigma_c_over_sigma_p)
    r0_max = math.asinh(100.0)  # the sweeps' largest photon number, 1e4
    engine = PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=r0_max)

    doubled, orders = excitation._doubled, excitation._series_orders

    def twice_the_nodes(table, n_nodes, what):
        _, n_final, rel = doubled(table, n_nodes, what)
        return table(2 * n_final), 2 * n_final, rel

    def ten_more_terms(r0, odd):
        kept = orders(r0, odd)
        return np.append(kept, kept[-1] + 2.0 * np.arange(1, 11))

    monkeypatch.setattr(excitation, "_doubled", twice_the_nodes)
    monkeypatch.setattr(excitation, "_series_orders", ten_more_terms)
    ref = PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=r0_max)
    assert len(ref.c_orders) == len(engine.c_orders) + 10
    for r0 in (1e-3, 0.1, 1.0, 3.0, r0_max):
        beta = r0 / engine.sqrt_p0
        out, exact = engine.outcome(beta), ref.outcome(beta)
        assert out.coherent == pytest.approx(exact.coherent, rel=1e-12, abs=0.0)
        assert out.incoherent == pytest.approx(exact.incoherent, rel=1e-12, abs=0.0)
        assert out.max_population == pytest.approx(exact.max_population, rel=1e-12, abs=0.0)
        assert out.diagnostics["quadrature_rel_err"] <= excitation.TABLE_REL_TOL


def test_a_table_that_cannot_converge_raises(cs_system, cs_eta, mot_area, monkeypatch):
    system, coupling = cs_system
    src = panel(system, 1.0, 10.0)
    monkeypatch.setattr(excitation, "MAX_TABLE_NODES", 32)
    with pytest.raises(ConvergenceError, match="incoherent table did not converge"):
        PulsedExcitationEngine(src, system, cs_eta, mot_area, coupling, r0_max=1.0)


def test_a_panel_whose_tables_fail_fails_its_rows_only(tmp_path, monkeypatch, caplog):
    # The many-mode panel's build raises; each of its rows fails with that
    # error and a WARNING, and the one-mode panel is computed as before.
    cfg = load_config(tiny_pulsed_config(tmp_path))
    undisturbed = run_pulsed_sweep(cfg)

    class Failing(cli.PulsedExcitationEngine):
        def __init__(self, src, *args, **kwargs):
            if src.sigma_c > src.sigma_p:
                raise ConvergenceError(1.0, 2.0, 0.5, "incoherent table")
            super().__init__(src, *args, **kwargs)

    monkeypatch.setattr(cli, "PulsedExcitationEngine", Failing)
    with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
        rows = run_pulsed_sweep(cfg)
    assert rows[:3] == undisturbed[:3]
    assert [row["validity"] for row in rows[3:]] == ["failed"] * 3
    assert all(math.isnan(row["p_sq_coherent"]) for row in rows[3:])
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(messages) == 3
    assert all("ConvergenceError: incoherent table did not converge" in m for m in messages)
