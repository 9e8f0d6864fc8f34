"""The Gaussian-series CW references in `tests/oracles.py`, and the CW accuracy gate.

Each reference is checked against adaptive quadrature of a form that does
not use its series: the incoherent table entry by entry in frequency (a
Voigt profile inside), and the coherent amplitude and the photon rate on
their unexpanded integrands.  The table `rate_squeezed_cw` builds is held
to the reference table, and the gate holds the rows of
`tests/data/regression_cw.json` to the references, column by column.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    cw_coherent_amplitude,
    cw_incoherent_entry,
    cw_incoherent_table,
    cw_photon_rate,
    cw_reference_columns,
    cw_series_orders,
)

import sqfluor.excitation as excitation
from sqfluor.cli import run_cw_sweep
from sqfluor.config import load_config
from sqfluor.excitation import CwExcitationEngine, rate_squeezed_cw
from sqfluor.geometry import effective_area
from sqfluor.sources import GainSeries, SqueezedCW
from sqfluor.system import eta_prefactor

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sigma_c_bar / Gamma_b of the three columns of regression_cw.json.
COLUMNS = (0.01, 1.0, 100.0)


def half_widths(system, ratio):
    """(g, gc): the half-widths of |G_ba|^2 and L in units of sigma_c_bar."""
    sigma = ratio * system.gamma_b
    return 0.5 * system.gamma_b / sigma, 0.5 * system.gamma_c / sigma


class TestIncoherentTable:
    @pytest.mark.parametrize("ratio", COLUMNS)
    def test_entries_match_adaptive_quad_in_frequency(self, cs_system, ratio):
        # The corners and an inner pair, with k != l both ways round: the
        # table's band-II and band-I orders are not interchangeable.
        g, gc = half_widths(cs_system[0], ratio)
        orders = cw_series_orders(10.0)
        table = cw_incoherent_table(orders, g, gc)
        top = len(orders)
        for k, l in ((1, 1), (1, top), (top, 1), (5, 9), (9, 5), (top, top)):
            exact = cw_incoherent_entry(k, l, g, gc)
            assert table[k - 1, l - 1] == pytest.approx(exact, rel=1e-13, abs=0.0), (k, l)

    @pytest.mark.parametrize("ratio", COLUMNS)
    def test_two_node_sets_agree(self, cs_system, ratio):
        g, gc = half_widths(cs_system[0], ratio)
        orders = cw_series_orders(10.0)
        coarse = cw_incoherent_table(orders, g, gc, nodes=64, panels=8)
        fine = cw_incoherent_table(orders, g, gc, nodes=128, panels=16)
        assert np.max(np.abs(fine / coarse - 1.0)) <= 1e-13


SWEEP_WIDTHS = tuple(load_config(CONFIGS / "cs_mot_cw_sweep.json").source["sigma_c_over_gamma_b"])


@pytest.mark.parametrize("ratio", SWEEP_WIDTHS)
@pytest.mark.parametrize("beta_bar", [10.0, 30.0])
def test_program_table_matches_the_reference_table(
    cs_system, cs_eta, mot_area, monkeypatch, ratio, beta_bar
):
    # The R table `rate_squeezed_cw` settles on (the Kronrod row of the last
    # pair it builds) against the reference's 16 panels of 128 nodes, entry
    # by entry.
    system = cs_system[0]
    built = []
    original = excitation._cw_incoherent_table

    def recording(k, *args):
        pair, size = original(k, *args)
        built.append((k, pair[0]))
        return pair, size

    monkeypatch.setattr(excitation, "_cw_incoherent_table", recording)
    src = SqueezedCW(beta_bar, ratio * system.gamma_b, system.omega_ba, system.omega_cb)
    rate_squeezed_cw(src, system, cs_eta, mot_area)
    orders, table = built[-1]
    g, gc = half_widths(system, ratio)
    reference = cw_incoherent_table(orders, g, gc, nodes=128, panels=16)
    assert np.max(np.abs(table / reference - 1.0)) <= 1e-12


@pytest.mark.parametrize("detuning", [2.0, -2.0, 10.0])
@pytest.mark.parametrize("beta_bar", [1.0, 10.0, 30.0])
def test_columns_off_two_photon_resonance_settle(cs_system, cs_eta, mot_area, detuning, beta_bar):
    # Band II `detuning` Gamma_b off omega_cb at sigma_c_bar = Gamma_b: the
    # table's integrand oscillates, and its Gauss-Kronrod difference is
    # measured against the size of its integrals, as the classical pulse
    # pair's is.  Measured against its largest entry, node doubling could
    # not settle at 2 Gamma_b from beta_bar 10 on, nor at 10 Gamma_b at
    # all.  The table the engine settles on matches the Kronrod table at
    # twice its nodes to 1e-12 of that size.
    system = cs_system[0]
    src = SqueezedCW(
        beta_bar, system.gamma_b, system.omega_ba, system.omega_cb + detuning * system.gamma_b
    )
    engine = CwExcitationEngine(src, system, cs_eta, mot_area)
    assert engine.diagnostics["quadrature_rel_err"] <= excitation.TABLE_REL_TOL
    g, gc = half_widths(system, 1.0)
    # The Lorentzian's offset as the engine forms it, from the rounded centres.
    vc = ((system.omega_ca - src.center_i) - src.center_ii) / src.sigma_c_bar
    k = GainSeries(beta_bar).even / 2.0

    def table(n_nodes):
        return excitation._cw_incoherent_table(k, g, gc, vc, 0.0, n_nodes)

    _, n_nodes, _ = excitation._doubled(table, 32, "CW incoherent table")
    finer, size = table(2 * n_nodes)
    assert np.max(np.abs(finer[0] - engine.incoherent_table)) <= 1e-12 * np.max(size)


@pytest.mark.parametrize("config", [CONFIGS / "cs_mot.json", DATA / "regression_cw.json"])
def test_column_engine_reads_match_one_row_engines(config):
    # Every row of the config, read from its column's engine (built at the
    # column's largest beta_bar, as the sweep builds it), against a one-row
    # `rate_squeezed_cw`: the column's table has more orders and its own
    # nodes, so the two agree to rounding, not bit for bit.
    cfg = load_config(config)
    system, coupling = cfg.system, cfg.coupling
    eta = eta_prefactor(system, coupling)
    area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
    rows = run_cw_sweep(cfg)
    columns = {}
    for row in rows:
        columns.setdefault(row["sigma_c_over_gamma_b"], []).append(row)
    for ratio, column_rows in columns.items():
        def source(beta_bar):
            return SqueezedCW(beta_bar, ratio * system.gamma_b, system.omega_ba, system.omega_cb)

        top = max(row["beta_bar"] for row in column_rows)
        engine = CwExcitationEngine(source(top), system, eta, area, coupling)
        for row in column_rows:
            src = source(row["beta_bar"])
            read = rate_squeezed_cw(src, system, eta, area, coupling, engine=engine)
            alone = rate_squeezed_cw(src, system, eta, area, coupling)
            assert (row["r_sq_coherent"], row["r_sq_incoherent"]) == (read.coherent, read.incoherent)
            for name in ("coherent", "incoherent", "max_population"):
                got, want = getattr(read, name), getattr(alone, name)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (ratio, row["beta_bar"], name)
            assert set(read.diagnostics) == set(alone.diagnostics) == {
                "series_terms", "quadrature_rel_err"
            }
            assert read.diagnostics == engine.diagnostics
            assert alone.diagnostics["series_terms"] <= read.diagnostics["series_terms"]
            assert 0.0 <= read.diagnostics["quadrature_rel_err"] <= excitation.TABLE_REL_TOL


def gain_integral(f, beta_bar):
    """2 Int_0^inf f(x) dx for an even f carried by exp(-x^2/2), split at its gain-narrowed width."""
    narrow = 1.0 / np.sqrt(1.0 + 2.0 * beta_bar)
    edges = [0.0, narrow, 4.0 * narrow, 40.0]
    return 2.0 * sum(
        quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize("ratio", COLUMNS)
@pytest.mark.parametrize("beta_bar", [0.1, 1.0, 10.0])
def test_coherent_amplitude_matches_adaptive_quad(cs_system, ratio, beta_bar):
    # In x = (w - omega_ba)/sigma, G_ba dw = -dx/(x + i g): the real part is
    # odd in x and integrates to zero, the imaginary part is g/(x^2 + g^2).
    g, _ = half_widths(cs_system[0], ratio)
    sigma = ratio * cs_system[0].gamma_b

    def f(x):
        r = np.exp(-0.5 * x * x)
        return np.sinh(beta_bar * r) * np.cosh(beta_bar * r) * g / (x * x + g * g)

    amplitude = cw_coherent_amplitude(beta_bar, sigma, cs_system[0].gamma_b)
    assert amplitude.real == 0.0
    assert amplitude.imag == pytest.approx(gain_integral(f, beta_bar), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta_bar", [0.1, 1.0, 10.0, 30.0])
def test_photon_rate_matches_adaptive_quad(beta_bar):
    sigma = 2.9e7

    def f(x):
        return np.sinh(beta_bar * np.exp(-0.5 * x * x)) ** 2

    direct = sigma * gain_integral(f, beta_bar) / (2.0 * np.pi)
    assert cw_photon_rate(beta_bar, sigma) == pytest.approx(direct, rel=1e-12, abs=0.0)


# The CW gate: relative tolerance of each rate column against
# `cw_reference_columns`.  The rows compute the same Gaussian series as the
# references, in time rather than on panels; the largest gaps are 6.4e-15
# (DECISIONS.md, "CW rates from the Gaussian series").  While the rates came
# from the J lattice the gate allowed 5e-8, 2e-5 and 4e-4 ("The CW accuracy
# gate").  r_sq_total is held to the sum of the two references.
CW_GATE_REL_TOL = dict.fromkeys(
    ("photon_rate_per_s", "r_sq_coherent", "r_sq_incoherent", "r_sq_total"), 1e-12
)


def gate_failures(rows: list[dict], refs: list[dict]) -> list[tuple[int, str, float]]:
    """(row, column, relative gap) of every cell outside its CW_GATE_REL_TOL."""
    failures = []
    for n, (row, ref) in enumerate(zip(rows, refs, strict=True)):
        expected = dict(ref, r_sq_total=ref["r_sq_coherent"] + ref["r_sq_incoherent"])
        for column, tol in CW_GATE_REL_TOL.items():
            gap = row[column] / expected[column] - 1.0
            if not abs(gap) <= tol:
                failures.append((n, column, gap))
    return failures


class TestCwGate:
    @pytest.fixture(scope="class")
    def regression(self):
        cfg = load_config(DATA / "regression_cw.json")
        rows = run_cw_sweep(cfg)
        eta = eta_prefactor(cfg.system, cfg.coupling)
        area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
        return rows, cw_reference_columns(rows, cfg.system, eta, area)

    def test_every_cell_is_within_its_column_tolerance(self, regression):
        rows, refs = regression
        assert len(rows) == 15
        assert sorted({row["sigma_c_over_gamma_b"] for row in rows}) == list(COLUMNS)
        assert gate_failures(rows, refs) == []

    def test_rejects_an_incoherent_column_scaled_by_one_percent(self, regression):
        rows, refs = regression
        scaled = [dict(row, r_sq_incoherent=1.01 * row["r_sq_incoherent"]) for row in rows]
        failures = {(n, column) for n, column, _ in gate_failures(scaled, refs)}
        assert {(n, "r_sq_incoherent") for n in range(len(rows))} <= failures
        assert {column for _, column in failures} <= {"r_sq_incoherent", "r_sq_total"}

    def test_rejects_swapped_coherent_and_incoherent_columns(self, regression):
        rows, refs = regression
        swapped = [
            dict(row, r_sq_coherent=row["r_sq_incoherent"], r_sq_incoherent=row["r_sq_coherent"])
            for row in rows
        ]
        failures = gate_failures(swapped, refs)
        assert len({n for n, _, _ in failures}) == len(rows)
        assert {column for _, column, _ in failures} == {"r_sq_coherent", "r_sq_incoherent"}
