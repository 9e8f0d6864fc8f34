import ast
import functools
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    csv_writer_body,
    old_fmt,
    photon_number_mpmath,
    pulsed_row,
)

import sqfluor.cli as cli
import sqfluor.excitation as excitation
import sqfluor.sources as sources
import sqfluor.system as system_module
from sqfluor.cli import CW_COLUMNS, PULSED_COLUMNS, emit, main, run_cw_sweep, run_pulsed_sweep
from sqfluor.config import (
    ConfigError,
    ConfigUnitError,
    MissingKeyError,
    load_config,
    parse_quantity,
)
from sqfluor.excitation import matched_classical_cw, p_classical_pulsed, rate_classical_cw
from sqfluor.geometry import effective_area
from sqfluor.sources import (
    ClassicalCW, ClassicalPulsed, SqueezedCW, SqueezedPulsed, geometric_mode_ratio,
    photon_rate_cw,
)
from sqfluor.spectral import ConvergenceError, GaussianAmplitude, brentq
from sqfluor.system import CrossSectionPrefactor, eta_prefactor

REPO = Path(__file__).resolve().parent.parent
CS_MOT = REPO / "configs" / "cs_mot.json"


def tiny_cw_config(tmp_path, **source_overrides):
    cfg = json.loads(CS_MOT.read_text())
    cfg["source"] = {
        "regime": "squeezed_cw",
        "sigma_c_over_gamma_b": [0.01, 1.0],
        "beta_bar_min": 0.1,
        "beta_bar_max": 1.0,
        "points_per_decade": 2,
    }
    cfg["source"].update(source_overrides)
    path = tmp_path / "cw.json"
    path.write_text(json.dumps(cfg))
    return path


def with_numerics(path, **numerics):
    raw = json.loads(path.read_text())
    raw["numerics"] = numerics
    path.write_text(json.dumps(raw))
    return path


def sweepbench_pulsed_numerics() -> dict:
    """`PULSED_NUMERICS` of sweepbench/run.py, read from its source without importing it."""
    tree = ast.parse((REPO / "sweepbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PULSED_NUMERICS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("sweepbench/run.py defines no PULSED_NUMERICS")


def tiny_pulsed_config(tmp_path, **source_overrides):
    cfg = json.loads(CS_MOT.read_text())
    cfg["source"] = {
        "regime": "squeezed_pulsed",
        "sigma_p_over_gamma_b": [1.0],
        "sigma_c_over_sigma_p": [1.0, 4.0],
        "photons_min": 0.1,
        "photons_max": 10.0,
        "points_per_decade": 1.0,
    }
    cfg["source"].update(source_overrides)
    cfg["numerics"] = {"trunc_tol": 1e-8}
    path = tmp_path / "pulsed.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseQuantity:
    def test_lengths(self):
        assert parse_quantity("0.1 mm", "length", "k") == pytest.approx(1e-4)
        assert parse_quantity("895 nm", "length", "k") == pytest.approx(8.95e-7)

    def test_angular_frequencies(self):
        assert parse_quantity("2.0e7 rad/s", "rate", "k") == 2.0e7
        assert parse_quantity("4.5612 MHz", "rate", "k") == pytest.approx(
            2 * np.pi * 4.5612e6
        )

    def test_unknown_unit_names_token(self):
        with pytest.raises(ConfigUnitError, match="furlong"):
            parse_quantity("1.0 furlong", "length", "geometry.cloud_fwhm")

    def test_bare_number_requires_unit(self):
        with pytest.raises(ConfigUnitError, match="unit suffix"):
            parse_quantity(3.0, "length", "k")

    def test_dimensionless(self):
        assert parse_quantity(1e6, "dimensionless", "k") == 1e6
        assert parse_quantity("42", "dimensionless", "k") == 42.0


def with_rates(path, **gamma_r):
    raw = json.loads(path.read_text())
    raw["system"]["gamma_r"].update(gamma_r)
    path.write_text(json.dumps(raw))
    return path


def with_section(path, section, **values):
    raw = json.loads(path.read_text())
    raw.setdefault(section, {}).update(values)
    path.write_text(json.dumps(raw))
    return path


class TestLoadConfig:
    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        assert load_config(path).source["regime"] in ("squeezed_cw", "squeezed_pulsed")

    def test_shipped_cs_mot_width_ratio(self):
        cfg = load_config(CS_MOT)
        assert cfg.system.gamma_b / cfg.system.gamma_c == pytest.approx(2.11, abs=0.01)
        assert cfg.defaults_applied  # provenance log is populated

    def test_missing_rates_named(self, tmp_path):
        raw = json.loads(CS_MOT.read_text())
        del raw["system"]["gamma_r"]["cd"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(MissingKeyError, match="cd"):
            load_config(path)

    def test_unknown_unit_reported(self, tmp_path):
        raw = json.loads(CS_MOT.read_text())
        raw["geometry"]["cloud_fwhm"] = "0.1 parsec"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigUnitError, match="parsec"):
            load_config(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_custom_system_with_cs_wavelengths_is_the_preset(self, tmp_path):
        # The decimal strings parse to the same doubles as the preset's
        # wavelength constants, so the two systems must be equal exactly.
        raw = json.loads(CS_MOT.read_text())
        for key in ("wavelength_ba", "wavelength_cb", "wavelength_cd"):
            raw["system"].pop(key, None)
        preset_path = tmp_path / "preset.json"
        preset_path.write_text(json.dumps(raw))
        raw["system"].update(
            preset="custom", wavelength_ba="8.95e-7 m", wavelength_cb="1.36e-6 m",
            wavelength_cd="1.469e-6 m",
        )
        custom_path = tmp_path / "custom.json"
        custom_path.write_text(json.dumps(raw))
        preset, custom = load_config(preset_path), load_config(custom_path)
        assert custom.system == preset.system
        assert custom.coupling == preset.coupling

    def test_custom_system_requires_every_wavelength(self, tmp_path):
        raw = json.loads(CS_MOT.read_text())
        raw["system"].update(preset="custom", wavelength_ba="895 nm", wavelength_cb="1.36 um")
        raw["system"].pop("wavelength_cd", None)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(MissingKeyError, match="wavelength_cd"):
            load_config(path)

    @pytest.mark.parametrize("regime", ["classical_cw", "classical_pulsed"])
    def test_classical_regimes_are_rejected(self, tmp_path, regime):
        # No subcommand runs a classical source; the loader says so at once.
        raw = json.loads(CS_MOT.read_text())
        raw["source"] = {"regime": regime}
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="regime"):
            load_config(path)

    def test_exactly_one_regime(self, tmp_path):
        raw = json.loads(CS_MOT.read_text())
        raw["source"]["regime"] = "both_at_once"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="regime"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("max_doublings", 2.7),
        ("max_doublings", 0),
        ("max_doublings", "6"),
        ("max_doublings", True),
        ("rel_tol", -1.0),
        ("rel_tol", 0.0),
        ("rel_tol", 1.0),
        ("rel_tol", "abc"),
        ("rel_tol", True),
        ("rel_tol", float("nan")),
        ("trunc_tol", 2.0),
    ])
    def test_numerics_are_type_checked(self, tmp_path, key, value):
        # trunc_tol is the one numerics key a command reads; rel_tol and
        # max_doublings set the effective-area quadrature before its closed
        # form and now load, whatever their value, as ignored keys.
        path = with_numerics(tiny_cw_config(tmp_path), **{key: value})
        if key == "trunc_tol":
            with pytest.raises(ConfigError, match=f"numerics.{key}"):
                load_config(path)
        else:
            cfg = load_config(path)
            assert key not in cfg.numerics
            assert cfg.ignored == [f"numerics.{key}"]

    def test_numerics_no_command_reads_are_named_and_left_out(self, tmp_path, caplog):
        # sweepbench's pulsed workloads still set keys of the Schmidt-mode
        # lattice engine and of the effective-area quadrature; the config
        # loads, and each of them is named once.
        numerics = sweepbench_pulsed_numerics()
        read = ["trunc_tol"]
        ignored = sorted(set(numerics) - set(read))
        assert ignored
        path = with_numerics(tiny_pulsed_config(tmp_path), **numerics)
        cfg = load_config(path)
        assert sorted(cfg.numerics) == read
        assert sorted(cfg.ignored) == [f"numerics.{key}" for key in ignored]
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            assert main(["validate-config", "--config", str(path)]) == 0
        logged = [r.getMessage() for r in caplog.records if r.name == "sqfluor.cli"]
        for key in ignored:
            assert sum(f"numerics.{key} " in message for message in logged) == 1
        out = tmp_path / "header.csv"
        emit([], PULSED_COLUMNS, cfg, out, reproducible=True)
        header = out.read_text().splitlines()[2]
        assert header == "# numerics: " + " ".join(f"{k}={numerics[k]}" for k in read)


class TestCwSweep:
    def test_row_count_and_invariants(self, tmp_path):
        cfg = load_config(tiny_cw_config(tmp_path))
        rows = run_cw_sweep(cfg)
        n_beta = len(
            cli._log_grid(
                cfg.source["beta_bar_min"], cfg.source["beta_bar_max"],
                cfg.source["points_per_decade"],
            )
        )
        assert len(rows) == len(cfg.source["sigma_c_over_gamma_b"]) * n_beta
        for row in rows:
            assert row["r_sq_total"] == row["r_sq_coherent"] + row["r_sq_incoherent"]
            assert row["validity"] in (True, False)

    def test_failed_rows_do_not_stop_the_run(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_cw_config(tmp_path))
        calls = {"n": 0}
        original = cli.rate_squeezed_cw

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError(1.0, 2.0, 0.5)  # a synthetic numerical failure
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "rate_squeezed_cw", flaky)
        rows = run_cw_sweep(cfg)
        failed = [r for r in rows if r["validity"] == "failed"]
        assert len(failed) == 1
        assert np.isnan(failed[0]["r_sq_total"])
        assert len(rows) == calls["n"]

    def test_failed_rows_log_their_cause(self, tmp_path, monkeypatch, caplog):
        # A table is built per sigma_c_bar column.  The second column's
        # incoherent table drifts by 1e-9/n at n nodes, so its node doubling
        # never settles and raises ConvergenceError past MAX_TABLE_NODES:
        # that column's three rows fail alone, each with its cause logged.
        cfg = load_config(tiny_cw_config(tmp_path))
        calls = {"n": 0}
        original = excitation._doubled

        def drifting(table, n_nodes, what):
            calls["n"] += 1

            def drift(n):
                values, scale = table(n)
                return values * (1.0 + 1e-9 / n), scale

            return original(drift if calls["n"] == 2 else table, n_nodes, what)

        monkeypatch.setattr(excitation, "_doubled", drifting)
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            rows = run_cw_sweep(cfg)
        failed = [n for n, r in enumerate(rows) if r["validity"] == "failed"]
        assert failed == [3, 4, 5] and calls["n"] == 2
        assert {rows[n]["sigma_c_over_gamma_b"] for n in failed} == {1.0}
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 3
        for record in warnings:
            message = record.getMessage()
            assert "ConvergenceError" in message
            assert "CW incoherent table did not converge" in message
            assert "np.float64" not in message

    def test_one_incoherent_table_per_column(self, monkeypatch):
        # The 15 rows of the three regression columns settle three R tables,
        # one per sigma_c_bar column; tables built per row would count 15.
        cfg = load_config(REPO / "tests" / "data" / "regression_cw.json")
        settled = []
        original = excitation._doubled

        def counting(table, n_nodes, what):
            settled.append(what)
            return original(table, n_nodes, what)

        monkeypatch.setattr(excitation, "_doubled", counting)
        rows = run_cw_sweep(cfg)
        assert len(rows) == 15 and len({r["sigma_c_over_gamma_b"] for r in rows}) == 3
        assert settled == ["CW incoherent table"] * 3

    def test_rows_match_the_engine_free_photon_and_classical_rates(self):
        # The paper's CW figure, every 10th of its 1350 rows.  A row's photon
        # rate, read from its column's engine, is the engine-free closed sum
        # to 1e-14; its classical rate, from the sweep's one cross-section,
        # is `rate_classical_cw` at that photon rate, bit for bit.
        cfg = load_config(REPO / "configs" / "cs_mot_cw_sweep.json")
        system = cfg.system
        eta = eta_prefactor(system, cfg.coupling)
        area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
        rows = run_cw_sweep(cfg)
        assert len(rows) == 1350
        for row in rows[::10]:
            src = SqueezedCW(
                row["beta_bar"], row["sigma_c_over_gamma_b"] * system.gamma_b,
                system.omega_ba, system.omega_cb,
            )
            rate = row["photon_rate_per_s"]
            assert rate == pytest.approx(photon_rate_cw(src), rel=1e-14, abs=0.0)
            classical = rate_classical_cw(matched_classical_cw(src, area, rate), system, eta)
            assert row["r_classical"] == classical.total

    def test_column_constants_are_taken_per_column_not_per_row(self, tmp_path, monkeypatch):
        # `configs/cs_mot.json` (39 rows in 3 columns) and the same columns
        # at twice the points per decade (75 rows).  The two Gaussian series
        # are formed once per column (for its largest beta_bar, and handed to
        # its engine), and the classical cross-section once per sweep: rows
        # form neither.  Each function is counted under every
        # module name bound to it.
        counts = {}

        def count(name, *modules):
            original = getattr(modules[0], name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        count("_gain_series", sources, excitation)
        count("cross_section", system_module, cli, excitation)
        raw = json.loads(CS_MOT.read_text())
        for points_per_decade, n_rows in ((4, 39), (8, 75)):
            raw["source"]["points_per_decade"] = points_per_decade
            path = tmp_path / f"cs_mot_{points_per_decade}.json"
            path.write_text(json.dumps(raw))
            counts.update(_gain_series=0, cross_section=0)
            rows = run_cw_sweep(load_config(path))
            assert len(rows) == n_rows and len({r["sigma_c_over_gamma_b"] for r in rows}) == 3
            assert all(r["validity"] != "failed" for r in rows)
            assert counts == {"_gain_series": 2 * 3, "cross_section": 1}

    def test_rows_past_the_gaussian_series_fail_alone(self, tmp_path, caplog):
        # beta_bar 10 to 400: the Gaussian series run out from 353 on, so the
        # column's engine is built at the largest beta_bar below that (159).
        # The 400 row fails with the series' own error and the other rows are
        # the one-row rates.
        cfg = load_config(tiny_cw_config(
            tmp_path, sigma_c_over_gamma_b=[1.0], beta_bar_min=10.0, beta_bar_max=400.0,
        ))
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            rows = run_cw_sweep(cfg)
        assert [r["beta_bar"] for r in rows][-1] == 400.0
        assert [r["validity"] == "failed" for r in rows] == [False] * 4 + [True]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "NumericalError: the Gaussian series at 400.0 needs more than 480 terms" in warnings[0]
        system, coupling = cfg.system, cfg.coupling
        eta = eta_prefactor(system, coupling)
        area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff
        for row in rows[:-1]:
            src = SqueezedCW(row["beta_bar"], system.gamma_b, system.omega_ba, system.omega_cb)
            alone = excitation.rate_squeezed_cw(src, system, eta, area, coupling)
            assert row["r_sq_coherent"] == pytest.approx(alone.coherent, rel=1e-13, abs=0.0)
            assert row["r_sq_incoherent"] == pytest.approx(alone.incoherent, rel=1e-13, abs=0.0)

    def test_a_column_whose_table_fails_leaves_the_others_alone(self, monkeypatch, caplog):
        # MAX_TABLE_NODES is 64 while the second column's table is built; at
        # sigma_c_bar = Gamma_b it settles only at 128 nodes, so that column's
        # five rows fail with ConvergenceError and the other ten rows are
        # those of an undisturbed run.
        cfg = load_config(REPO / "tests" / "data" / "regression_cw.json")
        undisturbed = run_cw_sweep(cfg)
        calls = {"n": 0}
        original, nodes = excitation._doubled, excitation.MAX_TABLE_NODES

        def capped(table, n_nodes, what):
            calls["n"] += 1
            monkeypatch.setattr(excitation, "MAX_TABLE_NODES", 64 if calls["n"] == 2 else nodes)
            return original(table, n_nodes, what)

        monkeypatch.setattr(excitation, "_doubled", capped)
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            rows = run_cw_sweep(cfg)
        assert calls["n"] == 3 and len(rows) == len(undisturbed) == 15
        for row, before in zip(rows, undisturbed):
            if row["sigma_c_over_gamma_b"] == 1.0:
                assert row["validity"] == "failed"
            else:
                assert row == before
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 5
        assert all("ConvergenceError: CW incoherent table did not converge" in m for m in warnings)

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_cw_config(tmp_path))
        calls = {"n": 0}
        original = cli.rate_squeezed_cw

        def broken(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise TypeError("synthetic programming error")
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "rate_squeezed_cw", broken)
        with pytest.raises(TypeError, match="synthetic"):
            run_cw_sweep(cfg)

    def test_classical_reference_uses_configured_numerics(self, tmp_path):
        # CW rows read no numerics key: the classical reference takes each
        # row's own photon rate.
        path = tiny_cw_config(
            tmp_path, sigma_c_over_gamma_b=[0.01], beta_bar_min=1.0,
            beta_bar_max=float(np.sqrt(10.0)), points_per_decade=4,
        )
        cfg = load_config(path)
        system = cfg.system
        eta = eta_prefactor(system, cfg.coupling)
        area = effective_area(cfg.beam(), cfg.beam(), cfg.cloud())
        rows = run_cw_sweep(cfg)
        assert len(rows) == 3
        for row in rows:
            flux = row["photon_rate_per_s"] / area.a_eff
            classical = rate_classical_cw(
                ClassicalCW(flux, flux, system.omega_ba, system.omega_cb), system, eta
            )
            assert row["r_classical"] == classical.total


# Schmidt ratios mu of the inversion tests' engines, one mode (0) to about
# 400 (0.99).
INVERSION_MUS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


@functools.lru_cache(maxsize=16)
def inversion_engine(mu: float) -> excitation.PulsedExcitationEngine:
    """A pulsed engine of Schmidt ratio about mu, for every N up to 1e6 (r0_max = asinh(1e3)).

    Kept for the tests that read the same mu again: the inversion reads
    only its photon number, `sqrt_p0` and `r0_max`.
    """
    system = load_config(CS_MOT).system
    ratio = (1.0 + math.sqrt(mu)) / (1.0 - math.sqrt(mu))
    src = SqueezedPulsed(system.gamma_b, ratio * system.gamma_b, system.omega_ba, system.omega_cb)
    return excitation.PulsedExcitationEngine(
        src, system, CrossSectionPrefactor(1.0), 1.0, r0_max=math.asinh(1e3)
    )


@given(mu=st.floats(0.0, 0.999), log_photons=st.floats(-12.0, 6.0))
@example(mu=0.999, log_photons=6.0)  # the top of the engine's reach
def test_photon_inversion_round_trip(mu, log_photons):
    # brentq stops within 1e-13 relative in beta, and its last step in the
    # near-linear variable asinh(sqrt N) lands closer still.
    engine = inversion_engine(mu)
    n_photons = 10.0**log_photons
    beta = cli._beta_for_photons(engine, n_photons)
    assert engine.photon_number(beta) == pytest.approx(n_photons, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu", [1e-15, 1e-11, 1e-7])
def test_photon_inversion_near_one_mode(mu):
    # Both ends of the bracket lie within a few ulp of the root, and at
    # N = 1e6 the top end is held at r0_max.  No end may show brentq the
    # wrong sign, and no iterate may pass r0_max.
    engine = inversion_engine(mu)
    photons = np.logspace(-12.0, 6.0, 37)
    betas = cli._beta_for_photons(engine, photons)
    assert betas.tolist() == [cli._beta_for_photons(engine, n) for n in photons]
    assert engine.photon_number(betas) == pytest.approx(photons, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mu", [0.5, 0.99])
def test_photon_inversion_stays_within_the_reach(mu):
    # Just past sinh^2(r0_max), N is still reached below r0_max (the other
    # modes add to it), but y / sqrt(1 - mu) moved out by 1e-12 lies past
    # the engine's reach; the bracket's top must be held inside it.
    engine = inversion_engine(mu)
    n_photons = math.sinh(engine.r0_max) ** 2 * (1.0 + 1e-9)
    beta = cli._beta_for_photons(engine, n_photons)
    assert beta * engine.sqrt_p0 < engine.r0_max
    assert engine.photon_number(beta) == pytest.approx(n_photons, rel=1e-12, abs=0.0)


def test_photon_inversion_callbacks(monkeypatch):
    calls = []
    brentq = cli.brentq

    def counting_brentq(f, *args, **kwargs):
        return brentq(lambda x: calls.append(x) or f(x), *args, **kwargs)

    monkeypatch.setattr(cli, "brentq", counting_brentq)
    grid = cli._log_grid(0.01, 1e4, 60)
    per_inversion = []
    for n_photons in grid:
        before = len(calls)
        cli._beta_for_photons(inversion_engine(0.5), n_photons)
        per_inversion.append(len(calls) - before)
    assert max(per_inversion) <= 10
    # One mode: the closed-form bracket is a single point, the answer.
    for n_photons in grid:
        beta = cli._beta_for_photons(inversion_engine(0.0), n_photons)
        assert beta == np.arcsinh(np.sqrt(n_photons))
    assert len(calls) == sum(per_inversion)  # no callback for one mode


def test_photon_inversions_match_scipy_brentq(monkeypatch):
    # The sweep's inversion at 301 photon numbers per engine: the same beta
    # after the same callbacks as with scipy's brentq.
    def inversions(solver):
        calls = []
        monkeypatch.setattr(
            cli, "brentq", lambda f, *a, **k: solver(lambda x: calls.append(x) or f(x), *a, **k)
        )
        betas = [cli._beta_for_photons(engine, n) for engine in engines for n in photons]
        return betas, calls

    engines = [inversion_engine(mu) for mu in INVERSION_MUS]
    photons = np.logspace(-2.0, 4.0, 301)
    ours = inversions(brentq)
    assert ours == inversions(scipy.optimize.brentq)
    assert len(ours[1]) > 7 * len(photons)  # only the one-mode engine skips the solver


def test_photon_inversion_of_a_grid_matches_scalar_calls(monkeypatch):
    # One lock-step solve per engine gives each N the bits of its scalar
    # call, with one array evaluation for each callback of the longest one.
    photons = np.logspace(-2.0, 4.0, 301)
    calls = []
    brentq = cli.brentq
    monkeypatch.setattr(
        cli, "brentq", lambda f, *a, **k: brentq(lambda x: calls.append(x) or f(x), *a, **k)
    )

    def counted(engine, n_photons):
        before = len(calls)
        return cli._beta_for_photons(engine, n_photons), len(calls) - before

    for mu in INVERSION_MUS:
        engine = inversion_engine(mu)
        betas, grid_calls = counted(engine, photons)
        assert betas.dtype == float and betas.shape == photons.shape
        scalar = [counted(engine, n) for n in photons]
        assert betas.tolist() == [beta for beta, _ in scalar]
        assert grid_calls == max(n_calls for _, n_calls in scalar)


def test_photon_inversion_out_of_iterations_spares_the_grid(monkeypatch):
    brentq = cli.brentq
    monkeypatch.setattr(cli, "brentq", lambda f, a, b, **k: brentq(f, a, b, **{**k, "maxiter": 4}))
    engine = inversion_engine(0.5)
    photons = np.logspace(-2.0, 4.0, 61)
    betas = cli._beta_for_photons(engine, photons)
    failed = 0
    for n_photons, beta in zip(photons, betas.tolist()):
        try:
            expected = cli._beta_for_photons(engine, n_photons)
        except ConvergenceError:
            failed += 1
            assert math.isnan(beta)
        else:
            assert beta == expected
    assert 0 < failed < len(photons)


class TestPulsedSweep:
    def test_separable_panel_identity(self, tmp_path):
        cfg = load_config(tiny_pulsed_config(tmp_path))
        rows = run_pulsed_sweep(cfg)
        separable = [r for r in rows if r["sigma_c_over_sigma_p"] == 1.0]
        assert separable
        for row in separable:
            n = row["photons_per_pulse"]
            total = row["p_sq_coherent"] + row["p_sq_incoherent"]
            assert total / row["p_classical"] == pytest.approx(2.0 + 1.0 / n, rel=1e-12)

    def test_crossover_marker(self, tmp_path):
        cfg = load_config(tiny_pulsed_config(tmp_path))
        rows = run_pulsed_sweep(cfg)
        for row in rows:
            assert row["crossover"] in (True, False, np.True_, np.False_)
        # crossover must be monotone along each panel's photon axis
        for sc in (1.0, 4.0):
            flags = [bool(r["crossover"]) for r in rows if r["sigma_c_over_sigma_p"] == sc]
            assert flags == sorted(flags)

    def test_photons_per_pulse_hold_past_the_mode_cap(self, tmp_path):
        # At sigma_c/sigma_p = 1e4 the analytic spectrum stops at its
        # 2000-mode cap with 45% of its weight left out.  Each row's beta
        # must still give its printed N with every mode summed, by an
        # independent mpmath sum.
        cfg = load_config(tiny_pulsed_config(
            tmp_path, sigma_p_over_gamma_b=[0.01], sigma_c_over_sigma_p=[1e4],
            photons_min=0.01, photons_max=100.0, points_per_decade=2,
        ))
        rows = run_pulsed_sweep(cfg)
        system = cfg.system
        sigma_p = 0.01 * system.gamma_b
        src = SqueezedPulsed(sigma_p, 1e4 * sigma_p, system.omega_ba, system.omega_cb)
        mu = geometric_mode_ratio(src)
        assert len(rows) == 9 and "failed" not in [row["validity"] for row in rows]
        for row in rows:
            assert photon_number_mpmath(mu, row["beta"]) == pytest.approx(
                row["photons_per_pulse"], rel=1e-12, abs=0.0
            )
            # The library's classical reference at a row's beta is at its N.
            classical = excitation.matched_classical_pulsed(src, row["beta"])
            assert classical.n_photons_i == pytest.approx(
                row["photons_per_pulse"], rel=1e-12, abs=0.0
            )

    def test_a_failed_classical_reference_fails_its_panel_only(
        self, tmp_path, monkeypatch, caplog
    ):
        # The classical reference of the sigma_c = 4 sigma_p panel cannot
        # be computed: that panel's rows fail with its error, each with its
        # own WARNING, and the other panel's rows are those of an
        # undisturbed sweep.
        cfg = load_config(tiny_pulsed_config(tmp_path))
        undisturbed = run_pulsed_sweep(cfg)
        gamma_b = cfg.system.gamma_b

        def failing(src, *args, **kwargs):
            if src.amp_i.width == 4.0 * gamma_b:
                raise ConvergenceError(1.0, 2.0, 0.5, "classical pulse pair")
            return p_classical_pulsed(src, *args, **kwargs)

        monkeypatch.setattr(cli, "p_classical_pulsed", failing)
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            rows = run_pulsed_sweep(cfg)
        assert len(rows) == len(undisturbed) == 6
        failed = [i for i, row in enumerate(rows) if row["validity"] == "failed"]
        assert failed == [i for i, row in enumerate(undisturbed)
                          if row["sigma_c_over_sigma_p"] == 4.0] == [3, 4, 5]
        assert all(math.isnan(rows[i]["p_classical"]) for i in failed)
        assert rows[:3] == undisturbed[:3]
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 3
        assert all("failed: ConvergenceError:" in m and "classical pulse pair" in m
                   for m in messages)

    def test_a_row_out_of_iterations_fails_alone(self, tmp_path, monkeypatch, caplog):
        # With Brent's method held to five iterations, the N = 1 row of the
        # many-mode panel needs a sixth; the panel's N = 0.1 inversion does not.
        cfg = load_config(tiny_pulsed_config(tmp_path, photons_max=1.0))
        undisturbed = run_pulsed_sweep(cfg)
        brentq = cli.brentq
        monkeypatch.setattr(
            cli, "brentq", lambda f, a, b, **k: brentq(f, a, b, **{**k, "maxiter": 5})
        )
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            rows = run_pulsed_sweep(cfg)
        failed = [i for i, row in enumerate(rows) if row["validity"] == "failed"]
        assert len(failed) == 1 and rows[failed[0]]["photons_per_pulse"] == pytest.approx(1.0)
        assert [r for i, r in enumerate(rows) if i not in failed] == [
            r for i, r in enumerate(undisturbed) if i not in failed
        ]
        (record,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "ConvergenceError: Brent's method did not converge" in record.getMessage()


    def test_rows_match_the_row_arithmetic_of_before(self, tmp_path, monkeypatch):
        # Every cell of every row, bit for bit, against the engine's outcome
        # counted by fluorescence(), as the rows were counted before their
        # arithmetic was inlined.
        cfg = load_config(tiny_pulsed_config(
            tmp_path, sigma_p_over_gamma_b=[0.1, 1.0, 10.0], sigma_c_over_sigma_p=[1.0, 10.0],
            photons_min=0.01, photons_max=1e4, points_per_decade=2,
        ))
        engines = []

        class Recording(cli.PulsedExcitationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(cli, "PulsedExcitationEngine", Recording)
        rows = run_pulsed_sweep(cfg)
        # Every panel's tables reach r0 = asinh(sqrt(1e4)): 26 series terms.
        # A one-mode panel (mu = 0) has one distinct entry; the others
        # keep every term.
        r0_max = math.asinh(100.0)
        assert {engine.r0_max for engine in engines} == {r0_max}
        assert {engine.diagnostics["series_terms"] for engine in engines} == {26}
        distinct = {
            (engine.src.sigma_c / engine.src.sigma_p,
             len(np.unique(engine.incoherent_table)) == 1)
            for engine in engines
        }
        assert distinct == {(1.0, True), (10.0, False)}

        system, n_atoms = cfg.system, cfg.geometry["n_atoms"]
        eta = cli.eta_prefactor(system, cfg.coupling)
        area = cli.effective_area(cfg.beam(), cfg.beam(), cfg.cloud()).a_eff

        def bits(value):
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            return float(value).hex()

        per_panel = len(rows) // len(engines)
        crossovers = set()
        for k, engine in enumerate(engines):
            panel = rows[k * per_panel : (k + 1) * per_panel]
            sigma_p = panel[0]["sigma_p_over_gamma_b"] * system.gamma_b
            src = SqueezedPulsed(
                sigma_p, panel[0]["sigma_c_over_sigma_p"] * sigma_p,
                system.omega_ba, system.omega_cb,
            )
            unit_pair = ClassicalPulsed(
                GaussianAmplitude(src.center_i, src.sigma_c),
                GaussianAmplitude(src.center_ii, src.sigma_c),
                1.0, 1.0,
            )
            cl_unit = p_classical_pulsed(unit_pair, system, eta, area).total
            for row in panel:
                assert row["validity"] != "failed"
                expected = pulsed_row(
                    engine, row["beta"], row["photons_per_pulse"], cl_unit, system, n_atoms
                )
                assert {c: bits(row[c]) for c in expected} == {
                    c: bits(v) for c, v in expected.items()
                }
                assert [cli._fmt(row[c]) for c in expected] == [
                    old_fmt(v) for v in expected.values()
                ]
                crossovers.add(bool(row["crossover"]))
        assert crossovers == {True, False}

    def test_no_panel_fails_as_a_whole_when_inversions_run_out(
        self, tmp_path, monkeypatch, caplog
    ):
        # Brent's method held to 1-5 iterations: the many-mode panel's
        # grid solve and some of its rows' own solves run out.  Each
        # row whose own solve runs out fails alone, with its own WARNING;
        # the panel's other rows are computed as before, and the one-mode
        # panel needs no Brent step and must not change.
        cfg = load_config(tiny_pulsed_config(tmp_path))
        undisturbed = run_pulsed_sweep(cfg)
        brentq = cli.brentq

        def held_to(limit):
            return lambda f, a, b, **k: brentq(f, a, b, **{**k, "maxiter": limit})

        failures = []
        for limit in range(1, 6):
            monkeypatch.setattr(cli, "brentq", held_to(limit))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
                rows = run_pulsed_sweep(cfg)
            assert len(rows) == len(undisturbed) == 6
            assert rows[:3] == undisturbed[:3]
            assert [
                (row["sigma_c_over_sigma_p"], row["photons_per_pulse"]) for row in rows
            ] == [(r["sigma_c_over_sigma_p"], r["photons_per_pulse"]) for r in undisturbed]
            failed = [row for row in rows if row["validity"] == "failed"]
            assert all(math.isnan(row["p_sq_coherent"]) for row in failed)
            assert all(math.isnan(row["p_classical"]) for row in failed)
            assert [row for row in rows if row["validity"] != "failed"] == [
                u for row, u in zip(rows, undisturbed) if row["validity"] != "failed"
            ]
            messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert len(messages) == len(failed)
            for row, message in zip(failed, messages):
                assert message.startswith(f"row {{'sigma_p_over_gamma_b': 1.0, "
                                          f"'sigma_c_over_sigma_p': 4.0, "
                                          f"'photons_per_pulse': {row['photons_per_pulse']!r}}}")
                assert "failed: ConvergenceError: Brent's method" in message
            failures.append(len(failed))
        # At four and five iterations the panel holds failed and computed
        # rows together.
        assert failures == [3, 3, 3, 2, 2]

    def test_an_inversion_out_of_iterations_leaves_the_tables_unchanged(
        self, tmp_path, monkeypatch
    ):
        # The tables reach r0 = asinh(sqrt(N_max)) whatever any inversion
        # gives.  Only the first Brent solve, the many-mode panel's lock-step
        # grid solve, runs out: its rows are then solved one by one, no row
        # fails, and every table and row is that of an undisturbed sweep.
        cfg = load_config(tiny_pulsed_config(tmp_path, photons_max=1e4))
        tables = []

        class Recording(cli.PulsedExcitationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append((
                    self.diagnostics["series_terms"], self.incoherent_table.tobytes(),
                    self.coherent_table.tobytes(), self.population_table.tobytes(),
                ))

        monkeypatch.setattr(cli, "PulsedExcitationEngine", Recording)
        undisturbed = run_pulsed_sweep(cfg)
        brentq = cli.brentq
        calls = []

        def held(f, a, b, **k):
            calls.append(np.size(a))
            return brentq(f, a, b, **({**k, "maxiter": 1} if len(calls) == 1 else k))

        monkeypatch.setattr(cli, "brentq", held)
        rows = run_pulsed_sweep(cfg)
        assert calls[0] == 6 and len(calls) == 7  # the grid solve, then one row at a time
        assert [t[0] for t in tables] == [26, 26, 26, 26]
        assert tables[2:] == tables[:2]
        assert "failed" not in [row["validity"] for row in rows]
        assert rows == undisturbed


class TestEmit:
    def test_empty_table_header_only(self, tmp_path):
        cfg = load_config(CS_MOT)
        out = tmp_path / "empty.csv"
        emit([], CW_COLUMNS, cfg, out, reproducible=True)
        lines = out.read_text().splitlines()
        assert lines[-1] == ",".join(CW_COLUMNS)
        assert all(line.startswith("#") for line in lines[:-1])

    def test_cells_are_written_as_before(self, tmp_path):
        # emit's column formatter against the isinstance chain of _fmt, on
        # every type a row may hold.
        cfg = load_config(CS_MOT)
        cells = [
            0.1, 1.0 / 3.0, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308,
            float("inf"), float("-inf"), float("nan"),
            np.float64(2.0 / 3.0), np.float64("nan"), np.float32(0.1),
            True, False, np.True_, np.False_,
            0, 7, -3, 2**70, np.int64(-12), np.int32(5),
            "failed", "", "a,b", 'quo"te',
        ]
        columns = [f"c{k}" for k in range(len(cells))]
        rows = [dict(zip(columns, cells)), dict(zip(columns, reversed(cells)))]
        out = tmp_path / "cells.csv"
        emit(rows, columns, cfg, out, reproducible=True)
        data = out.read_bytes()
        body = data[data.index(b"\n" + columns[0].encode()) + 1 :]
        assert body == csv_writer_body(rows, columns, old_fmt).encode()

    @pytest.fixture(scope="class")
    def sweep_rows(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rows")
        return {
            "cw": run_cw_sweep(load_config(tiny_cw_config(tmp))),
            "pulsed": run_pulsed_sweep(load_config(tiny_pulsed_config(tmp))),
        }

    @staticmethod
    def table(case: str, sweep_rows) -> tuple[list[dict], list[str]]:
        if case == "cw":
            return sweep_rows["cw"], CW_COLUMNS
        if case == "pulsed":
            return sweep_rows["pulsed"], PULSED_COLUMNS
        if case == "failed":
            # Failed rows keep their fixed cells and hold NaN elsewhere, so
            # the bool column `crossover` also holds floats.
            fixed = ("sigma_p_over_gamma_b", "sigma_c_over_sigma_p", "photons_per_pulse")
            rows = [
                cli._failed_row(PULSED_COLUMNS, {c: row[c] for c in fixed}) if k % 2 else row
                for k, row in enumerate(sweep_rows["pulsed"])
            ]
            return rows, PULSED_COLUMNS
        if case == "numpy":
            columns = ["f64", "f32", "i64", "i32", "int", "np_bool", "bool", "mixed"]
            rows = [
                dict(zip(columns, (np.float64(1.0 / 3.0), np.float32(0.1), np.int64(-12),
                                   np.int32(5), 2**70, np.True_, False, 0.5))),
                dict(zip(columns, (np.float64("nan"), np.float32(-2.5), np.int64(7),
                                   np.int32(0), -3, np.False_, True, np.int64(4)))),
            ]
            return rows, columns
        columns = ["label", "a,b", "value"]
        rows = [
            {"label": 'say "hi", then go', "a,b": "plain", "value": 1.5},
            {"label": "two\nlines", "a,b": "", "value": float("inf")},
        ]
        return rows, columns

    @pytest.mark.parametrize("json_mirror", [False, True])
    @pytest.mark.parametrize("reproducible", [True, False])
    @pytest.mark.parametrize("case", ["cw", "pulsed", "failed", "numpy", "quoted"])
    def test_body_is_the_csv_writer_body(
        self, tmp_path, sweep_rows, case, reproducible, json_mirror
    ):
        rows, columns = self.table(case, sweep_rows)
        raw = json.loads(CS_MOT.read_text())
        raw["output"] = {"path": "out.csv", "json_mirror": json_mirror}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        emit(rows, columns, load_config(config), out, reproducible=reproducible)
        lines = out.read_bytes().decode().splitlines(keepends=True)
        n_comments = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        assert n_comments == (3 if reproducible else 4)
        assert "".join(lines[n_comments:]) == csv_writer_body(rows, columns)
        assert (tmp_path / "out.csv.json").exists() == json_mirror

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(tiny_cw_config(tmp_path))
        rows = run_cw_sweep(cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows, CW_COLUMNS, cfg, out1, reproducible=True)
        emit(run_cw_sweep(cfg), CW_COLUMNS, cfg, out2, reproducible=True)
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirror(self, tmp_path):
        path = tiny_cw_config(tmp_path)
        plain = load_config(path)
        rows = run_cw_sweep(plain)[:2]
        emit(rows, CW_COLUMNS, plain, tmp_path / "plain.csv", reproducible=True)
        assert not (tmp_path / "plain.csv.json").exists()
        raw = json.loads(path.read_text())
        raw["output"] = {"path": "m.csv", "json_mirror": True}
        path.write_text(json.dumps(raw))
        out = tmp_path / "m.csv"
        emit(rows, CW_COLUMNS, load_config(path), out, reproducible=True)
        payload = json.loads((tmp_path / "m.csv.json").read_text())
        assert payload["columns"] == CW_COLUMNS
        assert len(payload["rows"]) == 2


class TestMain:
    def test_validate_config(self, capsys):
        assert main(["validate-config", "--config", str(CS_MOT)]) == 0
        out = capsys.readouterr().out
        assert "Gamma_b/Gamma_c" in out

    def test_applied_defaults_are_logged(self, caplog):
        notes = load_config(CS_MOT).defaults_applied
        assert notes
        with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
            assert main(["validate-config", "--config", str(CS_MOT)]) == 0
        logged = [r.getMessage() for r in caplog.records if r.name == "sqfluor.cli"]
        assert logged == [f"default: {note}" for note in notes]

    def test_applied_defaults_show_on_stderr(self):
        # With logging left unconfigured, the echo reads as it did when printed.
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "sqfluor.cli", "validate-config", "--config", str(CS_MOT)],
            env=env, capture_output=True, text=True, check=True,
        )
        notes = load_config(CS_MOT).defaults_applied
        assert proc.stderr.splitlines() == [f"default: {note}" for note in notes]

    def test_missing_config_file(self):
        assert main(["validate-config", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("make_config", [
        pytest.param(lambda t: tiny_cw_config(t, beta_bar_min=0), id="beta_bar_min_zero"),
        pytest.param(lambda t: tiny_pulsed_config(t, photons_min=0), id="photons_min_zero"),
        pytest.param(lambda t: tiny_cw_config(t, beta_bar_min=-1), id="beta_bar_min_negative"),
        pytest.param(lambda t: tiny_cw_config(t, beta_bar_max="inf"), id="beta_bar_max_infinite"),
        pytest.param(lambda t: tiny_cw_config(t, points_per_decade=0), id="points_per_decade_zero"),
        pytest.param(lambda t: tiny_cw_config(t, sigma_c_over_gamma_b=[]), id="empty_axis"),
        pytest.param(
            lambda t: tiny_cw_config(t, beta_bar_min=10, beta_bar_max=0.1), id="reversed_range"
        ),
        pytest.param(
            lambda t: tiny_pulsed_config(t, sigma_c_over_sigma_p=[0.5]), id="sigma_c_below_sigma_p"
        ),
        pytest.param(
            lambda t: with_rates(tiny_cw_config(t), cb="0 rad/s", cd="0 rad/s"), id="gamma_c_zero"
        ),
        pytest.param(lambda t: with_rates(tiny_cw_config(t), da="0 MHz"), id="gamma_d_zero"),
        pytest.param(lambda t: with_section(tiny_cw_config(t), "geometry", n_atoms=-1), id="n_atoms_negative"),
        pytest.param(
            lambda t: with_section(tiny_cw_config(t), "geometry", cloud_fwhm="0 mm"), id="cloud_fwhm_zero"
        ),
        pytest.param(
            lambda t: with_section(tiny_cw_config(t), "geometry", beam_fwhm="0 mm"), id="beam_fwhm_zero"
        ),
        pytest.param(
            lambda t: with_section(tiny_cw_config(t), "geometry", waist_convention="1/e"),
            id="unknown_waist_convention",
        ),
        pytest.param(
            lambda t: with_section(tiny_cw_config(t), "geometry", rayleigh_wavelength="0 nm"),
            id="rayleigh_wavelength_zero",
        ),
        pytest.param(lambda t: tiny_cw_config(t, match_rate_windows="false"), id="match_rate_windows_string"),
        pytest.param(
            lambda t: with_section(tiny_cw_config(t), "output", json_mirror="false"), id="json_mirror_string"
        ),
    ])
    def test_unrunnable_config_is_a_config_error(self, tmp_path, capsys, make_config):
        # Each of these once loaded and then failed in the sweep (a traceback
        # or a NaN error) or silently wrote a wrong grid.
        assert main(["validate-config", "--config", str(make_config(tmp_path))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("config error: ")

    @pytest.mark.parametrize("beam_fwhm, cloud_fwhm", [
        ("1 mm", "0.1 mm"), ("0.2 mm", "0.03 mm"), ("0.3 mm", "0.03 mm"),
    ])
    @pytest.mark.parametrize("command", ["aeff", "cw-sweep", "pulsed-sweep"])
    def test_wide_beam_on_a_short_cloud_runs(self, tmp_path, command, beam_fwhm, cloud_fwhm):
        # A cloud far shorter than the Rayleigh range once stretched the
        # effective area's z quadrature to 10 z_R, where it never converged:
        # each command ended in ConvergenceError and wrote no row.
        make = tiny_pulsed_config if command == "pulsed-sweep" else tiny_cw_config
        path = with_section(make(tmp_path), "geometry", beam_fwhm=beam_fwhm, cloud_fwhm=cloud_fwhm)
        out = tmp_path / "o.csv"
        argv = [command, "--config", str(path)] + (["--out", str(out)] if command != "aeff" else [])
        assert main(argv) == 0
        if command != "aeff":
            assert "failed" not in out.read_text()

    def test_bad_numerics_is_a_config_error(self, tmp_path, capsys):
        path = with_numerics(tiny_cw_config(tmp_path), trunc_tol=2.0)
        assert main(["cw-sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error: numerics.trunc_tol" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["aeff", "--jobs", "2"],
        ["validate-config", "--out", "x"],
        ["self-test", "--reproducible"],
        ["cw-sweep", "--jobs", "2"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, capsys, argv):
        command, *flags = argv
        config = [] if command == "self-test" else ["--config", str(tiny_cw_config(tmp_path))]
        with pytest.raises(SystemExit) as info:
            main([command, *config, *flags])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_self_test(self, capsys):
        assert main(["self-test"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_aeff(self, capsys):
        assert main(["aeff", "--config", str(CS_MOT)]) == 0
        out = capsys.readouterr().out
        assert out.count("A_eff") == 2  # both Rayleigh-wavelength choices

    def test_cw_sweep_cli(self, tmp_path):
        cfg_path = tiny_cw_config(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main([
            "cw-sweep", "--config", str(cfg_path), "--out", str(out), "--reproducible",
        ])
        assert code == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header == ",".join(CW_COLUMNS)

    @pytest.mark.parametrize(
        "command, make_config, wanted",
        [
            ("cw-sweep", tiny_pulsed_config, "squeezed_cw"),
            ("pulsed-sweep", tiny_cw_config, "squeezed_pulsed"),
        ],
    )
    def test_sweep_rejects_the_other_regime(self, tmp_path, capsys, command, make_config, wanted):
        out = tmp_path / "sweep.csv"
        code = main([command, "--config", str(make_config(tmp_path)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"{command} requires source.regime = {wanted}"
        assert not any(line.startswith("Traceback") for line in err)
        assert not out.exists()

    @pytest.mark.parametrize("ratio", [1.0, 4.0])
    def test_schmidt_export(self, tmp_path, capsys, ratio):
        cfg_path = tiny_pulsed_config(tmp_path, sigma_c_over_sigma_p=[ratio])
        base = tmp_path / "sch"
        assert main(["schmidt", "--config", str(cfg_path), "--out", str(base)]) == 0
        jsi = (tmp_path / "sch_jsi.csv").read_text().splitlines()
        assert jsi[0] == "omega_I,omega_II,jsi" and len(jsi) == 1 + 129 * 129
        header, *rows = (tmp_path / "sch_schmidt.csv").read_text().splitlines()
        assert header == "n,p_n"
        assert [row.split(",")[0] for row in rows] == [str(n) for n in range(len(rows))]
        cells = [row.split(",")[1] for row in rows]

        # The double-Gaussian spectrum p_n = (1 - mu) mu^n, kept until mu^n < trunc_tol.
        sigma_p = load_config(cfg_path).system.gamma_b
        sigma_c = ratio * sigma_p
        mu = ((sigma_c - sigma_p) / (sigma_c + sigma_p)) ** 2
        n_modes = 1 if mu == 0.0 else math.ceil(math.log(1e-8) / math.log(mu))
        assert len(rows) == n_modes
        law = (1.0 - mu) * mu ** np.arange(n_modes)
        assert cells == [repr(float(v)) for v in law]
        tail = 0.0 if mu == 0.0 else mu**n_modes
        assert capsys.readouterr().out == (
            f"wrote {base}_jsi.csv and {base}_schmidt.csv ({n_modes} modes, tail {tail:.2e})\n"
        )


@pytest.mark.parametrize("ratio, warned", [(100.0, False), (1e4, True)])
def test_schmidt_export_warns_at_the_mode_cap(tmp_path, caplog, ratio, warned):
    # At sigma_c/sigma_p = 1e4 the 2000 modes kept leave mu^2000 = 0.45 of
    # the weight out, far above trunc_tol = 1e-8; at 100, 461 modes reach it.
    cfg_path = tiny_pulsed_config(tmp_path, sigma_c_over_sigma_p=[ratio])
    with caplog.at_level(logging.WARNING, logger="sqfluor.cli"):
        assert main(["schmidt", "--config", str(cfg_path), "--out", str(tmp_path / "sch")]) == 0
    messages = [r.getMessage() for r in caplog.records if "Schmidt spectrum" in r.getMessage()]
    n_modes = len((tmp_path / "sch_schmidt.csv").read_text().splitlines()) - 1
    if warned:
        assert n_modes == sources.MAX_ANALYTIC_MODES
        assert messages == [
            "the exported Schmidt spectrum stops at 2000 modes (at most 2000 are kept) "
            "with a tail of 4.49e-01, above trunc_tol = 1e-08"
        ]
    else:
        assert n_modes == 461 and messages == []


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # At run time sqfluor needs numpy and scipy.special only; each of these
    # would add tens to hundreds of modules to the start of every process.
    names = ("optimize", "fft", "constants", "linalg", "sparse", "spatial")
    unwanted = tuple(f"scipy.{name}" for name in names)
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, sqfluor.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith(unwanted)] == []
