"""The benchmark's own tests: every row check rejects perturbed rows.

    python3 -m pytest sweepbench

Small CW and pulsed sweeps are computed once with sqfluor from ./src; each
check must accept them and reject them with one column scaled by 1% (on the
rows the check reads) or with coherent and incoherent swapped.  The
photon-rate series is compared with a brute-force quadrature.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

SRC = Path(__file__).resolve().parent.parent / "src"


def _sweep(workload: dict, source_update: dict, tmp_path_factory):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sqfluor.cli as cli
    from sqfluor.config import load_config

    workload = copy.deepcopy(workload)
    workload["source"].update(source_update)
    config, _ = run.make_config(workload, 0)
    directory = tmp_path_factory.mktemp(workload["kind"])
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config))
    cfg = load_config(config_path)
    out = directory / "sweep.csv"
    if workload["kind"] == "cw":
        cli.emit(cli.run_cw_sweep(cfg), cli.CW_COLUMNS, cfg, out, reproducible=True)
    else:
        cli.emit(cli.run_pulsed_sweep(cfg), cli.PULSED_COLUMNS, cfg, out, reproducible=True)
    return checks.read_rows(out), config


@pytest.fixture(scope="module")
def cw(tmp_path_factory):
    # One point per decade: beta_bar ~ 0.01, 0.1, 1, 10 in each column.
    return _sweep(run.WORKLOADS["cw-mot"], {"points_per_decade": 1}, tmp_path_factory)


@pytest.fixture(scope="module")
def pulsed(tmp_path_factory):
    update = {
        "sigma_p_over_gamma_b": [1.0], "sigma_c_over_sigma_p": [1.0, 10.0],
        "points_per_decade": 10,
    }
    return _sweep(run.WORKLOADS["pulsed-fewmode"], update, tmp_path_factory)


def _scaled(rows, column, factor=1.01, where=lambda row: True):
    out = copy.deepcopy(rows)
    for row in out:
        if where(row):
            row[column] *= factor
    return out


def _swapped(rows, a, b):
    out = copy.deepcopy(rows)
    for row in out:
        row[a], row[b] = row[b], row[a]
    return out


def test_cw_rows_pass(cw):
    rows, config = cw
    assert checks.check_cw(rows, config) == {}


def test_pulsed_rows_pass(pulsed):
    rows, config = pulsed
    assert checks.check_pulsed(rows, config) == {}


@pytest.mark.parametrize("check, perturb", [
    ("photon_rate_series", lambda r: _scaled(r, "photon_rate_per_s")),
    ("split_sums", lambda r: _scaled(r, "r_sq_total")),
    ("split_sums", lambda r: _swapped(r, "r_sq_coherent", "r_sq_incoherent")),
    ("fluorescence_branching", lambda r: _scaled(r, "R_fluor_sq_total")),
    ("broadband_ratio", lambda r: _scaled(r, "ratio_coh_over_incoh")),
    ("narrowband_factor_two", lambda r: _scaled(r, "ratio_sq_over_cl")),
    ("classical_scaling", lambda r: _scaled(
        r, "r_classical", where=lambda row: row["sigma_c_over_gamma_b"] == 1.0)),
])
def test_cw_check_rejects(cw, check, perturb):
    rows, config = cw
    assert check in checks.check_cw(perturb(rows), config)


@pytest.mark.parametrize("check, perturb", [
    ("split_sums", lambda r: _scaled(r, "n_fluor_sq_total")),
    ("fluorescence_branching", lambda r: _scaled(r, "n_fluor_sq_coherent")),
    ("separable_panel", lambda r: _scaled(r, "p_sq_coherent")),
    ("separable_panel", lambda r: _swapped(r, "p_sq_coherent", "p_sq_incoherent")),
    ("low_gain_slopes", lambda r: _swapped(r, "p_sq_coherent", "p_sq_incoherent")),
])
def test_pulsed_check_rejects(pulsed, check, perturb):
    rows, config = pulsed
    assert check in checks.check_pulsed(perturb(rows), config)


def test_failed_rows_are_counted(cw):
    rows, config = cw
    rows = copy.deepcopy(rows)
    rows[2]["validity"] = "failed"
    assert checks.check_cw(rows, config) == {"validity_failed": {2}}


@pytest.mark.parametrize("beta_bar", [0.01, 0.7, 3.0, 10.0, 17.0])
@pytest.mark.parametrize("sigma", [2.9e5, 2.9e9])
def test_photon_rate_series_matches_quadrature(beta_bar, sigma):
    # Brute force: trapezoid rule of sinh^2(beta exp(-x^2/2)) on +/-12 sigma.
    x = np.linspace(-12.0, 12.0, 400_001)
    integrand = np.sinh(beta_bar * np.exp(-0.5 * x * x)) ** 2
    brute = np.trapezoid(integrand, x) * sigma / (2.0 * math.pi)
    assert checks.photon_rate_series(beta_bar, sigma) == pytest.approx(brute, rel=1e-10)


def test_seed_shift_keeps_rows():
    for name, workload in run.WORKLOADS.items():
        source = workload["source"]
        _, lo, _, hi = source["range"]
        size = run._grid_size(lo, hi, source["points_per_decade"])
        for seed in range(50):
            new_lo, new_hi, fraction = run.shifted_range(lo, hi, source["points_per_decade"], seed)
            assert abs(fraction) <= run.MAX_SHIFT_FRACTION
            assert run._grid_size(new_lo, new_hi, source["points_per_decade"]) == size, name
