"""The sweepbench layer tracer still finds every name it wraps.

`sweepbench/trace_layers.py` replaces entry points on `sqfluor.cli`,
`sqfluor.excitation` and `sqfluor.sources` by name and subclasses the pulsed
engine.  A rename on this side breaks only `sweepbench/run.py --trace 1`,
which Tier-1 does not run, so this test runs the traced worker on one tiny
CW and one tiny pulsed sweep and checks that the wrapped layers were reached.
It reads `sweepbench/` and changes nothing there.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKER = REPO / "sweepbench" / "worker.py"
CS_MOT = REPO / "configs" / "cs_mot.json"


def traced_sweep(tmp_path, source: dict, numerics: dict) -> dict:
    raw = json.loads(CS_MOT.read_text())
    raw["source"], raw["numerics"] = source, numerics
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    cmd = [
        sys.executable, str(WORKER), "--root", str(REPO), "--config", str(config),
        "--out", str(tmp_path / "sweep.csv"), "--jobs", "1",
        "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--trace",
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cw_layers_are_traced(tmp_path):
    result = traced_sweep(
        tmp_path,
        {
            "regime": "squeezed_cw", "sigma_c_over_gamma_b": [1.0],
            "beta_bar_min": 0.1, "beta_bar_max": 1.0, "points_per_decade": 2,
        },
        {"rel_tol": 1e-6, "max_doublings": 6},
    )
    layers = result["layers"]
    assert result["rows"] == layers["cli.rows"] == 3
    assert layers["sources.photon_rate_cw_calls"] == 3  # one per row
    # CW rows read Gaussian series: no lattice, no gain samples, no kernel quadrature.
    assert layers["peaked.quad_kernel_smooth_calls"] == 0
    assert layers["sources.gain_functions_cw_points"] == 0
    for name in (
        "excitation.rate_squeezed_cw_s", "excitation.classical_cw_s",
        "geometry.effective_area_s",
    ):
        assert layers[name] > 0, name


def test_pulsed_layers_are_traced(tmp_path):
    result = traced_sweep(
        tmp_path,
        {
            "regime": "squeezed_pulsed", "sigma_p_over_gamma_b": [1.0],
            "sigma_c_over_sigma_p": [4.0], "photons_min": 0.1, "photons_max": 10.0,
            "points_per_decade": 1,
        },
        {"rel_tol": 1e-6, "max_doublings": 6, "trunc_tol": 1e-8},
    )
    layers = result["layers"]
    assert result["rows"] == layers["cli.rows"] == 3
    assert layers["excitation.engine_builds"] == 1  # one per panel
    # A brentq callback is counted once per call, whatever the length of the
    # array it takes.  A panel inverts once: its whole photon grid in one
    # lock-step solve; a row inverts on its own only when its grid entry
    # failed, and the classical reference takes no inversion.  The bound
    # allows 10 callbacks a solve for two panel solves and one solve per row,
    # so it holds with room to spare (7 callbacks here).
    assert layers["cli.beta_inversion_evals"] <= 10 * (result["rows"] + 2)
    for name in (
        "cli.beta_inversion_evals", "cli.beta_inversion_s", "sources.schmidt_decompose_s",
        "sources.modes_kept", "excitation.lattice_points", "excitation.levels_warm_s",
        "excitation.reweight_s", "excitation.coherent_probability_s",
        "excitation.incoherent_probability_s", "excitation.max_population_s",
        "excitation.classical_pulsed_s",
    ):
        assert layers[name] > 0, name

