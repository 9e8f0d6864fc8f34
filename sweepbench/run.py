"""Sweep benchmark: CW and pulsed sweeps, end to end and layer by layer.

    python3 sweepbench/run.py --workload cw-mot --seed 0 --seconds 20 --trace 0

Run from the repository root.  Writes a sqfluor config for the workload
(grid shifted by a seed-chosen fraction of one grid step), then starts one
fresh process per round (worker.py), which imports sqfluor from ./src, loads
the config, computes A_eff, runs the sweep and writes the CSV as
`sqfluor cw-sweep` / `pulsed-sweep` do.  A first, untimed round at --jobs 1
gives the reference CSV: its rows are checked (checks.py), and every timed
round must reproduce it byte for byte.  Timed rounds repeat until --seconds
is used up (at least MIN_ROUNDS); each metric is the median over them.

--trace 0 reports setup_s, sweep_s, sweep_cpu_s and peak_rss_mb; --trace 1
wraps the layer entry points (trace_layers.py) and reports per-layer times
and counts.  The last stdout line is one JSON object with `correct`,
`attempted` and `failed` (rows) and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = ROOT / ".sweepbench_work"

MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 150.0
# Start no round that would end past this, so a run stays within 180 s.
RUN_LIMIT_S = 160.0
# The seed shifts a grid by at most this fraction of one grid step.  The
# narrowband CW rows cost about linearly in beta_bar, so a wider shift would
# move sweep_s with the seed instead of with the code.
MAX_SHIFT_FRACTION = 0.02
# Times are reported at a fixed machine speed: each round's times are scaled
# by CALIBRATION_REFERENCE_S / (the worker's calibration loop time, measured
# just before and after its sweep).  On a shared machine the speed of one
# core drifts by a quarter over minutes; the ratio cancels most of that.
CALIBRATION_REFERENCE_S = 0.018
# One BLAS thread: with OpenBLAS's default of two, the pulsed engine's small
# matrix products keep a second core busy for no gain in wall time.
BLAS_THREADS = "1"

SYSTEM = {
    "preset": "cs",
    "gamma_r": {
        "ba": "4.5612 MHz",
        "cb": "4.7772e6 rad/s",
        "cd": "8.8060e6 rad/s",
        "da": "5.2227 MHz",
    },
}
GEOMETRY = {
    "cloud_fwhm": "0.1 mm",
    "beam_fwhm": "0.1 mm",
    "n_atoms": 1000000.0,
    "waist_convention": "intensity",
    "rayleigh_wavelength": "ba",
}
CW_SOURCE = {
    "regime": "squeezed_cw",
    "sigma_c_over_gamma_b": [0.01, 1.0, 100.0],
    "range": ("beta_bar_min", 0.01, "beta_bar_max", 10.0),
    "points_per_decade": 4,
}
CW_NUMERICS = {"rel_tol": 1e-6, "max_doublings": 6}
PULSED_NUMERICS = {
    "rel_tol": 1e-6,
    "max_doublings": 6,
    "trunc_tol": 1e-8,
    "decomposition": "auto",
    "sample_rel_tol": 1e-3,
}


def _pulsed_source(sigma_p, sigma_c_over_sigma_p):
    return {
        "regime": "squeezed_pulsed",
        "sigma_p_over_gamma_b": sigma_p,
        "sigma_c_over_sigma_p": sigma_c_over_sigma_p,
        "range": ("photons_min", 0.01, "photons_max", 1e4),
        "points_per_decade": 60,
    }


WORKLOADS = {
    "cw-mot": {"kind": "cw", "jobs": 1, "source": CW_SOURCE, "numerics": CW_NUMERICS},
    "cw-mot-j2": {"kind": "cw", "jobs": 2, "source": CW_SOURCE, "numerics": CW_NUMERICS},
    "pulsed-broadband": {
        "kind": "pulsed", "jobs": 1,
        "source": _pulsed_source([0.1], [30.0]), "numerics": PULSED_NUMERICS,
    },
    "pulsed-fewmode": {
        "kind": "pulsed", "jobs": 1,
        "source": _pulsed_source([0.1, 1.0, 10.0], [1.0, 10.0]), "numerics": PULSED_NUMERICS,
    },
}


class BenchError(RuntimeError):
    pass


def _grid_size(lo: float, hi: float, points_per_decade: float) -> int:
    """Row count of sqfluor's log grid, with the same arithmetic."""
    return max(2, int(np.ceil(np.log10(hi / lo) * points_per_decade)) + 1)


def shifted_range(lo: float, hi: float, points_per_decade: float, seed: int):
    """(lo, hi, fraction): the log grid moved by a seeded fraction of a step.

    The row count stays that of the unshifted grid: where rounding in the
    shifted ratio would change it, hi moves by a few ulps.
    """
    fraction = random.Random(seed).uniform(-MAX_SHIFT_FRACTION, MAX_SHIFT_FRACTION)
    factor = 10.0 ** (fraction / points_per_decade)
    new_lo, new_hi = lo * factor, hi * factor
    target = _grid_size(lo, hi, points_per_decade)
    for _ in range(64):
        size = _grid_size(new_lo, new_hi, points_per_decade)
        if size == target:
            return new_lo, new_hi, fraction
        new_hi = float(np.nextafter(new_hi, 0.0 if size > target else np.inf))
    raise BenchError("could not keep the grid size under the seed shift")


def make_config(workload: dict, seed: int) -> tuple[dict, float]:
    source = dict(workload["source"])
    lo_key, lo, hi_key, hi = source.pop("range")
    new_lo, new_hi, fraction = shifted_range(lo, hi, source["points_per_decade"], seed)
    source[lo_key], source[hi_key] = new_lo, new_hi
    config = {
        "system": SYSTEM,
        "geometry": GEOMETRY,
        "source": source,
        "numerics": workload["numerics"],
        "output": {"path": "sweep.csv"},
    }
    return config, fraction


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE", "PYTHONSTARTUP"):
        env.pop(key, None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def run_round(config_path: Path, out_path: Path, jobs: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--root", str(ROOT), "--config", str(config_path),
        "--out", str(out_path), "--jobs", str(jobs),
    ]
    if trace:
        cmd.append("--trace")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sweep process exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sweep process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["round_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return result


def differing_rows(reference: bytes, candidate: bytes, n_rows: int) -> set:
    """Indices of the rows whose CSV lines differ; all rows if the shape does."""
    ref, cand = reference.splitlines(), candidate.splitlines()
    if len(ref) != len(cand) or ref[: len(ref) - n_rows] != cand[: len(cand) - n_rows]:
        return set(range(n_rows))
    offset = len(ref) - n_rows
    return {i - offset for i in range(offset, len(ref)) if ref[i] != cand[i]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqfluor" / "__init__.py").is_file():
        print(f"sweepbench: no sqfluor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return _run(args, workload, work)
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload: dict, work: Path) -> int:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    config, fraction = make_config(workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    trace = bool(args.trace)

    # Reference round: serial, untimed; also fills the bytecode cache.
    ref_csv = work / "reference.csv"
    reference = run_round(config_path, ref_csv, jobs=1, trace=False)
    ref_bytes = ref_csv.read_bytes()
    rows = checks.read_rows(ref_csv)
    check = checks.check_cw if workload["kind"] == "cw" else checks.check_pulsed
    failures = check(rows, config)
    ref_failed = set().union(*failures.values())
    wrong = {name: len(idx) for name, idx in failures.items() if name != "validity_failed"}
    n_rows = len(rows)
    if reference["rows"] != n_rows:
        raise BenchError(f"worker reported {reference['rows']} rows, CSV holds {n_rows}")

    attempted = n_rows
    failed = len(ref_failed)
    mismatched = 0
    results = []
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    while True:
        out = work / f"round{len(results)}.csv"
        result = run_round(config_path, out, workload["jobs"], trace)
        diff = differing_rows(ref_bytes, out.read_bytes(), n_rows)
        out.unlink()
        mismatched += len(diff)
        attempted += n_rows
        failed += len(ref_failed | diff)
        results.append(result)
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        next_round = statistics.median(r["round_s"] for r in results)
        if len(results) >= MIN_ROUNDS and now + next_round - first > args.seconds:
            break
        if now + next_round - started > RUN_LIMIT_S:
            break

    correct = not wrong and mismatched == 0
    print(
        f"sweepbench: workload={args.workload} seed={args.seed} "
        f"shift={fraction:+.5f} step rows={n_rows} jobs={workload['jobs']} "
        f"rounds={len(results)} blas_threads={BLAS_THREADS} trace={args.trace}"
    )
    for name, count in sorted(wrong.items()):
        print(f"sweepbench: check {name} rejected {count} rows")
    if mismatched:
        print(f"sweepbench: {mismatched} rows differ from the --jobs 1 reference")

    if trace:
        raw = statistics.median(r["sweep_s"] for r in results)
        print(f"  sweep_s as measured, traced = {raw:.6g} s")
        names = list(results[0]["layers"])
        metrics = {}
        for name in names:
            values = [r["layers"][name] for r in results]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            elif len(set(values)) == 1:
                metrics[name] = {"value": values[0], "unit": "count"}
            else:
                print(f"sweepbench: count {name} differs between rounds: {values}")
                metrics[name] = {"value": statistics.median(values), "unit": "count"}
    else:
        metrics = {}
        for name in ("setup_s", "sweep_s", "sweep_cpu_s"):
            raw = statistics.median(r[name] for r in results)
            scaled = statistics.median(
                r[name] * CALIBRATION_REFERENCE_S / r["calibration_s"] for r in results
            )
            print(f"  {name} as measured = {raw:.6g} s")
            metrics[name] = {"value": scaled, "unit": "s"}
        rss = statistics.median(r["peak_rss_mb"] for r in results)
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
        calibration = statistics.median(r["calibration_s"] for r in results)
        print(f"  calibration loop = {calibration:.6g} s (reference {CALIBRATION_REFERENCE_S} s)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
