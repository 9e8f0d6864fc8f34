"""Accuracy and speed of sqfluor's error-function kernels on the arguments the sweeps' tables visit.

    PYTHONPATH=src python tests/tables/special_kernels.py

Run from the repository root; takes a few seconds.  Not a test:
pytest does not collect this file.  For each of sweepbench's workloads at
seed 0 (`sweepbench/run.py`; cw-mot-j2 shares cw-mot's arguments) and the
two shipped configs, it runs the sweep once with `sqfluor.special`'s
erfcx and wofz recorded where `excitation` and `geometry` call them,
then prints per kernel:

- the calls and arguments;
- the largest relative error against 30-digit mpmath, over 300 quantiles
  of the arguments and the 100 furthest from scipy;
- the largest relative difference from `scipy.special` over all of them;
- the time to replay every call, as the sweep made it, with the kernel and
  with `scipy.special` (medians of 15 replays), and their ratio.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "sweepbench"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402
import run as bench  # noqa: E402  (sweepbench/run.py: the workload configs)
import scipy.special  # noqa: E402
from test_special import mp_erfcx, mp_wofz, subsample  # noqa: E402

import sqfluor.cli as cli  # noqa: E402
import sqfluor.excitation as excitation  # noqa: E402
import sqfluor.geometry as geometry  # noqa: E402
from sqfluor import special  # noqa: E402
from sqfluor.config import load_config  # noqa: E402

KERNELS = {"erfcx": mp_erfcx, "wofz": mp_wofz}


def record(config_path: Path) -> dict:
    """{kernel: [arguments of each call]} of one sweep."""
    calls = {name: [] for name in KERNELS}

    def recording(name, kernel):
        def recorded(x):
            calls[name].append(np.array(x))
            return kernel(x)
        return recorded

    originals = {name: getattr(excitation, name) for name in KERNELS}, geometry.erfcx
    for name in KERNELS:
        setattr(excitation, name, recording(name, getattr(special, name)))
    geometry.erfcx = recording("erfcx", special.erfcx)
    try:
        cfg = load_config(config_path)
        run = cli.run_cw_sweep if cfg.source["regime"] == "squeezed_cw" else cli.run_pulsed_sweep
        run(cfg)
    finally:
        for name, kernel in originals[0].items():
            setattr(excitation, name, kernel)
        geometry.erfcx = originals[1]
    return calls


def replay(kernel, calls) -> float:
    """Median seconds to evaluate every call, as the sweep made it."""
    times = []
    for _ in range(15):
        start = time.perf_counter()
        for x in calls:
            kernel(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    configs = [("configs/cs_mot_pulsed_sweep.json", ROOT / "configs" / "cs_mot_pulsed_sweep.json"),
               ("configs/cs_mot_cw_sweep.json", ROOT / "configs" / "cs_mot_cw_sweep.json")]
    print("| sweep | kernel | calls | arguments | max rel err vs mpmath | max rel diff vs scipy "
          "| kernel time | scipy time | ratio |")
    print("|---|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in bench.WORKLOADS.items():
            if name == "cw-mot-j2":
                continue
            raw, _ = bench.make_config(workload, 0)
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(raw))
            configs.append((f"sweepbench {name}", path))
        for title, path in configs:
            for kernel, calls in record(path).items():
                if not calls:
                    continue
                x = np.concatenate([c.ravel() for c in calls])
                ours = getattr(special, kernel)(x)
                theirs = getattr(scipy.special, kernel)(x)
                diff = np.abs(ours - theirs) / np.abs(theirs)
                picked = subsample(x, diff)
                reference = np.array([KERNELS[kernel](v) for v in picked])
                error = np.max(np.abs(getattr(special, kernel)(picked) - reference) / np.abs(reference))
                ours_s = replay(getattr(special, kernel), calls)
                theirs_s = replay(getattr(scipy.special, kernel), calls)
                print(f"| {title} | {kernel} | {len(calls)} | {x.size} | {error:.1e} | {np.max(diff):.1e} "
                      f"| {ours_s * 1e3:.2f} ms | {theirs_s * 1e3:.2f} ms | {ours_s / theirs_s:.2f} |")


if __name__ == "__main__":
    main()
