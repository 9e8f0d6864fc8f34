"""One sweep in a fresh process, as `sqfluor cw-sweep` / `pulsed-sweep` runs it.

    python3 worker.py --root ROOT --config CFG --out CSV --jobs N --t0 T [--trace]

Imports sqfluor from ROOT/src, loads CFG, computes the effective area, runs
the sweep and writes CSV with `emit`.  Prints one JSON line: `setup_s` from
T (CLOCK_MONOTONIC, read by the parent just before it started this process)
to the effective area in hand, `sweep_s` and `sweep_cpu_s` over sweep plus
emit, `peak_rss_mb`, the row count, `calibration_s` and, with --trace, the
layer metrics.

`calibration_s` is the mean time of a fixed loop (interpreter arithmetic,
numpy element-wise work and a small matrix product) run CALIBRATION_REPS
times just before and just after the sweep, so the parent can rescale this
process's times to a fixed machine speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


CALIBRATION_REPS = 8


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_rep() -> float:
    """One repetition of the fixed calibration loop; returns its duration."""
    import numpy as np

    start = _now()
    x = np.linspace(-3.0, 3.0, 4001)
    m = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
    acc = 0.0
    for i in range(100_000):
        acc += (i * 0.5) ** 0.5
    for k in range(250):
        y = np.sinh(0.004 * k * np.exp(-x * x))
        acc += float(y @ y)
    for _ in range(25):
        acc += float((m @ m).sum())
    if not acc > 0.0:
        raise RuntimeError("calibration loop produced no work")
    return _now() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    t_import = _now()
    import sqfluor.cli as cli
    from sqfluor.config import load_config
    from sqfluor.geometry import effective_area

    t_imported = _now()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
        tracer.add("setup.import_s", t_imported - t_import)
        load_config = tracer.wrap("config.load_config", load_config)
        effective_area = tracer.wrap("geometry.effective_area", effective_area)

    cfg = load_config(args.config)
    effective_area(cfg.beam(), cfg.beam(), cfg.cloud(), cfg.numerics_options())
    setup_s = _now() - args.t0

    if cfg.source["regime"] == "squeezed_cw":
        sweep, columns = cli.run_cw_sweep, cli.CW_COLUMNS
    else:
        sweep, columns = cli.run_pulsed_sweep, cli.PULSED_COLUMNS
    emit = cli.emit
    if tracer is not None:
        sweep = tracer.wrap("cli.sweep", sweep)
        emit = tracer.wrap("cli.emit", emit)

    calibration = [calibration_rep() for _ in range(CALIBRATION_REPS)]
    wall0, cpu0 = _now(), time.process_time()
    rows = sweep(cfg, jobs=args.jobs)
    emit(rows, columns, cfg, args.out, reproducible=True)
    wall1, cpu1 = _now(), time.process_time()
    calibration += [calibration_rep() for _ in range(CALIBRATION_REPS)]

    result = {
        "setup_s": setup_s,
        "sweep_s": wall1 - wall0,
        "sweep_cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": len(rows),
        "calibration_s": sum(calibration) / len(calibration),
    }
    if tracer is not None:
        tracer.count("cli.rows", len(rows))
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
