"""Spans and counts around the calls into each sqfluor layer, from outside.

`Tracer.install` replaces the layer entry points on the module that imports
them (`sqfluor.cli`, `sqfluor.excitation`, `sqfluor.sources`) with wrappers
that record a span per call: its duration, and the time its direct child
spans on the same thread took.  Counts are taken at the same boundaries.
Nothing inside sqfluor is edited; the wrappers call the original objects.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Spans whose children are the work cli hands to the other layers.
CLI_SPANS = ("cli.sweep", "cli.row")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals = defaultdict(float)
        self.self_totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.cli_children: list = []
        self.pool_wait_s = 0.0
        self.sweep_span = (0.0, 0.0)

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self, name: str) -> list:
        frame = [name, _now(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _now()
        stack = self._stack()
        stack.pop()
        name, start, children = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        with self._lock:
            self.totals[name] += duration
            self.self_totals[name] += duration - children
            self.counts[name] += 1
            if parent is not None and parent[0] in CLI_SPANS:
                self.cli_children.append((start, end))
            if name == "cli.sweep":
                self.sweep_span = (start, end)

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.totals[name] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(amount)

    # -- patches -------------------------------------------------------------

    def install(self) -> None:
        import sqfluor.cli as cli
        import sqfluor.excitation as excitation
        import sqfluor.sources as sources

        tracer = self
        cli.effective_area = self.wrap("geometry.effective_area", cli.effective_area)
        cli._beta_for_photons = self.wrap("cli.beta_inversion", cli._beta_for_photons)
        cli.brentq = self._counting_brentq(cli.brentq)
        cli.rate_squeezed_cw = self.wrap("excitation.rate_squeezed_cw", cli.rate_squeezed_cw)
        cli.matched_classical_cw = self.wrap("excitation.classical_cw", cli.matched_classical_cw)
        cli.rate_classical_cw = self.wrap("excitation.classical_cw", cli.rate_classical_cw)
        cli.p_classical_pulsed = self.wrap("excitation.classical_pulsed", cli.p_classical_pulsed)
        cli.matched_classical_pulsed = self.wrap(
            "excitation.classical_pulsed", cli.matched_classical_pulsed
        )
        cli.schmidt_decompose = self.wrap("sources.schmidt_decompose", cli.schmidt_decompose)
        cli.schmidt_decompose_analytic = self.wrap(
            "sources.schmidt_decompose", cli.schmidt_decompose_analytic
        )
        rate = self.wrap("sources.photon_rate_cw", cli.photon_rate_cw)
        cli.photon_rate_cw = excitation.photon_rate_cw = rate
        excitation.quad_kernel_smooth = self._traced_quad(excitation.quad_kernel_smooth)
        gain = self._traced_gain(sources.gain_functions_cw)
        excitation.gain_functions_cw = sources.gain_functions_cw = gain

        class TracedEngine(cli.PulsedExcitationEngine):
            def __init__(self, *args, **kwargs):
                with tracer.span("excitation.engine_build"):
                    super().__init__(*args, **kwargs)
                tracer.count("excitation.lattice_points", self.n_in * self.n_out_max)
                tracer.count("sources.modes_kept", self.dec.n_modes)
                self._outcomes = 0

            def outcome(self, dec=None):
                name = "excitation.levels_warm" if self._outcomes == 0 else "excitation.reweight"
                self._outcomes += 1
                with tracer.span(name):
                    return super().outcome(dec)

            def coherent_probability(self, dec=None):
                with tracer.span("excitation.coherent_probability"):
                    return super().coherent_probability(dec)

            def incoherent_probability(self, dec=None):
                with tracer.span("excitation.incoherent_probability"):
                    return super().incoherent_probability(dec)

            def max_population_weighted(self, weights):
                with tracer.span("excitation.max_population"):
                    return super().max_population_weighted(weights)

        class TracedPool(cli.ThreadPoolExecutor):
            """Row spans in the pool threads; the caller's wait in the with-block."""

            def __enter__(self):
                self._entered = _now()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    waited = _now() - self._entered
                    with tracer._lock:
                        tracer.pool_wait_s += waited

            def map(self, fn, *iterables, **kwargs):
                return super().map(tracer.wrap("cli.row", fn), *iterables, **kwargs)

        cli.PulsedExcitationEngine = TracedEngine
        cli.ThreadPoolExecutor = TracedPool

    def _counting_brentq(self, brentq):
        def traced(f, *args, **kwargs):
            def counted(x):
                self.count("cli.beta_inversion_evals")
                return f(x)

            return brentq(counted, *args, **kwargs)

        return traced

    def _traced_quad(self, quad):
        def traced(kernel, smooth, *args, **kwargs):
            def counted(w):
                self.count("peaked.integrand_points", np.size(w))
                return smooth(w)

            with self.span("peaked.quad_kernel_smooth"):
                return quad(kernel, counted, *args, **kwargs)

        return traced

    def _traced_gain(self, gain):
        def traced(omega, *args, **kwargs):
            self.count("sources.gain_functions_cw_points", np.size(omega))
            with self.span("sources.gain_functions_cw"):
                return gain(omega, *args, **kwargs)

        return traced

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        t, own, n = self.totals, self.self_totals, self.counts
        lo, hi = self.sweep_span
        sweep_s = hi - lo
        return {
            "setup.import_s": t["setup.import_s"],
            "config.load_config_s": t["config.load_config"],
            "geometry.effective_area_s": t["geometry.effective_area"],
            "cli.self_s": sweep_s - _union_length(self.cli_children, lo, hi),
            "cli.beta_inversion_s": t["cli.beta_inversion"],
            "cli.beta_inversion_evals": n["cli.beta_inversion_evals"],
            "cli.emit_s": t["cli.emit"],
            "cli.rows": n["cli.rows"],
            "cli.thread_busy_s": sweep_s - self.pool_wait_s + t["cli.row"],
            "excitation.rate_squeezed_cw_s": t["excitation.rate_squeezed_cw"],
            "excitation.rate_squeezed_cw_self_s": own["excitation.rate_squeezed_cw"],
            "excitation.classical_cw_s": t["excitation.classical_cw"],
            "excitation.engine_build_s": t["excitation.engine_build"],
            "excitation.engine_builds": n["excitation.engine_build"],
            "excitation.lattice_points": n["excitation.lattice_points"],
            "excitation.levels_warm_s": t["excitation.levels_warm"],
            "excitation.reweight_s": t["excitation.reweight"],
            "excitation.coherent_probability_s": t["excitation.coherent_probability"],
            "excitation.incoherent_probability_s": t["excitation.incoherent_probability"],
            "excitation.max_population_s": t["excitation.max_population"],
            "excitation.classical_pulsed_s": t["excitation.classical_pulsed"],
            "peaked.quad_kernel_smooth_s": t["peaked.quad_kernel_smooth"],
            "peaked.quad_kernel_smooth_calls": n["peaked.quad_kernel_smooth"],
            "peaked.integrand_points": n["peaked.integrand_points"],
            "sources.schmidt_decompose_s": t["sources.schmidt_decompose"],
            "sources.modes_kept": n["sources.modes_kept"],
            "sources.photon_rate_cw_s": t["sources.photon_rate_cw"],
            "sources.photon_rate_cw_calls": n["sources.photon_rate_cw"],
            "sources.gain_functions_cw_points": n["sources.gain_functions_cw_points"],
        }
