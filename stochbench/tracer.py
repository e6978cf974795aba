"""Span tracer that wraps stochflow's layer functions from outside the package.

Each wrapped attribute is replaced, in the namespace of the module that calls it,
by a wrapper that pushes a frame on an in-memory span stack, runs the original,
and on exit adds ``duration - child time`` to the span's self time and the full
duration to the parent's child time.  ``Tracer.uninstall`` puts every original
back, so an untraced run executes unmodified package code.

The tracer assumes one thread: the benchmark runs every workload with threads=1.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name).  Attributes are patched where the caller looks
# them up, so e.g. the engine's own ``eval_batch`` is wrapped but the ones used by
# ``inverse`` or ``oracle`` are left alone and count as their caller's self time.
RUN_SPANS = [
    ("checks", "simulate_paths", "engine.simulate_paths"),
    ("estimators", "simulate_paths", "engine.simulate_paths"),
    ("engine", "eval_batch", "fields.eval_batch"),
    ("checks", "chart_from_batch", "inverse.chart_from_batch"),
    # collect_psi_samples imports chart_from_batch from inverse at call time.
    ("inverse", "chart_from_batch", "inverse.chart_from_batch"),
    ("estimators", "invert_batch", "inverse.invert_batch"),
    ("inverse", "invert_batch", "inverse.invert_batch"),
    ("checks", "roundtrip_error", "inverse.roundtrip_error"),
    ("checks", "collect_psi_samples", "estimators.collect_psi_samples"),
    ("checks", "entropy_decay_check", "estimators.entropy_decay_check"),
    ("checks", "conserved_quantity_batch", "estimators.reductions"),
    ("checks", "martingale_values", "estimators.reductions"),
    ("checks", "fields_from_samples", "estimators.reductions"),
    ("checks", "jensen_check", "estimators.reductions"),
    ("oracle", "assemble_generator", "oracle.assemble_generator"),
    ("oracle", "splu", "oracle.factorize"),
    ("checks", "solve_adjoint", "oracle.solve_adjoint"),
    ("checks", "solve_forward", "oracle.solve_forward"),
    ("checks", "entropy_series", "oracle.entropy_series"),
    ("estimators", "entropy_series", "oracle.entropy_series"),
]

# Chunk dispatch is counted, not timed: a span there would take the self time of
# the per-realization loops that run inside the chunk workers.
CHUNK_COUNTERS = [("checks", "run_chunks"), ("estimators", "run_chunks")]

SETUP_SPANS = [
    ("config", "parse_field", "fields.parse"),
    ("coefficients", "parse_field", "fields.parse"),
    ("coefficients", "differentiate", "fields.differentiate"),
    ("config", "assemble", "coefficients.assemble"),
]


class Tracer:
    """Self times, call counts and counters of one traced run."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def _enter(self) -> list:
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, duration: float) -> None:
        self._stack.pop()
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += duration

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as the outermost span ``name``; returns (result, seconds)."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._exit(name, frame, duration)
        return result, duration

    def _span_wrapper(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, time.perf_counter() - t0)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _chunk_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(realization_indices, worker, *args, **kwargs):
            def counted(chunk):
                self.counts["engine.chunks"] += 1
                return worker(chunk)

            return fn(realization_indices, counted, *args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def install_run(self, pkg) -> None:
        """Wrap the layer functions that ``run_scenario`` reaches."""
        status_ok = pkg.inverse.STATUS_OK

        def on_inversion(tracer, args, result):
            status = result[1]
            tracer.counts["inverse.queries"] += status.size
            tracer.counts["inverse.queries_ok"] += int((status == status_ok).sum())

        hooks = {
            "engine.simulate_paths": _on_batch,
            "inverse.invert_batch": on_inversion,
            "oracle.factorize": _on_factorize,
        }
        for module, attribute, name in RUN_SPANS:
            owner = getattr(pkg, module)
            self._patch(owner, attribute,
                        self._span_wrapper(name, getattr(owner, attribute), hooks.get(name)))
        driver = pkg.brownian.BrownianDriver
        self._patch(driver, "increments_block",
                    self._span_wrapper("brownian.increments_block", driver.increments_block, None))
        for module, attribute in CHUNK_COUNTERS:
            owner = getattr(pkg, module)
            self._patch(owner, attribute, self._chunk_counter(getattr(owner, attribute)))

    def install_setup(self, pkg) -> None:
        """Wrap the expression and assembly functions that ``loads_config`` reaches."""
        for module, attribute, name in SETUP_SPANS:
            owner = getattr(pkg, module)
            self._patch(owner, attribute, self._span_wrapper(name, getattr(owner, attribute), None))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _on_batch(tracer: Tracer, args, result) -> None:
    tracer.counts["engine.label_steps"] += (
        result.num_realizations * result.num_labels * result.num_steps
    )
    snapshot_bytes = sum(
        value.nbytes for value in vars(result).values() if hasattr(value, "nbytes")
    )
    tracer.maxima["engine.snapshot_bytes"] = max(
        tracer.maxima["engine.snapshot_bytes"], float(snapshot_bytes)
    )


def _on_factorize(tracer: Tracer, args, result) -> None:
    tracer.counts["oracle.unknowns"] += args[0].shape[0]

