#!/usr/bin/env python3
"""stochflow benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 stochbench/run.py --workload fk_1d [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from ``src/``
of the checkout that holds this file, never from an installed copy.  Every run
goes through the public entry point: ``config.loads_config(yaml_text)`` and then
``checks.run_scenario(cfg, out_dir, threads=1)``.

One operation is one check in one repeat of the scenario.  It fails when its
verdict is false, when it was aborted by an error, or when its golden-payload
bytes differ from the first repeat of the same run.

``--trace 0`` reports wall_s (median seconds per run_scenario), setup_s (median
seconds per loads_config) and peak_mem_mb (growth of the process's peak
resident memory over the first repeat).  ``--trace 1`` alternates untraced and
traced repeats and reports the per-layer split (see tracer.py and README.md).
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

SETUP_SAMPLES_PER_ROUND = 30
TRACED_SETUP_SAMPLES = 11
MIN_TIMED_REPEATS = 3
THREADS = 1

CHECK_NAMES = (
    "roundtrip",
    "determinant_consistency",
    "martingale_M",
    "conservation",
    "entropy_mc",
    "entropy_oracle",
    "jensen",
    "feynman_kac_vs_oracle",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}

LAYER_UNITS = {
    "engine.simulate_paths.self_s": "s",
    "engine.label_steps": "count",
    "engine.ns_per_label_step": "ns",
    "engine.chunks": "count",
    "engine.snapshot_mb_max": "MB",
    "fields.eval_batch.self_s": "s",
    "fields.eval_batch.calls": "count",
    "brownian.increments_block.self_s": "s",
    "inverse.chart_from_batch.self_s": "s",
    "inverse.chart_from_batch.calls": "count",
    "inverse.invert_batch.self_s": "s",
    "inverse.roundtrip_error.self_s": "s",
    "inverse.us_per_realization_time": "us",
    "inverse.queries": "count",
    "inverse.ok_fraction": "fraction",
    "estimators.collect_psi_samples.self_s": "s",
    "estimators.entropy_decay_check.self_s": "s",
    "estimators.reductions.self_s": "s",
    "oracle.assemble_generator.self_s": "s",
    "oracle.factorize_s": "s",
    "oracle.solve_adjoint.self_s": "s",
    "oracle.solve_forward.self_s": "s",
    "oracle.entropy_series.self_s": "s",
    "oracle.unknowns": "count",
    "config.loads_config.self_s": "s",
    "fields.parse.self_s": "s",
    "fields.differentiate.self_s": "s",
    "coefficients.assemble.self_s": "s",
    "checks.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    **{f"checks.{name}.s": "s" for name in CHECK_NAMES},
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def pin_threads() -> None:
    """One compute thread: BLAS pools are sized from these before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def load_package(root: Path):
    """Import stochflow from ``root/src``; raise if the checkout has no source."""
    src = root / "src"
    if not (src / "stochflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no stochflow source under {src}")
    sys.path.insert(0, str(src))
    import stochflow

    if Path(stochflow.__file__).resolve().parent != (src / "stochflow").resolve():
        raise ImportError(f"stochflow was imported from {stochflow.__file__}, not {src}")
    return stochflow


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Correctness ledger
# ---------------------------------------------------------------------------


class Ledger:
    """Checks attempted and failed over the repeats of one run."""

    def __init__(self, pkg):
        self._golden = pkg.checks.golden_payload
        self._reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def record(self, report) -> None:
        per_check = [
            json.dumps(chk, sort_keys=True).encode()
            for chk in self._golden(report)["checks"]
        ]
        if self._reference is None:
            self._reference = per_check
        for result, now, first in zip(report.results, per_check, self._reference):
            self.attempted += 1
            reason = None
            if "error" in result.metrics:
                reason = "aborted"
            elif not result.passed:
                reason = "verdict"
            elif now != first:
                reason = "nondeterministic"
            if reason is not None:
                self.failed += 1
                key = f"{result.name}:{reason}"
                self.reasons[key] = self.reasons.get(key, 0) + 1


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def time_setup(pkg, text: str, samples: int) -> list:
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        pkg.config.loads_config(text)
        out.append(time.perf_counter() - t0)
    return out


def timed_run(pkg, cfg, out_dir: str):
    gc.collect()  # start every repeat from the same heap state
    t0 = time.perf_counter()
    report = pkg.checks.run_scenario(cfg, out_dir, threads=THREADS)
    return report, time.perf_counter() - t0


def repeat_until(deadline: float, min_repeats: int, body) -> list:
    """Call ``body`` (returns seconds) until the next call would pass ``deadline``."""
    durations = []
    while True:
        durations.append(body())
        if len(durations) >= min_repeats and time.perf_counter() + _median(durations) > deadline:
            return durations


def measure_end_to_end(pkg, text: str, seconds: float, out_dir: str):
    deadline = time.perf_counter() + seconds
    ledger = Ledger(pkg)
    # Set-up is a few milliseconds, so it is sampled in rounds spread over the
    # whole run rather than in one burst that a short stall could dominate.
    setup = time_setup(pkg, text, SETUP_SAMPLES_PER_ROUND)
    cfg = pkg.config.loads_config(text)

    # First repeat: warms caches and gives the reference bytes and the memory
    # figure, the growth of the process's peak RSS (KiB on Linux) over the run.
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report, _ = timed_run(pkg, cfg, out_dir)
    peak_growth_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_before
    ledger.record(report)

    def body():
        rep, wall = timed_run(pkg, cfg, out_dir)
        ledger.record(rep)
        setup.extend(time_setup(pkg, text, SETUP_SAMPLES_PER_ROUND))
        return wall

    walls = repeat_until(deadline, MIN_TIMED_REPEATS, body)
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setup),
        "peak_mem_mb": peak_growth_kib * 1024 / 1e6,
    }
    notes = [
        f"wall_s {metrics['wall_s']:.4f} s  median of {len(walls)}; "
        f"min {min(walls):.4f} s; max {max(walls):.4f} s",
        "walls " + " ".join(f"{w:.3f}" for w in walls),
        f"setup_s {metrics['setup_s'] * 1e3:.3f} ms  median of {len(setup)}",
        f"peak_mem_mb {metrics['peak_mem_mb']:.3f} MB  peak RSS growth over the first repeat",
    ]
    return metrics, ledger, notes


def layer_metrics(tracer, traced_wall: float) -> dict:
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    label_steps = counts["engine.label_steps"]
    engine_s = s["engine.simulate_paths"] + s["fields.eval_batch"] + s["brownian.increments_block"]
    charts = calls["inverse.chart_from_batch"]
    inverse_s = (
        s["inverse.chart_from_batch"] + s["inverse.invert_batch"] + s["inverse.roundtrip_error"]
    )
    queries = counts["inverse.queries"]
    return {
        "engine.simulate_paths.self_s": s["engine.simulate_paths"],
        "engine.label_steps": label_steps,
        "engine.ns_per_label_step": 1e9 * engine_s / label_steps if label_steps else 0.0,
        "engine.chunks": counts["engine.chunks"],
        "engine.snapshot_mb_max": tracer.maxima["engine.snapshot_bytes"] / 1e6,
        "fields.eval_batch.self_s": s["fields.eval_batch"],
        "fields.eval_batch.calls": calls["fields.eval_batch"],
        "brownian.increments_block.self_s": s["brownian.increments_block"],
        "inverse.chart_from_batch.self_s": s["inverse.chart_from_batch"],
        "inverse.chart_from_batch.calls": charts,
        "inverse.invert_batch.self_s": s["inverse.invert_batch"],
        "inverse.roundtrip_error.self_s": s["inverse.roundtrip_error"],
        "inverse.us_per_realization_time": 1e6 * inverse_s / charts if charts else 0.0,
        "inverse.queries": queries,
        "inverse.ok_fraction": counts["inverse.queries_ok"] / queries if queries else 0.0,
        "estimators.collect_psi_samples.self_s": s["estimators.collect_psi_samples"],
        "estimators.entropy_decay_check.self_s": s["estimators.entropy_decay_check"],
        "estimators.reductions.self_s": s["estimators.reductions"],
        "oracle.assemble_generator.self_s": s["oracle.assemble_generator"],
        "oracle.factorize_s": s["oracle.factorize"],
        "oracle.solve_adjoint.self_s": s["oracle.solve_adjoint"],
        "oracle.solve_forward.self_s": s["oracle.solve_forward"],
        "oracle.entropy_series.self_s": s["oracle.entropy_series"],
        "oracle.unknowns": counts["oracle.unknowns"],
        "checks.self_s": s["checks"],
        "traced_wall_s": traced_wall,
    }


LAYER_SHARES = {
    "engine+fields+brownian": ("engine.simulate_paths", "fields.eval_batch",
                               "brownian.increments_block"),
    "inverse": ("inverse.chart_from_batch", "inverse.invert_batch", "inverse.roundtrip_error"),
    "estimators": ("estimators.collect_psi_samples", "estimators.entropy_decay_check",
                   "estimators.reductions"),
    "oracle": ("oracle.assemble_generator", "oracle.factorize", "oracle.solve_adjoint",
               "oracle.solve_forward", "oracle.entropy_series"),
    "checks": ("checks",),
}


def measure_traced(pkg, text: str, seconds: float, out_dir: str):
    deadline = time.perf_counter() + seconds
    ledger = Ledger(pkg)

    setup_tracer = Tracer()
    with setup_tracer:
        setup_tracer.install_setup(pkg)
        for _ in range(TRACED_SETUP_SAMPLES):
            setup_tracer.root("config.loads_config", pkg.config.loads_config, text)
    setup_layers = {
        "config.loads_config.self_s": setup_tracer.self_s["config.loads_config"],
        "fields.parse.self_s": setup_tracer.self_s["fields.parse"],
        "fields.differentiate.self_s": setup_tracer.self_s["fields.differentiate"],
        "coefficients.assemble.self_s": setup_tracer.self_s["coefficients.assemble"],
    }
    setup_layers = {k: v / TRACED_SETUP_SAMPLES for k, v in setup_layers.items()}

    cfg = pkg.config.loads_config(text)
    report, _ = timed_run(pkg, cfg, out_dir)  # warm-up and reference bytes
    ledger.record(report)

    untraced, traced, per_check = [], [], {name: [] for name in CHECK_NAMES}
    shares = {name: [] for name in LAYER_SHARES}

    def body():
        rep, wall = timed_run(pkg, cfg, out_dir)
        ledger.record(rep)
        untraced.append(wall)
        elapsed = {r.name: r.elapsed for r in rep.results}
        for name in CHECK_NAMES:
            per_check[name].append(elapsed.get(name, 0.0))

        tracer = Tracer()
        with tracer:
            tracer.install_run(pkg)
            rep, traced_wall = tracer.root(
                "checks", pkg.checks.run_scenario, cfg, out_dir, threads=THREADS
            )
        ledger.record(rep)
        traced.append(layer_metrics(tracer, traced_wall))
        for name, spans in LAYER_SHARES.items():
            shares[name].append(sum(tracer.self_s[s] for s in spans) / traced_wall)
        return wall + traced_wall

    repeat_until(deadline, 1, body)
    metrics = {name: _median([m[name] for m in traced]) for name in traced[0]}
    metrics.update(setup_layers)
    metrics.update({f"checks.{name}.s": _median(v) for name, v in per_check.items()})
    metrics["trace_overhead_s"] = _median([m["traced_wall_s"] for m in traced]) - _median(untraced)
    notes = [
        f"traced pairs {len(traced)}; untraced wall {_median(untraced):.4f} s; "
        f"traced wall {metrics['traced_wall_s']:.4f} s",
        "shares of traced wall: " + "; ".join(
            f"{name} {100 * _median(v):.1f}%" for name, v in shares.items()
        ),
    ]
    return metrics, ledger, notes


def run_workload(pkg, name: str, seed, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    text = workloads.scenario_text(name, seed, tiny=tiny)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        measure = measure_traced if trace else measure_end_to_end
        metrics, ledger, notes = measure(pkg, text, seconds, out_dir)
    try:
        scratch.rmdir()
    except OSError:
        pass  # another run still uses it
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        "notes": notes,
        "failure_reasons": ledger.reasons,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed written into the scenario (default: its bundled seed)")
    parser.add_argument("--seconds", type=float, default=38.0,
                        help="measurement budget of the run, set-up sampling included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        pkg = load_package(ROOT)
    except (ImportError, FileNotFoundError) as exc:
        print(f"stochbench: {exc}", file=sys.stderr)
        return 2
    seed = workloads.default_seed(args.workload) if args.seed is None else args.seed
    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    print(f"workload {args.workload} seed {seed} trace {args.trace} seconds {args.seconds:g}")
    result = run_workload(pkg, args.workload, seed, args.seconds, bool(args.trace))
    for line in result.pop("notes"):
        print(line)
    reasons = result.pop("failure_reasons")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} (fraction)  "
          f"{result['failed']} of {result['attempted']} checks failed"
          + (f": {json.dumps(reasons, sort_keys=True)}" if reasons else ""))
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
