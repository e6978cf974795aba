"""Named verification checks over a scenario, with JSON/CSV reporting.

Each check is a pure function of a run context (config + seed + budgets) returning a
``CheckResult``; ``run_scenario`` executes the configured list, writes one CSV per
emitted time series (header ``t,value,se``) plus a ``report.json``, and never lets a
failing check abort the rest of the run.  All randomness flows through the
counter-based per-realization streams, so a report is byte-identical across repeat
runs, worker-thread counts and chunk sizes.

A check is planned before anything is simulated: its Monte Carlo work is a list of
consumers, each naming the labels, dt, times, realization budget and snapshot fields
it reads, with a reducer that turns one chunk into per-realization scalars (the
roundtrip errors of the first 8 realizations, conserved quadratures, martingale
samples, tracker gaps, ψ rows).  A reducer returns only that payload: the pass counts
the realizations of the consumer's prefix that are not alive in ``discarded``, from
which ``_gate_discards`` alone writes a check's discard metrics and applies the
discard gate.  ``run_scenario`` groups the consumers of every
check by labels, dt and horizon (the horizon sets the padded escape box and the
fold bounds, so only equal horizons share), and gives each group one ``run_chunks``
pass that stores the union of their times and fields.  Every chunk goes to every
consumer of the group, cut to that consumer's realization prefix, and is then
dropped, so memory is bounded by the chunk, whose default size comes from the
pass's working set.  The pass runs when the first check of its group comes up, and
that check's elapsed time includes it.  Reductions happen once per check, in
realization order, on the gathered scalars, so the bits are those of a scenario that
lists the check alone.  A reducer that raises fails its own check only.
``convergence_study`` runs determinant_consistency's plan the same way over more dt
levels.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .brownian import BrownianDriver, auxiliary_rng
from .config import ScenarioConfig
from .convex import get_convex, non_convex_control
from .engine import chunk_size_for, escape_margin, run_chunks, simulate_paths, step_indices
from .errors import ConfigError, StochflowError
from .estimators import (
    collect_psi_samples,
    conserved_quantity_batch,
    entropy_decay_check,
    exponential_phi,
    fields_from_samples,
    jensen_check,
    join_psi_samples,
    martingale_values,
    validate_compact_support,
)
from .fields import eval_points, parse_field
from .grids import Box, grid_axes, mesh_points, trapezoid_weights
from .inverse import STATUS_OK, chart_from_batch, roundtrip_error
from .oracle import entropy_series, grid_field_from_expr, solve_adjoint, solve_forward

__all__ = [
    "CheckResult",
    "RunReport",
    "RunContext",
    "run_scenario",
    "convergence_study",
    "write_json",
    "report_payload",
    "golden_payload",
    "MAX_DISCARD_FRACTION",
]

# A statistical verdict loses meaning if a visible fraction of realizations had to be
# thrown away (escaped the padded domain): the surviving sample is biased.  Runs are
# allowed a sliver of discards and fail beyond it.
MAX_DISCARD_FRACTION = 1e-3

_Z_LIMIT = 4.0


# ---------------------------------------------------------------------------
# Result containers and serialization
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CheckResult:
    """Outcome of one named check: verdict, metrics, and optional time series."""

    name: str
    passed: bool
    elapsed: float
    metrics: dict
    series: dict = field(default_factory=dict)  # csv stem -> list of (t, value, se)
    notes: str = ""


@dataclass(eq=False)
class RunReport:
    """All check outcomes of one scenario run.

    ``num_discarded`` adds up the realizations each simulation pass discarded, once
    per pass however many checks read it; a check's own ``num_discarded`` metric
    counts the discards within its realization budget.
    """

    scenario: str
    config_hash: str
    version: str
    seed: int
    realizations: int
    threads: int
    elapsed: float
    num_discarded: int
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _jsonable(value):
    """Coerce numpy scalars/arrays into plain JSON types, preserving float precision."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not np.isfinite(value):
        # JSON has no Infinity/NaN; keep reports parseable everywhere.
        return repr(value)
    return value


def report_payload(report: RunReport) -> dict:
    return {
        "scenario": report.scenario,
        "config_hash": report.config_hash,
        "version": report.version,
        "seed": report.seed,
        "realizations": report.realizations,
        "threads": report.threads,
        "elapsed_seconds": round(report.elapsed, 3),
        "num_discarded": report.num_discarded,
        "all_passed": report.all_passed,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": round(r.elapsed, 3),
                "metrics": _jsonable(r.metrics),
                "notes": r.notes,
            }
            for r in report.results
        ],
    }


def golden_payload(report: RunReport) -> dict:
    """The report minus timing and worker-count fields: stable bytes for goldens.

    Everything left is a pure function of (config, seed, budgets), so a golden file
    doubles as a cross-run and cross-thread-count determinism witness.
    """
    payload = report_payload(report)
    payload.pop("elapsed_seconds", None)
    payload.pop("threads", None)
    for chk in payload["checks"]:
        chk.pop("elapsed_seconds", None)
    return payload


def write_json(payload: dict, path: str) -> None:
    """A report, golden or study as sorted, indented, strict JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_series_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value,se\n")
        for t, value, se in rows:
            fh.write(f"{t:.17g},{value:.17g},{se:.17g}\n")


# ---------------------------------------------------------------------------
# Run context: shared budgets and cached weighting factors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunContext:
    cfg: ScenarioConfig
    seed: int
    realizations_override: int | None = None
    threads: int = 1
    chunk_size: int | None = None  # None: each pass sizes its chunks from its working set
    _weight_cache: dict = field(default_factory=dict)

    @property
    def cs(self):
        return self.cfg.coefficients

    def realizations_for(self, check: str, params: dict) -> int:
        """The check's budget: the override, else ``params``, else the scenario's."""
        if self.realizations_override is not None:
            params = {"realizations": self.realizations_override}
        return _count(check, params, "realizations", self.cfg.realizations)

    def driver(self, dt: float | None = None) -> BrownianDriver:
        return BrownianDriver(seed=self.seed, dt=self.cfg.dt if dt is None else float(dt), n=self.cfg.n)

    def oracle_axes(self, box: Box | None = None) -> tuple:
        box = box if box is not None else self.cfg.box
        counts = []
        for lo, hi in zip(box.lo, box.hi):
            counts.append(max(9, int(round((hi - lo) / self.cfg.oracle_dx)) + 1)
                          )
        return grid_axes(box, tuple(counts))

    def weight(self, kind: str, times) -> tuple:
        """Weighting factor for the scenario: (phi callable, label).

        ``kind`` is "trivial" (requires a constant zeroth-order coefficient V: the
        exact closed-form weight), "adjoint" (backward grid solve from the terminal
        data, evaluated along paths by space-time interpolation), or "auto" (trivial
        when V is constant, adjoint otherwise).  The adjoint grid covers the padded
        escape box plus a safety rim, so alive trajectories never hit its edge.
        """
        cfg = self.cfg
        v_expr = self.cs.V
        if kind == "auto":
            kind = "trivial" if v_expr.is_constant else "adjoint"
        if kind == "trivial":
            if not v_expr.is_constant:
                raise ConfigError(
                    "martingale_M: phi 'trivial' needs a constant V coefficient"
                )
            c = v_expr.constant_value
            return exponential_phi(c, cfg.T), "constant 1" if c == 0.0 else f"exp({c:g}*(T-t))"
        if kind != "adjoint":
            raise ConfigError(f"unknown weighting kind {kind!r} (use trivial/adjoint/auto)")

        key = tuple(round(float(t), 12) for t in times)
        if key not in self._weight_cache:
            pad = escape_margin(cfg.nu, cfg.T) + 5 * cfg.oracle_dx
            axes = self.oracle_axes(cfg.box.padded(pad))
            phi_T = grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T)
            out_times = sorted({0.0, cfg.T, *(float(t) for t in times)})
            self._weight_cache[key] = solve_adjoint(self.cs, phi_T, cfg.T, cfg.dt,
                                                    output_times=out_times)
        return self._weight_cache[key], "adjoint solve"


def _count(check: str, params: dict, key: str, default: int, minimum: int = 1) -> int:
    """``params[key]`` (``default`` when absent) as an integer of at least ``minimum``."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigError(f"{check}.{key}: must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _times_from(params: dict, key: str, default) -> list:
    raw = params.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"check parameter {key!r} must be a nonempty list of times")
    return [float(t) for t in raw]


# ---------------------------------------------------------------------------
# Monte Carlo passes: every check that simulates the same labels, dt and horizon
# reads one chunked simulation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Consumer:
    """One check's share of a simulation pass.

    The check simulates ``labels`` (label axes, or an (L, n) point array) with step
    ``dt`` over realizations ``0 .. realizations-1`` and reads ``fields`` at
    ``times``.  ``reduce`` turns one chunk, cut to those realizations, into a small
    partial result; ``results()`` returns the partials in chunk order, or raises what
    ``reduce`` raised.  ``discarded`` counts the realizations that are not alive.
    """

    labels: object
    dt: float
    times: list
    realizations: int
    fields: tuple
    reduce: Callable
    partials: list = field(default_factory=list)
    discarded: int = 0
    error: Exception | None = None

    def __post_init__(self):
        self.store = step_indices(self.times, self.dt)
        self.num_steps = max(max(self.store), 1)

    def pass_key(self) -> tuple:
        """Consumers with equal keys share a pass; the horizon sets the padded box."""
        labels = self.labels
        if isinstance(labels, np.ndarray) and labels.ndim == 2:
            grid = ("points", labels.shape, labels.tobytes())
        else:
            grid = ("axes",) + tuple(np.asarray(ax, dtype=float).tobytes() for ax in labels)
        return grid, float(self.dt), self.num_steps

    def results(self) -> list:
        if self.error is not None:
            raise self.error
        return self.partials


@dataclass(eq=False)
class _Plan:
    """A check ready to run: its Monte Carlo consumers, then ``finish()``."""

    consumers: list
    finish: Callable


def _run_pass(ctx: RunContext, group: list) -> int:
    """Simulate a group of consumers once, chunk by chunk, and feed every one.

    The pass stores the union of their times and fields over the largest budget; a
    consumer with a smaller budget reads its realization prefix.  Each chunk is
    dropped once every consumer has reduced it.  A consumer whose ``reduce`` raises
    keeps the error for itself; an engine error goes to the whole group.  Every
    consumer also gets the number of its realizations that are not alive.  Without
    an explicit ``ctx.chunk_size`` the pass's working set sizes its chunks
    (``engine.chunk_size_for``).  Returns the pass's discards: the count of the
    consumer with the largest budget, whose prefix is the whole pass (0 after an
    engine error).
    """
    first = group[0]
    store = sorted(set().union(*(c.store for c in group)))
    fields = tuple(sorted(set().union(*(c.fields for c in group))))
    driver = ctx.driver(first.dt)
    budget = max(c.realizations for c in group)

    def worker(indices):
        result = simulate_paths(
            ctx.cs, first.labels, num_steps=first.num_steps, store_indices=store,
            driver=driver, realization_indices=indices, box=ctx.cfg.box, fields=fields,
        )
        out = []
        for c in group:
            take = min(indices.size, c.realizations - int(indices[0]))
            if take <= 0:
                out.append(None)
                continue
            dead = int(np.count_nonzero(~result.alive[:take]))
            try:
                out.append((dead, c.reduce(result if take == indices.size else result.head(take))))
            except Exception as exc:  # noqa: BLE001 — it fails only its own check
                out.append((dead, exc))
        return out

    try:
        chunk_size = ctx.chunk_size
        if chunk_size is None:
            chunk_size = chunk_size_for(ctx.cs, first.labels, first.dt, first.num_steps,
                                        len(store), fields, budget, box=ctx.cfg.box)
        per_chunk = run_chunks(range(budget), worker, chunk_size=chunk_size, threads=ctx.threads)
    except Exception as exc:  # noqa: BLE001 — reported by every check of the group
        for c in group:
            c.error = exc
        return 0
    for i, c in enumerate(group):
        parts = [chunk[i] for chunk in per_chunk if chunk[i] is not None]
        c.discarded = sum(dead for dead, _ in parts)
        c.partials = [p for _, p in parts]
        c.error = next((p for p in c.partials if isinstance(p, Exception)), None)
    return max(group, key=lambda c: c.realizations).discarded


def _passes(consumers) -> dict:
    """Consumers grouped by pass key, in first-seen order."""
    groups: dict = {}
    for c in consumers:
        groups.setdefault(c.pass_key(), []).append(c)
    return groups


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _plan_roundtrip(ctx: RunContext, params: dict) -> _Plan:
    """Invert the flow map at every positive output time and measure max |A(X(a,t)) - a|
    against a fixed 1e-6.

    Interior labels only: boundary labels may map outside the covered cell complex.
    A handful of realizations suffices — the defect is a per-path property of the
    inversion, not a statistic.
    """
    cfg = ctx.cfg
    tol = 1e-6
    times = [t for t in cfg.output_times if t > 0]
    if not times:
        raise ConfigError("roundtrip: no positive output times")
    num_real = 8

    def reduce(result):
        rows = np.flatnonzero(result.alive)
        errors = []
        if rows.size:
            for t in times:
                rt = roundtrip_error(chart_from_batch(result, t, rows))
                errors.append((float(t), float(rt["max_abs_error"].max()),
                               float(rt["resolved_fraction"].min())))
        return errors

    mc = _Consumer(cfg.label_axes, cfg.dt, times, num_real, ("X", "log_I"), reduce)

    def finish() -> CheckResult:
        worst = 0.0
        worst_fraction = 1.0
        per_time = {float(t): 0.0 for t in times}
        for errors in mc.results():
            for t, err, fraction in errors:
                worst = max(worst, err)
                worst_fraction = min(worst_fraction, fraction)
                per_time[t] = max(per_time[t], err)
        passed = worst <= tol and worst_fraction == 1.0
        metrics = {
            "max_abs_error": worst,
            "tolerance": tol,
            "min_resolved_fraction": worst_fraction,
        }
        rows = [(t, per_time[float(t)], 0.0) for t in times]
        return CheckResult("roundtrip", passed, 0.0, metrics, {"roundtrip": rows})

    return _Plan([mc], finish)


def _tracker_gaps(consumer: _Consumer) -> dict:
    """RMS gaps among the determinant trackers at the horizon, one step size."""
    # Every chunk's gaps are gathered before reducing, so the sums do not depend on
    # where the chunks split.
    parts = consumer.results()
    g_ds = np.concatenate([p[0] for p in parts])
    g_dl = np.concatenate([p[1] for p in parts])
    count = g_ds.size
    if count == 0:
        raise StochflowError("all realizations were discarded; no tracker samples left")
    return {
        "rms_direct_vs_sde": float(np.sqrt(float(np.sum(g_ds ** 2)) / count)),
        "rms_direct_vs_exp_lambda": float(np.sqrt(float(np.sum(g_dl ** 2)) / count)),
        "max_direct_vs_sde": float(np.max(np.abs(g_ds))),
        "samples": count,
        "num_discarded": consumer.discarded,
    }


_COINCIDENT_RMS = 1e-13


def _gate_pair(dts, gaps) -> dict:
    """Halving-ratio and fitted-order gates for one tracker pair across dt levels.

    A non-finite gap at any level fails the pair.
    """
    gaps = [float(g) for g in gaps]
    if not np.isfinite(gaps).all():
        return {"regime": "non_finite", "gaps": gaps, "passed": False}
    if max(gaps) < _COINCIDENT_RMS:
        return {"regime": "coincident", "gaps": gaps, "passed": True}
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    # The observed convergence order: the slope of log2(gap) against log2(dt).
    order = float(np.polyfit(np.log2(dts), np.log2(gaps), 1)[0])
    ratios_ok = all(1.2 <= r <= 2.8 for r in ratios)
    order_ok = order >= 0.4
    return {
        "regime": "scaling",
        "gaps": gaps,
        "ratios": ratios,
        "order": order,
        "passed": bool(ratios_ok and order_ok),
    }


def _plan_determinant_consistency(ctx: RunContext, params: dict) -> _Plan:
    """Cross-validate the three volume-change trackers across halved step sizes.

    The compounded Jacobian determinant, its direct SDE solution, and the exponential
    of the accumulated divergence solve the same equation in exact arithmetic; their
    finite-step RMS gaps must shrink when dt is halved (ratio in [1.2, 2.8], fitted
    order >= 0.4).  In one dimension the first two trackers share the same scalar
    recurrence, so their gap must vanish to roundoff instead, and the scaling gate
    applies to the exponential-divergence pair.
    """
    cfg = ctx.cfg
    dt_levels = [float(v) for v in params.get("dt_levels", [0.002, 0.001, 0.0005])]
    if len(dt_levels) < 2:
        raise ConfigError("determinant_consistency: need at least two dt levels")
    if not all(dt > 0 for dt in dt_levels):
        raise ConfigError(f"determinant_consistency: dt levels must be positive, got {dt_levels}")
    for a, b in zip(dt_levels, dt_levels[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError("determinant_consistency: dt levels must halve")
    horizon = float(params.get("horizon", min(cfg.T, 0.5)))
    realizations = ctx.realizations_for("determinant_consistency", params)
    for dt in dt_levels:
        try:
            (steps,) = step_indices([horizon], dt)
        except ValueError:
            steps = 0
        if steps < 1:
            raise ConfigError(f"determinant_consistency: horizon {horizon} is not a "
                              f"multiple k * {dt} with a whole k >= 1")

    def reduce(result):
        s = result.time_slot(horizon)
        alive = result.alive
        d = result.D_direct[s][alive].reshape(-1)
        exp_lambda = np.exp(result.log_lambda[s][alive]).reshape(-1)
        return d - result.D_sde[s][alive].reshape(-1), d - exp_lambda

    # Tracker gaps are per-path statistics; a thinned uniform grid keeps the runtime
    # proportionate without touching the verdict.
    labels = grid_axes(cfg.box, tuple(min(s, 17) for s in cfg.label_shape))
    fields = ("D_direct", "D_sde", "log_lambda")
    consumers = [_Consumer(labels, dt, [horizon], realizations, fields, reduce) for dt in dt_levels]

    def finish() -> CheckResult:
        levels = [_tracker_gaps(c) for c in consumers]
        gate_dl = _gate_pair(dt_levels, [lv["rms_direct_vs_exp_lambda"] for lv in levels])
        metrics = {
            "dt_levels": dt_levels,
            "horizon": horizon,
            "pair_direct_vs_exp_lambda": gate_dl,
        }
        passed = gate_dl["passed"]

        if cfg.n == 1:
            # Shared scalar recurrence: the direct pair must coincide to roundoff.
            # np.max, unlike max, returns a NaN wherever it stands.
            max_gap = float(np.max([lv["max_direct_vs_sde"] for lv in levels]))
            metrics["pair_direct_vs_sde"] = {
                "regime": "identical_recurrence",
                "max_abs_gap": max_gap,
                "passed": max_gap <= 1e-12,
            }
            passed = passed and max_gap <= 1e-12
        else:
            gate_ds = _gate_pair(dt_levels, [lv["rms_direct_vs_sde"] for lv in levels])
            metrics["pair_direct_vs_sde"] = gate_ds
            passed = passed and gate_ds["passed"]

        series = {
            "determinant_consistency.exp_lambda": [
                (dt, lv["rms_direct_vs_exp_lambda"], 0.0) for dt, lv in zip(dt_levels, levels)
            ],
            "determinant_consistency.sde": [
                (dt, lv["rms_direct_vs_sde"], 0.0) for dt, lv in zip(dt_levels, levels)
            ],
        }
        return CheckResult("determinant_consistency", passed, 0.0, metrics, series)

    return _Plan(consumers, finish)


def _probe_axes(cfg: ScenarioConfig, params: dict) -> tuple:
    raw = params.get("probe_labels")
    if raw is None:
        span = [hi - lo for lo, hi in zip(cfg.box.lo, cfg.box.hi)]
        raw = [
            [lo + s * f for f in (0.35, 0.5, 0.7)]
            for lo, s in zip(cfg.box.lo, span)
        ]
    if not isinstance(raw, (list, tuple)) or len(raw) != cfg.n:
        raise ConfigError(f"martingale_M: probe_labels must give {cfg.n} per-axis lists")
    axes = []
    for k, lst in enumerate(raw):
        ax = np.asarray([float(v) for v in lst], dtype=float)
        if ax.size < 1 or np.any(np.diff(ax) <= 0):
            raise ConfigError(f"martingale_M: probe axis {k + 1} must be strictly increasing")
        if np.any(ax < cfg.box.lo[k]) or np.any(ax > cfg.box.hi[k]):
            raise ConfigError(f"martingale_M: probe axis {k + 1} leaves the box")
        axes.append(ax)
    sizes = {ax.size for ax in axes}
    if len(sizes) != 1:
        raise ConfigError("martingale_M: per-axis probe lists must have equal length")
    return tuple(axes)


def _z_table(cells) -> tuple:
    """The z-gate of martingale_M and conservation: (table, series, max |z|, passed).

    ``cells`` lists (row, series stem, samples, reference) in table order.  Each row
    gets the sample mean, its standard error, the reference and z = (mean - reference)
    / se; with se = 0, z is 0 when the mean equals the reference and inf otherwise.
    The check passes when max |z| <= 4, which NaN and inf fail.
    """
    table, series = [], {}
    for row, stem, samples, reference in cells:
        if samples.size < 2:
            raise ValueError("need at least two samples for a z-score")
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / np.sqrt(samples.size))
        if se == 0.0:
            z = 0.0 if abs(mean - reference) == 0.0 else float("inf")
        else:
            z = (mean - reference) / se
        table.append({**row, "mean": mean, "se": se, "reference": reference, "z": z})
        series.setdefault(stem, []).append((row["t"], mean, se))
    max_abs_z = float(np.max(np.abs([row["z"] for row in table])))
    return table, series, max_abs_z, max_abs_z <= _Z_LIMIT


def _plan_martingale_M(ctx: RunContext, params: dict) -> _Plan:
    """Mean of the path functional phi(X,t) * detJ * exp(accumulated weight).

    For an admissible weighting factor this functional is a martingale, so its mean
    at every probe label and time must match phi(label, 0) to sampling error; the
    gate is |z| <= 4 per (label, time).

    The probes are the diagonal of the per-axis lists (in 1D, every listed point),
    and only they are simulated, as a label point set.  A realization is discarded
    when one of its probes escapes or goes non-finite.
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", [t for t in cfg.output_times if t > 0][:3])
    realizations = ctx.realizations_for("martingale_M", params)
    axes = _probe_axes(cfg, params)
    phi, phi_label = ctx.weight(str(params.get("phi", "auto")), times)

    probes = np.stack(axes, axis=1)  # (m, n): the diagonal of the per-axis lists
    refs = phi(probes, 0.0)

    def reduce(result):
        return [martingale_values(result, phi, t) for t in times]

    mc = _Consumer(probes, cfg.dt, times, realizations, ("X", "D_direct", "log_I"), reduce)

    def finish() -> CheckResult:
        parts = mc.results()
        cells = []
        for i, t in enumerate(times):
            values = np.concatenate([p[i] for p in parts], axis=0)
            for j, probe in enumerate(probes):
                row = {"t": float(t), "label": [float(v) for v in probe]}
                cells.append((row, f"martingale_M.probe{j}", values[:, j], float(refs[j])))
        table, series, max_abs_z, passed = _z_table(cells)
        metrics = {
            "weighting": phi_label,
            "max_abs_z": max_abs_z,
            "z_limit": _Z_LIMIT,
            "cells": table,
        }
        return CheckResult("martingale_M", passed, 0.0, metrics, series)

    return _Plan([mc], finish)


def _plan_conservation(ctx: RunContext, params: dict) -> _Plan:
    """Constancy in time of the label-space quadrature of the weighted flow.

    The per-realization quadrature of phi * detJ * exp(weight) * rho0 * h0 over
    labels has time-independent expectation equal to its (deterministic) value at
    t = 0; the gate is |z| <= 4 at every requested time, for the configured h0 and
    optionally a second displaced profile.  Each chunk leaves only those per-
    realization quadratures behind.
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", [t for t in cfg.output_times if t > 0])
    realizations = ctx.realizations_for("conservation", params)
    phi, phi_label = ctx.weight("auto", times)

    variants = [("h0", cfg.h0)]
    if params.get("h0_alt") is not None:
        try:
            alt = parse_field(str(params["h0_alt"]), cfg.n)
        except Exception as exc:
            raise ConfigError(f"conservation.h0_alt does not parse: {exc}") from None
        variants.append(("h0_alt", alt))

    axes = cfg.label_axes
    labels = mesh_points(axes)
    w = trapezoid_weights(axes)
    references = []
    for _, h_expr in variants:
        # The quadrature needs the integrand density rho0*h0 to vanish near the
        # label-box edge; rho0 itself may be a strictly positive plateau.
        validate_compact_support(h_expr, axes, "h0")
        validate_compact_support(cfg.rho0 * h_expr, axes, "rho0*h0")
        dens = eval_points(cfg.rho0, labels) * eval_points(h_expr, labels)
        references.append(float(np.sum(w * dens * phi(labels, 0.0))))

    def reduce(result):
        return [
            [conserved_quantity_batch(result, phi, cfg.rho0, h_expr, t) for t in times]
            for _, h_expr in variants
        ]

    mc = _Consumer(axes, cfg.dt, times, realizations, ("X", "D_direct", "log_I"), reduce)

    def finish() -> CheckResult:
        parts = mc.results()
        cells = []
        for v, ((vname, _), reference) in enumerate(zip(variants, references)):
            stem = "conservation" if vname == "h0" else "conservation.alt"
            for i, t in enumerate(times):
                samples = np.concatenate([p[v][i] for p in parts])
                cells.append(({"profile": vname, "t": float(t)}, stem, samples, reference))
        table, series, max_abs_z, passed = _z_table(cells)
        metrics = {
            "weighting": phi_label,
            "max_abs_z": max_abs_z,
            "z_limit": _Z_LIMIT,
            "fraction_abs_z_above_2": float(np.mean([abs(row["z"]) > 2.0 for row in table])),
            "cells": table,
        }
        return CheckResult("conservation", passed, 0.0, metrics, series)

    return _Plan([mc], finish)


def _query_axes(cfg: ScenarioConfig, check: str, params: dict, default_nodes: int = 41) -> tuple:
    nodes = _count(check, params, "query_nodes", default_nodes, minimum=2)
    spans = [hi - lo for lo, hi in zip(cfg.box.lo, cfg.box.hi)]
    margin = float(params.get("query_margin", 0.15 * min(spans)))
    lo = [l + margin for l in cfg.box.lo]
    hi = [h - margin for h in cfg.box.hi]
    if any(b - a <= 0 for a, b in zip(lo, hi)):
        raise ConfigError("query_margin leaves an empty query window")
    return grid_axes(Box(tuple(lo), tuple(hi)), (nodes,) * cfg.n)


def _psi_consumer(ctx: RunContext, times, realizations: int, pts) -> _Consumer:
    """ψ pairs at query points ``pts``, from chart stacks over the scenario's labels."""
    cfg = ctx.cfg

    def reduce(result):
        return collect_psi_samples(result, times, cfg.f0, cfg.rho0, pts)

    return _Consumer(cfg.label_axes, cfg.dt, times, realizations, ("X", "log_I"), reduce)


def _plan_entropy_mc(ctx: RunContext, params: dict) -> _Plan:
    """Monte Carlo entropy decay, its bootstrap bands, and the supporting identities.

    Builds the weighted transported pair at quadrature points, asserts the per-point
    convexity inequality on the raw samples, runs the bootstrap monotonicity verdict
    on the entropy series, and requires the non-convex control -r^2 to fail it.
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", list(cfg.output_times))
    realizations = ctx.realizations_for("entropy_mc", params)
    h_fun = get_convex(cfg.H_name)
    phi, phi_label = ctx.weight("auto", times)
    axes = _query_axes(cfg, "entropy_mc", params)
    pts = mesh_points(axes)
    mc = _psi_consumer(ctx, times, realizations, pts)

    def finish() -> CheckResult:
        samples = join_psi_samples(mc.results())

        report, control = entropy_decay_check(
            samples, phi=phi, hs=(h_fun, non_convex_control()), seed=ctx.seed
        )

        # Per-point convexity on the raw samples at a few interior quadrature points:
        # the inequality is exact for finite sample sets, so any violation is a defect.
        q = pts.shape[0]
        jensen_cells = []
        jensen_ok = True
        for s, t in enumerate(times):
            for qi in sorted({q // 2, q // 3, (2 * q) // 3}):
                ok_rows = samples.status[:, s, qi] == STATUS_OK
                if int(ok_rows.sum()) < 2:
                    continue
                rho_s = samples.psi_rho[ok_rows, s, qi]
                f_s = samples.psi_f[ok_rows, s, qi]
                if np.any(rho_s <= 0):
                    continue
                res = jensen_check(rho_s[None], f_s[None], h_fun)
                holds = bool(res.holds[0])
                jensen_ok = jensen_ok and holds
                jensen_cells.append({
                    "t": float(t),
                    "point": [float(v) for v in pts[qi]],
                    "lhs": float(res.lhs[0]),
                    "rhs": float(res.rhs[0]),
                    "holds": holds,
                })

        passed = report.verdict_nonincreasing and not control.verdict_nonincreasing and jensen_ok
        se = (report.upper - report.lower) / (2.0 * 1.959963984540054)
        rows = [(float(t), float(v), float(e)) for t, v, e in zip(report.times, report.values, se)]
        metrics = {
            "weighting": phi_label,
            "H": cfg.H_name,
            "values": [float(v) for v in report.values],
            "increments": [float(v) for v in report.increments],
            "num_violations": report.num_violations,
            "band_lower": [float(v) for v in report.lower],
            "band_upper": [float(v) for v in report.upper],
            "control_num_violations": control.num_violations,
            "control_fails": not control.verdict_nonincreasing,
            "jensen_on_samples": jensen_cells,
            "jensen_holds": jensen_ok,
        }
        return CheckResult("entropy_mc", passed, 0.0, metrics, {"entropy_mc": rows})

    return _Plan([mc], finish)


def check_entropy_oracle(ctx: RunContext, params: dict) -> CheckResult:
    """Grid-solver entropy decay: the series must be nonincreasing to within 1e-8.

    Solves the forward equation for the data and the density at 11 evenly spaced
    times, builds the weighting series (closed form for constant V, backward solve
    otherwise), and evaluates the weighted relative-entropy functional on the common
    grid, with slack constant 1 in the reported slack.  The non-convex control
    -r^2 must violate monotonicity, guarding against a vacuous verdict.
    """
    cfg = ctx.cfg
    oracle_dt = float(params.get("oracle_dt", min(cfg.dt, 2e-4)))
    times = [cfg.T * i / 10.0 for i in range(11)]
    try:
        step_indices(times, oracle_dt)
    except ValueError as exc:
        raise ConfigError(f"entropy_oracle: {exc}") from None
    h_fun = get_convex(cfg.H_name)

    axes = ctx.oracle_axes()
    f0 = grid_field_from_expr(cfg.f0, axes, t=0.0)
    rho0 = grid_field_from_expr(cfg.rho0, axes, t=0.0)
    f_series, rho_series = solve_forward(
        ctx.cs, [f0, rho0], cfg.T, oracle_dt, output_times=times, require_positive=[False, True]
    )
    if ctx.cs.V.is_constant:  # the closed-form weight
        phi, phi_label = ctx.weight("trivial", times)
    else:
        phi_T = grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T)
        phi = solve_adjoint(ctx.cs, phi_T, cfg.T, oracle_dt, output_times=times)
        phi_label = "adjoint solve"

    report = entropy_series(f_series, rho_series, phi, h_fun)
    control = entropy_series(f_series, rho_series, phi, non_convex_control())

    hard_limit = 1e-8
    max_inc = float(report.max_increment)
    passed = (
        report.verdict_nonincreasing
        and max_inc <= hard_limit
        and control.num_violations > 0
    )
    metrics = {
        "weighting": phi_label,
        "H": cfg.H_name,
        "oracle_dt": oracle_dt,
        "grid_nodes": [int(ax.size) for ax in axes],
        "values": [float(v) for v in report.values],
        "max_increment": max_inc,
        "increment_limit": hard_limit,
        "num_violations": report.num_violations,
        "slack": report.slack,
        "C_needed": float(report.C_needed),
        "control_num_violations": control.num_violations,
    }
    rows = [(float(t), float(v), 0.0) for t, v in zip(report.times, report.values)]
    return CheckResult("entropy_oracle", passed, 0.0, metrics, {"entropy_oracle": rows})


_JENSEN_BLOCK_VALUES = 4096  # samples per array in one block of check_jensen (32 KiB)


def check_jensen(ctx: RunContext, params: dict) -> CheckResult:
    """Randomized verification of the weighted convexity inequality.

    Draws positive weight samples and signed (or positive, for domain-restricted
    functions) data samples and asserts the normalized inequality exactly, for the
    square, the smoothed absolute deviation, and r*log(r); the inequality is an
    identity for finite convex combinations, so the pass bar is zero violations.
    """
    cfg = ctx.cfg
    num_sets = _count("jensen", params, "num_sets", 1000)
    # One sample makes the inequality an identity.
    num_samples = _count("jensen", params, "num_samples", 64, minimum=2)
    rng = auxiliary_rng(ctx.seed, "jensen")
    names = ["r2", "abs_smooth", "rlogr"]
    if cfg.H_name not in names:
        names.append(cfg.H_name)

    worst = -np.inf
    violations = 0
    total = 0
    # Sets are drawn one by one, in the order of the stream, and checked a block at a
    # time.  Small blocks keep every temporary far below malloc's mmap threshold (128
    # KiB); one pass over 1000 sets of 64 samples (512 KiB arrays) raised the peak
    # memory of a 1D run by about 0.7 MB.
    block = max(1, _JENSEN_BLOCK_VALUES // num_samples)
    for name in names:
        h_fun = get_convex(name)
        positive_only = name == "rlogr"
        for start in range(0, num_sets, block):
            rows = min(block, num_sets - start)
            rho_s = np.empty((rows, num_samples))
            f_s = np.empty((rows, num_samples))
            for i in range(rows):
                scale = float(rng.lognormal(0.0, 0.5))
                rho_s[i] = rng.uniform(0.05, 3.0, num_samples) * scale
                if positive_only:
                    f_s[i] = rng.uniform(0.0, 2.5, num_samples) * scale
                else:
                    f_s[i] = rng.normal(0.0, 1.5, num_samples) * scale
            res = jensen_check(rho_s, f_s, h_fun)
            violations += int(np.count_nonzero(~res.holds))
            worst = max(worst, float(np.max(res.lhs - res.rhs)))
        total += num_sets

    passed = violations == 0
    metrics = {
        "functions": names,
        "num_sets": num_sets,
        "num_samples": num_samples,
        "total_checks": total,
        "violations": violations,
        "worst_margin": float(worst),
    }
    return CheckResult("jensen", passed, 0.0, metrics, {})


def _plan_feynman_kac_vs_oracle(ctx: RunContext, params: dict) -> _Plan:
    """Monte Carlo field estimate against the grid forward solve, in masked L2.

    The tolerance at each output time is max(4 * SE_L2, C * (dt + dx^2)): sampling
    error when it dominates, otherwise the frozen discretization allowance C.
    C = 2.0 was calibrated once on the constant-coefficient scenario at 20000
    realizations (observed masked-L2 of 6.5e-4 against a unit of 1.4e-3, itself an
    upper bound inflated by leftover sampling noise) and is deliberately frozen:
    loosening it per-scenario would turn the gate into a tautology.
    """
    cfg = ctx.cfg
    slack_constant = 2.0  # C, frozen
    if params.get("slack_constant", slack_constant) != slack_constant:
        raise ConfigError("feynman_kac_vs_oracle.slack_constant: C is frozen at 2.0, "
                          f"got {params['slack_constant']!r}")
    oracle_dt = float(params.get("oracle_dt", cfg.dt))
    realizations = ctx.realizations_for("feynman_kac_vs_oracle", params)
    times = [t for t in cfg.output_times if t > 0]
    if not times:
        raise ConfigError("feynman_kac_vs_oracle: no positive output times")
    try:
        step_indices([*times, cfg.T], oracle_dt)
    except ValueError as exc:
        raise ConfigError(f"feynman_kac_vs_oracle: {exc}") from None

    axes = _query_axes(cfg, "feynman_kac_vs_oracle", params, default_nodes=51)
    pts = mesh_points(axes)
    w = trapezoid_weights(axes)
    mc = _psi_consumer(ctx, times, realizations, pts)

    def finish() -> CheckResult:
        samples = join_psi_samples(mc.results())

        oracle_axes = ctx.oracle_axes()
        f0 = grid_field_from_expr(cfg.f0, oracle_axes, t=0.0)
        (reference,) = solve_forward(ctx.cs, [f0], cfg.T, oracle_dt, output_times=times)

        disc_tol = slack_constant * (cfg.dt + cfg.oracle_dx ** 2)
        rows = []
        table = []
        passed = True
        for t in times:
            f_hat = fields_from_samples(samples, t)
            ref_vals = reference.at(t).sample(pts)
            usable = ~f_hat.masked
            frac_usable = float(usable.mean())
            if frac_usable < 0.5:
                passed = False
                table.append({"t": float(t), "usable_fraction": frac_usable, "passed": False})
                continue
            wsum = float(np.sum(w[usable]))
            l2 = float(np.sqrt(np.sum(w[usable] * (f_hat.mean[usable] - ref_vals[usable]) ** 2) / wsum))
            se_l2 = float(np.sqrt(np.sum(w[usable] * f_hat.se[usable] ** 2) / wsum))
            tol = max(4.0 * se_l2, disc_tol)
            ok = l2 <= tol
            passed = passed and ok
            rows.append((float(t), l2, se_l2))
            table.append({
                "t": float(t),
                "l2": l2,
                "se_l2": se_l2,
                "stat_tolerance": 4.0 * se_l2,
                "disc_tolerance": disc_tol,
                "usable_fraction": frac_usable,
                "passed": ok,
            })

        metrics = {
            "slack_constant": slack_constant,
            "oracle_dt": oracle_dt,
            "engine_dt": cfg.dt,
            "oracle_dx": cfg.oracle_dx,
            "times": table,
        }
        return CheckResult("feynman_kac_vs_oracle", passed, 0.0, metrics,
                           {"feynman_kac_vs_oracle": rows})

    return _Plan([mc], finish)


def _without_simulation(check: Callable) -> Callable:
    """The planner of a check that runs no Monte Carlo pass."""

    def plan(ctx: RunContext, params: dict) -> _Plan:
        return _Plan([], lambda: check(ctx, params))

    plan.__doc__ = check.__doc__
    return plan


_PLANNERS = {
    "roundtrip": _plan_roundtrip,
    "determinant_consistency": _plan_determinant_consistency,
    "martingale_M": _plan_martingale_M,
    "conservation": _plan_conservation,
    "entropy_mc": _plan_entropy_mc,
    "entropy_oracle": _without_simulation(check_entropy_oracle),
    "jensen": _without_simulation(check_jensen),
    "feynman_kac_vs_oracle": _plan_feynman_kac_vs_oracle,
}


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def _aborted(name: str, exc: Exception) -> CheckResult:
    return CheckResult(
        name,
        False,
        0.0,
        {"error": f"{type(exc).__name__}: {exc}"},
        {},
        notes="check aborted by error",
    )


def _gate_discards(res: CheckResult, consumers: list) -> None:
    """Write a check's ``realizations`` (a consumer's budget) and ``num_discarded`` (the
    sum over its consumers); fail it when over MAX_DISCARD_FRACTION were discarded."""
    if not consumers:
        return
    dead = sum(c.discarded for c in consumers)
    res.metrics["realizations"] = consumers[0].realizations
    res.metrics["num_discarded"] = dead
    if dead / sum(c.realizations for c in consumers) > MAX_DISCARD_FRACTION:
        res.passed = False


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str,
    seed: int | None = None,
    realizations: int | None = None,
    threads: int = 1,
    chunk_size: int | None = None,
) -> RunReport:
    """Execute every configured check, writing CSVs as they finish plus report.json.

    Every check is planned first.  Checks that simulate the same labels with the
    same dt to the same horizon share one chunked engine pass, which runs when the
    first of them comes up, so that check's elapsed time includes the pass.  A check
    that raises is recorded as failed with the error message; later checks still
    run.  ``realizations`` overrides every per-check budget (used for quick
    deterministic replays); ``seed`` overrides the scenario seed.  ``chunk_size``
    fixes the realizations per chunk of every pass; by default each pass splits its
    realizations into the fewest equal chunks whose working set fits
    ``engine.CHUNK_BYTES``.  The report, whose ``num_discarded`` counts the
    realizations each pass discarded once, does not depend on ``threads`` or
    ``chunk_size``.
    """
    os.makedirs(out_dir, exist_ok=True)
    ctx = RunContext(
        cfg=cfg,
        seed=cfg.seed if seed is None else int(seed),
        realizations_override=realizations,
        threads=max(1, int(threads)),
        chunk_size=chunk_size,
    )
    t_start = time.perf_counter()
    discarded = 0
    plans = []  # (name, plan or the error that stopped planning, seconds spent)
    for name in cfg.checks:
        t0 = time.perf_counter()
        try:
            plan = _PLANNERS[name](ctx, cfg.params_for(name))
        except Exception as exc:  # noqa: BLE001 — verdicts must survive bad checks
            plan = exc
        plans.append((name, plan, time.perf_counter() - t0))
    passes = _passes(c for _, plan, _ in plans if isinstance(plan, _Plan) for c in plan.consumers)

    results: list[CheckResult] = []
    for name, plan, planning in plans:
        t0 = time.perf_counter()
        if isinstance(plan, _Plan):
            for c in plan.consumers:
                group = passes.pop(c.pass_key(), None)
                if group is not None:
                    discarded += _run_pass(ctx, group)
            try:
                res = plan.finish()
            except Exception as exc:  # noqa: BLE001 — verdicts must survive bad checks
                res = _aborted(name, exc)
            else:
                _gate_discards(res, plan.consumers)
        else:
            res = _aborted(name, plan)
        res.elapsed = planning + time.perf_counter() - t0
        for stem, rows in res.series.items():
            _write_series_csv(os.path.join(out_dir, f"{stem}.csv"), rows)
        results.append(res)

    report = RunReport(
        scenario=cfg.name,
        config_hash=cfg.hash,
        version=__version__,
        seed=ctx.seed,
        realizations=ctx.realizations_override if ctx.realizations_override is not None else cfg.realizations,
        threads=ctx.threads,
        elapsed=time.perf_counter() - t_start,
        num_discarded=discarded,
        results=results,
    )
    write_json(report_payload(report), os.path.join(out_dir, "report.json"))
    return report


# ---------------------------------------------------------------------------
# Step-size refinement study
# ---------------------------------------------------------------------------


def convergence_study(
    cfg: ScenarioConfig,
    levels: int,
    realizations: int | None = None,
    threads: int = 1,
    seed: int | None = None,
) -> dict:
    """Tracker-gap refinement: determinant_consistency's plan at dt, dt/2, ...

    Runs the check's own plan, with the scenario's parameters, over ``levels`` step
    sizes dt / 2**l from the scenario's dt, at a budget of ``realizations``, else the
    check's ``realizations`` parameter, else 512; a budget below 1 is a ConfigError.
    Returns the dt table, the check's two RMS gap series (the compounded determinant
    against the exponential divergence tracker and against the direct SDE solution),
    and the fitted order of the first (slope of log2 gap against log2 dt), which is
    NaN where the gaps coincide to roundoff.
    """
    if levels < 2:
        raise ConfigError("convergence study needs at least 2 levels")
    ctx = RunContext(
        cfg=cfg,
        seed=cfg.seed if seed is None else int(seed),
        realizations_override=realizations,
        threads=max(1, int(threads)),
    )
    dts = [cfg.dt / (2 ** l) for l in range(levels)]
    params = {"realizations": 512, **cfg.params_for("determinant_consistency"), "dt_levels": dts}
    plan = _plan_determinant_consistency(ctx, params)
    for group in _passes(plan.consumers).values():
        _run_pass(ctx, group)
    res = plan.finish()
    _gate_discards(res, plan.consumers)
    metrics, series = res.metrics, res.series
    return {
        "scenario": cfg.name,
        "config_hash": cfg.hash,
        "horizon": metrics["horizon"],
        "realizations": metrics["realizations"],
        "levels": levels,
        "dt": metrics["dt_levels"],
        "gap_direct_vs_exp_lambda": [g for _, g, _ in series["determinant_consistency.exp_lambda"]],
        "gap_direct_vs_sde": [g for _, g, _ in series["determinant_consistency.sde"]],
        "fitted_order": metrics["pair_direct_vs_exp_lambda"].get("order", float("nan")),
        "num_discarded": metrics["num_discarded"],
    }
