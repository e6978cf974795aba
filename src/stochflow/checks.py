"""Named verification checks over a scenario, with JSON/CSV reporting.

Each check is a pure function of a run context (config + seed + budgets) returning a
``CheckResult``; ``run_scenario`` executes the configured list, writes one CSV per
emitted time series (header ``t,value,se``) plus a ``report.json``, and never lets a
failing check abort the rest of the run.  All randomness flows through the
counter-based per-realization streams, so a report is byte-identical across repeat
runs and across worker-thread counts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .brownian import BrownianDriver, auxiliary_rng
from .config import ScenarioConfig
from .convex import get_convex, non_convex_control
from .engine import DEFAULT_CHUNK_SIZE, BatchResult, escape_margin, run_chunks, simulate_paths
from .errors import ConfigError, StochflowError
from .estimators import (
    collect_psi_samples,
    conserved_quantity_batch,
    constant_phi,
    entropy_decay_check,
    exponential_phi,
    fields_from_samples,
    jensen_check,
    martingale_values,
    z_score,
)
from .fields import eval_batch, parse_field
from .grids import Box, grid_axes, mesh_points, trapezoid_weights
from .inverse import STATUS_OK, chart_from_batch, roundtrip_error
from .oracle import (
    GridField,
    OracleSeries,
    PhiSeries,
    entropy_series,
    grid_field_from_expr,
    solve_adjoint,
    solve_forward,
)

__all__ = [
    "CheckResult",
    "RunReport",
    "RunContext",
    "run_scenario",
    "convergence_study",
    "write_report",
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
    """All check outcomes of one scenario run."""

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


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_payload(report), fh, indent=2, sort_keys=True)
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
    chunk_size: int = DEFAULT_CHUNK_SIZE
    discards: int = 0
    _weight_cache: dict = field(default_factory=dict)

    @property
    def cs(self):
        return self.cfg.coefficients

    def realizations_for(self, check: str, params: dict) -> int:
        if self.realizations_override is not None:
            return int(self.realizations_override)
        return int(params.get("realizations", self.cfg.realizations))

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
        """Weighting factor for the scenario: (phi callable, phi_at_time_zero, label).

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
            if c == 0.0:
                return constant_phi(1.0), (lambda pts: np.ones(np.atleast_2d(pts).shape[0])), "constant 1"
            phi = exponential_phi(c, cfg.T)
            ref = float(np.exp(c * cfg.T))
            return phi, (lambda pts: np.full(np.atleast_2d(pts).shape[0], ref)), f"exp({c:g}*(T-t))"
        if kind != "adjoint":
            raise ConfigError(f"unknown weighting kind {kind!r} (use trivial/adjoint/auto)")

        key = tuple(round(float(t), 12) for t in times)
        if key not in self._weight_cache:
            pad = escape_margin(cfg.nu, cfg.T) + 5 * cfg.oracle_dx
            axes = self.oracle_axes(cfg.box.padded(pad))
            phi_T = grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T)
            out_times = sorted({0.0, cfg.T, *(float(t) for t in times)})
            series = solve_adjoint(self.cs, phi_T, cfg.T, cfg.dt, output_times=out_times)
            self._weight_cache[key] = PhiSeries(series)
        phi = self._weight_cache[key]
        return phi, (lambda pts: np.asarray(phi(np.atleast_2d(pts), 0.0), dtype=float).reshape(-1)), "adjoint solve"

    def note_discards(self, count: int) -> None:
        self.discards += int(count)


def _alive_subset(result: BatchResult) -> tuple[BatchResult, int]:
    """Drop escaped/non-finite realizations, keeping the container contract."""
    alive = result.alive
    dropped = int((~alive).sum())
    if dropped == 0:
        return result, 0
    keep = np.nonzero(alive)[0]
    sub = replace(
        result,
        realization_indices=result.realization_indices[keep],
        X=result.X[:, keep],
        D_sde=result.D_sde[:, keep],
        log_lambda=result.log_lambda[:, keep],
        log_I=result.log_I[:, keep],
        D_direct=result.D_direct[:, keep],
        alive=np.ones(keep.size, dtype=bool),
        escaped=result.escaped[keep],
        nonfinite=result.nonfinite[keep],
        degenerate=result.degenerate[keep],
    )
    return sub, dropped


def _store_indices(times, dt: float) -> tuple[int, list]:
    idx = []
    for t in times:
        i = int(round(float(t) / dt))
        if abs(i * dt - float(t)) > 1e-9 * max(1.0, abs(float(t))):
            raise ConfigError(f"time {t!r} is not on the dt={dt} step grid")
        idx.append(i)
    num_steps = max(max(idx), 1)
    return num_steps, sorted(set(idx))


def _simulate_chunked(ctx: RunContext, labels, times, realizations: int, dt: float | None = None):
    """Simulate ``realizations`` flows over ``labels`` storing ``times``; chunk list."""
    cfg = ctx.cfg
    step = cfg.dt if dt is None else float(dt)
    num_steps, store = _store_indices(times, step)
    driver = ctx.driver(step)

    def worker(indices):
        return simulate_paths(
            ctx.cs, labels, num_steps=num_steps, store_indices=store,
            driver=driver, realization_indices=indices, box=cfg.box,
        )

    return run_chunks(range(realizations), worker, chunk_size=ctx.chunk_size, threads=ctx.threads)


def _times_from(params: dict, key: str, default) -> list:
    raw = params.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"check parameter {key!r} must be a nonempty list of times")
    return [float(t) for t in raw]


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_roundtrip(ctx: RunContext, params: dict) -> CheckResult:
    """Invert the flow map at every stored time and measure max |A(X(a,t)) - a|.

    Interior labels only: boundary labels may map outside the covered cell complex.
    A handful of realizations suffices — the defect is a per-path property of the
    inversion, not a statistic.
    """
    cfg = ctx.cfg
    tol = float(params.get("tolerance", 1e-6))
    times = _times_from(params, "times", [t for t in cfg.output_times if t > 0])
    num_real = 8
    chunks = _simulate_chunked(ctx, cfg.label_axes, times, num_real)

    worst = 0.0
    worst_fraction = 1.0
    per_time = {float(t): 0.0 for t in times}
    dead = 0
    for result in chunks:
        sub, dropped = _alive_subset(result)
        dead += dropped
        for slot_r in range(sub.num_realizations):
            for t in times:
                chart = chart_from_batch(sub, t, slot_r)
                rt = roundtrip_error(chart, interior_only=True)
                err = rt["max_abs_error"]
                worst = max(worst, err)
                worst_fraction = min(worst_fraction, rt["resolved_fraction"])
                per_time[float(t)] = max(per_time[float(t)], err)
    ctx.note_discards(dead)
    passed = dead == 0 and worst <= tol and worst_fraction == 1.0
    metrics = {
        "max_abs_error": worst,
        "tolerance": tol,
        "min_resolved_fraction": worst_fraction,
        "realizations": num_real,
        "num_discarded": dead,
    }
    rows = [(t, per_time[float(t)], 0.0) for t in times]
    return CheckResult("roundtrip", passed, 0.0, metrics, {"roundtrip": rows})


def _tracker_gaps(ctx: RunContext, labels, horizon: float, dt: float, realizations: int):
    """RMS gaps among the determinant trackers at the horizon, one step size."""
    chunks = _simulate_chunked(ctx, labels, [horizon], realizations, dt=dt)
    # Gather every chunk's gaps before reducing, so the sums do not depend on
    # where the chunks split.
    gap_ds = []
    gap_dl = []
    dead = 0
    for result in chunks:
        sub, dropped = _alive_subset(result)
        dead += dropped
        d = sub.D_direct[0].reshape(-1)
        gap_ds.append(d - sub.D_sde[0].reshape(-1))
        gap_dl.append(d - np.exp(sub.log_lambda[0]).reshape(-1))
    g_ds = np.concatenate(gap_ds)
    g_dl = np.concatenate(gap_dl)
    count = g_ds.size
    if count == 0:
        raise StochflowError("all realizations were discarded; no tracker samples left")
    return {
        "rms_direct_vs_sde": float(np.sqrt(float(np.sum(g_ds ** 2)) / count)),
        "rms_direct_vs_exp_lambda": float(np.sqrt(float(np.sum(g_dl ** 2)) / count)),
        "max_direct_vs_sde": float(np.max(np.abs(g_ds))),
        "samples": count,
        "num_discarded": dead,
    }


def _tracker_levels(ctx: RunContext, labels, horizon: float, dts, realizations: int) -> list:
    """``_tracker_gaps`` at each step size; the horizon must be a multiple of every one."""
    for dt in dts:
        if abs(round(horizon / dt) * dt - horizon) > 1e-9:
            raise ConfigError(f"horizon {horizon} is not a multiple of dt {dt}")
    return [_tracker_gaps(ctx, labels, horizon, dt, realizations) for dt in dts]


def _fit_order(dts, gaps) -> float:
    """Slope of log2(gap) against log2(dt) — the observed convergence order."""
    x = np.log2(np.asarray(dts, dtype=float))
    y = np.log2(np.asarray(gaps, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


_COINCIDENT_RMS = 1e-13


def _gate_pair(dts, gaps) -> dict:
    """Halving-ratio and fitted-order gates for one tracker pair across dt levels."""
    gaps = [float(g) for g in gaps]
    if max(gaps) < _COINCIDENT_RMS:
        return {"regime": "coincident", "gaps": gaps, "passed": True}
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    order = _fit_order(dts, gaps)
    ratios_ok = all(1.2 <= r <= 2.8 for r in ratios)
    order_ok = order >= 0.4
    return {
        "regime": "scaling",
        "gaps": gaps,
        "ratios": ratios,
        "order": order,
        "passed": bool(ratios_ok and order_ok),
    }


def _det_label_axes(cfg: ScenarioConfig) -> tuple:
    # Tracker gaps are per-path statistics; a thinned uniform grid keeps the runtime
    # proportionate without touching the verdict.
    return grid_axes(cfg.box, tuple(min(s, 17) for s in cfg.label_shape))


def check_determinant_consistency(ctx: RunContext, params: dict) -> CheckResult:
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
    for a, b in zip(dt_levels, dt_levels[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError("determinant_consistency: dt levels must halve")
    horizon = float(params.get("horizon", min(cfg.T, 0.5)))
    realizations = ctx.realizations_for("determinant_consistency", params)
    labels = _det_label_axes(cfg)

    levels = _tracker_levels(ctx, labels, horizon, dt_levels, realizations)
    dead = sum(lv["num_discarded"] for lv in levels)
    ctx.note_discards(dead)

    gate_dl = _gate_pair(dt_levels, [lv["rms_direct_vs_exp_lambda"] for lv in levels])
    metrics = {
        "dt_levels": dt_levels,
        "horizon": horizon,
        "realizations": realizations,
        "num_discarded": dead,
        "pair_direct_vs_exp_lambda": gate_dl,
    }
    passed = gate_dl["passed"]

    if cfg.n == 1:
        # Shared scalar recurrence: the direct pair must coincide to roundoff.
        max_gap = max(lv["max_direct_vs_sde"] for lv in levels)
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

    frac = dead / max(1, realizations * len(dt_levels))
    if frac > MAX_DISCARD_FRACTION:
        passed = False
        metrics["discard_fraction"] = frac

    series = {
        "determinant_consistency.exp_lambda": [
            (dt, lv["rms_direct_vs_exp_lambda"], 0.0) for dt, lv in zip(dt_levels, levels)
        ],
        "determinant_consistency.sde": [
            (dt, lv["rms_direct_vs_sde"], 0.0) for dt, lv in zip(dt_levels, levels)
        ],
    }
    return CheckResult("determinant_consistency", passed, 0.0, metrics, series)


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


def check_martingale_M(ctx: RunContext, params: dict) -> CheckResult:
    """Mean of the path functional phi(X,t) * detJ * exp(accumulated weight).

    For an admissible weighting factor this functional is a martingale, so its mean
    at every probe label and time must match phi(label, 0) to sampling error; the
    gate is |z| <= 4 per (label, time).
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", [t for t in cfg.output_times if t > 0][:3])
    realizations = ctx.realizations_for("martingale_M", params)
    axes = _probe_axes(cfg, params)
    phi, phi0, phi_label = ctx.weight(str(params.get("phi", "auto")), times)

    # Probes are the diagonal of the per-axis lists; in 1D every grid node is one.
    grid_pts = mesh_points(axes)
    if cfg.n == 1:
        probe_cols = list(range(grid_pts.shape[0]))
    else:
        m = axes[0].size
        sizes = tuple(ax.size for ax in axes)
        probe_cols = [int(np.ravel_multi_index(tuple([i] * cfg.n), sizes)) for i in range(m)]
    probes = grid_pts[probe_cols]
    refs = phi0(probes)

    chunks = _simulate_chunked(ctx, axes, times, realizations)
    dead = sum(int((~c.alive).sum()) for c in chunks)
    ctx.note_discards(dead)

    table = []
    max_abs_z = 0.0
    series = {}
    for t in times:
        values = np.concatenate([martingale_values(c, phi, t) for c in chunks], axis=0)
        for j, col in enumerate(probe_cols):
            samples = values[:, col]
            z = z_score(samples, float(refs[j]))
            max_abs_z = max(max_abs_z, abs(z))
            mean = float(samples.mean())
            se = float(samples.std(ddof=1) / np.sqrt(samples.size))
            table.append({
                "t": float(t),
                "label": [float(v) for v in probes[j]],
                "mean": mean,
                "se": se,
                "reference": float(refs[j]),
                "z": z,
            })
            series.setdefault(f"martingale_M.probe{j}", []).append((float(t), mean, se))

    frac = dead / max(1, realizations)
    passed = max_abs_z <= _Z_LIMIT and np.isfinite(max_abs_z) and frac <= MAX_DISCARD_FRACTION
    metrics = {
        "weighting": phi_label,
        "realizations": realizations,
        "num_discarded": dead,
        "max_abs_z": max_abs_z,
        "z_limit": _Z_LIMIT,
        "cells": table,
    }
    return CheckResult("martingale_M", passed, 0.0, metrics, series)


def check_conservation(ctx: RunContext, params: dict) -> CheckResult:
    """Constancy in time of the label-space quadrature of the weighted flow.

    The per-realization quadrature of phi * detJ * exp(weight) * rho0 * h0 over
    labels has time-independent expectation equal to its (deterministic) value at
    t = 0; the gate is |z| <= 4 at every requested time, for the configured h0 and
    optionally a second displaced profile.
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", [t for t in cfg.output_times if t > 0])
    realizations = ctx.realizations_for("conservation", params)
    phi, phi0, phi_label = ctx.weight("auto", times)

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

    chunks = _simulate_chunked(ctx, axes, times, realizations)
    subs = []
    dead = 0
    for c in chunks:
        sub, dropped = _alive_subset(c)
        dead += dropped
        subs.append(sub)
    ctx.note_discards(dead)
    frac = dead / max(1, realizations)

    def eval_pts(expr):
        vals = eval_batch(expr, tuple(labels[:, k] for k in range(cfg.n)), 0.0)
        return np.broadcast_to(np.asarray(vals, dtype=float), (labels.shape[0],)).copy()

    table = []
    max_abs_z = 0.0
    series = {}
    for vname, h_expr in variants:
        dens = eval_pts(cfg.rho0) * eval_pts(h_expr)
        reference = float(np.sum(w * dens * phi0(labels)))
        stem = "conservation" if vname == "h0" else "conservation.alt"
        for t in times:
            samples = np.concatenate(
                [conserved_quantity_batch(s, phi, cfg.rho0, h_expr, t) for s in subs]
            )
            z = z_score(samples, reference)
            max_abs_z = max(max_abs_z, abs(z))
            mean = float(samples.mean())
            se = float(samples.std(ddof=1) / np.sqrt(samples.size))
            table.append({
                "profile": vname,
                "t": float(t),
                "mean": mean,
                "se": se,
                "reference": reference,
                "z": z,
            })
            series.setdefault(stem, []).append((float(t), mean, se))

    zs = [abs(row["z"]) for row in table]
    passed = (
        max_abs_z <= _Z_LIMIT
        and all(np.isfinite(z) for z in zs)
        and frac <= MAX_DISCARD_FRACTION
    )
    metrics = {
        "weighting": phi_label,
        "realizations": realizations,
        "num_discarded": dead,
        "max_abs_z": max_abs_z,
        "z_limit": _Z_LIMIT,
        "fraction_abs_z_above_2": float(np.mean([z > 2.0 for z in zs])),
        "cells": table,
    }
    return CheckResult("conservation", passed, 0.0, metrics, series)


def _query_axes(cfg: ScenarioConfig, params: dict, default_nodes: int = 41) -> tuple:
    nodes = int(params.get("query_nodes", default_nodes))
    spans = [hi - lo for lo, hi in zip(cfg.box.lo, cfg.box.hi)]
    margin = float(params.get("query_margin", 0.15 * min(spans)))
    lo = [l + margin for l in cfg.box.lo]
    hi = [h - margin for h in cfg.box.hi]
    if any(b - a <= 0 for a, b in zip(lo, hi)):
        raise ConfigError("query_margin leaves an empty query window")
    return grid_axes(Box(tuple(lo), tuple(hi)), (nodes,) * cfg.n)


def check_entropy_mc(ctx: RunContext, params: dict) -> CheckResult:
    """Monte Carlo entropy decay, its bootstrap bands, and the supporting identities.

    Builds the weighted transported pair at quadrature points, asserts the per-point
    convexity inequality on the raw samples, runs the bootstrap monotonicity verdict
    on the entropy series, and requires the non-convex control -r^2 to fail it.
    """
    cfg = ctx.cfg
    times = _times_from(params, "times", list(cfg.output_times))
    realizations = ctx.realizations_for("entropy_mc", params)
    h_fun = get_convex(cfg.H_name)
    phi, _, phi_label = ctx.weight("auto", times)
    axes = _query_axes(cfg, params)
    pts = mesh_points(axes)

    samples = collect_psi_samples(
        ctx.cs, cfg.label_axes, times, ctx.driver(), cfg.f0, cfg.rho0, pts,
        realizations=realizations, box=cfg.box, chunk_size=ctx.chunk_size,
        threads=ctx.threads,
    )
    ctx.note_discards(samples.num_discarded)

    report = entropy_decay_check(samples, phi=phi, H=h_fun, times=times, seed=ctx.seed)
    control = entropy_decay_check(
        samples, phi=phi, H=non_convex_control(), times=times, seed=ctx.seed
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
            res = jensen_check(rho_s, f_s, h_fun)
            jensen_ok = jensen_ok and res.holds
            jensen_cells.append({
                "t": float(t),
                "point": [float(v) for v in pts[qi]],
                "lhs": res.lhs,
                "rhs": res.rhs,
                "holds": res.holds,
            })

    frac = samples.num_discarded / max(1, realizations)
    passed = (
        report.verdict_nonincreasing
        and not control.verdict_nonincreasing
        and jensen_ok
        and frac <= MAX_DISCARD_FRACTION
    )
    se = None
    if report.lower is not None and report.upper is not None:
        se = (report.upper - report.lower) / (2.0 * 1.959963984540054)
    rows = [
        (float(t), float(v), float(se[i]) if se is not None else 0.0)
        for i, (t, v) in enumerate(zip(report.times, report.values))
    ]
    metrics = {
        "weighting": phi_label,
        "H": cfg.H_name,
        "realizations": realizations,
        "num_discarded": samples.num_discarded,
        "values": [float(v) for v in report.values],
        "increments": [float(v) for v in report.increments],
        "num_violations": report.num_violations,
        "band_lower": [float(v) for v in report.lower] if report.lower is not None else None,
        "band_upper": [float(v) for v in report.upper] if report.upper is not None else None,
        "control_num_violations": control.num_violations,
        "control_fails": not control.verdict_nonincreasing,
        "jensen_on_samples": jensen_cells,
        "jensen_holds": jensen_ok,
    }
    return CheckResult("entropy_mc", passed, 0.0, metrics, {"entropy_mc": rows})


def _ones_series(axes, times) -> OracleSeries:
    fields = [GridField(axes, np.ones(tuple(ax.size for ax in axes)), float(t)) for t in times]
    return OracleSeries(times=np.asarray([float(t) for t in times]), fields=fields, dt=0.0)


def _scaled_series(axes, times, c: float, T: float) -> OracleSeries:
    fields = [
        GridField(axes, np.full(tuple(ax.size for ax in axes), float(np.exp(c * (T - t)))), float(t))
        for t in times
    ]
    return OracleSeries(times=np.asarray([float(t) for t in times]), fields=fields, dt=0.0)


def check_entropy_oracle(ctx: RunContext, params: dict) -> CheckResult:
    """Grid-solver entropy decay: the series must be nonincreasing to within 1e-8.

    Solves the forward equation for the data and the density, builds the weighting
    series (closed form for constant V, backward solve otherwise), and evaluates the
    weighted relative-entropy functional on the common grid.  The non-convex control
    -r^2 must violate monotonicity, guarding against a vacuous verdict.
    """
    cfg = ctx.cfg
    oracle_dt = float(params.get("oracle_dt", min(cfg.dt, 2e-4)))
    if "times" in params:
        times = _times_from(params, "times", None)
    else:
        times = [cfg.T * i / 10.0 for i in range(11)]
    for t in times:
        i = round(t / oracle_dt)
        if abs(i * oracle_dt - t) > 1e-9 * max(1.0, t):
            raise ConfigError(f"entropy_oracle: time {t} is not on the oracle_dt grid")
    slack_constant = float(params.get("slack_constant", 1.0))
    h_fun = get_convex(cfg.H_name)

    axes = ctx.oracle_axes()
    f0 = grid_field_from_expr(cfg.f0, axes, t=0.0)
    rho0 = grid_field_from_expr(cfg.rho0, axes, t=0.0)
    f_series = solve_forward(ctx.cs, f0, cfg.T, oracle_dt, output_times=times)
    rho_series = solve_forward(
        ctx.cs, rho0, cfg.T, oracle_dt, output_times=times, require_positive=True
    )
    v_expr = ctx.cs.V
    if v_expr.is_constant and v_expr.constant_value == 0.0:
        phi_series = _ones_series(axes, times)
        phi_label = "constant 1"
    elif v_expr.is_constant:
        phi_series = _scaled_series(axes, times, v_expr.constant_value, cfg.T)
        phi_label = f"exp({v_expr.constant_value:g}*(T-t))"
    else:
        phi_T = grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T)
        phi_series = solve_adjoint(ctx.cs, phi_T, cfg.T, oracle_dt, output_times=times)
        phi_label = "adjoint solve"

    report = entropy_series(f_series, rho_series, phi_series, h_fun, slack_constant=slack_constant)
    control = entropy_series(f_series, rho_series, phi_series, non_convex_control(),
                             slack_constant=slack_constant)

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


def check_jensen(ctx: RunContext, params: dict) -> CheckResult:
    """Randomized verification of the weighted convexity inequality.

    Draws positive weight samples and signed (or positive, for domain-restricted
    functions) data samples and asserts the normalized inequality exactly, for the
    square, the smoothed absolute deviation, and r*log(r); the inequality is an
    identity for finite convex combinations, so the pass bar is zero violations.
    """
    cfg = ctx.cfg
    num_sets = int(params.get("num_sets", 1000))
    num_samples = int(params.get("num_samples", 64))
    rng = auxiliary_rng(ctx.seed, "jensen")
    names = ["r2", "abs_smooth", "rlogr"]
    if cfg.H_name not in names:
        names.append(cfg.H_name)

    worst = -np.inf
    violations = 0
    total = 0
    for name in names:
        h_fun = get_convex(name)
        positive_only = name == "rlogr"
        for _ in range(num_sets):
            scale = float(rng.lognormal(0.0, 0.5))
            rho_s = rng.uniform(0.05, 3.0, num_samples) * scale
            if positive_only:
                f_s = rng.uniform(0.0, 2.5, num_samples) * scale
            else:
                f_s = rng.normal(0.0, 1.5, num_samples) * scale
            res = jensen_check(rho_s, f_s, h_fun)
            total += 1
            if not res.holds:
                violations += 1
            worst = max(worst, res.lhs - res.rhs)

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


def check_feynman_kac_vs_oracle(ctx: RunContext, params: dict) -> CheckResult:
    """Monte Carlo field estimate against the grid forward solve, in masked L2.

    The tolerance at each output time is max(4 * SE_L2, C * (dt + dx^2)): sampling
    error when it dominates, otherwise the frozen discretization allowance C.
    C = 2.0 was calibrated once on the constant-coefficient scenario at 20000
    realizations (observed masked-L2 of 6.5e-4 against a unit of 1.4e-3, itself an
    upper bound inflated by leftover sampling noise) and is deliberately frozen:
    loosening it per-scenario would turn the gate into a tautology.
    """
    cfg = ctx.cfg
    slack_constant = float(params.get("slack_constant", 2.0))
    oracle_dt = float(params.get("oracle_dt", cfg.dt))
    realizations = ctx.realizations_for("feynman_kac_vs_oracle", params)
    times = [t for t in cfg.output_times if t > 0]
    if not times:
        raise ConfigError("feynman_kac_vs_oracle: no positive output times")

    axes = _query_axes(cfg, params, default_nodes=51)
    pts = mesh_points(axes)
    w = trapezoid_weights(axes)

    samples = collect_psi_samples(
        ctx.cs, cfg.label_axes, times, ctx.driver(), cfg.f0, cfg.rho0, pts,
        realizations=realizations, box=cfg.box, chunk_size=ctx.chunk_size,
        threads=ctx.threads,
    )
    ctx.note_discards(samples.num_discarded)

    oracle_axes = ctx.oracle_axes()
    f0 = grid_field_from_expr(cfg.f0, oracle_axes, t=0.0)
    reference = solve_forward(ctx.cs, f0, cfg.T, oracle_dt, output_times=times)

    disc_tol = slack_constant * (cfg.dt + cfg.oracle_dx ** 2)
    rows = []
    table = []
    passed = True
    for t in times:
        f_hat, _ = fields_from_samples(samples, t)
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

    frac = samples.num_discarded / max(1, realizations)
    passed = passed and frac <= MAX_DISCARD_FRACTION
    metrics = {
        "slack_constant": slack_constant,
        "oracle_dt": oracle_dt,
        "engine_dt": cfg.dt,
        "oracle_dx": cfg.oracle_dx,
        "realizations": realizations,
        "num_discarded": samples.num_discarded,
        "times": table,
    }
    return CheckResult("feynman_kac_vs_oracle", passed, 0.0, metrics,
                       {"feynman_kac_vs_oracle": rows})


_RUNNERS = {
    "roundtrip": check_roundtrip,
    "determinant_consistency": check_determinant_consistency,
    "martingale_M": check_martingale_M,
    "conservation": check_conservation,
    "entropy_mc": check_entropy_mc,
    "entropy_oracle": check_entropy_oracle,
    "jensen": check_jensen,
    "feynman_kac_vs_oracle": check_feynman_kac_vs_oracle,
}


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str,
    seed: int | None = None,
    realizations: int | None = None,
    threads: int = 1,
) -> RunReport:
    """Execute every configured check, writing CSVs as they finish plus report.json.

    A check that raises is recorded as failed with the error message; later checks
    still run.  ``realizations`` overrides every per-check budget (used for quick
    deterministic replays); ``seed`` overrides the scenario seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    ctx = RunContext(
        cfg=cfg,
        seed=cfg.seed if seed is None else int(seed),
        realizations_override=realizations,
        threads=max(1, int(threads)),
    )
    results: list[CheckResult] = []
    t_start = time.perf_counter()
    for name in cfg.checks:
        runner = _RUNNERS[name]
        t0 = time.perf_counter()
        try:
            res = runner(ctx, cfg.params_for(name))
            res.elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 — verdicts must survive bad checks
            res = CheckResult(
                name,
                False,
                time.perf_counter() - t0,
                {"error": f"{type(exc).__name__}: {exc}"},
                {},
                notes="check aborted by error",
            )
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
        num_discarded=ctx.discards,
        results=results,
    )
    write_report(report, os.path.join(out_dir, "report.json"))
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
    """Tracker-gap refinement: halve dt ``levels`` times and fit the decay order.

    Returns the dt table, the RMS gap between the compounded determinant and the
    exponential divergence tracker at each level, and the fitted order (slope of
    log2 gap against log2 dt).
    """
    if levels < 2:
        raise ConfigError("convergence study needs at least 2 levels")
    params = cfg.params_for("determinant_consistency")
    horizon = float(params.get("horizon", min(cfg.T, 0.5)))
    budget = int(realizations if realizations is not None else params.get("realizations", 512))
    ctx = RunContext(
        cfg=cfg,
        seed=cfg.seed if seed is None else int(seed),
        realizations_override=None,
        threads=max(1, int(threads)),
    )
    labels = _det_label_axes(cfg)
    dts = [cfg.dt / (2 ** l) for l in range(levels)]
    stats = _tracker_levels(ctx, labels, horizon, dts, budget)
    gaps_dl = [lv["rms_direct_vs_exp_lambda"] for lv in stats]
    gaps_ds = [lv["rms_direct_vs_sde"] for lv in stats]
    order = _fit_order(dts, gaps_dl) if max(gaps_dl) >= _COINCIDENT_RMS else float("nan")
    return {
        "scenario": cfg.name,
        "config_hash": cfg.hash,
        "horizon": horizon,
        "realizations": budget,
        "levels": levels,
        "dt": dts,
        "gap_direct_vs_exp_lambda": gaps_dl,
        "gap_direct_vs_sde": gaps_ds,
        "fitted_order": order,
        "num_discarded": sum(lv["num_discarded"] for lv in stats),
    }
