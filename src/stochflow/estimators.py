"""Monte Carlo expectation fields and statistical verification checks.

Sampling design: labels within one realization share a single noise path (the flow
structure requires it); expectations average over independent realizations only.
All estimators reduce over realizations in a fixed order keyed by realization index,
so results are bit-identical for any worker-thread count.

Provided here:
  * ``collect_psi_samples`` records, for a chunk of realizations already simulated
    (one pass that several checks share), per realization / output time / query
    point, the weighted transported data pair (psi_f, psi_rho) together with the
    inversion status — the raw material for every statistical check below.  The
    chunk's alive realizations are inverted as chart stacks of ``_PSI_BLOCK_ROWS``
    rows at one output time (``inverse.chart_from_batch``,
    ``inverse.feynman_kac_psi_stack``), written in place into the chunk's (R, S, Q)
    outputs; ``join_psi_samples`` joins the samples of consecutive chunks.
  * ``fields_from_samples``: the f field at one output time as (Q,) arrays of mean,
    standard error and mask; every estimate drops the points that
    ``PsiSamples.resolved`` masks, those some realization left unresolved.
  * ``martingale_values``: the martingale weight phi(X,t) * D * exp(log-weight) per
    alive realization and label.
  * ``conserved_quantity_batch``: per alive realization, the label-space quadrature
    of ``martingale_values`` times rho0 * h0 — the tracked integral of motion.  With
    h0 = H(f0/rho0) it is the entropy martingale of ∫ rho H(f/rho) phi, because
    f/rho is a passive scalar.
  * ``jensen_check``: the finite-sample convexity inequality for a stack of sample
    sets, exact up to roundoff.
  * ``entropy_decay_check``: bootstrap-banded monotonicity verdicts for the entropy
    time series of the estimated fields, one per H from one set of draws, with the
    query points' quadrature ``weights`` given by the caller (the grid-solver
    counterpart is ``oracle.entropy_series``).

A weighting factor phi is called as ``phi(points, t)`` on (Q, n) points and returns
(Q,) values: ``exponential_phi`` (the closed form for a constant V; exactly 1 when
V = 0) and an ``oracle.OracleSeries``, such as an adjoint solve, read multilinearly
in space and time.  ``oracle.entropy_series`` takes the same callable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import inverse
from .brownian import auxiliary_rng
from .convex import ConvexH
from .engine import BatchResult
# Unused here; kept importable because the benchmark's span tracer patches
# estimators.simulate_paths and counts chunks through estimators.run_chunks.
from .engine import run_chunks, simulate_paths  # noqa: F401
from .errors import (
    DimensionMismatch,
    InsufficientRealizations,
    NonPositiveDensity,
    SignalTooNoisy,
    SupportEscape,
)
from .fields import FieldExpr, eval_points
from .grids import mesh_points, stored_time_slot, trapezoid_weights
from .inverse import STATUS_OK
# Unused here; kept importable because the benchmark's span tracer patches
# estimators.invert_batch.
from .inverse import invert_batch  # noqa: F401
from .oracle import EntropyReport
# Unused here; kept importable because the benchmark's span tracer patches
# estimators.entropy_series.
from .oracle import entropy_series  # noqa: F401

__all__ = [
    "PsiSamples",
    "JensenResult",
    "MIN_REALIZATIONS",
    "exponential_phi",
    "validate_compact_support",
    "collect_psi_samples",
    "join_psi_samples",
    "fields_from_samples",
    "martingale_values",
    "conserved_quantity_batch",
    "jensen_check",
    "entropy_decay_check",
]

MIN_REALIZATIONS = 100
SUPPORT_MARGIN_CELLS = 4
_SUPPORT_REL_TOL = 1e-10
# Bootstrap draws over realizations, and the confidence level of the entropy bands.
_BOOTSTRAP_RESAMPLES = 200
_BAND_LEVEL = 0.95
# Realizations per chart stack in ``collect_psi_samples``: bounds the stack's
# temporaries (corner Jacobians, bracketing indices, recovered labels) whatever the
# chunk size.
_PSI_BLOCK_ROWS = 64


# ---------------------------------------------------------------------------
# Weighting-factor sources (phi)
# ---------------------------------------------------------------------------


def exponential_phi(c: float, T: float) -> Callable:
    """phi(x, t) = exp(c * (T - t)) — the admissible weight when V = c (constant).

    With c = 0 it is exactly 1 at every time.
    """

    def phi(points, t):
        return np.full(len(points), float(np.exp(c * (T - float(t)))))

    return phi


# ---------------------------------------------------------------------------
# Support validation and quadrature helpers
# ---------------------------------------------------------------------------


def _boundary_ring_mask(shape: tuple, cells: int) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for k, size in enumerate(shape):
        if size <= 2 * cells:
            raise ValueError(
                f"grid axis {k + 1} has {size} nodes — too few to leave a "
                f"{cells}-cell boundary margin"
            )
        sl_lo = tuple(slice(None) if j != k else slice(0, cells) for j in range(len(shape)))
        sl_hi = tuple(slice(None) if j != k else slice(size - cells, size) for j in range(len(shape)))
        mask[sl_lo] = True
        mask[sl_hi] = True
    return mask


def validate_compact_support(
    expr: FieldExpr, label_axes, name: str, cells: int = SUPPORT_MARGIN_CELLS
) -> None:
    """Require |expr| to vanish (to roundoff) within ``cells`` cells of the grid edge.

    Quadrature-based functionals silently lose mass that reaches the label-box
    boundary; this guards the scenarios against that.
    """
    axes = tuple(np.asarray(ax, dtype=float) for ax in label_axes)
    shape = tuple(ax.size for ax in axes)
    pts = mesh_points(axes)
    vals = np.abs(eval_points(expr, pts)).reshape(shape)
    ring = _boundary_ring_mask(shape, cells)
    peak = float(vals.max()) if vals.size else 0.0
    worst = float(vals[ring].max()) if ring.any() else 0.0
    if worst > _SUPPORT_REL_TOL * (1.0 + peak):
        raise ValueError(
            f"{name} does not vanish within {cells} cells of the label-box boundary "
            f"(boundary-ring max {worst:.3e}, overall max {peak:.3e})"
        )


# ---------------------------------------------------------------------------
# Sample containers
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PsiSamples:
    """Per-realization weighted transported data at query points and output times.

    ``psi_f[r, s, q]`` / ``psi_rho[r, s, q]`` hold f0/rho0 transported along
    realization r to time ``times[s]`` at point ``points[q]``, weighted by the
    accumulated exponential factor; ``status[r, s, q]`` is the inversion status
    (0 = resolved).  Realizations that left the padded domain or went non-finite are
    dropped before this container is built.
    """

    points: np.ndarray  # (Q, n)
    times: np.ndarray  # (S,)
    realization_indices: np.ndarray  # (R,)
    psi_f: np.ndarray  # (R, S, Q)
    psi_rho: np.ndarray  # (R, S, Q)
    status: np.ndarray  # (R, S, Q) uint8

    @property
    def num_realizations(self) -> int:
        return int(self.realization_indices.size)

    def time_slot(self, t: float) -> int:
        return stored_time_slot(self.times, t)

    def resolved(self, *names: str) -> tuple:
        """The (S, Q) mask of the points that some realization left unresolved, then
        each named (R, S, Q) array with those points zeroed for every realization.

        Raises InsufficientRealizations below ``MIN_REALIZATIONS`` realizations.
        """
        r = self.num_realizations
        if r < MIN_REALIZATIONS:
            raise InsufficientRealizations(
                f"{r} realizations available; at least {MIN_REALIZATIONS} required"
            )
        masked = np.any(self.status != STATUS_OK, axis=0)
        return (masked, *(np.where(masked, 0.0, getattr(self, name)) for name in names))


@dataclass(frozen=True)
class JensenResult:
    """Outcome of the finite-sample convexity inequality: one entry per sample set."""

    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray


# ---------------------------------------------------------------------------
# Collection: invert a simulated chunk and record psi pairs
# ---------------------------------------------------------------------------


def collect_psi_samples(
    simulated: BatchResult,
    times: Sequence[float],
    f0: FieldExpr,
    rho0: FieldExpr,
    query_points,
) -> PsiSamples:
    """ψ pairs of the alive realizations of a simulated chunk at query points.

    ``simulated`` stores X and log_I over a label grid at every time in ``times``;
    rows follow its realization indices, and every value depends only on its own
    realization, so the samples of consecutive chunks, joined by
    ``join_psi_samples``, do not depend on where the chunks split.
    """
    pts = np.asarray(query_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != simulated.n:
        raise DimensionMismatch(
            f"query points must have shape (Q, {simulated.n}), got {pts.shape}"
        )
    ts = np.array([float(t) for t in times])
    if ts.size == 0:
        raise ValueError("at least one output time is required")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("output times must be strictly increasing")
    r_alive = np.nonzero(simulated.alive)[0]
    # The outputs are allocated once the engine's working state is freed; the stacks
    # write into them block by block.  The chart is looked up on the inverse module
    # so that the benchmark's span tracer sees every stack.
    shape = (r_alive.size, ts.size, pts.shape[0])
    pf, pr, st = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.uint8)
    for s, t in enumerate(ts):
        for b0 in range(0, r_alive.size, _PSI_BLOCK_ROWS):
            block = slice(b0, b0 + _PSI_BLOCK_ROWS)
            stack = inverse.chart_from_batch(simulated, float(t), r_alive[block])
            (vf, vr), status = inverse.feynman_kac_psi_stack(stack, (f0, rho0), pts)
            pf[block, s], pr[block, s], st[block, s] = vf, vr, status
    return PsiSamples(
        points=pts,
        times=ts,
        realization_indices=simulated.realization_indices[r_alive],
        psi_f=pf,
        psi_rho=pr,
        status=st,
    )


def join_psi_samples(parts: Sequence[PsiSamples]) -> PsiSamples:
    """Samples of consecutive chunks of realizations, joined in realization order."""
    if not parts:
        raise ValueError("no samples to join")
    if len(parts) == 1:
        return parts[0]
    return replace(
        parts[0],
        realization_indices=np.concatenate([p.realization_indices for p in parts]),
        psi_f=np.concatenate([p.psi_f for p in parts]),
        psi_rho=np.concatenate([p.psi_rho for p in parts]),
        status=np.concatenate([p.status for p in parts]),
    )


# ---------------------------------------------------------------------------
# Field estimates
# ---------------------------------------------------------------------------


def fields_from_samples(samples: PsiSamples, t: float) -> tuple:
    """The f field at one sampled time as (Q,) arrays ``(mean, se, masked)``: the
    sample mean and its standard error, NaN at the points ``PsiSamples.resolved`` masks."""
    masked, psi_f = samples.resolved("psi_f")
    s = samples.time_slot(t)
    masked, values = masked[s], psi_f[:, s]
    mean = np.where(masked, np.nan, values.mean(axis=0))
    se = np.where(masked, np.nan, np.sqrt(values.var(axis=0, ddof=1) / values.shape[0]))
    return mean, se, masked


# ---------------------------------------------------------------------------
# Conserved quantity (label-space quadrature of the martingale weight)
# ---------------------------------------------------------------------------


def _support_mask(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return np.abs(values) > _SUPPORT_REL_TOL * (1.0 + peak)


def _check_phi_reach(phi, x_t: np.ndarray, support: np.ndarray) -> None:
    """If phi interpolates a stored grid, trajectories must stay well inside it.

    ``x_t`` holds (R, L, n) positions; only the labels in ``support`` are checked.
    """
    axes = getattr(phi, "axes", None)
    if axes is None or not support.any():
        return
    x_support = x_t[:, support, :].reshape(-1, x_t.shape[2])
    for k, ax in enumerate(axes):
        h = float(ax[1] - ax[0])
        lo, hi = float(ax[0]) + 2 * h, float(ax[-1]) - 2 * h
        xk = x_support[:, k]
        if np.any(xk < lo) or np.any(xk > hi):
            raise SupportEscape(
                "support trajectories reached within 2 cells of the stored weighting "
                f"grid boundary along axis {k + 1}"
            )


def _alive_rows(result: BatchResult):
    """Index of the alive realizations: a slice, so views, when all of them are."""
    return slice(None) if result.alive.all() else result.alive


def martingale_values(result: BatchResult, phi, t: float) -> np.ndarray:
    """phi(X,t) * D_direct * exp(log-weight) for all alive realizations: (R, L)."""
    rows = _alive_rows(result)
    s = result.time_slot(t)
    x_t = result.X[s][rows]
    phi_vals = phi(x_t.reshape(-1, result.n), float(result.times[s])).reshape(x_t.shape[:2])
    return phi_vals * result.D_direct[s][rows] * np.exp(result.log_I[s][rows])


def conserved_quantity_batch(
    result: BatchResult, phi, rho0: FieldExpr, h0: FieldExpr, t: float
) -> np.ndarray:
    """Per-realization conserved-quantity samples of the alive realizations: (R,).

    The label quadrature of ``martingale_values`` times rho0 * h0, which must vanish
    near the label-box edge (``validate_compact_support``; rho0 itself may be a
    strictly positive plateau).
    """
    labels = result.labels
    dens = eval_points(rho0, labels) * eval_points(h0, labels)
    x_t = result.X[result.time_slot(t)][_alive_rows(result)]
    _check_phi_reach(phi, x_t, _support_mask(dens))
    w = trapezoid_weights(result.label_axes)
    return (martingale_values(result, phi, t) * (w * dens)).sum(axis=1)


# ---------------------------------------------------------------------------
# Jensen inequality on the empirical measure
# ---------------------------------------------------------------------------


def jensen_check(psi_rho, psi_f, H: ConvexH, slack: float = 1e-12) -> JensenResult:
    """Finite-sample convexity inequality for the normalized weight pair.

    With g = psi_rho / mean(psi_rho) and v = psi_f / mean(psi_rho), convexity gives
    H(mean(v)) <= mean(g * H(v / g)) exactly (a finite convex combination), so the
    verdict must hold up to floating-point slack for every positive sample set.

    The inputs are stacks of sets, shape (num_sets, num_samples), with the samples
    along the last axis; every field of the result has shape (num_sets,).  One set is
    a one-row stack.
    """
    rho = np.asarray(psi_rho, dtype=float)
    f = np.asarray(psi_f, dtype=float)
    if rho.ndim != 2 or rho.shape != f.shape or rho.shape[1] == 0:
        raise ValueError("psi_rho and psi_f must be equal nonempty (num_sets, num_samples) stacks")
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)) or not np.all(np.isfinite(f)):
        raise NonPositiveDensity("density weights must be finite and strictly positive")
    mean_rho = rho.mean(axis=-1, keepdims=True)
    if np.any(mean_rho <= 0):
        raise NonPositiveDensity("mean density weight must be positive")
    g = rho / mean_rho
    v = f / mean_rho
    lhs = np.asarray(H(v.mean(axis=-1)), dtype=float)
    rhs = np.mean(g * np.asarray(H(v / g), dtype=float), axis=-1)
    tol = slack * np.maximum(1.0, np.abs(rhs))
    holds = lhs <= rhs + tol
    return JensenResult(lhs=lhs, rhs=rhs, slack=tol, holds=holds)


# ---------------------------------------------------------------------------
# Entropy decay of the estimated fields, with bootstrap bands
# ---------------------------------------------------------------------------


def _quadrature_entropy(mean_f, mean_rho, phi_vals, weights, usable, H: ConvexH) -> np.ndarray:
    """Entropy quadrature of every row of (S, Q) estimated fields, each summed alone."""
    # Points with zero estimated density contribute zero (compactly supported data
    # transported outside its support); positivity where the integrand matters is
    # enforced by the caller.
    pos = usable & (mean_rho > 0)
    vals = np.zeros_like(mean_f)
    vals[pos] = mean_rho[pos] * np.asarray(H(mean_f[pos] / mean_rho[pos]), dtype=float) * phi_vals[pos]
    return np.array([np.sum(row[keep]) for row, keep in zip(weights * vals, pos)])


def entropy_decay_check(
    samples: PsiSamples,
    weights: np.ndarray,
    phi,
    hs: Sequence[ConvexH],
    seed: int = 0,
) -> list[EntropyReport]:
    """Monotonicity verdicts for the entropy series of the estimated fields, one per H.

    The series is the quadrature, with the (Q,) ``weights`` of the query points,
    of the per-point sample means at every time of ``samples``, over the points
    that ``PsiSamples.resolved`` keeps.  Each increment gets a bootstrap confidence
    band (200 draws over realizations); the verdict fails where an increment's 95%
    band lies above zero, and where the series is not finite.  Every H reads the
    same draws, and each draw's means are computed once for all of them.

    For each H in the given order, the signal check and then the mean series run
    before any bootstrap draw; the first of these that fails raises.  The signal
    check raises SignalTooNoisy when the estimated density does not dominate its
    own standard error (mean <= 4*SE) at quadrature points that matter, and
    NonPositiveDensity when it is not positive there.
    """
    masked, safe_f, safe_rho = samples.resolved("psi_f", "psi_rho")  # (S, Q), (R, S, Q)
    r_count = samples.num_realizations
    ts = samples.times
    s_count = ts.size
    mean_f = safe_f.mean(axis=0)
    mean_rho = safe_rho.mean(axis=0)
    se_rho = safe_rho.std(axis=0, ddof=1) / np.sqrt(r_count)

    phi_grid = np.stack([phi(samples.points, float(t)) for t in ts], axis=0)
    usable = ~masked

    values = []
    for H in hs:
        # Signal check where the integrand can contribute: either transported data
        # is present, or H(0) != 0 makes the bare density term contribute.
        try:
            h_at_zero = abs(float(H(0.0)))
        except ValueError:
            h_at_zero = 0.0
        proxy = np.abs(mean_f) + h_at_zero * np.abs(mean_rho)
        # A non-finite proxy value must not hide every other point from the check.
        peak = float(np.max(proxy, where=np.isfinite(proxy), initial=0.0))
        matters = usable & (proxy > 1e-6 * peak)
        weak = matters & (mean_rho <= 4.0 * se_rho)
        if np.any(weak):
            raise SignalTooNoisy(
                f"estimated density fails mean > 4*SE at {int(weak.sum())} quadrature points"
            )
        if np.any(mean_rho[matters] <= 0):
            raise NonPositiveDensity("estimated density is not positive where the integrand matters")
        values.append(_quadrature_entropy(mean_f, mean_rho, phi_grid, weights, usable, H))

    rng = auxiliary_rng(seed, "entropy-decay-bootstrap")
    boot_vals = np.empty((len(hs), _BOOTSTRAP_RESAMPLES, s_count))
    drawn = np.empty(safe_f.shape)  # one draw's resampled rows, reused
    for b in range(_BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, r_count, size=r_count)
        bf = np.take(safe_f, pick, axis=0, out=drawn, mode="clip").mean(axis=0)
        brho = np.take(safe_rho, pick, axis=0, out=drawn, mode="clip").mean(axis=0)
        brho_floor = np.where(usable & (brho > 0), brho, 1.0)
        ok_b = usable & (brho > 0)
        for i, H in enumerate(hs):
            boot_vals[i, b] = _quadrature_entropy(bf, brho_floor, phi_grid, weights, ok_b, H)

    alpha = 1.0 - _BAND_LEVEL
    reports = []
    for H, vals, boot in zip(hs, values, boot_vals):
        increments = np.diff(vals)
        boot_inc = np.diff(boot, axis=1)  # (B, S-1)
        # inf - inf in a non-finite series is NaN; such a series fails its verdict.
        with np.errstate(invalid="ignore"):
            lo_inc = np.percentile(boot_inc, 100 * (alpha / 2), axis=0)
            lower = np.percentile(boot, 100 * (alpha / 2), axis=0)
            upper = np.percentile(boot, 100 * (1 - alpha / 2), axis=0)
        violations = int(np.sum(lo_inc > 0))
        reports.append(EntropyReport(
            times=ts,
            values=vals,
            increments=increments,
            verdict_nonincreasing=violations == 0 and bool(np.all(np.isfinite(vals))),
            num_violations=violations,
            max_increment=float(increments.max()) if increments.size else 0.0,
            lower=lower,
            upper=upper,
        ))
    return reports
