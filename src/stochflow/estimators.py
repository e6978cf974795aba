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
  * ``fields_from_samples``: per-point sample means and errors.
  * ``martingale_values``: the martingale weight phi(X,t) * D * exp(log-weight) per
    realization and label.
  * ``conserved_quantity_batch``: per-realization label-space quadrature of the
    tracked integral of motion M * rho0 * h0.
  * ``entropy_martingale_series``: per (realization, time), the spatial quadrature of
    psi_rho * H(psi_f / psi_rho) * phi over the recorded points, whose mean is
    constant in time; an integrand that reaches the grid edge is rejected.
  * ``jensen_check``: the finite-sample convexity inequality, exact up to roundoff.
  * ``entropy_decay_check``: bootstrap-banded monotonicity verdict for the entropy
    time series of the estimated fields (the grid-solver counterpart is
    ``oracle.entropy_series``).
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
from .fields import FieldExpr, eval_batch
from .grids import mesh_points, trapezoid_weights
from .inverse import STATUS_OK
# Unused here; kept importable because the benchmark's span tracer patches
# estimators.invert_batch.
from .inverse import invert_batch  # noqa: F401
from .oracle import EntropyReport
# Unused here; kept importable because the benchmark's span tracer patches
# estimators.entropy_series.
from .oracle import entropy_series  # noqa: F401

__all__ = [
    "McField",
    "PsiSamples",
    "JensenResult",
    "MIN_REALIZATIONS",
    "constant_phi",
    "exponential_phi",
    "validate_compact_support",
    "collect_psi_samples",
    "join_psi_samples",
    "fields_from_samples",
    "martingale_values",
    "conserved_quantity_batch",
    "entropy_martingale_series",
    "jensen_check",
    "entropy_decay_check",
    "z_score",
]

MIN_REALIZATIONS = 100
SUPPORT_MARGIN_CELLS = 4
_SUPPORT_REL_TOL = 1e-10
# An entropy-martingale integrand above this fraction of its peak within two cells of
# the quadrature-grid edge means mass has left the grid.
_ENTROPY_EDGE_TOL = 1e-8
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


def constant_phi(value: float = 1.0) -> Callable:
    """phi(x, t) = value — the admissible weight when V = 0."""

    def phi(points, t):
        pts = np.asarray(points, dtype=float)
        if pts.ndim <= 1:
            return float(value)
        return np.full(pts.shape[0], float(value))

    return phi


def exponential_phi(c: float, T: float) -> Callable:
    """phi(x, t) = exp(c * (T - t)) — the admissible weight when V = c (constant)."""

    def phi(points, t):
        pts = np.asarray(points, dtype=float)
        val = float(np.exp(c * (T - float(t))))
        if pts.ndim <= 1:
            return val
        return np.full(pts.shape[0], val)

    return phi


def _phi_values(phi, pts: np.ndarray, t: float) -> np.ndarray:
    """Evaluate a weight callable at (Q, n) points; a scalar result is broadcast."""
    return np.broadcast_to(np.asarray(phi(pts, t), dtype=float), (pts.shape[0],))


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


def _eval_at_points(expr: FieldExpr, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
    vals = eval_batch(expr, tuple(pts.T), t)
    return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],)).copy()


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
    vals = np.abs(_eval_at_points(expr, pts)).reshape(shape)
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
class McField:
    """Per-point sample mean and spread of a Monte Carlo field estimate."""

    points: np.ndarray  # (Q, n)
    t: float
    mean: np.ndarray  # (Q,)
    variance: np.ndarray  # (Q,) sample variance, ddof = 1
    count: int  # realizations averaged
    masked: np.ndarray  # (Q,) bool — points excluded (some realization unresolved)

    def __post_init__(self):
        usable = ~self.masked
        if np.any(self.variance[usable] < 0):
            raise ValueError("sample variance must be nonnegative")

    @property
    def se(self) -> np.ndarray:
        out = np.sqrt(self.variance / self.count)
        out[self.masked] = np.nan
        return out

    @property
    def num_masked(self) -> int:
        return int(self.masked.sum())


@dataclass(eq=False)
class PsiSamples:
    """Per-realization weighted transported data at query points and output times.

    ``psi_f[r, s, q]`` / ``psi_rho[r, s, q]`` hold f0/rho0 transported along
    realization r to time ``times[s]`` at point ``points[q]``, weighted by the
    accumulated exponential factor; ``status[r, s, q]`` is the inversion status
    (0 = resolved).  Realizations that left the padded domain or went non-finite are
    dropped before this container is built; ``num_discarded`` counts them.
    """

    label_axes: tuple
    points: np.ndarray  # (Q, n)
    times: np.ndarray  # (S,)
    realization_indices: np.ndarray  # (R,)
    psi_f: np.ndarray  # (R, S, Q)
    psi_rho: np.ndarray  # (R, S, Q)
    status: np.ndarray  # (R, S, Q) uint8
    num_discarded: int

    @property
    def num_realizations(self) -> int:
        return int(self.realization_indices.size)

    def time_slot(self, t: float) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise ValueError(f"time {t!r} not sampled; sampled times: {self.times.tolist()}")
        return int(hits[0])


@dataclass(frozen=True)
class JensenResult:
    """Outcome of the finite-sample convexity inequality (arrays for a stack of sets)."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray
    holds: bool | np.ndarray
    num_samples: int


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
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != simulated.n:
        raise DimensionMismatch(
            f"query points have dimension {pts.shape[1]}, expected {simulated.n}"
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
        label_axes=simulated.label_axes,
        points=pts,
        times=ts,
        realization_indices=simulated.realization_indices[r_alive],
        psi_f=pf,
        psi_rho=pr,
        status=st,
        num_discarded=simulated.num_realizations - r_alive.size,
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
        num_discarded=sum(p.num_discarded for p in parts),
    )


# ---------------------------------------------------------------------------
# Field estimates
# ---------------------------------------------------------------------------


def _mc_field_from_arrays(
    pts: np.ndarray, t: float, values: np.ndarray, status: np.ndarray
) -> McField:
    r = values.shape[0]
    masked = np.any(status != STATUS_OK, axis=0)
    safe = np.where(masked[None, :], 0.0, values)
    mean = np.where(masked, np.nan, safe.mean(axis=0))
    variance = np.where(masked, 0.0, safe.var(axis=0, ddof=1))
    return McField(points=pts, t=float(t), mean=mean, variance=variance, count=r, masked=masked)


def fields_from_samples(samples: PsiSamples, t: float) -> tuple[McField, McField]:
    """Per-point means/SEs of the recorded psi pairs at one sampled time."""
    r = samples.num_realizations
    if r < MIN_REALIZATIONS:
        raise InsufficientRealizations(
            f"{r} realizations available; at least {MIN_REALIZATIONS} required"
        )
    s = samples.time_slot(t)
    f_hat = _mc_field_from_arrays(samples.points, t, samples.psi_f[:, s, :], samples.status[:, s, :])
    rho_hat = _mc_field_from_arrays(samples.points, t, samples.psi_rho[:, s, :], samples.status[:, s, :])
    return f_hat, rho_hat


# ---------------------------------------------------------------------------
# Conserved quantity (label-space quadrature of the martingale weight)
# ---------------------------------------------------------------------------


def _support_mask(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return np.abs(values) > _SUPPORT_REL_TOL * (1.0 + peak)


def _check_phi_reach(phi, x_support: np.ndarray) -> None:
    """If phi interpolates a stored grid, trajectories must stay well inside it."""
    axes = getattr(phi, "axes", None)
    if axes is None:
        return
    for k, ax in enumerate(axes):
        h = float(ax[1] - ax[0])
        lo, hi = float(ax[0]) + 2 * h, float(ax[-1]) - 2 * h
        xk = x_support[:, k]
        if np.any(xk < lo) or np.any(xk > hi):
            raise SupportEscape(
                "support trajectories reached within 2 cells of the stored weighting "
                f"grid boundary along axis {k + 1}"
            )


def conserved_quantity_batch(
    result: BatchResult,
    phi,
    rho0: FieldExpr,
    h0: FieldExpr,
    t: float,
    validate_support: bool = True,
    rows=None,
) -> np.ndarray:
    """Per-realization conserved-quantity samples from a batch run.

    ``rows``: the realization slots to use (default: all of them); every one must be
    alive, or ``SupportEscape`` is raised.
    """
    axes = result.label_axes
    if validate_support:
        # The quadrature only needs the *integrand density* rho0*h0 to vanish near the
        # label-box edge; rho0 itself may be a strictly positive plateau.
        validate_compact_support(h0, axes, "h0")
        validate_compact_support(rho0 * h0, axes, "rho0*h0")
    rows = slice(None) if rows is None else rows
    alive = result.alive[rows]
    if not np.all(alive):
        raise SupportEscape(
            f"{int((~alive).sum())} of {alive.size} realizations left the padded domain"
        )
    w = trapezoid_weights(axes)
    labels = result.labels
    dens = _eval_at_points(rho0, labels) * _eval_at_points(h0, labels)
    support = _support_mask(dens)
    s = result.time_slot(t)
    x_t = result.X[s][rows]  # (R, L, n)
    if support.any():
        _check_phi_reach(phi, x_t[:, support, :].reshape(-1, result.n))
    t_val = float(result.times[s])
    r_count, l_count = x_t.shape[0], x_t.shape[1]
    phi_vals = _phi_values(phi, x_t.reshape(-1, result.n), t_val).reshape(r_count, l_count)
    m = phi_vals * result.D_direct[s][rows] * np.exp(result.log_I[s][rows])
    return (m * (w * dens)[None, :]).sum(axis=1)


def martingale_values(result: BatchResult, phi, t: float) -> np.ndarray:
    """phi(X,t) * D_direct * exp(log-weight) for all alive realizations: (R, L)."""
    alive = result.alive
    s = result.time_slot(t)
    x_t = result.X[s][alive]
    r_count, l_count = x_t.shape[0], x_t.shape[1]
    phi_vals = _phi_values(phi, x_t.reshape(-1, result.n), float(result.times[s]))
    phi_vals = phi_vals.reshape(r_count, l_count)
    return phi_vals * result.D_direct[s][alive] * np.exp(result.log_I[s][alive])


def z_score(samples: np.ndarray, reference: float) -> float:
    """Standardized distance of the sample mean from a reference value."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples for a z-score")
    se = arr.std(ddof=1) / np.sqrt(arr.size)
    if se == 0.0:
        return 0.0 if abs(float(arr.mean()) - reference) == 0.0 else float("inf")
    return float((arr.mean() - reference) / se)


# ---------------------------------------------------------------------------
# Entropy martingale (x-space quadrature per realization)
# ---------------------------------------------------------------------------


def _entropy_integrand(psi_f, psi_rho, status, phi_vals, H: ConvexH) -> np.ndarray:
    """psi_rho * H(psi_f / psi_rho) * phi at resolved points, zero elsewhere."""
    ok = status == STATUS_OK
    if np.any(psi_rho[ok] <= 0):
        raise NonPositiveDensity("transported density weight must stay positive")
    ratio = np.zeros_like(psi_f)
    ratio[ok] = psi_f[ok] / psi_rho[ok]
    vals = np.zeros_like(psi_f)
    vals[ok] = psi_rho[ok] * np.asarray(H(ratio[ok]), dtype=float) * phi_vals[ok]
    return vals


def entropy_martingale_series(samples: PsiSamples, phi, H: ConvexH) -> np.ndarray:
    """Entropy-functional samples for every (realization, time): shape (R, S).

    Each sample is the quadrature of psi_rho * H(psi_f / psi_rho) * phi over the
    recorded query points, which must form the flattened mesh of a tensor grid in C
    order (as produced by ``mesh_points``).  The convex argument is f0/rho0 at the
    recovered label — the exponential weight cancels in the ratio, so the transported
    ratio is a passive scalar.  Unresolved points contribute zero (valid when the data
    are compactly supported); a sample whose integrand within two cells of the grid
    edge exceeds 1e-8 of its peak raises ``SupportEscape``.
    """
    axes = _axes_from_points(samples.points)
    w = trapezoid_weights(axes)
    ring = _boundary_ring_mask(tuple(ax.size for ax in axes), 2).reshape(-1)
    r_count, s_count, _ = samples.psi_f.shape
    out = np.empty((r_count, s_count))
    for s in range(s_count):
        phi_vals = _phi_values(phi, samples.points, float(samples.times[s]))
        for r in range(r_count):
            status = samples.status[r, s]
            vals = _entropy_integrand(
                samples.psi_f[r, s], samples.psi_rho[r, s], status, phi_vals, H
            )
            contrib = np.abs(vals)
            peak = float(contrib.max())
            if peak > 0 and float(contrib[ring].max()) > _ENTROPY_EDGE_TOL * peak:
                raise SupportEscape(
                    "entropy integrand is non-negligible within 2 cells of the quadrature "
                    "grid boundary — enlarge the grid or shorten the horizon"
                )
            ok = status == STATUS_OK
            out[r, s] = float(np.sum(w[ok] * vals[ok]))
    return out


def _axes_from_points(pts: np.ndarray) -> tuple:
    """Recover tensor-grid axes from flattened mesh points (C order)."""
    n = pts.shape[1]
    axes = []
    for k in range(n):
        ax = np.unique(pts[:, k])
        axes.append(ax)
    if int(np.prod([a.size for a in axes])) != pts.shape[0]:
        raise ValueError("query points do not form a tensor grid")
    rebuilt = mesh_points(tuple(axes))
    if not np.array_equal(rebuilt, pts):
        raise ValueError("query points are not in C (row-major) mesh order")
    return tuple(axes)


# ---------------------------------------------------------------------------
# Jensen inequality on the empirical measure
# ---------------------------------------------------------------------------


def jensen_check(psi_rho, psi_f, H: ConvexH, slack: float = 1e-12) -> JensenResult:
    """Finite-sample convexity inequality for the normalized weight pair.

    With g = psi_rho / mean(psi_rho) and v = psi_f / mean(psi_rho), convexity gives
    H(mean(v)) <= mean(g * H(v / g)) exactly (a finite convex combination), so the
    verdict must hold up to floating-point slack for every positive sample set.

    The samples lie along the last axis.  A 1D pair gives one result of scalars; a
    stack of sets, shape (num_sets, num_samples), gives arrays of shape (num_sets,).
    """
    rho = np.asarray(psi_rho, dtype=float)
    f = np.asarray(psi_f, dtype=float)
    if rho.ndim == 0 or rho.shape != f.shape or rho.shape[-1] == 0:
        raise ValueError("psi_rho and psi_f must be equal-length nonempty samples")
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
    if rho.ndim == 1:
        return JensenResult(lhs=float(lhs), rhs=float(rhs), slack=float(tol),
                            holds=bool(holds), num_samples=rho.size)
    return JensenResult(lhs=lhs, rhs=rhs, slack=tol, holds=holds, num_samples=rho.shape[-1])


# ---------------------------------------------------------------------------
# Entropy decay of the estimated fields, with bootstrap bands
# ---------------------------------------------------------------------------


def _quadrature_entropy(mean_f, mean_rho, phi_vals, weights, usable, H: ConvexH) -> float:
    # Points with zero estimated density contribute zero (compactly supported data
    # transported outside its support); positivity where the integrand matters is
    # enforced by the caller.
    pos = usable & (mean_rho > 0)
    vals = np.zeros_like(mean_f)
    vals[pos] = mean_rho[pos] * np.asarray(H(mean_f[pos] / mean_rho[pos]), dtype=float) * phi_vals[pos]
    return float(np.sum(weights[pos] * vals[pos]))


def entropy_decay_check(
    samples: PsiSamples,
    phi,
    H: ConvexH,
    times=None,
    seed: int = 0,
) -> EntropyReport:
    """Monotonicity verdict for the entropy series of the estimated fields.

    The series is built from per-point sample means, and each increment gets a
    bootstrap confidence band (200 draws over realizations); the verdict fails only
    where an increment's 95% band lies above zero.

    Raises SignalTooNoisy when the estimated density does not dominate its own
    standard error (mean <= 4*SE) at quadrature points that matter.
    """
    r_count = samples.num_realizations
    if r_count < MIN_REALIZATIONS:
        raise InsufficientRealizations(
            f"{r_count} realizations available; at least {MIN_REALIZATIONS} required"
        )
    if times is None:
        times = samples.times
    slots = [samples.time_slot(t) for t in times]
    ts = np.asarray([float(t) for t in times])

    axes = _axes_from_points(samples.points)
    weights = trapezoid_weights(axes)
    q = samples.points.shape[0]
    s_count = len(slots)

    psi_f = samples.psi_f[:, slots, :]
    psi_rho = samples.psi_rho[:, slots, :]
    status = samples.status[:, slots, :]
    masked = np.any(status != STATUS_OK, axis=0)  # (S, Q)

    safe_f = np.where(masked[None, :, :], 0.0, np.nan_to_num(psi_f, nan=0.0))
    safe_rho = np.where(masked[None, :, :], 0.0, np.nan_to_num(psi_rho, nan=0.0))
    mean_f = safe_f.mean(axis=0)
    mean_rho = safe_rho.mean(axis=0)
    se_rho = safe_rho.std(axis=0, ddof=1) / np.sqrt(r_count)

    phi_grid = np.stack([_phi_values(phi, samples.points, float(t)) for t in ts], axis=0)

    # Signal check where the integrand can contribute: either transported data is
    # present, or H(0) != 0 makes the bare density term contribute.
    try:
        h_at_zero = abs(float(H(0.0)))
    except ValueError:
        h_at_zero = 0.0
    proxy = np.abs(mean_f) + h_at_zero * np.abs(mean_rho)
    peak = float(proxy.max()) if proxy.size else 0.0
    matters = (~masked) & (proxy > 1e-6 * peak)
    weak = matters & (mean_rho <= 4.0 * se_rho)
    if np.any(weak):
        raise SignalTooNoisy(
            f"estimated density fails mean > 4*SE at {int(weak.sum())} quadrature points"
        )
    if np.any(mean_rho[matters] <= 0):
        raise NonPositiveDensity("estimated density is not positive where the integrand matters")

    usable = ~masked
    values = np.array(
        [
            _quadrature_entropy(mean_f[s], mean_rho[s], phi_grid[s], weights, usable[s], H)
            for s in range(s_count)
        ]
    )
    increments = np.diff(values)

    rng = auxiliary_rng(seed, "entropy-decay-bootstrap")
    boot_vals = np.empty((_BOOTSTRAP_RESAMPLES, s_count))
    for b in range(_BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, r_count, size=r_count)
        bf = safe_f[pick].mean(axis=0)
        brho = safe_rho[pick].mean(axis=0)
        brho_floor = np.where(usable & (brho > 0), brho, 1.0)
        ok_b = usable & (brho > 0)
        boot_vals[b] = [
            _quadrature_entropy(bf[s], brho_floor[s], phi_grid[s], weights, ok_b[s], H)
            for s in range(s_count)
        ]
    boot_inc = np.diff(boot_vals, axis=1)  # (B, S-1)
    alpha = 1.0 - _BAND_LEVEL
    lo_inc = np.percentile(boot_inc, 100 * (alpha / 2), axis=0)
    lower = np.percentile(boot_vals, 100 * (alpha / 2), axis=0)
    upper = np.percentile(boot_vals, 100 * (1 - alpha / 2), axis=0)
    inc_std = boot_inc.std(axis=0, ddof=1)
    z = np.divide(
        increments, inc_std, out=np.zeros_like(increments), where=inc_std > 0
    )
    violations = int(np.sum(lo_inc > 0))
    max_inc = float(increments.max()) if increments.size else 0.0
    return EntropyReport(
        times=ts,
        values=values,
        increments=increments,
        slack=0.0,
        verdict_nonincreasing=violations == 0,
        num_violations=violations,
        C_used=0.0,
        C_needed=float("nan"),
        scale=1.0,
        max_increment=max_inc,
        lower=lower,
        upper=upper,
        z_scores=z,
        description=(
            f"Monte Carlo entropy series with H={H.name}; verdict fails only on "
            f"increments whose bootstrap {_BAND_LEVEL:.0%} band lies above zero"
        ),
    )
