"""Back-to-labels inversion of a simulated flow chart.

A realization's stored positions over the label grid define a multilinear interpolant
``a -> X~(a)``.  Because the exact flow map is a diffeomorphism with positive Jacobian
determinant, the interpolant is invertible wherever the grid resolves the deformation;
cells whose interpolant Jacobian determinant falls below a threshold are marked
degenerate and excluded.  Inversion is geometric:

- dimension 1: bracket the query between stored positions and solve the linear
  interpolant within the cell exactly (one Newton step, zero residual);
- dimensions 2-3: damped Newton on the interpolant, seeded from the label whose stored
  image is nearest to the query, iterates projected into the label box.

Charts come from a batch run (``chart_from_batch``: one realization slot at one stored
time).  Every query function takes many points and never raises for a single one: a
point that cannot be inverted comes back as NaN with a status code, OUT_OF_CHART or
NO_CONVERGENCE.  On the recovered labels the module evaluates transported initial data
(``passive_scalar_batch``, a scalar that is constant along paths) and the exponentially
weighted variant (``feynman_kac_psi_batch``), interpolating the stored log-weight (in
log space, for positivity) at the recovered label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .engine import BatchResult
from .errors import DimensionMismatch
from .fields import FieldExpr, eval_batch
from .grids import Box, multilinear_interp, multilinear_interp_with_grad

__all__ = [
    "FlowChart",
    "chart_from_batch",
    "invert_batch",
    "passive_scalar_batch",
    "feynman_kac_psi_batch",
    "roundtrip_error",
    "STATUS_OK",
    "STATUS_OUT_OF_CHART",
    "STATUS_NO_CONVERGENCE",
    "DEGENERATE_DET_THRESHOLD",
    "MAX_DEFORMATION_RATIO",
]

STATUS_OK = 0
STATUS_OUT_OF_CHART = 1
STATUS_NO_CONVERGENCE = 2

DEGENERATE_DET_THRESHOLD = 1e-10
MAX_DEFORMATION_RATIO = 50.0
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_HALVINGS = 8


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FlowChart:
    """Frozen snapshot of one realization's label-to-position map at one time.

    ``X`` has shape ``label_shape + (n,)``, ``J`` shape ``label_shape + (n, n)``,
    ``log_I`` shape ``label_shape``.  ``degenerate_cells`` marks grid cells whose
    interpolant Jacobian determinant is <= the threshold at some cell corner; queries
    resolving into them are rejected.  Immutable after construction; all queries are
    pure and reentrant.
    """

    t: float
    label_axes: tuple
    X: np.ndarray
    J: np.ndarray
    log_I: np.ndarray
    box: Box
    degenerate_cells: np.ndarray
    image_lo: np.ndarray
    image_hi: np.ndarray
    max_deformation: float
    under_resolved: bool

    @property
    def n(self) -> int:
        return len(self.label_axes)

    @property
    def label_shape(self) -> tuple:
        return tuple(ax.size for ax in self.label_axes)


def _cell_corner_dets(label_axes, X) -> np.ndarray:
    """Interpolant Jacobian determinant at every parameter corner of every cell.

    Returns an array of shape ``cell_shape + (2**n,)`` where ``cell_shape`` is the grid
    shape minus one per axis.  The Jacobian column along axis k at a corner is the
    scaled edge difference of the cell along that axis, at the corner's transverse
    position.
    """
    n = len(label_axes)
    shape = tuple(ax.size for ax in label_axes)
    cell_shape = tuple(s - 1 for s in shape)

    # Edge difference arrays: E[k] has the k-th axis shortened by one and holds
    # (X[.., i+1, ..] - X[.., i, ..]) / (axis[i+1] - axis[i]) along that axis.
    edges = []
    for k in range(n):
        sl_hi = [slice(None)] * n
        sl_lo = [slice(None)] * n
        sl_hi[k] = slice(1, None)
        sl_lo[k] = slice(None, -1)
        diff = X[tuple(sl_hi)] - X[tuple(sl_lo)]
        h = np.diff(label_axes[k])
        h_shape = [1] * n
        h_shape[k] = h.size
        edges.append(diff / h.reshape(h_shape + [1]))

    dets = np.empty(cell_shape + (1 << n,))
    for c, offsets in enumerate(product((0, 1), repeat=n)):
        cols = []
        for k in range(n):
            sl = []
            for j in range(n):
                size_j = cell_shape[j]
                if j == k:
                    sl.append(slice(0, size_j))
                else:
                    sl.append(slice(offsets[j], offsets[j] + size_j))
            cols.append(edges[k][tuple(sl)])
        jac = np.stack(cols, axis=-1)  # cell_shape + (n, n): columns are edge vectors
        if n == 1:
            dets[..., c] = jac[..., 0, 0]
        elif n == 2:
            dets[..., c] = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        else:
            dets[..., c] = np.linalg.det(jac)
    return dets


def _build_chart(label_axes, X, J, log_I, t: float) -> FlowChart:
    n = len(label_axes)
    box = Box(tuple(float(ax[0]) for ax in label_axes), tuple(float(ax[-1]) for ax in label_axes))
    dets = _cell_corner_dets(label_axes, X)
    degenerate = np.min(dets, axis=-1) <= DEGENERATE_DET_THRESHOLD

    sv = np.linalg.svd(J.reshape(-1, n, n), compute_uv=False)
    smin = sv[:, -1]
    with np.errstate(divide="ignore"):
        ratios = np.where(smin > 0, sv[:, 0] / np.where(smin > 0, smin, 1.0), np.inf)
    max_def = float(np.max(ratios)) if ratios.size else 1.0
    under = bool(max_def > MAX_DEFORMATION_RATIO)
    if under:
        warnings.warn(
            f"chart at t={t:.6g} is under-resolved: max deformation ratio "
            f"{max_def:.3g} exceeds {MAX_DEFORMATION_RATIO:g}",
            stacklevel=3,
        )
    flatX = X.reshape(-1, n)
    return FlowChart(
        t=float(t),
        label_axes=tuple(label_axes),
        X=X,
        J=J,
        log_I=log_I,
        box=box,
        degenerate_cells=degenerate,
        image_lo=flatX.min(axis=0),
        image_hi=flatX.max(axis=0),
        max_deformation=max_def,
        under_resolved=under,
    )


def chart_from_batch(result: BatchResult, t: float, realization_slot: int) -> FlowChart:
    """Chart of one realization (by positional slot) of a batch at a stored time."""
    s = result.time_slot(t)
    r = int(realization_slot)
    shape = result.label_shape
    n = result.n
    return _build_chart(
        result.label_axes,
        result.X[s, r].reshape(shape + (n,)),
        result.J[s, r].reshape(shape + (n, n)),
        result.log_I[s, r].reshape(shape),
        float(result.times[s]),
    )


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _invert_batch_1d(chart: FlowChart, x: np.ndarray):
    ax = chart.label_axes[0]
    xg = chart.X[:, 0]
    q = x.shape[0]
    labels = np.full(q, np.nan)
    status = np.full(q, STATUS_OUT_OF_CHART, dtype=np.int8)
    nondeg = ~chart.degenerate_cells

    increasing = bool(np.all(np.diff(xg) > 0))
    if increasing:
        tol = 1e-12 * max(1.0, float(max(abs(xg[0]), abs(xg[-1]))))
        inside = (x >= xg[0] - tol) & (x <= xg[-1] + tol)
        j = np.clip(np.searchsorted(xg, x, side="right") - 1, 0, xg.size - 2)
        ok = inside & nondeg[j]
        stuck = inside & ~nondeg[j]
        s = (x[ok] - xg[j[ok]]) / (xg[j[ok] + 1] - xg[j[ok]])
        labels[ok] = ax[j[ok]] + np.clip(s, 0.0, 1.0) * (ax[j[ok] + 1] - ax[j[ok]])
        status[ok] = STATUS_OK
        status[stuck] = STATUS_NO_CONVERGENCE
        return labels[:, None], status

    # Folded chart: scan cells for a bracket (first non-degenerate bracketing cell).
    lo = np.minimum(xg[:-1], xg[1:])
    hi = np.maximum(xg[:-1], xg[1:])
    cand = (x[:, None] >= lo[None, :]) & (x[:, None] <= hi[None, :]) & nondeg[None, :]
    has = cand.any(axis=1)
    first = np.argmax(cand, axis=1)
    j = first[has]
    xx = x[has]
    s = (xx - xg[j]) / (xg[j + 1] - xg[j])
    labels[has] = ax[j] + np.clip(s, 0.0, 1.0) * (ax[j + 1] - ax[j])
    status[has] = STATUS_OK
    return labels[:, None], status


def _solve_newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Per-row solve of jac @ step = rhs; rows with near-singular jac marked False."""
    n = jac.shape[-1]
    if n == 2:
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        good = np.abs(det) > 1e-14
        step = np.zeros_like(rhs)
        d = np.where(good, det, 1.0)
        step[:, 0] = (jac[:, 1, 1] * rhs[:, 0] - jac[:, 0, 1] * rhs[:, 1]) / d
        step[:, 1] = (-jac[:, 1, 0] * rhs[:, 0] + jac[:, 0, 0] * rhs[:, 1]) / d
        return step, good
    det = np.linalg.det(jac)
    good = np.abs(det) > 1e-14
    step = np.zeros_like(rhs)
    if good.any():
        step[good] = np.linalg.solve(jac[good], rhs[good])
    return step, good


def _invert_batch_nd(chart: FlowChart, x: np.ndarray):
    n = chart.n
    axes = chart.label_axes
    q = x.shape[0]
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    scale = 1e-8 * (1.0 + np.max(np.abs(x), axis=1))  # per-query residual tolerance

    status = np.full(q, STATUS_NO_CONVERGENCE, dtype=np.int8)
    margin = 1e-9 * (1.0 + np.abs(x))
    in_bbox = np.all((x >= chart.image_lo - margin) & (x <= chart.image_hi + margin), axis=1)
    status[~in_bbox] = STATUS_OUT_OF_CHART

    # Seed from the label whose stored image is nearest to the query.
    flat_labels = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    flat_X = chart.X.reshape(-1, n)
    a = np.empty((q, n))
    active = in_bbox.copy()
    if active.any():
        d2 = ((x[active, None, :] - flat_X[None, :, :]) ** 2).sum(axis=2)
        a[active] = flat_labels[np.argmin(d2, axis=1)]
    a[~active] = np.nan

    resid = np.full(q, np.inf)
    for _ in range(_NEWTON_MAX_ITER):
        if not active.any():
            break
        ai = a[active]
        vals, grads, _ = multilinear_interp_with_grad(axes, chart.X, ai)
        f = vals - x[active]
        r = np.max(np.abs(f), axis=1)
        resid[active] = r
        conv = r <= scale[active]
        if conv.any():
            idx_active = np.nonzero(active)[0]
            status[idx_active[conv]] = STATUS_OK
            active[idx_active[conv]] = False
            keep = ~conv
            if not keep.any():
                break
            ai, f, r = ai[keep], f[keep], r[keep]
            grads = grads[keep]

        step, good = _solve_newton_steps(grads, -f)
        idx_active = np.nonzero(active)[0]
        if not good.all():
            # Singular interpolant Jacobian: cannot proceed for these queries.
            status[idx_active[~good]] = STATUS_NO_CONVERGENCE
            active[idx_active[~good]] = False
            ai, f, r, step = ai[good], f[good], r[good], step[good]
            idx_active = idx_active[good]
            if ai.shape[0] == 0:
                continue

        # Damped update: halve until the residual decreases (projected into the box).
        cur = ai.copy()
        cur_r = r.copy()
        pending = np.ones(ai.shape[0], dtype=bool)
        trial_step = step.copy()
        for _h in range(_NEWTON_MAX_HALVINGS):
            if not pending.any():
                break
            cand = np.clip(ai[pending] + trial_step[pending], lo, hi)
            vals_c = multilinear_interp(axes, chart.X, cand, out_of_range="clamp")
            r_c = np.max(np.abs(vals_c - x[idx_active[pending]]), axis=1)
            better = r_c < cur_r[pending]
            pend_idx = np.nonzero(pending)[0]
            accept = pend_idx[better]
            cur[accept] = cand[better]
            cur_r[accept] = r_c[better]
            pending[accept] = False
            trial_step[pend_idx[~better]] *= 0.5
        # Queries that could not reduce the residual at all take the smallest step
        # anyway; repeated full-stall iterations end as NO_CONVERGENCE below.
        still = np.nonzero(pending)[0]
        if still.size:
            cand = np.clip(ai[still] + trial_step[still], lo, hi)
            cur[still] = cand
        a[idx_active] = cur

    # Classify unresolved queries: pressed against the label-box boundary means the
    # query is outside the chart image; stalled in the interior means under-resolution.
    unresolved = status == STATUS_NO_CONVERGENCE
    if unresolved.any():
        au = a[unresolved]
        edge = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        on_edge = np.any((au <= lo + edge) | (au >= hi - edge), axis=1)
        idx_un = np.nonzero(unresolved)[0]
        status[idx_un[on_edge]] = STATUS_OUT_OF_CHART

    # Reject labels that resolve into degenerate cells.
    okm = status == STATUS_OK
    if okm.any() and chart.degenerate_cells.any():
        cells = np.empty((int(okm.sum()), n), dtype=np.int64)
        for k, ax in enumerate(axes):
            cells[:, k] = np.clip(
                np.searchsorted(ax, a[okm, k], side="right") - 1, 0, ax.size - 2
            )
        bad = chart.degenerate_cells[tuple(cells[:, k] for k in range(n))]
        idx_ok = np.nonzero(okm)[0]
        status[idx_ok[bad]] = STATUS_NO_CONVERGENCE

    a[status != STATUS_OK] = np.nan
    return a, status


def invert_batch(chart: FlowChart, points) -> tuple[np.ndarray, np.ndarray]:
    """Recover labels for many query positions.

    Returns ``(labels, status)`` with labels shape (Q, n); failed rows are NaN with
    status OUT_OF_CHART (query outside the chart image) or NO_CONVERGENCE
    (under-resolved chart).  Never raises for individual points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if chart.n == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != chart.n:
        raise DimensionMismatch(f"query points must have shape (Q, {chart.n})")
    if chart.n == 1:
        return _invert_batch_1d(chart, pts[:, 0])
    return _invert_batch_nd(chart, pts)


def roundtrip_error(chart: FlowChart, interior_only: bool = True) -> dict:
    """Forward-then-inverse defect over grid labels: max |A(X(a)) - a|.

    Boundary labels can legitimately fail to re-invert (their image may be covered
    only by cells outside the grid), so by default only interior labels count.
    """
    shape = chart.label_shape
    n = chart.n
    labels = np.stack(np.meshgrid(*chart.label_axes, indexing="ij"), axis=-1).reshape(-1, n)
    mask = np.ones(labels.shape[0], dtype=bool)
    if interior_only and all(s > 2 for s in shape):
        grid_mask = np.zeros(shape, dtype=bool)
        grid_mask[(slice(1, -1),) * n] = True
        mask = grid_mask.reshape(-1)
    pts = chart.X.reshape(-1, n)[mask]
    rec, status = invert_batch(chart, pts)
    ok = status == STATUS_OK
    err = np.max(np.abs(rec[ok] - labels[mask][ok])) if ok.any() else np.inf
    return {
        "max_abs_error": float(err),
        "resolved_fraction": float(ok.mean()) if ok.size else 0.0,
        "num_queries": int(ok.size),
    }


# ---------------------------------------------------------------------------
# Transported fields
# ---------------------------------------------------------------------------


def _eval_initial(f0: FieldExpr, labels: np.ndarray) -> np.ndarray:
    comps = tuple(labels[:, k] for k in range(labels.shape[1]))
    vals = eval_batch(f0, comps, 0.0)
    return np.broadcast_to(np.asarray(vals, dtype=float), (labels.shape[0],)).copy()


def passive_scalar_batch(chart: FlowChart, f0: FieldExpr, points):
    """Transported initial data at many positions: f0 at the recovered label.

    Returns ``(values, status)``; failed rows are NaN.
    """
    labels, status = invert_batch(chart, points)
    ok = status == STATUS_OK
    vals = np.full(labels.shape[0], np.nan)
    if ok.any():
        vals[ok] = _eval_initial(f0, labels[ok])
    return vals, status


def feynman_kac_psi_batch(chart: FlowChart, f0: FieldExpr, points):
    """Exponentially weighted transported data at many positions.

    Value = f0(label) * exp(interpolated log-weight at the label); the stored
    log-weight grid is interpolated in log space.  Returns ``(values, status)``.
    """
    labels, status = invert_batch(chart, points)
    ok = status == STATUS_OK
    vals = np.full(labels.shape[0], np.nan)
    if ok.any():
        base = _eval_initial(f0, labels[ok])
        logw = multilinear_interp(chart.label_axes, chart.log_I, labels[ok], out_of_range="clamp")
        vals[ok] = base * np.exp(logw)
    return vals, status

