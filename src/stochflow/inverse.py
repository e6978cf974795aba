"""Back-to-labels inversion of simulated flow charts.

A realization's stored positions over the label grid define a multilinear interpolant
``a -> X~(a)``.  Because the exact flow map is a diffeomorphism with positive Jacobian
determinant, the interpolant is invertible wherever the grid resolves the deformation;
cells whose interpolant Jacobian determinant falls below a threshold are marked
degenerate and excluded.  Inversion is geometric:

- dimension 1: bracket the query between stored positions and solve the linear
  interpolant within the cell exactly (one Newton step, zero residual); the monotone
  rows of a stack are bracketed together by one vectorized binary search, folded rows
  by a scan of their cells;
- dimension 2: damped Newton on the interpolant, one chart at a time, seeded from
  the label whose stored image is nearest to the query (a distance table built axis by
  axis over blocks of queries), iterates projected into the label box.

The inversion works on a ``ChartStack``: the charts of many realizations at one stored
time, with a leading realization axis (``chart_from_batch``: given realization slots of
a batch; one chart is a one-row stack).  A stack holds the stored positions and
log-weights over the label grid and, per row, the degenerate cells and largest
deformation ratio, read off the interpolant's corner Jacobians for every row at once.
Every query function takes many points, shared by every row or one set per row, and
never raises for a single one: a point that cannot be inverted comes back as NaN with
a status code, OUT_OF_CHART or NO_CONVERGENCE.  On the recovered labels
``feynman_kac_psi_stack`` evaluates the exponentially weighted transported data of
several fields, interpolating the stored log-weight (in log space, for positivity) at
the recovered label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .engine import BatchResult
from .errors import DimensionMismatch
from .fields import FieldExpr, eval_points
from .grids import mesh_points, multilinear_interp, multilinear_interp_rows, multilinear_interp_with_grad

__all__ = [
    "ChartStack",
    "chart_from_batch",
    "invert_batch",
    "feynman_kac_psi_stack",
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
# Queries per block of the nearest-node seed search: bounds its (block, L) distance
# table whatever the number of queries.
_SEED_BLOCK_QUERIES = 256


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ChartStack:
    """Charts of many realizations at one stored time, with a leading realization axis.

    ``X`` has shape ``(R,) + label_shape + (n,)`` and ``log_I`` ``(R,) + label_shape``.
    Per row, ``degenerate_cells`` marks grid cells whose interpolant Jacobian
    determinant is <= the threshold at some cell corner (queries resolving into them
    are rejected), ``image_lo``/``image_hi`` bound the stored positions, and
    ``max_deformation`` is the largest singular-value ratio of those corner
    Jacobians; above ``MAX_DEFORMATION_RATIO`` the row is flagged ``under_resolved``
    (advisory).  Immutable after construction; all queries are pure and reentrant.
    """

    label_axes: tuple
    X: np.ndarray
    log_I: np.ndarray
    degenerate_cells: np.ndarray
    image_lo: np.ndarray
    image_hi: np.ndarray
    max_deformation: np.ndarray
    under_resolved: np.ndarray

    @property
    def n(self) -> int:
        return len(self.label_axes)

    @property
    def label_shape(self) -> tuple:
        return tuple(ax.size for ax in self.label_axes)

    @property
    def num_rows(self) -> int:
        return int(self.X.shape[0])


def _cell_corner_jacobians(label_axes, X) -> np.ndarray:
    """Interpolant Jacobian at every parameter corner of every cell of every chart.

    ``X`` has shape ``(R,) + label_shape + (n,)``.  Returns an array of shape
    ``(R,) + cell_shape + (2**n, n, n)`` where ``cell_shape`` is the grid shape minus
    one per axis.  The Jacobian column along axis k at a corner is the scaled edge
    difference of the cell along that axis, at the corner's transverse position.
    """
    n = len(label_axes)
    shape = tuple(ax.size for ax in label_axes)
    cell_shape = tuple(s - 1 for s in shape)
    every = slice(None)

    # Edge difference arrays: E[k] has the k-th grid axis shortened by one and holds
    # (X[.., i+1, ..] - X[.., i, ..]) / (axis[i+1] - axis[i]) along that axis.
    edges = []
    for k in range(n):
        sl_hi = [every] * (n + 1)
        sl_lo = [every] * (n + 1)
        sl_hi[k + 1] = slice(1, None)
        sl_lo[k + 1] = slice(None, -1)
        diff = X[tuple(sl_hi)] - X[tuple(sl_lo)]
        h = np.diff(label_axes[k])
        h_shape = [1] * (n + 2)
        h_shape[k + 1] = h.size
        edges.append(diff / h.reshape(h_shape))

    jacs = np.empty(X.shape[:1] + cell_shape + (1 << n, n, n))
    for c, offsets in enumerate(product((0, 1), repeat=n)):
        for k in range(n):
            sl = [every]
            for j in range(n):
                size_j = cell_shape[j]
                if j == k:
                    sl.append(slice(0, size_j))
                else:
                    sl.append(slice(offsets[j], offsets[j] + size_j))
            jacs[..., c, :, k] = edges[k][tuple(sl)]  # columns are edge vectors
    return jacs


def _det_and_deformation(jacs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of a stack of Jacobians, and the singular-value ratio of each.

    The ratio of a 1x1 Jacobian is 1 unless it vanishes; 2x2 ratios come from the
    closed-form singular values, with s_max^2 = (S + sqrt(S^2 - 4 det^2)) / 2 for the
    squared Frobenius norm S and s_min = |det| / s_max.
    """
    if jacs.shape[-1] == 1:
        dets = jacs[..., 0, 0]
        return dets, np.where(dets != 0.0, 1.0, np.inf)
    dets = jacs[..., 0, 0] * jacs[..., 1, 1] - jacs[..., 0, 1] * jacs[..., 1, 0]
    frob = np.sum(jacs * jacs, axis=(-2, -1))
    smax_sq = 0.5 * (frob + np.sqrt(np.maximum(frob * frob - 4.0 * dets * dets, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dets != 0.0, smax_sq / np.abs(dets), np.inf)
    return dets, ratios


def _build_stack(label_axes, X, log_I, t: float) -> ChartStack:
    """Chart metadata for every row of ``X`` at once; one warning per flagged row."""
    if label_axes is None:
        raise ValueError("a chart needs a label grid; this batch was simulated on a point set")
    rows = X.shape[0]
    n = len(label_axes)
    dets, ratios = _det_and_deformation(_cell_corner_jacobians(label_axes, X))
    degenerate = np.min(dets, axis=-1) <= DEGENERATE_DET_THRESHOLD
    ratios = ratios.reshape(rows, -1)
    max_def = ratios.max(axis=1) if ratios.shape[1] else np.ones(rows)
    under = max_def > MAX_DEFORMATION_RATIO
    for ratio in max_def[under]:
        warnings.warn(
            f"chart at t={t:.6g} is under-resolved: max deformation ratio "
            f"{ratio:.3g} exceeds {MAX_DEFORMATION_RATIO:g}",
            stacklevel=3,
        )
    flatX = X.reshape(rows, -1, n)
    return ChartStack(
        label_axes=tuple(label_axes),
        X=X,
        log_I=log_I,
        degenerate_cells=degenerate,
        image_lo=flatX.min(axis=1),
        image_hi=flatX.max(axis=1),
        max_deformation=max_def,
        under_resolved=under,
    )


def chart_from_batch(result: BatchResult, t: float, realization_slots) -> ChartStack:
    """Charts of the given realization slots of a batch at one stored time.

    Raises ValueError for a batch simulated on a point set: it has no label grid.
    """
    s = result.time_slot(t)
    slots = np.asarray(realization_slots, dtype=np.intp).reshape(-1)
    return _build_stack(
        result.label_axes,
        result.X[s, slots].reshape((slots.size,) + result.label_shape + (result.n,)),
        result.log_I[s, slots].reshape((slots.size,) + result.label_shape),
        float(result.times[s]),
    )


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _search_right(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(row, x_row, side="right")`` for every sorted row, in one pass.

    ``x`` holds shared queries (Q,) or one set per row (R, Q).  Binary lifting over
    (R, Q): a probe moves right unless the query is below it, so a NaN query lands
    past the end, as numpy sorts NaN last.
    """
    r, size = rows.shape
    flat = rows.reshape(-1)
    base = np.arange(r, dtype=np.intp)[:, None] * size
    pos = np.zeros((r, x.shape[-1]), dtype=np.intp)
    step = 1 << (size.bit_length() - 1)  # the largest power of two <= size
    while step:
        cand = pos + step
        probe = flat[base + np.minimum(cand, size) - 1]
        pos = np.where((cand <= size) & ~(x < probe), cand, pos)
        step >>= 1
    return pos


def _invert_rows_1d(stack: ChartStack, x: np.ndarray):
    """Labels (R, Q) and statuses (R, Q) of queries ``x``, (Q,) or (R, Q), on 1D charts."""
    ax = stack.label_axes[0]
    xg = stack.X[..., 0]
    rows, size = xg.shape
    x = np.broadcast_to(x, (rows, x.shape[-1]))
    q = x.shape[1]
    labels = np.full((rows, q), np.nan)
    status = np.full((rows, q), STATUS_OUT_OF_CHART, dtype=np.int8)
    nondeg = ~stack.degenerate_cells
    increasing = np.all(np.diff(xg, axis=1) > 0, axis=1)

    mono = np.nonzero(increasing)[0]
    if mono.size:
        g = xg[mono]
        xm = x[mono]
        tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(g[:, 0]), np.abs(g[:, -1])))
        inside = (xm >= (g[:, 0] - tol)[:, None]) & (xm <= (g[:, -1] + tol)[:, None])
        j = np.clip(_search_right(g, xm) - 1, 0, size - 2)
        cell_ok = np.take_along_axis(nondeg[mono], j, axis=1)
        r_ok, q_ok = np.nonzero(inside & cell_ok)
        j_ok = j[r_ok, q_ok]
        lo = g[r_ok, j_ok]
        s = (xm[r_ok, q_ok] - lo) / (g[r_ok, j_ok + 1] - lo)
        labels[mono[r_ok], q_ok] = ax[j_ok] + np.clip(s, 0.0, 1.0) * (ax[j_ok + 1] - ax[j_ok])
        status[mono[r_ok], q_ok] = STATUS_OK
        r_stuck, q_stuck = np.nonzero(inside & ~cell_ok)
        status[mono[r_stuck], q_stuck] = STATUS_NO_CONVERGENCE

    # Folded charts: scan cells for a bracket (first non-degenerate bracketing cell).
    for r in np.nonzero(~increasing)[0]:
        g = xg[r]
        xr = x[r]
        lo = np.minimum(g[:-1], g[1:])
        hi = np.maximum(g[:-1], g[1:])
        cand = (xr[:, None] >= lo[None, :]) & (xr[:, None] <= hi[None, :]) & nondeg[r][None, :]
        has = cand.any(axis=1)
        j = np.argmax(cand, axis=1)[has]
        s = (xr[has] - g[j]) / (g[j + 1] - g[j])
        labels[r, has] = ax[j] + np.clip(s, 0.0, 1.0) * (ax[j + 1] - ax[j])
        status[r, has] = STATUS_OK
    return labels, status


def _solve_newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Per-row solve of the 2x2 systems jac @ step = rhs; rows with near-singular jac
    marked False."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    good = np.abs(det) > 1e-14
    step = np.zeros_like(rhs)
    d = np.where(good, det, 1.0)
    step[:, 0] = (jac[:, 1, 1] * rhs[:, 0] - jac[:, 0, 1] * rhs[:, 1]) / d
    step[:, 1] = (-jac[:, 1, 0] * rhs[:, 0] + jac[:, 0, 0] * rhs[:, 1]) / d
    return step, good


def _nearest_node(flat_X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the stored node nearest to each query, the first one on a tie.

    The squared distance is summed axis by axis over blocks of queries, so the table
    is (block, L) rather than (Q, L, n); its bits are those of
    ``((x[:, None, :] - flat_X[None]) ** 2).sum(axis=2)``.  Every block writes into
    the same two (block, L) buffers.
    """
    cols = [np.ascontiguousarray(flat_X[:, k]) for k in range(flat_X.shape[1])]
    nearest = np.empty(x.shape[0], dtype=np.intp)
    d2_buf = np.empty((min(_SEED_BLOCK_QUERIES, x.shape[0]), flat_X.shape[0]))
    term_buf = np.empty_like(d2_buf)
    for b0 in range(0, x.shape[0], _SEED_BLOCK_QUERIES):
        xb = x[b0 : b0 + _SEED_BLOCK_QUERIES]
        d2, term = d2_buf[: xb.shape[0]], term_buf[: xb.shape[0]]
        np.square(np.subtract(xb[:, :1], cols[0], out=d2), out=d2)
        for k in range(1, len(cols)):
            d2 += np.square(np.subtract(xb[:, k : k + 1], cols[k], out=term), out=term)
        nearest[b0 : b0 + xb.shape[0]] = np.argmin(d2, axis=1)
    return nearest


def _invert_row_nd(stack: ChartStack, r: int, x: np.ndarray, flat_labels: np.ndarray):
    """Damped Newton for the queries ``x`` on row ``r`` of a 2D stack, whose label
    nodes are ``flat_labels`` (``grids.mesh_points`` of its axes)."""
    n = stack.n
    axes = stack.label_axes
    X = stack.X[r]
    q = x.shape[0]
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    scale = 1e-8 * (1.0 + np.max(np.abs(x), axis=1))  # per-query residual tolerance

    status = np.full(q, STATUS_NO_CONVERGENCE, dtype=np.int8)
    margin = 1e-9 * (1.0 + np.abs(x))
    in_bbox = np.all((x >= stack.image_lo[r] - margin) & (x <= stack.image_hi[r] + margin), axis=1)
    status[~in_bbox] = STATUS_OUT_OF_CHART

    # Seed from the label whose stored image is nearest to the query.
    a = np.empty((q, n))
    active = in_bbox.copy()
    if active.any():
        a[active] = flat_labels[_nearest_node(X.reshape(-1, n), x[active])]
    a[~active] = np.nan

    singular = np.zeros(q, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        if not active.any():
            break
        ai = a[active]
        vals, grads = multilinear_interp_with_grad(axes, X, ai)
        f = vals - x[active]
        res = np.max(np.abs(f), axis=1)
        conv = res <= scale[active]
        if conv.any():
            idx_active = np.nonzero(active)[0]
            status[idx_active[conv]] = STATUS_OK
            active[idx_active[conv]] = False
            keep = ~conv
            if not keep.any():
                break
            ai, f, res = ai[keep], f[keep], res[keep]
            grads = grads[keep]

        step, good = _solve_newton_steps(grads, -f)
        idx_active = np.nonzero(active)[0]
        if not good.all():
            # Singular interpolant Jacobian: these queries stop as NO_CONVERGENCE.
            singular[idx_active[~good]] = True
            active[idx_active[~good]] = False
            ai, f, res, step = ai[good], f[good], res[good], step[good]
            idx_active = idx_active[good]
            if ai.shape[0] == 0:
                continue

        # Damped update: halve until the residual decreases (projected into the box).
        cur = ai.copy()
        cur_r = res.copy()
        pending = np.ones(ai.shape[0], dtype=bool)
        trial_step = step.copy()
        for _h in range(_NEWTON_MAX_HALVINGS):
            if not pending.any():
                break
            cand = np.clip(ai[pending] + trial_step[pending], lo, hi)
            vals_c = multilinear_interp(axes, X, cand, out_of_range="clamp")
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

    # Classify stalled queries: pressed against the label-box boundary means the query
    # is outside the chart image; stalled in the interior means under-resolution.
    unresolved = (status == STATUS_NO_CONVERGENCE) & ~singular
    if unresolved.any():
        au = a[unresolved]
        edge = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        on_edge = np.any((au <= lo + edge) | (au >= hi - edge), axis=1)
        idx_un = np.nonzero(unresolved)[0]
        status[idx_un[on_edge]] = STATUS_OUT_OF_CHART

    # Reject labels that resolve into degenerate cells.
    degenerate = stack.degenerate_cells[r]
    okm = status == STATUS_OK
    if okm.any() and degenerate.any():
        cells = np.empty((int(okm.sum()), n), dtype=np.int64)
        for k, ax in enumerate(axes):
            cells[:, k] = np.clip(
                np.searchsorted(ax, a[okm, k], side="right") - 1, 0, ax.size - 2
            )
        bad = degenerate[tuple(cells[:, k] for k in range(n))]
        idx_ok = np.nonzero(okm)[0]
        status[idx_ok[bad]] = STATUS_NO_CONVERGENCE

    a[status != STATUS_OK] = np.nan
    return a, status


def _query_points(points, n: int, rows: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3) or pts.shape[-1] != n or (pts.ndim == 3 and pts.shape[0] != rows):
        raise DimensionMismatch(f"query points must have shape (Q, {n}) or ({rows}, Q, {n})")
    return pts


def invert_batch(stack: ChartStack, points) -> tuple[np.ndarray, np.ndarray]:
    """Recover labels for many query positions on every chart of a stack.

    ``points`` holds queries shared by every row, shape (Q, n), or one set per row,
    shape (R, Q, n).  Returns ``(labels, status)`` with labels shape (R, Q, n) and
    status (R, Q); failed entries are NaN with status OUT_OF_CHART (query outside the
    chart image) or NO_CONVERGENCE (under-resolved chart).  Never raises for
    individual points.  1D rows are bracketed together; 2D rows run damped Newton
    one row at a time.
    """
    pts = _query_points(points, stack.n, stack.num_rows)
    if stack.n == 1:
        labels, status = _invert_rows_1d(stack, pts[..., 0])
        return labels[..., None], status
    flat_labels = mesh_points(stack.label_axes)
    labels = np.empty((stack.num_rows, pts.shape[-2], stack.n))
    status = np.empty((stack.num_rows, pts.shape[-2]), dtype=np.int8)
    for r in range(stack.num_rows):
        x = pts[r] if pts.ndim == 3 else pts
        labels[r], status[r] = _invert_row_nd(stack, r, x, flat_labels)
    return labels, status


def roundtrip_error(stack: ChartStack) -> dict:
    """Forward-then-inverse defect over grid labels, per row: max |A(X(a)) - a|.

    Each row inverts its own stored positions.  Boundary labels can legitimately fail
    to re-invert (their image may be covered only by cells outside the grid), so only
    interior labels count, or every label of a grid with an axis of at most 2 nodes.
    Returns per-row arrays ``max_abs_error`` (inf for a row that resolves no query)
    and ``resolved_fraction``, and ``num_queries``, the number of labels each row
    inverts.
    """
    shape = stack.label_shape
    n = stack.n
    labels = mesh_points(stack.label_axes)
    mask = np.ones(labels.shape[0], dtype=bool)
    if all(s > 2 for s in shape):
        grid_mask = np.zeros(shape, dtype=bool)
        grid_mask[(slice(1, -1),) * n] = True
        mask = grid_mask.reshape(-1)
    rec, status = invert_batch(stack, stack.X.reshape(stack.num_rows, -1, n)[:, mask])
    ok = status == STATUS_OK
    defect = np.where(ok[..., None], np.abs(rec - labels[mask]), -np.inf)
    err = defect.max(axis=(1, 2), initial=-np.inf)
    return {
        "max_abs_error": np.where(ok.any(axis=1), err, np.inf),
        "resolved_fraction": ok.mean(axis=1) if ok.shape[1] else np.zeros(stack.num_rows),
        "num_queries": int(ok.shape[1]),
    }


# ---------------------------------------------------------------------------
# Transported fields
# ---------------------------------------------------------------------------


def feynman_kac_psi_stack(stack: ChartStack, exprs, points):
    """Exponentially weighted transported data of several fields on every chart.

    For each field f in ``exprs`` the value at (row r, query q) is f(label) *
    exp(log-weight of row r interpolated at the label), the stored log-weight grid
    being interpolated in log space.  One inversion serves every field, and each field
    is evaluated once over the recovered labels of all rows.  Returns
    ``(values, status)``: a list of (R, Q) arrays in the order of ``exprs``, NaN where
    the status is not OK.
    """
    labels, status = invert_batch(stack, points)
    ok = status == STATUS_OK
    values = [np.full(status.shape, np.nan) for _ in exprs]
    if ok.any():
        lab = labels[ok]
        rows = np.nonzero(ok)[0]
        w = np.exp(multilinear_interp_rows(stack.label_axes, stack.log_I, rows, lab))
        for out, f in zip(values, exprs):
            out[ok] = eval_points(f, lab) * w
    return values, status
