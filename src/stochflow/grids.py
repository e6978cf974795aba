"""Boxes and uniform tensor-product grids shared by the engine, oracle and estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "grid_axes",
    "stored_time_slot",
    "mesh_points",
    "trapezoid_weights",
    "multilinear_interp",
    "multilinear_interp_rows",
    "multilinear_interp_with_grad",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; ``lo``/``hi`` are per-coordinate bounds (lo < hi)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("box lo/hi lengths differ")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"box must satisfy lo < hi, got lo={lo}, hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def padded(self, margin: float) -> "Box":
        return Box(
            tuple(a - margin for a in self.lo),
            tuple(b + margin for b in self.hi),
        )

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))


def stored_time_slot(times: np.ndarray, t: float) -> int:
    """Index of the first stored time within 1e-9 * max(1, |t|) of ``t``."""
    hits = np.nonzero(np.abs(times - t) <= 1e-9 * max(1.0, abs(t)))[0]
    if hits.size == 0:
        raise ValueError(f"time {t!r} is not stored; stored times: {times.tolist()}")
    return int(hits[0])


def grid_axes(box: Box, shape) -> tuple[np.ndarray, ...]:
    """Per-axis node coordinates for a node-centered uniform grid over ``box``."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if len(shape) != box.dim:
        raise ValueError("grid shape rank does not match box dimension")
    if any(s < 2 for s in shape):
        raise ValueError("grids need at least 2 nodes per axis")
    return tuple(
        np.linspace(box.lo[k], box.hi[k], shape[k]) for k in range(box.dim)
    )


def mesh_points(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Flattened (N, n) array of node coordinates in C (row-major) order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def trapezoid_weights(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Flattened tensor-product trapezoidal quadrature weights for the node grid."""
    per_axis = []
    for ax in axes:
        w = np.empty(ax.shape)
        w[1:-1] = 0.5 * (ax[2:] - ax[:-2])
        w[0] = 0.5 * (ax[1] - ax[0])
        w[-1] = 0.5 * (ax[-1] - ax[-2])
        per_axis.append(w)
    full = per_axis[0]
    for w in per_axis[1:]:
        full = np.multiply.outer(full, w)
    return full.reshape(-1)


# ---------------------------------------------------------------------------
# Multilinear interpolation on tensor-product grids (dimensions 1..3)
# ---------------------------------------------------------------------------


def _locate(axes, pts):
    """Cell index, local coordinate, and in-range mask per query point per axis.

    Local coordinates are clamped to [0, 1]; ``inside`` records which points were in
    range (with a small tolerance for roundoff at the boundary) before clamping.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(axes):
        raise ValueError(f"query points must have shape (Q, {len(axes)})")
    q = pts.shape[0]
    n = len(axes)
    idx = np.empty((q, n), dtype=np.int64)
    loc = np.empty((q, n))
    inside = np.ones(q, dtype=bool)
    for k, ax in enumerate(axes):
        if ax.size < 2:
            raise ValueError("interpolation axes need at least 2 nodes")
        j = np.searchsorted(ax, pts[:, k], side="right") - 1
        j = np.clip(j, 0, ax.size - 2)
        h = ax[j + 1] - ax[j]
        s = (pts[:, k] - ax[j]) / h
        tol = 1e-12 * max(1.0, float(np.max(np.abs(ax))))
        inside &= (pts[:, k] >= ax[0] - tol) & (pts[:, k] <= ax[-1] + tol)
        idx[:, k] = j
        loc[:, k] = np.clip(s, 0.0, 1.0)
    return idx, loc, inside


def _strides(grid_shape) -> np.ndarray:
    """Row-major strides of a grid, in nodes."""
    strides = np.empty(len(grid_shape), dtype=np.int64)
    acc = 1
    for k in range(len(grid_shape) - 1, -1, -1):
        strides[k] = acc
        acc *= grid_shape[k]
    return strides


def _corner_sum(flat, base, loc, strides, inv_h=None):
    """Multilinear weights times the values at every cell corner, summed.

    ``flat`` holds the grid values with the grid axes flattened to one leading axis,
    ``base`` the flat index of each query's lower cell corner.  Returns ``(values,
    grads)``: grads, shape ``values.shape + (n,)``, is the derivative along each query
    coordinate when ``inv_h`` gives the (Q, n) reciprocal cell widths, else None.
    """
    n = loc.shape[1]
    q = base.shape[0]
    value_shape = flat.shape[1:]
    out = np.zeros((q,) + value_shape)
    grads = None if inv_h is None else np.zeros((q,) + value_shape + (n,))
    extra = (slice(None),) + (None,) * len(value_shape)
    for corner in range(1 << n):
        factors = []
        off = 0
        for k in range(n):
            if corner >> k & 1:
                factors.append(loc[:, k])
                off += strides[k]
            else:
                factors.append(1.0 - loc[:, k])
        w = np.ones(q)
        for f in factors:
            w = w * f
        vals_c = flat[base + off]
        out += w[extra] * vals_c
        if grads is None:
            continue
        for k in range(n):
            # d/ds_k of the weight: sign * product of the other factors, then chain
            # rule through s_k = (x_k - node)/h_k.
            others = np.ones(q)
            for m in range(n):
                if m != k:
                    others = others * factors[m]
            sign = 1.0 if (corner >> k & 1) else -1.0
            dw = sign * others * inv_h[:, k]
            grads[..., k] += dw[extra] * vals_c
    return out, grads


def multilinear_interp(axes, values, pts, out_of_range: str = "error"):
    """Multilinear interpolation of grid data at query points.

    ``values`` has shape ``grid_shape + value_shape``; ``pts`` is (Q, n).  Returns an
    array of shape ``(Q,) + value_shape``.  ``out_of_range``: "error" raises ValueError,
    "clamp" extends by the boundary value.
    """
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    values = np.asarray(values)
    n = len(axes)
    grid_shape = tuple(ax.size for ax in axes)
    if values.shape[:n] != grid_shape:
        raise ValueError(f"values leading shape {values.shape[:n]} != grid shape {grid_shape}")
    idx, loc, inside = _locate(axes, pts)
    if out_of_range == "error" and not np.all(inside):
        bad = np.asarray(pts)[~inside][0]
        raise ValueError(f"query point {bad.tolist()} outside the grid range")

    strides = _strides(grid_shape)
    out, _ = _corner_sum(values.reshape((-1,) + values.shape[n:]), idx @ strides, loc, strides)
    return out


def multilinear_interp_rows(axes, values, rows, pts):
    """Interpolate a stack of scalar grids, grid ``rows[i]`` at point ``pts[i]``.

    ``values`` has shape ``(R,) + grid_shape``; points outside the grid are clamped,
    as ``multilinear_interp(..., out_of_range="clamp")`` does for one grid, with the
    same floating-point operations.
    """
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    values = np.asarray(values)
    grid_shape = tuple(ax.size for ax in axes)
    if values.shape[1:] != grid_shape:
        raise ValueError(f"values grid shape {values.shape[1:]} != grid shape {grid_shape}")
    idx, loc, _ = _locate(axes, pts)
    strides = _strides(grid_shape)
    base = idx @ strides + np.asarray(rows, dtype=np.int64) * int(np.prod(grid_shape))
    out, _ = _corner_sum(values.reshape(-1), base, loc, strides)
    return out


def multilinear_interp_with_grad(axes, values, pts):
    """Interpolated values and their gradient with respect to the query coordinates.

    Returns ``(vals, grads)`` with vals ``(Q,) + value_shape``, the bits of
    ``multilinear_interp(..., out_of_range="clamp")``, and grads ``(Q,) + value_shape
    + (n,)`` — the derivative along each query coordinate (points outside the grid
    are clamped; their entries are one-sided)."""
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    values = np.asarray(values)
    n = len(axes)
    grid_shape = tuple(ax.size for ax in axes)
    if values.shape[:n] != grid_shape:
        raise ValueError(f"values leading shape {values.shape[:n]} != grid shape {grid_shape}")
    idx, loc, _ = _locate(axes, pts)
    inv_h = np.empty(idx.shape)
    for k in range(n):
        inv_h[:, k] = 1.0 / (axes[k][idx[:, k] + 1] - axes[k][idx[:, k]])
    strides = _strides(grid_shape)
    return _corner_sum(values.reshape((-1,) + values.shape[n:]), idx @ strides, loc, strides, inv_h)
