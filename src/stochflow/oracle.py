"""Deterministic finite-difference reference solver on uniform node grids.

Solves the forward equation in conservative (divergence) form,

    d/dt f = nu * d_i(a_ij d_j f) - div(U f) + V f,

and its adjoint backward in time, on a box with zero-flux (homogeneous Neumann) walls.
The generator is assembled from sparse face-difference building blocks:

    L = sum_k (-Dk^T) [ nu * sum_l diag(a_kl at k-faces) Grad_l ] + Dk^T diag(U_k) Avg_k
        + diag(V)

where Dk is the face difference along axis k, Avg_k the node-to-face average, and
Grad_l is Dk itself for l == k or the averaged centered node gradient for cross terms.
Because every non-reaction term is of the form (-Dk^T)(...), the discrete mass
sum(f) * cell_volume is conserved exactly when V = 0 (telescoping), and the discrete
adjoint is literally the matrix transpose: backward stepping with L^T makes the duality
sum(phi * f) constant to solver roundoff.

Time stepping: the Crank–Nicolson theta-scheme (theta = 1/2, unconditionally stable),
via one sparse LU factorization per solve.  The entropy functional of a solution triple is evaluated with the
plain node sum times the cell volume, matching the conservative stencil's invariant.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .coefficients import CoefficientSet
from .convex import ConvexH
from .errors import BlowUp, DimensionMismatch, PositivityViolation
from .fields import FieldExpr, eval_batch
from .grids import Box, multilinear_interp

__all__ = [
    "GridField",
    "OracleSeries",
    "EntropyReport",
    "PhiSeries",
    "grid_field_from_expr",
    "assemble_generator",
    "solve_forward",
    "solve_adjoint",
    "entropy_series",
]


# ---------------------------------------------------------------------------
# Grid fields
# ---------------------------------------------------------------------------


def _check_uniform_axes(axes) -> tuple[np.ndarray, ...]:
    out = []
    for k, ax in enumerate(axes):
        ax = np.asarray(ax, dtype=float)
        if ax.ndim != 1 or ax.size < 3:
            raise ValueError(f"axis {k + 1} must be 1D with at least 3 nodes")
        d = np.diff(ax)
        if np.any(d <= 0):
            raise ValueError(f"axis {k + 1} must be strictly increasing")
        if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
            raise ValueError(f"axis {k + 1} must be uniformly spaced")
        out.append(ax)
    return tuple(out)


@dataclass(eq=False)
class GridField:
    """Scalar values on a uniform node-centered tensor grid at one time."""

    axes: tuple
    values: np.ndarray
    t: float

    def __post_init__(self):
        self.axes = _check_uniform_axes(self.axes)
        n = len(self.axes)
        if n not in (1, 2):
            raise DimensionMismatch("grid fields support dimensions 1 and 2")
        shape = tuple(ax.size for ax in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid field values must be finite")

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def spacing(self) -> tuple:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    @property
    def box(self) -> Box:
        return Box(tuple(float(ax[0]) for ax in self.axes), tuple(float(ax[-1]) for ax in self.axes))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def mass(self) -> float:
        """sum(values) * cell volume — the exactly conserved discrete quantity."""
        return float(self.values.sum() * self.cell_volume)

    def sample(self, points, out_of_range: str = "error"):
        """Multilinear interpolation; accepts a single point or (Q, n) queries.

        In 1D a 1D array is taken as Q separate query points.
        """
        pts = np.asarray(points, dtype=float)
        squeeze = False
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
            squeeze = True
        elif pts.ndim == 1:
            if self.n == 1:
                pts = pts[:, None]
            else:
                if pts.size != self.n:
                    raise DimensionMismatch(f"point has {pts.size} components, expected {self.n}")
                pts = pts[None, :]
                squeeze = True
        res = multilinear_interp(self.axes, self.values, pts, out_of_range=out_of_range)
        if out_of_range == "mask":
            vals, inside = res
            return (float(vals[0]), bool(inside[0])) if squeeze else (vals, inside)
        return float(res[0]) if squeeze else res

    def with_values(self, values: np.ndarray, t: float | None = None) -> "GridField":
        return GridField(self.axes, values, self.t if t is None else float(t))

    def to_csv(self, path: str) -> None:
        """Write node coordinates and values, columns x1[,x2],value."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.n == 1:
                writer.writerow(["x1", "value"])
                for x, v in zip(self.axes[0], self.values):
                    writer.writerow([f"{x:.17g}", f"{v:.17g}"])
            else:
                writer.writerow(["x1", "x2", "value"])
                for i, x1 in enumerate(self.axes[0]):
                    for j, x2 in enumerate(self.axes[1]):
                        writer.writerow([f"{x1:.17g}", f"{x2:.17g}", f"{self.values[i, j]:.17g}"])


def _eval_on_mesh(expr: FieldExpr, axes, t: float) -> np.ndarray:
    shape = tuple(ax.size for ax in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = eval_batch(expr, tuple(mesh), t)
    return np.broadcast_to(np.asarray(vals, dtype=float), shape).copy()


def grid_field_from_expr(expr: FieldExpr, axes, t: float = 0.0) -> GridField:
    axes = _check_uniform_axes(axes)
    if expr.dim != len(axes):
        raise DimensionMismatch(f"expression dimension {expr.dim} != grid dimension {len(axes)}")
    return GridField(axes, _eval_on_mesh(expr, axes, t), t)


# ---------------------------------------------------------------------------
# Generator assembly
# ---------------------------------------------------------------------------


def _face_diff_1d(ax: np.ndarray) -> sp.csr_matrix:
    """(N-1, N): forward difference onto faces, divided by the spacing."""
    n = ax.size
    h = float(ax[1] - ax[0])
    return sp.diags([-np.ones(n - 1) / h, np.ones(n - 1) / h], [0, 1], shape=(n - 1, n)).tocsr()


def _face_avg_1d(n: int) -> sp.csr_matrix:
    """(N-1, N): node-to-face arithmetic average."""
    return sp.diags([0.5 * np.ones(n - 1), 0.5 * np.ones(n - 1)], [0, 1], shape=(n - 1, n)).tocsr()


def _node_grad_1d(ax: np.ndarray) -> sp.csr_matrix:
    """(N, N): centered derivative at nodes, one-sided at the two ends."""
    n = ax.size
    h = float(ax[1] - ax[0])
    m = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0] = -1.0 / h
    m[0, 1] = 1.0 / h
    m[n - 1, n - 2] = -1.0 / h
    m[n - 1, n - 1] = 1.0 / h
    return m.tocsr()


def _is_zero_expr(expr: FieldExpr) -> bool:
    return expr.is_constant and expr.constant_value == 0.0


def assemble_generator(cs: CoefficientSet, axes, t: float = 0.0) -> sp.csr_matrix:
    """Sparse conservative discretization of the forward generator on the node grid."""
    n = cs.n
    if n not in (1, 2):
        raise DimensionMismatch("the oracle supports dimensions 1 and 2")
    axes = _check_uniform_axes(axes)
    if len(axes) != n:
        raise DimensionMismatch(f"{len(axes)} axes for dimension {n}")
    if cs.depends_on_time():
        raise ValueError("the oracle requires time-independent coefficients")

    shape = tuple(ax.size for ax in axes)
    total = int(np.prod(shape))
    eye = [sp.identity(s, format="csr") for s in shape]

    def lift(mat_1d: sp.spmatrix, axis: int) -> sp.csr_matrix:
        if n == 1:
            return mat_1d.tocsr()
        if axis == 0:
            return sp.kron(mat_1d, eye[1], format="csr")
        return sp.kron(eye[0], mat_1d, format="csr")

    def face_axes(axis: int):
        mid = 0.5 * (axes[axis][:-1] + axes[axis][1:])
        return tuple(mid if k == axis else axes[k] for k in range(n))

    face_diff = [lift(_face_diff_1d(axes[k]), k) for k in range(n)]
    face_avg = [lift(_face_avg_1d(axes[k].size), k) for k in range(n)]
    node_grad = [lift(_node_grad_1d(axes[k]), k) for k in range(n)]

    L = sp.csr_matrix((total, total))
    for k in range(n):
        fx = face_axes(k)
        flux = None  # operator producing the k-face flux from node values
        for l in range(n):
            if _is_zero_expr(cs.a[k][l]):
                continue
            coeff = _eval_on_mesh(cs.a[k][l], fx, t).reshape(-1)
            grad_l = face_diff[k] if l == k else (face_avg[k] @ node_grad[l])
            term = sp.diags(cs.nu * coeff) @ grad_l
            flux = term if flux is None else flux + term
        if flux is not None:
            L = L - face_diff[k].T @ flux
        if not _is_zero_expr(cs.U[k]):
            u_face = _eval_on_mesh(cs.U[k], fx, t).reshape(-1)
            L = L + face_diff[k].T @ (sp.diags(u_face) @ face_avg[k])
    if not _is_zero_expr(cs.V):
        L = L + sp.diags(_eval_on_mesh(cs.V, axes, t).reshape(-1))
    return L.tocsr()


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

# Crank–Nicolson weight.  Both halves of a step scale by _THETA * dt, which equals
# (1 - _THETA) * dt exactly for 1/2.
_THETA = 0.5


@dataclass(eq=False)
class OracleSeries:
    """Solution snapshots at increasing times, plus the solver step used."""

    times: np.ndarray
    fields: list
    dt: float

    @property
    def axes(self) -> tuple:
        return self.fields[0].axes

    def at(self, t: float) -> GridField:
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise ValueError(f"time {t!r} not stored; stored times: {self.times.tolist()}")
        return self.fields[int(hits[0])]

    def stack(self) -> np.ndarray:
        return np.stack([f.values for f in self.fields], axis=0)


def _steps_and_slots(T: float, dt: float, output_times):
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    K = int(round(T / dt))
    if K < 1 or abs(K * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon {T} is not an integer multiple of dt={dt}")
    if output_times is None:
        idx = list(range(K + 1))
    else:
        idx = []
        for t in output_times:
            i = int(round(float(t) / dt))
            if i < 0 or i > K or abs(i * dt - float(t)) > 1e-9 * max(1.0, abs(float(t))):
                raise ValueError(f"output time {t!r} does not lie on the step grid")
            idx.append(i)
        idx = sorted(set(idx))
    return K, idx


def solve_forward(
    cs: CoefficientSet,
    f0: GridField,
    T: float,
    dt: float,
    output_times: Sequence[float] | None = None,
    require_positive: bool = False,
) -> OracleSeries:
    """March the forward equation from f0 to time T with Crank–Nicolson steps.

    ``require_positive`` aborts (rather than clips) if the solution loses
    positivity — used for density solves.
    """
    if f0.n != cs.n:
        raise DimensionMismatch("initial field dimension != coefficient dimension")
    K, slots = _steps_and_slots(T, dt, output_times)
    L = assemble_generator(cs, f0.axes)
    f = f0.values.reshape(-1).copy()
    shape = f0.shape

    half_dt = _THETA * dt
    lu = splu((sp.identity(f.size, format="csc") - half_dt * L).tocsc())

    slot_of = {i: s for s, i in enumerate(slots)}
    fields: list[GridField | None] = [None] * len(slots)

    def check(vec: np.ndarray, t_now: float) -> None:
        if not np.all(np.isfinite(vec)):
            raise BlowUp(f"forward solve produced non-finite values at t={t_now:.6g}")
        if require_positive and np.min(vec) <= 0.0:
            raise PositivityViolation(
                f"forward solve lost strict positivity at t={t_now:.6g} "
                f"(min value {np.min(vec):.3e})"
            )

    check(f, 0.0)
    if 0 in slot_of:
        fields[slot_of[0]] = GridField(f0.axes, f.reshape(shape).copy(), 0.0)
    for k in range(1, K + 1):
        f = lu.solve(f + half_dt * (L @ f))
        t_now = k * dt
        check(f, t_now)
        if k in slot_of:
            fields[slot_of[k]] = GridField(f0.axes, f.reshape(shape).copy(), t_now)
    return OracleSeries(times=np.array([i * dt for i in slots]), fields=fields, dt=dt)


def solve_adjoint(
    cs: CoefficientSet,
    phi_T: GridField,
    T: float,
    dt: float,
    output_times: Sequence[float] | None = None,
) -> OracleSeries:
    """March the adjoint equation backward from terminal data at time T.

    Stepping uses the exact transpose of the forward Crank–Nicolson step, so the
    discrete duality sum(phi_k * f_k) is constant to solver roundoff for any paired
    forward solve with the same dt.  Negative values (undershoot) are clipped to
    zero; a warning is emitted if the undershoot exceeds 1e-12.
    """
    if phi_T.n != cs.n:
        raise DimensionMismatch("terminal field dimension != coefficient dimension")
    if np.min(phi_T.values) < 0:
        raise ValueError("terminal data for the adjoint solve must be non-negative")
    K, slots = _steps_and_slots(T, dt, output_times)
    L = assemble_generator(cs, phi_T.axes)
    lt = L.T.tocsr()
    half_dt = _THETA * dt
    lu = splu((sp.identity(phi_T.values.size, format="csc") - half_dt * lt).tocsc())

    shape = phi_T.shape
    phi = phi_T.values.reshape(-1).copy()
    slot_of = {i: s for s, i in enumerate(slots)}
    fields: list[GridField | None] = [None] * len(slots)
    worst_undershoot = 0.0

    if K in slot_of:
        fields[slot_of[K]] = GridField(phi_T.axes, phi.reshape(shape).copy(), K * dt)
    for k in range(K - 1, -1, -1):
        y = lu.solve(phi)
        phi = y + half_dt * (lt @ y)
        if not np.all(np.isfinite(phi)):
            raise BlowUp(f"adjoint solve produced non-finite values at t={k * dt:.6g}")
        mn = float(np.min(phi))
        if mn < 0.0:
            worst_undershoot = max(worst_undershoot, -mn)
            np.clip(phi, 0.0, None, out=phi)
        if k in slot_of:
            fields[slot_of[k]] = GridField(phi_T.axes, phi.reshape(shape).copy(), k * dt)
    if worst_undershoot > 1e-12:
        warnings.warn(
            f"adjoint solution undershot zero by {worst_undershoot:.3e} and was clipped",
            stacklevel=2,
        )
    return OracleSeries(times=np.array([i * dt for i in slots]), fields=fields, dt=dt)


# ---------------------------------------------------------------------------
# Space-time evaluation of a stored series (for weighting factors along paths)
# ---------------------------------------------------------------------------


class PhiSeries:
    """Callable (points, t) view of a stored series: multilinear in space and time.

    Spatial queries outside the grid are clamped to the boundary value; times must lie
    within the stored range (up to roundoff).
    """

    def __init__(self, series: OracleSeries):
        self.axes = series.axes
        self.times = np.asarray(series.times, dtype=float)
        self.values = series.stack()  # (S,) + grid shape
        if self.times.size < 1:
            raise ValueError("empty series")

    def __call__(self, points, t: float):
        pts = np.asarray(points, dtype=float)
        n = len(self.axes)
        squeeze = False
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
            squeeze = True
        elif pts.ndim == 1 and pts.size == n:
            pts = pts[None, :]
            squeeze = True
        elif pts.ndim == 1:
            pts = pts[:, None]
        tt = float(t)
        ts = self.times
        span = max(1.0, float(np.max(np.abs(ts))))
        if tt < ts[0] - 1e-9 * span or tt > ts[-1] + 1e-9 * span:
            raise ValueError(f"time {tt!r} outside the stored range [{ts[0]}, {ts[-1]}]")
        tt = min(max(tt, float(ts[0])), float(ts[-1]))
        j = int(np.clip(np.searchsorted(ts, tt, side="right") - 1, 0, ts.size - 2)) if ts.size > 1 else 0
        if ts.size == 1:
            vals = multilinear_interp(self.axes, self.values[0], pts, out_of_range="clamp")
        else:
            w = (tt - ts[j]) / (ts[j + 1] - ts[j])
            lo = multilinear_interp(self.axes, self.values[j], pts, out_of_range="clamp")
            hi = multilinear_interp(self.axes, self.values[j + 1], pts, out_of_range="clamp")
            vals = (1.0 - w) * lo + w * hi
        return float(vals[0]) if squeeze else vals


# ---------------------------------------------------------------------------
# Entropy functional of a solution triple
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EntropyReport:
    """Entropy time series and its monotonicity verdict.

    ``slack`` is the per-increment allowance; an increment counts as a violation when
    it exceeds slack.  ``C_needed`` is the smallest slack constant that would make the
    verdict pass (same scale unit as ``C_used``).  Confidence-band fields are None for
    deterministic (oracle) series and filled by the Monte Carlo decay check.
    """

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray
    slack: float
    verdict_nonincreasing: bool
    num_violations: int
    C_used: float
    C_needed: float
    scale: float  # the (dx^2 + dt) unit multiplying C
    max_increment: float
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    z_scores: np.ndarray | None = None
    description: str = ""


def entropy_series(
    f_series: OracleSeries,
    rho_series: OracleSeries,
    phi_series: OracleSeries,
    H: ConvexH,
    slack_constant: float = 1.0,
) -> EntropyReport:
    """Entropy functional G(t) = sum_nodes H(f/rho) * phi * rho * cell_volume.

    The verdict allows per-increment growth up to slack_constant * (dx^2 + dt) —
    discretization error of the underlying solves; C_needed reports the smallest
    constant that would pass.
    """
    ts = f_series.times
    for other in (rho_series, phi_series):
        if other.times.shape != ts.shape or np.max(np.abs(other.times - ts)) > 1e-9:
            raise ValueError("entropy series inputs must share identical stored times")
        for ax_a, ax_b in zip(other.axes, f_series.axes):
            if ax_a.shape != ax_b.shape or np.max(np.abs(ax_a - ax_b)) > 1e-12:
                raise ValueError("entropy series inputs must share the same grid")
    gf = f_series.fields[0]
    vol = gf.cell_volume
    values = np.empty(ts.size)
    for s in range(ts.size):
        f = f_series.fields[s].values
        rho = rho_series.fields[s].values
        phi = phi_series.fields[s].values
        if np.min(rho) <= 0.0:
            raise PositivityViolation(
                f"density is not strictly positive at t={ts[s]:.6g} (min {np.min(rho):.3e})"
            )
        values[s] = float(np.sum(H(f / rho) * phi * rho) * vol)
    increments = np.diff(values)
    dx2 = max(h * h for h in gf.spacing)
    dt = max(f_series.dt, rho_series.dt, phi_series.dt)
    scale = dx2 + dt
    slack = slack_constant * scale
    num_bad = int(np.sum(increments > slack))
    max_inc = float(np.max(increments)) if increments.size else 0.0
    c_needed = max(0.0, max_inc) / scale
    return EntropyReport(
        times=ts.copy(),
        values=values,
        increments=increments,
        slack=float(slack),
        verdict_nonincreasing=num_bad == 0,
        num_violations=num_bad,
        C_used=float(slack_constant),
        C_needed=float(c_needed),
        scale=float(scale),
        max_increment=max_inc,
        description=f"entropy functional with H={H.name}",
    )
