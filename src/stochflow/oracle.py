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
via one sparse LU factorization per solve.  ``solve_forward`` (matrix L) and
``solve_adjoint`` (matrix L^T) factor I - (dt/2) M through one helper,
``_cn_factor``.  On 2D grids it orders the columns by multiple minimum degree on
A + A^T (Liu 1985) instead of SuperLU's default COLAMD: on the 5-point operator
that nearly halves the L+U fill, and with it the cost of every step.  On 1D grids
the matrix is tridiagonal, so there is no fill to save, and the default ordering
is kept (the step costs the same, and the 1D results keep their bits).
``solve_forward`` marches every field that shares the generator (data and density)
through that one factorization, as the columns of one stack.  Both solves return an
``OracleSeries``, which is also a space-time weight phi.  The entropy functional of
a solution pair and a weight is evaluated with the plain node sum times the cell
volume, matching the conservative stencil's invariant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .coefficients import CoefficientSet
from .convex import ConvexH
from .engine import step_indices
from .errors import BlowUp, DimensionMismatch, PositivityViolation
from .fields import FieldExpr, eval_points
from .grids import Box, mesh_points, multilinear_interp, stored_time_slot

__all__ = [
    "GridField",
    "OracleSeries",
    "EntropyReport",
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
    """Scalar values on a uniform node-centered tensor grid."""

    axes: tuple
    values: np.ndarray

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

    def sample(self, points) -> np.ndarray:
        """Multilinear interpolation at (Q, n) points inside the grid."""
        return multilinear_interp(self.axes, self.values, points)


def grid_field_from_expr(expr: FieldExpr, axes, t: float = 0.0) -> GridField:
    axes = _check_uniform_axes(axes)
    if expr.dim != len(axes):
        raise DimensionMismatch(f"expression dimension {expr.dim} != grid dimension {len(axes)}")
    values = eval_points(expr, mesh_points(axes), t).reshape(tuple(ax.size for ax in axes))
    return GridField(axes, values)


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
    lower, diag, upper = np.full(n - 1, -0.5 / h), np.zeros(n), np.full(n - 1, 0.5 / h)
    diag[0], upper[0], lower[-1], diag[-1] = -1.0 / h, 1.0 / h, -1.0 / h, 1.0 / h
    # The zero interior diagonal is not stored.
    return sp.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n)).tocsr()


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

    def face_points(axis: int) -> np.ndarray:
        mid = 0.5 * (axes[axis][:-1] + axes[axis][1:])
        return mesh_points(tuple(mid if k == axis else axes[k] for k in range(n)))

    face_diff = [lift(_face_diff_1d(axes[k]), k) for k in range(n)]
    face_avg = [lift(_face_avg_1d(axes[k].size), k) for k in range(n)]

    L = sp.csr_matrix((total, total))
    for k in range(n):
        fx = face_points(k)
        flux = None  # operator producing the k-face flux from node values
        for l in range(n):
            if _is_zero_expr(cs.a[k][l]):
                continue
            coeff = eval_points(cs.a[k][l], fx, t)
            # Only a cross term needs the centered node gradient.
            grad_l = face_diff[k] if l == k else face_avg[k] @ lift(_node_grad_1d(axes[l]), l)
            term = sp.diags(cs.nu * coeff) @ grad_l
            flux = term if flux is None else flux + term
        if flux is not None:
            L = L - face_diff[k].T @ flux
        if not _is_zero_expr(cs.U[k]):
            u_face = eval_points(cs.U[k], fx, t)
            L = L + face_diff[k].T @ (sp.diags(u_face) @ face_avg[k])
    if not _is_zero_expr(cs.V):
        L = L + sp.diags(eval_points(cs.V, mesh_points(axes), t))
    return L.tocsr()


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

# Crank–Nicolson weight.  Both halves of a step scale by _THETA * dt, which equals
# (1 - _THETA) * dt exactly for 1/2.
_THETA = 0.5


def _cn_factor(M: sp.csr_matrix, half_dt: float, dim: int):
    """SuperLU factor of I - half_dt * M, the implicit half of a Crank–Nicolson step.

    2D grids use a minimum-degree ordering on A + A^T, which keeps SuperLU's default
    partial pivoting; 1D grids keep the default COLAMD (see the module docstring).
    """
    A = (sp.identity(M.shape[0], format="csc") - half_dt * M).tocsc()
    return splu(A, permc_spec="COLAMD" if dim == 1 else "MMD_AT_PLUS_A")


@dataclass(eq=False)
class OracleSeries:
    """Solution snapshots on one grid at increasing times, plus the solver step used.

    Called as ``series(points, t)``, a series is a weighting factor phi: multilinear
    in space and time.  Spatial queries outside the grid are clamped to the boundary
    value; times must lie within the stored range (up to roundoff).
    """

    axes: tuple
    times: np.ndarray
    values: np.ndarray  # (S,) + grid shape
    dt: float

    def at(self, t: float) -> GridField:
        return GridField(self.axes, self.values[stored_time_slot(self.times, t)])

    def __call__(self, points, t: float) -> np.ndarray:
        """Values at (Q, n) points and time ``t``: shape (Q,)."""
        tt = float(t)
        ts = self.times
        span = max(1.0, float(np.max(np.abs(ts))))
        if tt < ts[0] - 1e-9 * span or tt > ts[-1] + 1e-9 * span:
            raise ValueError(f"time {tt!r} outside the stored range [{ts[0]}, {ts[-1]}]")
        tt = min(max(tt, float(ts[0])), float(ts[-1]))
        if ts.size == 1:
            return multilinear_interp(self.axes, self.values[0], points, out_of_range="clamp")
        j = int(np.clip(np.searchsorted(ts, tt, side="right") - 1, 0, ts.size - 2))
        w = (tt - ts[j]) / (ts[j + 1] - ts[j])
        lo = multilinear_interp(self.axes, self.values[j], points, out_of_range="clamp")
        hi = multilinear_interp(self.axes, self.values[j + 1], points, out_of_range="clamp")
        return (1.0 - w) * lo + w * hi


def _steps_and_slots(T: float, dt: float, output_times):
    """The step count T/dt and the sorted distinct steps of the output times (every
    step when there are none), placed by ``engine.step_indices``."""
    K, *idx = step_indices([T, *(() if output_times is None else output_times)], dt)
    if K < 1:
        raise ValueError(f"horizon {T} is shorter than one step of dt={dt}")
    if output_times is None:
        return K, list(range(K + 1))
    if not idx:
        raise ValueError("output_times must name at least one time")
    if max(idx) > K:
        raise ValueError(f"an output time lies past the horizon {T}")
    return K, sorted(set(idx))


def solve_forward(
    cs: CoefficientSet,
    initial: Sequence[GridField],
    T: float,
    dt: float,
    output_times: Sequence[float] | None = None,
    require_positive: Sequence[bool] | None = None,
) -> list[OracleSeries]:
    """March the forward equation from each initial field to time T with Crank–Nicolson steps.

    Returns one series per field.  The fields share one generator and one
    factorization, and each step advances them as the columns of one (N, m) stack;
    the sparse product and SuperLU's multi-column solve give every column the bits
    of a march of that field alone.  ``require_positive[i]`` aborts (rather than
    clips) if field i loses positivity — used for density solves.  A failing march
    raises what marching the fields one at a time, in order, raises.
    """
    initial = list(initial)
    positive = [False] * len(initial) if require_positive is None else list(require_positive)
    if not initial or len(positive) != len(initial):
        raise ValueError("need at least one initial field and one require_positive flag per field")
    f0 = initial[0]
    if any(g.n != cs.n for g in initial):
        raise DimensionMismatch("initial field dimension != coefficient dimension")
    if any(g.shape != f0.shape or g.box != f0.box for g in initial):
        raise ValueError("initial fields must share one grid")
    K, slots = _steps_and_slots(T, dt, output_times)
    L = assemble_generator(cs, f0.axes)
    F = np.stack([g.values.reshape(-1) for g in initial], axis=1)
    LF = np.empty(F.shape, order="F")  # L @ F, one column at a time

    half_dt = _THETA * dt
    lu = _cn_factor(L, half_dt, f0.n)
    slot_of = {i: s for s, i in enumerate(slots)}
    stored = np.empty((F.shape[1], len(slots), F.shape[0]))  # field, slot, node

    def check(t_now: float) -> None:
        # A NaN or an infinity reaches the column minima or the maximum.
        col_min = F.min(axis=0)
        if not (np.isfinite(col_min).all() and np.isfinite(F.max())):
            raise BlowUp(f"forward solve produced non-finite values at t={t_now:.6g}")
        low = min((col_min[j] for j, p in enumerate(positive) if p), default=np.inf)
        if low <= 0.0:
            raise PositivityViolation(
                f"forward solve lost strict positivity at t={t_now:.6g} (min value {low:.3e})"
            )

    try:
        for k in range(K + 1):
            if k > 0:
                # SuperLU returns F in Fortran order, so each column is contiguous;
                # a product with the whole stack would copy it to C order first.
                for j in range(F.shape[1]):
                    LF[:, j] = L @ F[:, j]
                F = lu.solve(F + half_dt * LF)
            check(k * dt)
            if k in slot_of:
                stored[:, slot_of[k]] = F.T
    except (BlowUp, PositivityViolation):
        if len(initial) > 1:
            for g, p in zip(initial, positive):
                solve_forward(cs, [g], T, dt, output_times, [p])
        raise
    times = np.array([i * dt for i in slots])
    shape = (len(slots),) + f0.shape
    return [OracleSeries(f0.axes, times.copy(), values.reshape(shape), dt) for values in stored]


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
    lu = _cn_factor(lt, half_dt, phi_T.n)

    shape = phi_T.shape
    phi = phi_T.values.reshape(-1).copy()
    slot_of = {i: s for s, i in enumerate(slots)}
    values = np.empty((len(slots),) + shape)
    worst_undershoot = 0.0

    if K in slot_of:
        values[slot_of[K]] = phi.reshape(shape)
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
            values[slot_of[k]] = phi.reshape(shape)
    if worst_undershoot > 1e-12:
        warnings.warn(
            f"adjoint solution undershot zero by {worst_undershoot:.3e} and was clipped",
            stacklevel=2,
        )
    return OracleSeries(phi_T.axes, np.array([i * dt for i in slots]), values, dt)


# ---------------------------------------------------------------------------
# Entropy functional of a solution pair and a weight
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EntropyReport:
    """Entropy time series and its monotonicity verdict.

    ``slack`` is the per-increment allowance of a deterministic (oracle) series; an
    increment counts as a violation when it exceeds slack.  ``C_needed`` is the
    smallest slack constant that would make the verdict pass, in units of
    (dx^2 + dt).  The Monte Carlo decay check leaves both None and fills the
    bootstrap band ``lower``/``upper`` of the values instead.
    """

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray
    verdict_nonincreasing: bool
    num_violations: int
    max_increment: float
    slack: float | None = None
    C_needed: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


def entropy_series(
    f_series: OracleSeries,
    rho_series: OracleSeries,
    phi,
    H: ConvexH,
    slack_constant: float = 1.0,
) -> EntropyReport:
    """Entropy functional G(t) = sum_nodes H(f/rho) * phi * rho * cell_volume.

    ``phi(points, t)`` is read at the grid nodes and at the stored times of
    ``f_series``; an ``OracleSeries`` on the same grid and times gives its own values.
    The verdict allows per-increment growth up to slack_constant * (dx^2 + dt) —
    discretization error of the underlying solves; C_needed reports the smallest
    constant that would pass.
    """
    ts = f_series.times
    if rho_series.times.shape != ts.shape or np.max(np.abs(rho_series.times - ts)) > 1e-9:
        raise ValueError("entropy series inputs must share identical stored times")
    for ax_a, ax_b in zip(rho_series.axes, f_series.axes):
        if ax_a.shape != ax_b.shape or np.max(np.abs(ax_a - ax_b)) > 1e-12:
            raise ValueError("entropy series inputs must share the same grid")
    gf = f_series.at(ts[0])
    vol = gf.cell_volume
    pts = mesh_points(gf.axes)
    values = np.empty(ts.size)
    for s, t in enumerate(ts):
        f = f_series.values[s]
        rho = rho_series.values[s]
        if np.min(rho) <= 0.0:
            raise PositivityViolation(
                f"density is not strictly positive at t={t:.6g} (min {np.min(rho):.3e})"
            )
        values[s] = float(np.sum(H(f / rho) * phi(pts, t).reshape(gf.shape) * rho) * vol)
    increments = np.diff(values)
    dx2 = max(h * h for h in gf.spacing)
    dt = max(f_series.dt, rho_series.dt)
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
        C_needed=float(c_needed),
        max_increment=max_inc,
    )
