"""Euler–Maruyama integration of the stochastic flow map.

One realization = one Brownian path driving a whole grid of labels (shared noise): every
label consumes the same increment vector each step, so the realization transports a full
coordinate chart.  Alongside the positions the engine advances

- the tangent matrix ``J`` (sensitivity of position to label), kept only as live state:
  a snapshot stores its determinant ``D_direct``, not the matrix,
- two redundant determinant trackers: ``D_sde`` (multiplicative factor per step) and
  ``log_lambda`` (log-space exponent, positivity-preserving by construction), next to
  ``D_direct`` — their mutual agreement is a discretization diagnostic,
- the exponential growth weight ``log_I`` (left-endpoint time quadrature of the
  zeroth-order coefficient along the path).

The batch kernel works on arrays of shape (R, L, n) — R realizations, L labels.  Each
``simulate_paths`` call compiles the whole step once: every coefficient expression,
with subtrees shared between sigma, the drift and their derivatives numbered once,
and the state updates that consume them, into a straight-line program of ufunc calls
that write into preallocated buffers (see ``fields.ProgramCompiler``).  The state is
then advanced in place, with the floating-point operations of the plain update
formulas in their order.  Exactly-zero coefficients (constant-folded by the expression
layer) are skipped when the program is built, which makes trivial cases (identity
sigma, zero drift) nearly free.

Realizations whose chart leaves the padded integration box, or develops non-finite
state, are flagged and their rows frozen to the box center so the remaining batch can
continue without domain errors; consumers must drop flagged realizations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .brownian import BrownianDriver
from .coefficients import CoefficientSet
from .errors import DimensionMismatch
from .fields import COLUMN, Program, ProgramCompiler
# Unused here; kept importable because the benchmark's span tracer patches engine.eval_batch.
from .fields import eval_batch  # noqa: F401
from .grids import Box, mesh_points

__all__ = [
    "BatchResult",
    "simulate_paths",
    "run_chunks",
    "escape_margin",
    "DEFAULT_CHUNK_SIZE",
]

DEFAULT_CHUNK_SIZE = 4096

# Number of diffusive standard deviations sqrt(2*nu*T) added around the label box to
# form the integration domain; leaving it counts as an escape.
ESCAPE_MARGIN_SIGMAS = 6.0


def escape_margin(nu: float, horizon: float) -> float:
    """Padding width around the label box for escape detection."""
    return ESCAPE_MARGIN_SIGMAS * float(np.sqrt(max(2.0 * nu * horizon, 0.0)))


# ---------------------------------------------------------------------------
# Batch step kernel
# ---------------------------------------------------------------------------


def _compile_step(cs: CoefficientSet, dt: float) -> tuple[Program, bool]:
    """One Euler–Maruyama step of the full state as a straight-line program.

    Left-endpoint evaluation: every coefficient is read at the pre-step position and
    time.  The state is updated in place, so each write is emitted after every read
    of the value it overwrites; the positions, which every coefficient reads, are
    written last.  The floating-point operations and their order are those of the
    plain update formulas, term by term; a term is skipped only when its coefficient
    is a constant exact zero, decided here once.  Returns the program and whether J
    needs a second buffer: for n > 1, row j of the new J reads the old rows k.
    """
    n = cs.n
    b = ProgramCompiler(n)
    f = b.field
    dW = [b.input(("dW", p), COLUMN) for p in range(n)]
    J = [[b.input(("J", j, i)) for i in range(n)] for j in range(n)]
    J_new = [[b.input(("J_new", j, i)) for i in range(n)] for j in range(n)]
    D, logL, logI = b.input("D"), b.input("logL"), b.input("logI")
    X = b.coords
    DT = b.const(dt)
    ONE = b.const(1.0)
    SQRT2NU = b.const(float(np.sqrt(2.0 * cs.nu)))

    def noise(coef: int, p: int) -> int:
        return b.mul(b.mul(SQRT2NU, coef), dW[p])

    def add_term(acc, term: int) -> int:
        return term if acc is None else b.add(acc, term)

    # --- tangent matrix: J' = J + M·J, M[j][k] = d_k v_j dt + sqrt(2 nu) d_k sigma_jp dW_p
    M = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            g = f(cs.dv[k][j])
            if not b.is_zero(g):
                M[j][k] = b.mul(g, DT)
            for p in range(n):
                gs = f(cs.dsigma[k][j][p])
                if not b.is_zero(gs):
                    M[j][k] = add_term(M[j][k], noise(gs, p))
    double = n > 1 and any(m is not None for row in M for m in row)
    target = J_new if double else J
    for j in range(n):
        for i in range(n):
            terms = [b.mul(M[j][k], J[k][i]) for k in range(n) if M[j][k] is not None]
            if double and not terms:
                b.write(target[j][i], "copy", J[j][i])
            acc = J[j][i]
            for term in terms:
                b.write(target[j][i], "add", acc, term)
                acc = target[j][i]

    # --- determinant trackers -------------------------------------------------
    drift = None  # div v + 2*nu*E
    div_v, e_val = f(cs.div_v), f(cs.E)
    if not b.is_zero(div_v):
        drift = div_v
    if not b.is_zero(e_val):
        drift = add_term(drift, b.mul(b.const(2.0 * cs.nu), e_val))
    noise_sum = None  # sqrt(2 nu) * sum_p (div sigma_p) dW_p
    sumsq = None  # sum_p (div sigma_p)^2
    for p in range(n):
        ds = f(cs.div_sigma[p])
        if not b.is_zero(ds):
            noise_sum = add_term(noise_sum, noise(ds, p))
            sumsq = add_term(sumsq, b.mul(ds, ds))
    if drift is not None or noise_sum is not None:
        factor = ONE
        if drift is not None:
            factor = b.add(factor, b.mul(drift, DT))
        if noise_sum is not None:
            factor = b.add(factor, noise_sum)
        b.write(D, "mul", D, factor)
    lam_inc = None
    if drift is not None:
        lam_inc = b.mul(drift, DT)
    if sumsq is not None:
        lam_inc = add_term(lam_inc, b.mul(b.const(-cs.nu * dt), sumsq))
    if noise_sum is not None:
        lam_inc = add_term(lam_inc, noise_sum)
    if lam_inc is not None:
        b.write(logL, "add", logL, lam_inc)
    p_val = f(cs.P)
    if not b.is_zero(p_val):
        b.write(logI, "add", logI, b.mul(p_val, DT))

    # --- positions: every term first, since a coefficient may be a coordinate itself
    x_terms = []
    for j in range(n):
        v = f(cs.v[j])
        if not b.is_zero(v):
            x_terms.append((j, b.mul(v, DT)))
        for p in range(n):
            s = f(cs.sigma[j][p])
            if not b.is_zero(s):
                x_terms.append((j, noise(s, p)))
    for j, term in x_terms:
        b.write(X[j], "add", X[j], term)
    return b.build(), double


class _Stepper:
    """Advances one batch of state arrays in place, one Euler–Maruyama step at a time.

    X: (R, L, n); J: (R, L, n, n); D, logL, logI: (R, L).  The step program is
    compiled per stepper and its buffers belong to it alone, so concurrent
    simulations share nothing.  ``J`` names the current tangent buffer, which
    alternates when the update needs two.
    """

    def __init__(self, cs: CoefficientSet, dt: float, X, J, D, logL, logI):
        program, double = _compile_step(cs, dt)
        n = cs.n
        shape = D.shape
        self._dW = np.empty((n, shape[0], 1))
        self._J = [J, np.empty_like(J)] if double else [J]
        self._runs = []
        for parity in range(len(self._J)):
            old, new = self._J[parity], self._J[-1 - parity]
            inputs = {("x", k): X[..., k] for k in range(n)}
            inputs.update({("dW", p): self._dW[p] for p in range(n)})
            for j in range(n):
                for i in range(n):
                    inputs[("J", j, i)] = old[..., j, i]
                    inputs[("J_new", j, i)] = new[..., j, i]
            inputs.update(D=D, logL=logL, logI=logI)
            self._runs.append(program.bind(inputs, shape))
        self._parity = 0

    @property
    def J(self) -> np.ndarray:
        return self._J[self._parity]

    def step(self, t: float, dW: np.ndarray) -> None:
        """Advance by one step from time ``t`` with increments ``dW`` of shape (R, n)."""
        np.copyto(self._dW[..., 0], dW.T)
        self._runs[self._parity].run(t)
        self._parity = (self._parity + 1) % len(self._J)


def _det_stack(J: np.ndarray) -> np.ndarray:
    """Determinant over the last two axes, cheap closed forms for n <= 2."""
    n = J.shape[-1]
    if n == 1:
        return J[..., 0, 0].copy()
    if n == 2:
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    return np.linalg.det(J)


# ---------------------------------------------------------------------------
# Batch simulation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BatchResult:
    """Snapshots of a chunk of realizations over a common label grid.

    Leading axes of the arrays: (stored time, realization, label).  ``alive`` marks
    realizations that stayed finite and inside the padded box for the whole run;
    consumers must discard the rest (``escaped`` / ``nonfinite`` say why).
    ``degenerate`` flags realizations whose direct determinant was <= 0 at some stored
    time while still alive — a sign the step size is too coarse.
    """

    label_axes: tuple  # tuple of 1D arrays
    labels: np.ndarray  # (L, n)
    label_shape: tuple
    times: np.ndarray  # (S,)
    time_indices: np.ndarray  # (S,) step indices
    dt: float
    num_steps: int
    realization_indices: np.ndarray  # (R,)
    X: np.ndarray  # (S, R, L, n)
    D_sde: np.ndarray  # (S, R, L)
    log_lambda: np.ndarray  # (S, R, L)
    log_I: np.ndarray  # (S, R, L)
    D_direct: np.ndarray  # (S, R, L)
    alive: np.ndarray  # (R,) bool
    escaped: np.ndarray  # (R,) bool
    nonfinite: np.ndarray  # (R,) bool
    degenerate: np.ndarray  # (R,) bool
    box: Box  # label box
    padded_box: Box  # escape-detection box

    @property
    def num_realizations(self) -> int:
        return int(self.realization_indices.shape[0])

    @property
    def num_labels(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n(self) -> int:
        return int(self.labels.shape[1])

    def time_slot(self, t: float) -> int:
        """Index into the stored-time axis for time t (must match a stored time)."""
        hits = np.nonzero(np.abs(self.times - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise ValueError(f"time {t!r} is not a stored output time; stored: {self.times.tolist()}")
        return int(hits[0])


def _normalize_label_axes(labels, n: int) -> tuple:
    if isinstance(labels, np.ndarray) and labels.ndim == 1:
        if n != 1:
            raise DimensionMismatch("a single 1D label array is only valid in dimension 1")
        axes = (labels,)
    elif isinstance(labels, (tuple, list)):
        axes = tuple(np.asarray(ax, dtype=float).reshape(-1) for ax in labels)
    else:
        raise TypeError("labels must be a tuple/list of 1D axis arrays (or a 1D array when n=1)")
    if len(axes) != n:
        raise DimensionMismatch(f"{len(axes)} label axes given for dimension {n}")
    out = []
    for k, ax in enumerate(axes):
        ax = np.asarray(ax, dtype=float)
        if ax.ndim != 1 or ax.size < 1:
            raise ValueError(f"label axis {k + 1} must be a nonempty 1D array")
        if ax.size > 1 and not np.all(np.diff(ax) > 0):
            raise ValueError(f"label axis {k + 1} must be strictly increasing")
        if not np.all(np.isfinite(ax)):
            raise ValueError(f"label axis {k + 1} contains non-finite entries")
        out.append(ax)
    return tuple(out)


def simulate_paths(
    cs: CoefficientSet,
    labels,
    num_steps: int,
    store_indices: Sequence[int],
    driver: BrownianDriver,
    realization_indices,
    box: Box | None = None,
) -> BatchResult:
    """Advance a chunk of realizations over a label grid, storing snapshots.

    ``labels``: tuple of per-axis 1D arrays (rectangular label grid).  ``store_indices``:
    step indices (0 = initial state) at which full state snapshots are kept.  The step
    size is ``driver.dt``.  Escaped / non-finite realizations are flagged, frozen to the
    box center, and carried along so results stay aligned; they are never raised here.
    """
    n = cs.n
    if driver.n != n:
        raise DimensionMismatch(f"driver dimension {driver.n} != coefficient dimension {n}")
    dt = float(driver.dt)
    num_steps = int(num_steps)
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")

    box = box if box is not None else cs.box
    if box is None:
        raise ValueError("no label box: pass box= or assemble coefficients with one")
    if box.dim != n:
        raise DimensionMismatch(f"box dimension {box.dim} != coefficient dimension {n}")

    axes = _normalize_label_axes(labels, n)
    pts = mesh_points(axes)  # (L, n)
    L = pts.shape[0]
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    if not (np.all(pts >= lo) and np.all(pts <= hi)):
        raise ValueError("label grid extends outside the label box")

    horizon = num_steps * dt
    padded = box.padded(escape_margin(cs.nu, horizon))
    plo = np.asarray(padded.lo)
    phi = np.asarray(padded.hi)
    center = np.array(box.center)

    store = sorted({int(i) for i in store_indices})
    if not store:
        raise ValueError("store_indices must be nonempty")
    if store[0] < 0 or store[-1] > num_steps:
        raise ValueError(f"store_indices must lie in [0, {num_steps}]")
    slot_of = {idx: s for s, idx in enumerate(store)}
    S = len(store)

    r_idx = np.asarray(list(realization_indices), dtype=np.int64)
    R = r_idx.size
    if R < 1:
        raise ValueError("need at least one realization index")
    inc = driver.increments_block(r_idx, num_steps)  # (R, K, n)

    X = np.broadcast_to(pts, (R, L, n)).copy()
    J = np.broadcast_to(np.eye(n), (R, L, n, n)).copy()
    D = np.ones((R, L))
    logL = np.zeros((R, L))
    logI = np.zeros((R, L))
    alive = np.ones(R, dtype=bool)
    escaped = np.zeros(R, dtype=bool)
    nonfinite = np.zeros(R, dtype=bool)
    degenerate = np.zeros(R, dtype=bool)

    Xs = np.empty((S, R, L, n))
    Ds = np.empty((S, R, L))
    logLs = np.empty((S, R, L))
    logIs = np.empty((S, R, L))
    Ddir = np.empty((S, R, L))

    def freeze(dead_mask: np.ndarray) -> None:
        X[dead_mask] = center
        J[dead_mask] = np.eye(n)
        D[dead_mask] = 1.0
        logL[dead_mask] = 0.0
        logI[dead_mask] = 0.0

    def snapshot(slot: int) -> None:
        Xs[slot] = X
        Ds[slot] = D
        logLs[slot] = logL
        logIs[slot] = logI
        dd = _det_stack(J)
        Ddir[slot] = dd
        # Judge tracker health only on live realizations.
        bad_det = alive & np.any(dd <= 0.0, axis=1)
        if bad_det.any():
            degenerate[bad_det] = True
        fin = (
            np.isfinite(J).all(axis=(1, 2, 3))
            & np.isfinite(D).all(axis=1)
            & np.isfinite(logL).all(axis=1)
            & np.isfinite(logI).all(axis=1)
        )
        bad_fin = alive & ~fin
        if bad_fin.any():
            nonfinite[bad_fin] = True
            alive[bad_fin] = False
            freeze(~alive)

    stepper = _Stepper(cs, dt, X, J, D, logL, logI)
    if 0 in slot_of:
        snapshot(slot_of[0])

    for k in range(num_steps):
        stepper.step(k * dt, inc[:, k, :])
        J = stepper.J
        # A row inside the (finite) padded box is finite, so only rows that left
        # it need the finiteness test that tells a blow-up from an escape.
        inside = ((X >= plo) & (X <= phi)).all(axis=(1, 2))  # False wherever X is NaN
        left = alive & ~inside
        if left.any():
            rows = np.flatnonzero(left)
            fin = np.isfinite(X[rows]).all(axis=(1, 2))
            nonfinite[rows[~fin]] = True
            escaped[rows[fin]] = True
            alive &= inside
        dead = ~alive
        if dead.any():
            freeze(dead)
        slot = slot_of.get(k + 1)
        if slot is not None:
            snapshot(slot)

    times = np.array([i * dt for i in store])
    return BatchResult(
        label_axes=axes,
        labels=pts,
        label_shape=tuple(ax.size for ax in axes),
        times=times,
        time_indices=np.array(store, dtype=np.int64),
        dt=dt,
        num_steps=num_steps,
        realization_indices=r_idx,
        X=Xs,
        D_sde=Ds,
        log_lambda=logLs,
        log_I=logIs,
        D_direct=Ddir,
        alive=alive,
        escaped=escaped,
        nonfinite=nonfinite,
        degenerate=degenerate,
        box=box,
        padded_box=padded,
    )


# ---------------------------------------------------------------------------
# Chunked parallel execution (deterministic reduction order)
# ---------------------------------------------------------------------------


def run_chunks(
    realization_indices,
    worker: Callable,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    threads: int = 1,
) -> list:
    """Run ``worker(chunk_of_indices)`` over fixed-size chunks, results in chunk order.

    Chunk boundaries depend only on ``chunk_size`` and every realization owns a
    counter-based RNG stream, so outputs are identical for any ``threads`` value;
    consumers must reduce over the returned list in order.
    """
    idx = np.asarray(list(realization_indices), dtype=np.int64)
    if idx.size == 0:
        return []
    chunk_size = max(1, int(chunk_size))
    chunks = [idx[i : i + chunk_size] for i in range(0, idx.size, chunk_size)]
    if threads <= 1 or len(chunks) == 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        futures = [pool.submit(worker, c) for c in chunks]
        return [f.result() for f in futures]
