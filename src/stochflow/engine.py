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
formulas in their order.  The compiler is told that every coordinate lies in the padded
box and the time in [0, num_steps*dt], and folds what provably vanishes there: for a
1D or diagonal sigma the noise-induced part of the drift v and the field E are exactly
0, so v reads U and every term they feed is skipped, as is any other term whose
coefficient is a constant exact zero.  That makes trivial cases (identity sigma, zero
drift) nearly free.  A value that may overflow or fail a domain check is never folded.

The state is one mapping keyed by the ``_STATE`` names, which the step program's
inputs share.  A pass advances only what its snapshot fields need (``_advanced_state``):
X and ``log_I`` always, ``J`` only for ``D_direct``, each tracker only when kept; the
compiler's liveness pass then drops the coefficient subtrees only the rest would read.

Realizations whose chart leaves the padded integration box, or whose ``log_I``
turns non-finite at a stored time, are flagged and their rows reset (X to the box
center) so the remaining batch can continue without domain errors; consumers must drop
flagged realizations.  The flags are judged on X every step and on ``log_I`` at the
stored times, never on the trackers, so they depend only on the path, the labels,
dt and the number of steps.  A tracker that overflows is stored as it is, for its
consumer's gate to fail.

A chunk holds only its working set.  Each realization's increments are drawn
``INCREMENT_BLOCK_STEPS`` steps at a time into one reused buffer, from a generator
per realization that carries on from block to block (``BrownianDriver.streams``),
so the bits are those of one draw of the whole horizon, which is never held.  A
snapshot keeps only the fields its caller names (``fields=``), so several checks
can share one pass over a chunk: each realization's rows depend only on its own
Brownian path, the labels, dt and the number of steps (which sets the padded box and
the fold bounds), never on the other realizations in the chunk or the times stored.
``run_chunks`` drives such a pass chunk by chunk; ``chunk_size_for`` sizes its
default chunk so that the working set (``realization_bytes`` per realization) fits
``CHUNK_BYTES``.  ``step_indices`` places output times on the step grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .brownian import BrownianDriver
from .coefficients import CoefficientSet
from .errors import DimensionMismatch
from .fields import COLUMN, FIELD, Program, ProgramCompiler
# Unused here; kept importable because the benchmark's span tracer patches engine.eval_batch.
from .fields import eval_batch  # noqa: F401
from .grids import Box, mesh_points, stored_time_slot

__all__ = [
    "BatchResult",
    "simulate_paths",
    "run_chunks",
    "escape_margin",
    "step_indices",
    "SNAPSHOT_FIELDS",
    "CHUNK_BYTES",
    "INCREMENT_BLOCK_STEPS",
    "STREAM_BYTES",
    "realization_bytes",
    "chunk_capacity",
    "chunk_size_for",
]

# Working-set budget of one chunk of a simulation pass (see chunk_size_for).
CHUNK_BYTES = 8 * 2**20

# Steps of Brownian increments drawn at a time.  Each block costs one generator
# call per realization (about 1 us, against about 25 ns per normal drawn), so
# 128 steps keep the calls under a tenth of the drawing.
INCREMENT_BLOCK_STEPS = 128

# Memory of one realization's generator (``BrownianDriver.streams``): about 0.8 KiB
# under tracemalloc, rounded up.
STREAM_BYTES = 1024

# The per-label arrays a snapshot can keep.
SNAPSHOT_FIELDS = ("X", "D_sde", "log_lambda", "log_I", "D_direct")

# The state a step can advance.
_STATE = ("X", "J", "D_sde", "log_lambda", "log_I")


def _label_shape(name: str, n: int) -> tuple:
    """Per-label shape of a state or snapshot value: X is (n,), J is (n, n), the rest scalars."""
    return {"X": (n,), "J": (n, n)}.get(name, ())


# Number of diffusive standard deviations sqrt(2*nu*T) added around the label box to
# form the integration domain; leaving it counts as an escape.
ESCAPE_MARGIN_SIGMAS = 6.0


def escape_margin(nu: float, horizon: float) -> float:
    """Padding width around the label box for escape detection."""
    return ESCAPE_MARGIN_SIGMAS * float(np.sqrt(max(2.0 * nu * horizon, 0.0)))


def _advanced_state(fields=None) -> tuple:
    """The state a pass keeping the snapshot ``fields`` (default all) advances.

    X and log_I always; J only for D_direct; D_sde and log_lambda only when kept.
    """
    kept = SNAPSHOT_FIELDS if fields is None else fields
    need = {"X", "log_I", *kept, *(("J",) if "D_direct" in kept else ())}
    return tuple(name for name in _STATE if name in need)


def realization_bytes(
    num_labels: int, n: int, num_stored: int, fields=None, field_buffers: int = 0
) -> int:
    """Bytes that one realization adds to the working set of a chunk.

    Per label, one float64 for each advanced state value (``_advanced_state``), for
    each of the step program's ``field_buffers`` and for each kept snapshot field
    (``fields``, default all of them) at each of ``num_stored`` times; plus its row
    of the increment block and its generator.
    """
    kept = SNAPSHOT_FIELDS if fields is None else fields
    state = sum(math.prod(_label_shape(name, n)) for name in _advanced_state(kept))
    widths = sum(math.prod(_label_shape(name, n)) for name in kept)
    return (8 * (num_labels * (state + field_buffers + widths * num_stored)
                 + INCREMENT_BLOCK_STEPS * n) + STREAM_BYTES)


def chunk_capacity(per_realization: int) -> int:
    """How many realizations of ``per_realization`` bytes fit the chunk budget."""
    return CHUNK_BYTES // int(per_realization)


def chunk_size_for(
    cs: CoefficientSet, labels, dt: float, num_steps: int, num_stored: int, fields,
    realizations: int, box: Box | None = None,
) -> int:
    """Default chunk of a pass: no more realizations than fit the chunk budget.

    The arguments are those of the pass's ``simulate_paths`` calls; its step program
    is compiled here to count the field buffers.  The realizations are split into as
    few chunks as the budget allows, of equal size up to rounding, so no short last
    chunk is left over.  At least 1, at most ``realizations``.
    """
    box = box if box is not None else cs.box
    num_labels = _label_points(labels, cs.n)[1].shape[0]
    horizon = int(num_steps) * float(dt)
    padded = box.padded(escape_margin(cs.nu, horizon))
    program = _compile_step(
        cs, float(dt), tuple(zip(padded.lo, padded.hi)), (0.0, horizon), _advanced_state(fields)
    )
    per = realization_bytes(num_labels, cs.n, num_stored, fields, program.counts[FIELD])
    realizations = max(1, int(realizations))
    chunks = -(-realizations // max(1, chunk_capacity(per)))
    return -(-realizations // chunks)


def step_indices(times, dt: float) -> list[int]:
    """Step index i of every time t = i*dt, in the given order.

    Raises ValueError for a step dt that is not positive, for a time that is not a
    finite multiple of dt, and for a time that is negative or off the dt step grid.
    """
    if not dt > 0:
        raise ValueError(f"the step dt={dt!r} must be positive")
    idx = []
    for t in times:
        t = float(t)
        if not np.isfinite(t / dt):
            raise ValueError(f"time {t!r} is not a finite number of dt={dt} steps")
        i = int(round(t / dt))
        if i < 0 or abs(i * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} does not lie on the dt={dt} step grid")
        idx.append(i)
    return idx


# ---------------------------------------------------------------------------
# Batch step kernel
# ---------------------------------------------------------------------------


def _compile_step(
    cs: CoefficientSet, dt: float, coord_bounds, time_bounds, state=_STATE
) -> Program:
    """One Euler–Maruyama step of the ``state`` (default all of it) as a straight-line
    program.

    Left-endpoint evaluation: every coefficient is read at the pre-step position and
    time.  The state is updated in place, so each write is emitted after every read
    of the value it overwrites: column i of the new J reads only column i of the old
    one, and J[j][i] is written once every product that reads it is computed; the
    positions, which every coefficient reads, are written last.  The floating-point
    operations and their order are those of the plain update formulas, term by term;
    a term is skipped only when its coefficient compiles to a constant exact zero,
    decided here once.  The caller promises that every step starts with the
    coordinates in ``coord_bounds`` and the time in ``time_bounds``; the compiler
    folds to zero only what is provably zero there (``fields.ProgramCompiler``).
    Only the names in ``state`` are written; X and log_I must be among them.  Every
    coefficient is still compiled, so its domain checks stay whatever is advanced,
    and ``build`` drops the ops that only the writes left out would read.
    """
    n = cs.n
    b = ProgramCompiler(n, coord_bounds, time_bounds)
    f = b.field
    dW = [b.input(("dW", p), COLUMN) for p in range(n)]
    J = [[b.input(("J", j, i)) for i in range(n)] for j in range(n)]
    D, logL, logI = b.input("D_sde"), b.input("log_lambda"), b.input("log_I")
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
    if "J" in state:
        for i in range(n):
            # Row j's terms and every product that reads J[j][i], then row j's writes:
            # fewer products are live at once than if the whole column came first.
            product = {}
            for j in range(n):
                for l, k in [(j, k) for k in range(n)] + [(l, j) for l in range(n)]:
                    if M[l][k] is not None and (l, k) not in product:
                        product[l, k] = b.mul(M[l][k], J[k][i])
                for k in range(n):
                    if M[j][k] is not None:
                        b.write(J[j][i], "add", J[j][i], product[j, k])

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
    if "D_sde" in state and (drift is not None or noise_sum is not None):
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
    if "log_lambda" in state and lam_inc is not None:
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
    return b.build()


def _all_inside(X: np.ndarray, lo_max: float, hi_min: float) -> bool:
    """True when every coordinate of X lies in [lo_max, hi_min], the tightest of the
    box's axis ranges: then every row is inside the box.  Two reductions settle the
    common step; NaN fails both comparisons.  False says nothing about single rows.
    """
    return bool(X.min() >= lo_max and X.max() <= hi_min)


def _rows_inside(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows of X (R, L, n) lie in the box [lo, hi] (False wherever X is NaN)."""
    return ((X >= lo) & (X <= hi)).all(axis=(1, 2))


def _det_stack(J: np.ndarray) -> np.ndarray:
    """Determinant over the last two axes of a 1x1 or 2x2 stack, in closed form."""
    if J.shape[-1] == 1:
        return J[..., 0, 0].copy()
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


# ---------------------------------------------------------------------------
# Batch simulation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BatchResult:
    """Snapshots of a chunk of realizations over a common label grid or point set.

    Leading axes of the arrays: (stored time, realization, label).  A snapshot field
    the simulation was not asked to keep is None.  For a tensor grid
    ``label_axes`` holds the per-axis nodes and ``label_shape`` their sizes; for a
    point set (``labels`` given as an (L, n) array) ``label_axes`` is None and
    ``label_shape`` is (L,), and no chart can be built from the result.  ``alive`` marks
    realizations that stayed finite and inside the padded box for the whole run;
    consumers must discard the rest (``escaped`` / ``nonfinite`` say why).
    """

    label_axes: tuple | None  # tuple of 1D arrays; None for a point set
    labels: np.ndarray  # (L, n)
    label_shape: tuple
    times: np.ndarray  # (S,)
    dt: float
    num_steps: int
    realization_indices: np.ndarray  # (R,)
    X: np.ndarray | None  # (S, R, L, n)
    D_sde: np.ndarray | None  # (S, R, L)
    log_lambda: np.ndarray | None  # (S, R, L)
    log_I: np.ndarray | None  # (S, R, L)
    D_direct: np.ndarray | None  # (S, R, L)
    alive: np.ndarray  # (R,) bool
    escaped: np.ndarray  # (R,) bool
    nonfinite: np.ndarray  # (R,) bool
    box: Box  # label box

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
        return stored_time_slot(self.times, t)

    def head(self, count: int) -> "BatchResult":
        """The first ``count`` realizations of the chunk, as views."""
        per_time = {
            name: None if getattr(self, name) is None else getattr(self, name)[:, :count]
            for name in SNAPSHOT_FIELDS
        }
        per_realization = {
            name: getattr(self, name)[:count]
            for name in ("realization_indices", "alive", "escaped", "nonfinite")
        }
        return replace(self, **per_time, **per_realization)


def _label_points(labels, n: int) -> tuple:
    """(label axes or None, (L, n) label points, label shape) of a grid or point set."""
    if isinstance(labels, np.ndarray) and labels.ndim == 2:
        if labels.shape[1] != n:
            raise DimensionMismatch(f"label points have {labels.shape[1]} components, expected {n}")
        if labels.shape[0] < 1:
            raise ValueError("the label point set must be nonempty")
        pts = np.array(labels, dtype=float)
        if not np.all(np.isfinite(pts)):
            raise ValueError("label points contain non-finite entries")
        return None, pts, (pts.shape[0],)
    if not isinstance(labels, (tuple, list)):
        raise TypeError("labels must be a tuple/list of 1D axis arrays or an (L, n) point array")
    axes = tuple(np.asarray(ax, dtype=float).reshape(-1) for ax in labels)
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
    axes = tuple(out)
    return axes, mesh_points(axes), tuple(ax.size for ax in axes)


def simulate_paths(
    cs: CoefficientSet,
    labels,
    num_steps: int,
    store_indices: Sequence[int],
    driver: BrownianDriver,
    realization_indices,
    box: Box | None = None,
    fields=None,
) -> BatchResult:
    """Advance a chunk of realizations over a label grid or point set, storing snapshots.

    ``labels``: tuple of per-axis 1D arrays (rectangular label grid), or an (L, n)
    array of label points.  Every label is advanced independently of the others under
    the shared noise, so a point set gives the same bits as the matching columns of a
    grid that contains those points; only the alive/escaped/nonfinite flags differ, as
    they are judged over the labels simulated.  ``store_indices``: step indices (0 =
    initial state) at which snapshots are kept.  ``fields``: the names in
    ``SNAPSHOT_FIELDS`` to keep (default: all of them); the others are None in the
    result, and only the state they need is advanced.  The flags are judged on X every
    step and on log_I at the stored times, whatever is kept; a non-finite tracker is
    stored as it is.  The step size is ``driver.dt``; the increments are drawn a block
    of steps at a time.  Escaped / non-finite realizations are flagged, frozen to the
    box center every step, and carried along so results stay aligned; they are never
    raised here.
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

    axes, pts, label_shape = _label_points(labels, n)  # pts: (L, n)
    L = pts.shape[0]
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    if not (np.all(pts >= lo) and np.all(pts <= hi)):
        raise ValueError("labels extend outside the label box")

    horizon = num_steps * dt
    padded = box.padded(escape_margin(cs.nu, horizon))
    plo = np.asarray(padded.lo)
    phi = np.asarray(padded.hi)

    store = sorted({int(i) for i in store_indices})
    if not store:
        raise ValueError("store_indices must be nonempty")
    if store[0] < 0 or store[-1] > num_steps:
        raise ValueError(f"store_indices must lie in [0, {num_steps}]")
    slot_of = {idx: s for s, idx in enumerate(store)}
    S = len(store)
    kept = SNAPSHOT_FIELDS if fields is None else tuple(fields)
    unknown = set(kept) - set(SNAPSHOT_FIELDS)
    if unknown:
        raise ValueError(f"unknown snapshot fields {sorted(unknown)}; known: {SNAPSHOT_FIELDS}")

    r_idx = np.asarray(list(realization_indices), dtype=np.int64)
    R = r_idx.size
    if R < 1:
        raise ValueError("need at least one realization index")
    # Each realization's stream, drawn a block of steps at a time into one buffer;
    # a shorter last block fills the front of it, C-ordered like a full one.
    streams = driver.streams(r_idx)
    block = min(num_steps, INCREMENT_BLOCK_STEPS)
    buffer = np.empty(R * block * n)

    # The advanced state, from the start values (X from the labels).  np.zeros keeps
    # the pages of a value that starts at 0 out of memory until a step writes them;
    # log_I stays 0 for the whole run when the growth coefficient is 0.  A dropped
    # realization's rows are reset to the start values.
    start = {"X": np.array(box.center), "J": np.eye(n), "D_sde": 1.0,
             "log_lambda": 0.0, "log_I": 0.0}
    state = {name: np.zeros((R, L) + _label_shape(name, n)) for name in _advanced_state(kept)}
    X, log_I = state["X"], state["log_I"]
    alive = np.ones(R, dtype=bool)
    escaped = np.zeros(R, dtype=bool)
    nonfinite = np.zeros(R, dtype=bool)

    snaps = {name: np.empty((S, R, L) + _label_shape(name, n)) for name in kept}

    def reset(rows) -> None:
        for name, arr in state.items():
            arr[rows] = start[name]

    for name, arr in state.items():
        if np.any(start[name]):
            arr[...] = start[name]
    X[...] = pts

    def snapshot(slot: int) -> None:
        for name, arr in snaps.items():
            arr[slot] = _det_stack(state["J"]) if name == "D_direct" else state[name]
        # X is inside the box, so finite, after every step; log_I is judged here.
        bad_fin = alive & ~np.isfinite(log_I).all(axis=1)
        if bad_fin.any():
            nonfinite[bad_fin] = True
            alive[bad_fin] = False
            reset(~alive)

    # Every step starts with each row inside the padded box or frozen at the box
    # center, at a time in [0, horizon]: the bounds the step program may fold under.
    program = _compile_step(cs, dt, tuple(zip(plo, phi)), (0.0, horizon), tuple(state))
    dW = np.empty((n, R, 1))
    inputs = {("x", k): X[..., k] for k in range(n)}
    inputs.update({("dW", p): dW[p] for p in range(n)})
    if "J" in state:
        inputs.update({("J", j, i): state["J"][..., j, i] for j in range(n) for i in range(n)})
    inputs.update({name: arr for name, arr in state.items() if arr.ndim == 2})
    step = program.bind(inputs, (R, L)).run
    if 0 in slot_of:
        snapshot(slot_of[0])
    lo_max, hi_min = plo.max(), phi.min()
    some_dead = not alive.all()

    for k in range(num_steps):
        j = k % block
        if j == 0:
            steps = min(block, num_steps - k)
            out = buffer[: R * steps * n].reshape(R, steps, n)
            inc = driver.increments_block(r_idx, steps, streams, out=out)
        np.copyto(dW[..., 0], inc[:, j, :].T)
        step(k * dt)
        # A row inside the (finite) padded box is finite, so only rows that left
        # it need the finiteness test that tells a blow-up from an escape.
        if not _all_inside(X, lo_max, hi_min):
            inside = _rows_inside(X, plo, phi)
            left = alive & ~inside
            if left.any():
                rows = np.flatnonzero(left)
                fin = np.isfinite(X[rows]).all(axis=(1, 2))
                nonfinite[rows[~fin]] = True
                escaped[rows[fin]] = True
                alive &= inside
                some_dead = True
        # The step moved the dead rows too: put them back every step.
        if some_dead:
            reset(~alive)
        slot = slot_of.get(k + 1)
        if slot is not None:
            snapshot(slot)
            some_dead = not alive.all()

    times = np.array([i * dt for i in store])
    return BatchResult(
        label_axes=axes,
        labels=pts,
        label_shape=label_shape,
        times=times,
        dt=dt,
        num_steps=num_steps,
        realization_indices=r_idx,
        **{name: snaps.get(name) for name in SNAPSHOT_FIELDS},
        alive=alive,
        escaped=escaped,
        nonfinite=nonfinite,
        box=box,
    )


# ---------------------------------------------------------------------------
# Chunked parallel execution (deterministic reduction order)
# ---------------------------------------------------------------------------


def run_chunks(
    realization_indices,
    worker: Callable,
    chunk_size: int,
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
