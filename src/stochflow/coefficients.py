"""Coefficient fields of the transport operator and everything derived from them.

The generator acted on densities is, in divergence form,

    L f = nu * d_i(a_ij d_j f) - div(U f) + V f,        a = sigma sigma^T,

and the path representation uses the effective drift

    v_j = u_j + 2 nu (d_k sigma_jp) sigma_kp,
    u_j = U_j - nu d_i(a_ij),           P = V - div U.

:func:`assemble` parses the user's sigma / U / V expressions and symbolically builds
every derived field the samplers need: first derivatives of sigma and U, a, u, v,
grad v, div v, P, the column divergences of sigma, and the noise-geometry scalar E
(the summed 2x2 minors of the sigma gradient).  The drift v is built from the
expanded identity

    v_j = U_j + nu sum_{k,p} (sigma_kp d_k sigma_jp - d_k sigma_kp sigma_jp),

which is algebraically u_j + 2 nu (d_k sigma_jp) sigma_kp.  For a 1x1 or diagonal
sigma every term of the sum is a product with a zero entry or cancels its partner
(``sigma d sigma - d sigma sigma``), so the step compiler can fold v to exactly U
and its derivatives to those of U, instead of relying on ``(U - y) + y`` to round
back to U.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import fields as F
from .errors import DimensionMismatch
from .fields import FieldExpr, differentiate, eval_batch, parse_field
from .grids import Box

__all__ = [
    "CoefficientSet",
    "CoefficientSample",
    "assemble",
    "sample",
    "min_diffusion_eigenvalue",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Parsed coefficients plus symbolic derived fields.

    Index conventions (all tuples-of-tuples, row-major):
      sigma[j][p]        sigma_{jp}
      dsigma[k][j][p]    d_k sigma_{jp}
      dU[k][j]           d_k U_j
      a[i][j]            (sigma sigma^T)_{ij}
      dv[k][j]           d_k v_j
      div_sigma[p]       d_k sigma_{kp} (summed over k)
    """

    n: int
    nu: float
    sigma: tuple
    U: tuple
    V: FieldExpr
    dsigma: tuple
    dU: tuple
    a: tuple
    u: tuple
    v: tuple
    dv: tuple
    div_v: FieldExpr
    P: FieldExpr
    E: FieldExpr
    div_sigma: tuple
    box: Box | None = None

    def depends_on_time(self) -> bool:
        exprs = [self.V, *self.U]
        for row in self.sigma:
            exprs.extend(row)
        return any(e.depends_on_time() for e in exprs)

    def with_box(self, box: Box) -> "CoefficientSet":
        if box.dim != self.n:
            raise DimensionMismatch("box dimension does not match coefficients")
        return dataclasses.replace(self, box=box)


@dataclass
class CoefficientSample:
    """All coefficient fields evaluated at one space-time point."""

    x: np.ndarray
    t: float
    sigma: np.ndarray  # (n, n)
    dsigma: np.ndarray  # (n, n, n), [k, j, p] = d_k sigma_jp
    U: np.ndarray  # (n,)
    dU: np.ndarray  # (n, n), [k, j] = d_k U_j
    V: float
    a: np.ndarray  # (n, n)
    u: np.ndarray  # (n,)
    v: np.ndarray  # (n,)
    dv: np.ndarray  # (n, n), [k, j] = d_k v_j
    div_v: float
    P: float
    E: float
    div_sigma: np.ndarray  # (n,)


def _as_field(src, n: int) -> FieldExpr:
    if isinstance(src, FieldExpr):
        if src.dim != n:
            raise DimensionMismatch(
                f"field has dimension {src.dim}, expected {n}"
            )
        return src
    return parse_field(str(src), n)


def assemble(sigma, U, V, nu: float, n: int, box: Box | None = None) -> CoefficientSet:
    """Parse and differentiate the coefficient fields for an n-dimensional problem.

    ``sigma`` must be a square n x n matrix of expression strings (or FieldExpr);
    rectangular noise matrices are rejected.  ``U`` is a length-n vector, ``V`` a
    scalar.  ``nu`` must be positive.
    """
    n = int(n)
    if not (1 <= n <= F.MAX_DIMENSION):
        raise DimensionMismatch(f"dimension must be 1..{F.MAX_DIMENSION}, got {n}")
    nu = float(nu)
    if not (nu > 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    if box is not None and box.dim != n:
        raise DimensionMismatch("box dimension does not match n")

    sigma = list(sigma)
    if len(sigma) != n or any(len(row) != len(sigma) for row in sigma):
        raise DimensionMismatch(
            f"sigma must be a square {n}x{n} matrix of fields"
        )
    sig = tuple(tuple(_as_field(e, n) for e in row) for row in sigma)
    U = list(U)
    if len(U) != n:
        raise DimensionMismatch(f"U must have {n} components")
    Uf = tuple(_as_field(e, n) for e in U)
    Vf = _as_field(V, n)

    dsig = tuple(
        tuple(tuple(differentiate(sig[j][p], k + 1) for p in range(n)) for j in range(n))
        for k in range(n)
    )
    dU = tuple(tuple(differentiate(Uf[j], k + 1) for j in range(n)) for k in range(n))

    # a_ij = sum_p sigma_ip sigma_jp
    a_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = sig[i][0] * sig[j][0]
            for p in range(1, n):
                acc = acc + sig[i][p] * sig[j][p]
            row.append(acc)
        a_rows.append(tuple(row))
    a = tuple(a_rows)

    # u_j = U_j - nu * sum_i d_i a_ij
    u = []
    for j in range(n):
        div_a_j = differentiate(a[0][j], 1)
        for i in range(1, n):
            div_a_j = div_a_j + differentiate(a[i][j], i + 1)
        u.append(Uf[j] - nu * div_a_j)
    u = tuple(u)

    # v_j = u_j + 2 nu (d_k sigma_jp) sigma_kp, expanded:
    # v_j = U_j + nu sum_{k,p} (sigma_kp d_k sigma_jp - d_k sigma_kp sigma_jp)
    v = []
    for j in range(n):
        corr = None
        for k in range(n):
            for p in range(n):
                term = sig[k][p] * dsig[k][j][p] - dsig[k][k][p] * sig[j][p]
                corr = term if corr is None else corr + term
        v.append(Uf[j] + nu * corr)
    v = tuple(v)

    dv = tuple(tuple(differentiate(v[j], k + 1) for j in range(n)) for k in range(n))
    div_v = dv[0][0]
    for j in range(1, n):
        div_v = div_v + dv[j][j]

    # P = V - div U
    div_U = dU[0][0]
    for j in range(1, n):
        div_U = div_U + dU[j][j]
    P = Vf - div_U

    # E: sum over p and i<j of det [[d_i sigma_ip, d_i sigma_jp],
    #                              [d_j sigma_ip, d_j sigma_jp]]
    E = F.constant_field(0.0, n)
    for p in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                minor = dsig[i][i][p] * dsig[j][j][p] - dsig[i][j][p] * dsig[j][i][p]
                E = E + minor

    div_sigma = []
    for p in range(n):
        acc = dsig[0][0][p]
        for k in range(1, n):
            acc = acc + dsig[k][k][p]
        div_sigma.append(acc)
    div_sigma = tuple(div_sigma)

    return CoefficientSet(
        n=n,
        nu=nu,
        sigma=sig,
        U=Uf,
        V=Vf,
        dsigma=dsig,
        dU=dU,
        a=a,
        u=u,
        v=v,
        dv=dv,
        div_v=div_v,
        P=P,
        E=E,
        div_sigma=div_sigma,
        box=box,
    )


def _eval_grid(exprs, comps, t, memo):
    """Evaluate a nested tuple structure of FieldExpr into a float ndarray."""
    flat = []

    def walk(obj):
        if isinstance(obj, FieldExpr):
            flat.append(float(eval_batch(obj, comps, t, memo)))
            return None
        return [walk(e) for e in obj]

    def shape_of(obj):
        if isinstance(obj, FieldExpr):
            return ()
        return (len(obj),) + shape_of(obj[0])

    shp = shape_of(exprs)
    walk(exprs)
    return np.array(flat, dtype=float).reshape(shp)


def sample(cs: CoefficientSet, x, t: float = 0.0) -> CoefficientSample:
    """Evaluate every stored field at one point (validated against the box if set)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (cs.n,):
        raise DimensionMismatch(f"point must have shape ({cs.n},)")
    if cs.box is not None and not cs.box.contains(x):
        raise ValueError(f"point {x.tolist()} lies outside the declared box")
    comps = tuple(float(c) for c in x)
    memo: dict = {}
    return CoefficientSample(
        x=x,
        t=float(t),
        sigma=_eval_grid(cs.sigma, comps, t, memo),
        dsigma=_eval_grid(cs.dsigma, comps, t, memo),
        U=_eval_grid(cs.U, comps, t, memo),
        dU=_eval_grid(cs.dU, comps, t, memo),
        V=float(eval_batch(cs.V, comps, t, memo)),
        a=_eval_grid(cs.a, comps, t, memo),
        u=_eval_grid(cs.u, comps, t, memo),
        v=_eval_grid(cs.v, comps, t, memo),
        dv=_eval_grid(cs.dv, comps, t, memo),
        div_v=float(eval_batch(cs.div_v, comps, t, memo)),
        P=float(eval_batch(cs.P, comps, t, memo)),
        E=float(eval_batch(cs.E, comps, t, memo)),
        div_sigma=_eval_grid(cs.div_sigma, comps, t, memo),
    )


def min_diffusion_eigenvalue(
    cs: CoefficientSet, box: Box, t_values=(0.0,), samples_per_axis: int = 9
) -> float:
    """Smallest eigenvalue of a = sigma sigma^T over a sample lattice in ``box``.

    Emits a degenerate-diffusion warning below 1e-8 (the flow can still run, but
    inversion may hit flat cells).
    """
    axes = [np.linspace(box.lo[k], box.hi[k], samples_per_axis) for k in range(cs.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    comps = tuple(pts[:, k] for k in range(cs.n))
    worst = np.inf
    for t in t_values:
        memo: dict = {}
        a = np.empty((pts.shape[0], cs.n, cs.n))
        for i in range(cs.n):
            for j in range(cs.n):
                a[:, i, j] = np.broadcast_to(
                    eval_batch(cs.a[i][j], comps, float(t), memo), (pts.shape[0],)
                )
        eigs = np.linalg.eigvalsh(a)
        worst = min(worst, float(eigs.min()))
    if worst < 1e-8:
        warnings.warn(
            f"diffusion matrix is nearly degenerate: min eigenvalue {worst:.3e}",
            stacklevel=2,
        )
    return worst
