"""Shared fixtures and helpers for the test suite.

The helpers here build small coefficient sets and provide the random expression
generator used by the symbolic-derivative stress test.  Expected values in the
tests are either closed forms derived in place or re-computed by an independent
method (hand-rolled steps, finite differences, direct quadrature) — never bare
magic numbers.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from stochflow.coefficients import assemble
from stochflow.engine import run_chunks, simulate_paths, step_indices
from stochflow.estimators import collect_psi_samples, join_psi_samples
from stochflow.fields import FieldExpr, eval_batch, eval_points
from stochflow.grids import Box


def make_coeffs(
    sigma,
    U=None,
    V="0",
    nu: float = 0.1,
    n: int = 1,
    box: Box | None = None,
):
    """Assemble a coefficient set from expression strings with light defaults."""
    if isinstance(sigma, str):
        sigma = [[sigma]]
    if U is None:
        U = ["0"] * n
    return assemble(sigma, U, V, nu=nu, n=n, box=box)


_SAMPLED_FIELDS = (
    "sigma", "dsigma", "U", "V", "a", "v", "dv", "div_v", "P", "E", "div_sigma",
)


def coefficient_sample(cs, x, t: float = 0.0) -> SimpleNamespace:
    """Every coefficient field of ``cs`` evaluated at one space-time point.

    Nested fields keep their index order (``dsigma[k, j, p]`` is d_k sigma_jp,
    ``dv[k, j]`` is d_k v_j); scalar fields are floats.  The expression evaluator
    computes them, not the engine's compiled step program, so a hand-rolled step
    built on this sample is an independent reference.
    """
    comps = tuple(float(c) for c in np.atleast_1d(np.asarray(x, dtype=float)))
    memo: dict = {}

    def evaluate_nested(obj):
        if isinstance(obj, FieldExpr):
            return float(eval_batch(obj, comps, t, memo))
        return np.array([evaluate_nested(e) for e in obj])

    values = {name: evaluate_nested(getattr(cs, name)) for name in _SAMPLED_FIELDS}
    return SimpleNamespace(x=np.array(comps), t=float(t), **values)


def collect_psi(cs, label_axes, times, driver, f0, rho0, query_points, realizations: int,
                box: Box | None = None, chunk_size: int = 4096, threads: int = 1):
    """ψ samples of realizations ``0 .. realizations-1``, simulated chunk by chunk.

    The pipeline of a check's ψ consumer: each chunk stores X and log_I at ``times``
    and is recorded by ``collect_psi_samples``; the chunks are joined in order.
    """
    store = step_indices(times, driver.dt)

    def worker(indices):
        result = simulate_paths(cs, label_axes, store[-1], store, driver, indices, box=box,
                                fields=("X", "log_I"))
        return collect_psi_samples(result, times, f0, rho0, query_points)

    chunks = run_chunks(range(realizations), worker, chunk_size=chunk_size, threads=threads)
    return join_psi_samples(chunks)


@pytest.fixture
def box1d() -> Box:
    return Box((-4.0,), (4.0,))


@pytest.fixture
def box2d() -> Box:
    return Box((-3.0, -3.0), (3.0, 3.0))


# ---------------------------------------------------------------------------
# Random expression generator (shared by the fields tests and the acceptance
# derivative criterion).  It produces globally smooth expressions with moderate
# values and derivatives on [-1, 1]^n so that central finite differences are a
# trustworthy reference at the 1e-6 relative level:
#   * division denominators are built as (1 + s^2)  -> >= 1 everywhere,
#   * log arguments are built as (1.5 + s^2)        -> >= 1.5 everywhere,
#   * exp arguments are damped by a 0.25 factor.
# ---------------------------------------------------------------------------

_LEAF_P = 0.35


def random_expr_source(rng: np.random.Generator, dim: int, depth: int = 4, use_time: bool = True) -> str:
    """Random expression string over x1..x{dim} (and t), bounded depth."""

    def leaf() -> str:
        r = rng.random()
        if r < 0.45:
            return f"x{int(rng.integers(1, dim + 1))}"
        if use_time and r < 0.55:
            return "t"
        return f"{rng.uniform(-2.0, 2.0):.3f}"

    def build(d: int) -> str:
        if d <= 0 or rng.random() < _LEAF_P:
            return leaf()
        kind = rng.integers(0, 8)
        if kind == 0:
            return f"({build(d - 1)} + {build(d - 1)})"
        if kind == 1:
            return f"({build(d - 1)} - {build(d - 1)})"
        if kind == 2:
            return f"({build(d - 1)} * {build(d - 1)})"
        if kind == 3:
            s = build(d - 1)
            return f"({build(d - 1)} / (1 + ({s}) * ({s})))"
        if kind == 4:
            return f"(-{build(d - 1)})"
        if kind == 5:
            return f"({build(d - 1)})^{int(rng.integers(2, 4))}"
        if kind == 6:
            fn = ("sin", "cos", "tanh")[int(rng.integers(0, 3))]
            return f"{fn}({build(d - 1)})"
        sub = rng.random()
        if sub < 0.5:
            return f"exp(0.25 * ({build(d - 1)}))"
        s = build(d - 1)
        return f"log(1.5 + ({s}) * ({s}))"

    return build(depth)


def point_value(fe, x, t: float = 0.0) -> float:
    """A parsed field at one point (a coordinate sequence, or a number in 1D)."""
    return float(eval_points(fe, np.asarray(x, dtype=float).reshape(1, -1), t)[0])


def central_fd(fe, x: np.ndarray, t: float, var_index: int, h: float = 1e-5) -> float:
    """Central finite difference of a parsed field along one coordinate (or t)."""
    if var_index == -1:
        return (point_value(fe, x, t + h) - point_value(fe, x, t - h)) / (2.0 * h)
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[var_index] += h
    xm[var_index] -= h
    return (point_value(fe, xp, t) - point_value(fe, xm, t)) / (2.0 * h)


def derivative_discrepancies(
    rng: np.random.Generator,
    num_exprs: int,
    dim_choices=(1, 2, 3),
    points_per_expr: int = 3,
    value_cap: float = 1e4,
) -> list[float]:
    """Relative symbolic-vs-central-FD discrepancies over random expressions.

    Returns one worst-case relative error per accepted expression.  Sample points
    where the expression (or its shifted evaluations) exceed ``value_cap`` in
    magnitude are re-drawn so the finite-difference reference stays well
    conditioned; expressions are only counted once they yield a usable point.
    """
    from stochflow.fields import differentiate, parse_field

    rels: list[float] = []
    while len(rels) < num_exprs:
        dim = int(rng.choice(dim_choices))
        src = random_expr_source(rng, dim)
        try:
            fe = parse_field(src, dim)
        except Exception:  # pragma: no cover - generator emits only valid sources
            raise AssertionError(f"generator produced an unparsable source: {src!r}")
        derivs = [differentiate(fe, k) for k in range(1, dim + 1)]
        derivs.append(differentiate(fe, "t"))
        worst = 0.0
        accepted_points = 0
        attempts = 0
        while accepted_points < points_per_expr and attempts < 20 * points_per_expr:
            attempts += 1
            x = rng.uniform(-1.0, 1.0, size=dim)
            t = float(rng.uniform(0.0, 1.0))
            try:
                vals = [point_value(fe, x, t)]
                cand = []
                for k, dfe in enumerate(derivs):
                    var = -1 if k == dim else k
                    sym = point_value(dfe, x, t)
                    fd = central_fd(fe, x, t, var)
                    vals.extend([sym, fd])
                    cand.append(abs(sym - fd) / max(1.0, abs(sym)))
            except Exception:
                continue
            if not all(np.isfinite(vals)) or max(abs(v) for v in vals) > value_cap:
                continue
            worst = max(worst, max(cand))
            accepted_points += 1
        if accepted_points == points_per_expr:
            rels.append(worst)
    return rels
