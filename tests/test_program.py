"""Compiled field programs against the tree-walking evaluator, bit for bit.

The engine evaluates its coefficient fields through a program built by
``ProgramCompiler``; ``eval_batch`` is the reference.  Results are compared as
raw bytes, so a reordered operation or a different ufunc path would show.
"""

import numpy as np
import pytest

from conftest import make_coeffs
from stochflow.brownian import BrownianDriver
from stochflow.config import bundled_scenario_path, bundled_scenarios, load_config
from stochflow.engine import simulate_paths
from stochflow.errors import DomainError
from stochflow.fields import ProgramCompiler, eval_batch, parse_field
from stochflow.grids import Box


def engine_fields(cs) -> list:
    """Every field the Euler–Maruyama step reads."""
    n = cs.n
    out = [cs.sigma[j][p] for j in range(n) for p in range(n)]
    out += list(cs.v)
    out += [cs.dv[k][j] for k in range(n) for j in range(n)]
    out += [cs.dsigma[k][j][p] for k in range(n) for j in range(n) for p in range(n)]
    out += [cs.div_v, cs.E, *cs.div_sigma, cs.P]
    return out


def _bits(value, shape) -> bytes:
    return np.ascontiguousarray(np.broadcast_to(np.asarray(value, dtype=float), shape)).tobytes()


def assert_program_matches_eval_batch(fields, n, lo, hi, times, seed=0):
    rng = np.random.default_rng(seed)
    R, L = 7, 13
    # Coordinates are strided views of one (R, L, n) array, as in the engine.
    X = rng.uniform(lo, hi, size=(R, L, n))
    comps = tuple(X[..., k] for k in range(n))
    compiler = ProgramCompiler(n)
    slots = [compiler.field(fe) for fe in fields]
    bound = compiler.build(outputs=slots).bind({("x", k): comps[k] for k in range(n)}, (R, L))
    for t in times:
        bound.run(t)
        for fe, slot in zip(fields, slots):
            expected = eval_batch(fe, comps, t)
            assert _bits(bound.value(slot), (R, L)) == _bits(expected, (R, L)), fe.pretty()


@pytest.mark.parametrize("name", bundled_scenarios())
def test_program_matches_eval_batch_on_bundled_engine_fields(name):
    cfg = load_config(str(bundled_scenario_path(name)))
    box = cfg.box
    assert_program_matches_eval_batch(
        engine_fields(cfg.coefficients), cfg.n, box.lo[0], box.hi[0], times=(0.0, 0.37)
    )


# Time-dependent sigma, U and V with integer powers 2, 3 and -1, divisions and a log.
# Coordinates are drawn from [0.5, 1.5], where every expression is defined.
HAND_MADE = dict(
    sigma=[
        ["1 + 0.3*sin(x1 - t)*cos(x2)", "0.1*t + 0.05*x2^-1"],
        ["0.2*cos(t)*x1^2", "1 + 0.1*x2^3 / (2 + t)"],
    ],
    U=["x1/(2 + cos(x2 + t))", "0.5*x2^-1 - t^2*x1"],
    V="log(1.5 + x1^2) * t + x1*x2 - x2*x1",
    nu=0.2,
    n=2,
)


def test_program_matches_eval_batch_on_hand_made_fields():
    cs = make_coeffs(**HAND_MADE)
    extra = [
        parse_field(src, 2)
        for src in (
            "x1*x2 + x2*x1",  # commutative operands share one slot
            "sin(t) / (1 + t^2)",  # a time-only scalar, division included
            "x1^2 + x1^3 + x1^-1",
            "(x2 + t)^-1 * log(x1)",
            "exp(t) * x1 - t",
            "3.5",
        )
    ]
    assert_program_matches_eval_batch(engine_fields(cs) + extra, 2, 0.5, 1.5, times=(0.0, 0.25, 1.0))


def test_commutative_operands_share_a_slot_and_time_only_nodes_are_scalars():
    compiler = ProgramCompiler(2)
    ab = compiler.field(parse_field("x1*sin(x2) + 1", 2))
    ba = compiler.field(parse_field("1 + sin(x2)*x1", 2))
    assert ab == ba
    before = len(compiler.build().ops)
    compiler.field(parse_field("cos(t)*2 + t", 2))
    program = compiler.build()
    assert len(program.ops) == before  # no array op for a time-only field
    assert len(program.scalar_ops) == 3


@pytest.mark.parametrize(
    "src, message",
    [
        ("log(x1 - 1)", "log of a non-positive value"),
        ("1 / (x1 - x1)", "division by zero"),
        ("(x1 - x1)^-2", "zero raised to a negative power"),
        ("x1 / (t - 1)", "division by zero"),  # a per-step scalar divisor
    ],
)
def test_program_raises_domain_errors(src, message):
    compiler = ProgramCompiler(1)
    slot = compiler.field(parse_field(src, 1))
    x = np.linspace(0.5, 1.5, 4).reshape(2, 2)
    bound = compiler.build(outputs=[slot]).bind({("x", 0): x}, x.shape)
    with pytest.raises(DomainError, match=message):
        bound.run(1.0)


def test_constant_domain_errors_raise_while_building():
    compiler = ProgramCompiler(1)
    with pytest.raises(DomainError, match="division by zero"):
        compiler.field(parse_field("x1 / 0", 1))


@pytest.mark.parametrize(
    "U, V, message",
    [
        ("0", "log(x1)", "log of a non-positive value"),
        ("1 / x1", "0", "division by zero"),
        ("x1^-1", "0", "zero raised to a negative power"),
    ],
)
def test_simulate_paths_raises_domain_errors(U, V, message):
    cs = make_coeffs("1", U=[U], V=V, nu=0.1, n=1, box=Box((-1.0,), (1.0,)))
    brownian = BrownianDriver(seed=1, dt=1e-3, n=1)
    with pytest.raises(DomainError, match=message):
        simulate_paths(cs, (np.array([-0.5, 0.0, 0.5]),), 5, [5], brownian, range(3))
