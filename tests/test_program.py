"""Compiled field programs against the tree-walking evaluator.

The engine evaluates its coefficient fields through a program built by
``ProgramCompiler``; ``eval_batch`` is the reference.  Without bounds nothing folds
and results are compared as raw bytes, so a reordered operation or a different
ufunc path would show.  With bounds the compiler folds what provably vanishes, which
may flip the sign of a zero, so there results are compared by value.
"""

import numpy as np
import pytest

from conftest import make_coeffs, random_expr_source
from stochflow.brownian import BrownianDriver
from stochflow.config import bundled_scenario_path, bundled_scenarios, load_config
from stochflow.engine import _compile_step, escape_margin, simulate_paths
from stochflow.errors import DomainError
from stochflow.fields import FIELD, FieldExpr, ProgramCompiler, eval_batch, parse_field
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
    before = len(compiler.build(outputs=[ab]).ops)
    assert before == 9  # the 7 ops of sin's half-angle formula, x1*sin and + 1
    scalar = compiler.field(parse_field("cos(t)*2 + t", 2))
    program = compiler.build(outputs=[ab, scalar])
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
        # 0*log(x1) has no finite enclosure on the box, so it is not folded away;
        # as a drift its gradient 0*(1/x1) divides by the label at 0 first.
        ("0", "0*log(x1)", "log of a non-positive value"),
        ("0*log(x1)", "0", "division by zero"),
    ],
)
def test_simulate_paths_raises_domain_errors(U, V, message):
    cs = make_coeffs("1", U=[U], V=V, nu=0.1, n=1, box=Box((-1.0,), (1.0,)))
    brownian = BrownianDriver(seed=1, dt=1e-3, n=1)
    with pytest.raises(DomainError, match=message):
        simulate_paths(cs, (np.array([-0.5, 0.0, 0.5]),), 5, [5], brownian, range(3))


# ---------------------------------------------------------------------------
# Folds under interval enclosures
# ---------------------------------------------------------------------------


def _padded_bounds(cfg):
    padded = cfg.box.padded(escape_margin(cfg.coefficients.nu, cfg.T))
    return tuple(zip(padded.lo, padded.hi)), (0.0, cfg.T)


def _points_in(bounds, rng, shape):
    """Uniform points in ``bounds``, with the corners of the box among them."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    X = rng.uniform(lo, hi, size=shape + (len(bounds),))
    X[0, : 2 ** len(bounds)] = [
        [hi[k] if (c >> k) & 1 else lo[k] for k in range(len(bounds))]
        for c in range(2 ** len(bounds))
    ]
    return X


def assert_folded_program_equals_eval_batch(fields, bounds, time_bounds, seed=0):
    n = len(bounds)
    X = _points_in(bounds, np.random.default_rng(seed), (7, 13))
    comps = tuple(X[..., k] for k in range(n))
    compiler = ProgramCompiler(n, bounds, time_bounds)
    slots = [compiler.field(fe) for fe in fields]
    bound = compiler.build(outputs=slots).bind({("x", k): comps[k] for k in range(n)}, (7, 13))
    t0, t1 = time_bounds
    for t in (t0, 0.37 * t0 + 0.63 * t1, t1):
        bound.run(t)
        for fe, slot in zip(fields, slots):
            got = np.broadcast_to(bound.value(slot), (7, 13))
            expected = np.broadcast_to(eval_batch(fe, comps, t), (7, 13))
            assert np.array_equal(got, expected), fe.pretty()


@pytest.mark.parametrize("name", bundled_scenarios())
def test_folded_program_equals_eval_batch_on_bundled_engine_fields(name):
    cfg = load_config(str(bundled_scenario_path(name)))
    bounds, time_bounds = _padded_bounds(cfg)
    assert_folded_program_equals_eval_batch(engine_fields(cfg.coefficients), bounds, time_bounds)


def test_folded_program_equals_eval_batch_on_hand_made_fields():
    # [0.5, 1.5]^2 keeps every divisor and log argument of HAND_MADE away from 0,
    # so the enclosures are finite and the drift and E terms fold.
    cs = make_coeffs(**HAND_MADE)
    assert_folded_program_equals_eval_batch(
        engine_fields(cs), ((0.5, 1.5), (0.5, 1.5)), (0.0, 1.0)
    )


# The op and buffer counts pinned here and in the step-program table below are not
# read from the test ids, so re-recording a count keeps its test's name.  The fixed
# ids are the ones pytest derived from the counts recorded when the ids were fixed.
@pytest.mark.parametrize(
    "name, max_ops",
    [
        pytest.param("diag_sigma_2d", 68, id="diag_sigma_2d-68"),
        pytest.param("sine_sigma_1d", 25, id="sine_sigma_1d-25"),
    ],
)
def test_noise_induced_drift_and_E_fold_to_zero(name, max_ops):
    # For a 1D or diagonal sigma with U = 0, v, its gradient, div v and E are
    # exactly 0 on the padded box, so the step reads none of them.
    cfg = load_config(str(bundled_scenario_path(name)))
    cs = cfg.coefficients
    bounds, time_bounds = _padded_bounds(cfg)
    compiler = ProgramCompiler(cs.n, bounds, time_bounds)
    zeros = [*cs.v, *(cs.dv[k][j] for k in range(cs.n) for j in range(cs.n)), cs.div_v, cs.E]
    assert all(compiler.is_zero(compiler.field(fe)) for fe in zeros)
    program = _compile_step(cs, cfg.dt, bounds, time_bounds)
    assert len(program.ops) <= max_ops


@pytest.mark.parametrize(
    "name, state, ops, buffers",
    [
        pytest.param("sine_sigma_fk_1d", None, 37, 7, id="sine_sigma_fk_1d-None-37-7"),
        pytest.param("sine_sigma_fk_1d", ("X", "log_I"), 22, 3, id="sine_sigma_fk_1d-state1-22-3"),
        pytest.param("diag_sigma_2d", None, 68, 10, id="diag_sigma_2d-None-68-10"),
        pytest.param("diag_sigma_2d", ("X", "log_I"), 31, 5, id="diag_sigma_2d-state3-31-5"),
        pytest.param("heat_identity", None, 2, 0, id="heat_identity-None-2-0"),
        pytest.param("heat_identity", ("X", "log_I"), 2, 0, id="heat_identity-state5-2-0"),
        pytest.param("sine_sigma_1d", None, 25, 4, id="sine_sigma_1d-None-25-4"),
        pytest.param("sine_sigma_1d", ("X", "J", "log_I"), 19, 3, id="sine_sigma_1d-state7-19-3"),
        pytest.param("diag_sigma_2d", ("X", "J", "log_I"), 60, 9, id="diag_sigma_2d-state8-60-9"),
    ],
)
def test_the_step_program_writes_only_the_advanced_state(name, state, ops, buffers):
    # Without the tangent and tracker writes the liveness pass drops the sigma
    # derivatives, the noise divergences and every product that only they read.
    cfg = load_config(str(bundled_scenario_path(name)))
    bounds, time_bounds = _padded_bounds(cfg)
    args = (cfg.coefficients, cfg.dt, bounds, time_bounds) + ((state,) if state else ())
    program = _compile_step(*args)
    assert (len(program.ops), program.counts[FIELD]) == (ops, buffers)
    # sin and cos of one argument share one tan of the half angle.
    fns = [fn for fn, _, _ in program.ops]
    assert np.sin not in fns and np.cos not in fns
    assert fns.count(np.tan) == len(_trig_arguments(engine_fields(cfg.coefficients)))


def _trig_arguments(fields) -> set:
    """The distinct arguments of sin and cos in ``fields``."""
    nodes = {}
    for fe in fields:
        _subtrees(fe.root, nodes)
    return {id(n.children[0]) for n in nodes.values() if n.tag == "call" and n.param in ("sin", "cos")}


def test_a_value_that_may_overflow_is_not_folded():
    # exp(800*x1) overflows for x1 > 0.887: exp(..) - exp(..) is then inf - inf,
    # which must still turn the positions NaN and flag the realization.
    box = Box((-1.0,), (1.0,))
    driver = BrownianDriver(seed=1, dt=1e-3, n=1)
    labels = (np.array([-0.5, 0.0, 0.95]),)
    cs = make_coeffs("1", U=["exp(800*x1) - exp(800*x1)"], nu=0.1, n=1, box=box)
    with np.errstate(all="ignore"):
        result = simulate_paths(cs, labels, 5, [5], driver, range(3))
    assert result.nonfinite.all() and not result.alive.any()
    # The same cancellation of a bounded value folds, and every realization lives.
    cs = make_coeffs("1", U=["exp(x1) - exp(x1)"], nu=0.1, n=1, box=box)
    result = simulate_paths(cs, labels, 5, [5], driver, range(3))
    assert result.alive.all()


def _subtrees(node, seen):
    if id(node) not in seen:
        seen[id(node)] = node
        for child in node.children:
            _subtrees(child, seen)
    return seen


def test_values_lie_inside_their_finite_enclosures():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(150):
        dim = int(rng.integers(1, 4))
        root = parse_field(random_expr_source(rng, dim), dim).root
        bounds = tuple((-2.0, 2.0) for _ in range(dim))
        compiler = ProgramCompiler(dim, bounds, (0.0, 1.0))
        X = _points_in(bounds, rng, (4, 16))
        comps = tuple(X[..., k] for k in range(dim))
        ts = (0.0, float(rng.uniform()), 1.0)
        for node in _subtrees(root, {}).values():
            box = compiler.enclosure(compiler.field(FieldExpr(node, dim)))
            if box is None:
                continue
            for t in ts:
                with np.errstate(all="ignore"):
                    value = np.asarray(eval_batch(FieldExpr(node, dim), comps, t))
                assert np.all((box[0] <= value) & (value <= box[1])), (node, box)
                checked += 1
    assert checked > 1000
