"""Expression parser, evaluator, and symbolic differentiation."""

import numpy as np
import pytest

from conftest import central_fd, derivative_discrepancies, point_value, random_expr_source
from stochflow.errors import DomainError, ExprError, ExprSyntaxError, UnknownVariableError
from stochflow.fields import (
    FUNCTIONS,
    FieldExpr,
    _tokenize,
    constant_field,
    differentiate,
    eval_batch,
    eval_points,
    parse_field,
)


# ---------------------------------------------------------------------------
# Parsing and evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "src, point, t, expected",
    [
        ("x1", (2.5,), 0.0, 2.5),
        ("2 + 3 * 4^2", (0.0,), 0.0, 50.0),
        ("2 - 3 - 4", (0.0,), 0.0, -5.0),
        ("-x1^2", (2.0,), 0.0, -4.0),
        ("x1^-2", (2.0,), 0.0, 0.25),
        ("(x1 + x2)^3", (1.0, 2.0), 0.0, 27.0),
        ("sin(x1) * cos(x2)", (0.3, 1.1), 0.0, np.sin(0.3) * np.cos(1.1)),
        ("exp(-x1*x1/0.5)", (0.4,), 0.0, np.exp(-0.16 / 0.5)),
        ("log(x1)", (np.e,), 0.0, 1.0),
        ("tanh(x1)", (0.7,), 0.0, np.tanh(0.7)),
        ("1 / (1 + x1*x1)", (2.0,), 0.0, 0.2),
        ("t * x1", (3.0,), 0.5, 1.5),
        ("1.5e-2 * x1", (2.0,), 0.0, 0.03),
    ],
)
def test_parse_and_evaluate(src, point, t, expected):
    fe = parse_field(src, len(point))
    assert point_value(fe, point, t) == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_constant_detection():
    fe = parse_field("2 + 3 * 1.5", 2)
    assert fe.is_constant
    assert fe.constant_value == pytest.approx(6.5)
    assert not parse_field("x2", 2).is_constant
    assert constant_field(4.0, 1).constant_value == 4.0


def test_time_dependence_flag():
    assert parse_field("t * x1", 1).depends_on_time()
    assert not parse_field("x1 + 1", 1).depends_on_time()


def test_pretty_roundtrip_preserves_semantics():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        src = random_expr_source(rng, dim, depth=3)
        fe = parse_field(src, dim)
        fe2 = parse_field(str(fe), dim)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, size=dim)
            t = float(rng.uniform(0.0, 1.0))
            a, b = point_value(fe, x, t), point_value(fe2, x, t)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_operator_overloads_match_parsed_equivalent():
    f = parse_field("x1", 1)
    g = parse_field("sin(x1)", 1)
    combo = (2.0 * f + g / (1.0 + f * f) - 3.0) ** 2
    ref = parse_field("(2*x1 + sin(x1)/(1 + x1*x1) - 3)^2", 1)
    for x in (-1.3, 0.0, 0.8, 2.2):
        assert point_value(combo, x) == pytest.approx(point_value(ref, x), rel=1e-14)
    assert isinstance(combo, FieldExpr)
    assert point_value(-f, 2.0) == -2.0
    assert point_value(1.0 - f, 2.0) == -1.0
    assert point_value(6.0 / (f + 1.0), 2.0) == pytest.approx(2.0)


def test_eval_batch_broadcasts_arrays():
    fe = parse_field("x1 * x2 + t", 2)
    x1 = np.linspace(-1, 1, 7)
    x2 = np.linspace(0, 2, 7)
    out = eval_batch(fe, (x1, x2), 0.25)
    assert np.allclose(out, x1 * x2 + 0.25)
    const = eval_batch(parse_field("3.5", 2), (x1, x2), 0.0)
    assert float(np.asarray(const)) == 3.5  # constants may come back unbroadcast


def test_eval_batch_arity_mismatch():
    fe = parse_field("x1", 2)
    with pytest.raises(ValueError):
        eval_batch(fe, (np.zeros(3),), 0.0)


# ---------------------------------------------------------------------------
# Error reporting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "src, exc",
    [
        ("x1 +", ExprSyntaxError),
        ("(x1", ExprSyntaxError),
        ("2x1", ExprSyntaxError),
        ("x1^2.5", ExprSyntaxError),
        ("x1^x1", ExprSyntaxError),
        ("foo(x1)", ExprSyntaxError),
        ("x3", UnknownVariableError),
        ("y + 1", UnknownVariableError),
    ],
)
def test_parse_errors(src, exc):
    with pytest.raises(exc):
        parse_field(src, 2)


@pytest.mark.parametrize(
    "src, exc, message, start, end",
    [
        ("x1 +", ExprSyntaxError, "unexpected token ''", 4, 4),
        ("(x1", ExprSyntaxError, "expected ')'", 3, 3),
        ("2x1", ExprSyntaxError, "unexpected trailing input 'x1'", 1, 3),
        ("x1^2.5", ExprSyntaxError, "exponent must be an integer literal", 3, 6),
        ("x1^x1", ExprSyntaxError, "exponent must be an integer literal", 3, 5),
        ("foo(x1)", ExprSyntaxError, "unknown function 'foo'", 0, 3),
        ("x3", UnknownVariableError, "variable 'x3' is out of range for dimension 2", 0, 2),
        ("y + 1", UnknownVariableError, "unknown variable 'y'", 0, 1),
        ("1 +* 2", ExprSyntaxError, "unexpected token '*'", 3, 4),
        ("x1 $ 2", ExprSyntaxError, "unexpected character '$'", 3, 4),
    ],
)
def test_parse_error_class_message_and_span(src, exc, message, start, end):
    with pytest.raises(ExprError) as info:
        parse_field(src, 2)
    assert type(info.value) is exc
    assert str(info.value) == message
    assert (info.value.span.start, info.value.span.end) == (start, end)


def _token_view(tok):
    """(kind, text, start, end) of one token, whether it is a record or a plain tuple."""
    if isinstance(tok, tuple):
        kind, text, start = tok
        return kind, text, start, start + len(text)
    return tok.kind, tok.text, tok.span.start, tok.span.end


@pytest.mark.parametrize(
    "src, expected",
    [
        (
            "1 + 0.3*sin(x1)*cos(x2)",
            [
                ("num", "1", 0, 1), ("op", "+", 2, 3), ("num", "0.3", 4, 7), ("op", "*", 7, 8),
                ("name", "sin", 8, 11), ("op", "(", 11, 12), ("name", "x1", 12, 14),
                ("op", ")", 14, 15), ("op", "*", 15, 16), ("name", "cos", 16, 19),
                ("op", "(", 19, 20), ("name", "x2", 20, 22), ("op", ")", 22, 23),
                ("end", "", 23, 23),
            ],
        ),
        (
            "2.5e-3*x1^2",
            [
                ("num", "2.5e-3", 0, 6), ("op", "*", 6, 7), ("name", "x1", 7, 9),
                ("op", "^", 9, 10), ("num", "2", 10, 11), ("end", "", 11, 11),
            ],
        ),
    ],
)
def test_tokens_kind_text_and_span(src, expected):
    assert [_token_view(tok) for tok in _tokenize(src)] == expected


def test_parse_dimension_bounds():
    with pytest.raises(ValueError):
        parse_field("x1", 0)
    with pytest.raises(ValueError):
        parse_field("x1", 4)


def test_evaluate_domain_errors():
    # A domain violation at any point raises; an overflow is the caller's concern.
    pts = np.array([[1.0], [-1.0]])
    with pytest.raises(DomainError):
        eval_points(parse_field("log(x1)", 1), pts)
    with pytest.raises(DomainError):
        eval_points(parse_field("1/x1", 1), np.array([[0.0]]))
    with np.errstate(over="ignore"):
        assert np.isinf(eval_points(parse_field("exp(x1)", 1), np.array([[1000.0]]))).all()


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        eval_points(parse_field("x1", 2), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "src, var, ref",
    [
        ("sin(x1*x2)", "x1", lambda x: x[1] * np.cos(x[0] * x[1])),
        ("sin(x1*x2)", "x2", lambda x: x[0] * np.cos(x[0] * x[1])),
        ("exp(-x1*x1/0.5)", "x1", lambda x: -4.0 * x[0] * np.exp(-x[0] ** 2 / 0.5)),
        ("x1^3", "x1", lambda x: 3.0 * x[0] ** 2),
        ("x1^-2", "x1", lambda x: -2.0 * x[0] ** -3),
        ("log(1.5 + x1*x1)", "x1", lambda x: 2.0 * x[0] / (1.5 + x[0] ** 2)),
        ("tanh(x2)", "x2", lambda x: 1.0 / np.cosh(x[1]) ** 2),
        ("x1 / x2", "x2", lambda x: -x[0] / x[1] ** 2),
    ],
)
def test_diff_closed_forms(src, var, ref):
    fe = parse_field(src, 2)
    dfe = differentiate(fe, var)
    rng = np.random.default_rng(11)
    for _ in range(8):
        x = rng.uniform(0.2, 1.5, size=2)
        assert point_value(dfe, x) == pytest.approx(ref(x), rel=1e-12)


def test_diff_absent_variable_is_zero():
    dfe = differentiate(parse_field("sin(x1)", 2), "x2")
    assert dfe.is_constant and dfe.constant_value == 0.0


def test_diff_time_variable():
    fe = parse_field("t*t * x1", 1)
    dfe = differentiate(fe, "t")
    assert point_value(dfe, 2.0, 1.5) == pytest.approx(6.0)


def test_diff_accepts_index_and_name():
    fe = parse_field("x1 * x2", 2)
    assert point_value(differentiate(fe, 1), (3.0, 5.0)) == 5.0
    assert point_value(differentiate(fe, "x2"), (3.0, 5.0)) == 3.0
    with pytest.raises(ValueError):
        differentiate(fe, 3)
    with pytest.raises(ValueError):
        differentiate(fe, "z")


@pytest.mark.parametrize(
    "build",
    [
        lambda fe: fe**2.5,
        lambda fe: fe**-0.5,
        lambda fe: differentiate(fe, 1.7),
    ],
    ids=["power-2.5", "power-minus-0.5", "variable-1.7"],
)
def test_a_non_integral_exponent_or_variable_index_is_refused(build):
    with pytest.raises(TypeError):
        build(parse_field("x1", 1))


def test_diff_method_matches_function():
    fe = parse_field("cos(x1) * x1", 1)
    a = fe.diff("x1")
    b = differentiate(fe, "x1")
    for x in (-1.0, 0.3, 2.0):
        assert point_value(a, x) == point_value(b, x)


def test_random_ast_derivatives_match_central_fd():
    """Symbolic derivatives agree with central finite differences (unit-scale run;
    the full 500-expression sweep is the final acceptance gate)."""
    rng = np.random.default_rng(2024)
    rels = derivative_discrepancies(rng, num_exprs=60)
    assert len(rels) == 60
    assert max(rels) <= 1e-6, f"worst relative discrepancy {max(rels):.3e}"


def test_central_fd_helper_on_known_function():
    fe = parse_field("x1^3 + t*x1", 1)
    fd = central_fd(fe, np.array([0.7]), 0.3, 0)
    assert fd == pytest.approx(3 * 0.7**2 + 0.3, rel=1e-9)
    fd_t = central_fd(fe, np.array([0.7]), 0.3, -1)
    assert fd_t == pytest.approx(0.7, rel=1e-9)


# ---------------------------------------------------------------------------
# The trees differentiation builds, pinned by interned identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "src, var, expected",
    [
        ("3", "x1", "0"),
        ("x1", "x1", "1"),
        ("x2", "x1", "0"),
        ("t*x1", "t", "x1"),
        # neg
        ("-sin(x1)", "x1", "-cos(x1)"),
        ("-x2", "x1", "0"),
        # add: one zero side, both, none
        ("x2 + sin(x1)", "x1", "cos(x1)"),
        ("sin(x1) + x2", "x1", "cos(x1)"),
        ("sin(x1) + x1", "x1", "cos(x1) + 1"),
        ("x2 + x2", "x1", "0"),
        # sub: a zero left side negates the right
        ("x2 - x1", "x1", "-1"),
        ("x2 - sin(x1)", "x1", "-cos(x1)"),
        ("sin(x1) - x2", "x1", "cos(x1)"),
        ("sin(x1) - x1", "x1", "cos(x1) - 1"),
        ("x2 - x2", "x1", "0"),
        # mul: each side zero, neither, both
        ("x2*sin(x1)", "x1", "x2*cos(x1)"),
        ("sin(x1)*x2", "x1", "cos(x1)*x2"),
        ("x1*sin(x1)", "x1", "sin(x1) + x1*cos(x1)"),
        ("x2*x2", "x1", "0"),
        # div: zero divisor derivative, zero dividend derivative, neither, both
        ("sin(x1)/x2", "x1", "cos(x1)/x2"),
        ("1/x1", "x1", "-(1/x1^2)"),
        ("x1/(1 + x1)", "x1", "(1 + x1 - x1)/(1 + x1)^2"),
        ("x2/x2", "x1", "0"),
        # pow
        ("x1^3", "x1", "3*x1^2"),
        ("x1^-2", "x1", "-2*x1^-3"),
        ("sin(x1)^2", "x1", "2*sin(x1)*cos(x1)"),
        ("x2^3", "x1", "0"),
        # calls
        ("sin(x1)", "x1", "cos(x1)"),
        ("cos(x1)", "x1", "-sin(x1)"),
        ("exp(x1)", "x1", "exp(x1)"),
        ("log(x1)", "x1", "1/x1"),
        ("log(x1^2)", "x1", "2*x1/x1^2"),
        ("tanh(x1)", "x1", "1 - tanh(x1)^2"),
        ("sin(2*x1)", "x1", "cos(2*x1)*2"),
        ("exp(x2)", "x1", "0"),
    ],
)
def test_derivative_is_the_interned_tree_of_its_closed_form(src, var, expected):
    got = differentiate(parse_field(src, 2), var)
    assert got.root is parse_field(expected, 2).root, got.pretty()
    assert got.pretty() == expected


def test_zero_times_a_field_stays_a_product():
    # u may fail a domain check, so 0*u is not folded to 0, and neither is its derivative.
    fe = parse_field("0*log(x1)", 1)
    assert fe.root.tag == "mul" and fe.pretty() == "0*log(x1)"
    d = differentiate(fe, "x1")
    assert d.root.tag == "mul" and d.pretty() == "0*(1/x1)"
    with pytest.raises(DomainError):
        point_value(d, 0.0)


_ASSEMBLED_TEXT = {
    "sine_sigma_1d": {
        "v": ("0.1*((1 + 0.5*sin(x1))*(0.5*cos(x1)) - 0.5*cos(x1)*(1 + 0.5*sin(x1)))",),
        "dv": ((
            "0.1*(0.5*cos(x1)*(0.5*cos(x1)) + (1 + 0.5*sin(x1))*(0.5*-sin(x1)) - "
            "(0.5*-sin(x1)*(1 + 0.5*sin(x1)) + 0.5*cos(x1)*(0.5*cos(x1))))",
        ),),
        "div_v": (
            "0.1*(0.5*cos(x1)*(0.5*cos(x1)) + (1 + 0.5*sin(x1))*(0.5*-sin(x1)) - "
            "(0.5*-sin(x1)*(1 + 0.5*sin(x1)) + 0.5*cos(x1)*(0.5*cos(x1))))"
        ),
        "E": "0",
        "div_sigma": ("0.5*cos(x1)",),
    },
    "diag_sigma_2d": {
        "v": (
            "0.1*((1 + 0.3*sin(x1)*cos(x2))*(0.3*cos(x1)*cos(x2)) - 0.3*cos(x1)*cos(x2)*"
            "(1 + 0.3*sin(x1)*cos(x2)) + (0*(0.3*sin(x1)*-sin(x2)) - 0*(1 + 0.3*sin(x1)*cos(x2))) + "
            "((1 + 0.3*cos(x1)*sin(x2))*0 - 0.3*cos(x1)*cos(x2)*0))",
            "0.1*((1 + 0.3*sin(x1)*cos(x2))*0 - 0.3*cos(x1)*cos(x2)*0 + (0*(0.3*-sin(x1)*sin(x2)) - "
            "0*(1 + 0.3*cos(x1)*sin(x2))) + ((1 + 0.3*cos(x1)*sin(x2))*(0.3*cos(x1)*cos(x2)) - "
            "0.3*cos(x1)*cos(x2)*(1 + 0.3*cos(x1)*sin(x2))))",
        ),
        "dv": (
            (
                "0.1*(0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)) + (1 + 0.3*sin(x1)*cos(x2))*"
                "(0.3*-sin(x1)*cos(x2)) - (0.3*-sin(x1)*cos(x2)*(1 + 0.3*sin(x1)*cos(x2)) + "
                "0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2))) + (0*(0.3*cos(x1)*-sin(x2)) - "
                "0*(0.3*cos(x1)*cos(x2))) + (0.3*-sin(x1)*sin(x2)*0 - 0.3*-sin(x1)*cos(x2)*0))",
                "0.1*(0.3*cos(x1)*cos(x2)*0 - 0.3*-sin(x1)*cos(x2)*0 + (0*(0.3*-cos(x1)*sin(x2)) - "
                "0*(0.3*-sin(x1)*sin(x2))) + (0.3*-sin(x1)*sin(x2)*(0.3*cos(x1)*cos(x2)) + "
                "(1 + 0.3*cos(x1)*sin(x2))*(0.3*-sin(x1)*cos(x2)) - (0.3*-sin(x1)*cos(x2)*"
                "(1 + 0.3*cos(x1)*sin(x2)) + 0.3*cos(x1)*cos(x2)*(0.3*-sin(x1)*sin(x2)))))",
            ),
            (
                "0.1*(0.3*sin(x1)*-sin(x2)*(0.3*cos(x1)*cos(x2)) + (1 + 0.3*sin(x1)*cos(x2))*"
                "(0.3*cos(x1)*-sin(x2)) - (0.3*cos(x1)*-sin(x2)*(1 + 0.3*sin(x1)*cos(x2)) + "
                "0.3*cos(x1)*cos(x2)*(0.3*sin(x1)*-sin(x2))) + (0*(0.3*sin(x1)*-cos(x2)) - "
                "0*(0.3*sin(x1)*-sin(x2))) + (0.3*cos(x1)*cos(x2)*0 - 0.3*cos(x1)*-sin(x2)*0))",
                "0.1*(0.3*sin(x1)*-sin(x2)*0 - 0.3*cos(x1)*-sin(x2)*0 + (0*(0.3*-sin(x1)*cos(x2)) - "
                "0*(0.3*cos(x1)*cos(x2))) + (0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)) + "
                "(1 + 0.3*cos(x1)*sin(x2))*(0.3*cos(x1)*-sin(x2)) - (0.3*cos(x1)*-sin(x2)*"
                "(1 + 0.3*cos(x1)*sin(x2)) + 0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)))))",
            ),
        ),
        "div_v": (
            "0.1*(0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)) + (1 + 0.3*sin(x1)*cos(x2))*"
            "(0.3*-sin(x1)*cos(x2)) - (0.3*-sin(x1)*cos(x2)*(1 + 0.3*sin(x1)*cos(x2)) + "
            "0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2))) + (0*(0.3*cos(x1)*-sin(x2)) - "
            "0*(0.3*cos(x1)*cos(x2))) + (0.3*-sin(x1)*sin(x2)*0 - 0.3*-sin(x1)*cos(x2)*0)) + "
            "0.1*(0.3*sin(x1)*-sin(x2)*0 - 0.3*cos(x1)*-sin(x2)*0 + (0*(0.3*-sin(x1)*cos(x2)) - "
            "0*(0.3*cos(x1)*cos(x2))) + (0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)) + "
            "(1 + 0.3*cos(x1)*sin(x2))*(0.3*cos(x1)*-sin(x2)) - (0.3*cos(x1)*-sin(x2)*"
            "(1 + 0.3*cos(x1)*sin(x2)) + 0.3*cos(x1)*cos(x2)*(0.3*cos(x1)*cos(x2)))))"
        ),
        "E": (
            "0.3*cos(x1)*cos(x2)*0 - 0*(0.3*sin(x1)*-sin(x2)) + "
            "(0*(0.3*cos(x1)*cos(x2)) - 0.3*-sin(x1)*sin(x2)*0)"
        ),
        "div_sigma": ("0.3*cos(x1)*cos(x2)", "0.3*cos(x1)*cos(x2)"),
    },
}


def _texts(value):
    return value.pretty() if isinstance(value, FieldExpr) else tuple(_texts(v) for v in value)


@pytest.mark.parametrize("name", sorted(_ASSEMBLED_TEXT))
def test_assembled_derivative_fields_print_as_recorded(name):
    from stochflow.config import bundled_scenario_path, load_config

    cs = load_config(str(bundled_scenario_path(name))).coefficients
    for key, text in _ASSEMBLED_TEXT[name].items():
        assert _texts(getattr(cs, key)) == text, key


# ---------------------------------------------------------------------------
# sin and cos through the tangent of the half angle
# ---------------------------------------------------------------------------


def _half_angle_points(uniform: int):
    """Uniform points on [-8, 8], then k*pi/2 for k = -8..8 and both neighbours of each."""
    poles = np.arange(-8, 9) * (np.pi / 2)
    edges = [poles, np.nextafter(poles, -np.inf), np.nextafter(poles, np.inf)]
    return np.concatenate([np.random.default_rng(24).uniform(-8.0, 8.0, uniform), *edges])


@pytest.mark.parametrize("name, reference", [("sin", np.sin), ("cos", np.cos)])
def test_half_angle_sin_and_cos_are_within_two_ulps_of_one(name, reference):
    x = _half_angle_points(10**6)
    value = FUNCTIONS[name](x)
    assert np.max(np.abs(value - reference(x))) <= 2.0**-51
    # The compiler encloses every sin and cos in [-1, 1].
    assert np.max(np.abs(value)) <= 1.0


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_half_angle_bits_do_not_depend_on_the_array_layout(name):
    # A lone float, a 0-d array, a strided coordinate view and chunks of any size
    # give the same bits, so neither the evaluator nor the chunk size changes a payload.
    fn = FUNCTIONS[name]
    x = _half_angle_points(13)
    expected = fn(x).tobytes()
    column = np.stack([x, -x], axis=1)[:, 0]
    assert not column.flags.contiguous
    layouts = [
        np.array([fn(float(v)) for v in x]),
        np.array([fn(np.array(v)) for v in x]),
        fn(column),
    ]
    for size in range(1, 8):
        layouts.append(np.concatenate([fn(x[i : i + size]) for i in range(0, x.size, size)]))
    for got in layouts:
        assert got.tobytes() == expected
