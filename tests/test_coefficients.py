"""Coefficient assembly: derived symbolic fields vs independent finite differences.

Every derived field (diffusivity, drift corrections, divergences, the Ito scalar)
is re-computed here numerically from the raw sigma/U/V evaluations and compared
against the assembled symbolic version.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import coefficient_sample, make_coeffs, point_value
from stochflow import fields
from stochflow.coefficients import assemble
from stochflow.config import bundled_scenario_path, load_config
from stochflow.errors import DimensionMismatch
from stochflow.fields import parse_field
from stochflow.grids import Box

_H = 1e-6  # central-difference step for the numeric cross-checks


def _num(expr, x, t=0.0):
    return point_value(expr, x, t)


def _fd(expr, x, k, t=0.0):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[k] += _H
    xm[k] -= _H
    return (_num(expr, xp, t) - _num(expr, xm, t)) / (2.0 * _H)


@pytest.fixture(scope="module")
def cs2():
    return assemble(
        sigma=[
            ["1 + 0.3*sin(x1)*cos(x2)", "0.2*cos(x1)"],
            ["0.1*sin(x2)", "1 + 0.3*cos(x1)*sin(x2)"],
        ],
        U=["0.2*x2", "-0.1*x1*x1"],
        V="0.3*x1",
        nu=0.15,
        n=2,
    )


@pytest.fixture(scope="module")
def points2():
    rng = np.random.default_rng(42)
    return rng.uniform(-1.5, 1.5, size=(12, 2))


def test_a_is_sigma_sigma_transpose(cs2, points2):
    n = cs2.n
    for x in points2:
        sig = np.array([[_num(cs2.sigma[j][p], x) for p in range(n)] for j in range(n)])
        a_ref = sig @ sig.T
        a_sym = np.array([[_num(cs2.a[i][j], x) for j in range(n)] for i in range(n)])
        assert np.allclose(a_sym, a_ref, atol=1e-13)
        assert np.allclose(a_sym, a_sym.T, atol=1e-13)


def test_dsigma_matches_finite_differences(cs2, points2):
    n = cs2.n
    for x in points2[:6]:
        for k in range(n):
            for j in range(n):
                for p in range(n):
                    sym = _num(cs2.dsigma[k][j][p], x)
                    ref = _fd(cs2.sigma[j][p], x, k)
                    assert sym == pytest.approx(ref, abs=1e-7)


def test_modified_drift_u_subtracts_divergence_of_a(cs2, points2):
    # u_j = U_j - nu * sum_i d_i a_ij, with the divergence done numerically on a.
    # u is not stored: it is what v leaves after the noise-gradient correction,
    # here taken symbolically from the assembled v, sigma and dsigma.
    n = cs2.n
    for x in points2[:6]:
        for j in range(n):
            u_j = cs2.v[j]
            for k in range(n):
                for p in range(n):
                    u_j = u_j - 2.0 * cs2.nu * (cs2.sigma[k][p] * cs2.dsigma[k][j][p])
            div_a_j = sum(_fd(cs2.a[i][j], x, i) for i in range(n))
            ref = _num(cs2.U[j], x) - cs2.nu * div_a_j
            assert _num(u_j, x) == pytest.approx(ref, abs=1e-7)


def test_sde_drift_v_adds_noise_gradient_correction(cs2, points2):
    # v_j = u_j + 2 nu sum_{k,p} sigma_kp d_k sigma_jp with the modified drift
    # u_j = U_j - nu sum_i d_i a_ij; both divergence and gradients done numerically.
    n = cs2.n
    for x in points2[:6]:
        for j in range(n):
            div_a_j = sum(_fd(cs2.a[i][j], x, i) for i in range(n))
            corr = sum(
                _num(cs2.sigma[k][p], x) * _fd(cs2.sigma[j][p], x, k)
                for k in range(n)
                for p in range(n)
            )
            ref = _num(cs2.U[j], x) - cs2.nu * div_a_j + 2.0 * cs2.nu * corr
            assert _num(cs2.v[j], x) == pytest.approx(ref, abs=1e-7)


def test_dv_and_div_v_match_finite_differences(cs2, points2):
    n = cs2.n
    for x in points2[:6]:
        for k in range(n):
            for j in range(n):
                assert _num(cs2.dv[k][j], x) == pytest.approx(_fd(cs2.v[j], x, k), abs=1e-6)
        div_ref = sum(_fd(cs2.v[j], x, j) for j in range(n))
        assert _num(cs2.div_v, x) == pytest.approx(div_ref, abs=1e-6)


def test_exponent_rate_P_is_V_minus_div_U(cs2, points2):
    n = cs2.n
    for x in points2[:6]:
        div_u = sum(_fd(cs2.U[j], x, j) for j in range(n))
        assert _num(cs2.P, x) == pytest.approx(_num(cs2.V, x) - div_u, abs=1e-7)


def test_div_sigma_matches_finite_differences(cs2, points2):
    n = cs2.n
    for x in points2[:6]:
        for p in range(n):
            ref = sum(_fd(cs2.sigma[k][p], x, k) for k in range(n))
            assert _num(cs2.div_sigma[p], x) == pytest.approx(ref, abs=1e-7)


def test_E_matches_minor_formula_from_finite_differences(cs2, points2):
    # E = sum_p sum_{i<j} (d_i sig_ip d_j sig_jp - d_j sig_ip d_i sig_jp).
    n = cs2.n
    for x in points2[:6]:
        ref = 0.0
        for p in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    ref += _fd(cs2.sigma[i][p], x, i) * _fd(cs2.sigma[j][p], x, j)
                    ref -= _fd(cs2.sigma[i][p], x, j) * _fd(cs2.sigma[j][p], x, i)
        assert _num(cs2.E, x) == pytest.approx(ref, abs=1e-6)


def test_E_forms_agree(cs2, points2):
    # The half-difference form over all (i, j), from the symbolic sigma gradient:
    # E = 1/2 sum_p sum_{i,j} (d_i sig_ip d_j sig_jp - d_j sig_ip d_i sig_jp).
    n = cs2.n
    for x in points2:
        ds = np.array(
            [[[_num(cs2.dsigma[k][j][p], x) for p in range(n)] for j in range(n)] for k in range(n)]
        )
        half = sum(
            0.5 * (ds[i, i, p] * ds[j, j, p] - ds[j, i, p] * ds[i, j, p])
            for p in range(n)
            for i in range(n)
            for j in range(n)
        )
        assert abs(_num(cs2.E, x) - half) <= 1e-10


def test_E_vanishes_in_1d_and_for_constant_sigma():
    cs1 = make_coeffs("1 + 0.5*sin(x1)", n=1)
    assert cs1.E.is_constant and cs1.E.constant_value == 0.0
    cs_const = assemble([["1.3", "0.2"], ["0.1", "0.9"]], ["0", "0"], "0", nu=0.1, n=2)
    x = np.array([0.4, -0.7])
    assert _num(cs_const.E, x) == 0.0
    # Constant sigma also kills the divergence and tracker noise terms.
    for p in range(2):
        assert _num(cs_const.div_sigma[p], x) == 0.0


def test_sample_agrees_with_symbolic_evaluation(cs2):
    # The pointwise sample that the engine tests' hand-rolled step reads.
    x = np.array([0.3, -0.8])
    t = 0.25
    smp = coefficient_sample(cs2, x, t)
    assert np.allclose(smp.x, x) and smp.t == t
    n = cs2.n
    assert np.allclose(
        smp.sigma, [[_num(cs2.sigma[j][p], x, t) for p in range(n)] for j in range(n)]
    )
    assert np.allclose(smp.a, [[_num(cs2.a[i][j], x, t) for j in range(n)] for i in range(n)])
    assert np.allclose(smp.v, [_num(cs2.v[j], x, t) for j in range(n)])
    assert np.allclose(
        smp.dv, [[_num(cs2.dv[k][j], x, t) for j in range(n)] for k in range(n)]
    )
    assert smp.V == pytest.approx(_num(cs2.V, x, t))
    assert smp.P == pytest.approx(_num(cs2.P, x, t))
    assert smp.E == pytest.approx(_num(cs2.E, x, t))
    assert smp.div_v == pytest.approx(_num(cs2.div_v, x, t))
    assert np.allclose(smp.div_sigma, [_num(cs2.div_sigma[p], x, t) for p in range(n)])
    assert np.allclose(
        smp.dsigma,
        [[[_num(cs2.dsigma[k][j][p], x, t) for p in range(n)] for j in range(n)] for k in range(n)],
    )


def test_assemble_accepts_field_expr_inputs():
    sig = parse_field("1 + 0.1*x1", 1)
    cs = assemble([[sig]], [parse_field("0.2*x1", 1)], parse_field("0", 1), nu=0.2, n=1)
    assert _num(cs.a[0][0], np.array([0.5])) == pytest.approx(1.05**2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=[["1", "0"]], U=["0"], V="0", nu=0.1, n=1),  # non-square sigma
        dict(sigma=[["1"]], U=["0", "0"], V="0", nu=0.1, n=1),  # wrong U length
        dict(sigma=[["1"]], U=["0"], V="0", nu=0.1, n=5),  # dimension out of range
        dict(sigma=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], U=["0"] * 3, V="0",
             nu=0.1, n=3),  # the solver works on R^1 and R^2 only
    ],
)
def test_assemble_shape_validation(kwargs):
    with pytest.raises(DimensionMismatch):
        assemble(**kwargs)


def test_assemble_rejects_nonpositive_nu():
    with pytest.raises(ValueError):
        assemble([["1"]], ["0"], "0", nu=0.0, n=1)


def test_assemble_box_dimension_checked():
    with pytest.raises(DimensionMismatch):
        assemble([["1"]], ["0"], "0", nu=0.1, n=1, box=Box((-1.0, -1.0), (1.0, 1.0)))


def test_box_replacement_and_time_dependence(cs2):
    b = Box((-2.0, -2.0), (2.0, 2.0))
    cs_b = replace(cs2, box=b)
    assert cs_b.box is b and cs2.box is None
    assert not cs2.depends_on_time()
    cs_t = make_coeffs("1 + 0.1*t", n=1)
    assert cs_t.depends_on_time()


def _assembled_counting_derivatives(monkeypatch, memoize: bool):
    """diag_sigma_2d's coefficients and the number of ``_deriv`` calls they took."""
    calls = []
    derive = fields._deriv

    def counted(node, index, memo):
        calls.append(index)
        return derive(node, index, memo if memoize else {})

    with monkeypatch.context() as patch:
        patch.setattr(fields, "_deriv", counted)
        cs = load_config(str(bundled_scenario_path("diag_sigma_2d"))).coefficients
    return cs, len(calls)


def test_assemble_takes_each_shared_derivative_once(monkeypatch):
    memoized, few = _assembled_counting_derivatives(monkeypatch, memoize=True)
    fresh, many = _assembled_counting_derivatives(monkeypatch, memoize=False)
    assert few < many
    n = fresh.n
    pairs = [(memoized.dv[k][j], fresh.dv[k][j]) for k in range(n) for j in range(n)]
    pairs += [
        (memoized.dsigma[k][j][p], fresh.dsigma[k][j][p])
        for k in range(n) for j in range(n) for p in range(n)
    ]
    pairs += list(zip(memoized.div_sigma, fresh.div_sigma))
    assert all(a.root is b.root for a, b in pairs)
