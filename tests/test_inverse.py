"""Flow chart construction, label recovery, and transported-field evaluation.

Deterministic flows with closed-form inverses (translations, linear stretches,
discrete rotations) provide exact references for the inversion machinery.
"""

import numpy as np
import pytest

from conftest import make_coeffs
from stochflow.brownian import BrownianDriver
from stochflow.engine import simulate_paths
from stochflow.errors import DimensionMismatch
from stochflow.fields import parse_field
from stochflow.grids import Box
from stochflow.inverse import (
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    STATUS_OUT_OF_CHART,
    _det_and_deformation,
    chart_from_batch,
    feynman_kac_psi_batch,
    invert_batch,
    passive_scalar_batch,
    roundtrip_error,
)


def _run(cs, labels, T, dt, seed=3):
    """Realization 0 over a label grid, stored at time 0 and at the horizon T."""
    driver = BrownianDriver(seed=seed, dt=dt, n=cs.n)
    steps = int(round(T / dt))
    return simulate_paths(cs, labels, steps, [0, steps], driver, realization_indices=[0])


@pytest.fixture
def heat_run():
    cs = make_coeffs("1", nu=0.1, n=1, box=Box((-6.0,), (6.0,)))
    return _run(cs, (np.linspace(-3.0, 3.0, 25),), T=0.1, dt=1e-3)


# ---------------------------------------------------------------------------
# Identity and translation charts (exact inverses)
# ---------------------------------------------------------------------------


def test_identity_chart_at_time_zero(heat_run):
    chart = chart_from_batch(heat_run, 0.0, 0)
    assert chart.t == 0.0
    assert np.allclose(chart.X[:, 0], heat_run.labels[:, 0])
    labels, status = invert_batch(chart, np.array([[-1.3], [0.0], [2.1]]))
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], [-1.3, 0.0, 2.1], atol=1e-12)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"] <= 1e-12
    assert rt["resolved_fraction"] == 1.0


def test_translation_chart_recovers_shifted_labels(heat_run):
    # The constant-coefficient flow is a rigid translation: X(a) = a + shift,
    # so the chart inverse is exactly x - shift.
    chart = chart_from_batch(heat_run, 0.1, 0)
    shift = chart.X[:, 0] - heat_run.labels[:, 0]
    assert np.ptp(shift) <= 1e-12  # identical across labels
    s = float(shift[0])
    queries = np.array([[-1.0 + s], [0.5 + s], [2.0 + s]])
    labels, status = invert_batch(chart, queries)
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], [-1.0, 0.5, 2.0], atol=1e-10)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"] <= 1e-10


def test_invert_single_point_and_out_of_chart(heat_run):
    chart = chart_from_batch(heat_run, 0.1, 0)
    mid = 0.5 * (chart.image_lo + chart.image_hi)
    labels, status = invert_batch(chart, mid[None, :])
    assert labels.shape == (1, 1) and status[0] == STATUS_OK
    assert np.isfinite(labels[0]).all()
    labels, status = invert_batch(chart, (chart.image_hi + 1.0)[None, :])
    assert status[0] == STATUS_OUT_OF_CHART
    assert np.isnan(labels[0]).all()


# ---------------------------------------------------------------------------
# Deterministic stretch flow: closed-form discrete map
# ---------------------------------------------------------------------------


def _stretch_run(rate=0.3, T=0.5, dt=1e-3, c=None):
    # sigma = 0 removes the noise entirely: X_k = a (1 + rate dt)^k exactly.
    import warnings

    v = "0" if c is None else str(c)
    cs = make_coeffs("0", U=[f"{rate}*x1"], V=v, nu=0.1, n=1, box=Box((-4.0,), (4.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate-diffusion warning is expected
        return _run(cs, (np.linspace(-2.0, 2.0, 21),), T=T, dt=dt)


def test_linear_stretch_chart_inverts_exactly():
    rate, T, dt = 0.3, 0.5, 1e-3
    result = _stretch_run(rate, T, dt)
    k = int(round(T / dt))
    growth = (1.0 + rate * dt) ** k
    chart = chart_from_batch(result, T, 0)
    assert np.allclose(chart.X[:, 0], result.labels[:, 0] * growth, rtol=1e-13)
    # The map is linear, so multilinear interpolation and Newton are exact.
    x_q = np.array([[-1.1], [0.3], [1.7]])
    labels, status = invert_batch(chart, x_q)
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], x_q[:, 0] / growth, atol=1e-10)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"] <= 1e-9


def test_passive_scalar_composes_initial_data_with_inverse():
    rate, T, dt = 0.3, 0.5, 1e-3
    result = _stretch_run(rate, T, dt)
    growth = (1.0 + rate * dt) ** int(round(T / dt))
    chart = chart_from_batch(result, T, 0)
    f0 = parse_field("exp(-x1*x1)", 1)
    x = np.array([0.8, -0.4])
    vals, status = passive_scalar_batch(chart, f0, x[:, None])
    assert np.all(status == STATUS_OK)
    assert np.allclose(vals, np.exp(-((x / growth) ** 2)), rtol=1e-8, atol=0.0)


def test_feynman_kac_weight_uses_exponential_factor():
    # With V = c and U = rate*x1: P = c - rate, so log_I(a, T) = (c - rate) T for
    # every label, and psi(x) = f0(A(x)) exp((c - rate) T).
    rate, T, dt, c = 0.3, 0.5, 1e-3, 0.45
    result = _stretch_run(rate, T, dt, c=c)
    chart = chart_from_batch(result, T, 0)
    f0 = parse_field("exp(-x1*x1)", 1)
    x = np.array([[0.8]])
    plain, plain_status = passive_scalar_batch(chart, f0, x)
    weighted, status = feynman_kac_psi_batch(chart, f0, x)
    assert plain_status[0] == STATUS_OK and status[0] == STATUS_OK
    assert weighted[0] == pytest.approx(plain[0] * np.exp((c - rate) * T), rel=1e-10)


def test_feynman_kac_equals_passive_scalar_without_potential(heat_run):
    chart = chart_from_batch(heat_run, 0.1, 0)
    f0 = parse_field("exp(-x1*x1/0.5)", 1)
    pts = np.linspace(-0.5, 0.5, 5)[:, None] + chart.X[12, 0] - heat_run.labels[12, 0]
    a_vals, a_st = passive_scalar_batch(chart, f0, pts)
    b_vals, b_st = feynman_kac_psi_batch(chart, f0, pts)
    assert np.array_equal(a_st, b_st)
    ok = a_st == STATUS_OK
    assert ok.all()
    assert np.allclose(a_vals[ok], b_vals[ok], rtol=1e-13)  # log_I = 0 here


# ---------------------------------------------------------------------------
# Two-dimensional discrete rotation
# ---------------------------------------------------------------------------


def test_2d_linear_flow_inverts_to_machine_precision():
    import warnings

    cs = make_coeffs(
        [["0", "0"], ["0", "0"]],
        U=["-0.5*x2", "0.5*x1"],
        nu=0.1,
        n=2,
        box=Box((-4.0, -4.0), (4.0, 4.0)),
    )
    dt, T = 1e-3, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = _run(cs, (np.linspace(-2, 2, 17), np.linspace(-2, 2, 17)), T, dt, seed=5)
    k = int(round(T / dt))
    W = np.array([[0.0, -0.5], [0.5, 0.0]])
    G = np.linalg.matrix_power(np.eye(2) + dt * W, k)  # exact discrete propagator
    chart = chart_from_batch(result, T, 0)
    x_q = np.array([[0.7, -0.3], [-1.1, 0.4], [0.0, 0.9]])
    labels, status = invert_batch(chart, x_q)
    assert np.all(status == STATUS_OK)
    ref = (np.linalg.inv(G) @ x_q.T).T
    assert np.allclose(labels, ref, atol=1e-9)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"] <= 1e-8
    assert rt["resolved_fraction"] == 1.0


# ---------------------------------------------------------------------------
# Robustness and bookkeeping
# ---------------------------------------------------------------------------


def test_under_resolved_chart_is_flagged_and_rejects():
    # Deformation ratio (1 + rate dt)^k >> the cap: the chart must refuse to
    # resolve queries rather than silently extrapolate.
    import warnings

    rate, T, dt = 9.0, 1.0, 1e-3
    cs = make_coeffs(
        [["0", "0"], ["0", "0"]],
        U=[f"{rate}*x1", "0"],
        nu=0.1,
        n=2,
        box=Box((-9000.0, -2.0), (9000.0, 2.0)),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _run(cs, (np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), T, dt, seed=7)
        chart = chart_from_batch(result, T, 0)
    assert chart.under_resolved
    assert chart.max_deformation > 50.0
    assert any("under-resolved" in str(w.message) for w in caught)
    # The flag is advisory: this chart is still linear, so queries resolve, and
    # the recovered labels must satisfy the defining relation X(A(x)) = x.
    labels, status = invert_batch(chart, np.array([[10.0, 0.0]]))
    assert status[0] == STATUS_OK
    G = np.linalg.matrix_power(np.eye(2) + 1e-3 * np.array([[9.0, 0.0], [0.0, 0.0]]), 1000)
    assert np.allclose(G @ labels[0], [10.0, 0.0], atol=1e-6)


def test_deformation_ratio_comes_from_corner_jacobians(heat_run, monkeypatch):
    # 2x2: the closed-form singular-value ratio is the SVD's s_max / s_min.
    jacs = np.random.default_rng(3).normal(size=(50, 2, 2))
    dets, ratio = _det_and_deformation(jacs)
    sv = np.linalg.svd(jacs, compute_uv=False)
    assert ratio == pytest.approx(np.max(sv[:, 0] / sv[:, 1]), rel=1e-8)
    assert np.allclose(dets, np.linalg.det(jacs), rtol=1e-12)
    # A singular Jacobian has an infinite ratio.
    assert _det_and_deformation(np.array([[[1.0, 2.0], [2.0, 4.0]]]))[1] == np.inf

    # 1D: every non-zero slope has ratio 1, and building the chart runs no SVD.
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called while building a 1D chart")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    chart = chart_from_batch(heat_run, 0.1, 0)
    assert chart.max_deformation == 1.0 and not chart.under_resolved


def test_invert_batch_shape_validation(heat_run):
    chart = chart_from_batch(heat_run, 0.1, 0)
    with pytest.raises(DimensionMismatch):
        invert_batch(chart, np.zeros((4, 2)))
    # 1D charts accept a flat vector of query positions.
    labels, status = invert_batch(chart, chart.X[10:13, 0])
    assert labels.shape == (3, 1) and status.shape == (3,)


def test_roundtrip_includes_boundary_when_asked(heat_run):
    chart = chart_from_batch(heat_run, 0.1, 0)
    interior = roundtrip_error(chart, interior_only=True)
    full = roundtrip_error(chart, interior_only=False)
    assert full["num_queries"] == 25
    assert interior["num_queries"] == 23


def test_orientation_reversed_chart_rejects_all_queries():
    # One coarse deterministic step with U = -2*x1 maps a -> -a: the tangent
    # determinant is -1 everywhere, every cell is degenerate, and no query may
    # resolve through a folded cell.
    import warnings

    cs = make_coeffs("0", U=["-2*x1"], nu=0.1, n=1, box=Box((-4.0,), (4.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = _run(cs, (np.linspace(-2, 2, 9),), T=1.0, dt=1.0)
    chart = chart_from_batch(result, 1.0, 0)
    assert np.allclose(chart.X[:, 0], -result.labels[:, 0])
    assert chart.degenerate_cells.all()
    labels, status = invert_batch(chart, np.array([[0.0], [1.0], [-0.5]]))
    assert np.all(status != STATUS_OK)
    assert np.isnan(labels).all()


def test_folded_chart_statuses_and_defining_relation():
    # Coarse steps + strong noise gradient: some realizations fold (negative
    # tangent determinant in places).  Resolved queries must still satisfy the
    # defining relation X(A(x)) = x through the chart's own interpolant, and
    # unresolved rows must be NaN with a valid status code.
    cs = make_coeffs("1 + 0.9*sin(3*x1)", nu=0.5, n=1, box=Box((-30.0,), (30.0,)))
    driver = BrownianDriver(seed=5, dt=0.5, n=1)
    result = simulate_paths(
        cs, (np.linspace(-1, 1, 5),), num_steps=4, store_indices=[4],
        driver=driver, realization_indices=range(64),
    )
    folded = np.nonzero(result.alive & result.degenerate)[0]
    assert folded.size > 0
    checked_ok = 0
    for slot in folded[:4]:
        chart = chart_from_batch(result, result.times[-1], int(slot))
        assert chart.degenerate_cells.any()
        queries = np.linspace(chart.image_lo[0], chart.image_hi[0], 21)
        labels, status = invert_batch(chart, queries[:, None])
        assert np.all(
            np.isin(status, [STATUS_OK, STATUS_OUT_OF_CHART, STATUS_NO_CONVERGENCE])
        )
        bad = status != STATUS_OK
        assert np.isnan(labels[bad]).all()
        ok = ~bad
        if ok.any():
            forward = np.interp(labels[ok, 0], chart.label_axes[0], chart.X[:, 0])
            assert np.allclose(forward, queries[ok], atol=1e-9)
            checked_ok += int(ok.sum())
    assert checked_ok > 0
