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
from stochflow.fields import eval_batch, parse_field
from stochflow.grids import Box
from stochflow.inverse import (
    _SEED_BLOCK_QUERIES,
    STATUS_NO_CONVERGENCE,
    STATUS_OK,
    STATUS_OUT_OF_CHART,
    _build_stack,
    _det_and_deformation,
    _nearest_node,
    _search_right,
    chart_from_batch,
    feynman_kac_psi_stack,
    invert_batch,
    roundtrip_error,
)


def _run(cs, labels, T, dt, seed=3):
    """Realization 0 over a label grid, stored at time 0 and at the horizon T."""
    driver = BrownianDriver(seed=seed, dt=dt, n=cs.n)
    steps = int(round(T / dt))
    return simulate_paths(cs, labels, steps, [0, steps], driver, realization_indices=[0])


def _invert_one(chart, points):
    """Labels (Q, n) and statuses (Q,) on a one-row stack."""
    labels, status = invert_batch(chart, points)
    return labels[0], status[0]


def _passive_scalar(chart, f0, points):
    """f0 at the labels recovered on a one-row stack: transported initial data."""
    labels, status = _invert_one(chart, points)
    ok = status == STATUS_OK
    values = np.full(status.shape, np.nan)
    values[ok] = eval_batch(f0, tuple(labels[ok].T), 0.0)
    return values, status


def _psi_one(chart, f0, points):
    """Exponentially weighted transported data of one field on a one-row stack."""
    (values,), status = feynman_kac_psi_stack(chart, (f0,), points)
    return values[0], status[0]


@pytest.fixture
def heat_run():
    cs = make_coeffs("1", nu=0.1, n=1, box=Box((-6.0,), (6.0,)))
    return _run(cs, (np.linspace(-3.0, 3.0, 25),), T=0.1, dt=1e-3)


# ---------------------------------------------------------------------------
# Identity and translation charts (exact inverses)
# ---------------------------------------------------------------------------


def test_identity_chart_at_time_zero(heat_run):
    chart = chart_from_batch(heat_run, 0.0, [0])
    assert chart.num_rows == 1
    assert np.allclose(chart.X[0, :, 0], heat_run.labels[:, 0])
    labels, status = _invert_one(chart, np.array([[-1.3], [0.0], [2.1]]))
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], [-1.3, 0.0, 2.1], atol=1e-12)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"][0] <= 1e-12
    assert rt["resolved_fraction"][0] == 1.0


def test_translation_chart_recovers_shifted_labels(heat_run):
    # The constant-coefficient flow is a rigid translation: X(a) = a + shift,
    # so the chart inverse is exactly x - shift.
    chart = chart_from_batch(heat_run, 0.1, [0])
    shift = chart.X[0, :, 0] - heat_run.labels[:, 0]
    assert np.ptp(shift) <= 1e-12  # identical across labels
    s = float(shift[0])
    queries = np.array([[-1.0 + s], [0.5 + s], [2.0 + s]])
    labels, status = _invert_one(chart, queries)
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], [-1.0, 0.5, 2.0], atol=1e-10)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"][0] <= 1e-10


def test_invert_single_point_and_out_of_chart(heat_run):
    chart = chart_from_batch(heat_run, 0.1, [0])
    mid = 0.5 * (chart.image_lo[0] + chart.image_hi[0])
    labels, status = _invert_one(chart, mid[None, :])
    assert labels.shape == (1, 1) and status[0] == STATUS_OK
    assert np.isfinite(labels[0]).all()
    labels, status = _invert_one(chart, (chart.image_hi[0] + 1.0)[None, :])
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
    chart = chart_from_batch(result, T, [0])
    assert np.allclose(chart.X[0, :, 0], result.labels[:, 0] * growth, rtol=1e-13)
    # The map is linear, so multilinear interpolation and Newton are exact.
    x_q = np.array([[-1.1], [0.3], [1.7]])
    labels, status = _invert_one(chart, x_q)
    assert np.all(status == STATUS_OK)
    assert np.allclose(labels[:, 0], x_q[:, 0] / growth, atol=1e-10)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"][0] <= 1e-9


def test_passive_scalar_composes_initial_data_with_inverse():
    rate, T, dt = 0.3, 0.5, 1e-3
    result = _stretch_run(rate, T, dt)
    growth = (1.0 + rate * dt) ** int(round(T / dt))
    chart = chart_from_batch(result, T, [0])
    f0 = parse_field("exp(-x1*x1)", 1)
    x = np.array([0.8, -0.4])
    vals, status = _passive_scalar(chart, f0, x[:, None])
    assert np.all(status == STATUS_OK)
    assert np.allclose(vals, np.exp(-((x / growth) ** 2)), rtol=1e-8, atol=0.0)


def test_feynman_kac_weight_uses_exponential_factor():
    # With V = c and U = rate*x1: P = c - rate, so log_I(a, T) = (c - rate) T for
    # every label, and psi(x) = f0(A(x)) exp((c - rate) T).
    rate, T, dt, c = 0.3, 0.5, 1e-3, 0.45
    result = _stretch_run(rate, T, dt, c=c)
    chart = chart_from_batch(result, T, [0])
    f0 = parse_field("exp(-x1*x1)", 1)
    x = np.array([[0.8]])
    plain, plain_status = _passive_scalar(chart, f0, x)
    weighted, status = _psi_one(chart, f0, x)
    assert plain_status[0] == STATUS_OK and status[0] == STATUS_OK
    assert weighted[0] == pytest.approx(plain[0] * np.exp((c - rate) * T), rel=1e-10)


def test_feynman_kac_equals_passive_scalar_without_potential(heat_run):
    chart = chart_from_batch(heat_run, 0.1, [0])
    f0 = parse_field("exp(-x1*x1/0.5)", 1)
    pts = np.linspace(-0.5, 0.5, 5)[:, None] + chart.X[0, 12, 0] - heat_run.labels[12, 0]
    a_vals, a_st = _passive_scalar(chart, f0, pts)
    b_vals, b_st = _psi_one(chart, f0, pts)
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
    chart = chart_from_batch(result, T, [0])
    x_q = np.array([[0.7, -0.3], [-1.1, 0.4], [0.0, 0.9]])
    labels, status = _invert_one(chart, x_q)
    assert np.all(status == STATUS_OK)
    ref = (np.linalg.inv(G) @ x_q.T).T
    assert np.allclose(labels, ref, atol=1e-9)
    rt = roundtrip_error(chart)
    assert rt["max_abs_error"][0] <= 1e-8
    assert rt["resolved_fraction"][0] == 1.0


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
        chart = chart_from_batch(result, T, [0])
    assert chart.under_resolved[0]
    assert chart.max_deformation[0] > 50.0
    assert any("under-resolved" in str(w.message) for w in caught)
    # The flag is advisory: this chart is still linear, so queries resolve, and
    # the recovered labels must satisfy the defining relation X(A(x)) = x.
    labels, status = _invert_one(chart, np.array([[10.0, 0.0]]))
    assert status[0] == STATUS_OK
    G = np.linalg.matrix_power(np.eye(2) + 1e-3 * np.array([[9.0, 0.0], [0.0, 0.0]]), 1000)
    assert np.allclose(G @ labels[0], [10.0, 0.0], atol=1e-6)


def test_deformation_ratio_comes_from_corner_jacobians(heat_run, monkeypatch):
    # 2x2: the closed-form singular-value ratio is the SVD's s_max / s_min.
    jacs = np.random.default_rng(3).normal(size=(50, 2, 2))
    dets, ratios = _det_and_deformation(jacs)
    sv = np.linalg.svd(jacs, compute_uv=False)
    assert np.allclose(ratios, sv[:, 0] / sv[:, 1], rtol=1e-8, atol=0.0)
    assert np.max(ratios) == pytest.approx(np.max(sv[:, 0] / sv[:, 1]), rel=1e-8)
    assert np.allclose(dets, np.linalg.det(jacs), rtol=1e-12)
    # A singular Jacobian has an infinite ratio.
    assert _det_and_deformation(np.array([[[1.0, 2.0], [2.0, 4.0]]]))[1][0] == np.inf

    # 1D: every non-zero slope has ratio 1, and building the chart runs no SVD.
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called while building a 1D chart")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    chart = chart_from_batch(heat_run, 0.1, [0])
    assert chart.max_deformation[0] == 1.0 and not chart.under_resolved[0]


def test_invert_batch_shape_validation(heat_run):
    chart = chart_from_batch(heat_run, 0.1, [0])
    with pytest.raises(DimensionMismatch):
        invert_batch(chart, np.zeros((4, 2)))
    # Queries are (Q, n) points, also on 1D charts; a flat vector is refused.
    labels, status = invert_batch(chart, chart.X[0, 10:13])
    assert labels.shape == (1, 3, 1) and status.shape == (1, 3)
    with pytest.raises(DimensionMismatch):
        invert_batch(chart, chart.X[0, 10:13, 0])
    # Per-row query sets need one set per row.
    with pytest.raises(DimensionMismatch):
        invert_batch(chart, np.zeros((2, 3, 1)))


def test_roundtrip_counts_only_interior_labels(heat_run):
    # 25 labels, of which the two end nodes are left out.
    chart = chart_from_batch(heat_run, 0.1, [0])
    assert roundtrip_error(chart)["num_queries"] == 23


def test_orientation_reversed_chart_rejects_all_queries():
    # One coarse deterministic step with U = -2*x1 maps a -> -a: the tangent
    # determinant is -1 everywhere, every cell is degenerate, and no query may
    # resolve through a folded cell.
    import warnings

    cs = make_coeffs("0", U=["-2*x1"], nu=0.1, n=1, box=Box((-4.0,), (4.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = _run(cs, (np.linspace(-2, 2, 9),), T=1.0, dt=1.0)
    chart = chart_from_batch(result, 1.0, [0])
    assert np.allclose(chart.X[0, :, 0], -result.labels[:, 0])
    assert chart.degenerate_cells.all()
    labels, status = _invert_one(chart, np.array([[0.0], [1.0], [-0.5]]))
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
    folded = np.nonzero(result.alive & np.any(result.D_direct[-1] <= 0.0, axis=1))[0]
    assert folded.size > 0
    checked_ok = 0
    for slot in folded[:4]:
        chart = chart_from_batch(result, result.times[-1], [int(slot)])
        assert chart.degenerate_cells.any()
        queries = np.linspace(chart.image_lo[0, 0], chart.image_hi[0, 0], 21)
        labels, status = _invert_one(chart, queries[:, None])
        assert np.all(
            np.isin(status, [STATUS_OK, STATUS_OUT_OF_CHART, STATUS_NO_CONVERGENCE])
        )
        bad = status != STATUS_OK
        assert np.isnan(labels[bad]).all()
        ok = ~bad
        if ok.any():
            forward = np.interp(labels[ok, 0], chart.label_axes[0], chart.X[0, :, 0])
            assert np.allclose(forward, queries[ok], atol=1e-9)
            checked_ok += int(ok.sum())
    assert checked_ok > 0


# ---------------------------------------------------------------------------
# Chart stacks: one stored time, many realizations
# ---------------------------------------------------------------------------


def _reference_invert_1d(ax, xg, degenerate, x):
    """One chart at a time, bracketing with np.searchsorted: the stacked kernel's
    reference, with the same floating-point operations."""
    q = x.shape[0]
    labels = np.full(q, np.nan)
    status = np.full(q, STATUS_OUT_OF_CHART, dtype=np.int8)
    nondeg = ~degenerate
    if np.all(np.diff(xg) > 0):
        tol = 1e-12 * max(1.0, float(max(abs(xg[0]), abs(xg[-1]))))
        inside = (x >= xg[0] - tol) & (x <= xg[-1] + tol)
        j = np.clip(np.searchsorted(xg, x, side="right") - 1, 0, xg.size - 2)
        ok = inside & nondeg[j]
        s = (x[ok] - xg[j[ok]]) / (xg[j[ok] + 1] - xg[j[ok]])
        labels[ok] = ax[j[ok]] + np.clip(s, 0.0, 1.0) * (ax[j[ok] + 1] - ax[j[ok]])
        status[ok] = STATUS_OK
        status[inside & ~nondeg[j]] = STATUS_NO_CONVERGENCE
        return labels, status
    lo = np.minimum(xg[:-1], xg[1:])
    hi = np.maximum(xg[:-1], xg[1:])
    cand = (x[:, None] >= lo[None, :]) & (x[:, None] <= hi[None, :]) & nondeg[None, :]
    has = cand.any(axis=1)
    j = np.argmax(cand, axis=1)[has]
    s = (x[has] - xg[j]) / (xg[j + 1] - xg[j])
    labels[has] = ax[j] + np.clip(s, 0.0, 1.0) * (ax[j + 1] - ax[j])
    status[has] = STATUS_OK
    return labels, status


@pytest.mark.parametrize("size", [2, 3, 7, 8, 9, 25, 64, 65])
def test_stacked_bracket_matches_searchsorted(size):
    rng = np.random.default_rng(size)
    rows = np.cumsum(rng.uniform(0.01, 1.0, size=(6, size)), axis=1) - 3.0
    rows[1] *= 1e3  # a wide row, whose chart tolerance exceeds 1e-12
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1])))
    x = np.concatenate([
        rows.reshape(-1),  # every stored node exactly
        rows[:, 0] - tol, rows[:, -1] + tol,  # the chart's tolerance edges
        rows[:, 0] - 1.0, rows[:, -1] + 1.0,  # outside every chart
        rng.uniform(rows.min() - 1.0, rows.max() + 1.0, 40),
        [np.nan, np.inf, -np.inf, 0.0, -0.0],
    ])
    got = _search_right(rows, x)
    ref = np.stack([np.searchsorted(row, x, side="right") for row in rows])
    assert np.array_equal(got, ref)


def test_stacked_bracket_tolerance_edges():
    # Queries within the chart tolerance of either end resolve to the end labels;
    # queries just beyond it are out of the chart.
    ax = np.linspace(-1.0, 1.0, 9)
    X = np.stack([ax * 2.0 + 0.5, ax * 3.0 - 0.25])[..., None]
    stack = _build_stack((ax,), X, np.zeros(X.shape[:2]), 0.0)
    lo, hi = X[:, 0, 0], X[:, -1, 0]
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    for r in range(2):
        x = np.array([lo[r] - tol[r], hi[r] + tol[r], lo[r] - 4 * tol[r], hi[r] + 4 * tol[r]])
        labels, status = invert_batch(stack, x[:, None])
        assert status[r].tolist() == [STATUS_OK, STATUS_OK, STATUS_OUT_OF_CHART, STATUS_OUT_OF_CHART]
        assert labels[r, :2, 0].tolist() == [-1.0, 1.0]
        assert np.isnan(labels[r, 2:]).all()


def _mixed_rows():
    """Monotone, monotone with degenerate cells, folded, and reversed 1D rows."""
    ax = np.linspace(-2.0, 2.0, 9)
    regular = 1.5 * ax + 0.1 * np.sin(ax)
    flat_cell = ax.copy()
    flat_cell[5:] += 1e-11 - (ax[5] - ax[4])  # cell 4 is increasing but degenerate
    folded = ax.copy()
    folded[3], folded[4] = ax[4], ax[3]  # one fold in the middle
    reversed_ = -ax  # every cell degenerate
    plateau = np.where(ax < 0.0, ax, 0.0)  # non-decreasing: scanned, not bracketed
    return ax, np.stack([regular, flat_cell, folded, regular + 0.3, reversed_, plateau])


def _one_row(ax, X, log_I, r, t):
    """Row ``r`` of a 1D stack's positions and log-weights, charted on its own."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the plateau row's zero slope is flagged
        return _build_stack((ax,), X[r : r + 1], log_I[r : r + 1], t)


def test_mixed_stack_matches_the_single_chart_path():
    ax, rows = _mixed_rows()
    X = rows[..., None]
    log_I = np.cos(rows)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the plateau row's zero slope is flagged
        stack = _build_stack((ax,), X, log_I, 0.5)
    assert stack.degenerate_cells[1].any() and stack.degenerate_cells[4].all()
    assert stack.degenerate_cells[2].any()
    x = np.concatenate([rows.reshape(-1), np.linspace(-4.0, 4.0, 57), [np.nan]])
    pts = x[:, None]
    labels, status = invert_batch(stack, pts)
    assert labels.shape == (rows.shape[0], x.size, 1) and status.shape == (rows.shape[0], x.size)
    seen = set()
    for r in range(rows.shape[0]):
        ref_labels, ref_status = _reference_invert_1d(ax, rows[r], stack.degenerate_cells[r], x)
        assert np.array_equal(status[r], ref_status)
        assert np.array_equal(labels[r, :, 0], ref_labels, equal_nan=True)
        assert labels[r, :, 0].tobytes() == ref_labels.tobytes()
        one_labels, one_status = _invert_one(_one_row(ax, X, log_I, r, 0.5), pts)
        assert one_labels.tobytes() == labels[r].tobytes()
        assert np.array_equal(one_status, status[r])
        seen.update(status[r].tolist())
    assert seen == {STATUS_OK, STATUS_OUT_OF_CHART, STATUS_NO_CONVERGENCE}
    assert (status[1] == STATUS_NO_CONVERGENCE).any()

    # psi on the stack is the one-row psi, row by row, for every field.
    f0 = parse_field("exp(-x1*x1)", 1)
    rho0 = parse_field("1 + 0.5*x1*x1", 1)
    (vf, vr), st = feynman_kac_psi_stack(stack, (f0, rho0), pts)
    assert np.array_equal(st, status)
    for r in range(rows.shape[0]):
        one = _one_row(ax, X, log_I, r, 0.5)
        one_f, _ = _psi_one(one, f0, pts)
        one_r, _ = _psi_one(one, rho0, pts)
        assert vf[r].tobytes() == one_f.tobytes()
        assert vr[r].tobytes() == one_r.tobytes()


def test_chart_stack_rows_equal_single_charts():
    # A batch with folded and regular realizations: every stack row carries the
    # metadata of the one-row stack built alone, and inverts to the same bits.
    cs = make_coeffs("1 + 0.9*sin(3*x1)", nu=0.5, n=1, box=Box((-30.0,), (30.0,)))
    driver = BrownianDriver(seed=5, dt=0.5, n=1)
    result = simulate_paths(
        cs, (np.linspace(-1, 1, 5),), num_steps=4, store_indices=[4],
        driver=driver, realization_indices=range(64),
    )
    slots = np.nonzero(result.alive)[0]
    degenerate = np.any(result.D_direct[-1] <= 0.0, axis=1)
    assert degenerate[slots].any() and not degenerate[slots].all()
    stack = chart_from_batch(result, result.times[-1], slots)
    x = np.linspace(-6.0, 6.0, 49)[:, None]
    labels, status = invert_batch(stack, x)
    for i, slot in enumerate(slots):
        chart = chart_from_batch(result, result.times[-1], [int(slot)])
        assert np.array_equal(stack.degenerate_cells[i], chart.degenerate_cells[0])
        assert stack.max_deformation[i] == chart.max_deformation[0]
        assert np.array_equal(stack.image_lo[i], chart.image_lo[0])
        assert np.array_equal(stack.image_hi[i], chart.image_hi[0])
        one_labels, one_status = _invert_one(chart, x)
        assert one_labels.tobytes() == labels[i].tobytes()
        assert np.array_equal(one_status, status[i])


def _assert_rows_match_one_row_stacks(stack, one_row, queries):
    """Per-row queries and roundtrip defects on a stack, against one-row stacks."""
    labels, status = invert_batch(stack, queries)
    assert labels.shape == queries.shape and status.shape == queries.shape[:2]
    rt = roundtrip_error(stack)
    assert rt["max_abs_error"].shape == rt["resolved_fraction"].shape == (stack.num_rows,)
    for r in range(stack.num_rows):
        one = one_row(r)
        one_labels, one_status = invert_batch(one, queries[r])
        assert labels[r].tobytes() == one_labels[0].tobytes(), r
        assert status[r].tobytes() == one_status[0].tobytes(), r
        one_rt = roundtrip_error(one)
        for key in ("max_abs_error", "resolved_fraction"):
            assert rt[key][r].tobytes() == one_rt[key][0].tobytes(), (r, key)
        assert rt["num_queries"] == one_rt["num_queries"]
    return status


def test_per_row_queries_match_one_row_stacks_1d():
    # Folded, flat-celled and reversed rows each invert their own query set.
    ax, rows = _mixed_rows()
    X = rows[..., None]
    log_I = np.cos(rows)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the plateau row's zero slope is flagged
        stack = _build_stack((ax,), X, log_I, 0.5)
    rng = np.random.default_rng(17)
    queries = np.concatenate(
        [rows, rows + 0.013, rng.uniform(-4.0, 4.0, size=(rows.shape[0], 31))], axis=1
    )[..., None]
    status = _assert_rows_match_one_row_stacks(
        stack, lambda r: _one_row(ax, X, log_I, r, 0.5), queries
    )
    assert set(status.reshape(-1).tolist()) == {
        STATUS_OK, STATUS_OUT_OF_CHART, STATUS_NO_CONVERGENCE,
    }
    # Per-row queries that repeat one set give the shared-query result.
    shared_labels, shared_status = invert_batch(stack, queries[0])
    rep_labels, rep_status = invert_batch(stack, np.broadcast_to(queries[0], queries.shape))
    assert shared_labels.tobytes() == rep_labels.tobytes()
    assert np.array_equal(shared_status, rep_status)


def test_per_row_queries_match_one_row_stacks_2d():
    cs = make_coeffs(
        [["1 + 0.3*sin(x1)", "0"], ["0", "1 + 0.3*cos(x2)"]],
        nu=0.1, n=2, box=Box((-4.0, -4.0), (4.0, 4.0)),
    )
    axes = (np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
    driver = BrownianDriver(seed=8, dt=0.01, n=2)
    result = simulate_paths(cs, axes, 20, [20], driver, range(4))
    assert result.alive.all()
    stack = chart_from_batch(result, 0.2, range(4))
    rng = np.random.default_rng(19)
    nodes = stack.X.reshape(4, -1, 2)
    queries = np.concatenate(
        [nodes[:, ::7] + rng.normal(scale=0.05, size=nodes[:, ::7].shape),
         rng.uniform(-3.0, 3.0, size=(4, 6, 2))],
        axis=1,
    )
    status = _assert_rows_match_one_row_stacks(
        stack, lambda r: chart_from_batch(result, 0.2, [r]), queries
    )
    assert (status == STATUS_OK).any() and (status != STATUS_OK).any()


def test_stack_warns_once_per_under_resolved_chart():
    ax = np.linspace(-1.0, 1.0, 5)
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    stretched = grid * np.array([100.0, 1.0])
    X = np.stack([grid, stretched, grid, stretched * np.array([2.0, 1.0])])
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stack = _build_stack((ax, ax), X, np.zeros(X.shape[:3]), 0.25)
    assert stack.under_resolved.tolist() == [False, True, False, True]
    texts = [str(w.message) for w in caught]
    assert texts == [
        f"chart at t=0.25 is under-resolved: max deformation ratio {d:.3g} exceeds 50"
        for d in (100.0, 200.0)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_blocked_seed_matches_brute_force_argmin(n):
    rng = np.random.default_rng(n)
    # Integer nodes and half-integer queries: many exact equal-distance ties.
    nodes = rng.integers(-4, 5, size=(300, n)).astype(float)
    queries = rng.integers(-8, 9, size=(2 * _SEED_BLOCK_QUERIES + 7, n)) / 2.0
    smooth = rng.normal(size=(2 * _SEED_BLOCK_QUERIES + 7, n)) * 3.0
    for flat_X, x in ((nodes, queries), (rng.normal(size=(1089, n)), smooth)):
        brute = np.argmin(((x[:, None, :] - flat_X[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert np.array_equal(_nearest_node(flat_X, x), brute)
    # Mirrored nodes (a, b, c) and (c, b, a) around a query at the origin: their
    # squared distances are the same three squares summed in another order, so they
    # tie or differ by rounding only, and the winner follows the brute-force bits.
    flips = 0
    for a in rng.uniform(0.5, 2.0, size=(200, n)):
        pair = np.stack([a, a[::-1]])
        brute = np.argmin(((0.0 - pair) ** 2).sum(axis=1))
        assert _nearest_node(pair, np.zeros((1, n)))[0] == brute
        flips += int(brute == 1)
    assert flips > 0 if n == 3 else flips == 0
    # An exact tie: the first of the equidistant nodes wins.
    tie = np.zeros((4, n))
    tie[1, 0], tie[2, 0], tie[3, 1] = 1.0, -1.0, 1.0
    assert _nearest_node(tie[1:], np.zeros((1, n)))[0] == 0
    assert _nearest_node(tie[[3, 2, 1]], np.zeros((1, n)))[0] == 0


def test_seeds_on_a_chart_with_planted_ties_take_the_first_node():
    # A 33 x 33 grid with dyadic spacing and 31 x 31 queries at cell centres: each
    # query is exactly equidistant from its cell's four corners, and the first of
    # them in row-major order is the lower-left one.  961 queries also leave a
    # short last block of 961 - 3 * 256 = 193.
    ax = np.linspace(-1.0, 1.0, 33)
    X = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    mid = 0.5 * (ax[:-2] + ax[1:-1])
    x = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
    assert x.shape[0] == 961 and x.shape[0] % _SEED_BLOCK_QUERIES
    seeds = _nearest_node(X, x)
    assert np.array_equal(seeds, ((x[:, None] - X[None]) ** 2).sum(2).argmin(1))
    i, j = np.meshgrid(np.arange(31), np.arange(31), indexing="ij")
    assert np.array_equal(seeds, (33 * i + j).ravel())


def _hand_chart(ax, X):
    """A one-row 2D stack of the stored positions X, (size, size, 2), at t = 0.5."""
    return _build_stack((ax, ax), X[None], np.zeros((1,) + X.shape[:2]), 0.5)


def test_a_query_outside_a_rotated_chart_is_out_of_chart():
    # X = R a for a 45-degree rotation R: the image of the label square is a diamond
    # whose bounding box holds (1.2, 1.2), but its preimage R^T x = (1.2*sqrt(2), 0)
    # lies outside the labels.  Newton presses against the edge a1 = 1, cannot reduce
    # the residual there, and the query comes back out of the chart, not stalled.
    ax = np.linspace(-1.0, 1.0, 5)
    c = np.cos(np.pi / 4)
    R = np.array([[c, -c], [c, c]])
    chart = _hand_chart(ax, np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1) @ R.T)
    assert not chart.degenerate_cells.any()
    assert np.all(chart.image_lo[0] < 1.2) and np.all(chart.image_hi[0] > 1.2)
    labels, status = _invert_one(chart, np.array([[1.2, 1.2], [0.3, 0.2]]))
    assert status.tolist() == [STATUS_OUT_OF_CHART, STATUS_OK]
    assert np.isnan(labels[0]).all()
    assert np.allclose(labels[1], R.T @ [0.3, 0.2], atol=1e-8)


def test_queries_in_cells_with_a_collapsed_corner_do_not_converge():
    # Integer labels on [-2, 2]^2 mapped to themselves, except that node (0, 0) is
    # moved onto the image of node (1, 0).  The cells [0, 1] x [0, 1] and
    # [0, 1] x [-1, 0] then have a zero corner Jacobian determinant.
    ax = np.linspace(-2.0, 2.0, 5)
    X = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    X[2, 2] = X[3, 2]
    with pytest.warns(UserWarning, match="under-resolved"):
        chart = _hand_chart(ax, X)
    assert np.argwhere(chart.degenerate_cells[0]).tolist() == [[2, 1], [2, 2]]
    # (0.8, 0.6) is the image of label (2/3, 0.6) in cell [0, 1] x [0, 1]: Newton from
    # the seed (1, 1) converges there, and the degenerate cell rejects it.  (0.9, 0.05)
    # seeds at the collapsed node (0, 0), the first of the two nodes whose image is
    # nearest, where the interpolant's Jacobian is singular.  Both stay interior.
    labels, status = _invert_one(chart, np.array([[0.8, 0.6], [0.9, 0.05], [-1.5, 0.5]]))
    assert status.tolist() == [STATUS_NO_CONVERGENCE, STATUS_NO_CONVERGENCE, STATUS_OK]
    assert np.isnan(labels[:2]).all()
    assert np.allclose(labels[2], [-1.5, 0.5], atol=1e-8)
    # Alone, the singular query leaves Newton no query to step.
    assert _invert_one(chart, np.array([[0.9, 0.05]]))[1].tolist() == [STATUS_NO_CONVERGENCE]


def test_a_singular_stop_on_the_label_box_edge_does_not_converge():
    # A 3x3 chart of [-1, 1]^2 mapped to itself, except that node (1, 1) is moved
    # onto node (1, 0).  (0.99, 0.001) lies in the image of the collapsed cell
    # [0, 1] x [0, 1]; Newton stops there at the edge a1 = 1, where the interpolant's
    # Jacobian is singular.  That is a singular stop, not a query outside the
    # chart, so the on-edge rule leaves it NO_CONVERGENCE, as it does (0.5, 0.25).
    ax = np.linspace(-1.0, 1.0, 3)
    X = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    X[2, 2] = X[2, 1]
    with pytest.warns(UserWarning, match="under-resolved"):
        chart = _hand_chart(ax, X)
    _, status = _invert_one(chart, np.array([[0.99, 0.001], [0.5, 0.25]]))
    assert status.tolist() == [STATUS_NO_CONVERGENCE, STATUS_NO_CONVERGENCE]
