"""Boxes, tensor grids, quadrature weights, and multilinear interpolation."""

import numpy as np
import pytest

from stochflow.errors import DimensionMismatch
from stochflow.grids import (
    Box,
    grid_axes,
    mesh_points,
    multilinear_interp,
    multilinear_interp_rows,
    multilinear_interp_with_grad,
    trapezoid_weights,
)


# ---------------------------------------------------------------------------
# Box
# ---------------------------------------------------------------------------


def test_box_basic_properties():
    b = Box((-1.0, 0.0), (2.0, 3.0))
    assert b.dim == 2
    assert np.allclose(b.center, [0.5, 1.5])


def test_box_padded():
    b = Box((-1.0, 0.0), (1.0, 2.0))
    p = b.padded(0.5)
    assert np.allclose(p.lo, [-1.5, -0.5]) and np.allclose(p.hi, [1.5, 2.5])
    # the padded box strictly encloses the original on every side
    assert all(a < c for a, c in zip(p.lo, b.lo)) and all(d < c for c, d in zip(p.hi, b.hi))


def test_box_validation():
    with pytest.raises(Exception):
        Box((1.0,), (0.0,))  # inverted bounds
    with pytest.raises(Exception):
        Box((0.0, 0.0), (1.0,))  # mismatched lengths


# ---------------------------------------------------------------------------
# Grids and quadrature
# ---------------------------------------------------------------------------


def test_grid_axes_spans_box():
    b = Box((-2.0, 0.0), (2.0, 1.0))
    axes = grid_axes(b, (5, 3))
    assert len(axes) == 2
    assert np.allclose(axes[0], np.linspace(-2, 2, 5))
    assert np.allclose(axes[1], np.linspace(0, 1, 3))


def test_mesh_points_c_order():
    axes = (np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0]))
    pts = mesh_points(axes)
    assert pts.shape == (6, 2)
    # C order: second axis varies fastest.
    assert np.allclose(pts[0], [0, 10]) and np.allclose(pts[1], [0, 20])
    assert np.allclose(pts[3], [1, 10])


def test_trapezoid_weights_integrate_exactly_linear():
    # Trapezoid quadrature is exact on piecewise-linear integrands; check total
    # volume and a linear function on a 2D grid.
    axes = (np.linspace(-1, 2, 7), np.linspace(0, 1, 5))
    w = trapezoid_weights(axes)
    pts = mesh_points(axes)
    assert w.shape == (pts.shape[0],)
    assert float(w.sum()) == pytest.approx(3.0 * 1.0, rel=1e-13)
    f = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
    exact = 2.0 * (0.5 * (4 - 1)) * 1.0 - 3.0 * 3.0 * 0.5 + 3.0  # ∫∫(2x-3y+1)
    assert float(np.sum(w * f)) == pytest.approx(exact, rel=1e-13)


def test_trapezoid_weights_converge_on_smooth_integrand():
    # Second-order convergence on a smooth integrand over [0, pi].
    errs = []
    for m in (17, 33, 65):
        ax = (np.linspace(0, np.pi, m),)
        w = trapezoid_weights(ax)
        errs.append(abs(float(np.sum(w * np.sin(ax[0]))) - 2.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# Multilinear interpolation
# ---------------------------------------------------------------------------


def test_interp_reproduces_multilinear_functions_exactly():
    # A multilinear function (affine in each variable) is reproduced exactly.
    axes = (np.linspace(-1, 1, 9), np.linspace(0, 2, 7))
    pts_grid = mesh_points(axes)
    vals = (1.0 + 2.0 * pts_grid[:, 0]) * (3.0 - pts_grid[:, 1])
    vals = vals.reshape(9, 7)
    rng = np.random.default_rng(3)
    q = np.column_stack([rng.uniform(-1, 1, 40), rng.uniform(0, 2, 40)])
    out = multilinear_interp(axes, vals, q)
    ref = (1.0 + 2.0 * q[:, 0]) * (3.0 - q[:, 1])
    assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)


def test_interp_exact_at_nodes():
    axes = (np.linspace(0, 1, 5),)
    vals = np.sin(axes[0])
    out = multilinear_interp(axes, vals, axes[0][:, None])
    assert np.allclose(out, vals, rtol=0, atol=1e-15)


def test_interp_out_of_range_modes():
    axes = (np.linspace(0.0, 1.0, 5),)
    vals = 2.0 * axes[0]
    outside = np.array([[-0.5], [1.5]])
    with pytest.raises(Exception):
        multilinear_interp(axes, vals, outside, out_of_range="error")
    clamped = multilinear_interp(axes, vals, outside, out_of_range="clamp")
    assert np.allclose(clamped, [0.0, 2.0])
    masked_vals, inside = multilinear_interp(axes, vals, outside, out_of_range="mask")
    assert not inside.any()
    inside_pt = multilinear_interp(axes, vals, np.array([[0.25]]), out_of_range="mask")
    assert inside_pt[1].all() and inside_pt[0][0] == pytest.approx(0.5)


@pytest.mark.parametrize("n", [1, 2])
def test_interp_rows_matches_one_grid_at_a_time(n):
    # Each point reads its own grid of the stack, with the bits of the one-grid
    # interpolant in clamp mode, points outside the grid included.
    rng = np.random.default_rng(n)
    axes = tuple(np.sort(rng.uniform(-1.0, 1.0, 6 + k)) for k in range(n))
    stack = rng.normal(size=(5,) + tuple(ax.size for ax in axes))
    rows = rng.integers(0, 5, size=40)
    pts = rng.uniform(-1.3, 1.3, size=(40, n))
    got = multilinear_interp_rows(axes, stack, rows, pts)
    ref = np.array([
        multilinear_interp(axes, stack[r], p[None, :], out_of_range="clamp")[0]
        for r, p in zip(rows, pts)
    ])
    assert got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        multilinear_interp_rows(axes, stack[:, :-1], rows, pts)


def test_interp_with_grad_exact_on_multilinear():
    axes = (np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    pts_grid = mesh_points(axes)
    # f(x, y) = 2 + x - 3y + 4xy: multilinear, so values and gradient are exact.
    vals = (2.0 + pts_grid[:, 0] - 3.0 * pts_grid[:, 1] + 4.0 * pts_grid[:, 0] * pts_grid[:, 1]).reshape(5, 5)
    rng = np.random.default_rng(5)
    q = rng.uniform(-0.99, 0.99, size=(30, 2))
    out, grad, inside = multilinear_interp_with_grad(axes, vals, q)
    ref = 2.0 + q[:, 0] - 3.0 * q[:, 1] + 4.0 * q[:, 0] * q[:, 1]
    gx = 1.0 + 4.0 * q[:, 1]
    gy = -3.0 + 4.0 * q[:, 0]
    assert inside.all()
    assert np.allclose(out, ref, atol=1e-13)
    assert np.allclose(grad[:, 0], gx, atol=1e-12)
    assert np.allclose(grad[:, 1], gy, atol=1e-12)


def test_interp_dimension_mismatch():
    axes = (np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    vals = np.zeros((4, 4))
    with pytest.raises((DimensionMismatch, ValueError)):
        multilinear_interp(axes, vals, np.zeros((3, 3)))
