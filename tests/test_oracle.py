"""Finite-difference reference solver: grid fields, solves, duality, entropy series."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from scipy.sparse.linalg import splu

from stochflow import oracle
from stochflow.checks import RunContext
from stochflow.config import bundled_scenario_path, loads_config
from stochflow.convex import get_convex, non_convex_control
from stochflow.engine import escape_margin
from stochflow.errors import (
    BlowUp,
    DimensionMismatch,
    PositivityViolation,
)
from stochflow.estimators import exponential_phi
from stochflow.fields import parse_field
from stochflow.grids import mesh_points
from stochflow.oracle import (
    GridField,
    OracleSeries,
    entropy_series,
    grid_field_from_expr,
    solve_adjoint,
    solve_forward,
)

from conftest import make_coeffs


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------


def test_grid_field_properties_and_mass():
    ax = (np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 1.0, 21))
    vals = np.full((11, 21), 3.0)
    gf = GridField(ax, vals)
    assert gf.n == 2
    assert gf.shape == (11, 21)
    assert gf.spacing == pytest.approx((0.1, 0.1))
    assert gf.cell_volume == pytest.approx(0.01)
    # mass is the plain node sum times the cell volume
    assert gf.values.sum() * gf.cell_volume == pytest.approx(3.0 * 11 * 21 * 0.01)
    assert gf.box.lo == (0.0, -1.0) and gf.box.hi == (1.0, 1.0)


def test_grid_field_validation():
    ax1 = (np.linspace(0.0, 1.0, 11),)
    with pytest.raises(ValueError):
        GridField(ax1, np.zeros(10))  # shape mismatch
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridField(ax1, bad)  # non-finite values
    nonuniform = (np.array([0.0, 0.1, 0.3, 0.6]),)
    with pytest.raises(ValueError):
        GridField(nonuniform, np.zeros(4))
    ax3 = tuple(np.linspace(0.0, 1.0, 5) for _ in range(3))
    with pytest.raises(DimensionMismatch):
        GridField(ax3, np.zeros((5, 5, 5)))


def test_grid_field_from_expr_matches_direct_evaluation():
    fe = parse_field("sin(x1) * cos(x2) + t", 2)
    ax = (np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 2.0, 7))
    gf = grid_field_from_expr(fe, ax, t=0.5)
    x1, x2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    assert np.allclose(gf.values, np.sin(x1) * np.cos(x2) + 0.5, rtol=0, atol=1e-15)


def test_grid_field_sample_shapes_and_modes():
    ax = (np.linspace(0.0, 1.0, 11),)
    gf = GridField(ax, 2.0 * ax[0] + 1.0)
    # (Q, n) in, (Q,) out; multilinear interpolation is exact on a linear field
    out = gf.sample(np.array([[0.0], [0.234], [0.5], [1.0]]))
    assert out.shape == (4,)
    assert np.allclose(out, [1.0, 1.468, 2.0, 3.0], atol=1e-14)
    with pytest.raises(ValueError, match="outside the grid"):
        gf.sample(np.array([[1.5]]))
    with pytest.raises(ValueError, match="shape"):
        gf.sample(np.array([0.5]))  # a bare point is not a (Q, n) array

    ax2 = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    x1, x2 = np.meshgrid(ax2[0], ax2[1], indexing="ij")
    gf2 = GridField(ax2, x1 + 10.0 * x2)
    assert gf2.sample(np.array([[0.25, 0.5]]))[0] == pytest.approx(5.25, abs=1e-13)
    with pytest.raises(ValueError, match="shape"):
        gf2.sample(np.array([[0.25, 0.5, 0.75]]))


# ---------------------------------------------------------------------------
# forward solve vs closed forms
# ---------------------------------------------------------------------------


def test_forward_heat_matches_analytic_gaussian():
    # constant unit diffusion: the Gaussian stays Gaussian with variance s0^2 + 2*nu*t
    nu, s0sq = 0.1, 0.25
    cs = make_coeffs("1", nu=nu, n=1)
    ax = (np.linspace(-6.0, 6.0, 601),)  # dx = 0.02
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1/0.5)", 1), ax)
    (ser,) = solve_forward(cs, [f0], T=0.5, dt=1e-3, output_times=[0.25, 0.5])
    for t in (0.25, 0.5):
        var = s0sq + 2.0 * nu * t
        exact = np.sqrt(s0sq / var) * np.exp(-ax[0] ** 2 / (2.0 * var))
        err = np.max(np.abs(ser.at(t).values - exact))
        # measured 2.5e-5 / 3.4e-5 at this resolution
        assert err < 1e-4, f"t={t}: max error {err:.3e}"


def test_forward_conserves_mass_with_variable_coefficients():
    # flux-form generator with zero potential: node-sum mass is conserved to roundoff
    cs = make_coeffs("1 + 0.5*sin(x1)", U=["0.1*cos(x1)"], nu=0.1, n=1)
    ax = (np.linspace(-4.0, 4.0, 201),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    (ser,) = solve_forward(cs, [f0], T=0.2, dt=1e-3, output_times=[0.0, 0.1, 0.2])
    masses = [values.sum() * f0.cell_volume for values in ser.values]
    assert max(abs(m - masses[0]) for m in masses) < 1e-12


def test_forward_blowup_detected():
    # growth rate V = 1000: each Crank-Nicolson step (V dt = 1) multiplies the
    # solution by 3, so it overflows after about 650 of the 1000 steps
    cs = make_coeffs("1", V="1000", nu=0.1, n=1)
    ax = (np.linspace(-6.0, 6.0, 241),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1/0.5)", 1), ax)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUp):
            solve_forward(cs, [f0], T=1.0, dt=1e-3)


def test_forward_require_positive():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-6.0, 6.0, 121),)
    bump = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    # strictly positive data stays positive through the heat solve
    (ser,) = solve_forward(cs, [GridField(bump.axes, bump.values + 0.1)], T=0.1,
                           dt=1e-3, output_times=[0.1], require_positive=[True])
    assert np.min(ser.at(0.1).values) > 0.0
    signed = grid_field_from_expr(parse_field("sin(x1)", 1), ax)
    with pytest.raises(PositivityViolation):
        solve_forward(cs, [signed], T=0.1, dt=1e-3, require_positive=[True])


def test_forward_time_grid_validation():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("1", 1), ax)
    with pytest.raises(ValueError, match="time 0.105 does not lie on the dt=0.01 step grid"):
        solve_forward(cs, [f0], T=0.105, dt=0.01)
    with pytest.raises(ValueError, match="step grid"):
        solve_forward(cs, [f0], T=0.1, dt=0.01, output_times=[0.055])
    with pytest.raises(ValueError, match="positive"):
        solve_forward(cs, [f0], T=0.1, dt=0.0)
    with pytest.raises(ValueError, match="time -0.1 does not lie on the dt=0.01 step grid"):
        solve_forward(cs, [f0], T=-0.1, dt=0.01)
    with pytest.raises(ValueError, match="shorter than one step"):
        solve_forward(cs, [f0], T=1e-12, dt=0.01)
    with pytest.raises(ValueError, match="past the horizon"):
        solve_forward(cs, [f0], T=0.1, dt=0.01, output_times=[0.2])
    cs2 = make_coeffs([["1", "0"], ["0", "1"]], nu=0.1, n=2)
    with pytest.raises(DimensionMismatch):
        solve_forward(cs2, [f0], T=0.1, dt=0.01)


@pytest.mark.parametrize("times", [[], np.array([])], ids=["list", "array"])
def test_empty_output_times_are_refused(times):
    # Both solvers refuse to store nothing, before any assembly or step.
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("1", 1), ax)
    with pytest.raises(ValueError, match="output_times"):
        solve_forward(cs, [f0], T=0.1, dt=0.01, output_times=times)
    with pytest.raises(ValueError, match="output_times"):
        solve_adjoint(cs, f0, T=0.1, dt=0.01, output_times=times)


def test_forward_default_output_stores_every_step():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    (ser,) = solve_forward(cs, [f0], T=0.05, dt=0.01)
    assert np.allclose(ser.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05], atol=1e-12)
    assert ser.values.shape == (6, 21)
    # slot 0 is the initial data itself
    assert np.array_equal(ser.values[0], f0.values)


# ---------------------------------------------------------------------------
# adjoint solve and discrete duality
# ---------------------------------------------------------------------------


def test_adjoint_forward_discrete_duality():
    # sum(phi_k * f_k) over nodes must be constant in k to solver roundoff
    # for any adjoint/forward pair sharing dt.
    cs = make_coeffs("1 + 0.5*sin(x1)", U=["0.1*cos(x1)"], V="0.3", nu=0.1, n=1)
    ax = (np.linspace(-4.0, 4.0, 201),)
    times = [0.0, 0.05, 0.1, 0.15, 0.2]
    f0 = grid_field_from_expr(parse_field("exp(-(x1-0.5)*(x1-0.5))", 1), ax)
    (fser,) = solve_forward(cs, [f0], T=0.2, dt=1e-3, output_times=times)
    phi_T = grid_field_from_expr(parse_field("1 + exp(-x1*x1)", 1), ax, t=0.2)
    aser = solve_adjoint(cs, phi_T, T=0.2, dt=1e-3, output_times=times)
    assert np.allclose(aser.times, times, atol=1e-12)
    pairings = [float(np.sum(f * p)) for f, p in zip(fser.values, aser.values)]
    spread = (max(pairings) - min(pairings)) / abs(pairings[0])
    assert spread < 1e-12, f"duality pairing drifted by {spread:.3e}"


def test_adjoint_constant_terminal_data():
    ax = (np.linspace(-4.0, 4.0, 201),)
    ones = grid_field_from_expr(parse_field("1", 1), ax, t=0.2)
    # zero potential: constants are exactly preserved (generator columns sum to zero)
    cs0 = make_coeffs("1 + 0.5*sin(x1)", U=["0.1*cos(x1)"], nu=0.1, n=1)
    adj0 = solve_adjoint(cs0, ones, T=0.2, dt=1e-3, output_times=[0.0, 0.1, 0.2])
    for t in (0.0, 0.1, 0.2):
        assert np.max(np.abs(adj0.at(t).values - 1.0)) < 1e-12
    # constant potential c: each Crank-Nicolson step multiplies a constant field by
    # (1 + c*dt/2) / (1 - c*dt/2), so the stored snapshots follow that power exactly
    c, dt, K = 0.3, 1e-3, 200
    csc = make_coeffs("1 + 0.5*sin(x1)", U=["0.1*cos(x1)"], V=str(c), nu=0.1, n=1)
    adjc = solve_adjoint(csc, ones, T=0.2, dt=dt, output_times=[0.0, 0.1, 0.2])
    ratio = (1.0 + 0.5 * dt * c) / (1.0 - 0.5 * dt * c)
    for t, k in [(0.0, 0), (0.1, 100), (0.2, 200)]:
        expect = ratio ** (K - k)
        assert np.max(np.abs(adjc.at(t).values - expect)) < 1e-12


def test_adjoint_rejects_negative_terminal_data():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    signed = grid_field_from_expr(parse_field("sin(3*x1)", 1), ax, t=0.1)
    with pytest.raises(ValueError, match="non-negative"):
        solve_adjoint(cs, signed, T=0.1, dt=0.01)


# ---------------------------------------------------------------------------
# Crank–Nicolson factorization: ordering
# ---------------------------------------------------------------------------


def _diag_2d_adjoint_problem():
    """Coefficients, terminal data and step of the benchmark's 2D adjoint solve.

    The bundled diag_sigma_2d scenario at oracle_dx 0.1, on the grid its
    martingale_M weight solves on: 109 x 109 = 11881 unknowns.
    """
    raw = yaml.safe_load(open(str(bundled_scenario_path("diag_sigma_2d"))))
    raw["oracle_dx"] = 0.1
    cfg = loads_config(yaml.safe_dump(raw))
    pad = escape_margin(cfg.nu, cfg.T) + 5 * cfg.oracle_dx
    axes = RunContext(cfg, cfg.seed).oracle_axes(cfg.box.padded(pad))
    return cfg.coefficients, grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T), cfg.dt


def _colamd_march(L, f, half_dt, steps, adjoint):
    """Crank–Nicolson march with SuperLU's default (COLAMD) column ordering."""
    M = L.T.tocsr() if adjoint else L
    lu = splu((sp.identity(f.size, format="csc") - half_dt * M).tocsc())
    out = [f.copy()]
    for _ in range(steps):
        if adjoint:
            y = lu.solve(f)
            f = y + half_dt * (M @ y)
            np.clip(f, 0.0, None, out=f)
        else:
            f = lu.solve(f + half_dt * (M @ f))
        out.append(f.copy())
    return np.array(out)


def test_2d_crank_nicolson_factor_has_at_most_0_6_of_colamd_fill(monkeypatch):
    cs, phi_T, dt = _diag_2d_adjoint_problem()
    assert phi_T.values.size == 11881
    factored = []

    def recording_splu(A, **kwargs):
        lu = splu(A, **kwargs)
        factored.append((A, lu))
        return lu

    monkeypatch.setattr(oracle, "splu", recording_splu)
    solve_adjoint(cs, phi_T, T=dt, dt=dt)
    (A, lu), = factored
    colamd = splu(A, permc_spec="COLAMD")
    fill, reference = lu.L.nnz + lu.U.nnz, colamd.L.nnz + colamd.U.nnz
    assert fill <= 0.6 * reference, (fill, reference)


def test_2d_series_match_a_colamd_march():
    cs, phi_T, dt = _diag_2d_adjoint_problem()
    steps = 40
    T = steps * dt
    L = oracle.assemble_generator(cs, phi_T.axes)
    shape = (steps + 1,) + phi_T.shape
    adj = solve_adjoint(cs, phi_T, T=T, dt=dt).values[::-1].reshape(steps + 1, -1)
    ref = _colamd_march(L, phi_T.values.reshape(-1), 0.5 * dt, steps, adjoint=True)
    assert np.max(np.abs(adj - ref)) <= 1e-12 * np.max(np.abs(ref))
    f0 = GridField(phi_T.axes, phi_T.values)
    fwd = solve_forward(cs, [f0], T=T, dt=dt)[0].values.reshape(shape[0], -1)
    ref = _colamd_march(L, f0.values.reshape(-1), 0.5 * dt, steps, adjoint=False)
    assert np.max(np.abs(fwd - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_1d_forward_series_keeps_the_default_ordering_bits():
    cs = make_coeffs("1 + 0.5*sin(x1)", U=["0.1*cos(x1)"], V="0.3", nu=0.1, n=1)
    ax = (np.linspace(-4.0, 4.0, 201),)
    f0 = grid_field_from_expr(parse_field("exp(-(x1-0.5)*(x1-0.5))", 1), ax)
    got = solve_forward(cs, [f0], T=0.1, dt=1e-3)[0].values
    ref = _colamd_march(oracle.assemble_generator(cs, ax), f0.values.copy(), 0.5e-3, 100,
                        adjoint=False)
    assert got.tobytes() == ref.tobytes()


def _loop_node_grad_1d(ax):
    """The centered node gradient built entry by entry, as a reference."""
    n = ax.size
    h = float(ax[1] - ax[0])
    m = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0] = -1.0 / h
    m[0, 1] = 1.0 / h
    m[n - 1, n - 2] = -1.0 / h
    m[n - 1, n - 1] = 1.0 / h
    return m.tocsr()


def test_cross_term_generator_keeps_the_loop_built_gradient_csr(monkeypatch):
    # a full sigma gives a nonzero off-diagonal a, the one place the node gradient enters
    cs = make_coeffs([["1 + 0.3*sin(x2)", "0.4"], ["0", "1"]], U=["0.2", "0"], nu=0.1, n=2)
    ax = (np.linspace(-3.0, 3.0, 41), np.linspace(-2.0, 2.0, 31))
    got = oracle.assemble_generator(cs, ax)
    monkeypatch.setattr(oracle, "_node_grad_1d", _loop_node_grad_1d)
    ref = oracle.assemble_generator(cs, ax)
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(ref, part).tobytes(), part


def _one_vector_march(cs, f0, T, dt):
    """Every step of a field marched alone, as a vector, with the solver's own factor."""
    L = oracle.assemble_generator(cs, f0.axes)
    lu = oracle._cn_factor(L, 0.5 * dt, f0.n)
    f = f0.values.reshape(-1).copy()
    out = [f.copy()]
    for _ in range(round(T / dt)):
        f = lu.solve(f + 0.5 * dt * (L @ f))
        out.append(f)
    return np.array(out)


_JOINT_PROBLEMS = {
    # variable diffusion, drift and growth on 401 nodes
    "1d": ("1 + 0.5*sin(x1)", ["0.1*cos(x1)"], "0.3", (np.linspace(-4.0, 4.0, 401),),
           ["exp(-(x1-0.5)*(x1-0.5))", "1 + 0.5*exp(-x1*x1)", "sin(x1)"]),
    # a full sigma, so the generator has cross terms, on 41 x 31 nodes
    "2d": ([["1 + 0.3*sin(x2)", "0.4"], ["0", "1"]], ["0.2", "0"], "0",
           (np.linspace(-3.0, 3.0, 41), np.linspace(-2.0, 2.0, 31)),
           ["exp(-x1*x1 - x2*x2)", "1 + 0.5*exp(-x1*x1)", "x1*x2"]),
}


@pytest.mark.parametrize("name", sorted(_JOINT_PROBLEMS))
def test_joint_march_gives_each_field_the_bits_of_a_lone_march(name):
    sigma, U, V, ax, exprs = _JOINT_PROBLEMS[name]
    cs = make_coeffs(sigma, U=U, V=V, nu=0.1, n=len(ax))
    initial = [grid_field_from_expr(parse_field(e, len(ax)), ax) for e in exprs]
    joint = solve_forward(cs, initial, T=0.2, dt=1e-3)
    assert len(joint) == len(initial)
    for g, ser in zip(initial, joint):
        ref = _one_vector_march(cs, g, T=0.2, dt=1e-3)
        assert ser.values.reshape(ref.shape).tobytes() == ref.tobytes()
        assert np.array_equal(ser.times, joint[0].times)


def test_joint_march_raises_at_the_first_step_any_field_fails():
    # V = 1000 blows every field up after about 650 of the 1000 steps; a signed
    # field that must stay positive fails already at t = 0.  The first step at which
    # any field fails raises, whatever the order of the fields.
    cs = make_coeffs("1", V="1000", nu=0.1, n=1)
    ax = (np.linspace(-6.0, 6.0, 241),)
    bump = grid_field_from_expr(parse_field("exp(-x1*x1/0.5)", 1), ax)
    signed = grid_field_from_expr(parse_field("sin(x1)", 1), ax)

    def error(fields, positive):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((BlowUp, PositivityViolation)) as info:
                solve_forward(cs, fields, T=1.0, dt=1e-3, require_positive=positive)
        return type(info.value), str(info.value)

    alone_bump = error([bump], [False])
    alone_signed = error([signed], [True])
    assert alone_bump[0] is BlowUp and "at t=0.642" in alone_bump[1]
    assert alone_signed[0] is PositivityViolation and "at t=0 " in alone_signed[1]
    assert error([bump, signed], [False, True]) == alone_signed
    assert error([signed, bump], [True, False]) == alone_signed
    # a field that never fails (zero stays zero) leaves the other field's error
    zero = GridField(ax, np.zeros(241))
    assert error([zero, bump], [False, False]) == alone_bump
    assert error([zero, bump, signed], [False, False, True]) == alone_signed
    with pytest.raises(ValueError, match="one require_positive flag per field"):
        solve_forward(cs, [bump, signed], T=1.0, dt=1e-3, require_positive=[True])


# ---------------------------------------------------------------------------
# series containers
# ---------------------------------------------------------------------------


def test_oracle_series_at_lookup_errors():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    (ser,) = solve_forward(cs, [f0], T=0.1, dt=0.01, output_times=[0.0, 0.05, 0.1])
    assert np.array_equal(ser.at(0.05).values, ser.values[1])
    assert ser.at(0.05).axes[0].tobytes() == ax[0].tobytes()
    with pytest.raises(ValueError, match="not stored"):
        ser.at(0.07)


def test_phi_series_time_and_space_interpolation():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-2.0, 2.0, 41),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    (ser,) = solve_forward(cs, [f0], T=0.1, dt=0.01, output_times=[0.0, 0.05, 0.1])
    phi = ser  # a series is read as a weight by calling it
    # exact at nodes and stored times
    assert phi(ax[0][[7]][:, None], 0.05)[0] == pytest.approx(ser.at(0.05).values[7], abs=1e-15)
    # between stored times: linear blend of the two bracketing snapshots
    q = np.array([[0.33]])
    lo = ser.at(0.0).sample(q)
    hi = ser.at(0.05).sample(q)
    w = 0.02 / 0.05
    assert phi(q, 0.02)[0] == pytest.approx((1 - w) * lo[0] + w * hi[0], abs=1e-14)
    # out-of-domain points clamp to the boundary value
    assert phi(np.array([[5.0]]), 0.1)[0] == pytest.approx(ser.at(0.1).values[-1], abs=1e-15)
    # each query of a batch gets the value it gets alone
    pts = np.array([[-1.0], [0.0], [1.0]])
    vec = phi(pts, 0.05)
    assert vec.shape == (3,)
    assert vec[1] == pytest.approx(phi(pts[1:2], 0.05)[0], abs=1e-15)
    with pytest.raises(ValueError, match="outside the stored range"):
        phi(pts, 0.2)
    with pytest.raises(ValueError, match="outside the stored range"):
        phi(pts, -0.01)


def test_phi_series_single_snapshot():
    ax = (np.linspace(0.0, 1.0, 11),)
    phi = OracleSeries(ax, np.array([0.5]), (2.0 * ax[0])[None], dt=0.5)
    assert phi(np.array([[0.25]]), 0.5)[0] == pytest.approx(0.5, abs=1e-14)


_SERIES_AS_PHI = {
    # variable diffusion, drift and growth on 401 nodes
    "1d": ("1 + 0.5*sin(x1)", ["0.1*cos(x1)"], "0.3*exp(-x1*x1)", (np.linspace(-4.0, 4.0, 401),),
           "1 + 0.5*exp(-(x1-0.5)*(x1-0.5))"),
    # a full sigma, so the generator has cross terms, on 61 x 61 nodes
    "2d": ([["1 + 0.3*sin(x2)", "0.4"], ["0", "1"]], ["0.2", "0"], "0.2*exp(-x1*x1)",
           (np.linspace(-3.0, 3.0, 61), np.linspace(-2.0, 2.0, 61)), "1 + 0.5*exp(-x1*x1 - x2*x2)"),
}


@pytest.mark.parametrize("name", sorted(_SERIES_AS_PHI))
def test_series_read_at_its_nodes_and_stored_times_gives_its_values(name):
    # Called at the grid nodes and at a stored time, a series returns that slot's
    # values bit for bit: the time weight is exactly 0 or 1 and the multilinear
    # interpolant is exact at nodes.  entropy_series relies on it.
    sigma, U, V, ax, terminal = _SERIES_AS_PHI[name]
    cs = make_coeffs(sigma, U=U, V=V, nu=0.1, n=len(ax))
    phi_T = grid_field_from_expr(parse_field(terminal, len(ax)), ax, t=0.1)
    times = [0.01 * i for i in range(11)]
    ser = solve_adjoint(cs, phi_T, T=0.1, dt=0.01, output_times=times)
    assert ser.values.shape == (11,) + phi_T.shape
    pts = mesh_points(ax)
    for s, t in enumerate(ser.times):
        assert ser(pts, t).reshape(phi_T.shape).tobytes() == ser.values[s].tobytes(), t


# ---------------------------------------------------------------------------
# entropy series
# ---------------------------------------------------------------------------


def _const_series(axes, values_per_time, times, dt):
    shape = tuple(a.size for a in axes)
    values = np.stack([np.full(shape, float(v)) for v in values_per_time])
    return OracleSeries(axes, np.asarray(times, dtype=float), values, dt)


def test_entropy_series_hand_computed_values():
    # constant fields make the functional exactly computable:
    # G(t) = H(f/rho) * phi * rho * (num_nodes * cell_volume)
    ax = (np.linspace(0.0, 1.0, 11),)
    times = [0.0, 0.1, 0.2, 0.3]
    ratios = [2.0, 1.5, 1.2, 1.1]
    rho_c, phi_c = 1.3, 0.7
    f_ser = _const_series(ax, [r * rho_c for r in ratios], times, 0.1)
    rho_ser = _const_series(ax, [rho_c] * 4, times, 0.1)
    phi_ser = _const_series(ax, [phi_c] * 4, times, 0.1)
    H = get_convex("r2")
    rep = entropy_series(f_ser, rho_ser, phi_ser, H, slack_constant=1.0)
    node_mass = 11 * 0.1
    expected = np.array([r * r * phi_c * rho_c * node_mass for r in ratios])
    assert np.allclose(rep.values, expected, rtol=1e-14)
    assert rep.verdict_nonincreasing and rep.num_violations == 0
    assert rep.C_needed == 0.0
    # the slack is C * (dx^2 + dt), with dx = dt = 0.1
    assert rep.slack == pytest.approx(0.1**2 + 0.1)
    assert rep.max_increment < 0.0
    assert rep.increments.shape == (3,)
    # confidence-band fields stay empty for deterministic series
    assert rep.lower is None and rep.upper is None


def test_entropy_series_flags_growth():
    ax = (np.linspace(0.0, 1.0, 11),)
    times = [0.0, 0.1, 0.2]
    rho_ser = _const_series(ax, [1.0] * 3, times, 0.1)
    phi_ser = _const_series(ax, [1.0] * 3, times, 0.1)
    f_ser = _const_series(ax, [1.0, 1.0, 2.0], times, 0.1)  # ratio jumps 1 -> 2
    rep = entropy_series(f_ser, rho_ser, phi_ser, get_convex("r2"), slack_constant=1.0)
    # increment of G: (4 - 1) * 1.1 = 3.3, far above slack 0.11
    assert not rep.verdict_nonincreasing
    assert rep.num_violations == 1
    assert rep.max_increment == pytest.approx(3.3, rel=1e-12)
    assert rep.C_needed == pytest.approx(3.3 / (0.1**2 + 0.1), rel=1e-12)
    # a big enough slack constant flips the verdict, C_needed tells us the threshold
    rep2 = entropy_series(f_ser, rho_ser, phi_ser, get_convex("r2"),
                          slack_constant=rep.C_needed * 1.01)
    assert rep2.verdict_nonincreasing


def test_entropy_series_input_validation():
    ax = (np.linspace(0.0, 1.0, 11),)
    times = [0.0, 0.1]
    f_ser = _const_series(ax, [1.0, 1.0], times, 0.1)
    phi_ser = _const_series(ax, [1.0, 1.0], times, 0.1)
    rho_zero = _const_series(ax, [1.0, 0.0], times, 0.1)
    with pytest.raises(PositivityViolation):
        entropy_series(f_ser, rho_zero, phi_ser, get_convex("r2"))
    rho_other_times = _const_series(ax, [1.0, 1.0], [0.0, 0.2], 0.2)
    with pytest.raises(ValueError, match="stored times"):
        entropy_series(f_ser, rho_other_times, phi_ser, get_convex("r2"))
    ax_other = (np.linspace(0.0, 2.0, 11),)
    rho_other_grid = _const_series(ax_other, [1.0, 1.0], times, 0.1)
    with pytest.raises(ValueError, match="same grid"):
        entropy_series(f_ser, rho_other_grid, phi_ser, get_convex("r2"))


def test_entropy_series_on_heat_solve_decays():
    # variable diffusion, zero potential: the relative-entropy functional of a pair of
    # forward solves is nonincreasing up to discretization slack, and the concave
    # control functional fails the same verdict.
    cs = make_coeffs("1 + 0.5*sin(x1)", nu=0.15, n=1)
    ax = (np.linspace(-4.0, 4.0, 161),)
    f0 = grid_field_from_expr(parse_field("exp(-2*(x1-0.3)*(x1-0.3))", 1), ax)
    rho0 = grid_field_from_expr(parse_field("1 + 0.5*exp(-x1*x1)", 1), ax)
    times = [0.0, 0.04, 0.08, 0.12, 0.16, 0.2]
    (fser,) = solve_forward(cs, [f0], T=0.2, dt=2e-3, output_times=times)
    (rser,) = solve_forward(cs, [rho0], T=0.2, dt=2e-3, output_times=times,
                            require_positive=[True])
    pser = exponential_phi(0.0, T=0.2)  # the closed-form weight of V = 0: exactly 1
    rep = entropy_series(fser, rser, pser, get_convex("r2"), slack_constant=1.0)
    assert rep.verdict_nonincreasing
    assert np.all(np.diff(rep.values) < 0.0)  # strictly decreasing here
    control = entropy_series(fser, rser, pser, non_convex_control(), slack_constant=1.0)
    assert not control.verdict_nonincreasing
