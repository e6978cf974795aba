"""Finite-difference reference solver: grid fields, solves, duality, entropy series."""

import warnings

import numpy as np
import pytest

from stochflow.convex import get_convex, non_convex_control
from stochflow.errors import (
    BlowUp,
    DimensionMismatch,
    PositivityViolation,
)
from stochflow.fields import parse_field
from stochflow.oracle import (
    GridField,
    OracleSeries,
    PhiSeries,
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
    gf = GridField(ax, vals, 0.25)
    assert gf.n == 2
    assert gf.shape == (11, 21)
    assert gf.spacing == pytest.approx((0.1, 0.1))
    assert gf.cell_volume == pytest.approx(0.01)
    # mass is the plain node sum times the cell volume
    assert gf.mass() == pytest.approx(3.0 * 11 * 21 * 0.01)
    assert gf.box.lo == (0.0, -1.0) and gf.box.hi == (1.0, 1.0)
    assert gf.t == 0.25


def test_grid_field_validation():
    ax1 = (np.linspace(0.0, 1.0, 11),)
    with pytest.raises(ValueError):
        GridField(ax1, np.zeros(10), 0.0)  # shape mismatch
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridField(ax1, bad, 0.0)  # non-finite values
    nonuniform = (np.array([0.0, 0.1, 0.3, 0.6]),)
    with pytest.raises(ValueError):
        GridField(nonuniform, np.zeros(4), 0.0)
    ax3 = tuple(np.linspace(0.0, 1.0, 5) for _ in range(3))
    with pytest.raises(DimensionMismatch):
        GridField(ax3, np.zeros((5, 5, 5)), 0.0)


def test_grid_field_from_expr_matches_direct_evaluation():
    fe = parse_field("sin(x1) * cos(x2) + t", 2)
    ax = (np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 2.0, 7))
    gf = grid_field_from_expr(fe, ax, t=0.5)
    x1, x2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    assert np.allclose(gf.values, np.sin(x1) * np.cos(x2) + 0.5, rtol=0, atol=1e-15)
    assert gf.t == 0.5


def test_grid_field_sample_shapes_and_modes():
    ax = (np.linspace(0.0, 1.0, 11),)
    gf = GridField(ax, 2.0 * ax[0] + 1.0, 0.0)
    # scalar in, scalar out; multilinear interpolation is exact on a linear field
    assert gf.sample(0.234) == pytest.approx(1.468, abs=1e-14)
    out = gf.sample(np.array([0.0, 0.5, 1.0]))  # 1D array = many queries in 1D
    assert np.allclose(out, [1.0, 2.0, 3.0], atol=1e-14)
    with pytest.raises(ValueError):
        gf.sample(1.5)  # default out_of_range="error"
    assert gf.sample(1.5, out_of_range="clamp") == pytest.approx(3.0)
    val, inside = gf.sample(1.5, out_of_range="mask")
    assert not inside and val == pytest.approx(3.0)  # mask mode still clamps the value

    ax2 = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    x1, x2 = np.meshgrid(ax2[0], ax2[1], indexing="ij")
    gf2 = GridField(ax2, x1 + 10.0 * x2, 0.0)
    assert gf2.sample([0.25, 0.5]) == pytest.approx(5.25, abs=1e-13)
    with pytest.raises(DimensionMismatch):
        gf2.sample([0.25, 0.5, 0.75])


def test_grid_field_to_csv_roundtrip(tmp_path):
    ax = (np.linspace(0.0, 1.0, 5), np.linspace(2.0, 3.0, 3))
    rng = np.random.default_rng(7)
    gf = GridField(ax, rng.standard_normal((5, 3)), 0.0)
    path = tmp_path / "field.csv"
    gf.to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,value"
    assert len(rows) == 1 + 15
    # %.17g roundtrips doubles exactly
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 2.0
    assert float(first[2]) == gf.values[0, 0]


# ---------------------------------------------------------------------------
# forward solve vs closed forms
# ---------------------------------------------------------------------------


def test_forward_heat_matches_analytic_gaussian():
    # constant unit diffusion: the Gaussian stays Gaussian with variance s0^2 + 2*nu*t
    nu, s0sq = 0.1, 0.25
    cs = make_coeffs("1", nu=nu, n=1)
    ax = (np.linspace(-6.0, 6.0, 601),)  # dx = 0.02
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1/0.5)", 1), ax)
    ser = solve_forward(cs, f0, T=0.5, dt=1e-3, output_times=[0.25, 0.5])
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
    ser = solve_forward(cs, f0, T=0.2, dt=1e-3, output_times=[0.0, 0.1, 0.2])
    masses = [f.mass() for f in ser.fields]
    assert max(abs(m - masses[0]) for m in masses) < 1e-12


def test_forward_blowup_detected():
    # growth rate V = 1000: each Crank-Nicolson step (V dt = 1) multiplies the
    # solution by 3, so it overflows after about 650 of the 1000 steps
    cs = make_coeffs("1", V="1000", nu=0.1, n=1)
    ax = (np.linspace(-6.0, 6.0, 241),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1/0.5)", 1), ax)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUp):
            solve_forward(cs, f0, T=1.0, dt=1e-3)


def test_forward_require_positive():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-6.0, 6.0, 121),)
    bump = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    # strictly positive data stays positive through the heat solve
    ser = solve_forward(cs, bump.with_values(bump.values + 0.1), T=0.1, dt=1e-3,
                        output_times=[0.1], require_positive=True)
    assert np.min(ser.at(0.1).values) > 0.0
    signed = grid_field_from_expr(parse_field("sin(x1)", 1), ax)
    with pytest.raises(PositivityViolation):
        solve_forward(cs, signed, T=0.1, dt=1e-3, require_positive=True)


def test_forward_time_grid_validation():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("1", 1), ax)
    with pytest.raises(ValueError, match="integer multiple"):
        solve_forward(cs, f0, T=0.105, dt=0.01)
    with pytest.raises(ValueError, match="step grid"):
        solve_forward(cs, f0, T=0.1, dt=0.01, output_times=[0.055])
    with pytest.raises(ValueError, match="positive"):
        solve_forward(cs, f0, T=0.1, dt=0.0)
    with pytest.raises(ValueError, match="positive"):
        solve_forward(cs, f0, T=-0.1, dt=0.01)
    cs2 = make_coeffs([["1", "0"], ["0", "1"]], nu=0.1, n=2)
    with pytest.raises(DimensionMismatch):
        solve_forward(cs2, f0, T=0.1, dt=0.01)


def test_forward_default_output_stores_every_step():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    ser = solve_forward(cs, f0, T=0.05, dt=0.01)
    assert np.allclose(ser.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05], atol=1e-12)
    assert ser.stack().shape == (6, 21)
    # slot 0 is the initial data itself
    assert np.array_equal(ser.fields[0].values, f0.values)


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
    fser = solve_forward(cs, f0, T=0.2, dt=1e-3, output_times=times)
    phi_T = grid_field_from_expr(parse_field("1 + exp(-x1*x1)", 1), ax, t=0.2)
    aser = solve_adjoint(cs, phi_T, T=0.2, dt=1e-3, output_times=times)
    assert np.allclose(aser.times, times, atol=1e-12)
    pairings = [float(np.sum(f.values * p.values)) for f, p in zip(fser.fields, aser.fields)]
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
# series containers
# ---------------------------------------------------------------------------


def test_oracle_series_at_lookup_errors():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-1.0, 1.0, 21),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    ser = solve_forward(cs, f0, T=0.1, dt=0.01, output_times=[0.0, 0.05, 0.1])
    assert ser.at(0.05).t == pytest.approx(0.05)
    with pytest.raises(ValueError, match="not stored"):
        ser.at(0.07)


def test_phi_series_time_and_space_interpolation():
    cs = make_coeffs("1", nu=0.1, n=1)
    ax = (np.linspace(-2.0, 2.0, 41),)
    f0 = grid_field_from_expr(parse_field("exp(-x1*x1)", 1), ax)
    ser = solve_forward(cs, f0, T=0.1, dt=0.01, output_times=[0.0, 0.05, 0.1])
    phi = PhiSeries(ser)
    # exact at nodes and stored times
    assert phi(ax[0][7], 0.05) == pytest.approx(ser.at(0.05).values[7], abs=1e-15)
    # between stored times: linear blend of the two bracketing snapshots
    lo = ser.at(0.0).sample(0.33)
    hi = ser.at(0.05).sample(0.33)
    w = 0.02 / 0.05
    assert phi(0.33, 0.02) == pytest.approx((1 - w) * lo + w * hi, abs=1e-14)
    # out-of-domain points clamp to the boundary value
    assert phi(5.0, 0.1) == pytest.approx(ser.at(0.1).values[-1], abs=1e-15)
    # vectorized queries match scalar ones
    pts = np.array([-1.0, 0.0, 1.0])
    vec = phi(pts, 0.05)
    assert vec.shape == (3,)
    assert vec[1] == pytest.approx(phi(0.0, 0.05), abs=1e-15)
    with pytest.raises(ValueError, match="outside the stored range"):
        phi(0.0, 0.2)
    with pytest.raises(ValueError, match="outside the stored range"):
        phi(0.0, -0.01)


def test_phi_series_single_snapshot():
    ax = (np.linspace(0.0, 1.0, 11),)
    gf = GridField(ax, 2.0 * ax[0], 0.5)
    ser = OracleSeries(times=np.array([0.5]), fields=[gf], dt=0.5)
    phi = PhiSeries(ser)
    assert phi(0.25, 0.5) == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# entropy series
# ---------------------------------------------------------------------------


def _const_series(axes, values_per_time, times, dt):
    fields = [
        GridField(axes, np.full(tuple(a.size for a in axes), v), t)
        for v, t in zip(values_per_time, times)
    ]
    return OracleSeries(times=np.asarray(times, dtype=float), fields=fields, dt=dt)


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
    assert rep.scale == pytest.approx(0.1**2 + 0.1)
    assert rep.slack == pytest.approx(rep.scale)
    assert rep.max_increment < 0.0
    assert rep.increments.shape == (3,)
    # confidence-band fields stay empty for deterministic series
    assert rep.lower is None and rep.upper is None and rep.z_scores is None


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
    assert rep.C_needed == pytest.approx(3.3 / rep.scale, rel=1e-12)
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
    fser = solve_forward(cs, f0, T=0.2, dt=2e-3, output_times=times)
    rser = solve_forward(cs, rho0, T=0.2, dt=2e-3, output_times=times, require_positive=True)
    pser = _const_series(ax, [1.0] * len(times), times, 2e-3)
    rep = entropy_series(fser, rser, pser, get_convex("r2"), slack_constant=1.0)
    assert rep.verdict_nonincreasing
    assert np.all(np.diff(rep.values) < 0.0)  # strictly decreasing here
    control = entropy_series(fser, rser, pser, non_convex_control(), slack_constant=1.0)
    assert not control.verdict_nonincreasing
