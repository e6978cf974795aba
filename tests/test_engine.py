"""Batched stepping, tracker recurrences, and determinism.

The single-step tests re-implement the Euler update by hand from pointwise
coefficient samples and require every stored step of a one-realization run to
match it; the statistical tests use the exactly known law of the
constant-coefficient flow.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import coefficient_sample, make_coeffs
from stochflow.brownian import BrownianDriver
from stochflow.engine import (
    BatchResult,
    escape_margin,
    run_chunks,
    simulate_paths,
)
from stochflow.errors import DimensionMismatch
from stochflow.estimators import constant_phi, exponential_phi, martingale_values
from stochflow.grids import Box
from stochflow.inverse import chart_from_batch


def hand_step(cs, state: dict, dW: np.ndarray, dt: float) -> dict:
    """Reference Euler update assembled from pointwise coefficient samples."""
    n = cs.n
    smp = coefficient_sample(cs, state["X"], state["t"])
    s2n = np.sqrt(2.0 * cs.nu)
    x_new = state["X"] + smp.v * dt + s2n * (smp.sigma @ dW)
    # M[j, k] = d_k v_j dt + sqrt(2 nu) sum_p d_k sigma_jp dW_p ; J' = (I + M) J.
    M = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            M[j, k] = smp.dv[k, j] * dt + s2n * np.dot(smp.dsigma[k, j, :], dW)
    j_new = state["J"] + M @ state["J"]
    drift = smp.div_v + 2.0 * cs.nu * smp.E
    noise = s2n * np.dot(smp.div_sigma, dW)
    d_new = state["D_sde"] * (1.0 + drift * dt + noise)
    lam_new = (
        state["log_lambda"] + drift * dt
        - cs.nu * np.dot(smp.div_sigma, smp.div_sigma) * dt + noise
    )
    logi_new = state["log_I"] + smp.P * dt
    return dict(
        t=state["t"] + dt, X=x_new, J=j_new,
        D_sde=d_new, log_lambda=lam_new, log_I=logi_new,
    )


def _stored_state(result: BatchResult, slot: int, J: np.ndarray) -> dict:
    """State of the first realization and first label at one stored time.

    The result holds only det(J), so the tangent matrix comes from the caller: the
    hand-rolled recurrence carried along the stored path.
    """
    return dict(
        t=float(result.times[slot]),
        X=result.X[slot, 0, 0],
        J=J,
        D_sde=float(result.D_sde[slot, 0, 0]),
        log_lambda=float(result.log_lambda[slot, 0, 0]),
        log_I=float(result.log_I[slot, 0, 0]),
    )


def _hand_tangents(cs, result: BatchResult, dW: np.ndarray, dt: float) -> list:
    """Hand-rolled J at every stored step of a run that stores every step."""
    Js = [np.eye(cs.n)]
    for k in range(result.num_steps):
        Js.append(hand_step(cs, _stored_state(result, k, Js[k]), dW[k], dt)["J"])
    return Js


def _every_step(cs, a, dt: float, num_steps: int, seed: int, r: int = 2):
    """One realization from label ``a`` storing every step, and its increments."""
    driver = BrownianDriver(seed=seed, dt=dt, n=cs.n)
    box = Box((-3.0,) * cs.n, (3.0,) * cs.n)
    result = simulate_paths(
        cs, tuple(np.array([x]) for x in a), num_steps, range(num_steps + 1),
        driver, [r], box=box,
    )
    return result, driver.increments_block([r], num_steps)[0]


@pytest.fixture
def cs_sine_1d():
    return make_coeffs("1 + 0.5*sin(x1)", U=["0.3*x1"], V="0.2", nu=0.1, n=1)


@pytest.fixture
def cs_full_2d():
    return make_coeffs(
        [
            ["1 + 0.3*sin(x1)*cos(x2)", "0.2*cos(x1)"],
            ["0.1*sin(x2)", "1 + 0.3*cos(x1)*sin(x2)"],
        ],
        U=["0.1*x2", "-0.05*x1"],
        V="0.15",
        nu=0.2,
        n=2,
    )


# ---------------------------------------------------------------------------
# Single-step exactness against the hand-rolled update
# ---------------------------------------------------------------------------


def test_simulate_paths_matches_hand_rolled_euler_1d(cs_sine_1d):
    dt = 1e-3
    result, dW = _every_step(cs_sine_1d, [0.4], dt, 5, seed=1)
    assert result.alive.all()
    Js = _hand_tangents(cs_sine_1d, result, dW, dt)
    for k in range(5):
        ref = hand_step(cs_sine_1d, _stored_state(result, k, Js[k]), dW[k], dt)
        state = _stored_state(result, k + 1, Js[k + 1])
        assert state["t"] == pytest.approx(ref["t"], rel=1e-15)
        assert state["X"] == pytest.approx(ref["X"], rel=1e-13)
        assert result.D_direct[k + 1, 0, 0] == pytest.approx(ref["J"][0, 0], rel=1e-13)
        assert state["D_sde"] == pytest.approx(ref["D_sde"], rel=1e-13)
        assert state["log_lambda"] == pytest.approx(ref["log_lambda"], rel=1e-13, abs=1e-15)
        assert state["log_I"] == pytest.approx(ref["log_I"], rel=1e-13, abs=1e-16)


def test_simulate_paths_matches_hand_rolled_euler_2d(cs_full_2d):
    dt = 2e-3
    result, dW = _every_step(cs_full_2d, [0.4, -0.3], dt, 5, seed=2)
    assert result.alive.all()
    Js = _hand_tangents(cs_full_2d, result, dW, dt)
    for k in range(5):
        ref = hand_step(cs_full_2d, _stored_state(result, k, Js[k]), dW[k], dt)
        state = _stored_state(result, k + 1, Js[k + 1])
        assert np.allclose(state["X"], ref["X"], rtol=1e-13)
        assert result.D_direct[k + 1, 0, 0] == pytest.approx(np.linalg.det(ref["J"]), rel=1e-13)
        assert state["D_sde"] == pytest.approx(ref["D_sde"], rel=1e-13)
        assert state["log_lambda"] == pytest.approx(ref["log_lambda"], rel=1e-12, abs=1e-14)
        assert state["log_I"] == pytest.approx(ref["log_I"], rel=1e-13, abs=1e-16)


def test_initial_state_invariants(cs_full_2d):
    result, _ = _every_step(cs_full_2d, [1.5, -2.0], 1e-3, 1, seed=3)
    s = _stored_state(result, 0, np.eye(2))
    assert s["t"] == 0.0
    assert np.array_equal(s["X"], [1.5, -2.0])
    assert s["D_sde"] == 1.0 and s["log_lambda"] == 0.0 and s["log_I"] == 0.0
    assert result.D_direct[0, 0, 0] == 1.0
    assert result.n == 2


def test_nonfinite_realizations_are_flagged_not_raised():
    # A drift of 1e308 * x overflows in one coarse step: the rows are flagged
    # non-finite (not escaped) and frozen to the box center with neutral state.
    cs_blow = make_coeffs("1", U=["1e308 * x1"], nu=0.1, n=1)
    driver = BrownianDriver(seed=41, dt=2.0, n=1)
    with np.errstate(over="ignore", invalid="ignore"):
        result = simulate_paths(
            cs_blow, (np.array([1.0]),), num_steps=1, store_indices=[0, 1],
            driver=driver, realization_indices=range(3), box=Box((-2.0,), (2.0,)),
        )
    assert np.all(result.nonfinite & ~result.escaped & ~result.alive)
    assert np.all(result.X[-1, :, :, 0] == 0.0)
    assert np.all(result.D_direct[-1] == 1.0)


# ---------------------------------------------------------------------------
# Batched simulation on the constant-coefficient flow (exactly known law)
# ---------------------------------------------------------------------------


@pytest.fixture
def heat_batch():
    cs = make_coeffs("1", nu=0.1, n=1, box=Box((-6.0,), (6.0,)))
    driver = BrownianDriver(seed=3, dt=1e-3, n=1)
    labels = (np.linspace(-2.0, 2.0, 9),)
    result = simulate_paths(
        cs, labels, num_steps=100, store_indices=[0, 50, 100],
        driver=driver, realization_indices=range(40),
    )
    return cs, driver, labels, result


def test_constant_flow_is_a_rigid_translation(heat_batch):
    cs, driver, labels, result = heat_batch
    assert result.alive.all()
    # det J, all determinant trackers, and the exponential weight stay at their
    # initial values exactly: no drift, no sigma gradients, no potential.
    assert np.all(result.D_direct == 1.0)
    assert np.all(result.D_sde == 1.0)
    assert np.all(result.log_lambda == 0.0)
    assert np.all(result.log_I == 0.0)
    # X(t_k) = a + sqrt(2 nu) * W_k, bitwise reproducible from the driver stream
    # when accumulated in the same step order as the engine.
    s2n = np.sqrt(2.0 * cs.nu)
    for r in range(result.num_realizations):
        inc = driver.increments(100, realization_index=r)[:, 0]
        pos = result.labels[:, 0].copy()
        step_to_slot = {int(i): s for s, i in enumerate(result.time_indices)}
        if 0 in step_to_slot:
            assert np.array_equal(result.X[step_to_slot[0], r, :, 0], pos)
        for k in range(100):
            pos = pos + s2n * inc[k]
            slot = step_to_slot.get(k + 1)
            if slot is not None:
                assert np.array_equal(result.X[slot, r, :, 0], pos)


def test_batch_time_bookkeeping(heat_batch):
    _, driver, _, result = heat_batch
    assert np.allclose(result.times, [0.0, 0.05, 0.1])
    assert result.dt == driver.dt and result.num_steps == 100
    assert result.time_slot(0.05) == 1
    with pytest.raises(ValueError):
        result.time_slot(0.033)
    assert result.num_labels == 9 and result.n == 1


def test_terminal_law_matches_gaussian_statistics():
    nu, T = 0.1, 0.25
    cs = make_coeffs("1", nu=nu, n=1, box=Box((-8.0,), (8.0,)))
    driver = BrownianDriver(seed=17, dt=1e-3, n=1)
    result = simulate_paths(
        cs, (np.array([0.0]),), num_steps=250, store_indices=[250],
        driver=driver, realization_indices=range(2000),
    )
    x = result.X[0, :, 0, 0]
    var_exact = 2.0 * nu * T
    n = x.size
    z_mean = x.mean() / np.sqrt(var_exact / n)
    z_var = (x.var(ddof=1) - var_exact) / (var_exact * np.sqrt(2.0 / (n - 1)))
    assert abs(z_mean) <= 4.0
    assert abs(z_var) <= 4.0


def test_direct_determinant_equals_numpy_det(cs_full_2d):
    # D_direct at each of 50 steps is det of the tangent that the hand-rolled
    # recurrence carries along the stored path.
    dt = 1e-3
    result, dW = _every_step(cs_full_2d, [0.5, -0.5], dt, 50, seed=23)
    det_np = np.linalg.det(np.stack(_hand_tangents(cs_full_2d, result, dW, dt)))
    assert np.allclose(result.D_direct[:, 0, 0], det_np, rtol=1e-12, atol=1e-14)


def test_simulate_paths_validation(cs_sine_1d):
    driver = BrownianDriver(seed=1, dt=1e-3, n=1)
    box = Box((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        simulate_paths(cs_sine_1d, (np.array([0.0]),), 10, [10], driver, [0])  # no box anywhere
    with pytest.raises(ValueError):
        simulate_paths(
            cs_sine_1d, (np.array([-2.0, 0.0]),), 10, [10], driver, [0], box=box
        )  # labels outside the box
    with pytest.raises(ValueError):
        simulate_paths(cs_sine_1d, (np.array([0.0]),), 10, [11], driver, [0], box=box)
    with pytest.raises(DimensionMismatch):
        simulate_paths(
            cs_sine_1d, (np.array([0.0]),), 10, [10],
            BrownianDriver(seed=1, dt=1e-3, n=2), [0], box=box,
        )


def test_simulate_paths_step_input_validation(cs_sine_1d):
    # The per-step inputs: a positive step size, increments and labels of the
    # flow's dimension.
    box = Box((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        BrownianDriver(seed=1, dt=0.0, n=1)
    with pytest.raises(DimensionMismatch):
        simulate_paths(
            cs_sine_1d, (np.array([0.0]),), 10, [10],
            BrownianDriver(seed=1, dt=1e-3, n=2), [0], box=box,
        )  # increments of the wrong dimension
    with pytest.raises(DimensionMismatch):
        simulate_paths(
            cs_sine_1d, (np.array([0.0]), np.array([0.0])), 10, [10],
            BrownianDriver(seed=1, dt=1e-3, n=1), [0], box=box,
        )  # labels of the wrong dimension


def test_escaped_realizations_are_flagged_not_raised():
    # An outward exponential drift carries every path far beyond the padded box
    # (the diffusive escape margin cannot keep up with e^{3t} growth).
    cs = make_coeffs("1", U=["3*x1"], nu=0.05, n=1)
    driver = BrownianDriver(seed=29, dt=0.01, n=1)
    result = simulate_paths(
        cs, (np.array([0.05]),), num_steps=400, store_indices=[400],
        driver=driver, realization_indices=range(50),
        box=Box((-0.1,), (0.1,)),
    )
    assert (~result.alive).any(), "expected escapes in this regime"
    assert np.array_equal(~result.alive, result.escaped | result.nonfinite)
    # Dead rows are frozen at the box center with neutral state.
    dead = ~result.alive
    assert np.all(result.X[-1, dead, :, 0] == 0.0)
    assert np.all(result.D_direct[-1, dead] == 1.0)


def test_degenerate_determinant_flagging():
    # Coarse steps with strong noise gradients drive the one-step tangent
    # multiplier negative for some realizations; those must be flagged.
    cs = make_coeffs("1 + 0.9*sin(3*x1)", nu=0.5, n=1, box=Box((-30.0,), (30.0,)))
    driver = BrownianDriver(seed=5, dt=0.5, n=1)
    result = simulate_paths(
        cs, (np.linspace(-1, 1, 5),), num_steps=4, store_indices=[4],
        driver=driver, realization_indices=range(64),
    )
    flagged = result.degenerate & result.alive
    assert flagged.any()
    assert np.all(result.D_direct[-1, flagged].min(axis=1) <= 0.0)


# ---------------------------------------------------------------------------
# Single-realization ensemble (one Brownian path over a label grid)
# ---------------------------------------------------------------------------


def test_ensemble_accessors_and_state(cs_sine_1d):
    cs = replace(cs_sine_1d, box=Box((-3.0,), (3.0,)))
    driver = BrownianDriver(seed=7, dt=1e-3, n=1)
    result = simulate_paths(cs, (np.linspace(-1, 1, 7),), 50, range(51), driver, [0])
    assert result.alive.all() and result.n == 1 and result.num_labels == 7
    assert result.num_realizations == 1
    assert result.X.shape == (51, 1, 7, 1)
    assert result.time_slot(0.05) == 50
    assert np.array_equal(result.labels[6], [1.0])
    with pytest.raises(ValueError):
        result.time_slot(0.0203)


def test_ensemble_time_grid_validation(cs_sine_1d):
    cs = replace(cs_sine_1d, box=Box((-3.0,), (3.0,)))
    driver = BrownianDriver(seed=7, dt=1e-3, n=1)
    labels = (np.linspace(-1, 1, 3),)
    with pytest.raises(ValueError):
        simulate_paths(cs, labels, 0, [0], driver, [0])  # no step at all
    with pytest.raises(ValueError):
        simulate_paths(cs, labels, 2, [], driver, [0])  # nothing to store
    with pytest.raises(ValueError):
        simulate_paths(cs, labels, 2, [-1, 2], driver, [0])  # before time 0
    with pytest.raises(ValueError):
        simulate_paths(cs, labels, 2, [0, 2], driver, [])  # no realization


# ---------------------------------------------------------------------------
# Martingale samples with exactly computable weights
# ---------------------------------------------------------------------------


def test_martingale_sample_is_exactly_one_for_constant_flow():
    cs = make_coeffs("1", nu=0.1, n=1, box=Box((-6.0,), (6.0,)))
    driver = BrownianDriver(seed=13, dt=1e-3, n=1)
    result = simulate_paths(cs, (np.linspace(-1, 1, 5),), 100, [100], driver, [0])
    vals = martingale_values(result, constant_phi(1.0), 0.1)
    assert vals.shape == (1, 5)
    assert np.all(vals == 1.0)  # D_direct = 1 and log_I = 0 exactly


def test_martingale_sample_with_constant_potential_is_exact():
    # With V = c and sigma, U constant: log_I = c*t exactly and D = 1, so pairing
    # with the weight exp(c*(T - t)) gives exactly exp(c*T) at every time.
    c, T = 0.2, 0.1
    cs = make_coeffs("1", V=str(c), nu=0.1, n=1, box=Box((-6.0,), (6.0,)))
    driver = BrownianDriver(seed=19, dt=1e-3, n=1)
    result = simulate_paths(cs, (np.array([0.5]),), 100, [30, 70, 100], driver, [0])
    phi = exponential_phi(c, T)
    for t in (0.03, 0.07, T):
        val = martingale_values(result, phi, t)[0, 0]
        assert val == pytest.approx(np.exp(c * T), rel=1e-12)


# ---------------------------------------------------------------------------
# Deterministic chunked execution
# ---------------------------------------------------------------------------


def test_run_chunks_order_and_thread_invariance():
    def worker(idx: np.ndarray):
        return idx.copy()

    out = run_chunks(range(10), worker, chunk_size=3, threads=1)
    assert [list(c) for c in out] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    out4 = run_chunks(range(10), worker, chunk_size=3, threads=4)
    assert all(np.array_equal(a, b) for a, b in zip(out, out4))
    assert run_chunks([], worker) == []


def test_simulation_is_bit_identical_across_chunking_and_threads(cs_sine_1d, cs_full_2d):
    # Every array and flag of the result, in 1D and in 2D (double-buffered J), for
    # chunk 24 against chunk 5 and 1 thread against 4: the per-call step buffers
    # must not leak between chunks or threads.
    per_realization = ("alive", "escaped", "nonfinite", "degenerate")
    per_snapshot = ("X", "D_sde", "log_lambda", "log_I", "D_direct")
    cases = [
        (replace(cs_sine_1d, box=Box((-3.0,), (3.0,))), (np.linspace(-1, 1, 5),)),
        (replace(cs_full_2d, box=Box((-3.0, -3.0), (3.0, 3.0))),
         (np.linspace(-1, 1, 3), np.linspace(-1, 1, 4))),
    ]
    for cs, labels in cases:
        brownian = BrownianDriver(seed=37, dt=1e-3, n=cs.n)

        def worker(idx):
            return simulate_paths(cs, labels, 50, [25, 50], brownian, idx)

        def gathered(chunks):
            out = {k: np.concatenate([getattr(c, k) for c in chunks], axis=0) for k in per_realization}
            out.update(
                {k: np.concatenate([getattr(c, k) for c in chunks], axis=1) for k in per_snapshot}
            )
            return {k: (v.shape, v.tobytes()) for k, v in out.items()}

        base = gathered(run_chunks(range(24), worker, chunk_size=24, threads=1))
        small = gathered(run_chunks(range(24), worker, chunk_size=5, threads=1))
        threaded = gathered(run_chunks(range(24), worker, chunk_size=5, threads=4))
        assert base == small
        assert base == threaded


def test_point_labels_match_the_grid_columns_bit_for_bit(cs_full_2d):
    # The engine advances each label on its own under the shared noise, so a point
    # set reproduces the matching columns of a tensor-grid run exactly.
    cs = replace(cs_full_2d, box=Box((-3.0, -3.0), (3.0, 3.0)))
    axes = (np.array([-0.5, 0.0, 0.7]), np.array([-0.5, 0.3, 0.7]))
    brownian = BrownianDriver(seed=11, dt=1e-3, n=2)
    grid = simulate_paths(cs, axes, 300, [0, 150, 300], brownian, range(64))
    cols = [0, 4, 8]  # the diagonal of the 3x3 grid
    pts = grid.labels[cols]
    point = simulate_paths(cs, pts, 300, [0, 150, 300], brownian, range(64))
    assert point.label_axes is None
    assert point.label_shape == (3,)
    assert point.labels.tobytes() == pts.tobytes()
    assert grid.alive.all()
    for name in ("alive", "escaped", "nonfinite", "degenerate", "realization_indices"):
        assert getattr(point, name).tobytes() == getattr(grid, name).tobytes(), name
    for name in ("X", "D_sde", "log_lambda", "log_I", "D_direct"):
        assert getattr(point, name).tobytes() == getattr(grid, name)[:, :, cols].tobytes(), name
    with pytest.raises(ValueError, match="point set"):
        chart_from_batch(point, 0.15, [0, 1])
    chart_from_batch(grid, 0.15, [0, 1])  # the grid run still charts


def test_point_labels_validation(cs_full_2d):
    cs = replace(cs_full_2d, box=Box((-1.0, -1.0), (1.0, 1.0)))
    driver = BrownianDriver(seed=1, dt=1e-3, n=2)
    with pytest.raises(DimensionMismatch):
        simulate_paths(cs, np.zeros((3, 1)), 10, [10], driver, [0])
    with pytest.raises(ValueError, match="nonempty"):
        simulate_paths(cs, np.zeros((0, 2)), 10, [10], driver, [0])
    with pytest.raises(ValueError, match="non-finite"):
        simulate_paths(cs, np.array([[0.0, np.nan]]), 10, [10], driver, [0])
    with pytest.raises(ValueError, match="outside the label box"):
        simulate_paths(cs, np.array([[0.0, 2.0]]), 10, [10], driver, [0])


def test_escape_margin_formula():
    assert escape_margin(0.1, 0.5) == pytest.approx(6.0 * np.sqrt(2 * 0.1 * 0.5))
    assert escape_margin(0.0, 1.0) == 0.0


def test_fields_and_stored_times_do_not_change_the_kept_bits(cs_full_2d):
    # One pass may serve several checks: it keeps only the fields they read, at the
    # union of their times, and each reads its realization prefix through head().
    cs = replace(cs_full_2d, box=Box((-3.0, -3.0), (3.0, 3.0)))
    axes = (np.linspace(-1, 1, 3), np.linspace(-1, 1, 4))
    brownian = BrownianDriver(seed=23, dt=1e-3, n=2)
    full = simulate_paths(cs, axes, 200, [100, 200], brownian, range(12))
    kept = ("X", "log_I")
    lean = simulate_paths(cs, axes, 200, [0, 50, 100, 200], brownian, range(12), fields=kept)
    for name in ("X", "D_sde", "log_lambda", "log_I", "D_direct"):
        if name in kept:
            assert getattr(lean, name)[[2, 3]].tobytes() == getattr(full, name).tobytes(), name
        else:
            assert getattr(lean, name) is None, name
    for name in ("alive", "escaped", "nonfinite", "degenerate", "realization_indices"):
        assert getattr(lean, name).tobytes() == getattr(full, name).tobytes(), name
    head = lean.head(5)
    assert head.num_realizations == 5 and head.D_direct is None
    assert np.shares_memory(head.X, lean.X)
    assert head.X.tobytes() == lean.X[:, :5].tobytes()
    assert head.alive.tobytes() == lean.alive[:5].tobytes()
    with pytest.raises(ValueError, match="unknown snapshot fields"):
        simulate_paths(cs, axes, 10, [10], brownian, [0], fields=("X", "J"))
