"""Monte Carlo estimators: weights, quadratures, field estimates, entropy series."""

from dataclasses import replace

import numpy as np
import pytest

from stochflow.brownian import BrownianDriver
from stochflow.convex import get_convex, non_convex_control
from stochflow.engine import simulate_paths
from stochflow.errors import (
    DimensionMismatch,
    InsufficientRealizations,
    NonPositiveDensity,
    SignalTooNoisy,
    SupportEscape,
)
from stochflow.estimators import (
    MIN_REALIZATIONS,
    PsiSamples,
    collect_psi_samples,
    conserved_quantity_batch,
    entropy_decay_check,
    exponential_phi,
    fields_from_samples,
    jensen_check,
    martingale_values,
    validate_compact_support,
)
from stochflow.fields import eval_points, parse_field
from stochflow.grids import Box, trapezoid_weights
from stochflow.inverse import STATUS_OK, chart_from_batch, feynman_kac_psi_stack
from stochflow.oracle import OracleSeries

from conftest import collect_psi, make_coeffs


BOX = Box((-8.0,), (8.0,))
PHI_ONE = exponential_phi(0.0, T=1.0)  # the weight of V = 0: exactly 1


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def test_phi_helpers_protocol():
    for t in (0.0, 0.35, 1.0, 1.5):  # exactly 1 at every time, past T too
        assert np.array_equal(PHI_ONE(np.zeros((4, 1)), t), np.ones(4))
    ephi = exponential_phi(0.3, T=1.0)
    assert np.array_equal(ephi(np.zeros((1, 1)), 0.25), [np.exp(0.3 * 0.75)])
    assert np.array_equal(ephi(np.zeros((3, 2)), 1.0), np.ones(3))


def test_validate_compact_support():
    axes = (np.linspace(-3.0, 3.0, 61),)
    validate_compact_support(parse_field("exp(-20*x1*x1)", 1), axes, "h0")
    with pytest.raises(ValueError, match="h0 does not vanish"):
        validate_compact_support(parse_field("1", 1), axes, "h0")
    with pytest.raises(ValueError, match="rho0"):
        # decays too slowly: still ~0.05 of peak four cells from the edge
        validate_compact_support(parse_field("exp(-0.3*x1*x1)", 1), axes, "rho0")


# ---------------------------------------------------------------------------
# finite-sample convexity inequality
# ---------------------------------------------------------------------------


def test_jensen_equality_when_data_proportional():
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.2, 3.0, size=(1, 200))
    res = jensen_check(rho, 1.7 * rho, get_convex("r2"))
    # f = c * rho collapses the inequality to an identity
    assert res.holds.shape == (1,) and res.holds[0]
    assert res.lhs[0] == pytest.approx(res.rhs[0], rel=1e-13)


def test_jensen_holds_for_random_positive_samples():
    rng = np.random.default_rng(12)
    for name in ("r2", "abs_smooth", "rlogr", "pos_part_sq"):
        H = get_convex(name)
        for _ in range(25):
            rho = rng.uniform(0.05, 4.0, size=(1, rng.integers(2, 64)))
            f = rho * rng.uniform(0.0, 3.0, size=rho.shape)
            res = jensen_check(rho, f, H)
            assert res.holds[0], f"{name}: lhs={res.lhs} rhs={res.rhs}"


def test_jensen_stack_equals_one_check_per_set():
    # A (num_sets, num_samples) stack reduces over the last axis; each row gives the
    # bits of that row checked alone as a one-row stack.
    rng = np.random.default_rng(13)
    for name in ("r2", "abs_smooth", "rlogr", "pos_part_sq"):
        H = get_convex(name)
        rho = rng.uniform(0.05, 3.0, size=(40, 64))
        f = rng.uniform(0.0, 2.5, size=(40, 64))
        stacked = jensen_check(rho, f, H)
        assert stacked.lhs.shape == stacked.holds.shape == (40,)
        rows = [jensen_check(r[None], g[None], H) for r, g in zip(rho, f)]
        for field in ("lhs", "rhs", "slack", "holds"):
            one_by_one = np.concatenate([getattr(r, field) for r in rows])
            assert getattr(stacked, field).tobytes() == one_by_one.tobytes(), (name, field)
        assert rows[0].lhs.shape == rows[0].holds.shape == (1,)


def test_jensen_input_validation():
    with pytest.raises(NonPositiveDensity):
        jensen_check(np.array([[1.0, -0.5]]), np.array([[1.0, 1.0]]), get_convex("r2"))
    with pytest.raises(NonPositiveDensity):
        jensen_check(np.array([[1.0, np.inf]]), np.array([[1.0, 1.0]]), get_convex("r2"))
    with pytest.raises(ValueError):
        jensen_check(np.array([[1.0, 2.0]]), np.array([[1.0]]), get_convex("r2"))
    with pytest.raises(ValueError):
        jensen_check(np.empty((1, 0)), np.empty((1, 0)), get_convex("r2"))
    with pytest.raises(ValueError, match="stacks"):  # one set is a one-row stack
        jensen_check(np.array([1.0, 2.0]), np.array([1.0, 1.0]), get_convex("r2"))


# ---------------------------------------------------------------------------
# conserved quadrature
# ---------------------------------------------------------------------------


def _heat_batch(num_realizations=8, v_const=0.0, seed=505):
    cs = make_coeffs("1", V=str(v_const) if v_const else "0", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 81),)
    driver = BrownianDriver(seed=seed, dt=0.01, n=1)
    result = simulate_paths(cs, labels, 10, [0, 5, 10], driver,
                            range(num_realizations), box=BOX)
    return cs, labels, result


def test_conserved_quantity_translation_is_exact():
    # constant diffusion, zero potential: the weight is exactly 1, so the quadrature
    # equals the label integral of rho0*h0 at every time, bitwise.
    _, labels, result = _heat_batch()
    rho0 = parse_field("1 + 0.2*exp(-x1*x1)", 1)
    h0 = parse_field("exp(-2*x1*x1)", 1)
    w = trapezoid_weights(labels)
    dens = (1.0 + 0.2 * np.exp(-labels[0] ** 2)) * np.exp(-2.0 * labels[0] ** 2)
    expect = float(np.sum(w * dens))
    for t in (0.0, 0.05, 0.1):
        q = conserved_quantity_batch(result, PHI_ONE, rho0, h0, t)
        assert q.shape == (8,)
        assert np.all(q == expect), f"t={t}"


def test_conserved_quantity_constant_potential_two_routes():
    # V = c with zero drift: the path weight grows like exp(c*t) while the admissible
    # test function decays like exp(c*(T-t)); the product is exp(c*T) at every time.
    c, T = 0.4, 0.1
    _, labels, result = _heat_batch(v_const=c)
    rho0 = parse_field("1", 1)
    h0 = parse_field("exp(-2*x1*x1)", 1)
    w = trapezoid_weights(labels)
    base = float(np.sum(w * np.exp(-2.0 * labels[0] ** 2)))
    phi = exponential_phi(c, T)
    for t in (0.0, 0.05, 0.1):
        q = conserved_quantity_batch(result, phi, rho0, h0, t)
        assert np.allclose(q, np.exp(c * T) * base, rtol=1e-12), f"t={t}"


def test_conserved_quantity_single_realization_matches_batch():
    cs, labels, result = _heat_batch()
    rho0 = parse_field("1 + 0.2*exp(-x1*x1)", 1)
    h0 = parse_field("exp(-2*x1*x1)", 1)
    batch = conserved_quantity_batch(result, PHI_ONE, rho0, h0, 0.1)
    driver = BrownianDriver(seed=505, dt=0.01, n=1)
    alone = simulate_paths(cs, labels, 10, [10], driver, [3], box=BOX)
    single = conserved_quantity_batch(alone, PHI_ONE, rho0, h0, 0.1)
    assert single.shape == (1,)
    assert single[0] == batch[3]


def test_conserved_quantity_support_guards():
    # Dead realizations are left out: the samples are those of the alive rows.
    _, _, result = _heat_batch()
    rho0 = parse_field("1 + 0.2*exp(-x1*x1)", 1)
    h0 = parse_field("exp(-2*x1*x1)", 1)
    alive = np.ones(8, dtype=bool)
    alive[[2, 5]] = False
    full = conserved_quantity_batch(result, PHI_ONE, rho0, h0, 0.1)
    part = conserved_quantity_batch(replace(result, alive=alive), PHI_ONE, rho0, h0, 0.1)
    assert part.tobytes() == full[alive].tobytes()

    # A weight read from a stored grid must not be sampled within 2 cells of its edge.
    narrow = OracleSeries((np.linspace(-0.5, 0.5, 11),), np.array([0.0, 0.1]), np.ones((2, 11)), 0.1)
    with pytest.raises(SupportEscape, match="2 cells"):
        conserved_quantity_batch(result, narrow, rho0, h0, 0.1)


def test_martingale_values_shape_and_exactness():
    _, labels, result = _heat_batch()
    vals = martingale_values(result, PHI_ONE, 0.05)
    assert vals.shape == (8, 81)
    assert np.all(vals == 1.0)  # phi=1, unit determinant, zero log-weight
    with pytest.raises(ValueError, match="stored"):
        martingale_values(result, PHI_ONE, 0.033)


# ---------------------------------------------------------------------------
# sample collection and field estimates
# ---------------------------------------------------------------------------


TIMES = [0.05, 0.1]
QUERY = np.linspace(-1.0, 1.0, 9)[:, None]  # (Q, 1) query points


def _collect(threads=1, chunk_size=4096, realizations=120, seed=909):
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 41),)
    driver = BrownianDriver(seed=seed, dt=0.01, n=1)
    f0 = parse_field("exp(-x1*x1)", 1)
    rho0 = parse_field("1 + 0.5*exp(-0.5*x1*x1)", 1)
    return collect_psi(cs, labels, TIMES, driver, f0, rho0, QUERY, realizations, box=BOX,
                       chunk_size=chunk_size, threads=threads)


def test_collect_psi_translation_exact_per_realization():
    # constant-coefficient flow is a rigid translation with unit weight, so each
    # recorded value must equal the initial datum at the shifted-back query point,
    # with the shift read off the realization's own Brownian increments.
    samples = _collect(realizations=6)
    assert np.array_equal(samples.realization_indices, np.arange(6))
    assert samples.psi_f.shape == (6, 2, 9)
    assert np.all(samples.status == 0)
    s2n = np.sqrt(2.0 * 0.05)
    driver = BrownianDriver(seed=909, dt=0.01, n=1)
    for r, inc in enumerate(driver.increments_block(range(6), 10)[:, :, 0]):
        for s, (t, k) in enumerate(zip(TIMES, (5, 10))):
            shift = s2n * np.sum(inc[:k])
            expect_f = np.exp(-((QUERY[:, 0] - shift) ** 2))
            expect_rho = 1.0 + 0.5 * np.exp(-0.5 * (QUERY[:, 0] - shift) ** 2)
            assert np.allclose(samples.psi_f[r, s], expect_f, atol=1e-10)
            assert np.allclose(samples.psi_rho[r, s], expect_rho, atol=1e-10)


def test_collect_psi_thread_and_chunk_invariance():
    base = _collect(threads=1)
    for threads, chunk in ((2, 7), (4, 32)):
        other = _collect(threads=threads, chunk_size=chunk)
        assert np.array_equal(base.psi_f, other.psi_f)
        assert np.array_equal(base.psi_rho, other.psi_rho)
        assert np.array_equal(base.status, other.status)
        assert np.array_equal(base.realization_indices, other.realization_indices)


def test_collect_psi_peak_memory_is_bounded_by_the_block():
    # One chunk of 1000 realizations: the charts are inverted in stacks of
    # _PSI_BLOCK_ROWS rows written in place, so the tracemalloc peak is the engine
    # snapshot plus the outputs plus temporaries that scale with the block, not with
    # the chunk (inverting the whole chunk as one stack needs about 40 MB more).
    import tracemalloc

    from stochflow.estimators import _PSI_BLOCK_ROWS

    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 17),)
    queries = np.linspace(-1.0, 1.0, 400)[:, None]
    realizations = 1000
    driver = BrownianDriver(seed=5, dt=0.01, n=1)
    f0 = parse_field("exp(-x1*x1)", 1)
    rho0 = parse_field("1 + 0.5*exp(-0.5*x1*x1)", 1)
    snapshot = simulate_paths(cs, labels, 10, [10], driver, range(realizations), box=BOX)
    snapshot_bytes = sum(v.nbytes for v in vars(snapshot).values() if isinstance(v, np.ndarray))
    del snapshot
    tracemalloc.start()
    try:
        samples = collect_psi(cs, labels, [0.1], driver, f0, rho0, queries, realizations,
                              box=BOX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.num_realizations == realizations and np.all(samples.status == STATUS_OK)
    output_bytes = samples.psi_f.nbytes + samples.psi_rho.nbytes + samples.status.nbytes
    # 32 doubles per (block row, query or label): about twice what one block uses.
    allowance = 32 * 8 * _PSI_BLOCK_ROWS * (queries.size + labels[0].size)
    assert peak <= snapshot_bytes + output_bytes + allowance


def test_collect_psi_validation():
    cs = make_coeffs("1", nu=0.05, n=1)
    driver = BrownianDriver(seed=1, dt=0.01, n=1)
    labels = (np.linspace(-2.0, 2.0, 11),)
    one = parse_field("1", 1)
    chunk = simulate_paths(cs, labels, 10, [5, 10], driver, range(2), box=BOX)
    with pytest.raises(DimensionMismatch):
        collect_psi_samples(chunk, [0.05], one, one, np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):  # a flat vector is not a (Q, 1) point array
        collect_psi_samples(chunk, [0.05], one, one, QUERY[:, 0])
    with pytest.raises(ValueError, match="step grid"):
        collect_psi(cs, labels, [0.033], driver, one, one, QUERY, 2, box=BOX)
    with pytest.raises(ValueError, match="increasing"):
        collect_psi_samples(chunk, [0.1, 0.05], one, one, QUERY)


def test_fields_from_samples_statistics():
    samples = _collect()
    mean, se, masked = fields_from_samples(samples, 0.1)
    assert mean.shape == se.shape == masked.shape == (len(QUERY),)
    assert samples.num_realizations == 120 and not masked.any()
    s = samples.time_slot(0.1)
    assert np.array_equal(mean, samples.psi_f[:, s, :].mean(axis=0))
    variance = samples.psi_f[:, s, :].var(axis=0, ddof=1)
    assert np.array_equal(se, np.sqrt(variance / 120))
    with pytest.raises(ValueError, match="not stored"):
        fields_from_samples(samples, 0.25)


def test_fields_from_samples_requires_min_realizations():
    assert MIN_REALIZATIONS == 100
    samples = _collect(realizations=MIN_REALIZATIONS - 1)
    with pytest.raises(InsufficientRealizations):
        fields_from_samples(samples, 0.1)


def test_psi_batch_means_match_fields_from_samples():
    # same seed, same realizations: weighted transported data evaluated chart by
    # chart and the sample collector must produce bitwise-identical means.
    samples = _collect()
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 41),)
    driver = BrownianDriver(seed=909, dt=0.01, n=1)
    result = simulate_paths(cs, labels, 10, [0, 5, 10], driver, range(120), box=BOX)
    f0 = parse_field("exp(-x1*x1)", 1)
    rho0 = parse_field("1 + 0.5*exp(-0.5*x1*x1)", 1)
    psi_f = np.empty((120, len(QUERY)))
    psi_rho = np.empty((120, len(QUERY)))
    for r in range(120):
        chart = chart_from_batch(result, 0.1, [r])  # a one-row stack
        (one_f, one_rho), status = feynman_kac_psi_stack(chart, (f0, rho0), QUERY)
        psi_f[r], psi_rho[r] = one_f[0], one_rho[0]
        assert np.all(status == STATUS_OK)
    mean, se, _ = fields_from_samples(samples, 0.1)
    assert np.array_equal(psi_f.mean(axis=0), mean)
    rho_mean = samples.psi_rho[:, samples.time_slot(0.1)].mean(axis=0)
    assert np.array_equal(psi_rho.mean(axis=0), rho_mean)
    assert np.array_equal(np.sqrt(psi_f.var(axis=0, ddof=1) / 120), se)


# ---------------------------------------------------------------------------
# The points an estimate drops
# ---------------------------------------------------------------------------


def _one_unresolved(ratios=(2.0, 1.5, 1.2), r=7, s=1, q=5):
    """Spread synthetic samples in which realization r leaves point q at slot s
    unresolved (its psi pair NaN there, as the collector writes it)."""
    samples = _synthetic_samples(list(ratios))
    samples.psi_f *= np.random.default_rng(3).uniform(0.5, 1.5, samples.psi_f.shape)
    samples.status[r, s, q] = 1
    samples.psi_f[r, s, q] = samples.psi_rho[r, s, q] = np.nan
    return samples


def test_resolved_drops_a_point_that_any_realization_left_unresolved():
    samples = _one_unresolved()
    masked, psi_f, psi_rho = samples.resolved("psi_f", "psi_rho")
    assert masked.shape == samples.status.shape[1:]
    assert np.argwhere(masked).tolist() == [[1, 5]]
    keep = ~masked
    for dropped, raw in ((psi_f, samples.psi_f), (psi_rho, samples.psi_rho)):
        assert np.all(dropped[:, 1, 5] == 0.0)
        assert np.array_equal(dropped[:, keep], raw[:, keep])
    (only,) = samples.resolved()
    assert np.array_equal(only, masked)
    small = replace(samples, realization_indices=np.arange(MIN_REALIZATIONS - 1))
    with pytest.raises(InsufficientRealizations):
        small.resolved("psi_f")
    # The field estimate reports a dropped point as NaN, with its standard error.
    mean, se, fmask = fields_from_samples(samples, float(samples.times[1]))
    assert fmask.tolist() == masked[1].tolist()
    assert np.isnan(mean[5]) and np.isnan(se[5])
    assert np.all(np.isfinite(mean[~fmask])) and np.all(se[~fmask] > 0)


def test_the_f_estimate_and_the_entropy_quadrature_drop_the_same_point():
    samples = _one_unresolved()
    r2 = get_convex("r2")
    masked = np.any(samples.status != STATUS_OK, axis=0)
    hand_f = np.where(masked, 0.0, samples.psi_f).mean(axis=0)
    hand_rho = np.where(masked, 0.0, samples.psi_rho).mean(axis=0)
    w = _weights(samples)
    for s, t in enumerate(samples.times):
        mean, _, fmask = fields_from_samples(samples, float(t))
        assert np.array_equal(fmask, masked[s])
        assert np.array_equal(mean, np.where(masked[s], np.nan, hand_f[s]), equal_nan=True)
    (rep,) = entropy_decay_check(samples, w, phi=PHI_ONE, hs=[r2])
    hand = []
    for f, rho, keep in zip(hand_f, hand_rho, ~masked):
        vals = np.zeros_like(f)
        vals[keep] = rho[keep] * r2(f[keep] / rho[keep]) * 1.0  # phi = 1
        hand.append(np.sum((w * vals)[keep]))
    assert masked[1, 5] and np.array_equal(rep.values, hand)


# ---------------------------------------------------------------------------
# entropy functionals
# ---------------------------------------------------------------------------


def test_entropy_martingale_series_translation_quadrature():
    # Under a pure translation X_t = label + shift (D = 1, no killing), the
    # entropy martingale int rho_t H(f_t/rho_t) phi dx, taken in label space with
    # h0 = H(f0/rho0), is 0.25 * int rho0(x - shift) phi(x) dx for a ratio of 0.5.
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 81),)
    driver = BrownianDriver(seed=33, dt=0.01, n=1)
    result = simulate_paths(cs, labels, 10, [0, 10], driver, range(1), box=BOX)
    shift = float(np.mean(result.X[1, 0, :, 0] - labels[0]))
    assert np.allclose(result.X[1, 0, :, 0] - labels[0], shift, atol=1e-12)
    rho0 = parse_field("exp(-4*x1*x1)", 1)
    f0_text, rho0_text = "0.5*exp(-4*x1*x1)", "exp(-4*x1*x1)"  # ratio 0.5 everywhere
    h0 = parse_field(f"({f0_text}/{rho0_text})^2", 1)  # H = r2
    validate_compact_support(rho0 * h0, labels, "rho0*h0")

    def phi(points, t):
        return np.exp(-points[:, 0] ** 2)

    series = conserved_quantity_batch(result, phi, rho0, h0, 0.1)
    # int exp(-4 (x - s)^2) exp(-x^2) dx = sqrt(pi/5) exp(-4 s^2 / 5)
    expect = 0.25 * np.sqrt(np.pi / 5.0) * np.exp(-0.8 * shift**2)
    assert series.shape == (1,)
    assert series[0] == pytest.approx(expect, rel=1e-9)
    # a slowly decaying integrand trips the boundary guard
    wide = parse_field("exp(-0.1*x1*x1)", 1)
    with pytest.raises(ValueError, match="does not vanish"):
        validate_compact_support(wide * h0, labels, "rho0*h0")


def test_entropy_martingale_series_hand_values():
    # f0 = c * rho0 gives h0 = H(c) everywhere, so the entropy martingale is
    # H(c) times the quadrature of rho0 at every time and in every realization.
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 81),)
    driver = BrownianDriver(seed=7, dt=0.01, n=1)
    result = simulate_paths(cs, labels, 10, [0, 5, 10], driver, range(120), box=BOX)
    rho0_text = "exp(-4*x1*x1)"
    rho0 = parse_field(rho0_text, 1)
    mass = float(np.sum(trapezoid_weights(labels) * np.exp(-4.0 * labels[0] ** 2)))
    for c, hand in ((2.0, 4.0), (1.5, 2.25), (1.0, 1.0)):
        h0 = parse_field(f"({c}*{rho0_text}/{rho0_text})^2", 1)  # H = r2
        for t in (0.0, 0.05, 0.1):
            series = conserved_quantity_batch(result, PHI_ONE, rho0, h0, t)
            assert series.shape == (120,)
            assert np.allclose(series, hand * mass, rtol=1e-12)
    # a flat integrand reaches the edge: the data is rejected
    flat = parse_field("(2*1/1)^2", 1)
    with pytest.raises(ValueError, match="does not vanish"):
        validate_compact_support(flat, labels, "rho0*h0")


def test_entropy_martingale_is_the_conserved_quadrature_with_h0_of_the_ratio():
    # f/rho is a passive scalar, so with h0 = H(f0/rho0) the conserved label
    # quadrature is the entropy martingale  int rho H(f/rho) phi.  sine_sigma_1d's
    # data with H = r2: rho0*h0 = f0^2/rho0 has compact support, and over 300
    # realizations the mean stays within 4 SE of its t = 0 value.
    cs = make_coeffs("1 + 0.5*sin(x1)", nu=0.1, n=1)
    labels = (np.linspace(-3.0, 3.0, 65),)
    f0_text, rho0_text = "exp(-x1*x1/0.18)", "(0.05 + exp(-x1*x1/0.5))"
    rho0 = parse_field(rho0_text, 1)
    h0 = parse_field(f"({f0_text}/{rho0_text})^2", 1)
    validate_compact_support(rho0 * h0, labels, "rho0*h0")
    f0_vals = np.exp(-labels[0] ** 2 / 0.18)
    rho0_vals = 0.05 + np.exp(-labels[0] ** 2 / 0.5)
    ratio_entropy = get_convex("r2")(f0_vals / rho0_vals)
    assert np.allclose(eval_points(h0, labels[0][:, None]), ratio_entropy, rtol=1e-14)
    reference = float(np.sum(trapezoid_weights(labels) * rho0_vals * ratio_entropy))

    driver = BrownianDriver(seed=2, dt=0.002, n=1)
    result = simulate_paths(cs, labels, 500, [0, 250, 500], driver, range(300),
                            box=Box((-3.0,), (3.0,)))
    assert np.allclose(conserved_quantity_batch(result, PHI_ONE, rho0, h0, 0.0), reference,
                       rtol=1e-12)
    for t in (0.5, 1.0):
        q = conserved_quantity_batch(result, PHI_ONE, rho0, h0, t)
        assert q.shape == (300,) and np.ptp(q) > 0  # a genuinely random quadrature
        z = (q.mean() - reference) / (q.std(ddof=1) / np.sqrt(q.size))
        assert abs(z) <= 4.0, f"t={t}: z={z}"


def _synthetic_samples(ratios, r_count=120, q_count=21):
    """PsiSamples with psi_rho = 1 and psi_f = ratios[s] at every point."""
    pts = np.linspace(0.0, 1.0, q_count)[:, None]
    s_count = len(ratios)
    psi_rho = np.ones((r_count, s_count, q_count))
    psi_f = np.tile(np.asarray(ratios, dtype=float)[None, :, None],
                    (r_count, 1, q_count))
    return PsiSamples(
        points=pts,
        times=np.linspace(0.0, 0.1 * (s_count - 1), s_count),
        realization_indices=np.arange(r_count),
        psi_f=psi_f,
        psi_rho=psi_rho,
        status=np.zeros((r_count, s_count, q_count), dtype=np.uint8),
    )


def _weights(samples):
    """Trapezoid weights of the query points of ``_synthetic_samples``."""
    return trapezoid_weights((samples.points[:, 0],))


def test_entropy_decay_check_monte_carlo_verdicts():
    decreasing = _synthetic_samples([2.0, 1.5, 1.2, 1.1])
    (rep,) = entropy_decay_check(decreasing, _weights(decreasing), phi=PHI_ONE,
                                 hs=[get_convex("r2")])
    assert rep.verdict_nonincreasing and rep.num_violations == 0
    assert np.allclose(rep.values, [4.0, 2.25, 1.44, 1.21], rtol=1e-12)
    assert rep.lower is not None and rep.upper is not None
    assert np.all(rep.lower <= rep.values + 1e-12)
    assert np.all(rep.values <= rep.upper + 1e-12)
    growing = _synthetic_samples([1.0, 1.0, 1.5])
    (rep2,) = entropy_decay_check(growing, _weights(growing), phi=PHI_ONE,
                                  hs=[get_convex("r2")])
    assert not rep2.verdict_nonincreasing
    assert rep2.num_violations >= 1
    assert rep2.max_increment == pytest.approx(1.25, rel=1e-12)


def test_entropy_decay_check_noisy_density_rejected():
    samples = _synthetic_samples([1.5, 1.2], r_count=120)
    # one huge outlier swamps the density mean with its own standard error
    samples.psi_rho[:, :, :] = 0.01
    samples.psi_rho[0, :, :] = 100.0
    with pytest.raises(SignalTooNoisy):
        entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=[get_convex("r2")])


def _report_bytes(rep):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(rep).items()}


def test_entropy_decay_check_gives_each_h_the_report_of_its_own_call():
    samples = _synthetic_samples([2.0, 1.5, 1.2, 1.1])
    # spread the data so that the bootstrap bands are not points
    samples.psi_f *= np.random.default_rng(3).uniform(0.5, 1.5, samples.psi_f.shape)
    hs = [get_convex("r2"), non_convex_control(), get_convex("abs_smooth")]
    joint = entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=hs, seed=5)
    assert len(joint) == 3
    for rep, H in zip(joint, hs):
        (alone,) = entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=[H], seed=5)
        assert _report_bytes(rep) == _report_bytes(alone)
    assert np.all(joint[0].upper > joint[0].lower)
    assert joint[0].verdict_nonincreasing and not joint[1].verdict_nonincreasing


def test_entropy_decay_check_raises_what_one_call_per_h_raises_first():
    # Ten points carry no data and a density swamped by one outlier: they matter
    # only to an H with H(0) != 0, so r2 passes its signal check and abs_smooth fails.
    samples = _synthetic_samples([1.5, 1.2])
    noisy = slice(0, 10)
    samples.psi_f[:, :, noisy] = 0.0
    samples.psi_rho[:, :, noisy] = 0.01
    samples.psi_rho[0, :, noisy] = 100.0
    r2, abs_smooth, rlogr = get_convex("r2"), get_convex("abs_smooth"), get_convex("rlogr")

    def raised(hs):
        with pytest.raises((SignalTooNoisy, ValueError)) as info:
            entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=hs)
        return type(info.value), str(info.value)

    entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=[r2])
    assert raised([abs_smooth])[0] is SignalTooNoisy
    assert raised([r2, abs_smooth]) == raised([abs_smooth, r2]) == raised([abs_smooth])
    # One realization's large negative datum keeps the mean data at point 15
    # positive, but a draw that picks it twice is negative there, outside rlogr's
    # domain: rlogr passes its signal check and fails in the bootstrap, which one
    # call for rlogr alone reaches before a call for abs_smooth starts.
    samples.psi_f[:, :, 15] = 1.0
    samples.psi_f[0, :, 15] = -118.5
    assert raised([rlogr])[0] is ValueError
    assert raised([rlogr, abs_smooth]) == raised([rlogr])
    assert raised([abs_smooth, rlogr]) == raised([abs_smooth])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_entropy_decay_check_fails_a_series_that_is_not_finite(bad):
    # A non-finite psi at a resolved point reaches the series; the verdict fails
    # whatever the bootstrap bands say.
    samples = _synthetic_samples([2.0, 1.5, 1.2])
    samples.psi_f[0, 2, 10] = bad
    (rep,) = entropy_decay_check(samples, _weights(samples), phi=PHI_ONE, hs=[get_convex("r2")])
    assert np.all(np.isfinite(rep.values[:2])) and not np.isfinite(rep.values[2])
    assert not rep.verdict_nonincreasing


def test_entropy_decay_check_requires_min_realizations():
    small = _synthetic_samples([1.5, 1.2], r_count=40)
    with pytest.raises(InsufficientRealizations):
        entropy_decay_check(small, _weights(small), phi=PHI_ONE, hs=[get_convex("r2")])
