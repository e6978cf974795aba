"""Monte Carlo estimators: weights, quadratures, field estimates, entropy series."""

import numpy as np
import pytest

from stochflow.brownian import BrownianDriver
from stochflow.convex import get_convex
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
    McField,
    PsiSamples,
    collect_psi_samples,
    conserved_quantity_batch,
    constant_phi,
    entropy_decay_check,
    entropy_martingale_series,
    exponential_phi,
    fields_from_samples,
    jensen_check,
    martingale_values,
    validate_compact_support,
    z_score,
)
from stochflow.fields import parse_field
from stochflow.grids import Box, mesh_points, trapezoid_weights
from stochflow.inverse import STATUS_OK, chart_from_batch, feynman_kac_psi_stack

from conftest import collect_psi, make_coeffs


BOX = Box((-8.0,), (8.0,))


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def test_z_score_hand_values():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    se = samples.std(ddof=1) / 2.0
    assert z_score(samples, 2.0) == pytest.approx((2.5 - 2.0) / se, rel=1e-14)
    assert z_score(np.array([3.0, 3.0, 3.0]), 3.0) == 0.0
    assert z_score(np.array([3.0, 3.0, 3.0]), 2.0) == np.inf
    with pytest.raises(ValueError):
        z_score(np.array([1.0]), 0.0)


def test_phi_helpers_protocol():
    one = constant_phi(2.5)
    assert one(np.array([0.3]), 0.1) == 2.5
    assert np.array_equal(one(np.zeros((4, 1)), 0.1), np.full(4, 2.5))
    ephi = exponential_phi(0.3, T=1.0)
    assert ephi(np.array([0.0]), 0.25) == pytest.approx(np.exp(0.3 * 0.75), rel=1e-15)
    assert np.allclose(ephi(np.zeros((3, 2)), 1.0), 1.0)


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
    rho = rng.uniform(0.2, 3.0, size=200)
    res = jensen_check(rho, 1.7 * rho, get_convex("r2"))
    # f = c * rho collapses the inequality to an identity
    assert res.holds
    assert res.lhs == pytest.approx(res.rhs, rel=1e-13)
    assert res.num_samples == 200


def test_jensen_holds_for_random_positive_samples():
    rng = np.random.default_rng(12)
    for name in ("r2", "abs_smooth", "rlogr", "pos_part_sq"):
        H = get_convex(name)
        for _ in range(25):
            rho = rng.uniform(0.05, 4.0, size=rng.integers(2, 64))
            f = rho * rng.uniform(0.0, 3.0, size=rho.size)
            res = jensen_check(rho, f, H)
            assert res.holds, f"{name}: lhs={res.lhs} rhs={res.rhs}"


def test_jensen_stack_equals_one_check_per_set():
    # A (num_sets, num_samples) stack reduces over the last axis; each row gives the
    # bits of the 1D call on that row.
    rng = np.random.default_rng(13)
    for name in ("r2", "abs_smooth", "rlogr", "pos_part_sq"):
        H = get_convex(name)
        rho = rng.uniform(0.05, 3.0, size=(40, 64))
        f = rng.uniform(0.0, 2.5, size=(40, 64))
        stacked = jensen_check(rho, f, H)
        assert stacked.lhs.shape == stacked.holds.shape == (40,)
        assert stacked.num_samples == 64
        rows = [jensen_check(r, g, H) for r, g in zip(rho, f)]
        for field in ("lhs", "rhs", "slack", "holds"):
            one_by_one = np.array([getattr(r, field) for r in rows])
            assert getattr(stacked, field).tobytes() == one_by_one.tobytes(), (name, field)
        assert isinstance(rows[0].lhs, float) and isinstance(rows[0].holds, bool)


def test_jensen_input_validation():
    with pytest.raises(NonPositiveDensity):
        jensen_check(np.array([1.0, -0.5]), np.array([1.0, 1.0]), get_convex("r2"))
    with pytest.raises(NonPositiveDensity):
        jensen_check(np.array([1.0, np.inf]), np.array([1.0, 1.0]), get_convex("r2"))
    with pytest.raises(ValueError):
        jensen_check(np.array([1.0, 2.0]), np.array([1.0]), get_convex("r2"))
    with pytest.raises(ValueError):
        jensen_check(np.array([]), np.array([]), get_convex("r2"))


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
        q = conserved_quantity_batch(result, constant_phi(1.0), rho0, h0, t)
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
    batch = conserved_quantity_batch(result, constant_phi(1.0), rho0, h0, 0.1)
    driver = BrownianDriver(seed=505, dt=0.01, n=1)
    alone = simulate_paths(cs, labels, 10, [10], driver, [3], box=BOX)
    single = conserved_quantity_batch(alone, constant_phi(1.0), rho0, h0, 0.1)
    assert single.shape == (1,)
    assert single[0] == batch[3]


def test_conserved_quantity_support_guards():
    _, labels, result = _heat_batch()
    rho0 = parse_field("1", 1)
    with pytest.raises(ValueError, match="h0"):
        conserved_quantity_batch(result, constant_phi(1.0), rho0, parse_field("1", 1), 0.1)
    # escaped realization poisons the batch sample
    cs_out = make_coeffs("1", U=["3*x1"], nu=0.05, n=1)
    drv = BrownianDriver(seed=1, dt=0.5, n=1)
    res_out = simulate_paths(cs_out, (np.linspace(-0.04, 0.04, 5),), 8, [0, 8], drv,
                             range(4), box=Box((-0.05,), (0.05,)))
    assert not np.all(res_out.alive)
    with pytest.raises(SupportEscape):
        conserved_quantity_batch(res_out, constant_phi(1.0), rho0,
                                 parse_field("exp(-5000*x1*x1)", 1), 4.0,
                                 validate_support=False)


def test_martingale_values_shape_and_exactness():
    _, labels, result = _heat_batch()
    vals = martingale_values(result, constant_phi(1.0), 0.05)
    assert vals.shape == (8, 81)
    assert np.all(vals == 1.0)  # phi=1, unit determinant, zero log-weight
    with pytest.raises(ValueError, match="stored"):
        martingale_values(result, constant_phi(1.0), 0.033)


# ---------------------------------------------------------------------------
# sample collection and field estimates
# ---------------------------------------------------------------------------


TIMES = [0.05, 0.1]
QUERY = np.linspace(-1.0, 1.0, 9)


def _collect(threads=1, chunk_size=4096, realizations=120, seed=909):
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = np.linspace(-4.0, 4.0, 41)
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
    assert samples.num_discarded == 0
    assert np.array_equal(samples.realization_indices, np.arange(6))
    assert samples.psi_f.shape == (6, 2, 9)
    assert np.all(samples.status == 0)
    s2n = np.sqrt(2.0 * 0.05)
    driver = BrownianDriver(seed=909, dt=0.01, n=1)
    for r in range(6):
        inc = driver.increments(10, realization_index=r)[:, 0]
        for s, (t, k) in enumerate(zip(TIMES, (5, 10))):
            shift = s2n * np.sum(inc[:k])
            expect_f = np.exp(-((QUERY - shift) ** 2))
            expect_rho = 1.0 + 0.5 * np.exp(-0.5 * (QUERY - shift) ** 2)
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
    labels = np.linspace(-4.0, 4.0, 17)
    queries = np.linspace(-1.0, 1.0, 400)
    realizations = 1000
    driver = BrownianDriver(seed=5, dt=0.01, n=1)
    f0 = parse_field("exp(-x1*x1)", 1)
    rho0 = parse_field("1 + 0.5*exp(-0.5*x1*x1)", 1)
    snapshot = simulate_paths(cs, (labels,), 10, [10], driver, range(realizations), box=BOX)
    snapshot_bytes = sum(v.nbytes for v in vars(snapshot).values() if isinstance(v, np.ndarray))
    del snapshot
    tracemalloc.start()
    try:
        samples = collect_psi(cs, labels, [0.1], driver, f0, rho0, queries, realizations,
                              box=BOX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert samples.num_discarded == 0 and np.all(samples.status == STATUS_OK)
    output_bytes = samples.psi_f.nbytes + samples.psi_rho.nbytes + samples.status.nbytes
    # 32 doubles per (block row, query or label): about twice what one block uses.
    allowance = 32 * 8 * _PSI_BLOCK_ROWS * (queries.size + labels.size)
    assert peak <= snapshot_bytes + output_bytes + allowance


def test_collect_psi_validation():
    cs = make_coeffs("1", nu=0.05, n=1)
    driver = BrownianDriver(seed=1, dt=0.01, n=1)
    labels = np.linspace(-2.0, 2.0, 11)
    one = parse_field("1", 1)
    chunk = simulate_paths(cs, labels, 10, [5, 10], driver, range(2), box=BOX)
    with pytest.raises(DimensionMismatch):
        collect_psi_samples(chunk, [0.05], one, one, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="step grid"):
        collect_psi(cs, labels, [0.033], driver, one, one, QUERY, 2, box=BOX)
    with pytest.raises(ValueError, match="increasing"):
        collect_psi_samples(chunk, [0.1, 0.05], one, one, QUERY)


def test_fields_from_samples_statistics():
    samples = _collect()
    f_hat, rho_hat = fields_from_samples(samples, 0.1)
    assert isinstance(f_hat, McField) and isinstance(rho_hat, McField)
    assert f_hat.count == 120 and not f_hat.masked.any()
    s = samples.time_slot(0.1)
    assert np.array_equal(f_hat.mean, samples.psi_f[:, s, :].mean(axis=0))
    assert np.array_equal(f_hat.variance, samples.psi_f[:, s, :].var(axis=0, ddof=1))
    assert np.allclose(f_hat.se, np.sqrt(f_hat.variance / 120.0))
    with pytest.raises(ValueError, match="not sampled"):
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
    psi_f = np.empty((120, QUERY.size))
    psi_rho = np.empty((120, QUERY.size))
    for r in range(120):
        chart = chart_from_batch(result, 0.1, [r])  # a one-row stack
        (one_f, one_rho), status = feynman_kac_psi_stack(chart, (f0, rho0), QUERY)
        psi_f[r], psi_rho[r] = one_f[0], one_rho[0]
        assert np.all(status == STATUS_OK)
    f_ref, rho_ref = fields_from_samples(samples, 0.1)
    assert np.array_equal(psi_f.mean(axis=0), f_ref.mean)
    assert np.array_equal(psi_rho.mean(axis=0), rho_ref.mean)
    assert np.array_equal(psi_f.var(axis=0, ddof=1), f_ref.variance)


# ---------------------------------------------------------------------------
# McField container
# ---------------------------------------------------------------------------


def test_mc_field_masking_and_se():
    pts = np.linspace(0.0, 1.0, 4)[:, None]
    mean = np.array([1.0, 2.0, np.nan, 4.0])
    var = np.array([0.01, 0.04, 0.0, 0.09])
    masked = np.array([False, False, True, False])
    fld = McField(points=pts, t=0.5, mean=mean, variance=var, count=25, masked=masked)
    assert fld.num_masked == 1
    se = fld.se
    assert np.isnan(se[2])
    assert se[0] == pytest.approx(0.1 / 5.0)
    with pytest.raises(ValueError):
        McField(points=pts, t=0.0, mean=mean, variance=np.array([-1.0, 0, 0, 0]),
                count=25, masked=np.zeros(4, dtype=bool))


# ---------------------------------------------------------------------------
# entropy functionals
# ---------------------------------------------------------------------------


def test_entropy_martingale_series_translation_quadrature():
    cs = make_coeffs("1", nu=0.05, n=1)
    labels = (np.linspace(-4.0, 4.0, 81),)
    driver = BrownianDriver(seed=33, dt=0.01, n=1)
    result = simulate_paths(cs, labels, 10, [10], driver, range(1), box=BOX)
    shift = float(np.mean(result.X[0, 0, :, 0] - labels[0]))
    rho0 = parse_field("exp(-4*x1*x1)", 1)
    f0 = parse_field("0.5*exp(-4*x1*x1)", 1)  # ratio f0/rho0 = 0.5 everywhere
    qaxes = (np.linspace(-3.0, 3.0, 121),)
    samples = collect_psi(cs, labels, [0.1], driver, f0, rho0, mesh_points(qaxes), 1, box=BOX)
    series = entropy_martingale_series(samples, constant_phi(1.0), get_convex("r2"))
    w = trapezoid_weights(qaxes)
    expect = 0.25 * float(np.sum(w * np.exp(-4.0 * (qaxes[0] - shift) ** 2)))
    assert series.shape == (1, 1)
    assert series[0, 0] == pytest.approx(expect, rel=1e-9)
    # a slowly decaying integrand trips the boundary guard
    wide = parse_field("exp(-0.1*x1*x1)", 1)
    wide_samples = collect_psi(cs, labels, [0.1], driver, wide, wide, mesh_points(qaxes), 1,
                               box=BOX)
    with pytest.raises(SupportEscape):
        entropy_martingale_series(wide_samples, constant_phi(1.0), get_convex("r2"))


def _synthetic_samples(ratios, r_count=120, q_count=21):
    """PsiSamples with psi_rho = 1 and psi_f = ratios[s] at every point."""
    pts = np.linspace(0.0, 1.0, q_count)[:, None]
    s_count = len(ratios)
    psi_rho = np.ones((r_count, s_count, q_count))
    psi_f = np.tile(np.asarray(ratios, dtype=float)[None, :, None],
                    (r_count, 1, q_count))
    return PsiSamples(
        label_axes=(pts[:, 0],),
        points=pts,
        times=np.linspace(0.0, 0.1 * (s_count - 1), s_count),
        realization_indices=np.arange(r_count),
        psi_f=psi_f,
        psi_rho=psi_rho,
        status=np.zeros((r_count, s_count, q_count), dtype=np.uint8),
        num_discarded=0,
    )


def test_entropy_martingale_series_hand_values():
    samples = _synthetic_samples([2.0, 1.5, 1.0])
    # Within two cells of the grid edge the density is 1e-12, so the integrand
    # there stays below the edge guard's 1e-8 of its peak.
    edge = np.zeros(21, dtype=bool)
    edge[:2] = edge[-2:] = True
    dens = np.where(edge, 1e-12, 1.0)
    samples.psi_rho[:] = dens
    samples.psi_f *= dens
    series = entropy_martingale_series(samples, constant_phi(1.0), get_convex("r2"))
    assert series.shape == (120, 3)
    # the value is H(ratio) times the quadrature of the density
    mass = float(np.sum(trapezoid_weights((samples.points[:, 0],)) * dens))
    assert np.allclose(series[:, 0], 4.0 * mass, rtol=1e-12)
    assert np.allclose(series[:, 1], 2.25 * mass, rtol=1e-12)
    assert np.allclose(series[:, 2], 1.0 * mass, rtol=1e-12)
    # a flat integrand reaches the edge: the sample is rejected
    with pytest.raises(SupportEscape):
        entropy_martingale_series(_synthetic_samples([2.0]), constant_phi(1.0), get_convex("r2"))


def test_entropy_decay_check_monte_carlo_verdicts():
    decreasing = _synthetic_samples([2.0, 1.5, 1.2, 1.1])
    rep = entropy_decay_check(decreasing, phi=constant_phi(1.0), H=get_convex("r2"))
    assert rep.verdict_nonincreasing and rep.num_violations == 0
    assert np.allclose(rep.values, [4.0, 2.25, 1.44, 1.21], rtol=1e-12)
    assert rep.lower is not None and rep.upper is not None
    assert np.all(rep.lower <= rep.values + 1e-12)
    assert np.all(rep.values <= rep.upper + 1e-12)
    growing = _synthetic_samples([1.0, 1.0, 1.5])
    rep2 = entropy_decay_check(growing, phi=constant_phi(1.0), H=get_convex("r2"))
    assert not rep2.verdict_nonincreasing
    assert rep2.num_violations >= 1
    assert rep2.max_increment == pytest.approx(1.25, rel=1e-12)


def test_entropy_decay_check_noisy_density_rejected():
    samples = _synthetic_samples([1.5, 1.2], r_count=120)
    # one huge outlier swamps the density mean with its own standard error
    samples.psi_rho[:, :, :] = 0.01
    samples.psi_rho[0, :, :] = 100.0
    with pytest.raises(SignalTooNoisy):
        entropy_decay_check(samples, phi=constant_phi(1.0), H=get_convex("r2"))


def test_entropy_decay_check_requires_min_realizations():
    small = _synthetic_samples([1.5, 1.2], r_count=40)
    with pytest.raises(InsufficientRealizations):
        entropy_decay_check(small, phi=constant_phi(1.0), H=get_convex("r2"))
