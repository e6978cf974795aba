"""End-to-end acceptance gates, one test per criterion, at full stated budgets.

Each test prints one PASS/FAIL line under ``pytest -v``.  The bundled scenarios run
once per thread count through session fixtures and the criterion tests read the
recorded metrics, so the whole module costs a few minutes, dominated by the
full-budget statistical runs.
"""

import time

import numpy as np
import pytest

from stochflow.brownian import BrownianDriver
from stochflow.checks import golden_payload, run_scenario
from stochflow.coefficients import assemble
from stochflow.config import bundled_scenario_path, bundled_scenarios, load_config
from stochflow.convex import get_convex
from stochflow.estimators import fields_from_samples, jensen_check
from stochflow.fields import parse_field
from stochflow.grids import Box

from conftest import collect_psi, derivative_discrepancies


# ---------------------------------------------------------------------------
# session fixtures: full-budget scenario runs at two thread counts
# ---------------------------------------------------------------------------


def _run_all(tmp_path_factory, threads: int):
    runs = {}
    root = tmp_path_factory.mktemp(f"accept_t{threads}")
    for name in bundled_scenarios():
        cfg = load_config(str(bundled_scenario_path(name)))
        out = root / name
        report = run_scenario(cfg, str(out), threads=threads)
        runs[name] = (out, report)
    return runs


@pytest.fixture(scope="session")
def runs_single_thread(tmp_path_factory):
    return _run_all(tmp_path_factory, threads=1)


@pytest.fixture(scope="session")
def runs_four_threads(tmp_path_factory):
    return _run_all(tmp_path_factory, threads=4)


def _check(runs, scenario, name):
    _, report = runs[scenario]
    for res in report.results:
        if res.name == name:
            return res
    raise AssertionError(f"{scenario} has no check named {name}")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_heat_kernel_field_within_4se():
    """Constant-diffusion field estimate matches the closed-form Gaussian."""
    nu, s0 = 0.1, 0.5
    cs = assemble([["1"]], ["0"], "0", nu=nu, n=1)
    labels = (np.linspace(-6.0, 6.0, 25),)
    queries = np.linspace(-2.0, 2.0, 41)
    driver = BrownianDriver(seed=11, dt=1e-3, n=1)
    f0 = parse_field("exp(-x1*x1/0.5)", 1)  # Gaussian with spread s0 = 0.5
    rho0 = parse_field("1", 1)
    t0 = time.perf_counter()
    samples = collect_psi(
        cs, labels, [0.5], driver, f0, rho0, queries[:, None], 20000,
        box=Box((-6.0,), (6.0,)), threads=1,
    )
    mean, se, masked = fields_from_samples(samples, 0.5)
    elapsed = time.perf_counter() - t0

    assert elapsed < 120.0, f"single-threaded run took {elapsed:.1f}s"
    assert samples.num_realizations == 20000  # none discarded
    assert masked.sum() == 0
    var = s0**2 + 2.0 * nu * 0.5
    exact = np.sqrt(s0**2 / var) * np.exp(-(queries**2) / (2.0 * var))
    within = np.abs(mean - exact) <= 4.0 * se
    frac = float(np.mean(within))
    assert frac >= 0.95, f"only {frac:.1%} of query points within 4 SE"


def test_criterion_02_determinant_triple_consistency(runs_single_thread):
    """The three volume trackers agree, with the expected dt-halving decay."""
    res = _check(runs_single_thread, "sine_sigma_1d", "determinant_consistency")
    assert res.passed
    m = res.metrics
    assert m["dt_levels"] == [0.002, 0.001, 0.0005]
    lam = m["pair_direct_vs_exp_lambda"]
    assert lam["passed"]
    assert all(1.2 <= r <= 2.8 for r in lam["ratios"]), lam["ratios"]
    assert lam["order"] >= 0.4, lam["order"]
    # in one dimension the stepwise-determinant recurrence is algebraically the
    # same update as the direct one, so that pair must coincide to roundoff
    sde = m["pair_direct_vs_sde"]
    assert sde["regime"] == "identical_recurrence"
    assert sde["max_abs_gap"] <= 1e-12, sde["max_abs_gap"]
    # in two dimensions both pairs are genuinely distinct routes and both must
    # show the same halving behavior
    res2d = _check(runs_single_thread, "diag_sigma_2d", "determinant_consistency")
    assert res2d.passed
    for key in ("pair_direct_vs_exp_lambda", "pair_direct_vs_sde"):
        pair = res2d.metrics[key]
        assert pair["regime"] == "scaling"
        assert all(1.2 <= r <= 2.8 for r in pair["ratios"]), (key, pair["ratios"])
        assert pair["order"] >= 0.4, (key, pair["order"])


def test_criterion_03_martingale_constancy(runs_single_thread):
    """Weighted test-function means stay at their initial values (|z| <= 4)."""
    cases = [
        ("sine_sigma_1d", False),   # constant weight, zero potential, variable noise
        ("diag_sigma_2d", True),    # adjoint-solved weight, constant potential, 2D
    ]
    for scenario, adjoint_weight in cases:
        res = _check(runs_single_thread, scenario, "martingale_M")
        assert res.passed, scenario
        m = res.metrics
        assert m["realizations"] == 20000
        cells = m["cells"]
        labels = {tuple(c["label"]) for c in cells}
        times = {c["t"] for c in cells}
        assert len(labels) == 3 and len(times) == 3 and len(cells) == 9, scenario
        assert all(abs(c["z"]) <= 4.0 for c in cells), scenario
        refs = {round(c["reference"], 12) for c in cells}
        if adjoint_weight:
            assert len(refs) > 1, "adjoint weight should vary across labels"


def test_criterion_04_conserved_quadrature(runs_single_thread):
    """The integral of motion is constant in time for two bump profiles."""
    res = _check(runs_single_thread, "sine_sigma_1d", "conservation")
    assert res.passed
    m = res.metrics
    assert m["realizations"] == 20000
    cells = m["cells"]
    by_profile = {}
    for c in cells:
        by_profile.setdefault(c["profile"], []).append(c)
    assert set(by_profile) == {"h0", "h0_alt"}
    for profile, rows in by_profile.items():
        assert sorted(r["t"] for r in rows) == [0.25, 0.5, 1.0], profile
        assert all(abs(r["z"]) <= 4.0 for r in rows), profile


def test_criterion_05_convexity_inequality_exactness(runs_single_thread):
    """1000 random positive sample sets satisfy the convexity bound exactly."""
    rng = np.random.default_rng(55)
    functions = [get_convex(n) for n in ("r2", "abs_smooth", "rlogr")]
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        size = int(rng.integers(2, 65))
        rho = rng.uniform(0.05, 4.0, size=(1, size))
        f = rho * rng.uniform(0.0, 3.0, size=(1, size))
        for H in functions:
            if not jensen_check(rho, f, H, slack=1e-12).holds[0]:
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    # the bundled scenario route runs the same budget and must agree
    for name in bundled_scenarios():
        res = _check(runs_single_thread, name, "jensen")
        assert res.passed and res.metrics["violations"] == 0
        assert res.metrics["num_sets"] == 1000
        assert res.metrics["total_checks"] == 3000


def test_criterion_06_entropy_decay_both_routes(runs_single_thread):
    """Entropy series falls monotonically; a concave control must fail."""
    oracle = _check(runs_single_thread, "sine_sigma_1d", "entropy_oracle")
    assert oracle.passed
    m = oracle.metrics
    values = np.asarray(m["values"])
    assert np.all(np.diff(values) <= 1e-8), "oracle series has a real increase"
    assert m["num_violations"] == 0
    assert m["max_increment"] <= 1e-8
    assert m["control_num_violations"] >= 1, "concave control failed to fail"
    mc = _check(runs_single_thread, "sine_sigma_1d", "entropy_mc")
    assert mc.passed
    assert mc.metrics["control_fails"] is True
    # increments are cleared by the 95% bootstrap bands by construction of the
    # verdict; confirm the recorded series actually decreased overall
    assert mc.metrics["increments"][0] < 0


def test_criterion_07_field_vs_reference_solution(runs_single_thread):
    """Monte Carlo field matches the grid reference within noise + resolution."""
    res = _check(runs_single_thread, "sine_sigma_fk_1d", "feynman_kac_vs_oracle")
    assert res.passed
    m = res.metrics
    assert m["slack_constant"] == 2.0  # frozen after calibration on the heat case
    for row in m["times"]:
        bound = max(row["stat_tolerance"], row["disc_tolerance"])
        assert row["l2"] <= bound, row
        assert row["disc_tolerance"] == pytest.approx(
            2.0 * (m["engine_dt"] + m["oracle_dx"] ** 2), rel=1e-12
        )
    # the calibration case itself must stay green with the same constant
    heat = _check(runs_single_thread, "heat_identity", "feynman_kac_vs_oracle")
    assert heat.passed and heat.metrics["slack_constant"] == 2.0


def test_criterion_08_inversion_roundtrip(runs_single_thread):
    """Invert-then-evaluate returns interior labels to 1e-6 in every scenario."""
    for name in bundled_scenarios():
        res = _check(runs_single_thread, name, "roundtrip")
        assert res.passed, name
        assert res.metrics["tolerance"] == 1e-6
        assert res.metrics["max_abs_error"] <= 1e-6, name
        assert res.metrics["min_resolved_fraction"] == 1.0, name


def test_criterion_09_cross_thread_determinism(runs_single_thread, runs_four_threads):
    """Thread counts 1 and 4 produce byte-identical CSVs for every scenario."""
    for name in bundled_scenarios():
        out1, rep1 = runs_single_thread[name]
        out4, rep4 = runs_four_threads[name]
        csvs1 = sorted(p.name for p in out1.glob("*.csv"))
        csvs4 = sorted(p.name for p in out4.glob("*.csv"))
        assert csvs1 == csvs4 and csvs1, name
        for fname in csvs1:
            b1 = (out1 / fname).read_bytes()
            b4 = (out4 / fname).read_bytes()
            assert b1 == b4, f"{name}/{fname} differs between thread counts"
        # the full reports also agree once timing and thread count are stripped
        assert golden_payload(rep1) == golden_payload(rep4), name


def test_criterion_10_symbolic_derivatives():
    """500 random expression trees differentiate to within 1e-6 of central FD."""
    rng = np.random.default_rng(2024)
    worst = derivative_discrepancies(rng, 500)
    assert len(worst) == 500
    assert max(worst) <= 1e-6, f"worst relative error {max(worst):.3e}"
