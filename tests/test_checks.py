"""Scenario check runner: reports, goldens, error capture, convergence study."""

import dataclasses
import json

import numpy as np
import pytest
import yaml

from stochflow import checks
from stochflow.checks import (
    RunContext,
    _jsonable,
    convergence_study,
    golden_payload,
    report_payload,
    run_scenario,
)
from stochflow.config import bundled_scenario_path, load_config, loads_config
from stochflow.convex import get_convex
from stochflow.engine import step_indices
from stochflow.estimators import martingale_values
from stochflow.oracle import grid_field_from_expr, solve_adjoint, solve_forward


@pytest.fixture(scope="module")
def additive_cfg():
    return load_config(str(bundled_scenario_path("additive_linear_1d")))


def _one_check(name: str, check: str, **params):
    """A bundled scenario that lists one check, with some of its parameters replaced."""
    raw = yaml.safe_load(open(str(bundled_scenario_path(name))))
    raw["checks"] = [check]
    raw.setdefault("check_params", {})
    raw["check_params"][check] = dict(raw["check_params"].get(check) or {}, **params)
    return loads_config(yaml.safe_dump(raw))


def _reduced_diag_sigma_2d():
    """diag_sigma_2d on 17 x 17 labels, a 0.1 oracle grid, tracker passes to 0.25 and
    martingale cells at 0.2 and 0.5: at 100 realizations a few seconds, not twelve."""
    raw = yaml.safe_load(open(str(bundled_scenario_path("diag_sigma_2d"))))
    raw.update(labels=[17, 17], oracle_dx=0.1)
    raw["check_params"]["determinant_consistency"]["horizon"] = 0.25
    raw["check_params"]["martingale_M"]["times"] = [0.2, 0.5]
    return loads_config(yaml.safe_dump(raw))


def test_run_scenario_report_contents(tmp_path, additive_cfg):
    report = run_scenario(additive_cfg, str(tmp_path), seed=7, realizations=150, threads=2)
    assert report.scenario == "additive_linear_1d"
    assert report.config_hash == additive_cfg.hash
    assert report.seed == 7
    assert report.realizations == 150
    assert report.threads == 2
    assert report.all_passed
    assert [r.name for r in report.results] == list(additive_cfg.checks)
    assert all(r.elapsed >= 0 for r in report.results)
    # the JSON on disk reproduces the payload of the in-memory report
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report_payload(report)


def test_golden_payload_strips_timing_and_threads(tmp_path, additive_cfg):
    report = run_scenario(additive_cfg, str(tmp_path), realizations=150)
    payload = golden_payload(report)
    assert "elapsed_seconds" not in payload
    assert "threads" not in payload
    assert all("elapsed_seconds" not in c for c in payload["checks"])
    full = report_payload(report)
    assert "elapsed_seconds" in full and "threads" in full


@pytest.mark.parametrize(
    "name",
    ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d", "diag_sigma_2d"],
)
def test_fresh_run_matches_bundled_golden(tmp_path, name):
    # the stored golden was produced at the default seed with a 200-realization
    # budget; an identical run must reproduce it byte for byte
    import stochflow.scenarios

    from importlib import resources

    cfg = load_config(str(bundled_scenario_path(name)))
    report = run_scenario(cfg, str(tmp_path), realizations=200, threads=2)
    golden_file = resources.files(stochflow.scenarios) / "golden" / f"{name}.json"
    stored = json.loads(golden_file.read_text())
    assert golden_payload(report) == stored, _numpy_build()


def _numpy_build() -> str:
    """numpy's version and whether it dispatches its AVX512 loops: the goldens' bits
    hold for one CPU and numpy build."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    avx512 = [t for t in __cpu_dispatch__
              if __cpu_features__.get(t) and ("AVX512" in t or t == "X86_V4")]
    loops = f"dispatched ({', '.join(avx512)})" if avx512 else "not dispatched"
    return f"numpy {np.__version__}, AVX512 loops {loops}"


def _run_tracker_consumers(ctx, consumers) -> list:
    """Run the tracker consumers of a determinant_consistency plan; their gaps."""
    for group in checks._passes(consumers).values():
        checks._run_pass(ctx, group)
    return [checks._tracker_gaps(c) for c in consumers]


def test_tracker_gaps_do_not_depend_on_chunk_size(additive_cfg):
    # 100 realizations in one chunk of 4096 or in chunks of 37, 37 and 26: the
    # gaps are reduced once over all chunks, so every float agrees bit for bit.
    params = {"dt_levels": [0.002, 0.001], "horizon": 0.5, "realizations": 100}
    gaps = []
    for size in (4096, 37):
        ctx = RunContext(additive_cfg, 5, chunk_size=size)
        plan = checks._plan_determinant_consistency(ctx, params)
        gaps.append(_run_tracker_consumers(ctx, plan.consumers))
    labels = plan.consumers[0].labels
    assert gaps[0][0]["samples"] == 100 * labels[0].size
    assert gaps[0] == gaps[1]


def test_the_convergence_study_reads_the_checks_own_series(tmp_path, additive_cfg):
    # The study runs determinant_consistency's plan: at the same budget and the
    # check's dt levels, its gaps are the bits of the series a scenario run writes.
    assert additive_cfg.params_for("determinant_consistency")["dt_levels"] == [
        additive_cfg.dt / 2 ** l for l in range(3)]
    study = convergence_study(additive_cfg, 3, realizations=64)
    run_scenario(_one_check("additive_linear_1d", "determinant_consistency"), str(tmp_path),
                 realizations=64)
    for key, stem in [("gap_direct_vs_exp_lambda", "exp_lambda"), ("gap_direct_vs_sde", "sde")]:
        rows = (tmp_path / f"determinant_consistency.{stem}.csv").read_text().splitlines()[1:]
        written = [float(row.split(",")[1]) for row in rows]
        assert np.array_equal(study[key], written), key


@pytest.mark.parametrize(
    "name", ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d"]
)
def test_every_check_result_does_not_depend_on_chunk_size(tmp_path, name):
    # Each check alone, 100 realizations in one chunk or in chunks of 37, 37 and 26:
    # every metric and every series point agrees bit for bit.  The last two
    # scenarios have variable sigma and growth V, so their charts and log-weights
    # differ per realization.
    cfg = load_config(str(bundled_scenario_path(name)))
    for check in cfg.checks:
        alone = _one_check(name, check)
        runs = []
        for size in (4096, 37):
            report = run_scenario(alone, str(tmp_path / f"{check}_{size}"),
                                  realizations=100, chunk_size=size)
            result = report.results[0]
            runs.append((_jsonable(result.metrics), result.series))
        assert runs[0] == runs[1], check


@pytest.mark.parametrize(
    "name",
    ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d", "diag_sigma_2d"],
)
def test_scenario_output_does_not_depend_on_chunk_size(tmp_path, name):
    # The golden budget in one chunk or in chunks of 37: the checks that share a
    # pass read chunk-cut realization prefixes, and the golden payload and every
    # CSV keep their bytes.  In 2D a reduced copy at 100 realizations (chunks of
    # 37, 37 and 26) stands in for the bundled file.
    if name == "diag_sigma_2d":
        cfg, realizations = _reduced_diag_sigma_2d(), 100
    else:
        cfg, realizations = load_config(str(bundled_scenario_path(name))), 200
    outputs = []
    for size in (4096, 37):
        out = tmp_path / str(size)
        report = run_scenario(cfg, str(out), realizations=realizations, chunk_size=size)
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        outputs.append((json.dumps(golden_payload(report), sort_keys=True), csvs))
    assert outputs[0][1]
    assert outputs[0] == outputs[1]


def test_working_set_chunks_keep_the_bytes(tmp_path, monkeypatch):
    # By default each pass sizes its chunks from its working set.  Under a 512 KiB
    # budget the 65-label pass splits its 200 realizations into five chunks of 40
    # and the 17-label tracker passes into two of 100; at 2 threads the golden
    # payload and every CSV equal those of one chunk of 4096 at 1 thread.
    from stochflow import engine

    cfg = load_config(str(bundled_scenario_path("sine_sigma_1d")))
    outputs, sizes = [], []
    real_run_chunks = checks.run_chunks

    def recording(indices, worker, chunk_size, threads):
        sizes.append((len(indices), chunk_size))
        return real_run_chunks(indices, worker, chunk_size=chunk_size, threads=threads)

    for budget, kwargs in ((None, dict(chunk_size=4096)), (2**19, dict(threads=2))):
        if budget is not None:
            monkeypatch.setattr(engine, "CHUNK_BYTES", budget)
            monkeypatch.setattr(checks, "run_chunks", recording)
        out = tmp_path / str(budget)
        report = run_scenario(cfg, str(out), realizations=200, **kwargs)
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        outputs.append((json.dumps(golden_payload(report), sort_keys=True), csvs))
    assert (200, 40) in sizes and (200, 100) in sizes
    assert outputs[0][1]
    assert outputs[0] == outputs[1]


def test_shared_pass_prefixes_match_each_check_run_alone(tmp_path, monkeypatch):
    # conservation simulates 150 realizations in chunks of 37, 37, 37, 37 and 2;
    # roundtrip reads the first 8 and entropy_mc the first 100, which end inside
    # the third chunk.  Each check's metrics and series equal those of a scenario
    # that lists it alone, simulated in one chunk.
    raw = yaml.safe_load(open(str(bundled_scenario_path("sine_sigma_1d"))))
    raw["checks"] = ["roundtrip", "conservation", "entropy_mc"]
    raw["check_params"]["conservation"]["realizations"] = 150
    raw["check_params"]["entropy_mc"]["realizations"] = 100
    chunks = []
    real_simulate = checks.simulate_paths

    def recording(*args, **kwargs):
        result = real_simulate(*args, **kwargs)
        chunks.append(result.num_realizations)
        return result

    monkeypatch.setattr(checks, "simulate_paths", recording)
    shared = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path / "shared"),
                          chunk_size=37)
    monkeypatch.undo()
    assert chunks == [37, 37, 37, 37, 2]
    assert [r.name for r in shared.results] == raw["checks"]
    for result in shared.results:
        assert "error" not in result.metrics, result.metrics
        alone = run_scenario(loads_config(yaml.safe_dump(dict(raw, checks=[result.name]))),
                             str(tmp_path / result.name))
        assert _jsonable(alone.results[0].metrics) == _jsonable(result.metrics), result.name
        assert alone.results[0].series == result.series, result.name


def test_failing_consumer_fails_only_its_own_check(tmp_path, monkeypatch):
    # conservation and entropy_mc share one pass; a reduction that raises inside
    # it is reported by conservation alone.
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw["checks"] = ["conservation", "entropy_mc"]

    def broken(*args, **kwargs):
        raise FloatingPointError("reduction failed")

    monkeypatch.setattr(checks, "conserved_quantity_batch", broken)
    report = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path), realizations=150)
    conservation, entropy_mc = report.results
    assert conservation.metrics == {"error": "FloatingPointError: reduction failed"}
    assert entropy_mc.passed, entropy_mc.metrics


def test_an_engine_error_fails_every_check_of_its_pass(tmp_path, monkeypatch):
    # conservation and entropy_mc share the label-grid pass; martingale_M simulates
    # its probes in a pass of its own and jensen simulates nothing.  Every 7th
    # realization comes back not alive, and the label-grid pass raises on its second
    # chunk: both of its checks report that error, martingale_M and jensen still run,
    # and the report counts the discards of martingale_M's pass alone.
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw["checks"] = ["conservation", "entropy_mc", "martingale_M", "jensen"]
    real_simulate = checks.simulate_paths

    def failing(*args, realization_indices, **kwargs):
        if not isinstance(args[1], np.ndarray) and realization_indices[0] > 0:
            raise FloatingPointError("step overflowed")
        result = real_simulate(*args, realization_indices=realization_indices, **kwargs)
        result.alive[result.realization_indices % 7 == 0] = False
        return result

    monkeypatch.setattr(checks, "simulate_paths", failing)
    budget = 140
    report = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path),
                          realizations=budget, chunk_size=37)
    conservation, entropy_mc, martingale, jensen = report.results
    for result in (conservation, entropy_mc):
        assert not result.passed
        assert result.metrics == {"error": "FloatingPointError: step overflowed"}
        assert result.notes == "check aborted by error"
    assert martingale.metrics["num_discarded"] == -(-budget // 7)
    assert jensen.passed, jensen.metrics
    assert report.num_discarded == -(-budget // 7)
    # martingale_M fails on its discard fraction alone.
    assert not martingale.passed
    assert martingale.metrics["max_abs_z"] <= martingale.metrics["z_limit"]


def test_feynman_kac_fails_when_fewer_than_half_the_points_are_usable(tmp_path, monkeypatch):
    # The estimate at t = 0.25 masks 60% of the query points: that time fails without
    # an L2 figure, and the check fails with it, while t = 0.5 is measured as usual.
    real_fields = checks.fields_from_samples

    def masking(samples, t):
        mean, se, masked = real_fields(samples, t)
        if t != 0.25:
            return mean, se, masked
        masked = masked.copy()
        masked[: int(0.6 * masked.size)] = True
        return mean, se, masked

    monkeypatch.setattr(checks, "fields_from_samples", masking)
    cfg = _one_check("heat_identity", "feynman_kac_vs_oracle")
    (result,) = run_scenario(cfg, str(tmp_path), realizations=150).results
    assert not result.passed
    early, late = result.metrics["times"]
    assert early["t"] == 0.25 and early["usable_fraction"] < 0.5
    assert early["passed"] is False and "l2" not in early
    assert late["t"] == 0.5 and late["passed"] and "l2" in late
    assert [row[0] for row in result.series["feynman_kac_vs_oracle"]] == [0.5]


def _short_heat(checks_list):
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw.update(T=0.1, output_times=[0.0, 0.05, 0.1], checks=checks_list)
    return raw


def test_conservation_memory_is_bounded_by_one_chunk(tmp_path):
    # 800 realizations in chunks of 40: each chunk is reduced to per-realization
    # quadratures and dropped, so the tracemalloc peak stays near that of
    # simulating one chunk; keeping every chunk's snapshots needs 20 times that.
    import tracemalloc

    raw = _short_heat(["conservation"])
    raw["check_params"]["conservation"]["times"] = [0.05, 0.1]
    cfg = loads_config(yaml.safe_dump(raw))
    ctx = RunContext(cfg, cfg.seed)
    tracemalloc.start()
    try:
        checks.simulate_paths(ctx.cs, cfg.label_axes, 100, [50, 100], ctx.driver(),
                              range(40), box=cfg.box)
        _, one_chunk = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = run_scenario(cfg, str(tmp_path), realizations=800, chunk_size=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = report.results[0]
    assert result.passed, result.metrics
    assert peak <= 2 * one_chunk, (peak, one_chunk)


def test_martingale_memory_is_bounded_by_one_chunk(tmp_path):
    # 800 realizations of 41 probes in chunks of 40: each chunk is reduced to its
    # martingale samples and dropped, so the tracemalloc peak stays within two
    # chunks' simulation plus the samples kept (800 x 41 x 2 doubles, once per chunk
    # and once joined).  Keeping every chunk's snapshots adds 3 times the samples.
    import tracemalloc

    probes = np.linspace(-1.0, 1.5, 41)
    raw = _short_heat(["martingale_M"])
    raw["check_params"]["martingale_M"].update(probe_labels=[probes.tolist()],
                                               times=[0.05, 0.1])
    cfg = loads_config(yaml.safe_dump(raw))
    ctx = RunContext(cfg, cfg.seed)
    kept = 2 * 800 * probes.size * 2 * 8
    tracemalloc.start()
    try:
        checks.simulate_paths(ctx.cs, probes[:, None], 100, [50, 100], ctx.driver(),
                              range(40), box=cfg.box, fields=("X", "D_direct", "log_I"))
        _, one_chunk = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = run_scenario(cfg, str(tmp_path), realizations=800, chunk_size=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = report.results[0]
    assert result.passed, result.metrics
    assert peak <= 2 * one_chunk + kept, (peak, one_chunk, kept)


def test_tracker_level_memory_is_bounded_by_one_chunk():
    # One dt level, 800 realizations of 97 labels in chunks of 40: each chunk is
    # reduced to its two tracker gaps per label and dropped, so the tracemalloc peak
    # stays within two chunks' simulation plus the gaps kept: two per realization
    # and label, once per chunk and once joined, and the RMS's squared temporary.
    # Keeping every chunk's snapshots adds 1.9 MB.
    import tracemalloc

    cfg = loads_config(yaml.safe_dump(_short_heat(["determinant_consistency"])))
    labels = cfg.label_axes
    kept = 5 * 800 * labels[0].size * 8
    tracemalloc.start()
    try:
        ctx = RunContext(cfg, cfg.seed, chunk_size=40)
        checks.simulate_paths(ctx.cs, labels, 50, [50], ctx.driver(0.002), range(40),
                              box=cfg.box, fields=("D_direct", "D_sde", "log_lambda"))
        _, one_chunk = tracemalloc.get_traced_memory()
        # The plan's first tracker consumer, moved onto all 97 labels.
        plan = checks._plan_determinant_consistency(
            ctx, {"dt_levels": [0.002, 0.001], "horizon": 0.1, "realizations": 800})
        consumer = dataclasses.replace(plan.consumers[0], labels=labels)
        tracemalloc.reset_peak()
        (level,) = _run_tracker_consumers(ctx, [consumer])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert level["samples"] == 800 * labels[0].size
    assert peak <= 2 * one_chunk + kept, (peak, one_chunk, kept)


def test_jensen_draws_follow_the_run_seed(tmp_path):
    cfg = _one_check("additive_linear_1d", "jensen", num_sets=50)

    def margin(seed):
        report = run_scenario(cfg, str(tmp_path / str(seed)), seed=seed)
        return report.results[0].metrics["worst_margin"]

    assert margin(1) == margin(1)
    assert margin(1) != margin(2)


def test_dt_levels_must_divide_the_horizon(tmp_path):
    from stochflow.errors import ConfigError

    cfg = _one_check("additive_linear_1d", "determinant_consistency",
                     dt_levels=[0.002, 0.001], horizon=0.003)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5).results
    assert not result.passed
    assert result.metrics["error"].startswith(f"{ConfigError.__name__}: ")
    assert "not a multiple" in result.metrics["error"]
    # cfg.dt = 0.002 halves to 0.001 and 0.0005; 0.0035 is a multiple of 0.0005 only
    raw = yaml.safe_load(open(str(bundled_scenario_path("additive_linear_1d"))))
    raw["check_params"]["determinant_consistency"]["horizon"] = 0.0035
    with pytest.raises(ConfigError, match="not a multiple"):
        convergence_study(loads_config(yaml.safe_dump(raw)), levels=3)


@pytest.mark.parametrize("horizon", [0, 1e-12])
def test_a_horizon_shorter_than_one_step_is_a_config_error(tmp_path, monkeypatch, horizon):
    # A horizon that rounds to zero steps would simulate one step and read step 0,
    # where every tracker gap is 0: the check would pass in the coincident regime.
    # It is refused at planning, before any pass, and so is the convergence study.
    from stochflow.errors import ConfigError

    calls = []
    monkeypatch.setattr(checks, "run_chunks", lambda *a, **k: calls.append(a))
    cfg = _one_check("sine_sigma_1d", "determinant_consistency", horizon=horizon)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=20).results
    assert not result.passed
    assert result.metrics["error"].startswith("ConfigError: determinant_consistency: ")
    assert "with a whole k >= 1" in result.metrics["error"], result.metrics
    with pytest.raises(ConfigError, match="with a whole k >= 1"):
        convergence_study(cfg, levels=2, realizations=20)
    assert calls == []


def test_the_feynman_kac_slack_constant_is_frozen(tmp_path, monkeypatch):
    # Every scenario sets C = 2.0, which keeps its config hash; any other value would
    # loosen or tighten a calibrated gate and is refused before the Monte Carlo pass.
    calls = []
    monkeypatch.setattr(checks, "run_chunks", lambda *a, **k: calls.append(a))
    cfg = _one_check("additive_linear_1d", "feynman_kac_vs_oracle", slack_constant=5.0)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=300).results
    assert not result.passed
    assert result.metrics["error"].startswith(
        "ConfigError: feynman_kac_vs_oracle.slack_constant: "), result.metrics
    assert calls == []
    monkeypatch.undo()
    cfg = _one_check("additive_linear_1d", "feynman_kac_vs_oracle", slack_constant=2.0)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=300).results
    assert "error" not in result.metrics and result.metrics["slack_constant"] == 2.0


@pytest.mark.parametrize(
    "check, key, value",
    [
        ("jensen", "num_sets", 0),  # would pass with no set checked
        ("jensen", "num_sets", 2.9),  # would run 2 sets
        ("jensen", "num_samples", 1),  # one sample makes the inequality an identity
        ("martingale_M", "realizations", 0),  # would abort on an empty concatenation
        ("conservation", "realizations", "100"),
        ("entropy_mc", "query_nodes", 2.7),  # would be cut to 2 nodes
        ("entropy_mc", "query_nodes", 1),  # a grid needs 2 nodes per axis
        ("determinant_consistency", "realizations", -1),
    ],
)
def test_a_count_that_is_not_an_integer_in_range_is_a_config_error(tmp_path, check, key, value):
    cfg = _one_check("additive_linear_1d", check, **{key: value})
    (result,) = run_scenario(cfg, str(tmp_path), seed=5).results
    assert not result.passed
    assert result.metrics["error"].startswith(
        f"ConfigError: {check}.{key}: must be an integer >= "), result.metrics


def test_a_realization_override_below_one_is_a_config_error(tmp_path):
    # The override is checked like a configured budget: each Monte Carlo check
    # aborts at planning, by name, and the checks with budgets of their own still run.
    cfg = load_config(str(bundled_scenario_path("heat_identity")))
    report = run_scenario(cfg, str(tmp_path), realizations=0)
    aborted = {"determinant_consistency", "martingale_M", "conservation", "entropy_mc",
               "feynman_kac_vs_oracle"}
    for result in report.results:
        if result.name in aborted:
            assert result.metrics["error"] == (f"ConfigError: {result.name}.realizations: "
                                               "must be an integer >= 1, got 0")
        else:
            assert result.passed, result.metrics
    assert aborted <= {result.name for result in report.results}


def test_the_smallest_jensen_counts_run(tmp_path):
    cfg = _one_check("additive_linear_1d", "jensen", num_sets=1, num_samples=2)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5).results
    assert result.passed, result.metrics
    assert result.metrics["total_checks"] == len(result.metrics["functions"])


@pytest.mark.parametrize(
    "check, params",
    [
        ("entropy_oracle", {"oracle_dt": 0}),
        ("entropy_oracle", {"oracle_dt": -0.001}),
        ("determinant_consistency", {"dt_levels": [0.002, 0.0]}),
        ("determinant_consistency", {"dt_levels": [-0.002, -0.001]}),
    ],
)
def test_a_step_that_is_not_positive_is_a_config_error(tmp_path, check, params):
    # Refused by name before any division by the step.
    cfg = _one_check("additive_linear_1d", check, **params)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5).results
    assert not result.passed
    assert result.metrics["error"].startswith(f"ConfigError: {check}: "), result.metrics
    assert "must be positive" in result.metrics["error"]


@pytest.mark.parametrize(
    "oracle_dt, message",
    [
        (0, "must be positive"),
        (0.0007, "does not lie on the dt=0.0007 step grid"),
        (1e-320, "is not a finite number of dt=1e-320 steps"),
    ],
)
def test_feynman_kac_oracle_step_is_checked_before_simulating(tmp_path, monkeypatch,
                                                              oracle_dt, message):
    # The output times 0.25 and 0.5 must lie on the oracle's step grid; a step that
    # does not fit aborts the check at planning, before its Monte Carlo pass.
    calls = []
    monkeypatch.setattr(checks, "run_chunks", lambda *a, **k: calls.append(a))
    cfg = _one_check("additive_linear_1d", "feynman_kac_vs_oracle", oracle_dt=oracle_dt)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=300).results
    assert not result.passed
    assert result.metrics["error"].startswith("ConfigError: feynman_kac_vs_oracle: ")
    assert message in result.metrics["error"], result.metrics
    assert calls == []


@pytest.mark.parametrize(
    "check, params, message",
    [
        ("determinant_consistency", {"horizon": float("inf")}, "horizon inf is not a multiple"),
        ("entropy_oracle", {"oracle_dt": 1e-320}, "is not a finite number of dt=1e-320 steps"),
    ],
)
def test_a_step_count_that_is_not_finite_is_a_config_error(tmp_path, monkeypatch, check,
                                                           params, message):
    # t/dt overflows to inf: the check is refused by name, before any pass.
    calls = []
    monkeypatch.setattr(checks, "run_chunks", lambda *a, **k: calls.append(a))
    cfg = _one_check("additive_linear_1d", check, **params)
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=300).results
    assert not result.passed
    assert result.metrics["error"].startswith(f"ConfigError: {check}: "), result.metrics
    assert message in result.metrics["error"], result.metrics
    assert calls == []


@pytest.mark.parametrize(
    "scenario, check, key, bad",
    [
        ("heat_identity", "martingale_M", "times", [0.25, 5.0]),  # past T = 0.5
        ("heat_identity", "conservation", "times", [0.25, 0.25]),
        ("heat_identity", "entropy_mc", "times", [0.5, 0.25]),
        ("heat_identity", "conservation", "times", ["a"]),
        ("heat_identity", "conservation", "times", [True, 0.5]),
        ("heat_identity", "martingale_M", "times", [-0.25, 0.25]),
        ("heat_identity", "entropy_mc", "query_margin", -0.5),
        ("heat_identity", "feynman_kac_vs_oracle", "query_margin", -0.5),
        ("diag_sigma_2d", "entropy_mc", "query_margin", float("inf")),
        ("heat_identity", "determinant_consistency", "horizon", True),
        ("heat_identity", "determinant_consistency", "dt_levels", [0.002, "0.001"]),
        ("heat_identity", "entropy_oracle", "oracle_dt", "abc"),
        ("heat_identity", "feynman_kac_vs_oracle", "oracle_dt", [0.001]),
    ],
)
def test_a_bad_time_list_or_number_is_a_config_error_before_any_pass(
        tmp_path, monkeypatch, scenario, check, key, bad):
    calls = []
    monkeypatch.setattr(checks, "run_chunks", lambda *a, **k: calls.append(a))
    cfg = _one_check(scenario, check, **{key: bad})
    (result,) = run_scenario(cfg, str(tmp_path), seed=5, realizations=300).results
    assert not result.passed
    assert result.metrics["error"].startswith(f"ConfigError: {check}.{key}: "), result.metrics
    assert calls == []


def test_checks_at_the_positive_output_times_need_one(tmp_path):
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw.update(output_times=[0.0], checks=["roundtrip", "feynman_kac_vs_oracle"])
    report = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path), realizations=150)
    for result in report.results:
        assert result.metrics == {
            "error": f"ConfigError: {result.name}: no positive output times"}


def test_failing_check_is_captured_not_raised(tmp_path):
    # non-compact h0 makes the conservation quadrature invalid; the check must
    # record the error and fail while later checks still run
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw["name"] = "heat_bad_support"
    raw["h0"] = "1"
    raw["checks"] = ["conservation", "jensen"]
    cfg = loads_config(yaml.safe_dump(raw))
    report = run_scenario(cfg, str(tmp_path), realizations=150)
    assert not report.all_passed
    conservation, jensen = report.results
    assert conservation.name == "conservation" and not conservation.passed
    assert "error" in conservation.metrics
    assert "h0" in conservation.metrics["error"]
    assert conservation.notes == "check aborted by error"
    assert jensen.name == "jensen" and jensen.passed


def test_convergence_study_fits_first_order(additive_cfg):
    study = convergence_study(additive_cfg, levels=3, realizations=128)
    assert study["scenario"] == "additive_linear_1d"
    assert len(study["dt"]) == 3
    assert study["dt"][0] == pytest.approx(2 * study["dt"][1])
    # the exp-accumulator gap shrinks linearly in dt for this smooth 1D flow
    gaps = study["gap_direct_vs_exp_lambda"]
    assert all(g > 0 for g in gaps)
    assert study["fitted_order"] == pytest.approx(1.0, abs=0.35)
    # the direct and stepwise determinant recurrences coincide in one dimension
    assert all(g < 1e-12 for g in study["gap_direct_vs_sde"])


def test_convergence_study_validates_levels(additive_cfg):
    from stochflow.errors import ConfigError

    with pytest.raises(ConfigError):
        convergence_study(additive_cfg, levels=1)


# The engine tests' cs_full_2d coefficients: sigma has off-diagonal entries, so the
# noise-induced drift and E are nonzero, which no bundled scenario exercises.
OFF_DIAGONAL_SIGMA = """
name: cs_full_2d
dimension: 2
nu: 0.2
sigma:
  - ["1 + 0.3*sin(x1)*cos(x2)", "0.2*cos(x1)"]
  - ["0.1*sin(x2)", "1 + 0.3*cos(x1)*sin(x2)"]
U: ["0.1*x2", "-0.05*x1"]
V: "0.15"
f0: "exp(-(x1*x1 + x2*x2)/0.18)"
rho0: "0.05 + exp(-(x1*x1 + x2*x2)/0.5)"
h0: "exp(-(x1*x1 + x2*x2)/0.18)"
phi_terminal: "1"
H: r2
box:
  lo: [-3.0, -3.0]
  hi: [3.0, 3.0]
labels: [21, 21]
T: 1.0
dt: 0.002
output_times: [0.0, 0.5, 1.0]
realizations: 100
seed: 6
oracle_dx: 0.05
checks:
  - martingale_M
  - conservation
check_params:
  martingale_M:
    phi: trivial
    probe_labels: [[-1.0, -0.5, 1.5], [-1.0, 0.0, 1.0]]
    realizations: 4000
"""


def test_off_diagonal_sigma_keeps_martingale_and_conservation(tmp_path):
    # The probes sit where the divergence of the drift correction is largest; there
    # a transposed index or a flipped sign in the drift moves the martingale mean by
    # many standard errors.  A 21x21 grid keeps h0 clear of conservation's edge
    # guard (13x13 trips it).
    cfg = loads_config(OFF_DIAGONAL_SIGMA)
    report = run_scenario(cfg, str(tmp_path))
    assert [r.name for r in report.results] == ["martingale_M", "conservation"]
    for result in report.results:
        assert result.passed, (result.name, result.metrics)
        assert result.metrics["num_discarded"] == 0
    assert report.results[0].metrics["weighting"] == "exp(0.15*(T-t))"


def test_martingale_M_simulates_only_its_probes(tmp_path, monkeypatch):
    # In 2D the check asks the engine for its m diagonal probes as a point set, and
    # each cell's mean is the one read off the diagonal columns of the 3x3 grid run.
    raw = yaml.safe_load(open(str(bundled_scenario_path("diag_sigma_2d"))))
    raw["oracle_dx"] = 0.2
    raw["checks"] = ["martingale_M"]
    params = raw["check_params"]["martingale_M"]
    params["realizations"] = 120
    cfg = loads_config(yaml.safe_dump(raw))
    requested = []
    real_simulate = checks.simulate_paths

    def recording(cs, labels, *args, **kwargs):
        requested.append(labels)
        return real_simulate(cs, labels, *args, **kwargs)

    monkeypatch.setattr(checks, "simulate_paths", recording)
    (result,) = run_scenario(cfg, str(tmp_path), seed=4).results
    monkeypatch.undo()
    ctx = RunContext(cfg, 4)
    assert result.passed, result.metrics
    assert [labels.shape for labels in requested] == [(3, 2)]

    grid_axes = tuple(np.asarray(ax, dtype=float) for ax in params["probe_labels"])
    store = step_indices(params["times"], cfg.dt)
    grid = real_simulate(ctx.cs, grid_axes, max(store), store, ctx.driver(), range(120), box=cfg.box)
    phi = ctx.weight("adjoint", params["times"])[0]
    diagonal = [0, 4, 8]
    cells = iter(result.metrics["cells"])
    for t in params["times"]:
        values = martingale_values(grid, phi, t)
        for j, col in enumerate(diagonal):
            cell = next(cells)
            assert cell["t"] == t
            assert cell["label"] == [float(ax[j]) for ax in grid_axes]
            assert cell["mean"] == float(values[:, col].mean())


def test_z_table_hand_values():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    se = samples.std(ddof=1) / 2.0
    (row,), series, max_abs_z, passed = checks._z_table([({"t": 0.5}, "s", samples, 2.0)])
    assert row["z"] == pytest.approx((2.5 - 2.0) / se, rel=1e-14)
    assert (row["mean"], row["reference"]) == (2.5, 2.0)
    assert series == {"s": [(0.5, 2.5, row["se"])]}
    assert max_abs_z == abs(row["z"]) and passed

    flat = np.array([3.0, 3.0, 3.0])
    assert checks._z_table([({"t": 0.0}, "s", flat, 3.0)])[0][0]["z"] == 0.0
    table, _, max_abs_z, passed = checks._z_table([({"t": 0.0}, "s", flat, 2.0)])
    assert table[0]["z"] == np.inf and max_abs_z == np.inf and not passed
    with pytest.raises(ValueError, match="at least two samples"):
        checks._z_table([({"t": 0.0}, "s", np.array([1.0]), 0.0)])


@pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
def test_a_non_finite_tracker_gap_fails_the_pair(position):
    # Python's max skips a NaN that is not first: max([1e-20, nan]) is 1e-20, which
    # would read as coincident.  A NaN or an infinite gap at any level fails.
    dts = [0.002, 0.001, 0.0005]
    assert checks._gate_pair(dts, [1e-20] * 3)["passed"]
    for value in (np.nan, np.inf):
        gaps = [1e-20] * 3
        gaps[position] = value
        gate = checks._gate_pair(dts, gaps)
        assert gate["regime"] == "non_finite" and not gate["passed"], gate


def test_an_overflowing_tracker_fails_determinant_consistency(tmp_path):
    # d sigma = 1e200*cos(1e300*x1) turns the trackers NaN while X stays in the box:
    # no realization is discarded, and both tracker pairs fail on the NaN gaps.
    raw = yaml.safe_load(open(str(bundled_scenario_path("additive_linear_1d"))))
    raw.update(sigma=[["1 + 1e-100*sin(1e300*x1)"]], checks=["determinant_consistency"])
    with np.errstate(all="ignore"):
        (result,) = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path),
                                 realizations=20).results
    assert "error" not in result.metrics and not result.passed
    assert result.metrics["num_discarded"] == 0
    assert result.metrics["pair_direct_vs_exp_lambda"]["regime"] == "non_finite"
    direct_vs_sde = result.metrics["pair_direct_vs_sde"]
    assert np.isnan(direct_vs_sde["max_abs_gap"]) and not direct_vs_sde["passed"]


@pytest.mark.parametrize(
    "check, target",
    [("martingale_M", "martingale_values"), ("conservation", "conserved_quantity_batch")],
)
def test_a_nan_sample_fails_the_z_gate(tmp_path, monkeypatch, check, target):
    # heat_identity's martingale samples are exactly 1, so every se is 0 and every z
    # is 0.  One NaN sample makes its cell's z NaN; the maximum keeps the NaN and
    # the gate fails.
    real = getattr(checks, target)
    poisoned = []

    def with_one_nan(*args, **kwargs):
        out = real(*args, **kwargs)
        if not poisoned:
            out = out.copy()
            out.flat[0] = np.nan
            poisoned.append(out)
        return out

    monkeypatch.setattr(checks, target, with_one_nan)
    (result,) = run_scenario(_one_check("heat_identity", check), str(tmp_path),
                             realizations=200).results
    assert poisoned
    assert not result.passed, result.metrics
    assert np.isnan(result.metrics["max_abs_z"])
    assert sum(np.isnan(cell["z"]) for cell in result.metrics["cells"]) == 1


@pytest.mark.parametrize("chunk_size", [4096, 37])
def test_discards_are_counted_per_check(tmp_path, monkeypatch, chunk_size):
    # Every realization whose index is a multiple of 7 comes back not alive.  Each
    # Monte Carlo check counts the killed realizations within its own budget (per dt
    # level for the tracker check) and fails on the discard fraction, the z-gates on
    # it alone; the report counts those of each pass once.  jensen simulates nothing:
    # it passes and gets neither count.
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw["checks"] = ["roundtrip", "determinant_consistency", "martingale_M", "conservation",
                     "entropy_mc", "feynman_kac_vs_oracle", "jensen"]
    real_simulate = checks.simulate_paths

    def killing(*args, **kwargs):
        result = real_simulate(*args, **kwargs)
        result.alive[result.realization_indices % 7 == 0] = False
        return result

    monkeypatch.setattr(checks, "simulate_paths", killing)
    budget = 140
    report = run_scenario(loads_config(yaml.safe_dump(raw)), str(tmp_path),
                          realizations=budget, chunk_size=chunk_size)
    killed = -(-budget // 7)
    levels = len(raw["check_params"]["determinant_consistency"]["dt_levels"])
    expected = {
        "roundtrip": 2,  # realizations 0 and 7 of the first 8
        "determinant_consistency": levels * killed,
        "martingale_M": killed,
        "conservation": killed,
        "entropy_mc": killed,
        "feynman_kac_vs_oracle": killed,
    }
    *monte_carlo, jensen = report.results
    found = {r.name: r.metrics.get("num_discarded", r.metrics) for r in monte_carlo}
    assert found == expected
    # Passes: the label grid that roundtrip, conservation, entropy_mc and
    # feynman_kac_vs_oracle share (140 realizations), one per tracker dt level, and
    # martingale_M's probes.
    assert report.num_discarded == killed + levels * killed + killed
    for result in monte_carlo:
        assert not result.passed, result.name
        assert result.metrics["realizations"] == (8 if result.name == "roundtrip" else budget)
        if result.name in ("martingale_M", "conservation"):
            assert result.metrics["max_abs_z"] <= result.metrics["z_limit"], result.metrics
    assert jensen.passed, jensen.metrics
    assert not {"realizations", "num_discarded"} & set(jensen.metrics)


def test_entropy_oracle_weights_by_the_adjoint_solve_when_v_varies(tmp_path):
    # No bundled scenario has a non-constant V, so none reaches the adjoint branch.
    # On a coarse 1D copy of heat_identity with V = 0.1*exp(-x1^2), every value is
    # the node sum of H(f/rho) * phi * rho * cell_volume over the forward and
    # adjoint arrays, bit for bit: the series is read at its own nodes and times.
    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw.update(V="0.1*exp(-x1*x1)", oracle_dx=0.1, checks=["entropy_oracle"])
    raw["check_params"] = {"entropy_oracle": {"oracle_dt": 0.001}}
    cfg = loads_config(yaml.safe_dump(raw))
    (result,) = run_scenario(cfg, str(tmp_path)).results
    assert result.metrics["weighting"] == "adjoint solve"
    assert result.passed, result.metrics

    axes = RunContext(cfg, cfg.seed).oracle_axes()
    times = [cfg.T * i / 10.0 for i in range(11)]
    initial = [grid_field_from_expr(cfg.f0, axes), grid_field_from_expr(cfg.rho0, axes)]
    f_ser, rho_ser = solve_forward(cfg.coefficients, initial, cfg.T, 0.001,
                                   output_times=times, require_positive=[False, True])
    phi_T = grid_field_from_expr(cfg.phi_terminal, axes, t=cfg.T)
    phi_ser = solve_adjoint(cfg.coefficients, phi_T, cfg.T, 0.001, output_times=times)
    H, vol = get_convex(cfg.H_name), initial[0].cell_volume
    expected = [
        float(np.sum(H(f / rho) * phi * rho) * vol)
        for f, rho, phi in zip(f_ser.values, rho_ser.values, phi_ser.values)
    ]
    assert np.any(phi_ser.values != 1.0)
    assert result.metrics["values"] == expected
