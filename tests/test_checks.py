"""Scenario check runner: reports, goldens, error capture, convergence study."""

import json

import numpy as np
import pytest
import yaml

from stochflow import checks
from stochflow.checks import (
    RunContext,
    _det_label_axes,
    _jsonable,
    _tracker_levels,
    convergence_study,
    golden_payload,
    report_payload,
    run_scenario,
)
from stochflow.config import bundled_scenario_path, load_config, loads_config
from stochflow.engine import step_indices
from stochflow.estimators import martingale_values


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


# diag_sigma_2d is left out: a run takes about a minute at the golden budget.
@pytest.mark.parametrize(
    "name", ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d"]
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
    assert golden_payload(report) == stored


def test_tracker_gaps_do_not_depend_on_chunk_size(additive_cfg):
    # 100 realizations in one chunk of 4096 or in chunks of 37, 37 and 26: the
    # gaps are reduced once over all chunks, so every float agrees bit for bit.
    labels = _det_label_axes(additive_cfg)
    gaps = [
        _tracker_levels(RunContext(additive_cfg, 5, chunk_size=size), labels, 0.5, [0.002], 100)[0]
        for size in (4096, 37)
    ]
    assert gaps[0]["samples"] == 100 * labels[0].size
    assert gaps[0] == gaps[1]


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
    "name", ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d"]
)
def test_scenario_output_does_not_depend_on_chunk_size(tmp_path, name):
    # The golden budget in one chunk or in chunks of 37: the checks that share a
    # pass read chunk-cut realization prefixes, and the golden payload and every
    # CSV keep their bytes.
    cfg = load_config(str(bundled_scenario_path(name)))
    outputs = []
    for size in (4096, 37):
        out = tmp_path / str(size)
        report = run_scenario(cfg, str(out), realizations=200, chunk_size=size)
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        outputs.append((json.dumps(golden_payload(report), sort_keys=True), csvs))
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


def test_conservation_memory_is_bounded_by_one_chunk(tmp_path):
    # 800 realizations in chunks of 40: each chunk is reduced to per-realization
    # quadratures and dropped, so the tracemalloc peak stays near that of
    # simulating one chunk; keeping every chunk's snapshots needs 20 times that.
    import tracemalloc

    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw.update(T=0.1, output_times=[0.0, 0.05, 0.1], checks=["conservation"])
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
