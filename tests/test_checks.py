"""Scenario check runner: reports, goldens, error capture, convergence study."""

import json

import pytest
import yaml

from stochflow.checks import (
    _RUNNERS,
    RunContext,
    _det_label_axes,
    _jsonable,
    _tracker_gaps,
    convergence_study,
    golden_payload,
    report_payload,
    run_scenario,
)
from stochflow.config import bundled_scenario_path, load_config, loads_config


@pytest.fixture(scope="module")
def additive_cfg():
    return load_config(str(bundled_scenario_path("additive_linear_1d")))


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
        _tracker_gaps(RunContext(additive_cfg, 5, chunk_size=size), labels, 0.5, 0.002, 100)
        for size in (4096, 37)
    ]
    assert gaps[0]["samples"] == 100 * labels[0].size
    assert gaps[0] == gaps[1]


@pytest.mark.parametrize(
    "name", ["additive_linear_1d", "heat_identity", "sine_sigma_fk_1d", "sine_sigma_1d"]
)
def test_every_check_result_does_not_depend_on_chunk_size(name):
    # 100 realizations in one chunk or in chunks of 37, 37 and 26: every metric and
    # every series point agrees bit for bit.  The last two scenarios have variable
    # sigma and growth V, so their charts and log-weights differ per realization.
    cfg = load_config(str(bundled_scenario_path(name)))
    for check in cfg.checks:
        runs = []
        for size in (4096, 37):
            ctx = RunContext(cfg, cfg.seed, realizations_override=100, chunk_size=size)
            result = _RUNNERS[check](ctx, cfg.params_for(check))
            runs.append((_jsonable(result.metrics), result.series))
        assert runs[0] == runs[1], check


def test_jensen_draws_follow_the_run_seed(additive_cfg):
    def margin(seed):
        ctx = RunContext(additive_cfg, seed)
        return _RUNNERS["jensen"](ctx, {"num_sets": 50}).metrics["worst_margin"]

    assert margin(1) == margin(1)
    assert margin(1) != margin(2)


def test_dt_levels_must_divide_the_horizon(additive_cfg):
    from stochflow.errors import ConfigError

    ctx = RunContext(additive_cfg, 5)
    with pytest.raises(ConfigError, match="not a multiple"):
        _RUNNERS["determinant_consistency"](ctx, {"dt_levels": [0.002, 0.001], "horizon": 0.003})
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
