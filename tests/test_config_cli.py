"""Scenario configuration loading, hashing, and the command-line entry point."""

import dataclasses
import json
import os
from importlib import resources

import numpy as np
import pytest
import yaml

from stochflow import coefficients as coefficients_module
from stochflow import config as config_module
from stochflow.cli import main
from stochflow.coefficients import CoefficientSet, assemble
from stochflow.config import (
    bundled_scenario_path,
    bundled_scenarios,
    config_hash,
    load_config,
    loads_config,
)
from stochflow.errors import ConfigError
from stochflow.fields import FieldExpr, parse_field


BUNDLED = [
    "additive_linear_1d",
    "diag_sigma_2d",
    "heat_identity",
    "sine_sigma_1d",
    "sine_sigma_fk_1d",
]


@pytest.fixture(scope="module")
def heat_text():
    return open(str(bundled_scenario_path("heat_identity"))).read()


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------


def test_bundled_scenarios_listing():
    assert bundled_scenarios() == BUNDLED
    path = bundled_scenario_path("heat_identity")
    assert os.path.exists(str(path))
    with pytest.raises(ConfigError):
        bundled_scenario_path("no_such_scenario")


def test_every_bundled_scenario_loads():
    for name in BUNDLED:
        cfg = load_config(str(bundled_scenario_path(name)))
        assert cfg.name == name
        assert cfg.coefficients.n == cfg.n
        axes = cfg.label_axes
        assert len(axes) == cfg.n
        assert all(ax.size == s for ax, s in zip(axes, cfg.label_shape))
        assert len(cfg.hash) == 16
        for check in cfg.checks:
            cfg.params_for(check)  # every configured check has coherent parameters


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda s: s + "\nbogus_key: 3\n", "bogus_key"),
        (lambda s: s.replace("nu: 0.1", "snu: 0.1"), "nu"),
        (lambda s: s.replace("dt: 0.001", "dt: 0.0007"), "dt"),
        (lambda s: s.replace('V: "0"', 'V: "exp(q)"'), "V"),
        (lambda s: s.replace("labels: [97]", "labels: [5]"), "labels[0]"),
        (lambda s: s.replace("  - jensen", "  - jensen\n  - nonsense"), "checks"),
        (
            lambda s: s.replace("    phi: trivial", "    phi: trivial\n    nope: 1"),
            "check_params.martingale_M.nope",
        ),
        (
            lambda s: s.replace(
                "output_times: [0.0, 0.25, 0.5]", "output_times: [0.0, 0.6, 0.25]"
            ),
            "output_times",
        ),
        (lambda s: s.replace("realizations: 2000", "realizations: 50"), "realizations"),
        (
            lambda s: s + "  roundtrip:\n    tolerance: 0.001\n",
            "check_params.roundtrip.tolerance: unknown parameter",
        ),
        (
            lambda s: s + "  roundtrip:\n    times: [0.25]\n",
            "check_params.roundtrip.times: unknown parameter",
        ),
        (
            lambda s: s.replace("    oracle_dt: 0.0002", "    oracle_dt: 0.0002\n    times: [0.0, 0.5]"),
            "check_params.entropy_oracle.times: unknown parameter",
        ),
        (
            lambda s: s.replace("    oracle_dt: 0.0002", "    oracle_dt: 0.0002\n    slack_constant: 5.0"),
            "check_params.entropy_oracle.slack_constant: unknown parameter",
        ),
    ],
    ids=[
        "unknown-key",
        "missing-nu",
        "dt-not-dividing-horizon",
        "bad-expression",
        "too-few-labels",
        "unknown-check",
        "unknown-check-param",
        "unsorted-output-times",
        "too-few-realizations",
        "roundtrip-tolerance",
        "roundtrip-times",
        "entropy-oracle-times",
        "entropy-oracle-slack-constant",
    ],
)
def test_config_error_paths(heat_text, mutate, needle):
    with pytest.raises(ConfigError, match=needle.replace("[", r"\[").replace(".", r"\.")):
        loads_config(mutate(heat_text))


def _bundled_text(name):
    return open(str(bundled_scenario_path(name))).read()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("name", BUNDLED)
def test_libyaml_and_python_safe_loaders_agree(name):
    text = _bundled_text(name)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)


@pytest.mark.parametrize("name", BUNDLED)
def test_loaded_hash_equals_the_golden_config_hash(name):
    golden = resources.files("stochflow").joinpath("scenarios", "golden", f"{name}.json")
    assert loads_config(_bundled_text(name)).hash == json.loads(golden.read_text())["config_hash"]


_NON_FINITE = [
    ("T: 0.5", "T: .inf", "T: must be finite"),
    ("dt: 0.001", "dt: 1.0e-320", "dt: T/dt is not a finite number of steps"),
    ("nu: 0.1", "nu: .inf", "nu: must be finite"),
    ("nu: 0.1", "nu: .nan", "nu: must be finite"),
    ("oracle_dx: 0.02", "oracle_dx: .inf", "oracle_dx: must be finite"),
    ("  lo: [-6.0]", "  lo: [-.inf]", "box.lo[0]: must be finite"),
]


@pytest.mark.parametrize(
    "old, new, message",
    _NON_FINITE,
    ids=["T-inf", "dt-subnormal", "nu-inf", "nu-nan", "oracle_dx-inf", "box-lo-inf"],
)
def test_a_non_finite_number_is_a_config_error(heat_text, tmp_path, capsys, old, new, message):
    text = heat_text.replace(old, new)
    assert text != heat_text
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    assert str(info.value) == message
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_three_dimensional_scenario_is_a_config_error(heat_text, tmp_path, capsys):
    # The solver and its finite-difference oracle work on R^1 and R^2 only.
    raw = yaml.safe_load(heat_text)
    raw.update(dimension=3, sigma=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               U=["0", "0", "0"], box={"lo": [-6.0] * 3, "hi": [6.0] * 3}, labels=[9, 9, 9],
               checks=["jensen"], check_params={})
    text = yaml.safe_dump(raw)
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    assert str(info.value) == "dimension: must be 1 or 2"
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "config error: dimension: must be 1 or 2\n"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.replace("labels: [97]", "labels: [97"),
        lambda s: s.replace("  lo: [-6.0]", "\tlo: [-6.0]"),
    ],
    ids=["unclosed-bracket", "tab-indentation"],
)
def test_malformed_yaml_is_a_config_error(heat_text, mutate):
    text = mutate(heat_text)
    assert text != heat_text
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    assert str(info.value).startswith("config is not valid YAML")


@pytest.mark.parametrize("name, parses", [("diag_sigma_2d", 11), ("heat_identity", 7)])
def test_each_expression_is_parsed_once_per_load(name, parses, monkeypatch):
    # sigma, U and V once each, then f0, rho0, h0 and phi_terminal.
    calls = []

    def counting(source, dimension):
        calls.append(source)
        return parse_field(source, dimension)

    monkeypatch.setattr(config_module, "parse_field", counting)
    monkeypatch.setattr(coefficients_module, "parse_field", counting)
    loads_config(_bundled_text(name))
    assert len(calls) == parses


def test_a_sigma_entry_that_does_not_parse_is_named():
    row = '["1 + 0.3*sin(x1)*cos(x2)", "0"]'
    text = _bundled_text("diag_sigma_2d").replace(row, row.replace('"0"', '"0 +"'))
    with pytest.raises(ConfigError, match=r"^sigma\[0\]\[1\]: expression does not parse"):
        loads_config(text)


def _roots(value):
    if isinstance(value, FieldExpr):
        return [value.root]
    return [root for item in value for root in _roots(item)]


@pytest.mark.parametrize("name", ["diag_sigma_2d", "sine_sigma_fk_1d"])
def test_loaded_coefficients_share_the_roots_assembled_from_text(name):
    raw = yaml.safe_load(_bundled_text(name))
    cfg = loads_config(_bundled_text(name))
    ref = assemble(raw["sigma"], raw["U"], raw["V"], nu=raw["nu"], n=cfg.n, box=cfg.box)
    for field in dataclasses.fields(CoefficientSet):
        if field.name in ("n", "nu", "box"):
            continue
        got, want = _roots(getattr(cfg.coefficients, field.name)), _roots(getattr(ref, field.name))
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), field.name


def test_a_realization_that_does_not_fit_the_chunk_budget_is_refused(heat_text, monkeypatch):
    # Decided at load from the labels, the dimension and the output times alone,
    # without compiling the step program.  heat_identity has 3 output times, so one
    # realization of L labels takes 8 B x (L x (5 state values + 5 snapshot values
    # x 3 times) + one 128-step row of increments) + its generator's bytes.
    from stochflow import engine

    def no_compile(*args, **kwargs):
        raise AssertionError("the step program was compiled at load")

    monkeypatch.setattr(engine, "_compile_step", no_compile)
    fixed = 8 * engine.INCREMENT_BLOCK_STEPS + engine.STREAM_BYTES
    largest = (engine.CHUNK_BYTES - fixed) // (8 * (5 + 5 * 3))
    cfg = loads_config(heat_text.replace("labels: [97]", f"labels: [{largest}]"))
    assert cfg.label_shape == (largest,)
    with pytest.raises(ConfigError, match="labels: one realization needs .* MiB"):
        loads_config(heat_text.replace("labels: [97]", f"labels: [{largest + 1}]"))


def test_config_accepts_numbers_for_constant_expressions(heat_text):
    cfg = loads_config(heat_text.replace('V: "0"', "V: 0.3"))
    assert cfg.coefficients.V.is_constant
    assert cfg.coefficients.V.constant_value == 0.3


def test_config_hash_stability_and_sensitivity(heat_text):
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert config_hash({"a": 1, "b": [1, 2, 3]}) != h1
    # loading the same file twice gives the same hash; any content change shifts it
    base = loads_config(heat_text)
    again = loads_config(heat_text)
    assert base.hash == again.hash
    moved = loads_config(heat_text.replace("nu: 0.1", "nu: 0.11"))
    assert moved.hash != base.hash


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == BUNDLED


def test_cli_run_writes_report_and_csvs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "additive_linear_1d", "--out", str(out),
                 "--realizations", "200", "--threads", "2"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "report:" in stdout and "[PASS]" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["scenario"] == "additive_linear_1d"
    assert report["realizations"] == 200
    assert report["threads"] == 2
    names = [c["name"] for c in report["checks"]]
    assert names == ["roundtrip", "determinant_consistency", "entropy_oracle", "jensen"]
    # every check wrote its series CSV with the fixed header
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == [
        "determinant_consistency.exp_lambda.csv",
        "determinant_consistency.sde.csv",
        "entropy_oracle.csv",
        "roundtrip.csv",
    ]
    for p in out.glob("*.csv"):
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "t,value,se"
        assert all(len(row.split(",")) == 3 for row in lines[1:])
        # values roundtrip as floats
        for row in lines[1:]:
            t, v, se = row.split(",")
            float(t), float(v), float(se)


def test_cli_run_is_deterministic_across_threads(tmp_path):
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        assert main(["run", "additive_linear_1d", "--out", str(out),
                     "--realizations", "150", "--threads", str(threads)]) == 0
        outs.append(out)
    for name in ("roundtrip.csv", "determinant_consistency.sde.csv",
                 "determinant_consistency.exp_lambda.csv", "entropy_oracle.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between thread counts"
    # reports agree except for timing and the thread count itself
    ra = json.loads((outs[0] / "report.json").read_text())
    rb = json.loads((outs[1] / "report.json").read_text())
    for rep in (ra, rb):
        rep.pop("elapsed_seconds")
        rep.pop("threads")
        for chk in rep["checks"]:
            chk.pop("elapsed_seconds")
    assert ra == rb


def test_cli_run_exit_codes(tmp_path, capsys):
    # nonexistent config path -> usage/config error
    assert main(["run", "missing_scenario", "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nowhere.yaml"), "--out", str(tmp_path / "y")]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["run"])  # missing required --out
    capsys.readouterr()
    assert main(["run", "additive_linear_1d", "--out", str(tmp_path / "z"),
                 "--realizations", "0"]) == 2


def test_cli_run_failing_check_returns_one(tmp_path, capsys):
    # inject a physics mismatch: a nonzero potential makes the constant test
    # function inadmissible, so the martingale check must flag it
    import yaml

    raw = yaml.safe_load(open(str(bundled_scenario_path("heat_identity"))))
    raw["name"] = "heat_potential_mismatch"
    raw["V"] = "0.5"
    raw["checks"] = ["roundtrip", "martingale_M"]
    cfg_path = tmp_path / "mismatch.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "run"),
                 "--realizations", "150"])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] martingale_M" in stdout
    assert "[PASS] roundtrip" in stdout  # inversion is unaffected by the potential
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["all_passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["martingale_M"]


def test_cli_threads_env_precedence(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STOCHFLOW_THREADS", "3")
    out = tmp_path / "env"
    assert main(["run", "additive_linear_1d", "--out", str(out),
                 "--realizations", "150"]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["threads"] == 3
    # explicit flag wins over the environment
    out2 = tmp_path / "flag"
    assert main(["run", "additive_linear_1d", "--out", str(out2),
                 "--realizations", "150", "--threads", "1"]) == 0
    capsys.readouterr()
    assert json.loads((out2 / "report.json").read_text())["threads"] == 1
    monkeypatch.setenv("STOCHFLOW_THREADS", "zero")
    assert main(["run", "additive_linear_1d", "--out", str(tmp_path / "bad")]) == 2
    capsys.readouterr()


def test_cli_converge_runs_and_writes_study(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(["converge", "additive_linear_1d", "--levels", "3",
                 "--realizations", "150", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "fitted order" in stdout
    study = json.loads((out / "study.json").read_text())
    assert len(study["dt"]) == 3
    # dt halves at every level
    assert study["dt"][1] == pytest.approx(study["dt"][0] / 2)
    assert study["dt"][2] == pytest.approx(study["dt"][0] / 4)
    assert (out / "convergence.csv").read_text().startswith("t,value,se\n")
    assert main(["converge", "additive_linear_1d", "--levels", "1"]) == 2
    capsys.readouterr()


def test_cli_converge_refuses_a_budget_below_one(capsys):
    assert main(["converge", "additive_linear_1d", "--levels", "2", "--realizations", "0"]) == 2
    assert capsys.readouterr().err == (
        "config error: determinant_consistency.realizations: must be an integer >= 1, got 0\n")


def test_cli_converge_study_is_strict_json(tmp_path, capsys):
    # heat_identity's tracker gaps coincide to roundoff, so no order is fitted; the
    # NaN must not reach study.json as a bare NaN token, which strict JSON rejects.
    out = tmp_path / "study"
    code = main(["converge", "heat_identity", "--levels", "2",
                 "--realizations", "16", "--out", str(out)])
    capsys.readouterr()
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    study = json.loads((out / "study.json").read_text(), parse_constant=reject)
    assert study["fitted_order"] == "nan"
