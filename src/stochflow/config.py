"""Scenario configuration: schema-validated YAML with a stable content hash.

A scenario file fully describes one verification run: the coefficient fields, the
initial/terminal data, the label grid and box, time stepping, realization budget, the
reference-solver resolution, and the list of enabled checks with optional per-check
parameters.  Unknown keys anywhere are hard errors (reported with their dotted path),
so typos cannot silently disable parts of a run.

A loaded :class:`ScenarioConfig` keeps the parsed objects only (the assembled
coefficient set and the f0 / rho0 / h0 / phi_terminal fields), not the expression
texts or the YAML mapping; ``hash`` identifies the mapping it came from.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import yaml

from .coefficients import CoefficientSet, assemble
from .convex import CONVEX_FUNCTIONS
from .engine import CHUNK_BYTES, chunk_capacity, realization_bytes
from .errors import ConfigError
from .fields import FieldExpr, parse_field
from .grids import Box, grid_axes

__all__ = [
    "ScenarioConfig",
    "load_config",
    "loads_config",
    "config_hash",
    "bundled_scenarios",
    "bundled_scenario_path",
    "CHECK_NAMES",
    "STATISTICAL_CHECKS",
]

CHECK_NAMES = (
    "roundtrip",
    "determinant_consistency",
    "martingale_M",
    "conservation",
    "entropy_mc",
    "entropy_oracle",
    "jensen",
    "feynman_kac_vs_oracle",
)

# Checks whose verdicts rest on sample statistics (they need a realization budget).
STATISTICAL_CHECKS = frozenset(
    {"martingale_M", "conservation", "entropy_mc", "feynman_kac_vs_oracle"}
)

_CHECK_PARAM_KEYS: dict[str, frozenset] = {
    "roundtrip": frozenset(),
    "determinant_consistency": frozenset({"dt_levels", "realizations", "horizon"}),
    "martingale_M": frozenset({"phi", "probe_labels", "times", "realizations"}),
    "conservation": frozenset({"times", "realizations", "h0_alt"}),
    "entropy_mc": frozenset({"times", "realizations", "query_nodes", "query_margin"}),
    "entropy_oracle": frozenset({"oracle_dt"}),
    "jensen": frozenset({"num_sets", "num_samples"}),
    "feynman_kac_vs_oracle": frozenset({"slack_constant", "oracle_dt", "query_margin"}),
}

_TOP_KEYS = frozenset(
    {
        "name",
        "dimension",
        "nu",
        "sigma",
        "U",
        "V",
        "f0",
        "rho0",
        "h0",
        "phi_terminal",
        "H",
        "box",
        "labels",
        "T",
        "dt",
        "output_times",
        "realizations",
        "seed",
        "oracle_dx",
        "checks",
        "check_params",
    }
)

_REQUIRED = _TOP_KEYS - {"name", "phi_terminal", "H", "check_params"}


# PyYAML's safe loader on libyaml's scanner when PyYAML was built with it: the same
# constructor and resolver as ``yaml.safe_load``, so the same mapping.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _err(path: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise _err(path, msg)


def _as_float(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    _expect(abs(value) <= sys.float_info.max, path, "must be finite")  # refuses nan too
    return float(value)


def _as_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return int(value)


def _as_expr_str(value, path: str) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    _expect(isinstance(value, str), path, "expected an expression string (or number)")
    return value


def _parse_expr(text: str, n: int, path: str) -> FieldExpr:
    try:
        return parse_field(text, n)
    except Exception as exc:
        raise _err(path, f"expression does not parse: {exc}") from None


@dataclass(eq=False)
class ScenarioConfig:
    """Validated scenario: parsed fields and run settings, plus the YAML's content hash."""

    name: str
    hash: str
    n: int
    nu: float
    coefficients: CoefficientSet
    f0: FieldExpr
    rho0: FieldExpr
    h0: FieldExpr
    phi_terminal: FieldExpr
    H_name: str
    box: Box
    label_shape: tuple
    T: float
    dt: float
    output_times: tuple
    realizations: int
    seed: int
    oracle_dx: float
    checks: tuple
    check_params: dict

    @property
    def label_axes(self) -> tuple:
        return grid_axes(self.box, self.label_shape)

    def params_for(self, check: str) -> dict:
        return dict(self.check_params.get(check, {}))


def config_hash(raw: dict) -> str:
    """Stable 64-bit hash (16 hex digits) of the canonicalized config mapping."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _validate_check_params(raw_params, checks, path: str) -> dict:
    _expect(isinstance(raw_params, dict), path, "expected a mapping of check name to parameters")
    out: dict = {}
    for cname, params in raw_params.items():
        cpath = f"{path}.{cname}"
        _expect(cname in CHECK_NAMES, cpath, f"unknown check; known: {', '.join(CHECK_NAMES)}")
        _expect(isinstance(params, dict), cpath, "expected a mapping of parameters")
        allowed = _CHECK_PARAM_KEYS[cname]
        for key in params:
            _expect(key in allowed, f"{cpath}.{key}", f"unknown parameter; allowed: {', '.join(sorted(allowed)) or 'none'}")
        out[cname] = dict(params)
    return out


def loads_config(text: str, name: str = "<config>") -> ScenarioConfig:
    """Parse and validate a scenario config from YAML text."""
    try:
        raw = yaml.load(text, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    _expect(isinstance(raw, dict), "<top>", "config must be a mapping")

    for key in raw:
        _expect(key in _TOP_KEYS, str(key), "unknown key")
    for key in sorted(_REQUIRED):
        _expect(key in raw, key, "required key is missing")

    n = _as_int(raw["dimension"], "dimension")
    _expect(n in (1, 2), "dimension", "must be 1 or 2")
    nu = _as_float(raw["nu"], "nu")
    _expect(nu > 0, "nu", "must be positive")

    sigma_raw = raw["sigma"]
    _expect(isinstance(sigma_raw, list) and len(sigma_raw) == n, "sigma", f"expected {n} rows")
    sigma: list[list[str]] = []
    for i, row in enumerate(sigma_raw):
        _expect(isinstance(row, list) and len(row) == n, f"sigma[{i}]", f"expected {n} entries")
        sigma.append([_as_expr_str(v, f"sigma[{i}][{j}]") for j, v in enumerate(row)])

    u_raw = raw["U"]
    _expect(isinstance(u_raw, list) and len(u_raw) == n, "U", f"expected {n} entries")
    u_texts = [_as_expr_str(v, f"U[{k}]") for k, v in enumerate(u_raw)]
    v_text = _as_expr_str(raw["V"], "V")

    f0_text = _as_expr_str(raw["f0"], "f0")
    rho0_text = _as_expr_str(raw["rho0"], "rho0")
    h0_text = _as_expr_str(raw["h0"], "h0")
    phi_text = _as_expr_str(raw.get("phi_terminal", "1"), "phi_terminal")

    h_name = raw.get("H", "r2")
    _expect(isinstance(h_name, str), "H", "expected a convex-function name")
    _expect(h_name in CONVEX_FUNCTIONS, "H", f"unknown convex function; available: {sorted(CONVEX_FUNCTIONS)}")

    box_raw = raw["box"]
    _expect(isinstance(box_raw, dict), "box", "expected a mapping with lo and hi")
    for key in box_raw:
        _expect(key in ("lo", "hi"), f"box.{key}", "unknown key")
    for key in ("lo", "hi"):
        _expect(key in box_raw, f"box.{key}", "required key is missing")
        _expect(isinstance(box_raw[key], list) and len(box_raw[key]) == n, f"box.{key}", f"expected {n} numbers")
    lo = tuple(_as_float(v, f"box.lo[{k}]") for k, v in enumerate(box_raw["lo"]))
    hi = tuple(_as_float(v, f"box.hi[{k}]") for k, v in enumerate(box_raw["hi"]))
    for k in range(n):
        _expect(hi[k] > lo[k], f"box.hi[{k}]", "must exceed box.lo")
    box = Box(lo, hi)

    labels_raw = raw["labels"]
    _expect(isinstance(labels_raw, list) and len(labels_raw) == n, "labels", f"expected {n} node counts")
    label_shape = tuple(_as_int(v, f"labels[{k}]") for k, v in enumerate(labels_raw))
    for k, size in enumerate(label_shape):
        _expect(size >= 9, f"labels[{k}]", "need at least 9 label nodes per axis")

    t_final = _as_float(raw["T"], "T")
    _expect(t_final > 0, "T", "must be positive")
    dt = _as_float(raw["dt"], "dt")
    _expect(dt > 0, "dt", "must be positive")
    steps = t_final / dt
    _expect(math.isfinite(steps), "dt", "T/dt is not a finite number of steps")
    _expect(abs(round(steps) - steps) <= 1e-9 * max(1.0, steps), "dt", "T must be an integer multiple of dt")

    times_raw = raw["output_times"]
    _expect(isinstance(times_raw, list) and len(times_raw) >= 1, "output_times", "expected a nonempty list")
    output_times = tuple(_as_float(v, f"output_times[{k}]") for k, v in enumerate(times_raw))
    for k, t in enumerate(output_times):
        _expect(0.0 <= t <= t_final + 1e-12, f"output_times[{k}]", "must lie in [0, T]")
        i = round(t / dt)
        _expect(abs(i * dt - t) <= 1e-9 * max(1.0, t), f"output_times[{k}]", "must lie on the dt step grid")
    _expect(
        all(b > a for a, b in zip(output_times, output_times[1:])),
        "output_times",
        "must be strictly increasing",
    )
    # One realization of the label grid, with every snapshot field at every output
    # time, must fit a chunk; the step program's buffers only add to it.
    one = realization_bytes(math.prod(label_shape), n, len(output_times))
    if chunk_capacity(one) < 1:
        raise _err("labels", f"one realization needs {one / 2**20:.1f} MiB of state and "
                   f"snapshots, more than the {CHUNK_BYTES / 2**20:.0f} MiB working-set "
                   "budget of a chunk")

    realizations = _as_int(raw["realizations"], "realizations")
    _expect(realizations >= 1, "realizations", "must be positive")
    seed = _as_int(raw["seed"], "seed")
    oracle_dx = _as_float(raw["oracle_dx"], "oracle_dx")
    _expect(oracle_dx > 0, "oracle_dx", "must be positive")

    checks_raw = raw["checks"]
    _expect(isinstance(checks_raw, list) and len(checks_raw) >= 1, "checks", "expected a nonempty list")
    checks: list[str] = []
    for k, cname in enumerate(checks_raw):
        _expect(isinstance(cname, str) and cname in CHECK_NAMES, f"checks[{k}]",
                f"unknown check {cname!r}; known: {', '.join(CHECK_NAMES)}")
        _expect(cname not in checks, f"checks[{k}]", "duplicate check")
        checks.append(cname)

    if any(c in STATISTICAL_CHECKS for c in checks):
        _expect(realizations >= 100, "realizations",
                "at least 100 realizations are required when a statistical check is enabled")

    check_params = _validate_check_params(raw.get("check_params", {}), checks, "check_params")

    # Parse each coefficient expression on its own so errors carry the exact dotted
    # path of the offending entry; assemble takes the parsed fields as they are.
    sigma_fields = [
        [_parse_expr(text, n, f"sigma[{i}][{j}]") for j, text in enumerate(row)]
        for i, row in enumerate(sigma)
    ]
    u_fields = [_parse_expr(text, n, f"U[{k}]") for k, text in enumerate(u_texts)]
    v_field = _parse_expr(v_text, n, "V")
    try:
        coefficients = assemble(sigma_fields, u_fields, v_field, nu=nu, n=n, box=box)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"coefficients do not assemble: {exc}") from None

    return ScenarioConfig(
        name=str(raw.get("name", name)),
        hash=config_hash(raw),
        n=n,
        nu=nu,
        coefficients=coefficients,
        f0=_parse_expr(f0_text, n, "f0"),
        rho0=_parse_expr(rho0_text, n, "rho0"),
        h0=_parse_expr(h0_text, n, "h0"),
        phi_terminal=_parse_expr(phi_text, n, "phi_terminal"),
        H_name=h_name,
        box=box,
        label_shape=label_shape,
        T=t_final,
        dt=dt,
        output_times=output_times,
        realizations=realizations,
        seed=seed,
        oracle_dx=oracle_dx,
        checks=tuple(checks),
        check_params=check_params,
    )


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    import os

    stem = os.path.splitext(os.path.basename(path))[0]
    return loads_config(text, name=stem)


def bundled_scenarios() -> list[str]:
    """Names of the scenario configs shipped with the package."""
    root = resources.files("stochflow").joinpath("scenarios")
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".yaml"):
            names.append(entry.name[: -len(".yaml")])
    return sorted(names)


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario config."""
    candidate = resources.files("stochflow").joinpath("scenarios", f"{name}.yaml")
    if not candidate.is_file():
        raise ConfigError(
            f"unknown scenario {name!r}; bundled: {', '.join(bundled_scenarios())}"
        )
    return candidate
