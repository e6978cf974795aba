#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny realization budget.

    python3 stochbench/selftest.py

Runs the heat_full workload, which runs all eight checks, untraced and traced
with the smallest repeat counts.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that the end-to-end values are
positive, that traced self times are non-negative and sum to the traced wall
time, and that every package attribute is the original object again
afterwards.  The statistical verdicts are not checked: at this budget they mean
nothing.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

PACKAGE_MODULES = ("brownian", "checks", "coefficients", "config", "engine",
                   "estimators", "fields", "inverse", "oracle")

WORKLOAD = "heat_full"

SETUP_SELF_TIMES = {
    "config.loads_config.self_s",
    "fields.parse.self_s",
    "fields.differentiate.self_s",
    "coefficients.assemble.self_s",
}


def package_attributes(pkg) -> dict:
    """Identity of every attribute of every stochflow module and its classes."""
    out = {}
    for module_name in PACKAGE_MODULES:
        module = getattr(pkg, module_name)
        for name, value in vars(module).items():
            out[(module_name, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module_name, f"{name}.{attr}")] = id(member)
    return out


def expect_metrics(result: dict, declared: list, problems: list, mode: str) -> None:
    emitted = result["metrics"]
    for entry in declared:
        got = emitted.get(entry["name"])
        if got is None:
            problems.append(f"{mode}: metric {entry['name']} not emitted")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{mode}: {entry['name']} unit {got['unit']} != {entry['unit']}")
    extra = set(emitted) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"{mode}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{mode}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{mode}: attempted {result['attempted']}")


def main() -> int:
    run.pin_threads()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as empty:
        try:
            run.load_package(Path(empty))
        except FileNotFoundError:
            pass
        else:
            print("selftest: a checkout without src/ was accepted", file=sys.stderr)
            return 1
    pkg = run.load_package(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    before = package_attributes(pkg)
    problems: list = []

    untraced = run.run_workload(pkg, WORKLOAD, None, 0.0, trace=False, tiny=True)
    for key in ("notes", "failure_reasons"):
        untraced.pop(key)
    expect_metrics(untraced, spec["end_to_end"], problems, "trace 0")
    for name, metric in untraced["metrics"].items():
        if not metric["value"] > 0:
            problems.append(f"trace 0: {name} = {metric['value']} is not positive")

    traced = run.run_workload(pkg, WORKLOAD, None, 0.0, trace=True, tiny=True)
    for key in ("notes", "failure_reasons"):
        traced.pop(key)
    expect_metrics(traced, spec["per_layer"], problems, "trace 1")

    # seconds=0 gives exactly one traced repeat, so the medians are that repeat's
    # values and the run's self times must add up to its wall time.
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    self_times = {
        name: v for name, v in values.items()
        if (name.endswith("self_s") or name == "oracle.factorize_s")
        and name not in SETUP_SELF_TIMES
    }
    for name, v in self_times.items():
        if v < 0:
            problems.append(f"trace 1: {name} = {v} is negative")
    wall = values["traced_wall_s"]
    total = sum(self_times.values())
    if total > wall * (1 + 1e-9) or total < wall * (1 - 1e-6):
        problems.append(f"trace 1: self times sum to {total} s, traced wall is {wall} s")

    after = package_attributes(pkg)
    changed = sorted(f"{m}.{a}" for (m, a), ident in before.items() if after.get((m, a)) != ident)
    if changed:
        problems.append(f"package attributes left replaced after the runs: {changed}")

    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "ok") +
          f" ({WORKLOAD}, {len(untraced['metrics'])} end-to-end and "
          f"{len(traced['metrics'])} per-layer metrics)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
