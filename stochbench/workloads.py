"""Benchmark workloads: frozen scenario files plus the seed the benchmark is given.

Each workload is one YAML file under ``scenarios/``, derived from a bundled
scenario with budgets cut so that one run takes a few seconds.  The benchmark's
``--seed`` is written into the file's ``seed`` key; without it the file's own
seed (the bundled scenario's) is used.  The package only ever sees the
resulting YAML text.
"""

from __future__ import annotations

from pathlib import Path

import yaml

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

# Budgets for the harness self-test: enough realizations for the config to load,
# too few for the statistical verdicts to mean anything.
TINY_REALIZATIONS = 100
TINY_CHECK_REALIZATIONS = 8


def names() -> list[str]:
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))


def _raw(name: str) -> dict:
    path = SCENARIO_DIR / f"{name}.yaml"
    if not path.is_file():
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(names())}")
    return yaml.safe_load(path.read_text(encoding="utf-8"))


def default_seed(name: str) -> int:
    return int(_raw(name)["seed"])


def scenario_text(name: str, seed: int | None = None, tiny: bool = False) -> str:
    """YAML text of workload ``name`` with ``seed`` written in."""
    raw = _raw(name)
    if seed is not None:
        raw["seed"] = int(seed)
    if tiny:
        raw["realizations"] = TINY_REALIZATIONS
        for params in raw.get("check_params", {}).values():
            if "realizations" in params:
                params["realizations"] = TINY_CHECK_REALIZATIONS
    return yaml.safe_dump(raw, sort_keys=False)
