"""Command-line interface.

Subcommands:
  run            execute a scenario's configured checks; write CSVs + report.json
  converge       step-size refinement study of the determinant-tracker gap
  list-scenarios print the names of the bundled scenario configs

Exit status: 0 when everything passed, 1 when at least one check failed, 2 for
configuration / I-O problems.  Worker threads come from --threads, else the
STOCHFLOW_THREADS environment variable, else 1; thread count never changes results.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .checks import _write_series_csv, convergence_study, golden_payload, run_scenario, write_json
from .config import bundled_scenario_path, bundled_scenarios, load_config
from .errors import ConfigError, StochflowError

THREADS_ENV = "STOCHFLOW_THREADS"

__all__ = ["main", "THREADS_ENV"]


def _resolve_config(arg: str):
    if os.path.exists(arg):
        return load_config(arg)
    if arg.endswith(".yaml") or os.sep in arg:
        raise ConfigError(f"config file not found: {arg}")
    return load_config(str(bundled_scenario_path(arg)))


def _threads(value: int | None) -> int:
    if value is not None:
        if value < 1:
            raise ConfigError("--threads must be >= 1")
        return int(value)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if parsed < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1, got {parsed}")
        return parsed
    return 1


def _golden_path(name: str) -> str:
    return str(resources.files("stochflow").joinpath("scenarios", "golden", f"{name}.json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochflow",
        description="Monte Carlo stochastic-flow verification runs for "
        "advection-diffusion problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario's checks; write CSVs and report.json")
    run_p.add_argument("config", help="bundled scenario name or path to a YAML config")
    run_p.add_argument("--out", required=True, help="output directory for CSVs and report.json")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--realizations", type=int, default=None,
        help="override every per-check realization budget (quick deterministic replays)",
    )
    run_p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default: ${THREADS_ENV} or 1); results never depend on it")
    run_p.add_argument(
        "--regen-golden", action="store_true",
        help="rewrite the bundled golden report (timing stripped) for this scenario",
    )

    conv_p = sub.add_parser(
        "converge", help="halve dt per level and fit the determinant-tracker gap order"
    )
    conv_p.add_argument("config", help="bundled scenario name or path to a YAML config")
    conv_p.add_argument("--levels", type=int, required=True, help="number of dt levels (>= 2)")
    conv_p.add_argument("--realizations", type=int, default=None)
    conv_p.add_argument("--threads", type=int, default=None)
    conv_p.add_argument("--seed", type=int, default=None)
    conv_p.add_argument("--out", default=None, help="directory for study.json and CSV")

    sub.add_parser("list-scenarios", help="print the bundled scenario names")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in bundled_scenarios():
                print(name)
            return 0

        cfg = _resolve_config(args.config)
        threads = _threads(args.threads)

        if args.command == "run":
            if args.realizations is not None and args.realizations < 1:
                raise ConfigError("--realizations must be >= 1")
            report = run_scenario(
                cfg, args.out, seed=args.seed, realizations=args.realizations, threads=threads
            )
            for res in report.results:
                status = "PASS" if res.passed else "FAIL"
                print(f"[{status}] {res.name} ({res.elapsed:.2f}s)")
            print(f"report: {os.path.join(args.out, 'report.json')}")
            if args.regen_golden:
                path = _golden_path(cfg.name)
                write_json(golden_payload(report), path)
                print(f"golden: {path}")
            return 0 if report.all_passed else 1

        if args.command == "converge":
            if args.levels < 2:
                raise ConfigError("--levels must be >= 2")
            study = convergence_study(
                cfg, args.levels, realizations=args.realizations, threads=threads, seed=args.seed
            )
            print(f"scenario: {study['scenario']}  horizon: {study['horizon']:g}  "
                  f"realizations: {study['realizations']}")
            print(f"{'dt':>12s} {'gap(det,expdiv)':>18s} {'gap(det,sde)':>18s}")
            for dt, g1, g2 in zip(study["dt"], study["gap_direct_vs_exp_lambda"],
                                  study["gap_direct_vs_sde"]):
                print(f"{dt:12.6g} {g1:18.6e} {g2:18.6e}")
            print(f"fitted order: {study['fitted_order']:.3f}")
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                write_json(study, os.path.join(args.out, "study.json"))
                rows = [(dt, g, 0.0) for dt, g in zip(study["dt"], study["gap_direct_vs_exp_lambda"])]
                _write_series_csv(os.path.join(args.out, "convergence.csv"), rows)
                print(f"study: {os.path.join(args.out, 'study.json')}")
            return 0

        parser.error(f"unknown command {args.command!r}")
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except StochflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
