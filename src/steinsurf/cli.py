"""Command line entry point.

Subcommands:

* ``check <scenario.json>``: run a scenario file.
* ``plan --degree D --genus G [--dplus K]``: plan a projective target
  (omit ``--degree`` to plan an unorientable one).
* ``replay <recipe.json>``: replay a recipe file and print the trace.
* ``verify-local --suite NAME [--grid-step S] [--tol T] [--seed N]``:
  run one numeric verification suite.

Exit codes: 0 when the report passes, 1 when any task fails, 2 for
unparseable input.  JSON reports are deterministic; timing is emitted
only in text mode or with ``--timing``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ScenarioError
from .scenario import (
    SCHEMA_VERSION,
    SUITES,
    TASK_PLAN,
    TASK_REPLAY,
    TASK_VERIFY_LOCAL,
    Report,
    read_json,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinsurf",
        description="Surface index calculus and local geometry certificates.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report format (default: json)",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="include per-task timing in JSON reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario file")
    p_check.add_argument("scenario", help="path to a scenario JSON file")

    p_plan = sub.add_parser("plan", help="plan a class in the projective plane")
    p_plan.add_argument("--degree", type=int, default=None,
                        help="target degree (omit for an unorientable target)")
    p_plan.add_argument("--genus", type=int, required=True, help="target genus")
    p_plan.add_argument("--dplus", type=int, default=0,
                        help="positive double points (default 0)")

    p_replay = sub.add_parser("replay", help="replay a recipe file")
    p_replay.add_argument("recipe", help="path to a recipe JSON file")

    p_verify = sub.add_parser("verify-local", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--grid-step", type=float, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=None)

    return parser


def _scenario(args: argparse.Namespace) -> str | dict:
    """The scenario file of ``check``; a one-task scenario record for the
    other subcommands, so every input goes through ``load_scenario``."""
    if args.command == "check":
        return args.scenario
    if args.command == "plan":
        task = {"task": TASK_PLAN, "target": {
            "orientable": args.degree is not None,
            "genus": args.genus,
            "delta_plus": args.dplus,
            "degree": args.degree,
        }}
    elif args.command == "replay":
        task = {"task": TASK_REPLAY, "recipe": read_json(args.recipe)}
    else:
        flags = {"grid_step": args.grid_step, "tol": args.tol, "seed": args.seed}
        params = {name: value for name, value in flags.items() if value is not None}
        task = {"task": TASK_VERIFY_LOCAL, "suite": args.suite, "params": params}
    return {"schema": SCHEMA_VERSION, "tasks": [task]}


def render(report: Report, fmt: str, timing: bool) -> str:
    if fmt == "text":
        return report.to_text()
    return json.dumps(report.to_json(include_timing=timing), indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run_scenario(_scenario(args))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(report, args.format, args.timing))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
