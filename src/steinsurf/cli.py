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
only in text mode or with ``--timing``.  A JSON report holds only dict,
list, str, int, float, bool and null, and its bytes are exactly those of
``json.dumps(report, indent=2, sort_keys=True)``; ``render`` writes them
with its own emitter because the stdlib encoder falls back to pure
Python whenever ``indent`` is set.  The emitter writes in pieces of
about FLUSH_PIECES fragments, so it never holds a joined copy of the
report: a plan's recipe prints one record per step (its equal steps
share one record object in the report tree), and ``plan --degree 1
--genus 1000000``, a 65 MB report, renders in a 46 MB process.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _quote

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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# Keyed on the exact type; bool has its own entry, so it never reaches int.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _subclass_scalar(value: object) -> str:
    """A str, int or float subclass (``np.float64``, say), written as the
    stdlib writes it; any other type is refused."""
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Pending fragments are written out at the end of a container once at
# least this many have gathered; a report's long lists hold records, so
# the buffer does not grow with the report.
FLUSH_PIECES = 1 << 12


def dump(obj: object, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte,
    through ``write`` in pieces, for a tree of dict (str keys only), list,
    tuple, str, int, float, bool and None; raises TypeError on any other
    value or key type."""
    out: list[str] = []
    append = out.append
    scalar = _SCALARS.get
    pads = ["\n"]  # pads[d] is a newline and d indents
    # heads[d] maps each key of a dict at depth d to "{" (first key) or
    # "," (later keys), then pads[d + 1], the quoted key and ": ".
    heads: list[tuple[dict, dict]] = []

    def emit(value: object, depth: int) -> None:
        fmt = scalar(type(value))
        if fmt is not None:
            append(fmt(value))
        elif not isinstance(value, (dict, list, tuple)):
            append(_subclass_scalar(value))
        elif not value:
            append("{}" if isinstance(value, dict) else "[]")
        else:
            if len(pads) == depth + 1:
                pads.append(pads[depth] + "  ")
                heads.append(({}, {}))
            pad = pads[depth + 1]
            # The loops format exact scalar types inline, saving a call per leaf.
            if isinstance(value, dict):
                cache, rest = heads[depth]
                lead = "{"
                for key in sorted(value):
                    head = cache.get(key)
                    if head is None:
                        if not isinstance(key, str):
                            raise TypeError(f"keys must be str, not {type(key).__name__}")
                        head = cache[key] = lead + pad + _quote(key) + ": "
                    append(head)
                    cache, lead = rest, ","
                    item = value[key]
                    fmt = scalar(type(item))
                    if fmt is None:
                        emit(item, depth + 1)
                    else:
                        append(fmt(item))
                append(pads[depth] + "}")
            else:
                lead, comma = "[" + pad, "," + pad
                for item in value:
                    append(lead)
                    lead = comma
                    fmt = scalar(type(item))
                    if fmt is None:
                        emit(item, depth + 1)
                    else:
                        append(fmt(item))
                append(pads[depth] + "]")
            if len(out) >= FLUSH_PIECES:
                write("".join(out))
                out.clear()

    emit(obj, 0)
    write("".join(out))


def render(report: Report, fmt: str, timing: bool, write: Callable[[str], object]) -> None:
    """Write the report in ``fmt`` and its trailing newline through ``write``."""
    if fmt == "text":
        write(report.to_text())
    else:
        dump(report.to_json(include_timing=timing), write)
    write("\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run_scenario(_scenario(args))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render(report, args.format, args.timing, sys.stdout.write)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
