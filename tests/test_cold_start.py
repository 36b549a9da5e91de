"""The integer path stays numpy-free, and the numeric names bind on first use.

``steinsurf.scenario`` binds numpy and its localgeo names into its globals
when a verify-local task is parsed, or when code outside it reads one of
them.  Each case runs in a fresh interpreter with ``PYTHONPATH=src``, as
the benchmark's cold start does, because any earlier test in this process
has already imported numpy and may have bound the names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steinsurf.invariants import oriented_class
from steinsurf.surgery import STEP_ATTACH_TORUS, SurgeryStep, cp2_curve_class, replay

ROOT = Path(__file__).resolve().parents[1]

# Runs cli.main on argv, then prints the exit code and whether numpy and
# localgeo were imported.
CLI_SCRIPT = """
import contextlib, io, json, sys
from steinsurf.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules, "steinsurf.localgeo" in sys.modules]))
"""


def _fresh(script: str, *args: str, flags: tuple[str, ...] = ()):
    """The JSON that ``script`` prints last in a fresh interpreter started
    with the interpreter options ``flags``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *flags, "-c", script, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _check_file(tmp_path) -> str:
    path = tmp_path / "check.json"
    path.write_text(json.dumps({
        "schema": 1,
        "surfaces": {"torus": oriented_class(1).to_json()},
        "tasks": [{"task": "check", "surface": "torus"}],
    }))
    return str(path)


def _recipe_file(tmp_path) -> str:
    base, steps = cp2_curve_class(1), [SurgeryStep(STEP_ATTACH_TORUS)] * 2
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"base": base.to_json(), "steps": [s.to_json() for s in steps],
                                "expected": replay(base, steps).to_json()}))
    return str(path)


INTEGER_COMMANDS = {
    "help": lambda tmp_path: ["--help"],
    "check": lambda tmp_path: ["check", _check_file(tmp_path)],
    "plan": lambda tmp_path: ["plan", "--degree", "1", "--genus", "3"],
    "replay": lambda tmp_path: ["replay", _recipe_file(tmp_path)],
}


@pytest.mark.parametrize("command", INTEGER_COMMANDS)
def test_integer_commands_import_neither_numpy_nor_localgeo(command, tmp_path):
    code, numpy_loaded, localgeo_loaded = _fresh(CLI_SCRIPT,
                                                 *INTEGER_COMMANDS[command](tmp_path))
    assert code == 0
    assert not numpy_loaded
    assert not localgeo_loaded


# Runs cli.main on argv, then prints the exit code and the task labels.
LABELS_SCRIPT = """
import contextlib, io, json, sys
from steinsurf.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, [task["label"] for task in json.loads(out.getvalue())["tasks"]]]))
"""


def test_input_files_are_decoded_as_json_not_by_the_locale(tmp_path):
    """A UTF-8 scenario naming a surface sigma, and a recipe, read with
    every locale-encoded text read turned into an error."""
    path = tmp_path / "sigma.json"
    path.write_bytes(json.dumps({
        "schema": 1,
        "surfaces": {"\u03c3": oriented_class(1).to_json()},
        "tasks": [{"task": "check", "surface": "\u03c3"}],
    }, ensure_ascii=False).encode("utf-8"))
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert _fresh(LABELS_SCRIPT, "check", str(path), flags=flags) == [0, ["0:check:\u03c3"]]
    assert _fresh(LABELS_SCRIPT, "replay", _recipe_file(tmp_path), flags=flags) == [0, ["0:replay"]]


def test_verify_local_imports_numpy_and_localgeo():
    assert _fresh(CLI_SCRIPT, "verify-local", "--suite", "windings") == [0, True, True]


def test_reading_a_numeric_name_before_any_task_binds_localgeo():
    assert _fresh("""
import json
import steinsurf.scenario as sc
psh, np_ = sc.psh_certificate, sc.np
import numpy, steinsurf.localgeo as lg
print(json.dumps([psh is lg.psh_certificate, np_ is numpy,
                  getattr(sc, "no_such_name", None) is None]))
""") == [True, True, True]


def test_a_name_set_before_the_first_parse_is_the_one_the_runner_calls():
    calls, passed = _fresh("""
import json
import steinsurf.scenario as sc
calls = []
sc.winding_index = lambda patch, center, radius: calls.append(patch.name) or 0
report = sc.verify_local("windings")
print(json.dumps([len(calls), report.passed]))
""")
    assert calls == 3
    assert not passed


def test_the_tracer_counts_a_psh_pass_after_a_check_only_pass(tmp_path):
    """The tracer reads the numeric names off ``steinsurf.scenario`` before a
    verify-local task has bound them."""
    psh = tmp_path / "psh.json"
    psh.write_text(json.dumps({"schema": 1, "tasks": [
        {"task": "verify-local", "suite": "psh_models", "params": {"grid_step": 0.5}}]}))
    metrics = _fresh("""
import contextlib, io, json, sys
sys.path.insert(0, "bench")
import steinsurf.cli
from tracer import Tracer
tracer = Tracer()
for path in sys.argv[1:]:
    main = tracer.begin_pass(steinsurf.cli.main)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", path]) == 0
    finally:
        tracer.end_pass()
print(json.dumps(tracer.pass_metrics(1)))
""", _check_file(tmp_path), str(psh))
    assert metrics["localgeo.sweeps.grid_points"] == 4 * 5 ** 4
    assert metrics["localgeo.fields.evals_per_fd_point"] == 25
