"""The benchmark tracer (bench/tracer.py) patches names inside steinsurf.

It wraps ``steinsurf.localgeo.sweeps.fd_gradient_arrays`` and
``fd_levi_arrays``, ``steinsurf.scenario.load_scenario``, ``run_tasks``,
``plan_cp2`` and ``replay_trace`` among others; a rename or a reroute
inside the package would break it or make its per-layer counts read 0.  This runs the tracer on a tiny
scenario so such a break shows in the unit tests, not only in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import steinsurf.cli
from steinsurf.invariants import oriented_class
from steinsurf.surgery import STEP_ATTACH_TORUS, SurgeryStep, cp2_curve_class, replay

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import Tracer  # noqa: E402


def test_traced_fd_sweep_costs_25_field_evaluations_per_point(tmp_path, capsys):
    scenario = {"schema": 1, "tasks": [
        {"task": "verify-local", "suite": "psh_models", "params": {"grid_step": 0.5}}]}
    path = tmp_path / "psh.json"
    path.write_text(json.dumps(scenario))
    tracer = Tracer()
    main = tracer.begin_pass(steinsurf.cli.main)
    try:
        assert main(["check", str(path)]) == 0
    finally:
        tracer.end_pass()
    capsys.readouterr()
    metrics = tracer.pass_metrics(0)
    assert metrics["localgeo.sweeps.grid_points"] == 4 * 5 ** 4
    assert metrics["localgeo.fields.evals_per_fd_point"] == 25


def test_traced_exhaustion_counts_scene_and_field_points(capsys):
    """exhaustion_certificate must build rho through scenes.model_field, the
    name the tracer wraps; otherwise the field counts read 0."""
    code, metrics = _traced(["verify-local", "--suite", "exhaustion", "--grid-step", "0.5"],
                            capsys)
    assert code == 0
    assert metrics["localgeo.scenes.grid_points"] > 0
    assert metrics["localgeo.scenes.masked_points"] > 0
    assert metrics["localgeo.fields.value_points"] > 0


def _traced(argv, capsys):
    tracer = Tracer()
    main = tracer.begin_pass(steinsurf.cli.main)
    try:
        code = main(argv)
    finally:
        tracer.end_pass()
    capsys.readouterr()
    return code, tracer.pass_metrics(0)


def test_traced_check_counts_load_dispatch_and_surgery(tmp_path, capsys):
    base = cp2_curve_class(1)
    steps = [SurgeryStep(STEP_ATTACH_TORUS)] * 4
    scenario = {
        "schema": 1,
        "surfaces": {"torus": oriented_class(1).to_json()},
        "tasks": [
            {"task": "check", "surface": "torus"},
            {"task": "plan", "target": {"orientable": True, "genus": 3, "degree": 1}},
            {"task": "replay", "recipe": {"base": base.to_json(),
                                          "steps": [s.to_json() for s in steps],
                                          "expected": replay(base, steps).to_json()}},
        ],
    }
    path = tmp_path / "calculus.json"
    path.write_text(json.dumps(scenario))
    code, metrics = _traced(["check", str(path)], capsys)
    assert code == 0
    assert metrics["scenario.tasks"] == 3
    assert metrics["scenario.load_s"] > 0
    assert metrics["surgery.plan_calls"] == 1
    assert metrics["surgery.step_records"] == 3 + 4  # planned steps + replayed steps


def test_traced_subcommands_go_through_load_scenario(capsys):
    code, metrics = _traced(["plan", "--degree", "1", "--genus", "5"], capsys)
    assert code == 0
    assert metrics["scenario.tasks"] == 1
    assert metrics["scenario.load_s"] > 0
    assert metrics["surgery.step_records"] == 5


def test_traced_flow_counts_starts_steps_and_scalar_calls(tmp_path, capsys):
    """The flow stepper must call the field's own value and gradient, the
    callables the tracer wraps; otherwise the flow counts read 0."""
    n = 3
    scenario = {"schema": 1, "tasks": [
        {"task": "verify-local", "suite": "flow", "params": {"seed": 3, "n": n}}]}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(scenario))
    code, metrics = _traced(["check", str(path)], capsys)
    assert code == 0
    assert metrics["localgeo.flow.starts"] == 2 * n
    assert metrics["localgeo.flow.steps_attempted"] > 0
    assert metrics["localgeo.fields.scalar_calls"] > 0
