"""The benchmark tracer (bench/tracer.py) patches names inside steinsurf.

It wraps ``steinsurf.localgeo.sweeps.fd_gradient_arrays`` and
``fd_levi_arrays`` among others; a rename inside the package would break
it or make its per-layer counts read 0.  This runs the tracer on a tiny
scenario so such a break shows in the unit tests, not only in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import steinsurf.cli

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
