"""Tests for scenario loading/execution and the command line interface."""

import json

import pytest

from steinsurf import cli
from steinsurf.certificates import (
    RULE_EXHAUSTION,
    RULE_FLOW,
    RULE_INTERSECTION_SIGN,
    RULE_LEVI_PSH,
    RULE_WINDING,
)
from steinsurf.errors import ScenarioError
from steinsurf.invariants import (
    OUTCOME_NO_STEIN,
    oriented_class,
)
from steinsurf.scenario import (
    SUITES,
    load_scenario,
    run_scenario,
    run_tasks,
    verify_local,
)
from steinsurf.surgery import (
    STEP_ATTACH_TORUS,
    SurgeryStep,
    cp2_curve_class,
    replay,
)

CP2 = {"kind": "ProjectivePlane", "stein": False, "kaehler_b2plus_gt1": False}


def torus_check_scenario():
    return {
        "schema": 1,
        "surfaces": {"torus": oriented_class(1).to_json()},
        "tasks": [{"task": "check", "surface": "torus"}],
    }


def failing_line_scenario():
    """A degree-one rational curve: positive index, so no Stein tube."""
    return {
        "schema": 1,
        "surfaces": {"line": cp2_curve_class(1).to_json()},
        "ambients": {"cp2": CP2},
        "tasks": [{"task": "check", "surface": "line", "ambient": "cp2"}],
    }


def good_recipe():
    base = cp2_curve_class(1)
    steps = [SurgeryStep(STEP_ATTACH_TORUS)] * 3
    expected = replay(base, steps)
    return {
        "base": base.to_json(),
        "steps": [s.to_json() for s in steps],
        "expected": expected.to_json(),
    }


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_rejects_structural_problems():
    cases = [
        [1, 2, 3],
        {"schema": 2},
        {"schema": 1, "surfaces": {"bad": {"genus": 1}}},
        {"schema": 1, "ambients": {"cp2": "ProjectivePlane"}},
        {"schema": 1, "tasks": {"task": "check"}},
        {"schema": 1, "tasks": ["not-an-object"]},
        {"schema": 1, "tasks": [{"task": "transmogrify"}]},
        {"schema": 1, "tasks": [{"task": "check", "surface": "ghost"}]},
        {"schema": 1, "tasks": [{"task": "plan", "target": {"genus": 1}}]},
        {"schema": 1, "tasks": [{"task": "plan", "target": {
            "orientable": True, "genus": 1, "color": "red"}}]},
        {"schema": 1, "tasks": [{"task": "replay"}]},
        {"schema": 1, "tasks": [{"task": "replay", "recipe": {
            "base": oriented_class(0).to_json(), "steps": [{"kind": "Fold"}]}}]},
        {"schema": 1, "tasks": [{"task": "verify-local", "suite": "psychic"}]},
        {"schema": 1, "tasks": [{"task": "verify-local",
                                 "suite": "windings", "params": 7}]},
    ]
    for blob in cases:
        with pytest.raises(ScenarioError):
            load_scenario(blob)


def test_load_rejects_unknown_named_references():
    blob = torus_check_scenario()
    blob["tasks"][0]["ambient"] = "missing"
    with pytest.raises(ScenarioError):
        load_scenario(blob)
    blob = torus_check_scenario()
    blob["tasks"][0]["variant"] = "strict"
    with pytest.raises(ScenarioError):
        load_scenario(blob)


def test_load_from_files(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(torus_check_scenario()))
    scenario = load_scenario(path)
    assert [label for label, _ in scenario.tasks] == ["check:torus"]
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(broken)


def test_empty_task_list_passes():
    report = run_scenario({"schema": 1})
    assert report.passed
    assert report.to_json() == {"schema": 1, "pass": True, "tasks": []}


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def test_check_task_reports_index_and_verdict():
    report = run_scenario(failing_line_scenario())
    assert not report.passed
    (result,) = report.results
    assert result.label == "0:check:line"
    assert result.details["index"] == {"total": 3, "positive": 3, "negative": 0}
    assert not result.details["certificate"]["pass"]
    assert result.details["verdict"]["outcome"] == OUTCOME_NO_STEIN


def test_check_task_passes_for_index_nonpositive_class():
    report = run_scenario(torus_check_scenario())
    assert report.passed
    (result,) = report.results
    assert result.details["certificate"]["pass"]
    assert "verdict" not in result.details


def test_check_task_with_explicit_variant():
    blob = {
        "schema": 1,
        "surfaces": {"genus3_line": oriented_class(3, normal_euler=1,
                                                   c1_pairing=3).to_json()},
        "tasks": [{"task": "check", "surface": "genus3_line",
                   "variant": "embedded"}],
    }
    report = run_scenario(blob)
    assert report.passed
    assert report.results[0].details["variant"] == "embedded"


def test_task_level_errors_fail_the_task_not_the_run():
    # the embedded variant refuses immersed input at run time
    blob = {
        "schema": 1,
        "surfaces": {"node": oriented_class(0, normal_euler=-2,
                                            delta_plus=1).to_json()},
        "tasks": [
            {"task": "check", "surface": "node", "variant": "embedded"},
            {"task": "check", "surface": "node"},
        ],
    }
    report = run_scenario(blob)
    assert not report.passed
    first, second = report.results
    assert not first.passed
    assert "error" in first.details
    assert second.passed  # later tasks still run


def test_plan_task_round_trip_through_replay():
    plan_blob = {
        "schema": 1,
        "tasks": [{"task": "plan", "target": {
            "orientable": True, "genus": 0, "degree": 1, "delta_plus": 3}}],
    }
    report = run_scenario(plan_blob)
    assert report.passed
    recipe = report.results[0].details["recipe"]
    replay_blob = {"schema": 1, "tasks": [{"task": "replay", "recipe": recipe}]}
    replay_report = run_scenario(replay_blob)
    assert replay_report.passed
    details = replay_report.results[0].details
    assert details["expected_match"] is True
    assert [entry["position"] for entry in details["trace"]] == [1, 2, 3]


def test_plan_task_reports_infeasibility():
    blob = {
        "schema": 1,
        "tasks": [{"task": "plan", "target": {
            "orientable": True, "genus": 0, "degree": 1, "delta_plus": 2}}],
    }
    report = run_scenario(blob)
    assert not report.passed
    details = report.results[0].details
    assert details["rule"] == "projective-plane-immersed-bound"
    assert "recipe" not in details


def test_replay_task_failure_modes():
    recipe = good_recipe()
    recipe["expected"]["normal_euler"] += 2
    report = run_scenario({"schema": 1, "tasks": [
        {"task": "replay", "recipe": recipe}]})
    assert not report.passed
    assert report.results[0].details["expected_match"] is False

    bad_steps = {
        "base": oriented_class(0).to_json(),
        "steps": [{"kind": "ResolvePositiveDP_Handle"}],
    }
    report = run_scenario({"schema": 1, "tasks": [
        {"task": "replay", "recipe": bad_steps}]})
    assert not report.passed
    details = report.results[0].details
    assert details["position"] == 1
    assert "error" in details


def test_replay_task_names_the_step_that_leaves_int64():
    recipe = {
        "base": oriented_class(0, normal_euler=-2**63 + 2).to_json(),
        "steps": [{"kind": k} for k in ("AttachTorus", "AttachRP2", "AttachRP2")],
    }
    report = run_scenario({"schema": 1, "tasks": [{"task": "replay", "recipe": recipe}]})
    assert report.results[0].details == {
        "error": "step 3 (AttachRP2) failed: "
                 "normal_euler out of signed 64-bit range: -9223372036854775810",
        "position": 3,
    }


def test_replay_task_refuses_classes_that_fail_the_parity_check():
    odd = oriented_class(0, normal_euler=1).to_json()
    parity = ("parity violation: euler_char + normal_euler + c1_pairing is odd, "
              "the signed index split would not be integral")
    recipes = (
        ({"base": odd, "steps": [{"kind": "AttachTorus"}]},
         {"error": f"base class failed: {parity}", "position": 0}),
        ({"base": oriented_class(1).to_json(),
          "steps": [{"kind": "ConnectedSum", "other": odd}, {"kind": "NormalizeComplexPoints"}]},
         {"error": f"step 1 (ConnectedSum) failed: {parity}", "position": 1}),
    )
    for recipe, details in recipes:
        report = run_scenario({"schema": 1, "tasks": [{"task": "replay", "recipe": recipe}]})
        assert not report.results[0].passed
        assert report.results[0].details == details


def test_reports_are_deterministic():
    scenario = load_scenario(failing_line_scenario())
    first = run_tasks(scenario).to_json()
    second = run_tasks(scenario).to_json()
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_timing_only_appears_on_request():
    report = run_scenario(torus_check_scenario())
    assert "seconds" not in report.to_json()["tasks"][0]
    timed = report.to_json(include_timing=True)["tasks"][0]
    assert timed["seconds"] >= 0
    text = report.to_text()
    assert "[PASS] 0:check:torus" in text
    assert text.endswith("overall: PASS")


def test_text_report_surfaces_task_errors():
    blob = {
        "schema": 1,
        "surfaces": {"node": oriented_class(0, normal_euler=-2,
                                            delta_plus=1).to_json()},
        "tasks": [{"task": "check", "surface": "node", "variant": "embedded"}],
    }
    text = run_scenario(blob).to_text()
    assert "[FAIL]" in text
    assert "error:" in text
    assert text.endswith("overall: FAIL")


def test_verify_local_runs_a_suite():
    report = verify_local("windings")
    assert report.passed
    (result,) = report.results
    assert result.label == "0:verify-local:windings"
    names = [c["name"] for c in result.details["checks"]]
    assert len(names) == 3
    with pytest.raises(ScenarioError):
        verify_local("psychic")


def _entry(name, rule, witnesses, **extra):
    return {"name": name, "pass": True,
            "certificate": {"pass": True, "rule": rule,
                            "witnesses": [{"point": p, "value": v} for p, v in witnesses]},
            **extra}


# (s, t, point, raw_winding, orientation_sign, det_abs) of the four
# located sigma-minus points at epsilon 0.1, grid step 0.05; each has
# index -1.
_SIGMA_MINUS_POINTS = [
    (-2.1594719313644947e-09, 3.9269908168178835,
     [-0.223606797304976, -0.22360679827072116, -0.2236067972292368, 0.22360679819498194],
     1, -1, 8.664410537413509e-10),
    (-6.693558119797311e-10, 2.356194489524965,
     [-0.22360679745107576, -0.2236067977504208, 0.22360679774953715, -0.2236067980488822],
     -1, 1, 3.7808640981116544e-10),
    (8.207603074050326e-10, 0.7853981622320457,
     [0.2236067981940985, 0.22360679782704335, 0.2236067976729146, -0.22360679730585944],
     1, -1, 5.701663999785539e-10),
    (8.207603074050326e-10, 5.4977871426206875,
     [0.2236067976737983, 0.22360679730674313, -0.22360679819321483, 0.22360679782615966],
     -1, 1, 5.688747041409921e-10),
]

_PATCH_SUITE_CHECKS = {
    ("windings", None): [
        _entry("GraphSpecialElliptic:1", RULE_WINDING, [("GraphSpecialElliptic", 1)]),
        _entry("GraphSpecialHyperbolic:-1", RULE_WINDING, [("GraphSpecialHyperbolic", -1)]),
        _entry("ConjugatePowerGraph3:-2", RULE_WINDING, [("ConjugatePowerGraph3", -2)]),
    ],
    ("sigma_handles", 0.05): [
        _entry("sigma-minus-four-points", RULE_WINDING,
               [(p[2], -1) for p in _SIGMA_MINUS_POINTS],
               points=[{"s": s, "t": t, "point": point, "index": -1, "raw_winding": w,
                        "orientation_sign": sign, "det_abs": d}
                       for s, t, point, w, sign, d in _SIGMA_MINUS_POINTS]),
        _entry("sigma-plus-totally-real", RULE_WINDING, [("min_abs_det", 0.20014591577314317)]),
    ],
    ("weinstein", 0.05): [
        _entry("weinstein-totally-real", RULE_WINDING, [("min_abs_det", 0.6689275695116225)]),
        _entry("weinstein-positive-double-point", RULE_INTERSECTION_SIGN,
               [("intersection_sign", 1)]),
    ],
}


def _assert_same(got, want):
    """Equal keys in equal order, equal types, and floats to rel 1e-9."""
    if isinstance(want, float):
        assert type(got) is float and got == pytest.approx(want, rel=1e-9)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("suite,grid_step", list(_PATCH_SUITE_CHECKS))
def test_patch_suite_entries_are_pinned(suite, grid_step):
    params = None if grid_step is None else {"grid_step": grid_step}
    (result,) = verify_local(suite, params).results
    _assert_same(result.details["checks"], _PATCH_SUITE_CHECKS[suite, grid_step])


_SUITE_RULES = {
    "psh_models": {RULE_LEVI_PSH},
    "windings": {RULE_WINDING},
    "sigma_handles": {RULE_WINDING},
    "weinstein": {RULE_WINDING, RULE_INTERSECTION_SIGN},
    "flow": {RULE_FLOW},
    "exhaustion": {RULE_EXHAUSTION},
}


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_cites_its_named_rules(suite):
    params = {"grid_step": 0.25} if suite == "psh_models" else None
    (result,) = verify_local(suite, params).results
    rules = {c["certificate"]["rule"] for c in result.details["checks"]}
    assert rules == _SUITE_RULES[suite]


def test_verify_local_captures_runtime_errors():
    report = verify_local("exhaustion", {"grid_step": 0.0})
    assert not report.passed
    assert "error" in report.results[0].details


# NaN and inf are not finite; 1e-300 and 1e-3 imply far more grid nodes
# than the sweep budget (1e-3 on the unit box is ~1.6e13 nodes).
@pytest.mark.parametrize("suite", ["psh_models", "exhaustion"])
@pytest.mark.parametrize("step", [float("nan"), float("inf"), 1e-300, 1e-3])
def test_verify_local_refuses_unusable_grid_steps(suite, step):
    report = verify_local(suite, {"grid_step": step})
    assert not report.passed
    (result,) = report.results
    assert "grid step" in result.details["error"]


def test_cli_check_reports_a_nan_grid_step_as_a_task_error(tmp_path, capsys):
    scenario = {"schema": 1, "tasks": [
        {"task": "verify-local", "suite": "psh_models", "params": {"grid_step": float("nan")}}]}
    path = write_json(tmp_path, "nan.json", scenario)
    assert cli.main(["check", path]) == 1
    blob = json.loads(capsys.readouterr().out)
    (task,) = blob["tasks"]
    assert task["pass"] is False and "grid step" in task["details"]["error"]


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------


def write_json(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def test_cli_check_exit_codes(tmp_path, capsys):
    passing = write_json(tmp_path, "pass.json", torus_check_scenario())
    assert cli.main(["check", passing]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pass"] is True

    failing = write_json(tmp_path, "fail.json", failing_line_scenario())
    assert cli.main(["check", failing]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False

    assert cli.main(["check", str(tmp_path / "absent.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_cli_check_rejects_malformed_scenarios(tmp_path, capsys):
    bad = write_json(tmp_path, "bad.json", {"schema": 99})
    assert cli.main(["check", bad]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_plan_and_replay(tmp_path, capsys):
    assert cli.main(["plan", "--degree", "1", "--genus", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    recipe = blob["tasks"][0]["details"]["recipe"]
    assert len(recipe["steps"]) == 3

    recipe_path = write_json(tmp_path, "recipe.json", recipe)
    assert cli.main(["replay", recipe_path]) == 0
    replay_blob = json.loads(capsys.readouterr().out)
    assert replay_blob["tasks"][0]["details"]["expected_match"] is True

    broken = write_json(tmp_path, "broken.json", {"base": recipe["base"]})
    assert cli.main(["replay", broken]) == 2
    capsys.readouterr()


def test_cli_plan_unorientable_and_infeasible(capsys):
    assert cli.main(["plan", "--genus", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    expected = blob["tasks"][0]["details"]["recipe"]["expected"]
    assert expected["topology"]["orientable"] is False
    assert expected["normal_euler"] == -7

    assert cli.main(["plan", "--degree", "1", "--genus", "0", "--dplus", "2"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["tasks"][0]["details"]["rule"] == "projective-plane-immersed-bound"


def test_cli_verify_local_deterministic_output(capsys):
    assert cli.main(["verify-local", "--suite", "windings"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify-local", "--suite", "windings"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seconds" not in first

    assert cli.main(["--timing", "verify-local", "--suite", "windings"]) == 0
    assert "seconds" in capsys.readouterr().out


def test_cli_text_format(capsys):
    assert cli.main(["--format", "text", "verify-local", "--suite", "windings"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "[PASS]" in out


def test_cli_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-local", "--suite", "psychic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_suite_choices_track_the_registry():
    parser = cli.build_parser()
    args = parser.parse_args(["verify-local", "--suite", SUITES[0]])
    assert args.suite == SUITES[0]
    assert args.grid_step is None and args.tol is None and args.seed is None
