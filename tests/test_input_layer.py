"""The strict input layer: every subcommand parses through load_scenario,
fields are typed, unknown fields are refused, and suite parameters are
the keyword signatures of the suite runners."""

import copy
import inspect
import json
import re
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steinsurf import cli, scenario
from steinsurf.errors import ScenarioError
from steinsurf.invariants import (
    INT64_MAX,
    INT64_MIN,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NO_STEIN,
    oriented_class,
    unoriented_class,
)
from steinsurf.scenario import Report, load_scenario, run_scenario
from steinsurf.scenario import MAX_FLOW_STARTS
from steinsurf.surgery import (
    MAX_PLAN_STEPS,
    STEP_ATTACH_TORUS,
    STEP_CONNECTED_SUM,
    SurgeryStep,
    cp2_curve_class,
    replay,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def valid_scenario() -> dict:
    """Every record kind the parser reads, each valid, no numeric suite."""
    base = cp2_curve_class(1)
    steps = [SurgeryStep(STEP_ATTACH_TORUS),
             SurgeryStep(STEP_CONNECTED_SUM, other=oriented_class(1))]
    return {
        "schema": 1,
        "surfaces": {
            "line": cp2_curve_class(1).to_json(),
            "node": oriented_class(0, normal_euler=-2, delta_plus=1).to_json(),
            "rp2": unoriented_class(1, normal_euler=2).to_json(),
        },
        "ambients": {
            "cp2": {"kind": "ProjectivePlane", "stein": False, "kaehler_b2plus_gt1": False},
            "bundle": {"kind": {"name": "LineBundle", "base_genus": 1, "degree": -3},
                       "stein": True, "kaehler_b2plus_gt1": False},
            "abstract": {"kind": {"name": "Abstract", "normal_euler": 1, "c1_pairing": 3},
                         "stein": False, "kaehler_b2plus_gt1": False},
        },
        "tasks": [
            {"task": "check", "surface": "line", "ambient": "cp2",
             "variant": "embedded", "class_nonzero": True},
            {"task": "check", "surface": "node", "ambient": "abstract"},
            {"task": "check", "surface": "rp2", "ambient": "bundle"},
            {"task": "plan", "target": {"orientable": True, "genus": 3,
                                        "delta_plus": 0, "degree": 1}},
            {"task": "plan", "target": {"orientable": False, "genus": 2, "degree": None}},
            {"task": "replay", "recipe": {
                "base": base.to_json(),
                "steps": [s.to_json() for s in steps],
                "expected": replay(base, steps).to_json()}},
        ],
    }


def _paths(node, prefix=()):
    """Every position below the root of a JSON tree, as a key path."""
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _substitute(blob, path, value):
    out = copy.deepcopy(blob)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([INT64_MIN - 1, INT64_MIN, -1, 0, 1, INT64_MAX, INT64_MAX + 1])
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
PATHS = sorted(_paths(valid_scenario()), key=repr)


def _run_both(blob, path: Path):
    """run_scenario gives a Report or raises ScenarioError; the CLI exits
    0, 1 or 2 on the same input and never raises."""
    try:
        assert isinstance(run_scenario(blob), Report)
    except ScenarioError:
        pass
    path.write_text(json.dumps(blob))
    assert cli.main(["check", str(path)]) in (0, 1, 2)


def test_valid_scenario_runs():
    assert len(run_scenario(valid_scenario()).results) == 6


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(PATHS), JSON_VALUES)
def test_any_value_at_any_position_is_a_report_or_a_scenario_error(
        tmp_path, capsys, path, value):
    _run_both(_substitute(valid_scenario(), path, value), tmp_path / "fuzz.json")
    capsys.readouterr()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([()] + [p for p in PATHS if isinstance(p[-1], str)]),
       st.text(max_size=6), JSON_VALUES)
def test_any_added_field_is_a_report_or_a_scenario_error(tmp_path, capsys, path, key, value):
    blob = valid_scenario()
    node = blob
    for step in path:
        node = node[step]
    if isinstance(node, dict):
        node[key] = value
    _run_both(blob, tmp_path / "fuzz.json")
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Suite parameters
# ---------------------------------------------------------------------------


def _suite_params():
    return {suite: {name: p.default for name, p in
                    inspect.signature(scenario._SUITE_RUNNERS[suite]).parameters.items()}
            for suite in scenario.SUITES}


SUITE_PARAMS = [(suite, name, default) for suite, params in _suite_params().items()
                for name, default in params.items()]


def _wrong_type(default):
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)
    if isinstance(default, int):
        return JSON_VALUES.filter(lambda v: not is_int(v))
    return JSON_VALUES.filter(lambda v: not (is_int(v) or isinstance(v, float)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_wrong_typed_suite_params_are_scenario_errors(data):
    suite, name, default = data.draw(st.sampled_from(SUITE_PARAMS))
    value = data.draw(_wrong_type(default))
    with pytest.raises(ScenarioError, match=name):
        load_scenario({"schema": 1, "tasks": [
            {"task": "verify-local", "suite": suite, "params": {name: value}}]})


def test_readme_table_lists_every_suite_parameter():
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\w+) \| `([^`]+)`[^|]*\|$",
                      README.read_text(), re.M)
    documented = {(s, n, t, d) for s, n, t, d in rows}
    declared = set()
    for suite, name, default in SUITE_PARAMS:
        kind = "integer" if isinstance(default, int) else "number"
        declared.add((suite, name, kind, repr(default)))
    assert documented == declared


# ---------------------------------------------------------------------------
# Regressions: inputs that used to be coerced, ignored or escape
# ---------------------------------------------------------------------------

# A degree-one sphere (e = 1, c1 = 3) in an abstract ambient.
SPHERE = oriented_class(0, normal_euler=1, c1_pairing=3).to_json()


def _abstract_check(stein, class_nonzero=True):
    return {
        "schema": 1,
        "surfaces": {"sphere": SPHERE},
        "ambients": {"x": {"kind": {"name": "Abstract", "normal_euler": 1, "c1_pairing": 3},
                           "stein": stein, "kaehler_b2plus_gt1": False}},
        "tasks": [{"task": "check", "surface": "sphere", "ambient": "x",
                   "class_nonzero": class_nonzero}],
    }


def _plan(**target):
    return {"schema": 1, "tasks": [{"task": "plan", "target": target}]}


def _suite(suite, **params):
    return {"schema": 1, "tasks": [{"task": "verify-local", "suite": suite, "params": params}]}


REJECTED = {
    "stein-string": _abstract_check("false"),
    "class-nonzero-string": _abstract_check(True, "false"),
    "orientable-string": _plan(orientable="no", genus=3, degree=1),
    "genus-string": _plan(orientable=True, genus="3", degree=1),
    "genus-float": _plan(orientable=True, genus=2.5, degree=1),
    "surface-genus-float": {"schema": 1, "surfaces": {"s": {
        **SPHERE, "topology": {"genus": 2.5, "orientable": True}}}},
    "schema-true": {"schema": True},
    "seed-string": _suite("flow", seed="x"),
    "epsilon-string": _suite("sigma_handles", epsilon="abc"),
    "radius-list": _suite("windings", radius=[1]),
    "variant-typo": {"schema": 1, "surfaces": {"sphere": SPHERE}, "tasks": [
        {"task": "check", "surface": "sphere", "varient": "embedded"}]},
    "grid-step-typo": _suite("psh_models", gridstep=0.5),
    "genus-beyond-int64": _plan(orientable=True, genus=10**30, degree=1),
    "ambient-kind-list": {"schema": 1, "ambients": {"x": {
        "kind": ["LineBundle"], "stein": True, "kaehler_b2plus_gt1": False}}},
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_malformed_input_exits_2_without_a_traceback(name, tmp_path, capsys):
    blob = REJECTED[name]
    with pytest.raises(ScenarioError):
        load_scenario(blob)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("stein, class_nonzero, outcome", [
    (False, True, OUTCOME_INCONCLUSIVE),
    (True, False, OUTCOME_INCONCLUSIVE),
    (True, True, OUTCOME_NO_STEIN),
])
def test_real_booleans_keep_their_verdicts(stein, class_nonzero, outcome):
    (result,) = run_scenario(_abstract_check(stein, class_nonzero)).results
    assert result.details["verdict"]["outcome"] == outcome


@pytest.mark.parametrize("n", [0, -5])
def test_flow_refuses_runs_without_starts(n):
    (result,) = run_scenario(_suite("flow", n=n)).results
    assert not result.passed
    assert "n >= 1" in result.details["error"]


@pytest.mark.parametrize("n", [MAX_FLOW_STARTS + 1, 10**9])
def test_flow_refuses_more_starts_than_its_budget(n):
    started = time.perf_counter()
    (result,) = run_scenario(_suite("flow", n=n)).results
    assert time.perf_counter() - started < 1.0
    assert not result.passed
    assert f"MAX_FLOW_STARTS = {MAX_FLOW_STARTS}" in result.details["error"]


def test_flow_bounds_its_draws_over_all_starts():
    """At level 1e-4 a start pair needs about 3.8 k draws, so 8192 starts
    spend MAX_FLOW_DRAWS long before the last start."""
    started = time.perf_counter()
    (result,) = scenario.verify_local("flow", {"level": 1e-4, "n": 8192}).results
    assert time.perf_counter() - started < 10.0
    assert not result.passed
    assert "level=0.0001" in result.details["error"]
    assert f"MAX_FLOW_DRAWS = {scenario.MAX_FLOW_DRAWS}" in result.details["error"]


@pytest.mark.parametrize("level", [0.0, -1.0])
def test_flow_refuses_a_level_nothing_lies_below(level):
    """rho is never negative, so no start can be sampled below level <= 0."""
    started = time.perf_counter()
    (result,) = scenario.verify_local("flow", {"level": level}).results
    assert time.perf_counter() - started < 0.1
    assert not result.passed
    assert "level" in result.details["error"]


@pytest.mark.parametrize("suite,params", [
    ("psh_models", {"tol": -1e300, "grid_step": 0.5}),
    ("sigma_handles", {"tol": -1.0}),
])
def test_negative_tolerance_is_a_task_error_naming_tol(suite, params):
    (result,) = scenario.verify_local(suite, params).results
    assert not result.passed
    assert "tol" in result.details["error"]


@pytest.mark.parametrize("suite,params", [
    ("psh_models", {"tol": 0.0, "grid_step": 0.5}),
    ("sigma_handles", {"tol": 0.0}),
])
def test_zero_tolerance_is_accepted(suite, params):
    (result,) = scenario.verify_local(suite, params).results
    assert "error" not in result.details


@pytest.mark.parametrize("suite,params", [
    ("windings", {"radius": 1e300}),
    ("sigma_handles", {"epsilon": 1e300}),
    ("windings", {"radius": 1e308}),
])
def test_overflowing_tangents_are_a_quiet_task_error(suite, params, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (result,) = scenario.verify_local(suite, params).results
    assert capsys.readouterr().err == ""
    assert not caught
    assert not result.passed
    assert "non-finite tangent data" in result.details["error"]


@pytest.mark.parametrize("params", [
    {"epsilon": 1e-300, "grid_step": 0.25},
    {"delta": 1e308, "grid_step": 0.25},
], ids=["epsilon", "delta"])
def test_overflowing_exhaustion_is_a_quiet_task_error(params, capsys):
    """h' = 1/(eps - rho) squared, or delta * tau, overflows to NaN or
    infinite Levi data, which must not hide behind argmin or pass as a
    witness."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (result,) = scenario.verify_local("exhaustion", params).results
    assert capsys.readouterr().err == ""
    assert not caught
    assert not result.passed
    assert "non-finite Levi data" in result.details["error"]


def _exhaustion_check(name, witness_point, witness_value):
    return {"name": name, "pass": False, "certificate": {
        "pass": False, "rule": "exhaustion-strongly-psh",
        "witnesses": [{"point": ["phi_levi_min", *witness_point], "value": witness_value},
                      {"point": "masked_points", "value": 6561}],
    }}


def test_an_unbounded_double_point_fiber_is_quiet():
    """level / (x^2 + u^2) overflows for eps near the float maximum; the
    infinite radius is clipped to the whole fiber, as at x = u = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = scenario.verify_local("exhaustion", {"epsilon": 1e308,
                                                         "grid_step": 0.25}).results
    assert result.details == {"suite": "exhaustion", "checks": [
        _exhaustion_check("special-hyperbolic-scene", [-0.25, -0.25, -1.0, -1.0],
                          -4.109772971799819e-06),
        _exhaustion_check("double-point-scene", [-0.5, 0.0, -0.25, -0.25],
                          -0.0066794065119449575),
    ]}


NUMBER_PARAMS = [(suite, name) for suite, name, default in SUITE_PARAMS
                 if not isinstance(default, int)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("suite,name", NUMBER_PARAMS)
def test_non_finite_suite_numbers_are_task_errors_naming_the_parameter(suite, name, value):
    started = time.perf_counter()
    (result,) = run_scenario(_suite(suite, **{name: value})).results
    assert time.perf_counter() - started < 1.0
    assert not result.passed
    assert repr(name) in result.details["error"]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_refuses_a_flag_the_suite_does_not_declare(capsys):
    assert cli.main(["verify-local", "--suite", "windings", "--grid-step", "0.1"]) == 2
    assert "grid_step" in capsys.readouterr().err


def test_cli_plan_refuses_a_target_beyond_the_step_budget(capsys):
    started = time.perf_counter()
    assert cli.main(["plan", "--degree", "1", "--genus", "1000000000000"]) == 1
    assert time.perf_counter() - started < 1.0
    details = json.loads(capsys.readouterr().out)["tasks"][0]["details"]
    assert details["rule"] == "input"
    assert str(MAX_PLAN_STEPS) in details["error"]


def test_cli_plan_refuses_a_genus_beyond_int64(capsys):
    started = time.perf_counter()
    assert cli.main(["plan", "--degree", "1", "--genus", str(10**30)]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith("error:")


def test_cli_replay_refuses_unknown_recipe_fields(tmp_path, capsys):
    base = cp2_curve_class(1).to_json()
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"base": base, "steps": [], "expectd": base}))
    assert cli.main(["replay", str(path)]) == 2
    assert "expectd" in capsys.readouterr().err
