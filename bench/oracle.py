"""Checks a scenario's default JSON report against closed formulas.

Expectations are derived from the scenario alone (see calculus.py): index
splits from chi + e and (total +- c1) / 2, plans and replays by adding
each step's invariant vector, verdict outcomes and rule names from the
pinned ladder.  verify-local checks must all pass, and each psh Levi-min
witness must lie within the suite's tolerance of 0.
"""

from __future__ import annotations

import calculus as cc

_PSH_TOL = {"closed": 1e-9, "fd": 1e-5}
_SUITE_CHECKS = {
    "psh_models": ["SpecialHyperbolic-closed", "SpecialHyperbolic-fd",
                   "DoublePoint-closed", "DoublePoint-fd"],
    "windings": ["GraphSpecialElliptic:1", "GraphSpecialHyperbolic:-1",
                 "ConjugatePowerGraph3:-2"],
    "sigma_handles": ["sigma-minus-four-points", "sigma-plus-totally-real"],
    "weinstein": ["weinstein-totally-real", "weinstein-positive-double-point"],
    "flow": ["SpecialHyperbolic-retraction", "DoublePoint-retraction"],
    "exhaustion": ["special-hyperbolic-scene", "double-point-scene"],
}


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def verify(scenario: dict, report: dict) -> tuple[list[str], bool]:
    """One message per task whose outcome disagrees with the oracle, and
    whether every task should pass (which sets the expected exit code)."""
    tasks = scenario["tasks"]
    results = report.get("tasks", [])
    if report.get("schema") != 1 or len(results) != len(tasks):
        return [f"report shape: schema {report.get('schema')!r}, "
                f"{len(results)} results for {len(tasks)} tasks"] * len(tasks), False
    failures = []
    all_pass = True
    for i, (task, result) in enumerate(zip(tasks, results)):
        try:
            passed = _verify_task(i, task, result, scenario)
            all_pass = all_pass and passed
            _expect(result["pass"] is passed, f"pass flag {result['pass']}, expected {passed}")
        except (Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
            failures.append(f"task {i} ({task['task']}): {type(exc).__name__}: {exc}")
    if report.get("pass") is not all_pass and not failures:
        failures.append(f"overall pass {report.get('pass')}, expected {all_pass}")
    return failures, all_pass


def _verify_task(i: int, task: dict, result: dict, scenario: dict) -> bool:
    kind = task["task"]
    details = result["details"]
    if kind == "check":
        _expect(result["label"] == f"{i}:check:{task['surface']}", "label")
        return _verify_check(task, details, scenario)
    if kind == "plan":
        _expect(result["label"] == f"{i}:plan", "label")
        return _verify_plan(task["target"], details)
    if kind == "replay":
        _expect(result["label"] == f"{i}:replay", "label")
        return _verify_replay(task["recipe"], details)
    _expect(result["label"] == f"{i}:verify-local:{task['suite']}", "label")
    return _verify_local(task, details)


def _values(cert: dict) -> list:
    return [w["value"] for w in cert["witnesses"]]


def _verify_check(task: dict, details: dict, scenario: dict) -> bool:
    c = cc.Cls.from_json(scenario["surfaces"][task["surface"]])
    _expect(details["valid"]["pass"] is True and details["valid"]["rule"] == cc.RULE_INTEGRALITY,
            "validity certificate")
    p, n = c.parts or (None, None)
    _expect(details["index"] == {"total": c.total, "positive": p, "negative": n},
            f"index split {details['index']}, expected total {c.total}, parts {p}, {n}")
    cert = details["certificate"]
    variant = task.get("variant")
    if variant is None:
        ok = cc.stein_ok(c)
        _expect(cert["rule"] == cc.RULE_NONPOSITIVE and cert["pass"] is ok
                and _values(cert) == cc.stein_witness_values(c), f"index certificate {cert}")
    else:
        lhs, rhs = cc.adjunction(c, variant)
        ok = lhs >= rhs
        _expect(cert["rule"] == cc.RULE_ADJUNCTION[variant] and cert["pass"] is ok
                and _values(cert) == [lhs, rhs], f"{variant} certificate {cert}")
    ambient = task.get("ambient")
    if ambient is not None:
        record = scenario["ambients"][ambient]
        kind = record["kind"]
        kind = kind["name"] if isinstance(kind, dict) else kind
        outcome, rule = cc.verdict(c, kind, record["stein"], task.get("class_nonzero", True))
        got = details["verdict"]
        _expect(got["outcome"] == outcome and got["rule"] == rule,
                f"verdict {got['outcome']}/{got['rule']}, expected {outcome}/{rule}")
    else:
        _expect("verdict" not in details, "verdict without an ambient")
    return ok


_PLAN_STEPS = {
    "embedded": {"AttachTorus"},
    "immersed": {"AttachWeinsteinSphere", "ResolvePositiveDP_Handle"},
    "unorientable": {"AttachRP2"},
}


def _verify_plan(target: dict, details: dict) -> bool:
    orientable, genus = target["orientable"], target["genus"]
    dplus, degree = target.get("delta_plus", 0), target.get("degree")
    _expect(details["target"] == {"orientable": orientable, "genus": genus,
                                  "delta_plus": dplus, "degree": degree}, "target echo")
    rule = cc.plan_error_rule(orientable, genus, dplus, degree)
    if rule is not None:
        _expect(details.get("rule") == rule and "error" in details and "recipe" not in details,
                f"refusal rule {details.get('rule')!r}, expected {rule!r}")
        return False
    recipe = details["recipe"]
    base = cc.plan_base(orientable, degree, dplus)
    _expect(recipe["base"] == base.to_json(), "plan base class")
    family = "unorientable" if not orientable else "immersed" if dplus else "embedded"
    current = base
    for step in recipe["steps"]:
        _expect(step["kind"] in _PLAN_STEPS[family] and cc.step_allowed(current, step["kind"]),
                f"plan step {step['kind']}")
        current, _ = cc.apply_step(current, step["kind"])
    _expect(recipe["expected"] == current.to_json(), "recipe expected class")
    _expect(current.genus == genus and current.dp == dplus and current.dm == 0
            and current.orientable == orientable, "plan misses its target")
    if orientable:
        _expect(current.c1 == 3 * degree and current.self_intersection == degree * degree,
                "plan misses the degree")
    ok = cc.stein_ok(current)
    stein = details["stein"]
    _expect(stein["rule"] == cc.RULE_NONPOSITIVE and stein["pass"] is ok
            and _values(stein) == cc.stein_witness_values(current), "plan stein certificate")
    return ok


def _replay_expectation(recipe: dict):
    """(failing position or None, final class, expected trace)."""
    current = cc.Cls.from_json(recipe["base"])
    trace = []
    for position, step in enumerate(recipe["steps"], start=1):
        if not cc.step_allowed(current, step["kind"]):
            return position, current, trace
        other = cc.Cls.from_json(step["other"]) if "other" in step else None
        current, note = cc.apply_step(current, step["kind"], other)
        entry = {"position": position, "kind": step["kind"], "result": current.to_json()}
        if note is not None:
            entry["annotation"] = note
        trace.append(entry)
    return None, current, trace


def _verify_replay(recipe: dict, details: dict) -> bool:
    failing, final, trace = _replay_expectation(recipe)
    if failing is not None:
        kind = recipe["steps"][failing - 1]["kind"]
        _expect(details.get("position") == failing
                and details.get("error", "").startswith(f"step {failing} ({kind}) failed:"),
                f"rejection at {details.get('position')}, expected step {failing}")
        return False
    _expect(details["result"] == final.to_json(), "replay result")
    _expect(details["trace"] == trace, "replay trace")
    if "expected" in recipe:
        match = recipe["expected"] == final.to_json()
        _expect(details["expected_match"] is match, "expected_match")
        return match
    return True


def _verify_local(task: dict, details: dict) -> bool:
    suite = task["suite"]
    checks = details["checks"]
    _expect(details["suite"] == suite, "suite echo")
    _expect([c["name"] for c in checks] == _SUITE_CHECKS[suite], "check names")
    for check in checks:
        _expect(check["pass"] is True and check["certificate"]["pass"] is True,
                f"check {check['name']} failed")
    params = task.get("params", {})
    if suite == "psh_models":
        for check in checks:
            tol = params.get("tol", _PSH_TOL[check["name"].rsplit("-", 1)[1]])
            levi = check["certificate"]["witnesses"][0]
            _expect(levi["point"][0] == "levi_min" and abs(levi["value"]) <= tol,
                    f"{check['name']} Levi min {levi['value']} not within {tol} of 0")
    elif suite == "exhaustion":
        for check in checks:
            _expect(check["certificate"]["witnesses"][1]["value"] > 0, "no masked points")
    elif suite == "flow":
        n = params.get("n", 25)
        for check in checks:
            _expect(check["certificate"]["witnesses"][1]["value"] == n, "flow start count")
    elif suite == "sigma_handles":
        points = checks[0]["points"]
        _expect(len(points) == 4 and all(p["index"] == -1 for p in points),
                "sigma-minus complex points")
    return True
