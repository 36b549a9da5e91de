"""Scenario files: named surfaces and ambients plus a task list.

A scenario is a JSON document with a versioned schema:

    {
      "schema": 1,
      "surfaces": {"sphere": {...immersion class...}},
      "ambients": {"cp2": {"kind": "ProjectivePlane", "stein": false,
                           "kaehler_b2plus_gt1": false}},
      "tasks": [
        {"task": "check", "surface": "sphere", "ambient": "cp2",
         "variant": "embedded"},
        {"task": "plan", "target": {"orientable": true, "genus": 3,
         "degree": 1}},
        {"task": "replay", "recipe": {"base": {...}, "steps": [...]}},
        {"task": "verify-local", "suite": "windings"}
      ]
    }

Structural problems (bad schema version, unresolved names, malformed
classes, a wrong-typed or unknown field) raise ScenarioError; a
``verify-local`` task takes the parameters its suite runner declares as
keywords.  A parsed task is its label plus its runner, a call with the
task's surfaces, ambients, target, recipe or suite parameters bound.
Failures discovered while running a task
are recorded in the report and fail that task.  Reports are
deterministic: identical scenarios produce byte-identical JSON, with
wall-clock timing only in the text emitter or behind an explicit flag.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .certificates import (
    Certificate,
    RULE_FLOW,
    RULE_INTERSECTION_SIGN,
    RULE_WINDING,
    Witness,
)
from .errors import (
    GeometryError,
    InfeasibleTargetError,
    InvalidClassError,
    NumericalError,
    ScenarioError,
    SurgeryError,
)
from .invariants import (
    ADJUNCTION_VARIANTS,
    AmbientDescriptor,
    ImmersionClass,
    _check_bool,
    _check_int64,
    _check_number,
    _check_record,
    check_adjunction,
    lai,
    stein_condition,
    validate,
    verdict,
)
from .localgeo import (
    MODEL_DOUBLE_POINT,
    MODEL_GRAPH_ELLIPTIC,
    MODEL_GRAPH_HYPERBOLIC,
    MODEL_SIGMA_MINUS,
    MODEL_SIGMA_PLUS,
    MODEL_SPECIAL_HYPERBOLIC,
    MODEL_WEINSTEIN,
    Box4,
    PointC2,
    conjugate_graph,
    double_point_scene,
    exhaustion_certificate,
    flow_to_surface,
    intersection_sign,
    locate_complex_points,
    min_abs_complex_det,
    model_field,
    model_patch,
    psh_certificate,
    special_hyperbolic_scene,
    weinstein_double_point_planes,
    winding_index,
)
from .surgery import PlanTarget, SurgeryStep, plan_cp2, read_recipe, replay_trace

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

TASK_CHECK = "check"
TASK_PLAN = "plan"
TASK_REPLAY = "replay"
TASK_VERIFY_LOCAL = "verify-local"

_TASK_ERRORS = (
    InvalidClassError,
    InfeasibleTargetError,
    SurgeryError,
    GeometryError,
    NumericalError,
)


@dataclass(frozen=True)
class Scenario:
    """The parsed tasks, in order: each a label and a runner returning
    (passed, details)."""

    tasks: tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class TaskResult:
    label: str
    passed: bool
    details: dict
    seconds: float

    def to_json(self, include_timing: bool = False) -> dict:
        out = {"label": self.label, "pass": self.passed, "details": self.details}
        if include_timing:
            out["seconds"] = self.seconds
        return out


@dataclass(frozen=True)
class Report:
    results: tuple[TaskResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, include_timing: bool = False) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "pass": self.passed,
            "tasks": [r.to_json(include_timing) for r in self.results],
        }

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.label} ({r.seconds:.3f}s)")
            err = r.details.get("error")
            if err:
                lines.append(f"    error: {err}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _one_of(value: Any, options) -> bool:
    return isinstance(value, str) and value in options


def read_json(path: str | Path) -> Any:
    """Decode a JSON file; an unreadable or undecodable file is a ScenarioError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def _parse_named(section: Any, parser, what: str) -> dict:
    _require(isinstance(section, dict), f"{what} section must be an object")
    out = {}
    for name, payload in section.items():
        try:
            out[name] = parser(payload)
        except InvalidClassError as exc:
            raise ScenarioError(f"bad {what} entry {name!r}: {exc}") from exc
    return out


def _parse_params(suite: str, params: Any) -> dict:
    """Type-check suite parameters against the keyword signature of the
    suite's runner: the names it declares, an int64 where the default is
    an integer and a number otherwise.  Omitted names keep the defaults."""
    spec = inspect.signature(_SUITE_RUNNERS[suite]).parameters
    _check_record(f"{suite} params", params, set(), spec.keys(), ScenarioError)
    return {
        name: _check_int64(name, value) if isinstance(spec[name].default, int)
        else _check_number(name, value)
        for name, value in params.items()
    }


# Required and optional fields of each task kind.
_TASK_FIELDS = {
    TASK_CHECK: ({"task", "surface"}, {"ambient", "variant", "class_nonzero"}),
    TASK_PLAN: ({"task", "target"}, set()),
    TASK_REPLAY: ({"task", "recipe"}, set()),
    TASK_VERIFY_LOCAL: ({"task", "suite"}, {"params"}),
}


def _parse_task(data: Any, surfaces: dict, ambients: dict) -> tuple[str, Any]:
    """The task's label and its runner."""
    _require(isinstance(data, dict), "must be an object")
    kind = data.get("task")
    _require(_one_of(kind, _TASK_FIELDS), f"unknown task kind {kind!r}")
    _check_record(f"{kind} task", data, *_TASK_FIELDS[kind], ScenarioError)
    if kind == TASK_CHECK:
        name = data["surface"]
        _require(_one_of(name, surfaces), f"unknown surface {name!r}")
        ambient = data.get("ambient")
        _require(ambient is None or _one_of(ambient, ambients), f"unknown ambient {ambient!r}")
        variant = data.get("variant")
        _require(
            variant is None or _one_of(variant, ADJUNCTION_VARIANTS),
            f"unknown adjunction variant {variant!r}",
        )
        class_nonzero = _check_bool("class_nonzero", data.get("class_nonzero", True))
        descriptor = None if ambient is None else ambients[ambient]
        return f"check:{name}", functools.partial(
            _run_check, name, surfaces[name], variant, ambient, descriptor, class_nonzero)
    if kind == TASK_PLAN:
        target = _check_record("plan target", data["target"], {"orientable", "genus"},
                               {"delta_plus", "degree"}, ScenarioError)
        degree = target.get("degree")
        return "plan", functools.partial(_run_plan, PlanTarget(
            orientable=_check_bool("orientable", target["orientable"]),
            genus=_check_int64("genus", target["genus"]),
            delta_plus=_check_int64("delta_plus", target.get("delta_plus", 0)),
            degree=None if degree is None else _check_int64("degree", degree),
        ))
    if kind == TASK_REPLAY:
        return "replay", functools.partial(_run_replay, *read_recipe(data["recipe"]))
    suite = data["suite"]
    _require(_one_of(suite, _SUITE_RUNNERS),
             f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    params = _parse_params(suite, data.get("params", {}))
    return f"verify-local:{suite}", functools.partial(_run_verify_local, suite, params)


def load_scenario(source: str | Path | dict) -> Scenario:
    """Parse a scenario from a path or an already-decoded JSON object.

    This is the only reader of external input: every field is type-checked
    and every record must hold exactly its known fields."""
    data = read_json(source) if isinstance(source, (str, Path)) else source
    _check_record("scenario", data, {"schema"}, {"surfaces", "ambients", "tasks"}, ScenarioError)
    schema = data["schema"]
    _require(
        type(schema) is int and schema == SCHEMA_VERSION,
        f"unsupported scenario schema {schema!r}, expected {SCHEMA_VERSION}",
    )
    surfaces = _parse_named(data.get("surfaces", {}), ImmersionClass.from_json, "surface")
    ambients = _parse_named(data.get("ambients", {}), AmbientDescriptor.from_json, "ambient")
    raw_tasks = data.get("tasks", [])
    _require(isinstance(raw_tasks, list), "tasks must be a list")
    tasks = []
    for index, raw in enumerate(raw_tasks):
        try:
            tasks.append(_parse_task(raw, surfaces, ambients))
        except (ScenarioError, InvalidClassError, SurgeryError) as exc:
            raise ScenarioError(f"task {index}: {exc}") from exc
    return Scenario(tuple(tasks))


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def _run_check(name: str, imm: ImmersionClass, variant: str | None, ambient: str | None,
               descriptor: AmbientDescriptor | None, class_nonzero: bool) -> tuple[bool, dict]:
    details: dict = {"surface": name}
    cert_valid = validate(imm)
    details["valid"] = cert_valid.to_json()
    passed = cert_valid.passed
    if passed:
        report = lai(imm)
        details["index"] = {
            "total": report.total,
            "positive": report.positive,
            "negative": report.negative,
        }
    if variant is not None:
        details["variant"] = variant
        cert = check_adjunction(imm, variant)
    else:
        cert = stein_condition(imm)
    details["certificate"] = cert.to_json()
    passed = passed and cert.passed
    if ambient is not None:
        details["ambient"] = ambient
        v = verdict(imm, descriptor, class_nonzero)
        details["verdict"] = v.to_json()
    return passed, details


def _run_plan(t: PlanTarget) -> tuple[bool, dict]:
    details: dict = {"target": asdict(t)}
    try:
        recipe = plan_cp2(t)
    except InfeasibleTargetError as exc:
        details["error"] = str(exc)
        details["rule"] = exc.rule
        return False, details
    details["recipe"] = recipe.to_json()
    cert = stein_condition(recipe.expected)
    details["stein"] = cert.to_json()
    return cert.passed, details


def _run_replay(base: ImmersionClass, steps: tuple[SurgeryStep, ...],
                expected: ImmersionClass | None) -> tuple[bool, dict]:
    details: dict = {}
    try:
        result, trace = replay_trace(base, steps)
    except SurgeryError as exc:
        details["error"] = str(exc)
        if exc.position is not None:
            details["position"] = exc.position
        return False, details
    details["result"] = result.to_json()
    details["trace"] = trace
    if expected is not None:
        match = result == expected
        details["expected_match"] = match
        return match, details
    return True, details


# ---------------------------------------------------------------------------
# verify-local suites
# ---------------------------------------------------------------------------


def _require_tol(tol: float) -> None:
    if tol < 0:
        raise GeometryError(f"tolerance must be >= 0, got tol={tol}")


def _check_entry(name: str, cert: Certificate, **extra) -> dict:
    return {"name": name, "pass": cert.passed, "certificate": cert.to_json(), **extra}


def _suite_psh_models(grid_step: float = 0.05, tol: float | None = None) -> list[dict]:
    """``tol=None`` keeps the per-mode tolerance: 1e-9 closed form, 1e-5 FD."""
    if tol is not None:
        _require_tol(tol)
    box = Box4.symmetric(1.0)
    checks = []
    for kind in (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT):
        for jets in (True, False):
            mode_tol = (1e-9 if jets else 1e-5) if tol is None else tol
            fld = model_field(kind, with_jets=jets)
            cert = psh_certificate(fld, box, grid_step, mode_tol)
            mode = "closed" if jets else "fd"
            checks.append(_check_entry(f"{kind}-{mode}", cert))
    return checks


def _suite_windings(radius: float = 0.5) -> list[dict]:
    checks = []
    for patch, expected in (
        (model_patch(MODEL_GRAPH_ELLIPTIC), 1),
        (model_patch(MODEL_GRAPH_HYPERBOLIC), -1),
        (conjugate_graph(3), -2),
    ):
        got = winding_index(patch, (0.0, 0.0), radius)
        cert = Certificate(got == expected, RULE_WINDING, (Witness(patch.name, got),))
        checks.append(_check_entry(f"{patch.name}:{expected}", cert))
    return checks


def _totally_real(name: str, patch, grid_step: float) -> dict:
    """No complex point on the sweep grid and a positive min |det|."""
    points = locate_complex_points(patch, grid_step=grid_step)
    floor = min_abs_complex_det(patch)
    cert = Certificate(not points and floor > 0, RULE_WINDING, (Witness("min_abs_det", floor),))
    return _check_entry(name, cert)


def _suite_sigma_handles(
    epsilon: float = 0.1, grid_step: float = 0.1, tol: float = 1e-4
) -> list[dict]:
    _require_tol(tol)
    minus = model_patch(MODEL_SIGMA_MINUS, epsilon=epsilon)
    points = locate_complex_points(minus, grid_step=grid_step)
    r = (abs(epsilon) / 2.0) ** 0.5
    targets = [(sx * r, sx * r, su * r, -su * r) for sx in (1, -1) for su in (1, -1)]
    ok = len(points) == 4 and all(
        p.index == -1 and min(math.dist(p.point.reals, t) for t in targets) < tol
        for p in points
    )
    cert = Certificate(
        ok, RULE_WINDING, tuple(Witness(p.point.to_json(), p.index) for p in points)
    )
    return [
        _check_entry("sigma-minus-four-points", cert, points=[p.to_json() for p in points]),
        _totally_real("sigma-plus-totally-real",
                      model_patch(MODEL_SIGMA_PLUS, epsilon=epsilon), grid_step),
    ]


def _suite_weinstein(grid_step: float = 0.1) -> list[dict]:
    totally_real = _totally_real("weinstein-totally-real", model_patch(MODEL_WEINSTEIN), grid_step)
    sign = intersection_sign(*weinstein_double_point_planes())
    cert = Certificate(sign == 1, RULE_INTERSECTION_SIGN, (Witness("intersection_sign", sign),))
    return [totally_real, _check_entry("weinstein-positive-double-point", cert)]


def _sample_sublevel(field, rng, level: float, half_width: float, draws):
    """Draw points of the box until rho < level; each draw takes one item of
    ``draws``, an iterator shared by every start of a flow run."""
    value = field.value
    for _ in draws:
        coords = rng.uniform(-half_width, half_width, size=4).tolist()
        if float(value(*coords)) < level:
            return PointC2.from_reals(*coords)
    raise NumericalError(
        f"flow level={level} left no start after MAX_FLOW_DRAWS = {MAX_FLOW_DRAWS} "
        "draws over all starts; raise level"
    )


# Each flow start samples a point and runs one RK4 flow per model (about
# 0.6 ms for both on a 2-vCPU Xeon), so the start count is bounded before
# any sampling.  A draw costs about 5 us; at the default level a start
# pair takes about 51 draws, so MAX_FLOW_STARTS pairs fit in the one draw
# budget of a run, while a level near 0 is refused after about 5 s.
MAX_FLOW_STARTS = 1 << 13
MAX_FLOW_DRAWS = 1 << 20


def _suite_flow(seed: int = DEFAULT_SEED, n: int = 25, level: float = 0.01) -> list[dict]:
    if n < 1 or seed < 0:
        raise GeometryError(f"flow needs n >= 1 starts and a seed >= 0, got n={n}, seed={seed}")
    if n > MAX_FLOW_STARTS:
        raise GeometryError(f"flow n={n} is more than MAX_FLOW_STARTS = {MAX_FLOW_STARTS} starts")
    if level <= 0:
        raise GeometryError(f"flow needs level > 0 (rho is never negative), got level={level}")
    checks = []
    draws = itertools.repeat(None, MAX_FLOW_DRAWS)
    for kind in (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT):
        fld = model_field(kind)
        rng = np.random.default_rng(seed)
        worst = 0.0
        ok = True
        for _ in range(n):
            start = _sample_sublevel(fld, rng, level, 0.6, draws)
            res = flow_to_surface(fld, start)
            monotone = all(b < a for a, b in zip(res.values, res.values[1:]))
            ok = ok and res.converged and monotone
            worst = max(worst, res.final_value)
        cert = Certificate(
            ok, RULE_FLOW,
            (Witness("max_final_value", worst), Witness("n_starts", n)),
        )
        checks.append(_check_entry(f"{kind}-retraction", cert))
    return checks


def _suite_exhaustion(
    epsilon: float = 0.01, delta: float = 1e-3, grid_step: float = 0.05
) -> list[dict]:
    checks = []
    scenes = (
        ("special-hyperbolic-scene", special_hyperbolic_scene()),
        ("double-point-scene", double_point_scene()),
    )
    for name, scene in scenes:
        cert = exhaustion_certificate(scene, epsilon, delta, grid_step)
        checks.append(_check_entry(name, cert))
    return checks


_SUITE_RUNNERS = {
    "psh_models": _suite_psh_models,
    "windings": _suite_windings,
    "sigma_handles": _suite_sigma_handles,
    "weinstein": _suite_weinstein,
    "flow": _suite_flow,
    "exhaustion": _suite_exhaustion,
}
SUITES = tuple(_SUITE_RUNNERS)


def _run_verify_local(suite: str, params: dict) -> tuple[bool, dict]:
    for name, value in params.items():
        if not math.isfinite(value):
            raise GeometryError(
                f"{name.replace('_', ' ')} must be finite, got {value} "
                f"({suite} parameter {name!r})"
            )
    checks = _SUITE_RUNNERS[suite](**params)
    passed = all(c["pass"] for c in checks)
    return passed, {"suite": suite, "checks": checks}


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_tasks(scenario: Scenario) -> Report:
    results = []
    for i, (label, runner) in enumerate(scenario.tasks):
        started = time.perf_counter()
        try:
            passed, details = runner()
        except _TASK_ERRORS as exc:
            passed, details = False, {"error": str(exc)}
        results.append(
            TaskResult(f"{i}:{label}", passed, details, time.perf_counter() - started)
        )
    return Report(tuple(results))


def run_scenario(source: str | Path | dict) -> Report:
    """Load and execute a scenario; see the module docstring for the schema."""
    return run_tasks(load_scenario(source))


def verify_local(suite: str, params: dict | None = None) -> Report:
    """Run one named verification suite as a single-task report."""
    task = {"task": TASK_VERIFY_LOCAL, "suite": suite, "params": {} if params is None else params}
    return run_scenario({"schema": SCHEMA_VERSION, "tasks": [task]})
