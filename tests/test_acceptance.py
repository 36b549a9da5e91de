"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints exactly one
"acceptance criterion N: PASS/FAIL" line, and enforces the stated
tolerances and time budgets.  Run with ``pytest -v`` (the suite enables
-rP so the printed lines appear in the summary).
"""

import math
import time

import numpy as np
import pytest

from steinsurf.errors import InfeasibleTargetError
from steinsurf.invariants import (
    VARIANT_IMMERSED_NECESSARY,
    VARIANT_IMMERSED_SUFFICIENT,
    adjunction_rhs,
    check_adjunction,
    lai,
    oriented_class,
    stein_condition,
    unoriented_class,
    validate,
)
from steinsurf.localgeo import (
    Box4,
    PointC2,
    conjugate_graph,
    det_identity_check,
    double_point_scene,
    exhaustion_certificate,
    flow_to_surface,
    levi_closed,
    levi_fd,
    locate_complex_points,
    min_abs_complex_det,
    model_field,
    model_patch,
    psh_certificate,
    special_hyperbolic_scene,
    winding_index,
)
from steinsurf.localgeo.fields import MODEL_DOUBLE_POINT, MODEL_SPECIAL_HYPERBOLIC
from steinsurf.localgeo.patches import (
    MODEL_GRAPH_ELLIPTIC,
    MODEL_GRAPH_HYPERBOLIC,
    MODEL_SIGMA_MINUS,
    MODEL_SIGMA_PLUS,
    MODEL_WEINSTEIN,
)
from steinsurf.scenario import DEFAULT_SEED
from steinsurf import surgery as sg
from steinsurf.surgery import (
    PlanTarget,
    SurgeryStep,
    cp2_curve_class,
    plan_cp2,
    real_projective_plane_cp2,
    replay,
)


def _verdict(number: int, problems: list, started: float, budget: float | None):
    if budget is not None:
        elapsed = time.perf_counter() - started
        if elapsed >= budget:
            problems.append(f"took {elapsed:.2f}s, budget {budget}s")
    print(f"acceptance criterion {number}: {'FAIL' if problems else 'PASS'}")
    assert not problems, "; ".join(str(p) for p in problems)


def test_criterion_01_curve_index_arithmetic():
    started = time.perf_counter()
    problems = []
    for d in range(1, 7):
        report = lai(cp2_curve_class(d))
        if (report.positive, report.negative) != (3 * d, 0):
            problems.append(f"degree {d}: I+={report.positive}, I-={report.negative}")
    _verdict(1, problems, started, budget=1.0)


def test_criterion_02_projective_bounds_and_plans():
    started = time.perf_counter()
    problems = []
    for d in range(1, 11):
        rhs = adjunction_rhs(cp2_curve_class(d))
        if rhs != (d + 1) * (d + 2) // 2:
            problems.append(f"degree {d}: rhs {rhs}")
    for genus, dplus in ((3, 0), (0, 3)):
        recipe = plan_cp2(PlanTarget(orientable=True, genus=genus,
                                     delta_plus=dplus, degree=1))
        result = replay(recipe.base, list(recipe.steps))
        report = lai(result)
        if result != recipe.expected:
            problems.append(f"plan (1,{genus},{dplus}) replay mismatch")
        if report.positive > 0 or report.negative > 0:
            problems.append(
                f"plan (1,{genus},{dplus}): I+={report.positive}, I-={report.negative}"
            )
    try:
        plan_cp2(PlanTarget(orientable=True, genus=0, delta_plus=2, degree=1))
        problems.append("plan (1,0,2) was not rejected")
    except InfeasibleTargetError:
        pass
    _verdict(2, problems, started, budget=1.0)


def test_criterion_03_degree_one_double_point_search():
    started = time.perf_counter()
    problems = []
    for k in range(6):
        imm = oriented_class(0, normal_euler=1, c1_pairing=3,
                             delta_plus=k, delta_minus=k)
        if check_adjunction(imm, VARIANT_IMMERSED_SUFFICIENT).passed:
            problems.append(f"sufficient condition passed at k={k}")
        necessary = check_adjunction(imm, VARIANT_IMMERSED_NECESSARY).passed
        if necessary != (k >= 3):
            problems.append(f"necessary condition at k={k}: {necessary}")
    _verdict(3, problems, started, budget=1.0)


def test_criterion_04_cross_cap_tower():
    started = time.perf_counter()
    problems = []
    current = real_projective_plane_cp2()
    for k in range(11):
        report = lai(current)
        if current.genus != 1 + k or current.orientable:
            problems.append(f"k={k}: genus {current.genus}")
        if report.total != -3 * k:
            problems.append(f"k={k}: index {report.total}")
        if not stein_condition(current).passed:
            problems.append(f"k={k}: index condition failed")
        current = replay(current, [SurgeryStep(sg.STEP_ATTACH_RP2)])
    _verdict(4, problems, started, budget=None)


def _random_class(rng):
    orientable = bool(rng.integers(0, 2))
    genus = int(rng.integers(0 if orientable else 1, 16))
    normal_euler = int(rng.integers(-30, 31))
    c1 = int(rng.integers(-30, 31)) if orientable else 0
    if orientable and (2 - 2 * genus + normal_euler + c1) % 2 != 0:
        normal_euler += 1
    dplus = int(rng.integers(0, 5))
    dminus = int(rng.integers(0, 5))
    if orientable:
        return oriented_class(genus, normal_euler, c1, dplus, dminus)
    return unoriented_class(genus, normal_euler, dplus, dminus)


def _steps_for(imm):
    steps = [
        SurgeryStep(sg.STEP_ATTACH_TORUS),
        SurgeryStep(sg.STEP_ATTACH_RP2),
        SurgeryStep(sg.STEP_ATTACH_KLEIN),
        SurgeryStep(sg.STEP_CONNECTED_SUM, other=oriented_class(1, normal_euler=2)),
        SurgeryStep(sg.STEP_NORMALIZE),
    ]
    if imm.orientable:
        steps.append(SurgeryStep(sg.STEP_ATTACH_WEINSTEIN))
    if imm.delta_plus > 0:
        steps.append(SurgeryStep(sg.STEP_RESOLVE_POS_HANDLE))
    if imm.delta_minus > 0:
        steps.append(SurgeryStep(sg.STEP_RESOLVE_NEG_HANDLE))
        steps.append(SurgeryStep(sg.STEP_RESOLVE_NEG_BLOWUP))
    return steps


def test_criterion_05_surgery_conservation():
    rng = np.random.default_rng(DEFAULT_SEED)
    problems = []
    checked = 0
    for _ in range(10_000):
        imm = _random_class(rng)
        for step in _steps_for(imm):
            out = replay(imm, [step])
            checked += 1
            if not validate(out).passed:
                problems.append(f"{step.kind} produced invalid {out}")
                continue
            if out.self_intersection != out.normal_euler + 2 * (
                out.delta_plus - out.delta_minus
            ):
                problems.append(f"{step.kind}: self-intersection identity broken")
            if out.orientable:
                report = lai(out)
                if report.positive + report.negative != report.total:
                    problems.append(f"{step.kind}: index split broken")
        if imm.delta_plus > 0 and imm.orientable:
            out = replay(imm, [SurgeryStep(sg.STEP_RESOLVE_POS_HANDLE)])
            if (lai(out).positive, lai(out).negative) != (
                lai(imm).positive, lai(imm).negative
            ):
                problems.append("positive resolution changed I+-")
            if out.genus + out.delta_plus != imm.genus + imm.delta_plus:
                problems.append("positive resolution changed g + delta_plus")
        if imm.delta_minus > 0 and imm.orientable:
            out = replay(imm, [SurgeryStep(sg.STEP_RESOLVE_NEG_BLOWUP)])
            if adjunction_rhs(out) != adjunction_rhs(imm):
                problems.append("blow-up changed adjunction_rhs")
        if len(problems) > 5:
            break
    assert checked >= 10_000
    _verdict(5, problems, time.perf_counter(), budget=None)


def test_criterion_06_levi_oracle_equivalence():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(DEFAULT_SEED)
    for kind in (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT):
        fld = model_field(kind, with_jets=False)
        worst = 0.0
        for coords in rng.uniform(-1, 1, (100, 4)):
            p = PointC2.from_reals(*coords)
            fd = levi_fd(fld, p, h=1e-4)
            closed = levi_closed(kind, p)
            worst = max(
                worst,
                abs(fd.a11 - closed.a11),
                abs(fd.a22 - closed.a22),
                abs(fd.a12 - closed.a12),
            )
        if worst >= 1e-6:
            problems.append(f"{kind}: worst Levi entry error {worst:.3e}")
    failures = 0
    for coords in rng.uniform(-1, 1, (10_000, 4)):
        if not det_identity_check(PointC2.from_reals(*coords)).passed:
            failures += 1
    if failures:
        problems.append(f"det identity failed at {failures} points")
    _verdict(6, problems, started, budget=5.0)


def _distance_to_z_axis(point):
    x, y, _, _ = point
    return math.hypot(x, y)


def _distance_to_diagonal_lines(point):
    x, y, u, v = point
    return min(math.hypot(u + y, v - x), math.hypot(u - y, v + x))


def test_criterion_07_psh_certificates():
    started = time.perf_counter()
    problems = []
    box = Box4.symmetric(1.0)
    loci = {
        MODEL_SPECIAL_HYPERBOLIC: _distance_to_z_axis,
        MODEL_DOUBLE_POINT: _distance_to_diagonal_lines,
    }
    for kind in (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT):
        for jets, floor in ((True, 1e-9), (False, 1e-5)):
            fld = model_field(kind, with_jets=jets)
            cert = psh_certificate(fld, box, 0.05, floor)
            mode = "closed" if jets else "fd"
            if not cert.passed:
                problems.append(f"{kind} ({mode}) failed the sweep")
                continue
            eig = next(w for w in cert.witnesses if w.point[0] == "levi_min")
            distance = loci[kind](eig.point[1:])
            if distance > 1e-6:
                problems.append(
                    f"{kind} ({mode}) witness {distance:.2e} from its locus"
                )
    _verdict(7, problems, started, budget=60.0)


def test_criterion_08_complex_point_location():
    started = time.perf_counter()
    problems = []

    minus = model_patch(MODEL_SIGMA_MINUS, epsilon=0.1)
    found = locate_complex_points(minus, grid_step=0.1)
    r = math.sqrt(0.05)
    targets = [
        (sx * r, sx * r, su * r, -su * r) for sx in (1, -1) for su in (1, -1)
    ]
    if len(found) != 4:
        problems.append(f"Sigma-minus: found {len(found)} points")
    unmatched = list(targets)
    for hit in found:
        if hit.index != -1:
            problems.append(f"Sigma-minus point with index {hit.index}")
        coords = hit.point.reals
        if not unmatched:
            break
        best = min(unmatched, key=lambda t: math.dist(t, coords))
        if math.dist(best, coords) < 1e-4:
            unmatched.remove(best)
        else:
            problems.append(f"Sigma-minus point off target: {coords}")
    if unmatched and len(found) == 4:
        problems.append(f"{len(unmatched)} Sigma-minus targets unmatched")

    for kind, eps in ((MODEL_SIGMA_PLUS, 0.1), (MODEL_WEINSTEIN, None)):
        patch = model_patch(kind, epsilon=eps)
        if locate_complex_points(patch, grid_step=0.1):
            problems.append(f"{kind}: unexpected complex points")
        if min_abs_complex_det(patch) <= 0:
            problems.append(f"{kind}: no positive determinant floor")

    windings = {
        "elliptic": winding_index(model_patch(MODEL_GRAPH_ELLIPTIC), (0, 0), 0.5),
        "hyperbolic": winding_index(model_patch(MODEL_GRAPH_HYPERBOLIC), (0, 0), 0.5),
        "cubic": winding_index(conjugate_graph(3), (0, 0), 0.5),
    }
    if windings != {"elliptic": 1, "hyperbolic": -1, "cubic": -2}:
        problems.append(f"winding targets: {windings}")
    _verdict(8, problems, started, budget=30.0)


def test_criterion_09_retraction_flows():
    started = time.perf_counter()
    problems = []
    for kind in (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT):
        fld = model_field(kind)
        rng = np.random.default_rng(DEFAULT_SEED)
        done = 0
        while done < 100:
            coords = rng.uniform(-0.6, 0.6, 4)
            start = PointC2.from_reals(*coords)
            if fld.value_at(start) >= 0.01:
                continue
            done += 1
            result = flow_to_surface(fld, start)
            if not result.converged or result.final_value >= 1e-10:
                problems.append(f"{kind}: start {coords} final {result.final_value}")
            if any(b > a for a, b in zip(result.values, result.values[1:])):
                problems.append(f"{kind}: non-monotone values from {coords}")
    _verdict(9, problems, started, budget=30.0)


def test_criterion_10_exhaustion_certificates():
    started = time.perf_counter()
    problems = []
    scenes = (
        ("special-hyperbolic", special_hyperbolic_scene()),
        ("double-point", double_point_scene()),
    )
    for name, scene in scenes:
        good = exhaustion_certificate(scene, 0.01, 1e-3, grid_step=0.05)
        if not good.passed:
            problems.append(f"{name}: failed at delta=1e-3")
        bad = exhaustion_certificate(scene, 0.01, 10.0, grid_step=0.05)
        if bad.passed:
            problems.append(f"{name}: passed at delta=10")
        else:
            chart = scene
            c = chart.cutoff_argument(*bad.witnesses[0].point[1:])
            lo, hi = chart.cutoff_interval()
            if not lo < c < hi:
                problems.append(f"{name}: witness outside the cutoff annulus")
    _verdict(10, problems, started, budget=60.0)
