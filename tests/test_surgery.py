"""Tests for the surgery calculus: sums, attachments, resolutions, recipes."""

from itertools import groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from steinsurf import surgery as sg
from steinsurf.errors import InfeasibleTargetError, InvalidClassError, SurgeryError
from steinsurf.certificates import (
    RULE_CP2_EMBEDDED_BOUND,
    RULE_CP2_IMMERSED_BOUND,
    RULE_INDEX_NONPOSITIVE,
)
from steinsurf.invariants import (
    INT64_MAX,
    INT64_MIN,
    KIND_PROJECTIVE_PLANE,
    OUTCOME_STEIN,
    AmbientDescriptor,
    ImmersionClass,
    adjunction_rhs,
    lai,
    oriented_class,
    stein_condition,
    unoriented_class,
    validate,
    verdict,
)
from steinsurf.surgery import (
    PlanTarget,
    SurgeryRecipe,
    SurgeryStep,
    cp2_curve_class,
    cp2_line_config_sphere,
    klein_bottle_summand,
    normalize_complex_points,
    plan_cp2,
    read_recipe,
    real_projective_plane_cp2,
    replay,
    replay_trace,
    rp2_summand,
    totally_real_torus,
    weinstein_sphere_summand,
)

ATTACH_STEPS = (
    sg.STEP_ATTACH_TORUS,
    sg.STEP_ATTACH_RP2,
    sg.STEP_ATTACH_KLEIN,
    sg.STEP_ATTACH_WEINSTEIN,
)


@st.composite
def any_classes(draw):
    orientable = draw(st.booleans())
    g = draw(st.integers(1 if not orientable else 0, 15))
    ne = draw(st.integers(-25, 25))
    c1 = 0
    if orientable:
        c1 = draw(st.integers(-25, 25))
        if (2 - 2 * g + ne + c1) % 2 != 0:
            ne += 1
    dp = draw(st.integers(0, 4))
    dm = draw(st.integers(0, 4))
    if orientable:
        return oriented_class(g, ne, c1, dp, dm)
    return unoriented_class(g, ne, dp, dm)


def _replay_one(imm, kind, other=None):
    return replay(imm, [SurgeryStep(kind, other=other)])


# ---------------------------------------------------------------------------
# Summands and connected sums
# ---------------------------------------------------------------------------


def test_standard_summand_indices():
    assert lai(totally_real_torus()).total == 0
    assert lai(rp2_summand()).total == -1
    assert lai(klein_bottle_summand()).total == 0
    w = weinstein_sphere_summand()
    report = lai(w)
    assert (report.positive, report.negative) == (0, 0)
    assert w.delta_plus == 1 and w.self_intersection == 0


def test_connected_sum_drops_total_index_by_two():
    torus = totally_real_torus()
    out = _replay_one(torus, sg.STEP_CONNECTED_SUM, torus)
    assert out.genus == 2 and out.orientable
    assert lai(out).total == lai(torus).total * 2 - 2


def test_connected_sum_with_cross_cap():
    """Summing a projective plane onto an oriented surface turns every
    handle into two cross-caps and drops the total index by 3."""
    base = oriented_class(1)  # totally real torus, index 0
    out = _replay_one(base, sg.STEP_CONNECTED_SUM, rp2_summand())
    assert not out.orientable
    assert out.genus == 3  # 2 handles' worth of cross-caps plus one
    assert lai(out).total == -3


def test_connected_sum_sphere_is_neutral_topologically():
    base = oriented_class(2, normal_euler=4, c1_pairing=2, delta_plus=1)
    sphere = oriented_class(0)
    out = _replay_one(base, sg.STEP_CONNECTED_SUM, sphere)
    assert (out.genus, out.orientable) == (base.genus, base.orientable)
    assert out.normal_euler == base.normal_euler
    # index still drops: the sphere brings +2 of its own and the sum -2
    assert lai(out).total == lai(base).total


@given(any_classes(), any_classes())
def test_connected_sum_euler_characteristic(a, b):
    out = _replay_one(a, sg.STEP_CONNECTED_SUM, b)
    assert out.euler_char == a.euler_char + b.euler_char - 2
    assert out.orientable == (a.orientable and b.orientable)
    assert out.normal_euler == a.normal_euler + b.normal_euler
    assert out.delta_plus == a.delta_plus + b.delta_plus


# ---------------------------------------------------------------------------
# Attachments
# ---------------------------------------------------------------------------


def test_attach_torus_oriented():
    base = cp2_curve_class(1)
    out = _replay_one(base, sg.STEP_ATTACH_TORUS)
    r0, r1 = lai(base), lai(out)
    assert out.genus == base.genus + 1
    assert r1.positive == r0.positive - 1
    assert r1.negative == r0.negative - 1


def test_attach_torus_unorientable_drops_two():
    base = klein_bottle_summand()
    out = _replay_one(base, sg.STEP_ATTACH_TORUS)
    assert out.genus == base.genus + 2  # one handle = two cross-caps
    assert lai(out).total == lai(base).total - 2


def test_attach_rp2_tower():
    """Cross-cap attachments on the real projective plane: genus 1+k,
    total index -3k, always satisfying the index condition."""
    current = real_projective_plane_cp2()
    for k in range(11):
        assert current.genus == 1 + k
        assert not current.orientable
        assert lai(current).total == -3 * k
        assert stein_condition(current).passed
        current = _replay_one(current, sg.STEP_ATTACH_RP2)


def test_attach_klein():
    base = oriented_class(0)
    out = _replay_one(base, sg.STEP_ATTACH_KLEIN)
    assert not out.orientable and out.genus == 2
    assert lai(out).total == lai(base).total - 2


def test_attach_weinstein_sphere():
    base = cp2_curve_class(1)
    out = _replay_one(base, sg.STEP_ATTACH_WEINSTEIN)
    assert out.genus == base.genus and out.orientable
    assert out.delta_plus == base.delta_plus + 1
    assert out.self_intersection == base.self_intersection
    r0, r1 = lai(base), lai(out)
    assert r1.positive == r0.positive - 1
    assert r1.negative == r0.negative - 1


def test_attach_weinstein_needs_orientable_base():
    with pytest.raises(SurgeryError, match="Weinstein sphere attachment needs an orientable base"):
        _replay_one(rp2_summand(), sg.STEP_ATTACH_WEINSTEIN)


@given(any_classes(), st.sampled_from(ATTACH_STEPS))
def test_attach_preserves_validity(imm, kind):
    if kind == sg.STEP_ATTACH_WEINSTEIN and not imm.orientable:
        return
    out = _replay_one(imm, kind)
    assert validate(out).passed
    if out.orientable:
        r = lai(out)
        assert r.positive + r.negative == r.total


# ---------------------------------------------------------------------------
# Double point resolutions
# ---------------------------------------------------------------------------


def test_resolve_positive_handle():
    base = cp2_line_config_sphere(3)  # sphere, one positive double point
    out = _replay_one(base, sg.STEP_RESOLVE_POS_HANDLE)
    assert out.genus == 1 and out.delta_plus == 0
    assert out.normal_euler == base.normal_euler + 2
    assert out.self_intersection == base.self_intersection
    r0, r1 = lai(base), lai(out)
    assert (r1.positive, r1.negative) == (r0.positive, r0.negative)
    assert out.genus + out.delta_plus == base.genus + base.delta_plus


def test_resolve_negative_handle():
    base = oriented_class(0, normal_euler=2, delta_minus=1)
    out = _replay_one(base, sg.STEP_RESOLVE_NEG_HANDLE)
    assert out.genus == 1 and out.delta_minus == 0
    assert out.self_intersection == base.self_intersection
    r0, r1 = lai(base), lai(out)
    assert r1.positive == r0.positive - 2
    assert r1.negative == r0.negative - 2


def test_resolve_negative_blowup():
    base = oriented_class(2, normal_euler=4, c1_pairing=2, delta_minus=2)
    out = _replay_one(base, sg.STEP_RESOLVE_NEG_BLOWUP)
    assert (out.genus, out.orientable) == (base.genus, base.orientable)
    assert out.delta_minus == base.delta_minus - 1
    assert out.self_intersection == base.self_intersection
    assert adjunction_rhs(out) == adjunction_rhs(base)


def test_resolution_preconditions():
    embedded = oriented_class(1)
    with pytest.raises(SurgeryError, match="no positive double point to resolve"):
        _replay_one(embedded, sg.STEP_RESOLVE_POS_HANDLE)
    for base in (embedded, oriented_class(0, delta_plus=1)):
        for kind in (sg.STEP_RESOLVE_NEG_HANDLE, sg.STEP_RESOLVE_NEG_BLOWUP):
            with pytest.raises(SurgeryError, match="no negative double point to resolve"):
                _replay_one(base, kind)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def test_normalize_examples():
    # Degree-1 curve: 3 positive elliptic points survive.
    form = normalize_complex_points(cp2_curve_class(1))
    assert (form.special_elliptic, form.special_hyperbolic_pos,
            form.special_hyperbolic_neg) == (3, 0, 0)
    # Planned genus-3 degree-1 class: indices 0 and -3.
    imm = oriented_class(3, normal_euler=1, c1_pairing=3)
    form = normalize_complex_points(imm)
    assert (form.special_elliptic, form.special_hyperbolic_pos,
            form.special_hyperbolic_neg) == (0, 0, 3)
    # Unorientable with negative total index.
    form = normalize_complex_points(unoriented_class(4, normal_euler=-1))
    assert (form.special_elliptic, form.special_hyperbolic_pos,
            form.special_hyperbolic_neg) == (0, 3, 0)


@given(any_classes())
def test_normalize_counts_are_minimal(imm):
    form = normalize_complex_points(imm)
    report = lai(imm)
    assert form.special_elliptic >= 0
    assert form.special_hyperbolic_pos >= 0
    assert form.special_hyperbolic_neg >= 0
    if imm.orientable:
        assert (form.special_elliptic - form.special_hyperbolic_pos
                - form.special_hyperbolic_neg) == report.total
        # never elliptic and hyperbolic points in the same orientation class
        assert not (form.special_elliptic and
                    (form.special_hyperbolic_pos and form.special_hyperbolic_neg))


# ---------------------------------------------------------------------------
# Steps, replay, recipes
# ---------------------------------------------------------------------------


def test_step_validation():
    with pytest.raises(SurgeryError):
        SurgeryStep("Fold")
    with pytest.raises(SurgeryError):
        SurgeryStep(sg.STEP_CONNECTED_SUM)  # missing other
    with pytest.raises(SurgeryError):
        SurgeryStep(sg.STEP_ATTACH_TORUS, other=oriented_class(0))


def test_step_json_round_trip():
    plain = SurgeryStep(sg.STEP_ATTACH_KLEIN)
    assert SurgeryStep.from_json(plain.to_json()) == plain
    summed = SurgeryStep(sg.STEP_CONNECTED_SUM, other=oriented_class(1))
    assert SurgeryStep.from_json(summed.to_json()) == summed
    with pytest.raises(SurgeryError):
        SurgeryStep.from_json({"kind": sg.STEP_ATTACH_TORUS, "note": "hi"})


def test_replay_reports_failing_position():
    base = oriented_class(0, normal_euler=-2, delta_plus=1)
    steps = [
        SurgeryStep(sg.STEP_RESOLVE_POS_HANDLE),
        SurgeryStep(sg.STEP_RESOLVE_POS_HANDLE),  # nothing left to resolve
    ]
    with pytest.raises(SurgeryError) as exc:
        replay(base, steps)
    assert exc.value.position == 2


def test_replay_reports_the_step_that_leaves_int64():
    """A value leaving int64 fails its step like any precondition: the
    error names the step and carries its position."""
    base = oriented_class(0, normal_euler=-2**63 + 2)
    steps = [SurgeryStep(k) for k in (sg.STEP_ATTACH_TORUS, sg.STEP_ATTACH_RP2, sg.STEP_ATTACH_RP2)]
    for run in (replay, replay_trace):
        with pytest.raises(SurgeryError) as exc:
            run(base, steps)
        assert exc.value.position == 3
        assert str(exc.value) == (
            "step 3 (AttachRP2) failed: "
            "normal_euler out of signed 64-bit range: -9223372036854775810"
        )
        assert isinstance(exc.value.__cause__, InvalidClassError)


PARITY = (
    "parity violation: euler_char + normal_euler + c1_pairing is odd, "
    "the signed index split would not be integral"
)


def test_replay_refuses_a_base_that_fails_the_parity_check():
    """chi + e + c1 = 3 is odd: the base is refused before any step, at
    position 0, instead of replaying to a parity-invalid result."""
    base = oriented_class(0, normal_euler=1)
    for run in (replay, replay_trace):
        with pytest.raises(SurgeryError) as exc:
            run(base, [SurgeryStep(sg.STEP_ATTACH_TORUS)])
        assert exc.value.position == 0
        assert str(exc.value) == f"base class failed: {PARITY}"


def test_connected_sum_refuses_a_class_that_fails_the_parity_check():
    odd = oriented_class(0, normal_euler=1)
    torus = SurgeryStep(sg.STEP_ATTACH_TORUS)
    # One ConnectedSum, then a run of three equal ones: the run fails at its first step.
    for steps in ([torus, SurgeryStep(sg.STEP_CONNECTED_SUM, odd)],
                  [torus] + [SurgeryStep(sg.STEP_CONNECTED_SUM, odd)] * 3):
        for run in (replay, replay_trace):
            with pytest.raises(SurgeryError) as exc:
                run(oriented_class(1), steps)
            assert exc.value.position == 2
            assert str(exc.value) == f"step 2 (ConnectedSum) failed: {PARITY}"
            assert isinstance(exc.value.__cause__, InvalidClassError)
    # An unorientable summand carries no index split, so no parity check.
    assert replay(oriented_class(1), [SurgeryStep(sg.STEP_CONNECTED_SUM,
                                                  unoriented_class(1, normal_euler=1))])


def test_replay_trace_annotations():
    base = oriented_class(0, normal_euler=2, c1_pairing=4, delta_minus=1)
    steps = [
        SurgeryStep(sg.STEP_RESOLVE_NEG_BLOWUP),
        SurgeryStep(sg.STEP_NORMALIZE),
    ]
    result, trace = replay_trace(base, steps)
    assert result.delta_minus == 0
    assert "exceptional sphere" in trace[0]["annotation"]
    assert trace[1]["kind"] == sg.STEP_NORMALIZE
    assert "normal form" in trace[1]["annotation"]
    assert trace[1]["result"] == result.to_json()
    assert [e["position"] for e in trace] == [1, 2]


def test_recipe_self_checks():
    base = cp2_curve_class(1)
    steps = (SurgeryStep(sg.STEP_ATTACH_TORUS),) * 3
    expected = replay(base, list(steps))
    recipe = SurgeryRecipe(base=base, steps=steps, expected=expected)
    assert SurgeryRecipe(*read_recipe(recipe.to_json())) == recipe
    with pytest.raises(SurgeryError):
        SurgeryRecipe(base=base, steps=steps, expected=base)
    tampered = recipe.to_json()
    tampered["expected"]["normal_euler"] += 2
    with pytest.raises(SurgeryError):
        SurgeryRecipe(*read_recipe(tampered))


# ---------------------------------------------------------------------------
# Conservation properties across all step kinds
# ---------------------------------------------------------------------------


def _applicable_steps(imm):
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


@settings(max_examples=300)
@given(any_classes())
def test_every_step_preserves_structural_identities(imm):
    for step in _applicable_steps(imm):
        out = replay(imm, [step])
        assert validate(out).passed
        report = lai(out)
        if out.orientable:
            assert report.positive + report.negative == report.total
        assert out.self_intersection == out.normal_euler + 2 * (
            out.delta_plus - out.delta_minus
        )


@settings(max_examples=200)
@given(any_classes())
def test_positive_resolution_conserves_indices_and_budget(imm):
    if imm.delta_plus == 0:
        return
    out = _replay_one(imm, sg.STEP_RESOLVE_POS_HANDLE)
    if imm.orientable:
        assert out.genus + out.delta_plus == imm.genus + imm.delta_plus
        before, after = lai(imm), lai(out)
        assert (after.positive, after.negative) == (before.positive, before.negative)
    else:
        # a handle on a non-orientable surface is worth two cross-caps
        assert out.genus == imm.genus + 2
        assert out.delta_plus == imm.delta_plus - 1
        assert lai(out).total == lai(imm).total


@settings(max_examples=200)
@given(any_classes())
def test_blowup_conserves_adjunction_rhs(imm):
    if imm.delta_minus == 0 or not imm.orientable:
        return
    out = _replay_one(imm, sg.STEP_RESOLVE_NEG_BLOWUP)
    assert adjunction_rhs(out) == adjunction_rhs(imm)
    assert out.genus == imm.genus


# ---------------------------------------------------------------------------
# The fold against the per-move formulas it replaced
# ---------------------------------------------------------------------------


def _ref_connected_sum(a, b):
    chi = a.euler_char + b.euler_char - 2
    orientable = a.orientable and b.orientable
    genus = (2 - chi) // 2 if orientable else 2 - chi
    return ImmersionClass(
        genus=genus,
        orientable=orientable,
        normal_euler=a.normal_euler + b.normal_euler,
        c1_pairing=a.c1_pairing + b.c1_pairing,
        delta_plus=a.delta_plus + b.delta_plus,
        delta_minus=a.delta_minus + b.delta_minus,
    )


_REF_SUMMANDS = {
    sg.STEP_ATTACH_TORUS: totally_real_torus,
    sg.STEP_ATTACH_RP2: rp2_summand,
    sg.STEP_ATTACH_KLEIN: klein_bottle_summand,
    sg.STEP_ATTACH_WEINSTEIN: weinstein_sphere_summand,
}


def _ref_attach(imm, kind):
    if kind == sg.STEP_ATTACH_WEINSTEIN and not imm.orientable:
        raise SurgeryError("Weinstein sphere attachment needs an orientable base")
    return _ref_connected_sum(imm, _REF_SUMMANDS[kind]())


def _ref_resolve_double_point(imm, sign, blowup=False):
    if sign == +1:
        if imm.delta_plus == 0:
            raise SurgeryError("no positive double point to resolve")
    elif imm.delta_minus == 0:
        raise SurgeryError("no negative double point to resolve")
    if blowup:
        return ImmersionClass(imm.genus, imm.orientable, imm.normal_euler - 2, imm.c1_pairing,
                              imm.delta_plus, imm.delta_minus - 1)
    chi = imm.euler_char - 2
    genus = (2 - chi) // 2 if imm.orientable else 2 - chi
    if sign == +1:
        return ImmersionClass(genus, imm.orientable, imm.normal_euler + 2, imm.c1_pairing,
                              imm.delta_plus - 1, imm.delta_minus)
    return ImmersionClass(genus, imm.orientable, imm.normal_euler - 2, imm.c1_pairing,
                          imm.delta_plus, imm.delta_minus - 1)


def _ref_step(imm, step):
    kind = step.kind
    if kind == sg.STEP_CONNECTED_SUM:
        return _ref_connected_sum(imm, step.other), None
    if kind in _REF_SUMMANDS:
        return _ref_attach(imm, kind), None
    if kind == sg.STEP_RESOLVE_POS_HANDLE:
        return _ref_resolve_double_point(imm, +1), None
    if kind == sg.STEP_RESOLVE_NEG_HANDLE:
        return _ref_resolve_double_point(imm, -1), None
    if kind == sg.STEP_RESOLVE_NEG_BLOWUP:
        out = _ref_resolve_double_point(imm, -1, blowup=True)
        return out, "ambient blown up: one exceptional sphere added"
    form = normalize_complex_points(imm)
    return imm, (f"normal form: {form.special_elliptic} elliptic, "
                 f"{form.special_hyperbolic_pos}+{form.special_hyperbolic_neg} hyperbolic")


def _ref_replay_trace(base, steps):
    """(final class, trace, error message, failing position); the class
    is None when a step fails, and a base whose Euler characteristic
    leaves int64 fails at position 0."""
    try:
        base.euler_char
    except InvalidClassError as exc:
        return None, [], f"base class failed: {exc}", 0
    current, trace = base, []
    for position, step in enumerate(steps, start=1):
        try:
            current, note = _ref_step(current, step)
        except (SurgeryError, InvalidClassError) as exc:
            return None, trace, f"step {position} ({step.kind}) failed: {exc}", position
        entry = {"position": position, "kind": step.kind, "result": current.to_json()}
        if note is not None:
            entry["annotation"] = note
        trace.append(entry)
    return current, trace, None, None


def _small_or_edge(draw, lo, hi, edge):
    """An integer in [lo, hi], or one time in eight an integer within 6
    of ``edge``."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.integers(edge - 6, edge) if edge > 0 else st.integers(edge, edge + 6))
    return draw(st.integers(lo, hi))


@st.composite
def fold_classes(draw):
    """Valid classes, orientable or not, some with integers at the int64
    edges so that a few steps leave the range."""
    orientable = draw(st.booleans())
    g = _small_or_edge(draw, 0 if orientable else 1, 6, INT64_MAX)
    ne = _small_or_edge(draw, -12, 12, draw(st.sampled_from((INT64_MIN, INT64_MAX))))
    c1 = 0
    if orientable:
        c1 = _small_or_edge(draw, -12, 12, draw(st.sampled_from((INT64_MIN, INT64_MAX))))
        if (ne + c1) % 2 != 0:
            ne += -1 if ne > 0 else 1
    dp = _small_or_edge(draw, 0, 3, INT64_MAX)
    dm = _small_or_edge(draw, 0, 3, INT64_MAX)
    if orientable:
        return oriented_class(g, ne, c1, dp, dm)
    return unoriented_class(g, ne, dp, dm)


fold_steps = st.one_of(
    st.sampled_from([k for k in sg.STEP_KINDS if k != sg.STEP_CONNECTED_SUM]).map(SurgeryStep),
    fold_classes().map(lambda other: SurgeryStep(sg.STEP_CONNECTED_SUM, other=other)),
)


@settings(max_examples=400, deadline=None)
@given(fold_classes(), st.lists(fold_steps, max_size=10))
def test_fold_matches_the_per_move_formulas(base, steps):
    """The translation table and the fold reproduce the connected sum,
    attachment and resolution formulas step by step: the same classes,
    the same trace entries, and the same failures at the same positions
    (Weinstein spheres on unorientable bases, over-resolution, values
    leaving int64)."""
    final, trace, error, position = _ref_replay_trace(base, steps)
    if error is None:
        assert replay(base, steps) == final
        assert replay_trace(base, steps) == (final, trace)
        return
    for run in (replay, replay_trace):
        with pytest.raises(SurgeryError) as exc:
            run(base, steps)
        assert (str(exc.value), exc.value.position) == (error, position)


@st.composite
def step_runs(draw):
    """One to four runs of equal steps, of any kind and up to 40 long.  A
    ConnectedSum run repeats one ``other``; a run is one shared step or
    equal copies of it."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sg.STEP_KINDS))
        other = draw(fold_classes()) if kind == sg.STEP_CONNECTED_SUM else None
        count = draw(st.integers(1, 40))
        if draw(st.booleans()):
            steps += [SurgeryStep(kind, other)] * count
        else:
            steps += [SurgeryStep(kind, other) for _ in range(count)]
    return steps


def _run(kind, count):
    return [SurgeryStep(kind)] * count


@settings(max_examples=300, deadline=None)
@given(fold_classes(), step_runs())
# Delta plus runs out at step 4 of 10, then at step 6 in the second run.
@example(oriented_class(0, normal_euler=-2, delta_plus=3), _run(sg.STEP_RESOLVE_POS_HANDLE, 10))
@example(oriented_class(0, delta_plus=2),
         _run(sg.STEP_ATTACH_TORUS, 3) + _run(sg.STEP_RESOLVE_POS_HANDLE, 10))
# normal_euler passes INT64_MIN at step 5, delta_plus INT64_MAX at step 4.
@example(oriented_class(0, normal_euler=INT64_MIN + 8), _run(sg.STEP_ATTACH_WEINSTEIN, 10))
@example(oriented_class(0, normal_euler=-2, delta_plus=INT64_MAX - 3),
         _run(sg.STEP_ATTACH_WEINSTEIN, 10))
# chi = INT64_MIN + 8 - 2k after k tori: the input of step 6 leaves int64;
# the output of a last step is not checked, so five tori pass.
@example(oriented_class(2**62 - 3), _run(sg.STEP_ATTACH_TORUS, 10))
@example(oriented_class(2**62 - 3), _run(sg.STEP_ATTACH_TORUS, 5))
# Runs that fail at their first step: a Weinstein sphere on an
# unorientable base, a positive double point where there is none.
@example(unoriented_class(2), _run(sg.STEP_ATTACH_WEINSTEIN, 5))
@example(oriented_class(2), _run(sg.STEP_RESOLVE_POS_HANDLE, 5))
# A sphere made unorientable: genus 0 would fail the cross-cap check.
@example(oriented_class(0), _run(sg.STEP_ATTACH_RP2, 5))
def test_runs_of_equal_steps_match_the_per_move_formulas(base, steps):
    """A run of equal steps, replayed as one ``_apply_step(imm, step,
    count)`` call, gives the same class, trace, message and position as
    the per-move formulas applied one step at a time, including runs that
    fail part-way through."""
    final, trace, error, position = _ref_replay_trace(base, steps)
    if error is None:
        assert replay(base, steps) == final
        assert replay_trace(base, steps) == (final, trace)
        return
    for run in (replay, replay_trace):
        with pytest.raises(SurgeryError) as exc:
            run(base, steps)
        assert (str(exc.value), exc.value.position) == (error, position)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def test_plan_embedded_degree_one():
    recipe = plan_cp2(PlanTarget(orientable=True, genus=3, degree=1))
    assert [s.kind for s in recipe.steps] == [sg.STEP_ATTACH_TORUS] * 3
    report = lai(recipe.expected)
    assert report.positive <= 0 and report.negative <= 0
    assert recipe.expected.genus == 3
    assert recipe.expected.self_intersection == 1


def test_plan_immersed_degree_one():
    recipe = plan_cp2(PlanTarget(orientable=True, genus=0, delta_plus=3, degree=1))
    kinds = [s.kind for s in recipe.steps]
    assert kinds == [sg.STEP_ATTACH_WEINSTEIN] * 3
    assert recipe.expected.delta_plus == 3
    report = lai(recipe.expected)
    assert report.positive <= 0 and report.negative <= 0


def test_plan_immersed_with_resolutions():
    recipe = plan_cp2(PlanTarget(orientable=True, genus=2, delta_plus=4, degree=1))
    kinds = [s.kind for s in recipe.steps]
    assert kinds.count(sg.STEP_ATTACH_WEINSTEIN) == 6
    assert kinds.count(sg.STEP_RESOLVE_POS_HANDLE) == 2
    assert recipe.expected.genus == 2
    assert recipe.expected.delta_plus == 4
    assert stein_condition(recipe.expected).passed


def test_plan_unorientable():
    recipe = plan_cp2(PlanTarget(orientable=False, genus=3))
    assert recipe.base == real_projective_plane_cp2()
    assert [s.kind for s in recipe.steps] == [sg.STEP_ATTACH_RP2] * 2
    assert recipe.expected.genus == 3
    assert stein_condition(recipe.expected).passed


def test_plan_rejects_infeasible_targets():
    with pytest.raises(InfeasibleTargetError) as exc:
        plan_cp2(PlanTarget(orientable=True, genus=0, delta_plus=2, degree=1))
    assert exc.value.rule == RULE_CP2_IMMERSED_BOUND
    with pytest.raises(InfeasibleTargetError) as exc:
        plan_cp2(PlanTarget(orientable=True, genus=2, degree=1))
    assert exc.value.rule == RULE_CP2_EMBEDDED_BOUND
    with pytest.raises(InfeasibleTargetError) as exc:
        plan_cp2(PlanTarget(orientable=True, genus=5, degree=2))
    assert exc.value.rule == RULE_CP2_EMBEDDED_BOUND


def _old_refusal(target):
    """The planner's own bound check, as it stood before it asked the
    verdict ladder: the message and rule of an infeasible orientable
    target, or None when the target is feasible."""
    d, total = target.degree, target.genus + target.delta_plus
    bound = (d + 1) * (d + 2) // 2
    if total >= bound:
        return None
    rule = RULE_CP2_EMBEDDED_BOUND if target.delta_plus == 0 else RULE_CP2_IMMERSED_BOUND
    return (f"infeasible target: genus + delta_plus = {total} "
            f"< {bound} = (d+1)(d+2)/2 for degree {d}"), rule


_NEAR_BOUND_TARGETS = [
    PlanTarget(orientable=True, genus=total - dplus, delta_plus=dplus, degree=d)
    for d in range(1, 7)
    for total in range((d + 1) * (d + 2) // 2 - 3, (d + 1) * (d + 2) // 2 + 4)
    for dplus in range(0, 4)
    if total - dplus >= 0
]


def test_plan_succeeds_exactly_when_the_verdict_is_stein():
    """The planner refuses a target exactly when the verdict ladder calls
    its class NoSteinNeighborhood in the projective plane, with that
    verdict's rule and the planner's former message."""
    cp2 = AmbientDescriptor(KIND_PROJECTIVE_PLANE, stein=False)
    unorientable = [PlanTarget(orientable=False, genus=g) for g in range(1, 6)]
    outcomes = set()
    for target in _NEAR_BOUND_TARGETS + unorientable:
        v = verdict(sg._target_class(target), cp2, class_nonzero=True)
        outcomes.add(v.rule)
        if v.outcome == OUTCOME_STEIN:
            assert not target.orientable or _old_refusal(target) is None, target
            assert plan_cp2(target).expected == sg._target_class(target)
            continue
        with pytest.raises(InfeasibleTargetError) as exc:
            plan_cp2(target)
        assert exc.value.rule == v.rule
        assert (str(exc.value), exc.value.rule) == _old_refusal(target)
    assert outcomes == {RULE_INDEX_NONPOSITIVE, RULE_CP2_EMBEDDED_BOUND, RULE_CP2_IMMERSED_BOUND}


def test_projective_plane_base_classes_refuse_degree_zero():
    with pytest.raises(SurgeryError, match=r"^curve degree must be >= 1, got 0$"):
        cp2_curve_class(0)
    with pytest.raises(SurgeryError, match=r"^configuration degree must be >= 1, got 0$"):
        cp2_line_config_sphere(0)


def test_plan_rejects_malformed_targets():
    for target in (
        PlanTarget(orientable=True, genus=-1, degree=1),
        PlanTarget(orientable=True, genus=3, degree=None),
        PlanTarget(orientable=True, genus=3, degree=0),
        PlanTarget(orientable=False, genus=1, degree=1),
        PlanTarget(orientable=False, genus=1, delta_plus=1),
        PlanTarget(orientable=False, genus=0),
    ):
        with pytest.raises(InfeasibleTargetError) as exc:
            plan_cp2(target)
        assert exc.value.rule == "input"


PLAN_TARGETS = [
    PlanTarget(orientable=True, genus=3, degree=1),
    PlanTarget(orientable=True, genus=2, delta_plus=4, degree=1),
    PlanTarget(orientable=True, genus=9, delta_plus=2, degree=3),
    PlanTarget(orientable=False, genus=5),
]


@pytest.mark.parametrize("target", PLAN_TARGETS, ids=["embedded", "immersed", "cubic", "rp2"])
def test_plan_replays_its_steps_once(monkeypatch, target):
    """The planner states the target class and lets the recipe's own
    replay check it, instead of replaying once more to find it."""
    calls = []

    def counting(base, steps):
        calls.append(len(steps))
        return replay(base, steps)

    monkeypatch.setattr(sg, "replay", counting)
    recipe = plan_cp2(target)
    assert calls == [len(recipe.steps)]


def test_plan_whose_steps_miss_the_target_is_refused(monkeypatch):
    monkeypatch.setattr(sg, "cp2_curve_class", lambda d: cp2_curve_class(d + 1))
    with pytest.raises(SurgeryError, match="expected class"):
        plan_cp2(PlanTarget(orientable=True, genus=10, degree=1))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3))
def test_plan_round_trip(degree, extra_genus, delta_plus):
    """Feasible targets replay to a class with the requested shape, the
    right projective pairings, and nonpositive indices."""
    bound = (degree + 1) * (degree + 2) // 2
    genus = max(bound - delta_plus, 0) + extra_genus
    target = PlanTarget(orientable=True, genus=genus, delta_plus=delta_plus, degree=degree)
    recipe = plan_cp2(target)
    out = recipe.expected
    assert out.genus == genus
    assert out.delta_plus == delta_plus
    assert out.delta_minus == 0
    assert out.self_intersection == degree * degree
    assert out.c1_pairing == 3 * degree
    assert stein_condition(out).passed
    assert replay(recipe.base, list(recipe.steps)) == out


PLAN_KINDS = {1: "embedded", 3: "immersed", None: "rp2"}
COUNTED_PLANS = [
    PlanTarget(orientable=True, genus=genus, degree=1)
    for genus in (10, 10**4, sg.MAX_PLAN_STEPS)
] + [
    # 2 * genus + 6 steps: Weinstein spheres, then resolutions.
    PlanTarget(orientable=True, genus=genus, delta_plus=7, degree=3)
    for genus in (10, 10**4, sg.MAX_PLAN_STEPS // 2 - 3)
] + [
    PlanTarget(orientable=False, genus=genus) for genus in (10, 10**4, sg.MAX_PLAN_STEPS + 1)
]


@pytest.mark.parametrize("target", COUNTED_PLANS,
                         ids=lambda t: f"{PLAN_KINDS[t.degree]}-{t.genus}")
def test_plan_applies_one_step_per_run(monkeypatch, target):
    """Checking a plan applies one step per run of equal steps, at most
    two, whatever the genus; up to MAX_PLAN_STEPS step records."""
    calls = []
    apply_step = sg._apply_step

    def counting(imm, step, *rest):
        calls.append(step.kind)
        return apply_step(imm, step, *rest)

    monkeypatch.setattr(sg, "_apply_step", counting)
    recipe = plan_cp2(target)
    runs = [kind for kind, _ in groupby(step.kind for step in recipe.steps)]
    assert calls == runs
    assert len(runs) <= 2
    assert recipe.expected.genus == target.genus
