"""Tests for the integer invariant layer: indices, genus bounds, verdicts."""

import pytest
from hypothesis import given, settings, strategies as st

from steinsurf import invariants as inv
from steinsurf.errors import InvalidClassError
from steinsurf.invariants import (
    AmbientDescriptor,
    ImmersionClass,
    SurfaceTopology,
    adjunction_rhs,
    check_adjunction,
    euler_char,
    lai,
    oriented_class,
    stein_condition,
    unoriented_class,
    validate,
    verdict,
)
from steinsurf.certificates import (
    RULE_AMBIENT_NOT_STEIN,
    RULE_CP2_EMBEDDED_BOUND,
    RULE_CP2_IMMERSED_BOUND,
    RULE_GRAY_AREA,
    RULE_INDEX_NONPOSITIVE,
    RULE_NULL_CLASS_UNRESOLVED,
    RULE_STEIN_AMBIENT_EMBEDDED,
    RULE_UNORIENTABLE_UNRESOLVED,
)

C2 = AmbientDescriptor(inv.KIND_AFFINE_PLANE, stein=True)
CP2 = AmbientDescriptor(inv.KIND_PROJECTIVE_PLANE, stein=False)


def _abstract(normal_euler, c1_pairing, stein):
    return AmbientDescriptor(inv.KIND_ABSTRACT, stein=stein,
                             normal_euler=normal_euler, c1_pairing=c1_pairing)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def oriented_classes(draw, max_genus=20, span=30, max_dp=5):
    """Orientable classes passing the parity check."""
    g = draw(st.integers(0, max_genus))
    ne = draw(st.integers(-span, span))
    c1 = draw(st.integers(-span, span))
    if (2 - 2 * g + ne + c1) % 2 != 0:
        ne += 1
    dp = draw(st.integers(0, max_dp))
    dm = draw(st.integers(0, max_dp))
    return oriented_class(g, ne, c1, dp, dm)


@st.composite
def unoriented_classes(draw, max_genus=20, span=30, max_dp=5):
    g = draw(st.integers(1, max_genus))
    ne = draw(st.integers(-span, span))
    dp = draw(st.integers(0, max_dp))
    dm = draw(st.integers(0, max_dp))
    return unoriented_class(g, ne, dp, dm)


# ---------------------------------------------------------------------------
# Topology and class construction
# ---------------------------------------------------------------------------


def test_euler_char_table():
    assert euler_char(SurfaceTopology(0, True)) == 2
    assert euler_char(SurfaceTopology(1, True)) == 0
    assert euler_char(SurfaceTopology(2, True)) == -2
    assert euler_char(SurfaceTopology(1, False)) == 1  # projective plane
    assert euler_char(SurfaceTopology(2, False)) == 0  # Klein bottle


def test_topology_rejects_bad_genus():
    with pytest.raises(InvalidClassError):
        SurfaceTopology(-1, True)
    with pytest.raises(InvalidClassError):
        SurfaceTopology(0, False)  # no closed unorientable surface without cross-caps


def test_class_rejects_bad_fields():
    with pytest.raises(InvalidClassError):
        oriented_class(0, delta_plus=-1)
    with pytest.raises(InvalidClassError):
        oriented_class(0, normal_euler=2**63)
    with pytest.raises(InvalidClassError):
        ImmersionClass(SurfaceTopology(0, True), True, 0, 0, 0)  # bool is not an int here
    with pytest.raises(InvalidClassError):
        ImmersionClass(SurfaceTopology(0, True), 0.5, 0, 0, 0)


def test_class_properties():
    imm = oriented_class(2, normal_euler=3, c1_pairing=1, delta_plus=2, delta_minus=1)
    assert imm.euler_char == -2
    assert imm.delta == 1
    assert imm.self_intersection == 5
    assert not imm.embedded
    assert oriented_class(0).embedded


def test_class_json_round_trip():
    imm = oriented_class(3, normal_euler=-4, c1_pairing=2, delta_plus=1)
    assert ImmersionClass.from_json(imm.to_json()) == imm
    record = imm.to_json()
    record["extra"] = 1
    with pytest.raises(InvalidClassError):
        ImmersionClass.from_json(record)
    with pytest.raises(InvalidClassError):
        ImmersionClass.from_json({"topology": {"genus": 0, "orientable": True}})


# ---------------------------------------------------------------------------
# Index computation
# ---------------------------------------------------------------------------


def test_validate_parity():
    assert validate(oriented_class(0, normal_euler=-2)).passed
    bad = oriented_class(0, normal_euler=1)  # 2 + 1 is odd
    cert = validate(bad)
    assert not cert.passed
    names = [w.point for w in cert.witnesses]
    assert "parity_sum" in names


def test_validate_unorientable_always_passes():
    assert validate(unoriented_class(1, normal_euler=-1)).passed
    assert validate(unoriented_class(2, normal_euler=3)).passed


def test_lai_totally_real_torus():
    report = lai(oriented_class(1))
    assert (report.total, report.positive, report.negative) == (0, 0, 0)


def test_lai_complex_curves():
    # Degree-d curves: genus (d-1)(d-2)/2, all complex points positive.
    for d in range(1, 7):
        imm = oriented_class((d - 1) * (d - 2) // 2, normal_euler=d * d, c1_pairing=3 * d)
        report = lai(imm)
        assert report.positive == 3 * d
        assert report.negative == 0
        assert report.total == 3 * d


def test_lai_unorientable_examples():
    # Projective plane in the affine plane with normal Euler number -2.
    assert lai(unoriented_class(1, normal_euler=-2)).total == -1
    # The real projective plane in the complex one is totally real.
    assert lai(unoriented_class(1, normal_euler=-1)).total == 0
    assert lai(unoriented_class(2)).total == 0
    assert lai(unoriented_class(1, normal_euler=-2)).positive is None


def test_lai_rejects_parity_violation():
    with pytest.raises(InvalidClassError):
        lai(oriented_class(0, normal_euler=1))


@given(oriented_classes())
def test_lai_split_sums_to_total(imm):
    report = lai(imm)
    assert report.positive + report.negative == report.total
    assert report.total == imm.euler_char + imm.normal_euler


@given(oriented_classes())
def test_self_intersection_identity(imm):
    assert imm.self_intersection == imm.normal_euler + 2 * (imm.delta_plus - imm.delta_minus)


# ---------------------------------------------------------------------------
# Genus bounds
# ---------------------------------------------------------------------------


def test_adjunction_rhs_projective_degrees():
    for d in range(1, 11):
        imm = oriented_class((d - 1) * (d - 2) // 2, normal_euler=d * d, c1_pairing=3 * d)
        assert adjunction_rhs(imm) == (d + 1) * (d + 2) // 2


def test_adjunction_rhs_orientable_only():
    with pytest.raises(InvalidClassError):
        adjunction_rhs(unoriented_class(1, normal_euler=-2))


def test_embedded_variant_requires_embedded():
    imm = oriented_class(0, normal_euler=-2, delta_plus=1)
    with pytest.raises(InvalidClassError):
        check_adjunction(imm, inv.VARIANT_EMBEDDED)
    with pytest.raises(InvalidClassError):
        check_adjunction(oriented_class(0), "no_such_variant")


def test_degree_one_sphere_fails_embedded_bound():
    line = oriented_class(0, normal_euler=1, c1_pairing=3)
    cert = check_adjunction(line, inv.VARIANT_EMBEDDED)
    assert not cert.passed
    lhs, rhs = (w.value for w in cert.witnesses)
    assert (lhs, rhs) == (0, 3)
    # Genus 3 is the smallest passing genus in this class.
    assert check_adjunction(
        oriented_class(3, normal_euler=1, c1_pairing=3), inv.VARIANT_EMBEDDED
    ).passed


@given(oriented_classes())
def test_sufficient_bound_matches_index_condition(imm):
    """The strong immersed bound holds exactly when all signed indices
    are nonpositive; the two are computed by unrelated formulas."""
    adj = check_adjunction(imm, inv.VARIANT_IMMERSED_SUFFICIENT)
    sc = stein_condition(imm)
    assert adj.passed == sc.passed


@given(oriented_classes())
def test_necessary_bound_is_weaker(imm):
    necessary = check_adjunction(imm, inv.VARIANT_IMMERSED_NECESSARY)
    sufficient = check_adjunction(imm, inv.VARIANT_IMMERSED_SUFFICIENT)
    if sufficient.passed:
        assert necessary.passed


def test_stein_condition_examples():
    assert stein_condition(oriented_class(1)).passed  # totally real torus
    assert stein_condition(oriented_class(0, normal_euler=-2)).passed
    cert = stein_condition(oriented_class(0))  # standard sphere: indices +1/+1
    assert not cert.passed
    assert stein_condition(unoriented_class(1, normal_euler=-2)).passed
    assert not stein_condition(unoriented_class(1, normal_euler=3)).passed


def _genus_formula_holds(imm):
    """Reference: the genus identity 2g = 2 - 2 delta + S.S - c1.S of
    classes without negative complex points (complex curves among them)."""
    return 2 * imm.genus == 2 - 2 * imm.delta + imm.self_intersection - imm.c1_pairing


def test_genus_formula_on_curves():
    for d in range(1, 6):
        imm = oriented_class((d - 1) * (d - 2) // 2, normal_euler=d * d, c1_pairing=3 * d)
        assert _genus_formula_holds(imm)
        assert lai(imm).negative == 0


@given(oriented_classes())
def test_genus_formula_iff_no_negative_points(imm):
    assert _genus_formula_holds(imm) == (lai(imm).negative == 0)


# ---------------------------------------------------------------------------
# Ambient descriptors
# ---------------------------------------------------------------------------


def test_ambient_validation():
    with pytest.raises(InvalidClassError):
        AmbientDescriptor(inv.KIND_PROJECTIVE_PLANE, stein=True)
    with pytest.raises(InvalidClassError):
        AmbientDescriptor(inv.KIND_AFFINE_PLANE, stein=False)
    with pytest.raises(InvalidClassError):
        AmbientDescriptor(inv.KIND_LINE_BUNDLE, stein=False)
    with pytest.raises(InvalidClassError):
        AmbientDescriptor(inv.KIND_ABSTRACT, stein=False)
    with pytest.raises(InvalidClassError):
        AmbientDescriptor("Oddball", stein=False)


def test_ambient_from_json():
    flags = {"stein": False, "kaehler_b2plus_gt1": False}
    for record, amb in (
        ({"kind": "AffinePlane", "stein": True, "kaehler_b2plus_gt1": False}, C2),
        ({"kind": "ProjectivePlane", **flags}, CP2),
        ({"kind": "Quadric", **flags}, AmbientDescriptor(inv.KIND_QUADRIC, stein=False)),
        ({"kind": {"name": "LineBundle", "base_genus": 1, "degree": -3},
          "stein": True, "kaehler_b2plus_gt1": False},
         AmbientDescriptor(inv.KIND_LINE_BUNDLE, stein=True, base_genus=1, bundle_degree=-3)),
        ({"kind": {"name": "Abstract", "normal_euler": 2, "c1_pairing": 4},
          "stein": False, "kaehler_b2plus_gt1": True},
         AmbientDescriptor(inv.KIND_ABSTRACT, stein=False, normal_euler=2, c1_pairing=4)),
    ):
        assert AmbientDescriptor.from_json(record) == amb
    with pytest.raises(InvalidClassError):
        AmbientDescriptor.from_json({"kind": "AffinePlane"})
    # The flag no rule reads is still required, and still a bool.
    with pytest.raises(InvalidClassError):
        AmbientDescriptor.from_json({"kind": "ProjectivePlane", "stein": False})
    with pytest.raises(InvalidClassError):
        AmbientDescriptor.from_json({"kind": "ProjectivePlane", **flags, "kaehler_b2plus_gt1": 1})


@pytest.mark.parametrize("base_genus", range(4))
def test_zero_section_index_threshold(base_genus):
    """The zero section has nonpositive indices exactly up to degree 2g-2."""
    # The zero section of a degree-e bundle has S.S = e and c1.S = chi + e.
    threshold = 2 * base_genus - 2
    for degree in (threshold - 1, threshold, threshold + 1):
        e, c1 = degree, 2 - 2 * base_genus + degree
        section = oriented_class(base_genus, normal_euler=e, c1_pairing=c1)
        assert stein_condition(section).passed == (degree <= threshold)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def cp2_degree_class(d, genus):
    return oriented_class(genus, normal_euler=d * d, c1_pairing=3 * d)


def test_verdict_stein_after_isotopy():
    imm = cp2_degree_class(1, 3)  # indices 0 and -3
    v = verdict(imm, CP2, class_nonzero=True)
    assert v.outcome == inv.OUTCOME_STEIN
    assert v.rule == RULE_INDEX_NONPOSITIVE


def test_verdict_projective_embedded_obstruction():
    line = cp2_degree_class(1, 0)
    v = verdict(line, CP2, class_nonzero=True)
    assert v.outcome == inv.OUTCOME_NO_STEIN
    assert v.rule == RULE_CP2_EMBEDDED_BOUND
    assert v.witnesses[-1].point == "degree"


def test_verdict_projective_immersed_obstruction():
    # Degree-3 sphere with one positive double point: fails the bound.
    imm = oriented_class(0, normal_euler=7, c1_pairing=9, delta_plus=1)
    v = verdict(imm, CP2, class_nonzero=True)
    assert v.outcome == inv.OUTCOME_NO_STEIN
    assert v.rule == RULE_CP2_IMMERSED_BOUND


def test_verdict_projective_inconsistent_pairings():
    with pytest.raises(InvalidClassError):
        verdict(
            oriented_class(0, normal_euler=2, c1_pairing=3),
            CP2,
            class_nonzero=True,
        )
    with pytest.raises(InvalidClassError):
        verdict(
            oriented_class(0, normal_euler=2, c1_pairing=4),
            CP2,
            class_nonzero=True,
        )


def test_verdict_stein_ambient_obstruction():
    sphere = oriented_class(0)  # indices +1/+1, embedded, fails genus bound
    stein_ambient = _abstract(0, 0, stein=True)
    v = verdict(sphere, stein_ambient, class_nonzero=True)
    assert v.outcome == inv.OUTCOME_NO_STEIN
    assert v.rule == RULE_STEIN_AMBIENT_EMBEDDED


def test_verdict_null_class_unresolved():
    sphere = oriented_class(0)
    stein_ambient = _abstract(0, 0, stein=True)
    v = verdict(sphere, stein_ambient, class_nonzero=False)
    assert v.outcome == inv.OUTCOME_INCONCLUSIVE
    assert v.rule == RULE_NULL_CLASS_UNRESOLVED


def test_verdict_ambient_not_stein_unresolved():
    sphere = oriented_class(0)
    v = verdict(sphere, AmbientDescriptor(inv.KIND_QUADRIC, stein=False), class_nonzero=True)
    assert v.outcome == inv.OUTCOME_INCONCLUSIVE
    assert v.rule == RULE_AMBIENT_NOT_STEIN


def test_verdict_gray_area():
    # One positive index, yet the necessary immersed bound holds thanks to
    # the negative double point: no rule applies either way.
    imm = oriented_class(0, normal_euler=-2, c1_pairing=2, delta_minus=1)
    assert not stein_condition(imm).passed
    assert check_adjunction(imm, inv.VARIANT_IMMERSED_NECESSARY).passed
    v = verdict(imm, _abstract(-2, 2, stein=True), class_nonzero=True)
    assert v.outcome == inv.OUTCOME_INCONCLUSIVE
    assert v.rule == RULE_GRAY_AREA


def test_verdict_unorientable_unresolved():
    imm = unoriented_class(1, normal_euler=3)  # total index 4
    v = verdict(imm, C2, class_nonzero=False)
    assert v.outcome == inv.OUTCOME_INCONCLUSIVE
    assert v.rule == RULE_UNORIENTABLE_UNRESOLVED


def test_verdict_requires_valid_class():
    with pytest.raises(InvalidClassError):
        verdict(oriented_class(0, normal_euler=1), C2, True)


@settings(max_examples=300)
@given(oriented_classes(), st.booleans())
def test_verdict_consistency(imm, nonzero):
    """Whatever the ladder decides, a passing index condition always means
    SteinAfterIsotopy and no other outcome."""
    v = verdict(imm, C2, class_nonzero=nonzero)
    if stein_condition(imm).passed:
        assert v.outcome == inv.OUTCOME_STEIN
    else:
        assert v.outcome in (inv.OUTCOME_NO_STEIN, inv.OUTCOME_INCONCLUSIVE)


@given(unoriented_classes())
def test_verdict_unorientable_never_no_stein(imm):
    v = verdict(imm, C2, class_nonzero=True)
    assert v.outcome in (inv.OUTCOME_STEIN, inv.OUTCOME_INCONCLUSIVE)
