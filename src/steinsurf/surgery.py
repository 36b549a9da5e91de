"""Surgery calculus on immersion classes.

Connected sums, handle attachments, double point resolutions and blow-ups
act on :class:`~steinsurf.invariants.ImmersionClass` purely at the level
of invariants; no geometric realization is kept.  Recipes bundle a base
class with an ordered step list and are validated by replay, so a stored
recipe is guaranteed to reproduce its expected result.

Genus bookkeeping across orientability changes goes through the Euler
characteristic.  Cross-cap counts then come out right in the mixed cases
(an orientable genus-g surface summed with a projective plane has 2g+1
cross-caps), while the familiar "genus adds" rule is recovered whenever
both summands are orientable or both are unorientable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleTargetError, SurgeryError
from .certificates import RULE_CP2_EMBEDDED_BOUND, RULE_CP2_IMMERSED_BOUND
from .invariants import (
    ImmersionClass,
    SurfaceTopology,
    _check_record,
    euler_char,
    lai,
    oriented_class,
    unoriented_class,
)

# Step kinds (these exact strings appear in serialized recipes).
STEP_CONNECTED_SUM = "ConnectedSum"
STEP_ATTACH_TORUS = "AttachTorus"
STEP_ATTACH_RP2 = "AttachRP2"
STEP_ATTACH_KLEIN = "AttachKlein"
STEP_ATTACH_WEINSTEIN = "AttachWeinsteinSphere"
STEP_RESOLVE_POS_HANDLE = "ResolvePositiveDP_Handle"
STEP_RESOLVE_NEG_HANDLE = "ResolveNegativeDP_Handle"
STEP_RESOLVE_NEG_BLOWUP = "ResolveNegativeDP_Blowup"
STEP_NORMALIZE = "NormalizeComplexPoints"
STEP_KINDS = (
    STEP_CONNECTED_SUM,
    STEP_ATTACH_TORUS,
    STEP_ATTACH_RP2,
    STEP_ATTACH_KLEIN,
    STEP_ATTACH_WEINSTEIN,
    STEP_RESOLVE_POS_HANDLE,
    STEP_RESOLVE_NEG_HANDLE,
    STEP_RESOLVE_NEG_BLOWUP,
    STEP_NORMALIZE,
)

# Attachment kinds accepted by `attach`.
ATTACH_TORUS = "Torus"
ATTACH_RP2 = "RP2"
ATTACH_KLEIN = "Klein"
ATTACH_WEINSTEIN = "WeinsteinSphere"
ATTACH_KINDS = (ATTACH_TORUS, ATTACH_RP2, ATTACH_KLEIN, ATTACH_WEINSTEIN)

METHOD_HANDLE = "Handle"
METHOD_BLOWUP = "Blowup"


# ---------------------------------------------------------------------------
# Standard summands
# ---------------------------------------------------------------------------


def totally_real_torus() -> ImmersionClass:
    """Null-homologous totally real torus: all indices vanish."""
    return oriented_class(genus=1)


def rp2_summand() -> ImmersionClass:
    """Embedded projective plane in the affine plane with total index -1."""
    return unoriented_class(genus=1, normal_euler=-2)


def klein_bottle_summand() -> ImmersionClass:
    """Totally real Klein bottle: total index 0."""
    return unoriented_class(genus=2, normal_euler=0)


def weinstein_sphere_summand() -> ImmersionClass:
    """Totally real immersed sphere with one positive double point.

    Null-homologous (self-intersection 0), so the normal Euler number is
    -2, and both signed indices vanish.
    """
    return oriented_class(genus=0, normal_euler=-2, delta_plus=1)


def cp2_curve_class(degree: int) -> ImmersionClass:
    """Smooth complex curve of the given degree in the projective plane.

    Genus (d-1)(d-2)/2, self-intersection d^2, Chern pairing 3d; all
    complex points are positive, with positive index 3d.
    """
    if degree < 1:
        raise SurgeryError(f"curve degree must be >= 1, got {degree}")
    d = degree
    return oriented_class(
        genus=(d - 1) * (d - 2) // 2, normal_euler=d * d, c1_pairing=3 * d
    )


def cp2_line_config_sphere(degree: int) -> ImmersionClass:
    """Immersed sphere of the given degree built from a line arrangement.

    A configuration of d lines smoothed at d-1 crossings is a sphere with
    (d-1)(d-2)/2 positive double points; self-intersection stays d^2, so
    the normal Euler number is 3d-2.
    """
    if degree < 1:
        raise SurgeryError(f"configuration degree must be >= 1, got {degree}")
    d = degree
    return oriented_class(
        genus=0,
        normal_euler=3 * d - 2,
        c1_pairing=3 * d,
        delta_plus=(d - 1) * (d - 2) // 2,
    )


def real_projective_plane_cp2() -> ImmersionClass:
    """The real projective plane inside the complex one: totally real,
    normal Euler number -1, total index 0.  Its homology class is the
    2-torsion generator, so the Chern pairing is recorded as 0."""
    return unoriented_class(genus=1, normal_euler=-1)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def connected_sum(a: ImmersionClass, b: ImmersionClass) -> ImmersionClass:
    """Connected sum of two immersion classes.

    Euler characteristics combine as chi_a + chi_b - 2, normal Euler
    numbers, Chern pairings and double point counts add.  The total index
    therefore drops by 2 relative to the sum of the parts, and each signed
    index drops by 1 when both parts are oriented.
    """
    chi = euler_char(a.topology) + euler_char(b.topology) - 2
    orientable = a.orientable and b.orientable
    if orientable:
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return ImmersionClass(
        topology=SurfaceTopology(genus, orientable),
        normal_euler=a.normal_euler + b.normal_euler,
        c1_pairing=a.c1_pairing + b.c1_pairing,
        delta_plus=a.delta_plus + b.delta_plus,
        delta_minus=a.delta_minus + b.delta_minus,
    )


_ATTACH_SUMMANDS = {
    ATTACH_TORUS: totally_real_torus,
    ATTACH_RP2: rp2_summand,
    ATTACH_KLEIN: klein_bottle_summand,
    ATTACH_WEINSTEIN: weinstein_sphere_summand,
}


def attach(imm: ImmersionClass, kind: str) -> ImmersionClass:
    """Connected sum with one of the standard summands.

    Tori lower each signed index by 1 (orientable base) or the total by 2
    (unorientable base); projective planes make the result unorientable
    and lower the total index by 3; Klein bottles lower it by 2.  The
    Weinstein sphere adds one positive double point and lowers each
    signed index by 1 without changing genus or homology class; it
    requires an orientable base.
    """
    if kind not in _ATTACH_SUMMANDS:
        raise SurgeryError(f"unknown attachment kind {kind!r}")
    if kind == ATTACH_WEINSTEIN and not imm.orientable:
        raise SurgeryError("Weinstein sphere attachment needs an orientable base")
    return connected_sum(imm, _ATTACH_SUMMANDS[kind]())


def resolve_double_point(imm: ImmersionClass, sign: int, method: str = METHOD_HANDLE) -> ImmersionClass:
    """Remove one double point of the given sign.

    Handle resolution replaces the double point by an annulus, raising the
    genus by one.  A positive double point resolves through a totally real
    annulus, so the indices are untouched and the normal Euler number
    gains 2; a negative one costs 2 on each signed index and the normal
    Euler number loses 2.  Blow-up (negative sign only) removes the double
    point without changing genus, image self-intersection, Chern pairing,
    or the adjunction right-hand side; the ambient change is recorded as a
    replay annotation, not here.
    """
    if sign not in (+1, -1):
        raise SurgeryError(f"double point sign must be +1 or -1, got {sign!r}")
    if method not in (METHOD_HANDLE, METHOD_BLOWUP):
        raise SurgeryError(f"unknown resolution method {method!r}")
    if method == METHOD_BLOWUP and sign != -1:
        raise SurgeryError("blow-up resolution applies to negative double points only")
    if sign == +1:
        if imm.delta_plus == 0:
            raise SurgeryError("no positive double point to resolve")
    else:
        if imm.delta_minus == 0:
            raise SurgeryError("no negative double point to resolve")

    if method == METHOD_BLOWUP:
        return ImmersionClass(
            topology=imm.topology,
            normal_euler=imm.normal_euler - 2,
            c1_pairing=imm.c1_pairing,
            delta_plus=imm.delta_plus,
            delta_minus=imm.delta_minus - 1,
        )

    chi = euler_char(imm.topology) - 2
    genus = (2 - chi) // 2 if imm.orientable else 2 - chi
    if sign == +1:
        return ImmersionClass(
            topology=SurfaceTopology(genus, imm.orientable),
            normal_euler=imm.normal_euler + 2,
            c1_pairing=imm.c1_pairing,
            delta_plus=imm.delta_plus - 1,
            delta_minus=imm.delta_minus,
        )
    return ImmersionClass(
        topology=SurfaceTopology(genus, imm.orientable),
        normal_euler=imm.normal_euler - 2,
        c1_pairing=imm.c1_pairing,
        delta_plus=imm.delta_plus,
        delta_minus=imm.delta_minus - 1,
    )


@dataclass(frozen=True)
class NormalForm:
    """Complex point counts after normalization.

    Each orientation class of complex points reduces to all-elliptic or
    all-hyperbolic according to the sign of its index.  For unorientable
    surfaces there is a single class, reported in ``special_elliptic`` /
    ``special_hyperbolic_pos`` with the negative slot zero.
    """

    special_elliptic: int
    special_hyperbolic_pos: int
    special_hyperbolic_neg: int

    def to_json(self) -> dict:
        return {
            "special_elliptic": self.special_elliptic,
            "special_hyperbolic_pos": self.special_hyperbolic_pos,
            "special_hyperbolic_neg": self.special_hyperbolic_neg,
        }


def normalize_complex_points(imm: ImmersionClass) -> NormalForm:
    """Minimal complex point counts realizable after isotopy.

    An orientation class of index k keeps k special elliptic points when
    k > 0 and -k special hyperbolic points when k <= 0; classes never mix
    the two kinds.
    """
    report = lai(imm)
    if imm.orientable:
        return NormalForm(
            special_elliptic=max(report.positive, 0) + max(report.negative, 0),
            special_hyperbolic_pos=max(-report.positive, 0),
            special_hyperbolic_neg=max(-report.negative, 0),
        )
    return NormalForm(
        special_elliptic=max(report.total, 0),
        special_hyperbolic_pos=max(-report.total, 0),
        special_hyperbolic_neg=0,
    )


# ---------------------------------------------------------------------------
# Steps, replay, recipes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurgeryStep:
    """One replayable surgery move.  ``other`` is set only for ConnectedSum."""

    kind: str
    other: ImmersionClass | None = None

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise SurgeryError(f"unknown step kind {self.kind!r}")
        if (self.kind == STEP_CONNECTED_SUM) != (self.other is not None):
            raise SurgeryError("ConnectedSum steps carry `other`; no other step does")

    def to_json(self) -> dict:
        record: dict = {"kind": self.kind}
        if self.other is not None:
            record["other"] = self.other.to_json()
        return record

    @classmethod
    def from_json(cls, data: dict) -> "SurgeryStep":
        _check_record("step", data, {"kind"}, {"other"}, SurgeryError)
        other = data.get("other")
        return cls(
            kind=data["kind"],
            other=ImmersionClass.from_json(other) if other is not None else None,
        )


_STEP_TO_ATTACH = {
    STEP_ATTACH_TORUS: ATTACH_TORUS,
    STEP_ATTACH_RP2: ATTACH_RP2,
    STEP_ATTACH_KLEIN: ATTACH_KLEIN,
    STEP_ATTACH_WEINSTEIN: ATTACH_WEINSTEIN,
}


def _apply_step(imm: ImmersionClass, step: SurgeryStep) -> tuple[ImmersionClass, str | None]:
    """Apply one step, returning the new class and an optional annotation."""
    kind = step.kind
    if kind == STEP_CONNECTED_SUM:
        return connected_sum(imm, step.other), None
    if kind in _STEP_TO_ATTACH:
        return attach(imm, _STEP_TO_ATTACH[kind]), None
    if kind == STEP_RESOLVE_POS_HANDLE:
        return resolve_double_point(imm, +1, METHOD_HANDLE), None
    if kind == STEP_RESOLVE_NEG_HANDLE:
        return resolve_double_point(imm, -1, METHOD_HANDLE), None
    if kind == STEP_RESOLVE_NEG_BLOWUP:
        out = resolve_double_point(imm, -1, METHOD_BLOWUP)
        return out, "ambient blown up: one exceptional sphere added"
    # NormalizeComplexPoints: identity on the class, normal form recorded.
    form = normalize_complex_points(imm)
    return imm, (
        "normal form: "
        f"{form.special_elliptic} elliptic, "
        f"{form.special_hyperbolic_pos}+{form.special_hyperbolic_neg} hyperbolic"
    )


def replay(base: ImmersionClass, steps: list[SurgeryStep]) -> ImmersionClass:
    """Left-fold of the steps over the base class.

    The first step whose precondition fails aborts the replay with its
    1-based position attached to the error.
    """
    current = base
    for position, step in enumerate(steps, start=1):
        try:
            current, _ = _apply_step(current, step)
        except SurgeryError as exc:
            raise SurgeryError(
                f"step {position} ({step.kind}) failed: {exc}", position=position
            ) from exc
    return current


def replay_trace(base: ImmersionClass, steps: list[SurgeryStep]) -> tuple[ImmersionClass, list[dict]]:
    """Replay that also returns a per-step trace.

    Each trace entry records the 1-based position, the step kind, the
    resulting class, and any annotation (blow-ups note the ambient
    change; normalization steps record the normal form)."""
    current = base
    trace: list[dict] = []
    for position, step in enumerate(steps, start=1):
        try:
            current, note = _apply_step(current, step)
        except SurgeryError as exc:
            raise SurgeryError(
                f"step {position} ({step.kind}) failed: {exc}", position=position
            ) from exc
        entry = {"position": position, "kind": step.kind, "result": current.to_json()}
        if note is not None:
            entry["annotation"] = note
        trace.append(entry)
    return current, trace


@dataclass(frozen=True)
class SurgeryRecipe:
    """Base class, step list, and the expected replay result.

    Construction replays the steps and refuses a recipe whose outcome
    differs from ``expected``, so deserialized recipes are self-checking.
    """

    base: ImmersionClass
    steps: tuple[SurgeryStep, ...]
    expected: ImmersionClass

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        actual = replay(self.base, list(self.steps))
        if actual != self.expected:
            raise SurgeryError(
                "recipe does not replay to its expected class: "
                f"got {actual.to_json()}, expected {self.expected.to_json()}"
            )

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "expected": self.expected.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SurgeryRecipe":
        base, steps, expected = read_recipe(data)
        if expected is None:
            raise SurgeryError("a recipe needs its expected class")
        return cls(base=base, steps=steps, expected=expected)


def read_recipe(data: dict) -> tuple[ImmersionClass, tuple[SurgeryStep, ...], ImmersionClass | None]:
    """Base, steps and expected class of a recipe record; ``expected`` is
    optional (None when absent), as replay tasks may omit it."""
    _check_record("recipe", data, {"base", "steps"}, {"expected"}, SurgeryError)
    steps = data["steps"]
    if not isinstance(steps, list):
        raise SurgeryError(f"recipe steps must be a list, got {steps!r}")
    expected = data.get("expected")
    return (
        ImmersionClass.from_json(data["base"]),
        tuple(SurgeryStep.from_json(s) for s in steps),
        None if expected is None else ImmersionClass.from_json(expected),
    )


# ---------------------------------------------------------------------------
# Planner for classes in the projective plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanTarget:
    """Requested outcome for the projective plane planner.

    Orientable targets carry a degree >= 1 plus the desired genus and
    positive double point count (negative double points are never
    produced).  Unorientable targets represent the 2-torsion class; they
    carry no degree and must be embedded with genus >= 1.
    """

    orientable: bool
    genus: int
    delta_plus: int = 0
    degree: int | None = None


# The planner emits one step record per attached summand or resolved
# double point, so its work and output grow with the target genus.
MAX_PLAN_STEPS = 1 << 20


def _feasibility_bound(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def plan_cp2(target: PlanTarget) -> SurgeryRecipe:
    """Emit a recipe realizing the target class with all indices <= 0.

    Embedded orientable targets start from the smooth curve of the given
    degree and attach tori; immersed ones start from the line
    configuration sphere, attach Weinstein spheres, then trade the excess
    positive double points for genus by handle resolution.  Unorientable
    targets start from the real projective plane and attach cross-caps.
    Infeasible targets (genus plus positive double points below the
    degree bound) raise with the violated rule attached.
    """
    if target.genus < 0 or target.delta_plus < 0:
        raise InfeasibleTargetError(
            "genus and double point counts must be nonnegative", rule="input"
        )
    if not target.orientable:
        if target.degree is not None:
            raise InfeasibleTargetError(
                "unorientable targets represent the 2-torsion class; omit the degree",
                rule="input",
            )
        if target.delta_plus != 0:
            raise InfeasibleTargetError(
                "unorientable targets are embedded; delta_plus must be 0", rule="input"
            )
        if target.genus < 1:
            raise InfeasibleTargetError(
                "unorientable genus is at least 1", rule="input"
            )
        base = real_projective_plane_cp2()
        return _recipe(base, ((STEP_ATTACH_RP2, target.genus - 1),), target)

    if target.degree is None or target.degree < 1:
        raise InfeasibleTargetError(
            f"orientable targets need a degree >= 1, got {target.degree!r}", rule="input"
        )
    d = target.degree
    bound = _feasibility_bound(d)
    if target.genus + target.delta_plus < bound:
        rule = RULE_CP2_EMBEDDED_BOUND if target.delta_plus == 0 else RULE_CP2_IMMERSED_BOUND
        raise InfeasibleTargetError(
            f"infeasible target: genus + delta_plus = {target.genus + target.delta_plus} "
            f"< {bound} = (d+1)(d+2)/2 for degree {d}",
            rule=rule,
        )

    if target.delta_plus == 0:
        base = cp2_curve_class(d)
        moves = ((STEP_ATTACH_TORUS, target.genus - base.genus),)
    else:
        base = cp2_line_config_sphere(d)
        spheres = target.genus + target.delta_plus - base.delta_plus
        moves = ((STEP_ATTACH_WEINSTEIN, spheres), (STEP_RESOLVE_POS_HANDLE, target.genus))
    return _recipe(base, moves, target)


def _target_class(target: PlanTarget) -> ImmersionClass:
    """The class a plan for ``target`` reaches: genus g with normal Euler
    number d^2 - 2 delta_plus and Chern pairing 3d for degree d, or the
    2-torsion class with normal Euler number 1 - 2g."""
    if not target.orientable:
        return unoriented_class(target.genus, 1 - 2 * target.genus)
    d = target.degree
    return oriented_class(target.genus, d * d - 2 * target.delta_plus, 3 * d, target.delta_plus)


def _recipe(
    base: ImmersionClass, moves: tuple[tuple[str, int], ...], target: PlanTarget
) -> SurgeryRecipe:
    """Recipe repeating each step kind ``count`` times, in order; refuses
    more than MAX_PLAN_STEPS step records before building any.  The
    recipe's own replay checks that the steps reach ``target``."""
    records = sum(count for _, count in moves)
    if records > MAX_PLAN_STEPS:
        raise InfeasibleTargetError(
            f"target needs {records} step records, more than MAX_PLAN_STEPS = {MAX_PLAN_STEPS}",
            rule="input",
        )
    steps = tuple(step for kind, count in moves for step in (SurgeryStep(kind),) * count)
    return SurgeryRecipe(base=base, steps=steps, expected=_target_class(target))
