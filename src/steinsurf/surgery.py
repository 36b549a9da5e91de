"""Surgery calculus on immersion classes.

A class enters the calculus through five integers (chi, e, c1, delta_plus,
delta_minus): Euler characteristic, normal Euler number, Chern pairing
and the double point counts by sign, plus its orientability.  Every
surgery step is a translation of those integers and a flag saying
whether the result can stay orientable:

* a connected sum with a class b adds (chi_b - 2, e_b, c1_b, delta_plus_b,
  delta_minus_b) and stays orientable only if b is; the four attachments
  are connected sums with the standard summands below;
* handle resolution replaces a double point by an annulus, one more
  handle: a positive one adds (-2, +2, 0, -1, 0), through a totally real
  annulus that leaves the indices untouched, a negative one adds
  (-2, -2, 0, 0, -1); the blow-up resolution of a negative double point
  adds (0, -2, 0, 0, -1), which keeps the genus, the self-intersection
  and the adjunction right-hand side, and records the ambient change as
  an annotation;
* normalization leaves the class unchanged and records its normal form.

A step fails when it would leave a double point count negative, when
a Weinstein sphere is attached to an unorientable base, or when a
connected sum takes a class that fails the parity check; a replay also
refuses such a base.  The genus comes
back from chi (2 - 2g orientable, 2 - g unorientable), so cross-cap counts
come out right in the mixed cases: an orientable genus-g surface summed
with a projective plane has 2g+1 cross-caps.  Recipes bundle a base class
with an ordered step list and are validated by replay, so a stored
recipe is guaranteed to reproduce its expected result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleTargetError, InvalidClassError, SurgeryError
from .certificates import RULE_CP2_EMBEDDED_BOUND, RULE_CP2_IMMERSED_BOUND
from .invariants import (
    PARITY_VIOLATION,
    ImmersionClass,
    SurfaceTopology,
    _check_record,
    lai,
    odd_parity,
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


def _sum_move(b: ImmersionClass) -> tuple[tuple[int, int, int, int, int], bool, None]:
    """Connected sum with ``b``: Euler characteristics combine as
    chi_a + chi_b - 2 and every other integer adds, so the total index
    drops by 2 against the sum of the parts."""
    return (b.euler_char - 2, b.normal_euler, b.c1_pairing, b.delta_plus, b.delta_minus), b.orientable, None


# Each step kind but ConnectedSum and NormalizeComplexPoints: translation
# of (chi, e, c1, delta_plus, delta_minus), whether the result can stay
# orientable, and the trace annotation.
_MOVES = {
    STEP_ATTACH_TORUS: _sum_move(totally_real_torus()),
    STEP_ATTACH_RP2: _sum_move(rp2_summand()),
    STEP_ATTACH_KLEIN: _sum_move(klein_bottle_summand()),
    STEP_ATTACH_WEINSTEIN: _sum_move(weinstein_sphere_summand()),
    STEP_RESOLVE_POS_HANDLE: ((-2, +2, 0, -1, 0), True, None),
    STEP_RESOLVE_NEG_HANDLE: ((-2, -2, 0, 0, -1), True, None),
    STEP_RESOLVE_NEG_BLOWUP: ((0, -2, 0, 0, -1), True, "ambient blown up: one exceptional sphere added"),
}


def _apply_step(imm: ImmersionClass, step: SurgeryStep) -> tuple[ImmersionClass, str | None]:
    """Apply one step, returning the new class and an optional annotation."""
    if step.kind == STEP_NORMALIZE:
        form = normalize_complex_points(imm)
        return imm, (
            "normal form: "
            f"{form.special_elliptic} elliptic, "
            f"{form.special_hyperbolic_pos}+{form.special_hyperbolic_neg} hyperbolic"
        )
    if step.kind == STEP_ATTACH_WEINSTEIN and not imm.orientable:
        raise SurgeryError("Weinstein sphere attachment needs an orientable base")
    if step.kind == STEP_CONNECTED_SUM and odd_parity(step.other):
        raise InvalidClassError(PARITY_VIOLATION)
    move = _sum_move(step.other) if step.kind == STEP_CONNECTED_SUM else _MOVES[step.kind]
    (chi, e, c1, dp, dm), keeps_orientable, note = move
    dp += imm.delta_plus
    dm += imm.delta_minus
    if dp < 0:
        raise SurgeryError("no positive double point to resolve")
    if dm < 0:
        raise SurgeryError("no negative double point to resolve")
    chi += imm.euler_char
    orientable = imm.orientable and keeps_orientable
    genus = (2 - chi) // 2 if orientable else 2 - chi
    topology = SurfaceTopology(genus, orientable)
    return ImmersionClass(topology, imm.normal_euler + e, imm.c1_pairing + c1, dp, dm), note


def _fold(base: ImmersionClass, steps: list[SurgeryStep], trace: list[dict] | None) -> ImmersionClass:
    """The one replay loop: :func:`replay` with one entry per step appended
    to ``trace`` unless it is None."""
    if odd_parity(base):
        raise SurgeryError(f"base class failed: {PARITY_VIOLATION}", position=0)
    current = base
    for position, step in enumerate(steps, start=1):
        try:
            current, note = _apply_step(current, step)
        except (SurgeryError, InvalidClassError) as exc:
            raise SurgeryError(
                f"step {position} ({step.kind}) failed: {exc}", position=position
            ) from exc
        if trace is not None:
            entry = {"position": position, "kind": step.kind, "result": current.to_json()}
            if note is not None:
                entry["annotation"] = note
            trace.append(entry)
    return current


def replay(base: ImmersionClass, steps: list[SurgeryStep]) -> ImmersionClass:
    """Left-fold of the steps over the base class.

    The first step that fails, on its precondition, a parity-invalid
    ConnectedSum class or a value leaving int64, aborts the replay with
    its 1-based position attached to the error; a parity-invalid base
    fails at position 0."""
    return _fold(base, steps, None)


def replay_trace(base: ImmersionClass, steps: list[SurgeryStep]) -> tuple[ImmersionClass, list[dict]]:
    """Replay that also returns a per-step trace.

    Each trace entry records the 1-based position, the step kind, the
    resulting class, and any annotation (blow-ups note the ambient
    change; normalization steps record the normal form)."""
    trace: list[dict] = []
    return _fold(base, steps, trace), trace


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
