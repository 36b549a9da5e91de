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

An untraced replay applies a run of n equal consecutive steps as one
translation by n times that step's vector, checked once
(:func:`_apply_step`), so validating a recipe, a plan's included, costs
O(runs) step applications.  A traced replay applies each step, since its
trace holds every step's class; its steps and its trace are O(steps)
output either way.

The projective plane planner states no bound of its own: it plans a
target exactly when :func:`verdict` calls the target class Stein there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InfeasibleTargetError, InvalidClassError, SurgeryError
from .invariants import (
    KIND_PROJECTIVE_PLANE,
    OUTCOME_STEIN,
    AmbientDescriptor,
    ImmersionClass,
    _check_int64,
    _check_record,
    lai,
    oriented_class,
    require_integral_split,
    unoriented_class,
    verdict,
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
    return _cp2_class(degree, (degree - 1) * (degree - 2) // 2)


def cp2_line_config_sphere(degree: int) -> ImmersionClass:
    """Immersed sphere of the given degree built from a line arrangement.

    A configuration of d lines smoothed at d-1 crossings is a sphere with
    (d-1)(d-2)/2 positive double points; self-intersection stays d^2, so
    the normal Euler number is 3d-2.
    """
    if degree < 1:
        raise SurgeryError(f"configuration degree must be >= 1, got {degree}")
    return _cp2_class(degree, 0, (degree - 1) * (degree - 2) // 2)


def _cp2_class(d: int, genus: int, delta_plus: int = 0) -> ImmersionClass:
    """Orientable degree-``d`` class in the projective plane: S.S = d^2, c1.S = 3d."""
    return oriented_class(genus, d * d - 2 * delta_plus, 3 * d, delta_plus)


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


def _genus(chi: int, orientable: bool) -> int:
    """Genus (cross-caps when unorientable) of the surface with Euler
    characteristic ``chi``."""
    return (2 - chi) // 2 if orientable else 2 - chi


def _apply_step(imm: ImmersionClass, step: SurgeryStep,
                count: int = 1) -> tuple[ImmersionClass, str | None]:
    """The class ``count`` equal steps take ``imm`` to, and the step's
    annotation.

    Every step of the run adds the same translation of (chi, e, c1,
    delta_plus, delta_minus) and yields the same orientability, so
    each value a step checks is linear in the step's index k (the genus
    too: chi stays even on orientable results), and each check asks that
    value to lie in an interval: the input's chi in int64, the output's
    genus, integers and double point counts in range.  A linear value
    inside an interval at both ends of a range of k is inside it
    throughout.  At k = 0 the outputs read as ``imm``'s own values, which
    pass, except the genus of a run that makes an orientable base
    unorientable (it reads 2g there).  Such a move has d_chi <= -1, so
    the cross-caps 2 - chi - k d_chi grow with k and are at least 1 from
    k = 1 on (chi <= 2): only their upper bound is checked, at the last
    step.  So the checks of the last step's input and output, run here
    once on the one class built, stand for those of every step of the run.
    """
    if step.kind == STEP_NORMALIZE:
        form = normalize_complex_points(imm)
        return imm, (
            "normal form: "
            f"{form.special_elliptic} elliptic, "
            f"{form.special_hyperbolic_pos}+{form.special_hyperbolic_neg} hyperbolic"
        )
    if step.kind == STEP_ATTACH_WEINSTEIN and not imm.orientable:
        raise SurgeryError("Weinstein sphere attachment needs an orientable base")
    if step.kind == STEP_CONNECTED_SUM:
        require_integral_split(step.other)
    move = _sum_move(step.other) if step.kind == STEP_CONNECTED_SUM else _MOVES[step.kind]
    (d_chi, e, c1, dp, dm), keeps_orientable, note = move
    dp = imm.delta_plus + count * dp
    dm = imm.delta_minus + count * dm
    if dp < 0:
        raise SurgeryError("no positive double point to resolve")
    if dm < 0:
        raise SurgeryError("no negative double point to resolve")
    chi = imm.euler_char
    _check_int64("euler_char", chi + (count - 1) * d_chi)  # the last step's input
    orientable = imm.orientable and keeps_orientable
    end = ImmersionClass(_genus(chi + count * d_chi, orientable), orientable,
                         imm.normal_euler + count * e, imm.c1_pairing + count * c1, dp, dm)
    return end, note


def _runs(steps: list[SurgeryStep]):
    """(step, count) for each run of ``count`` equal consecutive steps.
    Neighbours mostly differ in kind, which is compared before the steps."""
    i, n = 0, len(steps)
    while i < n:
        step, j = steps[i], i + 1
        while j < n and (steps[j] is step or steps[j].kind == step.kind and steps[j] == step):
            j += 1
        yield step, j - i
        i = j


def _fold(base: ImmersionClass, steps: list[SurgeryStep], trace: list[dict] | None) -> ImmersionClass:
    """The one replay loop: :func:`replay` with one entry per step appended
    to ``trace`` unless it is None.

    Untraced, each run of equal steps is one :func:`_apply_step` call;
    only when it fails is the run walked one step at a time from its
    first step, to find the step that fails and its message.  Traced,
    every step is its own call, since each entry holds that step's class."""
    try:
        require_integral_split(base)
    except InvalidClassError as exc:
        raise SurgeryError(f"base class failed: {exc}", position=0) from exc
    current, position = base, 1
    for step, count in _runs(steps) if trace is None else ((step, 1) for step in steps):
        try:
            last, note = _apply_step(current, step, count)
        except (SurgeryError, InvalidClassError):
            last = current
            for k in range(position, position + count):
                try:
                    last, note = _apply_step(last, step)
                except (SurgeryError, InvalidClassError) as exc:
                    raise SurgeryError(f"step {k} ({step.kind}) failed: {exc}", position=k) from exc
        if trace is not None:
            entry = {"position": position, "kind": step.kind, "result": last.to_json()}
            if note is not None:
                entry["annotation"] = note
            trace.append(entry)
        current, position = last, position + count
    return current


def replay(base: ImmersionClass, steps: list[SurgeryStep]) -> ImmersionClass:
    """Left-fold of the steps over the base class.

    The first step that fails, on its precondition, a parity-invalid
    ConnectedSum class or a value leaving int64, aborts the replay with
    its 1-based position attached to the error; a parity-invalid base,
    or one whose Euler characteristic leaves int64, fails at position 0."""
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
        actual = replay(self.base, self.steps)
        if actual != self.expected:
            raise SurgeryError(
                "recipe does not replay to its expected class: "
                f"got {actual.to_json()}, expected {self.expected.to_json()}"
            )

    def to_json(self) -> dict:
        """Equal steps share one record object, so a plan's report tree
        holds one record per step kind; the JSON still lists every step."""
        records: dict[SurgeryStep, dict] = {}
        return {
            "base": self.base.to_json(),
            "steps": [records.get(s) or records.setdefault(s, s.to_json()) for s in self.steps],
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


# The planner emits one step per attached summand or resolved double
# point, so its output grows with the target genus: the report tree
# shares one record per step kind, but the JSON still prints one record
# per step (65 MB at 10^6 steps).  Its replay check does not grow, since
# the steps form at most two runs.
MAX_PLAN_STEPS = 1 << 20


def plan_cp2(target: PlanTarget) -> SurgeryRecipe:
    """Emit a recipe realizing the target class with all indices <= 0.

    Embedded orientable targets start from the smooth curve of the given
    degree and attach tori; immersed ones start from the line
    configuration sphere, attach Weinstein spheres, then trade the excess
    positive double points for genus by handle resolution.  Unorientable
    targets start from the real projective plane and attach cross-caps.
    An orientable target is planned exactly when :func:`verdict` calls its
    class Stein in the projective plane, else refused with that verdict's
    rule; a class or index leaving int64 raises InvalidClassError by name.
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
        return _recipe(base, ((STEP_ATTACH_RP2, target.genus - 1),), _target_class(target))

    if target.degree is None or target.degree < 1:
        raise InfeasibleTargetError(
            f"orientable targets need a degree >= 1, got {target.degree!r}", rule="input"
        )
    d = target.degree
    end = _target_class(target)
    v = verdict(end, AmbientDescriptor(KIND_PROJECTIVE_PLANE, stein=False), class_nonzero=True)
    if v.outcome != OUTCOME_STEIN:
        sides = {w.point: w.value for w in v.witnesses}
        raise InfeasibleTargetError(
            f"infeasible target: genus + delta_plus = {sides['lhs']} "
            f"< {sides['rhs']} = (d+1)(d+2)/2 for degree {d}",
            rule=v.rule,
        )

    if target.delta_plus == 0:
        base = cp2_curve_class(d)
        moves = ((STEP_ATTACH_TORUS, target.genus - base.genus),)
    else:
        base = cp2_line_config_sphere(d)
        spheres = target.genus + target.delta_plus - base.delta_plus
        moves = ((STEP_ATTACH_WEINSTEIN, spheres), (STEP_RESOLVE_POS_HANDLE, target.genus))
    return _recipe(base, moves, end)


def _target_class(target: PlanTarget) -> ImmersionClass:
    """The class a plan for ``target`` reaches: the degree-d class of
    genus g with delta_plus positive double points, or the 2-torsion
    class with normal Euler number 1 - 2g."""
    if not target.orientable:
        return unoriented_class(target.genus, 1 - 2 * target.genus)
    return _cp2_class(target.degree, target.genus, target.delta_plus)


def _recipe(
    base: ImmersionClass, moves: tuple[tuple[str, int], ...], expected: ImmersionClass
) -> SurgeryRecipe:
    """Recipe repeating each step kind ``count`` times, in order; refuses
    more than MAX_PLAN_STEPS step records before building any.  The
    recipe's own replay checks that the steps reach ``expected``."""
    records = sum(count for _, count in moves)
    if records > MAX_PLAN_STEPS:
        raise InfeasibleTargetError(
            f"target needs {records} step records, more than MAX_PLAN_STEPS = {MAX_PLAN_STEPS}",
            rule="input",
        )
    steps = tuple(chain.from_iterable((SurgeryStep(kind),) * count for kind, count in moves))
    return SurgeryRecipe(base=base, steps=steps, expected=expected)
