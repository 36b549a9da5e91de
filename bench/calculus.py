"""Closed formulas for the integer calculus, independent of steinsurf.

The benchmark uses these both to generate valid inputs and to check the
program's outputs, so nothing here imports the package under test.  Rule
names and the verdict ladder are pinned to the behaviour of the initial
commit of steinsurf; a change to either is a change of outputs that the
benchmark reports as a failure.
"""

from __future__ import annotations

from typing import NamedTuple

RULE_INTEGRALITY = "index-integrality"
RULE_NONPOSITIVE = "index-nonpositive"
RULE_ADJUNCTION = {
    "embedded": "adjunction-embedded",
    "immersed_necessary": "adjunction-immersed-necessary",
    "immersed_sufficient": "adjunction-immersed-sufficient",
}
RULE_STEIN_EMBEDDED = "stein-ambient-embedded-adjunction"
RULE_STEIN_IMMERSED = "stein-ambient-immersed-adjunction"
RULE_CP2_EMBEDDED = "projective-plane-embedded-bound"
RULE_CP2_IMMERSED = "projective-plane-immersed-bound"
RULE_UNORIENTED = "unoriented-positive-index-unresolved"
RULE_NOT_STEIN = "ambient-not-stein-necessity-unresolved"
RULE_NULL_CLASS = "null-homologous-class-necessity-unresolved"
RULE_GRAY_AREA = "index-positive-within-adjunction-gray-area"
RULE_PLAN_INPUT = "input"

OUTCOME_STEIN = "SteinAfterIsotopy"
OUTCOME_NO_STEIN = "NoSteinNeighborhood"
OUTCOME_INCONCLUSIVE = "Inconclusive"

BLOWUP_NOTE = "ambient blown up: one exceptional sphere added"


class Cls(NamedTuple):
    """An immersion class as the vector (chi, e, c1, delta+, delta-) plus
    orientability; every surgery step adds a fixed vector to it."""

    chi: int
    e: int
    c1: int
    dp: int
    dm: int
    orientable: bool

    @property
    def genus(self) -> int:
        return (2 - self.chi) // 2 if self.orientable else 2 - self.chi

    @property
    def total(self) -> int:
        return self.chi + self.e

    @property
    def parts(self) -> tuple[int, int] | None:
        """Signed index split (positive, negative), None if unorientable."""
        if not self.orientable:
            return None
        return (self.total + self.c1) // 2, (self.total - self.c1) // 2

    @property
    def embedded(self) -> bool:
        return self.dp == 0 and self.dm == 0

    @property
    def self_intersection(self) -> int:
        return self.e + 2 * (self.dp - self.dm)

    def to_json(self) -> dict:
        return {
            "topology": {"genus": self.genus, "orientable": self.orientable},
            "normal_euler": self.e,
            "c1_pairing": self.c1,
            "delta_plus": self.dp,
            "delta_minus": self.dm,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cls":
        top = data["topology"]
        g = top["genus"]
        chi = 2 - 2 * g if top["orientable"] else 2 - g
        return cls(chi, data["normal_euler"], data["c1_pairing"],
                   data["delta_plus"], data["delta_minus"], top["orientable"])


def oriented(genus: int, e: int = 0, c1: int = 0, dp: int = 0, dm: int = 0) -> Cls:
    return Cls(2 - 2 * genus, e, c1, dp, dm, True)


def unoriented(genus: int, e: int = 0, dp: int = 0, dm: int = 0) -> Cls:
    return Cls(2 - genus, e, 0, dp, dm, False)


# ---------------------------------------------------------------------------
# Certificates and verdicts
# ---------------------------------------------------------------------------


def stein_ok(c: Cls) -> bool:
    if c.orientable:
        p, n = c.parts
        return p <= 0 and n <= 0
    return c.total <= 0


def stein_witness_values(c: Cls) -> list[int]:
    return list(c.parts) if c.orientable else [c.total]


def adjunction(c: Cls, variant: str) -> tuple[int, int]:
    """(lhs, rhs) of a genus bound; rhs = 1 + (S.S + |c1|)/2."""
    rhs = (2 + c.self_intersection + abs(c.c1)) // 2
    if variant == "embedded":
        return c.genus, rhs
    if variant == "immersed_necessary":
        return c.genus + c.dp, rhs
    return c.genus + c.dp, rhs + c.dm


def verdict(c: Cls, kind: str, stein: bool, class_nonzero: bool) -> tuple[str, str]:
    """(outcome, rule) of the verdict ladder."""
    if stein_ok(c):
        return OUTCOME_STEIN, RULE_NONPOSITIVE
    if not c.orientable:
        return OUTCOME_INCONCLUSIVE, RULE_UNORIENTED
    lhs, rhs = adjunction(c, "embedded" if c.embedded else "immersed_necessary")
    bound_holds = lhs >= rhs
    if stein and class_nonzero and not bound_holds:
        return OUTCOME_NO_STEIN, RULE_STEIN_EMBEDDED if c.embedded else RULE_STEIN_IMMERSED
    if kind == "ProjectivePlane" and abs(c.c1) // 3 >= 1 and not bound_holds:
        return OUTCOME_NO_STEIN, RULE_CP2_EMBEDDED if c.embedded else RULE_CP2_IMMERSED
    if not stein:
        return OUTCOME_INCONCLUSIVE, RULE_NOT_STEIN
    if not class_nonzero:
        return OUTCOME_INCONCLUSIVE, RULE_NULL_CLASS
    return OUTCOME_INCONCLUSIVE, RULE_GRAY_AREA


# ---------------------------------------------------------------------------
# Surgery steps as translations
# ---------------------------------------------------------------------------

# Summands attached by the Attach* steps, as class vectors.
_SUMMANDS = {
    "AttachTorus": oriented(1),
    "AttachRP2": unoriented(1, e=-2),
    "AttachKlein": unoriented(2),
    "AttachWeinsteinSphere": oriented(0, e=-2, dp=1),
}
STEP_KINDS = (
    "ConnectedSum",
    *_SUMMANDS,
    "ResolvePositiveDP_Handle",
    "ResolveNegativeDP_Handle",
    "ResolveNegativeDP_Blowup",
    "NormalizeComplexPoints",
)


def connected_sum(a: Cls, b: Cls) -> Cls:
    return Cls(a.chi + b.chi - 2, a.e + b.e, a.c1 + b.c1, a.dp + b.dp,
               a.dm + b.dm, a.orientable and b.orientable)


def step_allowed(c: Cls, kind: str) -> bool:
    if kind == "AttachWeinsteinSphere":
        return c.orientable
    if kind == "ResolvePositiveDP_Handle":
        return c.dp > 0
    if kind in ("ResolveNegativeDP_Handle", "ResolveNegativeDP_Blowup"):
        return c.dm > 0
    return True


def apply_step(c: Cls, kind: str, other: Cls | None = None) -> tuple[Cls, str | None]:
    """New class and trace annotation of one allowed step."""
    if kind == "ConnectedSum":
        return connected_sum(c, other), None
    if kind in _SUMMANDS:
        return connected_sum(c, _SUMMANDS[kind]), None
    if kind == "ResolvePositiveDP_Handle":
        return c._replace(chi=c.chi - 2, e=c.e + 2, dp=c.dp - 1), None
    if kind == "ResolveNegativeDP_Handle":
        return c._replace(chi=c.chi - 2, e=c.e - 2, dm=c.dm - 1), None
    if kind == "ResolveNegativeDP_Blowup":
        return c._replace(e=c.e - 2, dm=c.dm - 1), BLOWUP_NOTE
    if c.orientable:
        p, n = c.parts
        counts = (max(p, 0) + max(n, 0), max(-p, 0), max(-n, 0))
    else:
        counts = (max(c.total, 0), max(-c.total, 0), 0)
    return c, "normal form: {} elliptic, {}+{} hyperbolic".format(*counts)


# ---------------------------------------------------------------------------
# Projective plane plans
# ---------------------------------------------------------------------------


def plan_bound(degree: int) -> int:
    """Least genus + delta_plus of a degree-d class with all indices <= 0."""
    return (degree + 1) * (degree + 2) // 2


def plan_base(orientable: bool, degree: int | None, dplus: int) -> Cls:
    """Base class the planner starts from: the real projective plane, the
    smooth degree-d curve, or the degree-d line configuration sphere."""
    if not orientable:
        return unoriented(1, e=-1)
    d = degree
    if dplus == 0:
        return oriented((d - 1) * (d - 2) // 2, e=d * d, c1=3 * d)
    return oriented(0, e=3 * d - 2, c1=3 * d, dp=(d - 1) * (d - 2) // 2)


def plan_error_rule(orientable: bool, genus: int, dplus: int, degree: int | None) -> str | None:
    """Rule of the planner's refusal, or None when the target is feasible."""
    if genus < 0 or dplus < 0:
        return RULE_PLAN_INPUT
    if not orientable:
        return RULE_PLAN_INPUT if degree is not None or dplus != 0 or genus < 1 else None
    if degree is None or degree < 1:
        return RULE_PLAN_INPUT
    if genus + dplus < plan_bound(degree):
        return RULE_CP2_EMBEDDED if dplus == 0 else RULE_CP2_IMMERSED
    return None
