"""Integer invariants of immersed surfaces in complex surfaces.

A closed real surface immersed in a complex surface carries a small set of
integers: the topology of the source (genus and orientability), the normal
Euler number of the immersion, the pairing of the ambient first Chern class
with the image homology class, and the counts of positive and negative
double points.  Out of these the module computes:

* the total index of complex points, and its split into the contributions
  of positively and negatively oriented complex points when the surface
  is oriented;
* genus bounds of adjunction type, in embedded and immersed variants;
* the existence condition for a basis of Stein tubular neighborhoods
  after a small isotopy (all signed indices nonpositive);
* hypothesis-gated verdicts that combine the index condition with
  ambient assumptions supplied explicitly by the caller.

Everything here is exact integer arithmetic.  Half-integers never occur
for valid input because of the parity constraint checked by
:func:`validate`; the split indices are asserted integral rather than
rounded.  Every integer derived from a class (Euler characteristic,
parity sum, index total, self-intersection, the adjunction sides) is
checked where it is derived to lie in int64, and a value outside raises
InvalidClassError naming the quantity; the index halves lie in int64
whenever the total and the Chern pairing do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import (
    Certificate,
    RULE_ADJ_EMBEDDED,
    RULE_ADJ_IMMERSED_NECESSARY,
    RULE_ADJ_IMMERSED_SUFFICIENT,
    RULE_AMBIENT_NOT_STEIN,
    RULE_CP2_EMBEDDED_BOUND,
    RULE_CP2_IMMERSED_BOUND,
    RULE_GRAY_AREA,
    RULE_INDEX_INTEGRALITY,
    RULE_INDEX_NONPOSITIVE,
    RULE_NULL_CLASS_UNRESOLVED,
    RULE_STEIN_AMBIENT_EMBEDDED,
    RULE_STEIN_AMBIENT_IMMERSED,
    RULE_UNORIENTABLE_UNRESOLVED,
    Witness,
)
from .errors import InvalidClassError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Adjunction variants.  "embedded" is the genus bound for embedded
# surfaces.  "immersed_necessary" is the inequality that holds whenever
# the immersed surface has a Stein neighborhood basis (in the ambient
# situations gated by `verdict`).  "immersed_sufficient" is the stronger
# inequality that is equivalent to both signed indices being nonpositive,
# hence to the isotopy construction going through.
VARIANT_EMBEDDED = "embedded"
VARIANT_IMMERSED_NECESSARY = "immersed_necessary"
VARIANT_IMMERSED_SUFFICIENT = "immersed_sufficient"
_ADJUNCTION_RULES = {
    VARIANT_EMBEDDED: RULE_ADJ_EMBEDDED,
    VARIANT_IMMERSED_NECESSARY: RULE_ADJ_IMMERSED_NECESSARY,
    VARIANT_IMMERSED_SUFFICIENT: RULE_ADJ_IMMERSED_SUFFICIENT,
}
ADJUNCTION_VARIANTS = tuple(_ADJUNCTION_RULES)

# Verdict outcomes.
OUTCOME_STEIN = "SteinAfterIsotopy"
OUTCOME_NO_STEIN = "NoSteinNeighborhood"
OUTCOME_INCONCLUSIVE = "Inconclusive"

# Ambient kinds.
KIND_AFFINE_PLANE = "AffinePlane"
KIND_PROJECTIVE_PLANE = "ProjectivePlane"
KIND_QUADRIC = "Quadric"
KIND_LINE_BUNDLE = "LineBundle"
KIND_ABSTRACT = "Abstract"
AMBIENT_KINDS = (
    KIND_AFFINE_PLANE,
    KIND_PROJECTIVE_PLANE,
    KIND_QUADRIC,
    KIND_LINE_BUNDLE,
    KIND_ABSTRACT,
)


# Typed field readers: every record read from JSON goes through these, so
# a string, float or bool never stands in for an integer or a flag.


def _check_int64(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidClassError(f"{name} must be an integer, got {value!r}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise InvalidClassError(f"{name} out of signed 64-bit range: {value}")
    return value


def _check_bool(name: str, value: bool) -> bool:
    if not isinstance(value, bool):
        raise InvalidClassError(f"{name} must be true or false, got {value!r}")
    return value


def _check_number(name: str, value: float) -> float:
    if isinstance(value, float):
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidClassError(f"{name} must be a number, got {value!r}")
    return float(_check_int64(name, value))


def _check_record(name: str, data: dict, required: set, optional: set = frozenset(),
                  error: type = InvalidClassError) -> dict:
    """Return ``data`` if it is an object holding every required key and
    no key outside ``required | optional``; else raise ``error``."""
    if not isinstance(data, dict):
        raise error(f"{name} must be an object, got {data!r}")
    keys = data.keys()
    if not (required <= keys and keys - required <= optional):
        problems = [f"{what} {sorted(names, key=str)}" for what, names in
                    (("missing", required - keys), ("unknown", keys - required - optional))
                    if names]
        raise error(f"malformed {name} record: {', '.join(problems)}; "
                    f"fields are {sorted(required | optional)}")
    return data


@dataclass(frozen=True)
class ImmersionClass:
    """Invariant data of a generically immersed closed surface.

    For orientable surfaces ``genus`` counts handles; for unorientable
    surfaces it counts cross-caps, of which a closed one has at least one.
    ``normal_euler`` is the Euler number of the normal bundle of the
    immersion itself and ``delta_plus``/``delta_minus`` count transverse
    double points by sign.  The self-intersection number of the image
    homology class is then ``normal_euler + 2*(delta_plus - delta_minus)``.
    ``c1_pairing`` is the value of the ambient first Chern class on the
    image class; for unorientable surfaces only the total index is ever
    used and the field is conventionally zero.
    """

    genus: int
    orientable: bool
    normal_euler: int
    c1_pairing: int
    delta_plus: int
    delta_minus: int

    def __post_init__(self):
        _check_int64("genus", self.genus)
        if self.genus < 0:
            raise InvalidClassError(f"genus must be nonnegative, got {self.genus}")
        if not self.orientable and self.genus == 0:
            raise InvalidClassError(
                "an unorientable surface has at least one cross-cap (genus >= 1)"
            )
        for name in ("normal_euler", "c1_pairing", "delta_plus", "delta_minus"):
            _check_int64(name, getattr(self, name))
        if self.delta_plus < 0 or self.delta_minus < 0:
            raise InvalidClassError("double point counts must be nonnegative")

    # -- convenience views -------------------------------------------------

    @property
    def euler_char(self) -> int:
        """Euler characteristic: 2 - 2g orientable, 2 - g unorientable."""
        return _check_int64("euler_char", 2 - 2 * self.genus if self.orientable else 2 - self.genus)

    @property
    def delta(self) -> int:
        return self.delta_plus - self.delta_minus

    @property
    def self_intersection(self) -> int:
        """Self-intersection of the image class: normal Euler number plus
        twice the signed double point count."""
        return _check_int64("self_intersection", self.normal_euler + 2 * self.delta)

    @property
    def embedded(self) -> bool:
        return self.delta_plus == 0 and self.delta_minus == 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "topology": {"genus": self.genus, "orientable": self.orientable},
            "normal_euler": self.normal_euler,
            "c1_pairing": self.c1_pairing,
            "delta_plus": self.delta_plus,
            "delta_minus": self.delta_minus,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ImmersionClass":
        # __post_init__ reads the genus and the four integers through _check_int64.
        _check_record("immersion class", data,
                      {"topology", "normal_euler", "c1_pairing", "delta_plus", "delta_minus"})
        topology = _check_record("topology", data["topology"], {"genus", "orientable"})
        return cls(
            genus=topology["genus"],
            orientable=_check_bool("orientable", topology["orientable"]),
            normal_euler=data["normal_euler"],
            c1_pairing=data["c1_pairing"],
            delta_plus=data["delta_plus"],
            delta_minus=data["delta_minus"],
        )


def oriented_class(
    genus: int,
    normal_euler: int = 0,
    c1_pairing: int = 0,
    delta_plus: int = 0,
    delta_minus: int = 0,
) -> ImmersionClass:
    """Shorthand constructor for orientable classes."""
    return ImmersionClass(genus, True, normal_euler, c1_pairing, delta_plus, delta_minus)


def unoriented_class(
    genus: int,
    normal_euler: int = 0,
    delta_plus: int = 0,
    delta_minus: int = 0,
) -> ImmersionClass:
    """Shorthand constructor for unorientable classes (zero Chern pairing)."""
    return ImmersionClass(genus, False, normal_euler, 0, delta_plus, delta_minus)


@dataclass(frozen=True)
class IndexReport:
    """Total index of complex points and its orientation split.

    ``positive`` and ``negative`` are present exactly when the surface is
    orientable, and then ``positive + negative == total``.
    """

    total: int
    positive: int | None
    negative: int | None


PARITY_VIOLATION = ("parity violation: euler_char + normal_euler + c1_pairing is odd, "
                    "the signed index split would not be integral")


def require_integral_split(imm: ImmersionClass) -> None:
    """Refuse, with :data:`PARITY_VIOLATION`, an orientable class whose
    chi + e + c1 is odd: the plain test behind :func:`validate`."""
    if imm.orientable and (imm.euler_char + imm.normal_euler + imm.c1_pairing) % 2:
        raise InvalidClassError(PARITY_VIOLATION)


def validate(imm: ImmersionClass) -> Certificate:
    """Check that the signed index split is integral.

    For an orientable class the sum of Euler characteristic, normal Euler
    number and Chern pairing must be even; otherwise the two half-index
    combinations would be half-integers, which cannot occur for actual
    immersions.  Unorientable classes carry no split and always pass.
    """
    chi = imm.euler_char
    witnesses = (
        Witness("euler_char", chi),
        Witness("normal_euler", imm.normal_euler),
        Witness("c1_pairing", imm.c1_pairing),
    )
    if not imm.orientable:
        return Certificate(True, RULE_INDEX_INTEGRALITY, witnesses)
    parity_sum = _check_int64("parity_sum", chi + imm.normal_euler + imm.c1_pairing)
    witnesses = witnesses + (Witness("parity_sum", parity_sum),)
    return Certificate(parity_sum % 2 == 0, RULE_INDEX_INTEGRALITY, witnesses)


def lai(imm: ImmersionClass) -> IndexReport:
    """Index of complex points of a generic immersion in the given class.

    The total equals the Euler characteristic of the surface plus the
    normal Euler number.  For oriented surfaces the positive and negative
    complex points contribute separately; each signed part is half of
    (total plus or minus the Chern pairing).
    """
    require_integral_split(imm)
    total = _check_int64("index total", imm.euler_char + imm.normal_euler)
    if not imm.orientable:
        return IndexReport(total=total, positive=None, negative=None)
    # total and c1 both lie in int64, so total +- c1 lies in
    # [2 * INT64_MIN, 2 * INT64_MAX] and each floored half in int64.
    positive = (total + imm.c1_pairing) // 2
    negative = (total - imm.c1_pairing) // 2
    return IndexReport(total=total, positive=positive, negative=negative)


def adjunction_rhs(imm: ImmersionClass) -> int:
    """Right-hand side of the genus bounds: 1 + (S.S + |c1.S|)/2.

    Uses the image-class self-intersection, so double points enter through
    the homological correction.  Defined for orientable classes only.
    """
    if not imm.orientable:
        raise InvalidClassError("adjunction bounds are for orientable classes only")
    require_integral_split(imm)
    doubled = 2 + imm.self_intersection + abs(imm.c1_pairing)
    # Parity of self_intersection + |c1| matches the validated parity sum,
    # so the division below is exact.
    assert doubled % 2 == 0
    return _check_int64("adjunction_rhs", doubled // 2)


def check_adjunction(imm: ImmersionClass, variant: str) -> Certificate:
    """Evaluate one of the three genus-bound variants.

    * ``embedded``: genus + delta_plus = genus >= rhs, for embedded classes only.
    * ``immersed_necessary``: genus + delta_plus >= rhs.
    * ``immersed_sufficient``: genus + delta_plus >= rhs + delta_minus;
      this one is equivalent to both signed indices being nonpositive.
    """
    if variant not in ADJUNCTION_VARIANTS:
        raise InvalidClassError(f"unknown adjunction variant {variant!r}")
    if variant == VARIANT_EMBEDDED and not imm.embedded:
        raise InvalidClassError(
            "embedded variant requested for a class with double points; "
            "use an immersed variant"
        )
    rhs = adjunction_rhs(imm)
    lhs = _check_int64("genus + delta_plus", imm.genus + imm.delta_plus)
    if variant == VARIANT_IMMERSED_SUFFICIENT:
        rhs = _check_int64("adjunction_rhs + delta_minus", rhs + imm.delta_minus)
    witnesses = (Witness("lhs", lhs), Witness("rhs", rhs))
    return Certificate(lhs >= rhs, _ADJUNCTION_RULES[variant], witnesses)


def stein_condition(imm: ImmersionClass) -> Certificate:
    """Pass iff every (signed) index of complex points is nonpositive.

    This is the exact condition under which the surface can be isotoped,
    by an arbitrarily small smooth isotopy, to a position with a basis of
    Stein tubular neighborhoods.
    """
    report = lai(imm)
    if imm.orientable:
        witnesses = (
            Witness("index_positive_part", report.positive),
            Witness("index_negative_part", report.negative),
        )
        ok = report.positive <= 0 and report.negative <= 0
    else:
        witnesses = (Witness("index_total", report.total),)
        ok = report.total <= 0
    return Certificate(ok, RULE_INDEX_NONPOSITIVE, witnesses)


# ---------------------------------------------------------------------------
# Ambient descriptions and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientDescriptor:
    """Description of the ambient complex surface.

    The flag ``stein`` is supplied by the caller; nothing here tries to
    infer it.  The kind-specific parameters of a JSON record (``base_genus``
    and ``degree`` for line bundle total spaces over a closed Riemann
    surface, ``normal_euler`` and ``c1_pairing`` for an abstract ambient
    where the caller provides the pairings of the class directly) are
    required and type-checked by :meth:`from_json`, though no rule reads
    them.
    """

    kind: str
    stein: bool

    def __post_init__(self):
        if self.kind not in AMBIENT_KINDS:
            raise InvalidClassError(f"unknown ambient kind {self.kind!r}")
        if self.kind == KIND_AFFINE_PLANE and not self.stein:
            raise InvalidClassError("the affine plane is Stein")
        if self.kind in (KIND_PROJECTIVE_PLANE, KIND_QUADRIC) and self.stein:
            raise InvalidClassError(f"{self.kind} is compact, hence not Stein")

    @classmethod
    def from_json(cls, data: dict) -> "AmbientDescriptor":
        _check_record("ambient", data, {"kind", "stein", "kaehler_b2plus_gt1"})
        kind = data["kind"]
        if isinstance(kind, dict):
            name = kind.get("name")
            keys = _KIND_FIELDS.get(name) if isinstance(name, str) else None
            if keys is None:
                raise InvalidClassError(f"parametrized ambient kind must be one of "
                                        f"{sorted(_KIND_FIELDS)}, got {name!r}")
            _check_record(name, kind, {"name", *keys})
            for key in keys:
                _check_int64(key, kind[key])
            if name == KIND_LINE_BUNDLE and kind["base_genus"] < 0:
                raise InvalidClassError("base_genus must be nonnegative")
            kind = name
        elif isinstance(kind, str) and kind in _KIND_FIELDS:
            raise InvalidClassError(f"{kind} ambient needs {' and '.join(_KIND_FIELDS[kind])}")
        # Required and type-checked by schema 1, though no rule reads it.
        _check_bool("kaehler_b2plus_gt1", data["kaehler_b2plus_gt1"])
        return cls(kind=kind, stein=_check_bool("stein", data["stein"]))


# The keys of the kinds written as {"name": ..., ...}.
_KIND_FIELDS = {
    KIND_LINE_BUNDLE: ("base_genus", "degree"),
    KIND_ABSTRACT: ("normal_euler", "c1_pairing"),
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of combining the index condition with ambient hypotheses.

    ``outcome`` is one of the three outcome constants; ``rule`` names the
    single rule that produced it, including which hypothesis is missing
    when the outcome is inconclusive.
    """

    outcome: str
    rule: str
    witnesses: tuple[Witness, ...] = ()

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "rule": self.rule,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def _projective_degree(imm: ImmersionClass) -> int:
    """Degree of the image class in the projective plane, orientation
    normalized to be nonnegative.  Raises when the stored pairings are
    not those of a degree class."""
    c1 = abs(imm.c1_pairing)
    if c1 % 3 != 0:
        raise InvalidClassError(
            "projective plane classes pair with c1 in multiples of 3; "
            f"got {imm.c1_pairing}"
        )
    d = c1 // 3
    if imm.self_intersection != d * d:
        raise InvalidClassError(
            "inconsistent projective plane data: self-intersection "
            f"{imm.self_intersection} does not match degree {d}"
        )
    return d


def verdict(imm: ImmersionClass, ambient: AmbientDescriptor, class_nonzero: bool) -> Verdict:
    """Combine the index condition with explicitly supplied ambient facts.

    The decision ladder:

    1. If all (signed) indices are nonpositive, the surface acquires a
       Stein neighborhood basis after a small isotopy, in any ambient.
    2. For an oriented class in a Stein ambient representing a nonzero
       homology class, failure of the applicable genus bound excludes
       Stein neighborhoods (embedded and immersed cases cite different
       rules).
    3. In the projective plane the same bounds exclude Stein
       neighborhoods for classes of degree at least one.
    4. Otherwise the data does not decide, and the verdict names the
       hypothesis that is unresolved.

    ``class_nonzero`` is never inferred from the other data.
    """
    sc = stein_condition(imm)
    if sc.passed:
        return Verdict(OUTCOME_STEIN, RULE_INDEX_NONPOSITIVE, sc.witnesses)

    if imm.orientable:
        variant = VARIANT_EMBEDDED if imm.embedded else VARIANT_IMMERSED_NECESSARY
        adj = check_adjunction(imm, variant)
        if ambient.stein and class_nonzero and not adj.passed:
            rule = RULE_STEIN_AMBIENT_EMBEDDED if imm.embedded else RULE_STEIN_AMBIENT_IMMERSED
            return Verdict(OUTCOME_NO_STEIN, rule, adj.witnesses)
        if ambient.kind == KIND_PROJECTIVE_PLANE:
            d = _projective_degree(imm)
            if d >= 1 and not adj.passed:
                rule = RULE_CP2_EMBEDDED_BOUND if imm.embedded else RULE_CP2_IMMERSED_BOUND
                return Verdict(
                    OUTCOME_NO_STEIN, rule, adj.witnesses + (Witness("degree", d),)
                )
        unresolved_witnesses = sc.witnesses + adj.witnesses
        if not ambient.stein:
            return Verdict(OUTCOME_INCONCLUSIVE, RULE_AMBIENT_NOT_STEIN, unresolved_witnesses)
        if not class_nonzero:
            return Verdict(OUTCOME_INCONCLUSIVE, RULE_NULL_CLASS_UNRESOLVED, unresolved_witnesses)
        # Stein ambient, nonzero class, the necessary bound holds, yet some
        # signed index is positive: between the construction and the
        # obstruction there is no applicable rule.
        return Verdict(OUTCOME_INCONCLUSIVE, RULE_GRAY_AREA, unresolved_witnesses)

    return Verdict(OUTCOME_INCONCLUSIVE, RULE_UNORIENTABLE_UNRESOLVED, sc.witnesses)
