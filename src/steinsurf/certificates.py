"""Machine-checkable certificates.

Every checker in the package reports its outcome as a :class:`Certificate`:
a pass/fail flag, the name of the rule that was evaluated, and a list of
witnesses recording the numbers the decision was based on.  Certificates
serialize to JSON as ``{"pass": ..., "rule": ..., "witnesses": [...]}``.
Witness data enters that tree as built, so the tree shares a witness's
own lists; ``cli.dump`` is the one gate on what a report may hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Rule names cited by certificates and verdicts.  These are stable
# identifiers; reports compare against them verbatim.
RULE_INDEX_INTEGRALITY = "index-integrality"
RULE_INDEX_NONPOSITIVE = "index-nonpositive"
RULE_ADJ_EMBEDDED = "adjunction-embedded"
RULE_ADJ_IMMERSED_NECESSARY = "adjunction-immersed-necessary"
RULE_ADJ_IMMERSED_SUFFICIENT = "adjunction-immersed-sufficient"
RULE_STEIN_AMBIENT_EMBEDDED = "stein-ambient-embedded-adjunction"
RULE_STEIN_AMBIENT_IMMERSED = "stein-ambient-immersed-adjunction"
RULE_CP2_EMBEDDED_BOUND = "projective-plane-embedded-bound"
RULE_CP2_IMMERSED_BOUND = "projective-plane-immersed-bound"
RULE_UNORIENTABLE_UNRESOLVED = "unoriented-positive-index-unresolved"
RULE_AMBIENT_NOT_STEIN = "ambient-not-stein-necessity-unresolved"
RULE_NULL_CLASS_UNRESOLVED = "null-homologous-class-necessity-unresolved"
RULE_GRAY_AREA = "index-positive-within-adjunction-gray-area"
RULE_WINDING = "winding-index"
RULE_LEVI_PSH = "levi-positive-semidefinite"
RULE_DET_IDENTITY = "levi-determinant-identity"
RULE_EXHAUSTION = "exhaustion-strongly-psh"
RULE_FLOW = "gradient-flow-retraction"
RULE_INTERSECTION_SIGN = "double-point-intersection-sign"


@dataclass(frozen=True)
class Witness:
    """A single recorded observation backing a certificate.

    ``point`` is either a short label (for algebraic checks), a parameter
    pair, a list whose first entry is a label followed by coordinates, or
    the real coordinates (x, y, u, v) of a point in C^2.
    ``value`` is the observed quantity.
    """

    point: Any
    value: Any

    def to_json(self) -> dict:
        return {"point": self.point, "value": self.value}


@dataclass(frozen=True)
class Certificate:
    passed: bool
    rule: str
    witnesses: tuple[Witness, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "rule": self.rule,
            "witnesses": [w.to_json() for w in self.witnesses],
        }
