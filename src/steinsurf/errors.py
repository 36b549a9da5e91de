"""Exception types shared across the package."""

from __future__ import annotations


class SteinsurfError(Exception):
    """Base class for all package-specific errors."""


class InvalidClassError(SteinsurfError, ValueError):
    """An immersion class violates a structural precondition.

    Raised, for example, when the parity constraint fails and a signed
    index split is requested anyway.
    """


class InfeasibleTargetError(SteinsurfError, ValueError):
    """A surgery planning target violates the relevant genus bound.

    Carries the name of the violated rule in ``rule``.
    """

    def __init__(self, message: str, rule: str):
        super().__init__(message)
        self.rule = rule


class SurgeryError(SteinsurfError, ValueError):
    """A surgery step cannot be applied to the given class.

    ``position`` is the 1-based position of the failing step when the
    error arises inside a recipe replay (0 when the replay refuses its
    base class: a failed parity check, or an Euler characteristic outside
    int64), else None.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GeometryError(SteinsurfError, ValueError):
    """Invalid geometric input: degenerate tangents, point outside a
    chart, non-transverse planes, malformed scene."""


class NumericalError(SteinsurfError, RuntimeError):
    """A numerical routine could not certify its own output: winding
    samples hitting a near-zero value, unresolved zero clusters,
    non-finite field values, or a stagnating descent."""


class ScenarioError(SteinsurfError, ValueError):
    """A scenario or recipe document does not match the schema."""
