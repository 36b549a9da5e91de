"""Gradient flow of a neighborhood function down to its zero set.

The negative gradient flow of a nonnegative field rho retracts a small
sublevel set onto {rho = 0}.  This module integrates that flow with a
classical RK4 stepper and a value-monotone step controller: any step
that fails to decrease rho (or leaves the box) is rejected and retried
at half the step size, and accepted steps let the step size grow
without bound.  The growth matters: where the zero set is not a clean
graph (for instance along the double line of x^2 u^2-type fields) the
flow only converges algebraically in time, so reaching a 1e-10 value
needs exponentially stretched steps rather than more of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .fields import ScalarField
from .geometry import Box4, PointC2

CONVERGED_VALUE = 1e-10
_MIN_STEP = 1e-12
_GROWTH = 1.25


@dataclass(frozen=True)
class FlowResult:
    trajectory: tuple[PointC2, ...]
    values: tuple[float, ...]
    final_value: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "steps": len(self.trajectory) - 1,
            "final_value": self.final_value,
            "converged": self.converged,
        }


def _descent(field: ScalarField, coords: np.ndarray) -> np.ndarray:
    g = np.asarray(field.gradient_at(PointC2.from_reals(*coords)), dtype=float)
    return -g


def flow_to_surface(
    field: ScalarField,
    start: PointC2,
    step: float = 0.05,
    max_iters: int = 5000,
    box: Box4 | None = None,
) -> FlowResult:
    """Flow ``start`` down the gradient of ``field`` until the value drops
    below CONVERGED_VALUE, the iteration budget runs out, or the point
    leaves ``box`` (default: the centered box of half width 2)."""
    if step <= 0:
        raise GeometryError(f"step must be positive, got {step}")
    box = Box4.symmetric(2.0) if box is None else box
    coords = np.array(start.reals, dtype=float)
    if not box.contains(start):
        raise GeometryError(f"start {start.reals} outside the flow box")

    value = float(field.value_at(start))
    trajectory = [start]
    values = [value]
    dt = step
    converged = value <= CONVERGED_VALUE

    for _ in range(max_iters):
        if converged:
            break
        k1 = _descent(field, coords)
        k2 = _descent(field, coords + 0.5 * dt * k1)
        k3 = _descent(field, coords + 0.5 * dt * k2)
        k4 = _descent(field, coords + dt * k3)
        candidate = coords + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        point = PointC2.from_reals(*candidate)
        inside = box.contains(point)
        new_value = float(field.value_at(point)) if inside else None
        if not inside or new_value >= value:
            dt *= 0.5
            if dt < _MIN_STEP:
                if not inside:
                    raise GeometryError(
                        f"gradient flow escaped the box at {tuple(candidate)}"
                    )
                break
            continue
        coords = candidate
        value = new_value
        trajectory.append(point)
        values.append(value)
        dt *= _GROWTH
        if value <= CONVERGED_VALUE:
            converged = True

    return FlowResult(tuple(trajectory), tuple(values), value, converged)
