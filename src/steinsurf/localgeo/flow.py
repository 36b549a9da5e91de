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

The stepper runs on Python floats, coordinate by coordinate, with the
IEEE operations of the vector formulas c + (dt/2) k and
c + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) in the same order, so its
trajectory of (x, y, u, v) floats is bit for bit a float64 array stepper's.
Each candidate is checked as a :class:`PointC2` is; only the last value is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from ..errors import GeometryError
from .fields import ScalarField
from .geometry import Box4, PointC2

CONVERGED_VALUE = 1e-10
_FIRST_STEP = 0.05
_MIN_STEP = 1e-12
_GROWTH = 1.25
_MAX_ITERS = 5000
_BOX = Box4.symmetric(2.0)


@dataclass(frozen=True)
class FlowResult:
    """Accepted (x, y, u, v) points, each of lower value than the last, and the final value."""

    trajectory: tuple[tuple[float, float, float, float], ...]
    final_value: float
    converged: bool


def _check_point(x: float, y: float, u: float, v: float) -> None:
    """Raise the error PointC2 raises on a non-finite coordinate."""
    if not (isfinite(x) and isfinite(y) and isfinite(u) and isfinite(v)):
        PointC2.from_reals(x, y, u, v)


def flow_to_surface(field: ScalarField, start: PointC2) -> FlowResult:
    """Flow ``start`` down the closed-form gradient of ``field`` (a field
    without one is refused) until the value drops below CONVERGED_VALUE or
    the budget of 5000 attempted steps runs out.  The first step is 0.05.
    The flow stays in the centered box of half width 2: a start outside it
    is refused, and a step that leaves it is retried at half the size
    until the step size falls below its minimum, which raises."""
    if field.gradient is None:
        raise GeometryError(f"field {field.name} has no closed-form gradient to flow along")
    if not _BOX.contains(start):
        raise GeometryError(f"start {start.reals} outside the flow box")
    name, value_of, gradient_of = field.name, field.value, field.gradient
    (xl, yl, ul, vl), (xh, yh, uh, vh) = _BOX.lo, _BOX.hi

    def descent(x, y, u, v):
        """Minus the gradient at a stage point, checked like a PointC2."""
        _check_point(x, y, u, v)
        gx, gy, gu, gv = gradient_of(x, y, u, v)
        gx, gy, gu, gv = -float(gx), -float(gy), -float(gu), -float(gv)
        if not (isfinite(gx) and isfinite(gy) and isfinite(gu) and isfinite(gv)):
            raise GeometryError(f"gradient of {name} non-finite at {(x, y, u, v)}")
        return gx, gy, gu, gv

    x, y, u, v = start.reals
    value = field.value_at(start)
    trajectory = [start.reals]
    dt = _FIRST_STEP
    converged = value <= CONVERGED_VALUE

    for _ in range(_MAX_ITERS):
        if converged:
            break
        half = 0.5 * dt
        ax, ay, au, av = descent(x, y, u, v)
        bx, by, bu, bv = descent(x + half * ax, y + half * ay, u + half * au, v + half * av)
        cx, cy, cu, cv = descent(x + half * bx, y + half * by, u + half * bu, v + half * bv)
        dx, dy, du, dv = descent(x + dt * cx, y + dt * cy, u + dt * cu, v + dt * cv)
        sixth = dt / 6.0
        nx = x + sixth * (((ax + 2 * bx) + 2 * cx) + dx)
        ny = y + sixth * (((ay + 2 * by) + 2 * cy) + dy)
        nu = u + sixth * (((au + 2 * bu) + 2 * cu) + du)
        nv = v + sixth * (((av + 2 * bv) + 2 * cv) + dv)
        _check_point(nx, ny, nu, nv)
        inside = xl <= nx <= xh and yl <= ny <= yh and ul <= nu <= uh and vl <= nv <= vh
        if inside:
            new_value = float(value_of(nx, ny, nu, nv))
            if not isfinite(new_value):
                raise GeometryError(f"field {name} non-finite at {(nx, ny, nu, nv)}")
        if not inside or new_value >= value:
            dt *= 0.5
            if dt < _MIN_STEP:
                if not inside:
                    raise GeometryError(
                        f"gradient flow escaped the box at {(nx, ny, nu, nv)}"
                    )
                break
            continue
        x, y, u, v = nx, ny, nu, nv
        value = new_value
        trajectory.append((nx, ny, nu, nv))
        dt *= _GROWTH
        if value <= CONVERGED_VALUE:
            converged = True

    return FlowResult(tuple(trajectory), value, converged)
