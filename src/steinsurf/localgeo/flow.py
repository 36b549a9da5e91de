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
trajectory is bit for bit the one a float64 array stepper takes.  Only
accepted points become :class:`PointC2`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

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


def _check_point(x: float, y: float, u: float, v: float) -> None:
    """Raise the error PointC2 raises on a non-finite coordinate."""
    if not (isfinite(x) and isfinite(y) and isfinite(u) and isfinite(v)):
        PointC2.from_reals(x, y, u, v)


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
    if not box.contains(start):
        raise GeometryError(f"start {start.reals} outside the flow box")
    name, value_of, gradient_of = field.name, field.value, field.gradient_fn()
    (xl, yl, ul, vl), (xh, yh, uh, vh) = box.lo, box.hi

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
    trajectory = [start]
    values = [value]
    dt = step
    converged = value <= CONVERGED_VALUE

    for _ in range(max_iters):
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
        trajectory.append(PointC2.from_reals(x, y, u, v))
        values.append(value)
        dt *= _GROWTH
        if value <= CONVERGED_VALUE:
            converged = True

    return FlowResult(tuple(trajectory), tuple(values), value, converged)
