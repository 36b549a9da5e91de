"""Scalar fields on C^2 and the two local model functions.

A :class:`ScalarField` evaluates on real coordinate arrays (x, y, u, v)
so grid sweeps stay vectorized.  Closed-form gradient and Levi jets are
optional.  Only the plurisubharmonicity sweep (``sweeps._field_jets``)
fills them in, from the 25-point stencil of :func:`fd_levi_arrays`, when
they are absent.  Levi entries follow the usual conventions

    rho_zz = (rho_xx + rho_yy) / 4
    rho_ww = (rho_uu + rho_vv) / 4
    rho_zw = ((rho_xu + rho_yv) + i (rho_xv - rho_yu)) / 4

so a closed-form Levi and a central-difference one agree to O(h^2).

The two models:

* special hyperbolic: rho = |w - conj(z)^2|^2, the squared defect of the
  graph w = conj(z)^2; Levi form diag(4|z|^2, 1).
* double point: rho = (x^2 + u^2)(y^2 + v^2), vanishing on the union of
  the two totally real planes {y = v = 0} and {x = u = 0}; Levi entries
  a11 = a22 = (x^2+y^2+u^2+v^2)/2 and a12 = i (x v - y u).

Each model also carries the closed-form bound of its sublevel sets that
the exhaustion sweep (``sweeps.fiber_chunks``) reads, the ``fiber`` of
:class:`ScalarField`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..certificates import Certificate, RULE_DET_IDENTITY, Witness
from ..errors import GeometryError
from .geometry import PointC2

DEFAULT_FD_STEP = 1e-4

MODEL_SPECIAL_HYPERBOLIC = "SpecialHyperbolic"
MODEL_DOUBLE_POINT = "DoublePoint"
MODEL_KINDS = (MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT)


@dataclass(frozen=True)
class ScalarField:
    """Real function on C^2 with optional closed-form jets.

    ``value`` maps coordinate arrays to an array; ``gradient`` returns
    (rho_x, rho_y, rho_u, rho_v); ``levi`` returns (a11, a22, a12).  All
    three must broadcast over numpy inputs.  ``fiber``, when present, is
    ``(axis, bound)``: over x and the coordinate t of ``axis`` (1 for y, 2
    for u), ``bound(x, t, level)`` gives (c, cv, r) such that every point
    with value < level has |s - c| <= r and |v - cv| <= r, where s is the
    other one of y and u.
    """

    name: str
    value: Callable
    gradient: Callable | None = None
    levi: Callable | None = None
    fiber: tuple[int, Callable] | None = None

    @property
    def has_jets(self) -> bool:
        return self.gradient is not None and self.levi is not None

    def value_at(self, p: PointC2) -> float:
        x, y, u, v = p.reals
        out = float(self.value(x, y, u, v))
        if not np.isfinite(out):
            raise GeometryError(f"field {self.name} non-finite at {p.reals}")
        return out


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_gradient_arrays(fn, x, y, u, v, h: float):
    """Central-difference gradient of a vectorized function (8 calls)."""
    coords = (x, y, u, v)

    def moved(axis, amount):
        return fn(*(c + amount if a == axis else c for a, c in enumerate(coords)))

    return tuple((moved(a, h) - moved(a, -h)) / (2 * h) for a in range(4))


def fd_levi_arrays(fn, x, y, u, v, h: float):
    """Value, central gradient and Levi entries (a11, a22, a12) of ``fn``
    from one 25-point stencil.

    The centre, the eight axis shifts and the sixteen mixed shifts are
    the only calls: the gradient reuses the +-h axis shifts of the pure
    second differences, so value and gradient come at no extra cost.
    Each shifted coordinate c +- h is formed once and shared by every
    call that moves its axis; the eight axis-shifted values are released
    before the mixed calls, so they do not add to the peak memory.
    """
    coords = (x, y, u, v)
    shifted = {(a, s): c + s * h for a, c in enumerate(coords) for s in (1, -1)}

    def at(*moves):
        moved = list(coords)
        for a, s in moves:
            moved[a] = shifted[a, s]
        return fn(*moved)

    center = at()
    plus = [at((a, 1)) for a in range(4)]
    minus = [at((a, -1)) for a in range(4)]
    grad = tuple((p - m) / (2 * h) for p, m in zip(plus, minus))
    xx, yy, uu, vv = [(p - 2 * center + m) / (h * h) for p, m in zip(plus, minus)]
    del plus, minus

    def mixed(a, b):
        pp = at((a, 1), (b, 1))
        pm = at((a, 1), (b, -1))
        mp = at((a, -1), (b, 1))
        mm = at((a, -1), (b, -1))
        return (pp - pm - mp + mm) / (4 * h * h)

    a11 = 0.25 * (xx + yy)
    a22 = 0.25 * (uu + vv)
    a12 = 0.25 * ((mixed(0, 2) + mixed(1, 3)) + 1j * (mixed(0, 3) - mixed(1, 2)))
    return center, grad, (a11, a22, a12)


# ---------------------------------------------------------------------------
# Model fields
# ---------------------------------------------------------------------------


def _hyperbolic_value(x, y, u, v):
    p = u - x * x + y * y
    q = v + 2 * x * y
    return p * p + q * q


def _hyperbolic_gradient(x, y, u, v):
    p = u - x * x + y * y
    q = v + 2 * x * y
    return (-4 * x * p + 4 * y * q, 4 * y * p + 4 * x * q, 2 * p, 2 * q)


def _hyperbolic_levi(x, y, u, v):
    zero = np.zeros(np.broadcast(x, y, u, v).shape)
    return (4 * (x * x + y * y) + zero, 1.0 + zero, zero.astype(complex))


def _hyperbolic_fiber(x, y, level):
    """Over (x, y): the disk of radius sqrt(level) around (u, v) = conj(z)^2."""
    return x * x - y * y, -2 * x * y, np.sqrt(level)


def _double_value(x, y, u, v):
    return (x * x + u * u) * (y * y + v * v)


def _double_gradient(x, y, u, v):
    a = x * x + u * u
    b = y * y + v * v
    return (2 * x * b, 2 * y * a, 2 * u * b, 2 * v * a)


def _double_levi(x, y, u, v):
    s = x * x + y * y + u * u + v * v
    return (0.5 * s, 0.5 * s, 1j * (x * v - y * u))


def _double_fiber(x, u, level):
    """Over (x, u): y^2 + v^2 < level / (x^2 + u^2), the whole (y, v)
    plane where x = u = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        r = np.sqrt(level / (x * x + u * u))
    return 0.0, 0.0, r


# Value, gradient, Levi form and sublevel fiber bound of each model, by kind.
_MODELS = {
    MODEL_SPECIAL_HYPERBOLIC: (_hyperbolic_value, _hyperbolic_gradient, _hyperbolic_levi,
                               (1, _hyperbolic_fiber)),
    MODEL_DOUBLE_POINT: (_double_value, _double_gradient, _double_levi, (2, _double_fiber)),
}


def model_field(kind: str, with_jets: bool = True) -> ScalarField:
    """The model field of ``kind``; without jets it carries its value only."""
    if kind not in _MODELS:
        raise GeometryError(f"unknown model kind {kind!r}")
    value, gradient, levi, fiber = _MODELS[kind]
    return ScalarField(kind, value, gradient, levi, fiber) if with_jets else ScalarField(kind, value)


def det_identity_check(p: PointC2, rel_tol: float = 1e-12) -> Certificate:
    """Determinant identity of the double point Levi form.

    Checks 4 det H = s^2 - 4 (x v - y u)^2 with s = x^2+y^2+u^2+v^2
    (relative tolerance), and the lower bound 4 det H >= (|z|^2-|w|^2)^2.
    Both degenerate exactly on the complex lines w = +-iz.
    """
    x, y, u, v = p.reals
    a11, a22, a12 = _double_levi(x, y, u, v)
    lhs = 4.0 * (a11 * a22 - abs(a12) ** 2)
    s = x * x + y * y + u * u + v * v
    rhs = s * s - 4.0 * (x * v - y * u) ** 2
    bound = ((x * x + y * y) - (u * u + v * v)) ** 2
    scale = max(abs(lhs), abs(rhs), 1.0)
    equality = abs(lhs - rhs) <= rel_tol * scale
    lower = lhs >= bound - rel_tol * scale
    witnesses = (
        Witness(list(p.reals), {"4detH": lhs, "quartic": rhs, "bound": bound}),
    )
    return Certificate(equality and lower, RULE_DET_IDENTITY, witnesses)
