"""Points, boxes, Hermitian eigenvalues, and intersection signs in C^2 = R^4.

The real coordinates are always ordered (x, y, u, v) with z = x + iy and
w = u + iv.  The complex orientation of C^2 is the standard orientation
of R^4 in these coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError


@dataclass(frozen=True)
class PointC2:
    """A point of C^2, identified with (x, y, u, v) in R^4."""

    z: complex
    w: complex

    def __post_init__(self):
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)
                and math.isfinite(self.w.real) and math.isfinite(self.w.imag)):
            raise GeometryError(f"non-finite point ({self.z}, {self.w})")

    @classmethod
    def from_reals(cls, x: float, y: float, u: float, v: float) -> "PointC2":
        return cls(complex(x, y), complex(u, v))

    @property
    def reals(self) -> tuple[float, float, float, float]:
        return (self.z.real, self.z.imag, self.w.real, self.w.imag)

    def to_json(self) -> list[float]:
        return list(self.reals)


@dataclass(frozen=True)
class Box4:
    """Axis-aligned box in R^4, bounds ordered as (x, y, u, v)."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.lo) != 4 or len(self.hi) != 4:
            raise GeometryError("Box4 needs four lower and four upper bounds")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"degenerate box: lo={self.lo}, hi={self.hi}")

    @classmethod
    def symmetric(cls, half_width: float) -> "Box4":
        a = float(half_width)
        return cls((-a, -a, -a, -a), (a, a, a, a))

    def contains(self, p: PointC2) -> bool:
        return all(l <= c <= h for l, c, h in zip(self.lo, p.reals, self.hi))

    def node_counts(self, step: float) -> tuple[int, int, int, int]:
        """Node count of every side of the grid at spacing ``step``,
        computed without allocating; refuses a non-finite or non-positive
        step."""
        if not (math.isfinite(step) and step > 0):
            raise GeometryError(f"grid step must be positive and finite, got {step}")
        counts = []
        for l, h in zip(self.lo, self.hi):
            ratio = (h - l) / step
            if not math.isfinite(ratio):
                raise GeometryError(f"grid step {step} is too small for side [{l}, {h}]")
            counts.append(max(int(round(ratio)) + 1, 2))
        return tuple(counts)

    def axes(self, step: float) -> list[np.ndarray]:
        """Uniform sample axes hitting both endpoints of every side."""
        return [np.linspace(l, h, n)
                for l, h, n in zip(self.lo, self.hi, self.node_counts(step))]


def eigmin_arrays(a11, a22, a12) -> np.ndarray:
    """Vectorized smallest eigenvalue of 2x2 Hermitian forms."""
    a11 = np.asarray(a11, dtype=float)
    a22 = np.asarray(a22, dtype=float)
    a12 = np.asarray(a12)
    return 0.5 * (a11 + a22) - np.hypot(0.5 * (a11 - a22), np.abs(a12))


def intersection_sign(plane_a: tuple, plane_b: tuple) -> int:
    """Sign of a transverse intersection of two oriented real 2-planes,
    each an ordered pair of C^2 vectors (z, w) that spans it.

    The four basis vectors are stacked as rows (x, y, u, v) and compared
    against the complex orientation of C^2; swapping the two planes moves
    rows by an even permutation, so the sign is symmetric.
    """
    rows = np.array(
        [[z.real, z.imag, w.real, w.imag] for z, w in (*plane_a, *plane_b)], dtype=float
    )
    det = float(np.linalg.det(rows))
    scale = float(np.prod(np.linalg.norm(rows, axis=1)))
    if scale == 0.0 or abs(det) < 1e-9 * scale:
        raise GeometryError("planes are not transverse (determinant ~ 0)")
    return 1 if det > 0 else -1
