"""Parametrized surface patches in C^2 and their complex points.

A surface patch maps a 2-parameter domain into C^2.  Its complex points
are the parameters where the tangent plane is a complex line, detected by
the vanishing of the complex determinant of the two tangent vectors:

    det = (dz/ds)(dw/dt) - (dz/dt)(dw/ds).

For a graph w = f(z) with parameters (s, t) = (x, y) this determinant is
-2i df/dzbar, so its winding around an isolated zero is the classical
index of the complex point relative to the parametrization.  The reported
index is normalized by the orientation sign of the tangent complex line
(Im of the ratio of the tangent vectors), which makes it independent of
the direction the parametrization happens to wind; elliptic points come
out +1 and hyperbolic ones -1 in any chart.

Model patches:

* ``Weinstein``: the immersed sphere (x, y, u) -> (x(1+2iu), y(1+2iu)) on
  the unit sphere, in a spherical chart.  The chart map stays evaluable at
  the poles t = +-pi/2 (both land on the double point (0, 0)), but the
  sweep domain stops short of them because the spherical parametrization
  itself degenerates there.
* ``SigmaPlus`` / ``SigmaMinus``: the annuli {(x+iu)(y-+iv) = eps} that
  replace a positive / negative double point.  SigmaPlus is totally real;
  SigmaMinus has exactly four hyperbolic complex points, at s = 0 and
  t = pi/4 + k pi/2.
* ``GraphSpecialElliptic`` / ``GraphSpecialHyperbolic``: the graphs
  w = z zbar and w = zbar^2.

Chunk layout.  A sweep walks each domain rectangle's node grid in blocks
of whole rows (s fixed), at most ``sweeps.DEFAULT_CHUNK`` nodes and at
least two rows each.  A block is evaluated on broadcast axes, the rows'
s nodes as a column against the t nodes as a row, so a separable chart
computes its factors once per axis and no meshgrid is built; memory is
bounded by the block, not by the grid step.  ``locate_complex_points``
starts each block on the last row of the one before, so every cell has
all four corners in one block and the candidate cells come out in
row-major order; ``min_abs_complex_det`` needs no overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GeometryError
from .geometry import PointC2
from .sweeps import DEFAULT_CHUNK

# Node grids are offset into cells by an irrational fraction of the step
# so that zeros with rational or zero coordinates never land on a cell
# edge (where boundary windings would be ill-defined).
GRID_OFFSET_FRACTION = 0.381966011250105
# Sample counts a winding loop starts from, on a cell boundary and on a
# parameter circle; _loop_winding doubles them up to MAX_WINDING_SAMPLES.
MIN_WINDING_SAMPLES = 64
CIRCLE_WINDING_SAMPLES = 256
MAX_WINDING_SAMPLES = 1 << 20
# A bisection stops at a cell whose centre has |det| below this.
ZERO_TOL = 1e-9
IMMERSION_REL_TOL = 1e-12
# Node budget of one domain rectangle's sweep grid, which bounds the
# sweep's time (its memory is bounded by the row block); the finest grid
# in use, Weinstein at step 0.004, has about 1.1e6 nodes.
MAX_PATCH_NODES = 1 << 23

MODEL_WEINSTEIN = "Weinstein"
MODEL_SIGMA_PLUS = "SigmaPlus"
MODEL_SIGMA_MINUS = "SigmaMinus"
MODEL_GRAPH_ELLIPTIC = "GraphSpecialElliptic"
MODEL_GRAPH_HYPERBOLIC = "GraphSpecialHyperbolic"


@dataclass(frozen=True)
class Rect:
    """Closed parameter rectangle [s0, s1] x [t0, t1]."""

    s0: float
    s1: float
    t0: float
    t1: float

    def __post_init__(self):
        if not (self.s0 < self.s1 and self.t0 < self.t1):
            raise GeometryError(f"degenerate parameter rectangle {self}")


@dataclass(frozen=True)
class SurfacePatch:
    """Immersed patch with vectorized chart and tangent callables.

    ``chart`` maps parameter arrays (s, t) to complex arrays (z, w);
    ``tangents`` returns the closed-form partial derivatives
    (z_s, w_s, z_t, w_t) on the same arrays.
    """

    name: str
    chart: Callable
    domain: tuple[Rect, ...]
    tangents: Callable

    def point(self, s: float, t: float) -> PointC2:
        z, w = self.chart(s, t)
        return PointC2(complex(z), complex(w))


def _immersion_violation(z_s, w_s, z_t, w_t, shape):
    """Flat index, into the parameter ``shape``, of a parameter where the
    tangents are R-dependent or their Gram data is not finite, with what
    is wrong there; or None."""
    with np.errstate(all="ignore"):
        n_s = np.abs(z_s) ** 2 + np.abs(w_s) ** 2
        n_t = np.abs(z_t) ** 2 + np.abs(w_t) ** 2
        inner = np.real(z_s * np.conj(z_t) + w_s * np.conj(w_t))
        gram = np.broadcast_to(n_s * n_t - inner**2, shape)
        bad = gram <= IMMERSION_REL_TOL * n_s * n_t
    # gram is finite only where both norms and their product are.
    finite = np.isfinite(gram)
    if not finite.all():
        return int(np.argmin(np.ravel(finite))), "has non-finite tangent data"
    if np.any(bad):
        return int(np.argmax(np.ravel(bad))), "fails to immerse"
    return None


def det_arrays(patch: SurfacePatch, s, t) -> np.ndarray:
    """Complex determinant of the tangent pair over parameter arrays, in
    the broadcast shape of ``s`` and ``t``.

    A GeometryError names the first parameter, in row-major order of
    that shape, with non-finite tangent data, or else the first where the
    tangents fail to immerse.  A patch sweep checks one row block at a
    time, so there the first offending block wins, and within it
    non-finite data comes before a failure to immerse.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast(s, t).shape
    # Tangents that overflow are refused as non-finite data just below.
    with np.errstate(all="ignore"):
        z_s, w_s, z_t, w_t = patch.tangents(s, t)
    violation = _immersion_violation(z_s, w_s, z_t, w_t, shape)
    if violation is not None:
        bad, what = violation
        at = np.unravel_index(bad, shape)
        sb, tb = np.broadcast_to(s, shape)[at], np.broadcast_to(t, shape)[at]
        raise GeometryError(f"patch {patch.name} {what} at (s, t) = ({sb}, {tb})")
    return np.broadcast_to(np.asarray(z_s * w_t - z_t * w_s, dtype=complex), shape)


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------


def _loop_winding(patch: SurfacePatch, sample_loop: Callable, n: int) -> int:
    """Winding of the tangent determinant along a closed parameter loop.

    ``sample_loop(n)`` returns n loop points (closed implicitly).  Sample
    counts double from ``n`` until every argument increment is below
    pi/2, which makes the accumulated total unambiguous.
    """
    while True:
        s, t = sample_loop(n)
        det = det_arrays(patch, s, t)
        mags = np.abs(det)
        if np.min(mags) <= 1e-9 * np.max(mags):
            raise GeometryError(
                "tangent determinant vanishes on the loop; move or shrink it"
            )
        # Subnormal determinants overflow here; the checks after it refuse them.
        with np.errstate(all="ignore"):
            steps = np.angle(np.roll(det, -1) / det)
        if np.max(np.abs(steps)) < 0.5 * math.pi:
            total = float(np.sum(steps)) / (2 * math.pi)
            winding = round(total)
            if abs(total - winding) > 0.01:
                raise GeometryError(
                    f"winding total {total} is not an integer; loop too close to a zero"
                )
            return int(winding)
        if n >= MAX_WINDING_SAMPLES:
            raise GeometryError("winding did not stabilize; zero too close to the loop")
        n *= 2


def winding_index(patch: SurfacePatch, center: tuple[float, float], radius: float) -> int:
    """Winding of the tangent determinant on a parameter circle.

    This equals the index of an isolated complex point enclosed by the
    circle, relative to the parametrization's orientation.
    """
    if radius <= 0:
        raise GeometryError(f"radius must be positive, got {radius}")
    s0, t0 = center

    def sample_loop(n):
        ang = 2 * math.pi * np.arange(n) / n
        return s0 + radius * np.cos(ang), t0 + radius * np.sin(ang)

    return _loop_winding(patch, sample_loop, CIRCLE_WINDING_SAMPLES)


def _rect_loop(rect: Rect) -> Callable:
    corners = np.array(
        [
            [rect.s0, rect.t0],
            [rect.s1, rect.t0],
            [rect.s1, rect.t1],
            [rect.s0, rect.t1],
        ]
    )

    def sample_loop(n):
        m = max(n // 4, 16)
        pieces = []
        for k in range(4):
            a, b = corners[k], corners[(k + 1) % 4]
            frac = np.arange(m)[:, None] / m
            pieces.append(a + frac * (b - a))
        pts = np.vstack(pieces)
        return pts[:, 0], pts[:, 1]

    return sample_loop


def _rect_winding(patch: SurfacePatch, rect: Rect) -> int:
    return _loop_winding(patch, _rect_loop(rect), MIN_WINDING_SAMPLES)


# ---------------------------------------------------------------------------
# Locating complex points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocatedComplexPoint:
    """An isolated complex point found on a patch.

    ``raw_winding`` is the determinant winding in the parameter chart;
    ``orientation_sign`` is +1/-1 according to whether the parametrization
    orients the tangent complex line positively; ``index`` is their
    product, the chart-independent index of the complex point.
    """

    s: float
    t: float
    point: PointC2
    index: int
    raw_winding: int
    orientation_sign: int
    det_abs: float

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "point": self.point.to_json(),
            "index": self.index,
            "raw_winding": self.raw_winding,
            "orientation_sign": self.orientation_sign,
            "det_abs": self.det_abs,
        }


_SPLIT_FRACTIONS = ((0.5, 0.5), (0.55, 0.45), (0.45, 0.55), (0.6, 0.4))
_MAX_BISECTIONS = 90


def _subdivide(rect: Rect, fs: float, ft: float) -> list[Rect]:
    sm = rect.s0 + fs * (rect.s1 - rect.s0)
    tm = rect.t0 + ft * (rect.t1 - rect.t0)
    return [
        Rect(rect.s0, sm, rect.t0, tm),
        Rect(sm, rect.s1, rect.t0, tm),
        Rect(rect.s0, sm, tm, rect.t1),
        Rect(sm, rect.s1, tm, rect.t1),
    ]


def _refine_zero(patch: SurfacePatch, cell: Rect, winding: int) -> list[LocatedComplexPoint]:
    """Shrink a cell with nonzero boundary winding down to its zeros."""
    found: list[LocatedComplexPoint] = []
    stack = [(cell, winding, 0)]
    while stack:
        rect, w, depth = stack.pop()
        sc = 0.5 * (rect.s0 + rect.s1)
        tc = 0.5 * (rect.t0 + rect.t1)
        z_s, w_s, z_t, w_t = patch.tangents(np.asarray(sc), np.asarray(tc))
        d = abs(complex(z_s * w_t - z_t * w_s))
        if d < ZERO_TOL:
            # Sign of Im(lambda) for T_t = lambda T_s at a complex point.
            lam = (z_t * np.conj(z_s) + w_t * np.conj(w_s)) / (
                np.abs(z_s) ** 2 + np.abs(w_s) ** 2
            )
            sign = 1 if float(np.imag(lam)) > 0 else -1
            found.append(
                LocatedComplexPoint(
                    s=float(sc),
                    t=float(tc),
                    point=patch.point(sc, tc),
                    index=sign * w,
                    raw_winding=w,
                    orientation_sign=sign,
                    det_abs=d,
                )
            )
            continue
        if depth >= _MAX_BISECTIONS:
            raise GeometryError(
                f"zero cluster in patch {patch.name} unresolved near "
                f"({sc}, {tc}); |det| = {d} after {depth} bisections"
            )
        for fs, ft in _SPLIT_FRACTIONS:
            try:
                subcells = _subdivide(rect, fs, ft)
                windings = [_rect_winding(patch, sub) for sub in subcells]
                break
            except GeometryError:
                continue
        else:
            raise GeometryError(
                f"could not subdivide around ({sc}, {tc}) in patch {patch.name}"
            )
        if sum(windings) != w:
            raise GeometryError(
                f"winding mismatch while refining patch {patch.name} near ({sc}, {tc})"
            )
        for sub, sw in zip(subcells, windings):
            if sw != 0:
                stack.append((sub, sw, depth + 1))
    return found


def _cell_nodes(rect: Rect, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Offset node coordinates of ``rect`` at spacing ``step``; refuses a
    non-finite or non-positive step and more than MAX_PATCH_NODES nodes
    before allocating, and a step that leaves fewer than two nodes on an
    axis."""
    if not (math.isfinite(step) and step > 0):
        raise GeometryError(f"grid step must be positive and finite, got {step}")
    if not (rect.s1 - rect.s0) / step * ((rect.t1 - rect.t0) / step) <= MAX_PATCH_NODES:
        raise GeometryError(
            f"grid step {step} gives more than {MAX_PATCH_NODES} nodes on {rect}"
        )
    out = []
    for lo, hi in ((rect.s0, rect.s1), (rect.t0, rect.t1)):
        count = max(int(math.floor((hi - lo) / step)), 2)
        nodes = lo + step * (np.arange(count) + GRID_OFFSET_FRACTION)
        out.append(nodes[nodes <= hi])
    if len(out[0]) < 2 or len(out[1]) < 2:
        raise GeometryError(f"grid_step {step} too coarse for {rect}")
    return out[0], out[1]


def _det_rows(patch: SurfacePatch, s_nodes, t_nodes, overlap: int):
    """Yield ``(first_row, det)`` over the node grid ``s_nodes x t_nodes``
    in blocks of at most DEFAULT_CHUNK nodes (at least two rows), each
    block starting ``overlap`` rows before the previous one ends."""
    rows = max(DEFAULT_CHUNK // len(t_nodes), 2)
    t = t_nodes[None, :]
    first = 0
    while True:
        last = min(first + rows, len(s_nodes))
        yield first, det_arrays(patch, s_nodes[first:last, None], t)
        if last == len(s_nodes):
            return
        first = last - overlap


def locate_complex_points(
    patch: SurfacePatch, grid_step: float = 0.1
) -> list[LocatedComplexPoint]:
    """Find the isolated complex points of a patch.

    The domain is covered by cells of roughly ``grid_step``; cells whose
    corner determinants indicate a nonzero boundary winding (or vary too
    fast to rule one out) are verified by an adaptively sampled boundary
    winding and refined by bisection until the center determinant drops
    below ZERO_TOL.  Zeros must be isolated at the grid resolution; a
    cluster that never resolves raises instead of returning bad data.
    """
    results: list[LocatedComplexPoint] = []
    for rect in patch.domain:
        s_nodes, t_nodes = _cell_nodes(rect, grid_step)
        cells = []
        for first, det in _det_rows(patch, s_nodes, t_nodes, overlap=1):
            if np.any(det == 0):
                raise GeometryError(
                    f"determinant vanishes exactly on a grid node of {patch.name}; "
                    "perturb grid_step"
                )
            d00 = det[:-1, :-1]
            d10 = det[1:, :-1]
            d11 = det[1:, 1:]
            d01 = det[:-1, 1:]
            e = [
                np.angle(d10 / d00),
                np.angle(d11 / d10),
                np.angle(d01 / d11),
                np.angle(d00 / d01),
            ]
            total = sum(e)
            quick = np.round(total / (2 * math.pi)).astype(int)
            fast_edges = np.max(np.abs(np.stack(e)), axis=0) >= 0.45 * math.pi
            candidates = np.argwhere((quick != 0) | fast_edges)
            cells.extend((first + i, j) for i, j in candidates)
        for i, j in cells:
            cell = Rect(s_nodes[i], s_nodes[i + 1], t_nodes[j], t_nodes[j + 1])
            w = _rect_winding(patch, cell)
            if w != 0:
                results.extend(_refine_zero(patch, cell, w))

    # Deduplicate refinements that met on a shared cell edge.
    results.sort(key=lambda r: (r.s, r.t))
    deduped: list[LocatedComplexPoint] = []
    for r in results:
        if any(
            math.hypot(r.s - q.s, r.t - q.t) < 0.25 * grid_step for q in deduped
        ):
            continue
        deduped.append(r)
    return deduped


def min_abs_complex_det(patch: SurfacePatch, grid_step: float = 0.05) -> float:
    """Minimum |det| over the sweep grid; a positive lower-bound witness
    that a patch is totally real at grid resolution."""
    best = math.inf
    for rect in patch.domain:
        s_nodes, t_nodes = _cell_nodes(rect, grid_step)
        for _, det in _det_rows(patch, s_nodes, t_nodes, overlap=0):
            best = min(best, float(np.min(np.abs(det))))
    return best


# ---------------------------------------------------------------------------
# Model patches
# ---------------------------------------------------------------------------


def _weinstein_chart(s, t):
    m = 1 + 2j * np.sin(t)
    ct = np.cos(t)
    return ct * np.cos(s) * m, ct * np.sin(s) * m


def _weinstein_tangents(s, t):
    m = 1 + 2j * np.sin(t)
    ct, st = np.cos(t), np.sin(t)
    cs, ss = np.cos(s), np.sin(s)
    radial = -st * m + 2j * ct * ct
    return (-ct * ss * m, ct * cs * m, cs * radial, ss * radial)


def _sigma_charts(epsilon: float, minus: bool):
    root = math.sqrt(abs(epsilon))

    def factors(s, t):
        a = root * np.exp(s) * np.exp(1j * np.asarray(t, dtype=float))
        return a, epsilon / a

    def split(a, b):
        z = np.real(a) + 1j * np.real(b)
        if minus:
            # a = x + iu, b = y + iv
            return z, np.imag(a) + 1j * np.imag(b)
        # a = x + iu, b = y - iv
        return z, np.imag(a) - 1j * np.imag(b)

    def chart(s, t):
        return split(*factors(s, t))

    def tangents(s, t):
        a, b = factors(s, t)
        return (*split(a, -b), *split(1j * a, -1j * b))

    return chart, tangents


def _graph_patch(name: str, f, f_s, f_t) -> SurfacePatch:
    """Graph of w = f(z) over the parameter square [-1, 1]^2, z = s + it."""
    def chart(s, t):
        return np.asarray(s) + 1j * np.asarray(t), f(s, t)

    def tangents(s, t):
        shape = np.broadcast(s, t).shape
        return (
            np.ones(shape, dtype=complex),
            f_s(s, t),
            1j * np.ones(shape, dtype=complex),
            f_t(s, t),
        )

    return SurfacePatch(
        name=name, chart=chart, tangents=tangents, domain=(Rect(-1.0, 1.0, -1.0, 1.0),)
    )


def _conjugate_power_graph(name: str, p: int) -> SurfacePatch:
    def f(s, t):
        return (np.asarray(s) - 1j * np.asarray(t)) ** p

    def f_s(s, t):
        return p * (np.asarray(s) - 1j * np.asarray(t)) ** (p - 1)

    def f_t(s, t):
        return -1j * p * (np.asarray(s) - 1j * np.asarray(t)) ** (p - 1)

    return _graph_patch(name, f, f_s, f_t)


def conjugate_graph(power: int) -> SurfacePatch:
    """Graph of w = zbar^power; one complex point at 0 of index 1-power."""
    if power < 1:
        raise GeometryError(f"power must be >= 1, got {power}")
    return _conjugate_power_graph(f"ConjugatePowerGraph{power}", power)


def model_patch(kind: str, epsilon: float | None = None) -> SurfacePatch:
    """Build one of the named model patches; Sigma kinds need epsilon != 0."""
    if kind in (MODEL_SIGMA_PLUS, MODEL_SIGMA_MINUS):
        if epsilon is None or epsilon == 0:
            raise GeometryError(f"{kind} requires a nonzero epsilon")
        chart, tangents = _sigma_charts(float(epsilon), minus=(kind == MODEL_SIGMA_MINUS))
        return SurfacePatch(
            name=kind,
            chart=chart,
            tangents=tangents,
            domain=(Rect(-0.75, 0.75, 0.0, 2 * math.pi),),
        )
    if epsilon is not None:
        raise GeometryError(f"{kind} does not take an epsilon parameter")
    if kind == MODEL_WEINSTEIN:
        return SurfacePatch(
            name=kind,
            chart=_weinstein_chart,
            tangents=_weinstein_tangents,
            domain=(Rect(0.0, 2 * math.pi, -1.45, 1.45),),
        )
    if kind == MODEL_GRAPH_ELLIPTIC:
        return _graph_patch(
            kind,
            lambda s, t: np.asarray(s) ** 2 + np.asarray(t) ** 2 + 0j,
            lambda s, t: 2 * np.asarray(s) + 0j,
            lambda s, t: 2 * np.asarray(t) + 0j,
        )
    if kind == MODEL_GRAPH_HYPERBOLIC:
        return _conjugate_power_graph(kind, 2)
    raise GeometryError(f"unknown model patch kind {kind!r}")


def weinstein_double_point_planes() -> tuple[tuple, tuple]:
    """Oriented tangent planes of the Weinstein sphere at its double point,
    each an ordered pair of C^2 vectors (z, w) spanning the plane.

    The two pole preimages (0, 0, +-1) map to the origin; in graph charts
    respecting the sphere's orientation the tangent bases are
    ((1+2i, 0), (0, 1+2i)) and ((0, 1-2i), (1-2i, 0)).
    """
    north = ((1 + 2j, 0j), (0j, 1 + 2j))
    south = ((0j, 1 - 2j), (1 - 2j, 0j))
    return north, south
