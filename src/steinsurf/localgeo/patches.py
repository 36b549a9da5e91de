"""Parametrized surface patches in C^2 and their complex points.

A surface patch maps a 2-parameter domain into C^2.  Its complex points
are the parameters where the tangent plane is a complex line, the zeros
of the complex determinant of the two tangent vectors:

    det = (dz/ds)(dw/dt) - (dz/dt)(dw/ds).

Every patch carries det in closed form.  Where det != 0 the tangents are
C-independent, so the patch immerses there.  At a located zero, central
differences of the chart give the tangents: a zero where they are
R-dependent is refused, and otherwise the winding of det around it times
the orientation sign (Im of the ratio of the tangent vectors) is the
index of the complex point in any chart, +1 elliptic and -1 hyperbolic.

Model patches, with a = sqrt|eps| e^(s+it):

* ``Weinstein``: the immersed sphere (x, y, u) -> (x(1+2iu), y(1+2iu)) on
  the unit sphere, in a spherical chart; the sweep domain stops short of
  the poles t = +-pi/2, where the chart degenerates (both land on the
  double point).  det = -cos t (2 sin t - i)(4 sin^2 t - i sin t - 2)
  has no real zero: the patch is totally real.
* ``SigmaPlus`` / ``SigmaMinus``: the annuli {(x+iu)(y-+iv) = eps},
  x + iu = a, that replace a positive / negative double point.
  SigmaPlus has det = 2|eps| cosh 2s > 0, so it is totally real;
  SigmaMinus has det = 2|eps| sinh 2s - 2i eps cos 2t, whose zeros are
  its four hyperbolic complex points at s = 0, t = pi/4 + k pi/2.
* Graphs w = f(z), z = s + it, have det = -2i df/dzbar: -2iz for
  ``GraphSpecialElliptic`` (w = z zbar) and -2ip zbar^(p-1) for w = zbar^p
  (``GraphSpecialHyperbolic`` is p = 2), each zero only at the origin.

Chunk layout.  Both sweeps walk each domain rectangle's node grid
through ``_det_blocks``, in blocks of whole rows (s fixed) of at most
``DEFAULT_CHUNK`` nodes and at least two rows each, every block starting
on the last row of the one before, so every cell, and every s edge, has
its nodes in one block and the candidate cells come out in row-major
order.  The block is 2^16 nodes, not the 4-D sweeps' 2^13: a row holds
up to about 1,570 t nodes at step 0.004, so a 2^13-node block is five
rows and the shared rows would redo a fifth of them.  Four sigma_handles
tasks and weinstein at step 0.004 took about 1.8 times as long with
2^13-node blocks (2-vCPU Xeon), so re-measure before merging the two
``DEFAULT_CHUNK`` constants.  A block is evaluated on broadcast axes,
the rows' s nodes as a column against the t nodes as a row, and every
pass over it runs on its distinct values (``_distinct``), so a det of s
or t alone (SigmaPlus, Weinstein) is computed, checked, screened and
minimised once per axis, and no meshgrid is built; memory is bounded by
the block, not by the grid step.

The nodes of a rectangle sit at lo + (k + 0.382) step on each axis, for
k < count = max(floor((hi - lo) / step), 2), so the cells span
[lo + 0.382 step, lo + (count - 0.618) step]: a margin of 0.382 step at
the low end and of 0.618 to 1.618 steps at the high end is in no cell,
and a complex point there is never located.  Weinstein at step 0.05
leaves 1.282 steps on s and 1.618 on t; sigma at 0.004 leaves 1.414
steps at the top of t, so its periodic t-seam is an uncovered band of
about 1.8 steps.  No model has a complex point in a margin (see the
zero sets above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GeometryError
from .geometry import PointC2

# Row blocks, larger than sweeps.DEFAULT_CHUNK: see "Chunk layout".
DEFAULT_CHUNK = 1 << 16
# Node grids are offset into cells by an irrational fraction of the step
# so that zeros with rational or zero coordinates never land on a cell
# edge (where boundary windings would be ill-defined).
GRID_OFFSET_FRACTION = 0.381966011250105
# Sample counts a winding loop starts from, on a cell boundary and on a
# parameter circle; _windings doubles them up to MAX_WINDING_SAMPLES.
MIN_WINDING_SAMPLES = 64
CIRCLE_WINDING_SAMPLES = 256
MAX_WINDING_SAMPLES = 1 << 20
# A bisection stops at a cell whose centre has |det| below this.
ZERO_TOL = 1e-9
# Central-difference step, and least relative area, of the tangents at a
# located zero (see _orientation_sign).
TANGENT_STEP = 1e-6
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
    """Immersed patch with a vectorized chart and tangent determinant.

    ``chart`` maps parameter arrays (s, t) to complex arrays (z, w);
    ``det`` returns the closed-form tangent determinant
    z_s w_t - z_t w_s on arrays that broadcast like (s, t).
    """

    name: str
    chart: Callable
    domain: tuple[Rect, ...]
    det: Callable

    def point(self, s: float, t: float) -> PointC2:
        z, w = self.chart(s, t)
        return PointC2(complex(z), complex(w))


def det_arrays(patch: SurfacePatch, s, t) -> np.ndarray:
    """Tangent determinant over parameter arrays, in the broadcast shape
    of ``s`` and ``t``.  A GeometryError names the first parameter, in
    row-major order, where it is not finite; a patch sweep checks one row
    block at a time, so there the first offending block wins."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast(s, t).shape
    # A determinant that overflows is refused as non-finite just below.
    with np.errstate(all="ignore"):
        det = np.broadcast_to(np.asarray(patch.det(s, t), dtype=complex), shape)
    if not np.all(np.isfinite(_distinct(det))):
        raise _nonfinite(patch, s, t, det)
    return det


def _nonfinite(patch: SurfacePatch, s, t, det) -> GeometryError:
    """The error naming the first (s, t), in row-major order, where ``det`` is not finite."""
    at = np.unravel_index(int(np.argmax(~np.isfinite(det))), det.shape)
    sb, tb = np.broadcast_to(s, det.shape)[at], np.broadcast_to(t, det.shape)[at]
    return GeometryError(f"patch {patch.name} has non-finite tangent data at (s, t) = ({sb}, {tb})")


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------


def _windings(patch: SurfacePatch, sample: Callable, count: int, n: int) -> list:
    """Each of ``count`` closed loops' winding of the tangent determinant,
    or the GeometryError that loop raises when it is wound alone.

    ``sample(rows, n)`` returns s and t arrays with one row of n points
    per loop in ``rows``, each loop closed implicitly.  A loop's sample
    count doubles from ``n`` until it fails or every argument increment on
    it is below pi/2, which makes its accumulated total unambiguous.
    Pending loops share det calls of at most MAX_WINDING_SAMPLES samples.
    """
    outcomes: list = [None] * count
    pending = list(range(count))
    while pending:
        unresolved = []
        per_call = MAX_WINDING_SAMPLES // n
        for first in range(0, len(pending), per_call):
            rows = pending[first:first + per_call]
            s, t = sample(rows, n)
            # Overflowing and subnormal determinants are refused row by row below.
            with np.errstate(all="ignore"):
                det = np.broadcast_to(np.asarray(patch.det(s, t), dtype=complex), s.shape)
                finite = np.all(np.isfinite(det), axis=1)
                mags = np.abs(det)
                vanish = np.min(mags, axis=1) <= 1e-9 * np.max(mags, axis=1)
                steps = np.angle(np.roll(det, -1, axis=1) / det)
                settled = np.max(np.abs(steps), axis=1) < 0.5 * math.pi
            totals = (np.sum(steps, axis=1) / (2 * math.pi)).tolist()
            for i, k in enumerate(rows):
                if not finite[i]:
                    outcomes[k] = _nonfinite(patch, s[i], t[i], det[i])
                elif vanish[i]:
                    outcomes[k] = GeometryError(
                        "tangent determinant vanishes on the loop; move or shrink it"
                    )
                elif settled[i] and abs(totals[i] - round(totals[i])) <= 0.01:
                    outcomes[k] = round(totals[i])
                elif settled[i]:
                    outcomes[k] = GeometryError(
                        f"winding total {totals[i]} is not an integer; loop too close to a zero"
                    )
                elif n >= MAX_WINDING_SAMPLES:
                    outcomes[k] = GeometryError(
                        "winding did not stabilize; zero too close to the loop"
                    )
                else:
                    unresolved.append(k)
        pending = unresolved
        n *= 2
    return outcomes


def winding_index(patch: SurfacePatch, center: tuple[float, float], radius: float) -> int:
    """Winding of the tangent determinant on a parameter circle.

    This equals the index of an isolated complex point enclosed by the
    circle, relative to the parametrization's orientation.
    """
    s0, t0 = center
    if not (radius > 0 and math.isfinite(radius)):
        raise GeometryError(f"radius must be positive and finite, got {radius}")
    if not (math.isfinite(s0) and math.isfinite(t0)):
        raise GeometryError(f"center must be finite, got {center}")

    def sample(rows, n):
        ang = 2 * math.pi * np.arange(n) / n
        return s0 + radius * np.cos(ang)[None], t0 + radius * np.sin(ang)[None]

    (winding,) = _windings(patch, sample, 1, CIRCLE_WINDING_SAMPLES)
    if isinstance(winding, GeometryError):
        raise winding
    return winding


def _rect_sampler(rects: list[Rect]) -> Callable:
    """Loops for _windings: edges a -> b, counterclockwise from (s0, t0), at a + frac (b - a)."""
    corners = np.array([[[r.s0, r.s1, r.s1, r.s0], [r.t0, r.t0, r.t1, r.t1]] for r in rects])

    def sample(rows, n):
        m = max(n // 4, 16)
        a = corners[rows, :, :, None]
        pts = a + np.arange(m) / m * (np.roll(a, -1, axis=2) - a)
        return pts[:, 0].reshape(len(rows), -1), pts[:, 1].reshape(len(rows), -1)

    return sample


def _rect_windings(patch: SurfacePatch, rects: list[Rect]) -> list[int]:
    """Windings of the determinant around rectangles; raises the first failing rect's error."""
    windings = _windings(patch, _rect_sampler(rects), len(rects), MIN_WINDING_SAMPLES)
    for error in (w for w in windings if isinstance(w, GeometryError)):
        raise error
    return windings


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
    """The four sub-cells of ``rect`` split at fractions (fs, ft) of its
    sides, or none where the split point rounds onto an edge."""
    sm = rect.s0 + fs * (rect.s1 - rect.s0)
    tm = rect.t0 + ft * (rect.t1 - rect.t0)
    if not (rect.s0 < sm < rect.s1 and rect.t0 < tm < rect.t1):
        return []
    return [Rect(rect.s0, sm, rect.t0, tm), Rect(sm, rect.s1, rect.t0, tm),
            Rect(rect.s0, sm, tm, rect.t1), Rect(sm, rect.s1, tm, rect.t1)]


def _orientation_sign(patch: SurfacePatch, s: float, t: float) -> int:
    """Sign of Im(lambda) for T_t = lambda T_s at a located zero of det,
    with the tangents from central differences of the chart.  Only at a
    zero of det can they be R-dependent; there the area Im(lambda)|T_s|^2
    must exceed TANGENT_STEP (|T_s|^2 + |T_t|^2), or the zero is refused."""
    h = TANGENT_STEP
    zw = np.array(patch.chart(np.array([s + h, s - h, s, s]), np.array([t, t, t + h, t - h])))
    d_s, d_t = zw[:, 0] - zw[:, 1], zw[:, 2] - zw[:, 3]  # about 2h T_s and 2h T_t
    area = float(np.imag(np.vdot(d_s, d_t)))
    if not abs(area) > h * float(np.vdot(d_s, d_s).real + np.vdot(d_t, d_t).real):
        raise GeometryError(f"patch {patch.name} fails to immerse at (s, t) = ({s}, {t})")
    return 1 if area > 0 else -1


def _refine_zeros(
    patch: SurfacePatch, cells: list[Rect], windings: list[int]
) -> list[LocatedComplexPoint]:
    """Shrink each cell of nonzero winding down to its zeros one bisection
    level at a time, winding a level's splits in one call per fraction: the
    cells with a failing loop try the next one together.  A level's first
    failing cell raises, centre checks before splits."""
    found: list[LocatedComplexPoint] = []
    level = [(cell, w) for cell, w in zip(cells, windings) if w]
    depth = 0
    while level:
        split = []
        for rect, w in level:
            sc = 0.5 * (rect.s0 + rect.s1)
            tc = 0.5 * (rect.t0 + rect.t1)
            d = abs(complex(det_arrays(patch, sc, tc)))
            if d < ZERO_TOL:
                sign = _orientation_sign(patch, sc, tc)
                found.append(LocatedComplexPoint(
                    s=float(sc), t=float(tc), point=patch.point(sc, tc), index=sign * w,
                    raw_winding=w, orientation_sign=sign, det_abs=d))
            elif depth >= _MAX_BISECTIONS:
                raise GeometryError(
                    f"zero cluster in patch {patch.name} unresolved near "
                    f"({sc}, {tc}); |det| = {d} after {depth} bisections"
                )
            else:
                split.append((rect, w, sc, tc))
        wound: list = [[] for _ in split]
        for fs, ft in _SPLIT_FRACTIONS:
            tried = [(k, _subdivide(split[k][0], fs, ft)) for k, got in enumerate(wound) if not got]
            if not tried:
                break
            rects = [sub for _, subs in tried for sub in subs]
            outcomes = iter(_windings(patch, _rect_sampler(rects), len(rects), MIN_WINDING_SAMPLES))
            for k, subs in tried:
                got = [(sub, next(outcomes)) for sub in subs]
                wound[k] = [] if any(isinstance(sw, GeometryError) for _, sw in got) else got
        level = []
        for (_, w, sc, tc), got in zip(split, wound):
            if not got:
                raise GeometryError(
                    f"could not subdivide around ({sc}, {tc}) in patch {patch.name}"
                )
            if sum(sw for _, sw in got) != w:
                raise GeometryError(
                    f"winding mismatch while refining patch {patch.name} near ({sc}, {tc})"
                )
            level += [(sub, sw) for sub, sw in got if sw]
        depth += 1
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


def _det_blocks(patch: SurfacePatch, grid_step: float):
    """Yield ``(s_nodes, t_nodes, first_row, det)`` over the node grid of
    each domain rectangle in turn, ``det`` holding rows ``first_row``
    onward of ``s_nodes`` against all of ``t_nodes``: blocks of at most
    DEFAULT_CHUNK nodes and at least two rows, each starting on the last
    row of the one before.  The cells cover each rectangle but for its
    margins, 0.382 step at the low end of an axis and 0.618 to 1.618
    steps at the high end, where no complex point is found (see "Chunk
    layout")."""
    for rect in patch.domain:
        s_nodes, t_nodes = _cell_nodes(rect, grid_step)
        rows = max(DEFAULT_CHUNK // len(t_nodes), 2)
        for first in range(0, len(s_nodes) - 1, rows - 1):
            det = det_arrays(patch, s_nodes[first:first + rows, None], t_nodes)
            yield s_nodes, t_nodes, first, det


def _distinct(det: np.ndarray) -> np.ndarray:
    """``det`` with each stride-0 axis of a broadcast view cut to at most
    two entries, which keeps np.diff defined: the identity on a full
    array."""
    return det[tuple(slice(2) if step == 0 else slice(None) for step in det.strides)]


def _steep_cells(det: np.ndarray) -> np.ndarray:
    """Row-major ``(i, j)`` of the cells with an edge along which arg det
    turns by 0.45 pi or more: its nodes' args differ by 0.45 to 1.55 pi.
    Args are taken on the distinct values of a broadcast ``det``, and the
    cell flags are broadcast back over the cells only when one is set."""
    arg = np.angle(_distinct(det))
    down, along = (
        np.abs(math.pi - np.abs(np.diff(arg, axis=axis))) <= 0.55 * math.pi
        for axis in (0, 1)
    )
    flags = down[:, :-1] | down[:, 1:] | along[:-1] | along[1:]
    cells = (det.shape[0] - 1, det.shape[1] - 1)
    return np.argwhere(np.broadcast_to(flags, cells) if flags.any() else flags)


def locate_complex_points(patch: SurfacePatch, grid_step: float) -> list[LocatedComplexPoint]:
    """Find the isolated complex points of a patch, sorted by (s, t).

    The domain is covered by cells of roughly ``grid_step``.  A cell with
    an edge along which arg det turns by 0.45 pi or more is verified by an
    adaptively sampled boundary winding and refined by bisection until
    the center determinant drops below ZERO_TOL.  No cell of nonzero
    corner winding k is missed: its four turns sum to 2 pi k, so one is at
    least pi/2.  The whole grid is swept and screened, and every candidate
    cell wound in one call, before any cell is refined.  Refined cells are
    disjoint, so zeros closer than a cell are each reported; zeros in one
    cell whose windings cancel are not, and a cluster that never resolves
    raises instead of returning bad data.
    """
    cells = []
    for s_nodes, t_nodes, first, det in _det_blocks(patch, grid_step):
        if not np.all(_distinct(det)):
            raise GeometryError(
                f"determinant vanishes exactly on a grid node of {patch.name}; "
                "perturb grid_step"
            )
        for i, j in _steep_cells(det) + (first, 0):
            cells.append(Rect(s_nodes[i], s_nodes[i + 1], t_nodes[j], t_nodes[j + 1]))
    found = _refine_zeros(patch, cells, _rect_windings(patch, cells))
    return sorted(found, key=lambda r: (r.s, r.t))


def min_abs_complex_det(patch: SurfacePatch, grid_step: float) -> float:
    """Minimum |det| over the sweep grid, taken on the distinct values of
    each block; a positive lower-bound witness that a patch is totally
    real at grid resolution."""
    best = math.inf
    for *_, det in _det_blocks(patch, grid_step):
        best = min(best, float(np.min(np.abs(_distinct(det)))))
    return best


# ---------------------------------------------------------------------------
# Model patches
# ---------------------------------------------------------------------------


def _weinstein_chart(s, t):
    m = 1 + 2j * np.sin(t)
    ct = np.cos(t)
    return ct * np.cos(s) * m, ct * np.sin(s) * m


def _weinstein_det(s, t):
    st = np.sin(t)
    return -np.cos(t) * (2 * st - 1j) * (4 * st * st - 1j * st - 2)


def _sigma_patch(kind: str, epsilon: float) -> SurfacePatch:
    root = math.sqrt(abs(epsilon))
    minus = kind == MODEL_SIGMA_MINUS

    def chart(s, t):
        a = root * np.exp(s) * np.exp(1j * np.asarray(t, dtype=float))
        b = epsilon / a
        z = np.real(a) + 1j * np.real(b)
        if minus:
            # a = x + iu, b = y + iv
            return z, np.imag(a) + 1j * np.imag(b)
        # a = x + iu, b = y - iv
        return z, np.imag(a) - 1j * np.imag(b)

    def det(s, t):
        if minus:
            return 2 * abs(epsilon) * np.sinh(2 * s) - 2j * epsilon * np.cos(2 * t)
        return 2 * abs(epsilon) * np.cosh(2 * s)

    return SurfacePatch(
        name=kind, chart=chart, det=det, domain=(Rect(-0.75, 0.75, 0.0, 2 * math.pi),)
    )


def _graph_patch(name: str, f, f_zbar) -> SurfacePatch:
    """Graph of w = f(z) over the parameter square [-1, 1]^2, z = s + it;
    its tangent determinant is -2i df/dzbar."""
    def chart(s, t):
        return np.asarray(s) + 1j * np.asarray(t), f(s, t)

    return SurfacePatch(
        name=name,
        chart=chart,
        det=lambda s, t: -2j * f_zbar(s, t),
        domain=(Rect(-1.0, 1.0, -1.0, 1.0),),
    )


def _conjugate_power_graph(name: str, p: int) -> SurfacePatch:
    def zbar(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    return _graph_patch(name, lambda s, t: zbar(s, t) ** p, lambda s, t: p * zbar(s, t) ** (p - 1))


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
        if not math.isfinite(epsilon):
            raise GeometryError(f"epsilon must be finite, got {epsilon}")
        return _sigma_patch(kind, float(epsilon))
    if epsilon is not None:
        raise GeometryError(f"{kind} does not take an epsilon parameter")
    if kind == MODEL_WEINSTEIN:
        domain = (Rect(0.0, 2 * math.pi, -1.45, 1.45),)
        return SurfacePatch(name=kind, chart=_weinstein_chart, det=_weinstein_det, domain=domain)
    if kind == MODEL_GRAPH_ELLIPTIC:
        return _graph_patch(
            kind,
            lambda s, t: np.asarray(s) ** 2 + np.asarray(t) ** 2 + 0j,
            lambda s, t: np.asarray(s) + 1j * np.asarray(t),
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
