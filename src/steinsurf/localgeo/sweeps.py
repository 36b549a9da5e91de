"""Grid sweeps over boxes in R^4 and the plurisubharmonicity certificate.

Sweeps run in flat chunks so memory stays bounded on fine grids (an
81^4 box is ~43M points); all per-point work is vectorized numpy.

Chunk layout.  The grid is walked in row-major order over (x, y, u, v).
``grid_chunks`` takes as trailing block the largest run of last axes
(never x) with at most ``chunk`` nodes, builds that block's coordinates
once, and tiles it as many whole times as fit in a chunk, capped at the
number of leading rows.  Each chunk's trailing coordinates are then
slices of those tiles, and its leading coordinates, constant along a
block, come from ``np.repeat``; nothing is gathered point by point.

``DEFAULT_CHUNK`` is 2^16 points.  A finite-difference chunk keeps about
25 temporaries of chunk size alive (the stencil's shifted values), which
at 2^16 float64 points is 512 KB apiece and stays in a 2 MB L2 cache;
at 2^19 they stream through memory.  On a 2-vCPU Xeon with 2 MB L2 the
smaller chunk made the finite-difference sweeps faster and cut the peak
resident memory of a full psh_models + exhaustion run from about 220 MB
to about 55 MB.

Sublevel sweeps.  The exhaustion only needs the nodes where its rho lies
below a level L, a few percent of the grid, so ``fiber_chunks`` never
walks the rest.  A model's closed-form fiber bound (``ScalarField.fiber``)
gives, over each node (x, t) of x and one middle axis t, a square window
in the remaining middle axis s and in v that holds {rho < L}.  The window
is turned into node indices with the axis's own ``linspace`` spacing and
widened by one node on each side, which covers the rounding of both rho
and the window ends, so every node with rho < L in floating point is a
candidate.  Per x row, one (n_y, n_u) table holds each (y, u) line's run
of v nodes; candidates are cut from those runs in row-major order, in
blocks of at most ``chunk`` nodes, so no index array grows with more
than the square of the node count.  Most candidates pass the mask, and
the Levi assembly that follows keeps about 380 bytes per node alive, so
the blocks are a quarter of ``DEFAULT_CHUNK``: at 2^16 the exhaustion
alone peaked above the finite-difference sweep.

A sweep refuses, before allocating anything, a non-finite grid step and
any grid of more than ``MAX_GRID_NODES`` nodes.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..certificates import Certificate, RULE_LEVI_PSH, Witness
from ..errors import GeometryError
# Nothing in the package calls fd_gradient_arrays; it stays importable
# here only because the benchmark tracer (bench/tracer.py) wraps it.
from .fields import DEFAULT_FD_STEP, ScalarField, fd_gradient_arrays, fd_levi_arrays  # noqa: F401
from .geometry import Box4, eigmin_arrays

DEFAULT_CHUNK = 1 << 16
# About 6x the largest grid in use (81^4 ~ 4.3e7 nodes, step 0.025 on
# the unit box); a finer step is refused instead of swept for hours.
MAX_GRID_NODES = 1 << 28
VALUE_FLOOR = 1e-8


def _grid_shape(box: Box4, step: float) -> tuple[int, int, int, int]:
    """Node counts of the grid; refuses, before allocating, a non-finite
    step and a grid of more than MAX_GRID_NODES nodes."""
    shape = box.node_counts(step)
    if math.prod(shape) > MAX_GRID_NODES:
        raise GeometryError(
            f"grid step {step} gives more than {MAX_GRID_NODES} grid nodes"
        )
    return shape


def grid_chunks(
    box: Box4, step: float, chunk: int = DEFAULT_CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the grid of ``box`` at spacing ``step`` as flat coordinate
    arrays, at most ``chunk`` points at a time, in row-major order.

    Raises GeometryError for a non-finite step or a grid of more than
    MAX_GRID_NODES nodes.  Callers must not write to the yielded arrays:
    the trailing coordinates are read-only slices shared by every chunk.
    """
    shape = _grid_shape(box, step)
    ax = box.axes(step)
    split = next(k for k in range(1, 5) if math.prod(shape[k:]) <= chunk)
    block = math.prod(shape[split:])
    rows = math.prod(shape[:split])
    per_chunk = min(chunk // block, rows)
    trailing = [np.tile(a.ravel(), per_chunk)
                for a in np.meshgrid(*ax[split:], indexing="ij")]
    for t in trailing:
        t.flags.writeable = False
    for first in range(0, rows, per_chunk):
        last = min(first + per_chunk, rows)
        lead = np.unravel_index(np.arange(first, last), shape[:split])
        n = (last - first) * block
        yield (*(np.repeat(a[i], block) for a, i in zip(ax, lead)),
               *(t[:n] for t in trailing))


def fiber_chunks(
    box: Box4, step: float, fiber, level: float, chunk: int = DEFAULT_CHUNK // 4
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the grid nodes of ``box`` that a field's fiber bound admits
    below ``level``, as flat coordinate arrays, at most ``chunk`` points
    at a time, in row-major order.

    ``fiber`` is a field's ``(axis, bound)`` (see ``ScalarField``): over
    each x node and node t of ``axis``, the nodes with |s - c| <= r and
    |v - cv| <= r, each window widened by one node on either side, are
    the candidates.  Every node where the value is below ``level`` is
    among them.  Same refusals as :func:`grid_chunks`.
    """
    shape = _grid_shape(box, step)
    ax = box.axes(step)
    axis, bound = fiber
    other = 3 - axis
    # Lines are the (y, u) nodes of one x row, row-major; t runs along
    # dimension axis - 1 of that (n_y, n_u) table and s along the other.
    along_t = (-1, 1) if axis == 1 else (1, -1)
    s_index = np.arange(shape[other]).reshape(along_t[::-1])

    def window(k, center, radius):
        # The linspace spacing, not ``step``: node j sits at lo + j * spacing.
        lo, n = box.lo[k], shape[k]
        spacing = (box.hi[k] - lo) / (n - 1)
        first = np.ceil((center - radius - lo) / spacing) - 1
        last = np.floor((center + radius - lo) / spacing) + 1
        first = np.clip(first, 0, n).astype(np.int64).reshape(along_t)
        last = np.clip(last, -1, n - 1).astype(np.int64).reshape(along_t)
        return first, last

    for x in ax[0]:
        c, cv, r = np.broadcast_arrays(*bound(x, ax[axis], level))
        s_first, s_last = window(other, c, r)
        v_first, v_last = window(3, cv, r)
        inside = (s_first <= s_index) & (s_index <= s_last)
        runs = np.where(inside, np.maximum(v_last - v_first + 1, 0), 0).ravel()
        starts = np.broadcast_to(v_first, inside.shape).ravel()
        lines = np.flatnonzero(runs)
        if lines.size == 0:
            continue
        ends = np.cumsum(runs[lines])
        for first in range(0, int(ends[-1]), chunk):
            node = np.arange(first, min(first + chunk, int(ends[-1])))
            k = np.searchsorted(ends, node, side="right")
            line = lines[k]
            v = starts[line] + node - (ends[k] - runs[line])
            y, u = np.divmod(line, shape[2])
            yield np.full(node.size, x), ax[1][y], ax[2][u], ax[3][v]


def _field_jets(fld: ScalarField, x, y, u, v):
    """Value, gradient tuple, and Levi entries: closed-form when the field
    has them, else the 25-point stencil; the one closed-or-FD dispatch."""
    if fld.has_jets:
        return fld.value(x, y, u, v), fld.gradient(x, y, u, v), fld.levi(x, y, u, v)
    return fd_levi_arrays(fld.value, x, y, u, v, DEFAULT_FD_STEP)


def require_finite_levi(eig, name: str, x, y, u, v) -> None:
    """Refuse NaN or infinite Levi eigenvalues, naming the first bad node;
    argmin would otherwise stop at a NaN and hide the block's minimum."""
    finite = np.isfinite(eig)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise GeometryError(
            f"non-finite Levi data for {name} at ({x[bad]}, {y[bad]}, {u[bad]}, {v[bad]})"
        )


def first_minimum(best, values, x, y, u, v):
    """Fold one block into ``best = (value, point)``: the block's smallest
    value and its first node replace ``best`` only if strictly smaller, so
    over row-major blocks the earliest minimizing node wins."""
    k = int(np.argmin(values))
    if values[k] < best[0]:
        return float(values[k]), (float(x[k]), float(y[k]), float(u[k]), float(v[k]))
    return best


def psh_certificate(
    fld: ScalarField,
    box: Box4,
    grid_step: float,
    tol: float,
) -> Certificate:
    """Certify plurisubharmonicity and off-surface nonvanishing gradient.

    Passes iff the smallest Levi eigenvalue is >= -tol at every grid
    point and |gradient| > tol at every grid point whose value exceeds
    VALUE_FLOOR (points essentially on the zero set are exempt from
    the gradient condition).  Witnesses report the minimizing points for
    both quantities.
    """
    levi_min = grad_min = (np.inf, None)
    for x, y, u, v in grid_chunks(box, grid_step):
        val, grad, (a11, a22, a12) = _field_jets(fld, x, y, u, v)
        eig = eigmin_arrays(a11, a22, a12)
        require_finite_levi(eig, fld.name, x, y, u, v)
        levi_min = first_minimum(levi_min, eig, x, y, u, v)

        off_surface = np.asarray(val) > VALUE_FLOOR
        if np.any(off_surface):
            gnorm = np.sqrt(sum(np.asarray(g) ** 2 for g in grad))
            gnorm = np.where(off_surface, gnorm, np.inf)
            grad_min = first_minimum(grad_min, gnorm, x, y, u, v)

    (best_eig, best_eig_at), (best_grad, best_grad_at) = levi_min, grad_min
    witnesses = []
    if best_eig_at is not None:
        witnesses.append(Witness(["levi_min", *best_eig_at], best_eig))
    if best_grad_at is not None:
        witnesses.append(Witness(["grad_min", *best_grad_at], best_grad))
    passed = best_eig >= -tol and (best_grad_at is None or best_grad > tol)
    return Certificate(passed, RULE_LEVI_PSH, tuple(witnesses))
