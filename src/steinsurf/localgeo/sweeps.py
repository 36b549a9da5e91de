"""Grid sweeps over boxes in R^4 and the plurisubharmonicity certificate.

Sweeps run in flat chunks so memory stays bounded on fine grids (an
81^4 box is ~43M points); all per-point work is vectorized numpy.

Chunk layout.  Both sweeps yield chunks of at most ``DEFAULT_CHUNK``
nodes, read as they run (tests patch it; no caller sets a size).  The
grid is walked in row-major order over (x, y, u, v).  ``grid_chunks``
takes as trailing block the largest run of last axes (never x) that
fits in a chunk, builds that block's coordinates once, and tiles it as
many whole times as fit in a chunk, capped at the number of leading
rows.  Each chunk's trailing coordinates are then slices of those
tiles, and its leading coordinates, constant along a block, come from
``np.repeat``; nothing is gathered point by point.

``DEFAULT_CHUNK`` is 2^13 nodes, for both sweeps.  A finite-difference
block keeps about 25 float64 temporaries of block size alive (the
stencil's shifted values): 12.5 MB at 2^16, 1.6 MB at 2^13.  glibc
returns that set to the kernel between blocks, and each block faults it
back in.  On a 2-vCPU Xeon with 2 MB L2, a grid-certify pass (psh_models
at step 0.05, exhaustion at 0.025) peaked at 57 MB resident with 1.6e5
minor faults at 2^16, and at 39 MB with 6e4 faults on the first pass
and under 1e4 from the third at 2^13; 2^12 (37 MB, 1-2e4 faults) ran
slower, on per-block Python overhead.

Sublevel sweeps.  The exhaustion only needs the nodes where its rho lies
below a level L, a few percent of the grid, so ``fiber_chunks`` never
walks the rest.  A model's closed-form fiber bound (``ScalarField.fiber``)
gives, over each node (x, t) of x and one middle axis t, a square window
in the remaining middle axis s and in v that holds {rho < L}.  The window
is turned into node indices with the axis's own ``linspace`` spacing and
widened by one node on each side, which covers the rounding of both rho
and the window ends, so every node with rho < L in floating point is a
candidate.  Per x row, one (n_y, n_u) table holds each (y, u) line's run
of v nodes; candidates are cut from those runs in row-major order, one
chunk at a time, so no index array grows with more than the square of
the node count.

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

DEFAULT_CHUNK = 1 << 13
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
    box: Box4, step: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the grid of ``box`` at spacing ``step`` as flat coordinate
    arrays, at most DEFAULT_CHUNK points at a time, in row-major order.

    Raises GeometryError for a non-finite step or a grid of more than
    MAX_GRID_NODES nodes.  Callers must not write to the yielded arrays:
    the trailing coordinates are read-only slices shared by every chunk.
    """
    shape = _grid_shape(box, step)
    ax = box.axes(step)
    split = next(k for k in range(1, 5) if math.prod(shape[k:]) <= DEFAULT_CHUNK)
    block = math.prod(shape[split:])
    rows = math.prod(shape[:split])
    per_chunk = min(DEFAULT_CHUNK // block, rows)
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
    box: Box4, step: float, fiber, level: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the grid nodes of ``box`` that a field's fiber bound admits
    below ``level``, as flat coordinate arrays, at most DEFAULT_CHUNK
    points at a time, in row-major order.

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
        for first in range(0, int(ends[-1]), DEFAULT_CHUNK):
            node = np.arange(first, min(first + DEFAULT_CHUNK, int(ends[-1])))
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
    the gradient condition).  Witnesses report the Levi minimum and, when
    some node lies off the surface, the gradient minimum.
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
    witnesses = [Witness(["levi_min", *best_eig_at], best_eig)]
    if best_grad_at is not None:
        witnesses.append(Witness(["grad_min", *best_grad_at], best_grad))
    passed = best_eig >= -tol and (best_grad_at is None or best_grad > tol)
    return Certificate(passed, RULE_LEVI_PSH, tuple(witnesses))
