"""Tests for the sweep inner loop: grid chunking and the shared
finite-difference stencil, against straightforward reference versions."""

import functools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steinsurf.errors import GeometryError
from steinsurf.localgeo import Box4, model_field, psh_certificate, sweeps
from steinsurf.localgeo import scenes
from steinsurf.localgeo.fields import (
    MODEL_DOUBLE_POINT,
    MODEL_KINDS,
    MODEL_SPECIAL_HYPERBOLIC,
    fd_levi_arrays,
)
from steinsurf.localgeo.scenes import exhaustion_certificate
from steinsurf.localgeo.sweeps import DEFAULT_CHUNK, fiber_chunks, grid_chunks

RNG = np.random.default_rng(20261017)


# ---------------------------------------------------------------------------
# Grid chunks
# ---------------------------------------------------------------------------


def reference_grid(box, step):
    """The grid nodes in row-major order, one np.unravel_index gather."""
    ax = box.axes(step)
    shape = tuple(len(a) for a in ax)
    idx = np.unravel_index(np.arange(int(np.prod(shape))), shape)
    return [a[i] for a, i in zip(ax, idx)]


boxes = st.tuples(
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.lists(st.floats(0.05, 1.5), min_size=4, max_size=4),
).map(lambda lw: Box4(tuple(lw[0]), tuple(l + w for l, w in zip(*lw))))
# Edge chunk sizes: one point, below one trailing row (every side has at
# least two nodes), far beyond any grid here; plus anything in between.
chunks = st.one_of(st.sampled_from([1, 2, 3, 10 ** 9]), st.integers(1, 20000))


@settings(max_examples=150, deadline=None)
@given(box=boxes, step=st.floats(0.08, 2.0), chunk=chunks)
def test_grid_chunks_match_the_unravel_reference(box, step, chunk):
    expected = reference_grid(box, step)
    total = expected[0].size
    pieces = list(grid_chunks(box, step, chunk=chunk))
    assert all(0 < p[0].size <= chunk for p in pieces)
    assert all(len({c.size for c in p}) == 1 for p in pieces)
    for whole, parts in zip(expected, zip(*pieces)):
        assert np.array_equal(whole, np.concatenate(parts))
    # chunk >= total yields the grid in one piece
    assert (len(pieces) == 1) == (chunk >= total)


@pytest.mark.parametrize("step", [0.5, 0.2, 0.1])
def test_huge_chunk_allocates_no_more_than_the_grid(step):
    box = Box4.symmetric(1.0)
    grid_bytes = 4 * 8 * int(np.prod(box.node_counts(step)))
    tracemalloc.start()
    try:
        for _ in grid_chunks(box, step, chunk=10 ** 7):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The chunk's own four arrays plus the one-off meshgrid of the block.
    assert peak <= 2 * grid_bytes + 64 * 1024


def test_shared_trailing_coordinates_are_read_only():
    for part in grid_chunks(Box4.symmetric(1.0), 0.5, chunk=30):
        with pytest.raises(ValueError):
            part[3][0] = 0.0


# ---------------------------------------------------------------------------
# The 25-point stencil against the 1 + 8 + 25 formulas it replaces
# ---------------------------------------------------------------------------

_AXES = np.eye(4)


def _ref_shift(fn, x, y, u, v, axis, amount):
    d = _AXES[axis] * amount
    return fn(x + d[0], y + d[1], u + d[2], v + d[3])


def ref_gradient(fn, x, y, u, v, h):
    return tuple(
        (_ref_shift(fn, x, y, u, v, a, h) - _ref_shift(fn, x, y, u, v, a, -h)) / (2 * h)
        for a in range(4)
    )


def ref_levi(fn, x, y, u, v, h):
    center = fn(x, y, u, v)

    def pure(axis):
        return (
            _ref_shift(fn, x, y, u, v, axis, h)
            - 2 * center
            + _ref_shift(fn, x, y, u, v, axis, -h)
        ) / (h * h)

    def mixed(a, b):
        da, db = _AXES[a] * h, _AXES[b] * h
        pp = fn(x + da[0] + db[0], y + da[1] + db[1], u + da[2] + db[2], v + da[3] + db[3])
        pm = fn(x + da[0] - db[0], y + da[1] - db[1], u + da[2] - db[2], v + da[3] - db[3])
        mp = fn(x - da[0] + db[0], y - da[1] + db[1], u - da[2] + db[2], v - da[3] + db[3])
        mm = fn(x - da[0] - db[0], y - da[1] - db[1], u - da[2] - db[2], v - da[3] - db[3])
        return (pp - pm - mp + mm) / (4 * h * h)

    xx, yy, uu, vv = pure(0), pure(1), pure(2), pure(3)
    a11 = 0.25 * (xx + yy)
    a22 = 0.25 * (uu + vv)
    a12 = 0.25 * ((mixed(0, 2) + mixed(1, 3)) + 1j * (mixed(0, 3) - mixed(1, 2)))
    return a11, a22, a12


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("h", [1e-4, 1e-2])
def test_stencil_is_bit_identical_to_the_separate_formulas(kind, h):
    fld = model_field(kind, with_jets=False)
    x, y, u, v = RNG.uniform(-1, 1, (4, 5000))
    value, grad, levi = fd_levi_arrays(fld.value, x, y, u, v, h)
    assert np.array_equal(value, fld.value(x, y, u, v))
    for got, want in zip(grad, ref_gradient(fld.value, x, y, u, v, h)):
        assert np.array_equal(got, want)
    for got, want in zip(levi, ref_levi(fld.value, x, y, u, v, h)):
        assert np.array_equal(got, want)
    for got, want in zip(sweeps.fd_gradient_arrays(fld.value, x, y, u, v, h), grad):
        assert np.array_equal(got, want)


def test_stencil_calls_the_field_25_times():
    calls = []

    def counted(x, y, u, v):
        calls.append(1)
        return x * y + u * v

    fd_levi_arrays(counted, *RNG.uniform(-1, 1, (4, 10)), 1e-4)
    assert len(calls) == 25


# ---------------------------------------------------------------------------
# Certificates do not depend on the chunk size
# ---------------------------------------------------------------------------


def _with_chunk(monkeypatch, chunk):
    monkeypatch.setattr(sweeps, "grid_chunks", functools.partial(grid_chunks, chunk=chunk))
    monkeypatch.setattr(scenes, "fiber_chunks", functools.partial(fiber_chunks, chunk=chunk))


def _certificates(step):
    box = Box4.symmetric(1.0)
    out = [psh_certificate(model_field(kind, with_jets=jets), box, step, 1e-9).to_json()
           for kind in MODEL_KINDS for jets in (True, False)]
    out += [exhaustion_certificate(kind, 0.02, 1e-3, step).to_json() for kind in MODEL_KINDS]
    return json.dumps(out)


# Step 0.25 gives 9^4 nodes, so chunk 7 is below one row of the last
# axis, and below the exhaustion's v runs of up to 9 nodes; step 0.125
# gives 17^4 = 83521 nodes, more than one default chunk.
@pytest.mark.parametrize("step, chunk", [(0.25, 7), (0.125, DEFAULT_CHUNK)])
def test_certificates_do_not_depend_on_the_chunk_size(monkeypatch, step, chunk):
    _with_chunk(monkeypatch, 10 ** 9)
    whole = _certificates(step)
    _with_chunk(monkeypatch, chunk)
    assert _certificates(step) == whole


# ---------------------------------------------------------------------------
# The exhaustion's sublevel fibers against the full sweep
# ---------------------------------------------------------------------------

SCENES = {"hyp": MODEL_SPECIAL_HYPERBOLIC, "dbl": MODEL_DOUBLE_POINT}
# Boxes that reach the model surfaces, skewed and mostly non-symmetric.
near_origin_boxes = st.tuples(
    st.lists(st.floats(-1.2, 0.2), min_size=4, max_size=4),
    st.lists(st.floats(0.3, 1.5), min_size=4, max_size=4),
).map(lambda lw: Box4(tuple(lw[0]), tuple(l + w for l, w in zip(*lw))))


def _full_sweep(box, step, fiber, level, chunk=DEFAULT_CHUNK):
    """Every grid node in row-major order: the exhaustion's sweep before
    the fiber bound, kept as its reference."""
    return grid_chunks(box, step, chunk)


def _outcome(*args):
    try:
        return json.dumps(exhaustion_certificate(*args).to_json())
    except GeometryError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), level=st.floats(1e-4, 2.0), box=near_origin_boxes,
       step=st.floats(0.1, 0.4), chunk=chunks)
def test_fiber_chunks_hold_every_sublevel_node_in_row_major_order(kind, level, box, step, chunk):
    fld = model_field(kind)
    grid = reference_grid(box, step)
    below = np.flatnonzero(fld.value(*grid) < level)
    pieces = list(fiber_chunks(box, step, fld.fiber, level, chunk=chunk))
    assert all(0 < p[0].size <= chunk for p in pieces)
    assert all(len({c.size for c in p}) == 1 for p in pieces)
    if not pieces:
        assert below.size == 0
        return
    ax = box.axes(step)
    nodes = [np.searchsorted(a, np.concatenate(c)) for a, c in zip(ax, zip(*pieces))]
    for a, c, i in zip(ax, zip(*pieces), nodes):
        assert np.array_equal(a[i], np.concatenate(c))
    flat = np.ravel_multi_index(nodes, box.node_counts(step))
    assert np.all(np.diff(flat) > 0)
    assert np.all(np.isin(below, flat))


# Grids where the full sweep masks a node within rounding of the edge of
# its fiber window: the level L is the next float above rho at that node,
# and eps = 2L with collar fraction 1/2 makes eps - collar exactly L.
# Without the one-node widening the fiber sweep misses that node.
_SKEWED = Box4((-0.3, -1.0, -1.0, -1.0), (0.7, 0.5, 0.0, 0.19999999999999996))
_SKEWED_U = Box4((-0.3, -1.0, -0.5, -1.0), (0.7, 0.19999999999999996, 0.7, 0.0))


@settings(max_examples=100, deadline=None)
@given(scene=st.sampled_from(sorted(SCENES)), epsilon=st.floats(1e-3, 0.5),
       delta=st.floats(1e-4, 1.0), step=st.floats(0.1, 0.4), collar=st.floats(0.01, 0.99),
       box=st.one_of(near_origin_boxes, st.just(Box4.symmetric(1.0))))
@example("hyp", 2 * 0.025599999999999977, 1e-3, 0.2, 0.5, Box4.symmetric(1.0))
@example("dbl", 2 * 0.006399999999999994, 1e-3, 0.2, 0.5, Box4.symmetric(1.0))
@example("hyp", 2 * 0.2400999999999998, 1e-3, 0.1, 0.5, _SKEWED)
@example("dbl", 2 * 0.007999999999999993, 1e-3, 0.1, 0.5, _SKEWED_U)
def test_fiber_sweep_certificate_matches_the_full_sweep(scene, epsilon, delta, step, collar, box):
    args = (SCENES[scene], epsilon, delta, step, collar * epsilon, box)
    with mock.patch.object(scenes, "fiber_chunks", _full_sweep):
        expected = _outcome(*args)
    assert _outcome(*args) == expected


@pytest.mark.parametrize("step", [0.05, 0.025])
def test_exhaustion_peak_memory_is_bounded_by_its_blocks(step):
    """The fiber sweep holds one x row's (y, u) line table and one block of
    candidates; its peak does not grow with the 41^4 or 81^4 grid."""
    tracemalloc.start()
    try:
        for kind in MODEL_KINDS:
            exhaustion_certificate(kind, 0.01, 1e-3, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 512 * (DEFAULT_CHUNK // 4) + (1 << 20)
