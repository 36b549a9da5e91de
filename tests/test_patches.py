"""Tests for surface patches: tangent determinants, windings, located
complex points, and the model charts."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steinsurf.errors import GeometryError
from steinsurf.localgeo import (
    Rect,
    SurfacePatch,
    conjugate_graph,
    det_arrays,
    intersection_sign,
    locate_complex_points,
    min_abs_complex_det,
    model_patch,
    weinstein_double_point_planes,
    winding_index,
)
from steinsurf.localgeo import patches
from steinsurf.localgeo.patches import (
    MODEL_GRAPH_ELLIPTIC,
    MODEL_GRAPH_HYPERBOLIC,
    MODEL_SIGMA_MINUS,
    MODEL_SIGMA_PLUS,
    MODEL_WEINSTEIN,
)


# ---------------------------------------------------------------------------
# Determinants and windings on graph patches
# ---------------------------------------------------------------------------


def test_graph_winding_targets():
    assert winding_index(model_patch(MODEL_GRAPH_ELLIPTIC), (0, 0), 0.5) == 1
    assert winding_index(model_patch(MODEL_GRAPH_HYPERBOLIC), (0, 0), 0.5) == -1
    assert winding_index(conjugate_graph(3), (0, 0), 0.5) == -2


def test_winding_is_radius_invariant():
    cubic = conjugate_graph(3)
    assert len({winding_index(cubic, (0, 0), r) for r in (0.3, 0.6, 0.9)}) == 1


def test_winding_far_from_the_zero_is_trivial():
    assert winding_index(model_patch(MODEL_GRAPH_HYPERBOLIC), (0.7, 0.7), 0.2) == 0


def test_winding_rejects_loops_through_zeros():
    # the circle passes exactly through the complex point at the origin
    with pytest.raises(GeometryError):
        winding_index(model_patch(MODEL_GRAPH_HYPERBOLIC), (0.3, 0.0), 0.3)


def test_winding_parameter_validation():
    patch = model_patch(MODEL_GRAPH_ELLIPTIC)
    with pytest.raises(GeometryError):
        winding_index(patch, (0, 0), 0.0)


def test_conjugate_graph_rejects_bad_power():
    with pytest.raises(GeometryError):
        conjugate_graph(0)


def _antiholomorphic_cubic():
    """Graph of zbar^3 - 0.25 zbar, with two simple complex points on the
    real axis at s = +-1/(2 sqrt(3))."""

    def zeta(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    def f(s, t):
        c = zeta(s, t)
        return c ** 3 - 0.25 * c

    def f_s(s, t):
        return 3 * zeta(s, t) ** 2 - 0.25

    def f_t(s, t):
        return -1j * (3 * zeta(s, t) ** 2 - 0.25)

    def chart(s, t):
        return np.asarray(s) + 1j * np.asarray(t), f(s, t)

    def tangents(s, t):
        one = np.ones(np.broadcast(s, t).shape, dtype=complex)
        return one, f_s(s, t), 1j * one, f_t(s, t)

    return SurfacePatch(
        name="CubicMinusQuarter", chart=chart, tangents=tangents,
        domain=(Rect(-1, 1, -1, 1),),
    )


def test_argument_principle_additivity():
    patch = _antiholomorphic_cubic()
    root = 1.0 / (2.0 * math.sqrt(3.0))
    found = locate_complex_points(patch, grid_step=0.1)
    assert len(found) == 2
    for point, expected_s in zip(sorted(found, key=lambda r: r.s), (-root, root)):
        assert point.s == pytest.approx(expected_s, abs=1e-6)
        assert point.t == pytest.approx(0.0, abs=1e-6)
        assert point.index == -1
        assert point.orientation_sign == 1
    # one loop around both zeros carries the sum of the indices
    assert winding_index(patch, (0, 0), 0.8) == -2


def test_located_point_serialization():
    (found,) = locate_complex_points(model_patch(MODEL_GRAPH_HYPERBOLIC))
    blob = found.to_json()
    assert blob["index"] == -1
    assert blob["point"] == found.point.to_json()
    assert set(blob) == {
        "s", "t", "point", "index", "raw_winding", "orientation_sign", "det_abs",
    }
    assert blob["det_abs"] <= 1e-9


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------


def test_non_immersed_chart_is_rejected():
    def tangents(s, t):
        zero = np.zeros(np.broadcast(s, t).shape, dtype=complex)
        return 2 * np.asarray(s) + zero, zero, zero, 1 + zero

    fold = SurfacePatch(
        name="fold",
        chart=lambda s, t: (np.asarray(s) ** 2 + 0j, np.asarray(t) + 0j),
        domain=(Rect(-1, 1, -1, 1),),
        tangents=tangents,
    )
    assert complex(det_arrays(fold, 0.5, 0.0)) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        det_arrays(fold, 0.0, 0.0)


def test_complex_curve_has_no_isolated_points():
    def tangents(s, t):
        one = np.ones(np.broadcast(s, t).shape, dtype=complex)
        return one, one, 1j * one, 1j * one

    line = SurfacePatch(
        name="diagonal-line",
        chart=lambda s, t: (np.asarray(s) + 1j * np.asarray(t),) * 2,
        domain=(Rect(-1, 1, -1, 1),),
        tangents=tangents,
    )
    # immersed, but complex everywhere: the sweep must refuse to answer
    with pytest.raises(GeometryError):
        locate_complex_points(line)


def test_locate_grid_step_validation():
    patch = model_patch(MODEL_GRAPH_ELLIPTIC)
    with pytest.raises(GeometryError):
        locate_complex_points(patch, grid_step=0.0)
    with pytest.raises(GeometryError):
        locate_complex_points(patch, grid_step=25.0)


# ---------------------------------------------------------------------------
# Annulus charts around a cancelling pair
# ---------------------------------------------------------------------------


def test_sigma_minus_complex_points():
    eps = 0.1
    patch = model_patch(MODEL_SIGMA_MINUS, epsilon=eps)
    found = locate_complex_points(patch, grid_step=0.1)
    assert len(found) == 4
    found.sort(key=lambda r: r.t)
    r = math.sqrt(eps / 2.0)
    for k, hit in enumerate(found):
        assert hit.s == pytest.approx(0.0, abs=1e-6)
        assert hit.t == pytest.approx(math.pi / 4 + k * math.pi / 2, abs=1e-6)
        assert hit.index == -1
        x, y, u, v = hit.point.reals
        assert abs(x) == pytest.approx(r, abs=1e-4)
        assert y == pytest.approx(x, abs=1e-4)
        assert v == pytest.approx(-u, abs=1e-4)
    # parameter windings alternate sign around the annulus; the
    # normalization by the orientation makes every index -1
    assert [hit.raw_winding for hit in found] in ([1, -1, 1, -1], [-1, 1, -1, 1])
    assert all(hit.raw_winding * hit.orientation_sign == -1 for hit in found)


def test_sigma_minus_det_formula():
    eps = 0.1
    patch = model_patch(MODEL_SIGMA_MINUS, epsilon=eps)
    for s, t in ((0.3, 1.0), (-0.5, 2.2), (0.0, 0.1)):
        expected = 2 * abs(eps) * math.sinh(2 * s) - 2j * eps * math.cos(2 * t)
        assert complex(det_arrays(patch, s, t)) == pytest.approx(expected, abs=1e-12)


def test_sigma_plus_is_totally_real():
    eps = 0.1
    patch = model_patch(MODEL_SIGMA_PLUS, epsilon=eps)
    assert locate_complex_points(patch, grid_step=0.1) == []
    assert min_abs_complex_det(patch, grid_step=0.05) >= 2 * eps


def test_sigma_patches_require_epsilon():
    for kind in (MODEL_SIGMA_PLUS, MODEL_SIGMA_MINUS):
        with pytest.raises(GeometryError):
            model_patch(kind)
        with pytest.raises(GeometryError):
            model_patch(kind, epsilon=0.0)
    with pytest.raises(GeometryError):
        model_patch(MODEL_WEINSTEIN, epsilon=0.1)
    with pytest.raises(GeometryError):
        model_patch("Saddle")


def test_sigma_minus_negative_epsilon_still_has_four_points():
    patch = model_patch(MODEL_SIGMA_MINUS, epsilon=-0.05)
    found = locate_complex_points(patch, grid_step=0.1)
    assert len(found) == 4
    assert all(hit.index == -1 for hit in found)


# ---------------------------------------------------------------------------
# Weinstein sphere
# ---------------------------------------------------------------------------


def test_weinstein_sphere_is_totally_real_off_poles():
    patch = model_patch(MODEL_WEINSTEIN)
    assert locate_complex_points(patch, grid_step=0.1) == []
    assert min_abs_complex_det(patch, grid_step=0.05) > 0.5


def test_weinstein_double_point_is_positive():
    north, south = weinstein_double_point_planes()
    assert intersection_sign(north, south) == 1
    assert intersection_sign(south, north) == 1


def test_intersection_sign_orientation_dependence():
    z_line = ((1 + 0j, 0j), (1j, 0j))
    w_line = ((0j, 1 + 0j), (0j, 1j))
    assert intersection_sign(z_line, w_line) == 1
    flipped = ((0j, 1j), (0j, 1 + 0j))
    assert intersection_sign(z_line, flipped) == -1
    with pytest.raises(GeometryError):
        intersection_sign(z_line, z_line)


# ---------------------------------------------------------------------------
# Node budget of the patch grids
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1, 1e-300])
@pytest.mark.parametrize("sweep", [locate_complex_points, min_abs_complex_det])
def test_patch_grids_refuse_unusable_steps(sweep, step):
    with pytest.raises(GeometryError, match="grid step"):
        sweep(model_patch(MODEL_WEINSTEIN), grid_step=step)


def test_patch_grid_budget_is_checked_before_allocating():
    # 1e-4 on the Weinstein chart is about 1.8e9 nodes; the refusal comes
    # from the node count, not from building the grid.
    (rect,) = model_patch(MODEL_WEINSTEIN).domain
    with pytest.raises(GeometryError, match=str(patches.MAX_PATCH_NODES)):
        patches._cell_nodes(rect, 1e-4)
    s, t = patches._cell_nodes(rect, 0.004)  # the finest step the benchmark sweeps
    assert len(s) * len(t) < patches.MAX_PATCH_NODES / 4


def test_patch_grid_budget_counts_nodes(monkeypatch):
    patch = model_patch(MODEL_SIGMA_PLUS, epsilon=0.1)
    monkeypatch.setattr(patches, "MAX_PATCH_NODES", 1000)
    assert min_abs_complex_det(patch, grid_step=0.25) > 0  # 6 x 25 nodes
    with pytest.raises(GeometryError, match="more than 1000 nodes"):
        min_abs_complex_det(patch, grid_step=0.05)  # 30 x 125 nodes


# ---------------------------------------------------------------------------
# Row-block sweeps against the whole-grid sweeps
# ---------------------------------------------------------------------------


def _meshgrid_locate(patch, grid_step):
    """Reference: locate_complex_points on one meshgrid per rectangle."""
    results = []
    for rect in patch.domain:
        s_nodes, t_nodes = patches._cell_nodes(rect, grid_step)
        S, T = np.meshgrid(s_nodes, t_nodes, indexing="ij")
        det = patches.det_arrays(patch, S, T)
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
        for i, j in np.argwhere((quick != 0) | fast_edges):
            cell = Rect(s_nodes[i], s_nodes[i + 1], t_nodes[j], t_nodes[j + 1])
            w = patches._rect_winding(patch, cell)
            if w != 0:
                results.extend(patches._refine_zero(patch, cell, w))
    results.sort(key=lambda r: (r.s, r.t))
    deduped = []
    for r in results:
        if any(math.hypot(r.s - q.s, r.t - q.t) < 0.25 * grid_step for q in deduped):
            continue
        deduped.append(r)
    return deduped


def _meshgrid_min_abs(patch, grid_step):
    """Reference: min_abs_complex_det on one meshgrid per rectangle."""
    best = math.inf
    for rect in patch.domain:
        s_nodes, t_nodes = patches._cell_nodes(rect, grid_step)
        S, T = np.meshgrid(s_nodes, t_nodes, indexing="ij")
        best = min(best, float(np.min(np.abs(patches.det_arrays(patch, S, T)))))
    return best


def _outcome(sweep, *args):
    try:
        return "ok", sweep(*args)
    except GeometryError as exc:
        return "error", str(exc)


_SIGMA_KINDS = (MODEL_SIGMA_MINUS, MODEL_SIGMA_PLUS)
_TWO_RECTS = "TwoRectElliptic"


def _sweep_patch(kind, epsilon):
    """A model patch, or for ``_TWO_RECTS`` the elliptic graph on two
    rectangles, the second holding its complex point, so the sweeps'
    per-rectangle loops run more than once."""
    if kind == _TWO_RECTS:
        return dataclasses.replace(
            model_patch(MODEL_GRAPH_ELLIPTIC),
            name=kind,
            domain=(Rect(-1, -0.3, -1, 1), Rect(-0.3, 1, -1, 1)),
        )
    return model_patch(kind, epsilon if kind in _SIGMA_KINDS else None)


# Chunks of 2^6 to 2^12 nodes give blocks of 2 to about 100 rows, so
# candidate cells straddle block edges.  The first example puts
# SigmaMinus's zeros in cell row 13, between two-row blocks [12, 14) and
# [14, 16): without the one-row overlap no block holds that cell.
@settings(max_examples=60, deadline=None)
@example(kind=MODEL_SIGMA_MINUS, epsilon=0.1, step=0.055, chunk=64)
@example(kind=_TWO_RECTS, epsilon=0.1, step=0.1, chunk=64)
@given(
    kind=st.sampled_from(
        _SIGMA_KINDS
        + (MODEL_WEINSTEIN, MODEL_GRAPH_ELLIPTIC, MODEL_GRAPH_HYPERBOLIC, _TWO_RECTS)
    ),
    epsilon=st.floats(0.05, 0.25) | st.floats(-0.25, -0.05),
    step=st.floats(0.03, 0.2),
    chunk=st.integers(6, 12).map(lambda k: 1 << k),
)
def test_row_block_sweeps_match_the_meshgrid_sweeps(kind, epsilon, step, chunk):
    patch = _sweep_patch(kind, epsilon)
    with mock.patch.object(patches, "DEFAULT_CHUNK", chunk):
        assert _outcome(locate_complex_points, patch, step) == _outcome(
            _meshgrid_locate, patch, step
        )
        assert _outcome(min_abs_complex_det, patch, step) == _outcome(
            _meshgrid_min_abs, patch, step
        )
        for rect in patch.domain:
            s_nodes, t_nodes = patches._cell_nodes(rect, step)
            whole = patches.det_arrays(
                patch, *np.meshgrid(s_nodes, t_nodes, indexing="ij")
            )
            for overlap in (0, 1):
                end = 0
                for first, det in patches._det_rows(patch, s_nodes, t_nodes, overlap):
                    assert first == max(end - overlap, 0)
                    assert det.size <= max(chunk, 2 * len(t_nodes))
                    end = first + len(det)
                    assert det.tobytes() == whole[first:end].tobytes()
                assert end == len(s_nodes)


def _faulty_patch(fold=None, nan=None):
    """Totally real plane (tangents (1, 0) and (0, 1)) whose t-tangent
    turns R-dependent at s == fold[0] and t > fold[1], and whose tangent
    data is NaN at s == nan[0] and t > nan[1]."""

    def tangents(s, t):
        s, t = np.broadcast_arrays(s, t)
        one = np.ones(s.shape, dtype=complex)
        z_s, w_s, z_t, w_t = one, 0 * one, 0 * one, one.copy()
        if fold is not None:
            folded = (s == fold[0]) & (t > fold[1])
            z_t = np.where(folded, 1 + 0j, z_t)
            w_t = np.where(folded, 0j, w_t)
        if nan is not None:
            z_s = np.where((s == nan[0]) & (t > nan[1]), np.nan, z_s)
        return z_s, w_s, z_t, w_t

    return SurfacePatch(
        name="faulty",
        chart=lambda s, t: (np.asarray(s) + 0j, np.asarray(t) + 0j),
        tangents=tangents,
        domain=(Rect(-1, 1, -1, 1),),
    )


# Step 0.1 gives 20 x 20 nodes; chunk 64 gives three-row blocks, so row
# 4 lies in the second block and row 10 in a later one for both sweeps.
_STEP, _CHUNK = 0.1, 64
_S, _T = patches._cell_nodes(Rect(-1, 1, -1, 1), _STEP)


def _whole_grid_error(patch):
    with pytest.raises(GeometryError) as whole:
        patches.det_arrays(patch, *np.meshgrid(_S, _T, indexing="ij"))
    return str(whole.value)


@pytest.mark.parametrize("sweep", [locate_complex_points, min_abs_complex_det])
def test_row_block_sweeps_name_the_failing_node(monkeypatch, sweep):
    monkeypatch.setattr(patches, "DEFAULT_CHUNK", _CHUNK)
    patch = _faulty_patch(fold=(_S[10], _T[6]))
    message = f"fails to immerse at (s, t) = ({_S[10]}, {_T[7]})"
    assert message in _whole_grid_error(patch)
    with pytest.raises(GeometryError) as chunked:
        sweep(patch, _STEP)
    assert str(chunked.value) == _whole_grid_error(patch)


@pytest.mark.parametrize("sweep", [locate_complex_points, min_abs_complex_det])
def test_row_block_sweeps_report_the_first_failing_block(monkeypatch, sweep):
    monkeypatch.setattr(patches, "DEFAULT_CHUNK", _CHUNK)
    # A fold in an earlier block wins over non-finite data in a later one,
    # where the whole grid reports the non-finite data.
    patch = _faulty_patch(fold=(_S[4], _T[15]), nan=(_S[10], _T[0]))
    assert "has non-finite tangent data" in _whole_grid_error(patch)
    with pytest.raises(GeometryError, match="fails to immerse") as chunked:
        sweep(patch, _STEP)
    assert f"({_S[4]}, {_T[16]})" in str(chunked.value)
    # Within one block, non-finite data still comes first.
    patch = _faulty_patch(fold=(_S[10], _T[2]), nan=(_S[10], _T[12]))
    with pytest.raises(GeometryError) as chunked:
        sweep(patch, _STEP)
    assert str(chunked.value) == _whole_grid_error(patch)
    assert f"has non-finite tangent data at (s, t) = ({_S[10]}, {_T[13]})" in str(
        chunked.value
    )


# At step 0.004 the whole-grid sweep of Weinstein peaked at about 156 MB
# of traced allocations; a row block keeps the peak near 11-13 MB at any
# step.
@pytest.mark.parametrize("step", [0.004, 0.002])
@pytest.mark.parametrize(
    "kind, epsilon", [(MODEL_WEINSTEIN, None), (MODEL_SIGMA_MINUS, 0.1)]
)
def test_patch_sweep_memory_does_not_grow_with_the_grid(kind, epsilon, step):
    patch = model_patch(kind, epsilon)
    tracemalloc.start()
    try:
        locate_complex_points(patch, grid_step=step)
        min_abs_complex_det(patch, grid_step=step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
