"""Tests for surface patches: tangent determinants, windings, located
complex points, and the model charts."""

import math

import numpy as np
import pytest

from steinsurf.errors import GeometryError
from steinsurf.localgeo import (
    OrientedPlane,
    Rect,
    SurfacePatch,
    complex_det,
    conjugate_graph,
    custom_graph,
    intersection_sign,
    locate_complex_points,
    min_abs_complex_det,
    model_patch,
    weinstein_double_point_planes,
    winding_index,
)
from steinsurf.localgeo import patches
from steinsurf.localgeo.patches import (
    MODEL_FLAT_DOUBLE_POINT,
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
        winding_index(patch, (0, 0), 0.5, samples=8)
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

    return custom_graph("CubicMinusQuarter", f, f_s, f_t, Rect(-1, 1, -1, 1))


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
    fold = SurfacePatch(
        name="fold",
        chart=lambda s, t: (np.asarray(s) ** 2 + 0j, np.asarray(t) + 0j),
        domain=(Rect(-1, 1, -1, 1),),
    )
    assert complex_det(fold, 0.5, 0.0) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        complex_det(fold, 0.0, 0.0)


def test_complex_curve_has_no_isolated_points():
    line = SurfacePatch(
        name="diagonal-line",
        chart=lambda s, t: (np.asarray(s) + 1j * np.asarray(t),) * 2,
        domain=(Rect(-1, 1, -1, 1),),
    )
    # immersed, but complex everywhere: the sweep must refuse to answer
    with pytest.raises(GeometryError):
        locate_complex_points(line)


def test_complex_det_checks_domain():
    patch = model_patch(MODEL_GRAPH_ELLIPTIC)
    with pytest.raises(GeometryError):
        complex_det(patch, 2.0, 0.0)


def test_locate_grid_step_validation():
    patch = model_patch(MODEL_GRAPH_ELLIPTIC)
    with pytest.raises(GeometryError):
        locate_complex_points(patch, grid_step=0.0)
    with pytest.raises(GeometryError):
        locate_complex_points(patch, grid_step=25.0)


def test_fd_tangents_agree_with_closed_tangents():
    closed = model_patch(MODEL_GRAPH_HYPERBOLIC)
    fd = SurfacePatch(name="fd-twin", chart=closed.chart, domain=closed.domain)
    for s, t in ((0.4, 0.1), (-0.3, 0.7), (0.25, -0.6)):
        assert complex_det(fd, s, t) == pytest.approx(
            complex_det(closed, s, t), abs=1e-8
        )


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
    assert set(patch.marks) == {
        (0.0, math.pi / 4 + k * math.pi / 2) for k in range(4)
    }


def test_sigma_minus_det_formula():
    eps = 0.1
    patch = model_patch(MODEL_SIGMA_MINUS, epsilon=eps)
    for s, t in ((0.3, 1.0), (-0.5, 2.2), (0.0, 0.1)):
        expected = 2 * abs(eps) * math.sinh(2 * s) - 2j * eps * math.cos(2 * t)
        assert complex_det(patch, s, t) == pytest.approx(expected, abs=1e-12)


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
# Weinstein sphere and flat double point
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
    z_line = OrientedPlane(((1 + 0j, 0j), (1j, 0j)))
    w_line = OrientedPlane(((0j, 1 + 0j), (0j, 1j)))
    assert intersection_sign(z_line, w_line) == 1
    flipped = OrientedPlane(((0j, 1j), (0j, 1 + 0j)))
    assert intersection_sign(z_line, flipped) == -1
    with pytest.raises(GeometryError):
        intersection_sign(z_line, z_line)


def test_flat_double_point_sheets():
    patch = model_patch(MODEL_FLAT_DOUBLE_POINT)
    assert len(patch.domain) == 2
    # both sheets pass through the origin of C^2
    origins = [patch.point(0.0, 0.0), patch.point(4.0, 0.0)]
    assert all(p.reals == (0, 0, 0, 0) for p in origins)
    assert locate_complex_points(patch, grid_step=0.25) == []
    assert min_abs_complex_det(patch, grid_step=0.25) == pytest.approx(1.0)


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
