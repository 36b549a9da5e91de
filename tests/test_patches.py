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


@pytest.mark.parametrize("center, radius, message", [
    ((0, 0), math.inf, "radius must be positive and finite, got inf"),
    ((0, 0), math.nan, "radius must be positive and finite, got nan"),
    ((0, 0), -math.inf, "radius must be positive and finite, got -inf"),
    ((math.nan, 0.0), 0.5, "center must be finite, got (nan, 0.0)"),
    ((0.0, math.inf), 0.5, "center must be finite, got (0.0, inf)"),
], ids=["inf", "nan", "-inf", "nan-center", "inf-center"])
def test_winding_index_refuses_a_non_finite_circle_by_name(center, radius, message):
    """Not as non-finite tangent data of the patch, and with no warning."""
    with pytest.raises(GeometryError) as refused:
        winding_index(model_patch(MODEL_GRAPH_ELLIPTIC), center, radius)
    assert str(refused.value) == message


def test_conjugate_graph_rejects_bad_power():
    with pytest.raises(GeometryError):
        conjugate_graph(0)


def _antiholomorphic_cubic():
    """Graph of zbar^3 - 0.25 zbar, with two simple complex points on the
    real axis at s = +-1/(2 sqrt(3))."""

    def zbar(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    return patches._graph_patch(
        "CubicMinusQuarter",
        lambda s, t: zbar(s, t) ** 3 - 0.25 * zbar(s, t),
        lambda s, t: 3 * zbar(s, t) ** 2 - 0.25,
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


def test_zeros_closer_than_a_cell_are_each_located():
    # df/dzbar = (zbar - conj a)(zbar - conj b): two zeros of index -1,
    # 0.02 apart, inside one cell of the step-0.1 grid.
    a, b = 0.013 + 0.011j, 0.013 + 0.031j
    ca, cb = a.conjugate(), b.conjugate()

    def zbar(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    patch = patches._graph_patch(
        "TwoCloseZeros",
        lambda s, t: zbar(s, t) ** 3 / 3 - (ca + cb) * zbar(s, t) ** 2 / 2 + ca * cb * zbar(s, t),
        lambda s, t: (zbar(s, t) - ca) * (zbar(s, t) - cb),
    )
    found = locate_complex_points(patch, grid_step=0.1)
    assert len(found) == 2
    for point, zero in zip(sorted(found, key=lambda p: p.t), (a, b)):
        assert abs(complex(point.s, point.t) - zero) <= 1e-6
        assert point.index == -1


def test_located_point_serialization():
    (found,) = locate_complex_points(model_patch(MODEL_GRAPH_HYPERBOLIC), grid_step=0.1)
    blob = found.to_json()
    assert blob["index"] == -1
    assert blob["point"] == found.point.to_json()
    assert set(blob) == {
        "s", "t", "point", "index", "raw_winding", "orientation_sign", "det_abs",
    }
    assert blob["det_abs"] <= 1e-9


# ---------------------------------------------------------------------------
# Closed-form determinants against the tangent pairs
# ---------------------------------------------------------------------------


_SIGMA_KINDS = (MODEL_SIGMA_MINUS, MODEL_SIGMA_PLUS)


def _reference_tangents(name, epsilon=None):
    """Reference: a model patch's closed-form tangent pair (z_s, w_s) and
    (z_t, w_t) as a callable of (s, t); det is z_s w_t - z_t w_s."""
    if name == MODEL_WEINSTEIN:

        def tangents(s, t):
            m = 1 + 2j * np.sin(t)
            ct, st = np.cos(t), np.sin(t)
            cs, ss = np.cos(s), np.sin(s)
            radial = -st * m + 2j * ct * ct
            return (-ct * ss * m, ct * cs * m, cs * radial, ss * radial)

        return tangents
    if name in _SIGMA_KINDS:
        root = math.sqrt(abs(epsilon))

        def split(a, b):
            z = np.real(a) + 1j * np.real(b)
            if name == MODEL_SIGMA_MINUS:
                return z, np.imag(a) + 1j * np.imag(b)
            return z, np.imag(a) - 1j * np.imag(b)

        def tangents(s, t):
            a = root * np.exp(s) * np.exp(1j * np.asarray(t, dtype=float))
            b = epsilon / a
            return (*split(a, -b), *split(1j * a, -1j * b))

        return tangents
    # Graphs w = f(z): T_s = (1, f_s) and T_t = (i, f_t).
    f_s = {
        MODEL_GRAPH_ELLIPTIC: lambda z: 2 * np.real(z) + 0j,
        MODEL_GRAPH_HYPERBOLIC: lambda z: 2 * np.conj(z),
        "ConjugatePowerGraph3": lambda z: 3 * np.conj(z) ** 2,
        "CubicMinusQuarter": lambda z: 3 * np.conj(z) ** 2 - 0.25,
    }[name]
    f_t = {
        MODEL_GRAPH_ELLIPTIC: lambda z: 2 * np.imag(z) + 0j,
        MODEL_GRAPH_HYPERBOLIC: lambda z: -2j * np.conj(z),
        "ConjugatePowerGraph3": lambda z: -3j * np.conj(z) ** 2,
        "CubicMinusQuarter": lambda z: -1j * (3 * np.conj(z) ** 2 - 0.25),
    }[name]

    def tangents(s, t):
        z = np.asarray(s) + 1j * np.asarray(t)
        one = np.ones(z.shape, dtype=complex)
        return one, f_s(z), 1j * one, f_t(z)

    return tangents


_CLOSED_FORM_PATCHES = [
    *((kind, eps) for kind in _SIGMA_KINDS for eps in (0.1, -0.07)),
    (MODEL_WEINSTEIN, None),
    (MODEL_GRAPH_ELLIPTIC, None),
    (MODEL_GRAPH_HYPERBOLIC, None),
    ("ConjugatePowerGraph3", None),
    ("CubicMinusQuarter", None),
]


def _named_patch(kind, epsilon):
    if kind == "ConjugatePowerGraph3":
        return conjugate_graph(3)
    if kind == "CubicMinusQuarter":
        return _antiholomorphic_cubic()
    return model_patch(kind, epsilon)


@pytest.mark.parametrize("kind, epsilon", _CLOSED_FORM_PATCHES)
def test_closed_form_dets_match_the_reference_tangents(kind, epsilon):
    patch = _named_patch(kind, epsilon)
    (rect,) = patch.domain
    rng = np.random.default_rng(7)
    s = rng.uniform(rect.s0, rect.s1, size=1000)
    t = rng.uniform(rect.t0, rect.t1, size=1000)
    det = det_arrays(patch, s, t)
    z_s, w_s, z_t, w_t = _reference_tangents(kind, epsilon)(s, t)
    reference = z_s * w_t - z_t * w_s
    assert np.all(np.abs(det - reference) <= 1e-15 * np.maximum(np.abs(reference), 1))


def test_closed_form_dets_are_identities_of_the_charts():
    import sympy
    s, t = sympy.symbols("s t", real=True)
    sin, cos, i = sympy.sin, sympy.cos, sympy.I

    def vanishes(z, w, det):
        tangent_det = sympy.diff(z, s) * sympy.diff(w, t) - sympy.diff(z, t) * sympy.diff(w, s)
        return sympy.simplify(sympy.expand((tangent_det - det).rewrite(sympy.exp))) == 0

    m = 1 + 2 * i * sin(t)
    assert vanishes(
        cos(t) * cos(s) * m,
        cos(t) * sin(s) * m,
        -cos(t) * (2 * sin(t) - i) * (4 * sin(t) ** 2 - i * sin(t) - 2),
    )
    for eps in (sympy.Rational(1, 10), sympy.Rational(-7, 100)):
        a = sympy.sqrt(abs(eps)) * sympy.exp(s) * sympy.exp(i * t)
        b = eps / a
        z = sympy.re(a) + i * sympy.re(b)
        minus = 2 * abs(eps) * sympy.sinh(2 * s) - 2 * i * eps * cos(2 * t)
        assert vanishes(z, sympy.im(a) + i * sympy.im(b), minus)
        assert vanishes(z, sympy.im(a) - i * sympy.im(b), 2 * abs(eps) * sympy.cosh(2 * s))


@pytest.mark.parametrize("kind, epsilon", [
    *((kind, eps) for kind in _SIGMA_KINDS for eps in (0.1, -0.07)),
    (MODEL_WEINSTEIN, None),
    (MODEL_GRAPH_ELLIPTIC, None),
    (MODEL_GRAPH_HYPERBOLIC, None),
    ("ConjugatePowerGraph3", None),
])
def test_each_model_chart_has_its_closed_form_det(kind, epsilon):
    """Central differences of the patch's own chart give its det."""
    patch = _named_patch(kind, epsilon)
    (rect,) = patch.domain
    rng = np.random.default_rng(11)
    s = rng.uniform(rect.s0, rect.s1, size=1000)
    t = rng.uniform(rect.t0, rect.t1, size=1000)
    h = 1e-6
    (zsp, wsp), (zsm, wsm) = patch.chart(s + h, t), patch.chart(s - h, t)
    (ztp, wtp), (ztm, wtm) = patch.chart(s, t + h), patch.chart(s, t - h)
    z_s, w_s, z_t, w_t = ((a - b) / (2 * h) for a, b in
                          ((zsp, zsm), (wsp, wsm), (ztp, ztm), (wtp, wtm)))
    det = det_arrays(patch, s, t)
    assert np.all(np.abs(z_s * w_t - z_t * w_s - det) <= 1e-8 * np.abs(det))


@pytest.mark.parametrize("kind, epsilon", [
    *((MODEL_SIGMA_MINUS, eps) for eps in (0.1, -0.07, -0.05)),
    (MODEL_GRAPH_ELLIPTIC, None),
    (MODEL_GRAPH_HYPERBOLIC, None),
    ("CubicMinusQuarter", None),
])
def test_orientation_signs_match_the_reference_tangents(kind, epsilon):
    patch = _named_patch(kind, epsilon)
    found = locate_complex_points(patch, grid_step=0.1)
    assert found
    for hit in found:
        z_s, w_s, z_t, w_t = _reference_tangents(kind, epsilon)(hit.s, hit.t)
        area = np.imag(z_t * np.conj(z_s) + w_t * np.conj(w_s))
        assert hit.orientation_sign == (1 if area > 0 else -1)
        assert hit.index == hit.orientation_sign * hit.raw_winding


@pytest.mark.parametrize("epsilon", [0.1, -0.07, -0.05])
def test_located_det_abs_matches_an_mpmath_determinant(epsilon):
    import mpmath
    found = locate_complex_points(model_patch(MODEL_SIGMA_MINUS, epsilon), grid_step=0.1)
    assert len(found) == 4
    with mpmath.workdps(50):
        for hit in found:
            # T_s = (a, -b) and T_t = (ia, -ib) in the split coordinates.
            a = mpmath.sqrt(abs(mpmath.mpf(epsilon))) * mpmath.exp(
                mpmath.mpc(hit.s, hit.t)
            )
            b = mpmath.mpf(epsilon) / a
            z_s, w_s = a.real - 1j * b.real, a.imag - 1j * b.imag
            z_t, w_t = -a.imag + 1j * b.imag, a.real - 1j * b.real
            exact = abs(z_s * w_t - z_t * w_s)
            assert abs(hit.det_abs - exact) <= 1e-12 * exact


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------


def test_non_immersed_chart_is_rejected():
    # det = 2s vanishes on the whole fold line s = 0, so no cell's
    # boundary winding settles.
    fold = SurfacePatch(
        name="fold",
        chart=lambda s, t: (np.asarray(s) ** 2 + 0j, np.asarray(t) + 0j),
        domain=(Rect(-1, 1, -1, 1),),
        det=lambda s, t: 2 * np.asarray(s) + 0j,
    )
    assert complex(det_arrays(fold, 0.5, 0.0)) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        locate_complex_points(fold, grid_step=0.1)


def test_a_zero_with_r_dependent_tangents_is_not_a_complex_point():
    # (z, w) = (s, st + i t^2/2) has det = s + it, an isolated zero of
    # winding 1 at the origin, where T_t = (0, s + it) vanishes.
    patch = SurfacePatch(
        name="vanishing-t-tangent",
        chart=lambda s, t: (
            np.asarray(s) + 0j,
            np.asarray(s) * np.asarray(t) + 0.5j * np.asarray(t) ** 2,
        ),
        domain=(Rect(-1, 1, -1, 1),),
        det=lambda s, t: np.asarray(s) + 1j * np.asarray(t),
    )
    assert winding_index(patch, (0, 0), 0.5) == 1
    with pytest.raises(GeometryError, match="vanishing-t-tangent fails to immerse"):
        locate_complex_points(patch, 0.1)


def test_complex_curve_has_no_isolated_points():
    line = SurfacePatch(
        name="diagonal-line",
        chart=lambda s, t: (np.asarray(s) + 1j * np.asarray(t),) * 2,
        domain=(Rect(-1, 1, -1, 1),),
        det=lambda s, t: np.zeros(np.broadcast(s, t).shape, dtype=complex),
    )
    # immersed, but complex everywhere: the sweep must refuse to answer
    with pytest.raises(GeometryError):
        locate_complex_points(line, grid_step=0.1)


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
            w = _reference_rect_winding(patch, cell)
            if w != 0:
                results.extend(patches._refine_zeros(patch, [cell], [w]))
    return sorted(results, key=lambda r: (r.s, r.t))


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
        blocks = patches._det_blocks(patch, step)
        for rect in patch.domain:
            s_nodes, t_nodes = patches._cell_nodes(rect, step)
            whole = patches.det_arrays(
                patch, *np.meshgrid(s_nodes, t_nodes, indexing="ij")
            )
            end = 0
            while end < len(s_nodes):
                block_s, block_t, first, det = next(blocks)
                assert np.array_equal(block_s, s_nodes) and np.array_equal(block_t, t_nodes)
                assert first == max(end - 1, 0)
                assert det.size <= max(chunk, 2 * len(t_nodes))
                end = first + len(det)
                assert det.tobytes() == whole[first:end].tobytes()
            assert end == len(s_nodes)
        assert next(blocks, None) is None


# ---------------------------------------------------------------------------
# The steep-edge cell screen against the per-cell screen it replaced
# ---------------------------------------------------------------------------


def _reference_screen(det):
    """Reference: the per-cell screen, which flags a cell whose rounded
    corner winding is nonzero or one of whose edges turns by 0.45 pi.
    ``_steep_cells`` takes each turn from node args instead of neighbour
    ratios, so the two can differ only on an edge that turns by 0.45 pi
    to within a few ulps; none of the inputs below has one."""
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
    return np.argwhere((quick != 0) | fast_edges)


_SCREEN_PATCHES = [
    *((kind, eps) for kind in _SIGMA_KINDS for eps in (0.1, -0.07, 0.0714, 0.178)),
    (MODEL_WEINSTEIN, None),
    (MODEL_GRAPH_ELLIPTIC, None),
    (MODEL_GRAPH_HYPERBOLIC, None),
    ("conjugate_graph(3)", None),
]


@pytest.mark.parametrize("kind, epsilon", _SCREEN_PATCHES)
def test_steep_edge_screen_selects_the_reference_cells_on_model_patches(kind, epsilon):
    if kind == "conjugate_graph(3)":
        patch = conjugate_graph(3)
    else:
        patch = model_patch(kind, epsilon)
    flagged = 0
    for step in (0.004, 0.013, 0.031, 0.05, 0.1):
        for *_, det in patches._det_blocks(patch, step):
            cells = patches._steep_cells(det)
            assert np.array_equal(cells, _reference_screen(det))
            flagged += len(cells)
    # Only the totally real patches flag no cell at all.
    assert (flagged == 0) == (kind in (MODEL_SIGMA_PLUS, MODEL_WEINSTEIN))


def test_steep_edge_screen_selects_the_reference_cells_on_random_grids():
    # Beyond about 10^+-150 the reference's neighbour ratios overflow and
    # it means nothing; within 10^+-100 every ratio is finite.
    # Phases spread over a random fraction of the circle give grids from
    # a few flagged cells to nearly all.
    flagged = total = 0
    for k in range(256):
        rng = np.random.default_rng(k)
        shape = tuple(rng.integers(2, 24, size=2))
        magnitude = 10.0 ** rng.uniform(-100, 100, size=shape)
        spread = rng.uniform(0.1, 1) * math.pi
        det = magnitude * np.exp(1j * rng.uniform(-spread, spread, size=shape))
        cells = patches._steep_cells(det)
        assert np.array_equal(cells, _reference_screen(det))
        flagged += len(cells)
        total += (shape[0] - 1) * (shape[1] - 1)
    assert 0 < flagged < total


def test_steep_edge_screen_pins_a_quarter_turn_cell_and_a_slow_grid():
    # Winding 1 with every edge turning by exactly pi/2.
    det = np.array([[1, -1j], [1j, -1]])
    assert patches._steep_cells(det).tolist() == [[0, 0]]
    assert _reference_screen(det).tolist() == [[0, 0]]
    # arg det = a_i + b_j with neighbour steps of at most 0.44 pi: no cell.
    rng = np.random.default_rng(0)
    a = np.cumsum(rng.uniform(-0.44, 0.44, size=30)) * math.pi
    b = np.cumsum(rng.uniform(-0.44, 0.44, size=40)) * math.pi
    det = 10.0 ** rng.uniform(-3, 3, size=(30, 40)) * np.exp(1j * (a[:, None] + b))
    assert len(patches._steep_cells(det)) == 0
    assert len(_reference_screen(det)) == 0


# ---------------------------------------------------------------------------
# The batched windings against the one-by-one windings they replaced
# ---------------------------------------------------------------------------


def _reference_loop_winding(patch, sample_loop, n):
    """Reference: the one-by-one loop winding, one det call per loop and
    sample count."""
    while True:
        s, t = sample_loop(n)
        det = det_arrays(patch, s, t)
        mags = np.abs(det)
        if np.min(mags) <= 1e-9 * np.max(mags):
            raise GeometryError(
                "tangent determinant vanishes on the loop; move or shrink it"
            )
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
        if n >= patches.MAX_WINDING_SAMPLES:
            raise GeometryError("winding did not stabilize; zero too close to the loop")
        n *= 2


def _reference_rect_loop(rect):
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


def _reference_rect_winding(patch, rect):
    return _reference_loop_winding(
        patch, _reference_rect_loop(rect), patches.MIN_WINDING_SAMPLES
    )


def _reference_winding_index(patch, center, radius):
    s0, t0 = center
    if not (radius > 0 and math.isfinite(radius)):
        raise GeometryError(f"radius must be positive and finite, got {radius}")
    if not (math.isfinite(s0) and math.isfinite(t0)):
        raise GeometryError(f"center must be finite, got {center}")

    def sample_loop(n):
        ang = 2 * math.pi * np.arange(n) / n
        return s0 + radius * np.cos(ang), t0 + radius * np.sin(ang)

    return _reference_loop_winding(patch, sample_loop, patches.CIRCLE_WINDING_SAMPLES)


def _batch_matches_the_reference(patch, rects):
    """The batch raises the first failing rect's own error, and otherwise
    returns the rects' own windings; returns whether it raised."""
    own = [_outcome(_reference_rect_winding, patch, rect) for rect in rects]
    batch = _outcome(patches._rect_windings, patch, rects)
    errors = [message for status, message in own if status == "error"]
    if errors:
        assert batch == ("error", errors[0])
        return True
    assert batch == ("ok", [w for _, w in own])
    return False


def test_a_batch_raises_its_first_failing_rect_s_own_error():
    """Rects failing with different messages, in both orders: one with a
    corner on the elliptic graph's zero, one where det is made infinite."""
    base = model_patch(MODEL_GRAPH_ELLIPTIC)
    patch = dataclasses.replace(
        base, det=lambda s, t: np.where(np.asarray(s) > 0.5, np.inf, base.det(s, t))
    )
    on_zero, infinite = Rect(0.0, 0.2, 0.0, 0.2), Rect(0.6, 0.8, 0.0, 0.2)
    fine = Rect(-0.8, -0.6, 0.3, 0.5)
    for rects in ([on_zero, fine, infinite], [infinite, fine, on_zero]):
        assert _batch_matches_the_reference(patch, rects)
    assert _outcome(patches._rect_windings, patch, [on_zero, infinite]) != _outcome(
        patches._rect_windings, patch, [infinite, on_zero]
    )


def _wound_rects(monkeypatch, patch, grid_step):
    """locate_complex_points(patch, grid_step), and every rect list it
    winds, with the outcome of each rect, call by call."""
    wound = []
    sampler, windings = patches._rect_sampler, patches._windings

    def recording_sampler(rects):
        wound.append((list(rects), None))
        return sampler(rects)

    def recording_windings(*args):
        outcomes = windings(*args)
        wound[-1] = (wound[-1][0], outcomes)
        return outcomes

    monkeypatch.setattr(patches, "_rect_sampler", recording_sampler)
    monkeypatch.setattr(patches, "_windings", recording_windings)
    found = locate_complex_points(patch, grid_step)
    monkeypatch.undo()
    return found, wound


@pytest.mark.parametrize("kind, epsilon", [
    (MODEL_SIGMA_MINUS, 0.1), (MODEL_SIGMA_MINUS, -0.07),
    (MODEL_GRAPH_ELLIPTIC, None), (MODEL_GRAPH_HYPERBOLIC, None), ("cubic", None),
])
def test_batched_windings_match_the_reference_at_every_split(monkeypatch, kind, epsilon):
    """The candidate cells are wound in one call, then each bisection level
    in one call per split fraction; every rect gets its own outcome."""
    patch = _antiholomorphic_cubic() if kind == "cubic" else model_patch(kind, epsilon)
    found, ((cells, _), *levels) = _wound_rects(monkeypatch, patch, 0.05)
    # A 0.05 cell takes about 20 splits to bring |det| below ZERO_TOL.
    assert found
    splits = [rects[i:i + 4] for rects, _ in levels for i in range(0, len(rects), 4)]
    assert len(splits) >= 20 * len(found)
    _batch_matches_the_reference(patch, cells)
    for rects, outcomes in levels:
        assert len(rects) % 4 == 0
        own = [_outcome(_reference_rect_winding, patch, rect) for rect in rects]
        assert own == [
            ("error", str(o)) if isinstance(o, GeometryError) else ("ok", o) for o in outcomes
        ]


# ---------------------------------------------------------------------------
# The level-order refinement against the depth-first one it replaced
# ---------------------------------------------------------------------------


def _reference_subdivide(rect, fs, ft):
    sm = rect.s0 + fs * (rect.s1 - rect.s0)
    tm = rect.t0 + ft * (rect.t1 - rect.t0)
    return [
        Rect(rect.s0, sm, rect.t0, tm),
        Rect(sm, rect.s1, rect.t0, tm),
        Rect(rect.s0, sm, tm, rect.t1),
        Rect(sm, rect.s1, tm, rect.t1),
    ]


def _reference_refine_zeros(patch, cells, windings):
    """Reference: the depth-first refinement, one winding call per split."""
    found = []
    stack = [(cell, w, 0) for cell, w in zip(cells, windings) if w][::-1]
    while stack:
        rect, w, depth = stack.pop()
        sc = 0.5 * (rect.s0 + rect.s1)
        tc = 0.5 * (rect.t0 + rect.t1)
        d = abs(complex(det_arrays(patch, sc, tc)))
        if d < patches.ZERO_TOL:
            sign = patches._orientation_sign(patch, sc, tc)
            found.append(
                patches.LocatedComplexPoint(
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
        if depth >= patches._MAX_BISECTIONS:
            raise GeometryError(
                f"zero cluster in patch {patch.name} unresolved near "
                f"({sc}, {tc}); |det| = {d} after {depth} bisections"
            )
        for fs, ft in patches._SPLIT_FRACTIONS:
            try:
                subcells = _reference_subdivide(rect, fs, ft)
                windings = patches._rect_windings(patch, subcells)
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


def _two_close_zeros():
    """Graph with df/dzbar = (zbar - conj a)(zbar - conj b): two zeros of
    index -1, 0.02 apart, inside one cell of the step-0.1 grid."""
    ca, cb = (0.013 - 0.011j), (0.013 - 0.031j)

    def zbar(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    return patches._graph_patch(
        "TwoCloseZeros",
        lambda s, t: zbar(s, t) ** 3 / 3 - (ca + cb) * zbar(s, t) ** 2 / 2 + ca * cb * zbar(s, t),
        lambda s, t: (zbar(s, t) - ca) * (zbar(s, t) - cb),
    )


def _zero_on_the_first_split():
    """Graph with df/dzbar = zbar - conj c: one zero of index -1 on the
    (0.5, 0.5) split line of its step-0.1 cell, exactly on a sample of a
    sub-cell's edge.  That split fails, and the next fraction is tried."""
    s_nodes, t_nodes = patches._cell_nodes(Rect(-1.0, 1.0, -1.0, 1.0), 0.1)
    s0, s1, t0, t1 = s_nodes[10], s_nodes[11], t_nodes[10], t_nodes[11]
    tm = t0 + 0.5 * (t1 - t0)
    cc = complex(s0 + 0.5 * (s1 - s0), -(t0 + 0.25 * (tm - t0)))

    def zbar(s, t):
        return np.asarray(s) - 1j * np.asarray(t)

    return patches._graph_patch(
        "ZeroOnTheFirstSplit", lambda s, t: zbar(s, t) ** 2 / 2 - cc * zbar(s, t),
        lambda s, t: zbar(s, t) - cc,
    )


def _located(patch, grid_step):
    """Every located point as JSON with repr'd det_abs, or the error kind:
    the message up to its first parenthesis."""
    try:
        found = locate_complex_points(patch, grid_step)
    except GeometryError as exc:
        return "error", str(exc).split("(")[0]
    return "ok", [(p.to_json(), repr(p.det_abs)) for p in found]


_REFINE_CASES = [
    *[(MODEL_SIGMA_MINUS, eps, step) for eps in (0.1, -0.07, 0.178) for step in (0.004, 0.05)],
    *[(kind, None, step)
      for kind in (MODEL_GRAPH_ELLIPTIC, MODEL_GRAPH_HYPERBOLIC, "cubic", "conjugate3", "two_zeros")
      for step in (0.05, 0.1)],
    ("zero_on_a_split", None, 0.1),
    (MODEL_SIGMA_MINUS, 1e6, 0.05),
    (MODEL_SIGMA_MINUS, 1e300, 0.05),
]


@pytest.mark.parametrize("kind, epsilon, step", _REFINE_CASES)
def test_level_order_refine_matches_the_depth_first_refine(kind, epsilon, step):
    """Bit for bit where the depth-first refine locates points, and with
    the same kind of error where it fails (sigma_minus at 1e6 and 1e300)."""
    patch = {
        "cubic": _antiholomorphic_cubic, "conjugate3": lambda: conjugate_graph(3),
        "two_zeros": _two_close_zeros, "zero_on_a_split": _zero_on_the_first_split,
    }.get(kind, lambda: model_patch(kind, epsilon))()
    levels = _located(patch, step)
    with mock.patch.object(patches, "_refine_zeros", _reference_refine_zeros):
        assert levels == _located(patch, step)
    if epsilon in (1e6, 1e300):
        assert levels == ("error", "could not subdivide around ")
    else:
        assert levels[0] == "ok" and levels[1]


def test_sigma_minus_is_located_in_few_winding_calls():
    """One call for the candidate cells, then one per bisection level and
    split fraction: 21 for the benchmark's sigma_minus grid, where
    winding each split on its own took 81."""
    patch = model_patch(MODEL_SIGMA_MINUS, 0.1)
    with mock.patch.object(patches, "_windings", wraps=patches._windings) as windings:
        assert len(locate_complex_points(patch, grid_step=0.004)) == 4
    assert windings.call_count <= 25


def _random_rect(rng):
    """A rect around or away from the elliptic graph's zero at the origin
    (settles at 64 samples), one with an edge 10^-1.5 to 10^-3 of its
    width from the zero (settles at up to a few thousand), or one with a
    corner on the zero (raises)."""
    w, h = rng.uniform(0.05, 0.5, size=2)
    kind = rng.choice(3, p=[0.45, 0.45, 0.1])
    if kind == 0:
        s0, t0 = rng.uniform(-1, 1, size=2)
        if rng.random() < 0.5:
            s0, t0 = -rng.uniform(0.2, 0.8) * w, -rng.uniform(0.2, 0.8) * h
    elif kind == 1:
        d = w * 10 ** -rng.uniform(1.5, 3) * rng.choice([-1, 1])
        s0, t0 = -rng.uniform(0.1, 0.9) * w, d
        if rng.random() < 0.5:
            s0, t0 = t0, s0
    else:
        s0, t0 = (0.0, 0.0) if rng.random() < 0.5 else (-w, -h)
    return Rect(s0, s0 + w, t0, t0 + h)


def test_batched_windings_match_the_reference_on_random_rects():
    base = model_patch(MODEL_GRAPH_ELLIPTIC)
    sizes = []

    def det(s, t):
        sizes.append(np.size(s))
        return base.det(s, t)

    patch = dataclasses.replace(base, det=det)
    raised, settled_at = 0, set()
    for k in range(200):
        rng = np.random.default_rng(k)
        rects = [_random_rect(rng) for _ in range(rng.integers(1, 7))]
        for rect in rects:
            sizes.clear()
            if _outcome(_reference_rect_winding, patch, rect)[0] == "ok":
                settled_at.add(sizes[-1])
        raised += _batch_matches_the_reference(patch, rects)
    assert 40 <= raised <= 160
    assert {64, 128, 256, 512, 1024, 2048, 4096} <= settled_at


@pytest.mark.parametrize("kind", [MODEL_GRAPH_ELLIPTIC, MODEL_GRAPH_HYPERBOLIC, "cubic"])
@pytest.mark.parametrize("center, radius", [
    ((0, 0), 0.5), ((0.3, 0.0), 0.3), ((0.7, 0.7), 0.2), ((0, 0), 0.8),
    ((0.01, 0), 1e-2), ((0, 0), 1e300), ((0, 0), 0.0), ((0, 0), -1.0),
    ((0, 0), 1e-310), ((0, 0), 1e-320), ((0, 0), 5e-324),
    ((0, 0), math.inf), ((0, 0), math.nan), ((math.nan, 0), 0.5), ((0, math.inf), 0.5),
])
def test_winding_index_matches_the_reference(kind, center, radius):
    patch = _antiholomorphic_cubic() if kind == "cubic" else model_patch(kind)
    assert _outcome(winding_index, patch, center, radius) == _outcome(
        _reference_winding_index, patch, center, radius
    )


def test_batched_windings_bound_the_samples_of_one_det_call():
    """Both rects' bottom edges pass 2e-9 above the zero of det = s + it,
    and no sample lands within 7e-7 of s = 0 on them, so neither settles
    before MAX_WINDING_SAMPLES."""
    sizes = []

    def det(s, t):
        sizes.append(np.size(s))
        return np.asarray(s) + 1j * np.asarray(t)

    patch = SurfacePatch("plane", lambda s, t: (s + 0j, t + 0j), (Rect(-1, 1, -1, 1),), det)
    rects = [Rect(-0.3, 0.7, 2e-9, 1 + 2e-9), Rect(-0.6, 0.4, 2e-9, 1 + 2e-9)]
    for rect in rects:
        with pytest.raises(GeometryError, match="winding did not stabilize"):
            _reference_rect_winding(patch, rect)
    sizes.clear()
    with pytest.raises(GeometryError, match="winding did not stabilize"):
        patches._rect_windings(patch, rects)
    assert max(sizes) == patches.MAX_WINDING_SAMPLES


def _faulty_patch(*nans):
    """Totally real plane (z, w) = (s, t), det = 1, whose determinant is
    NaN at s == s0 and t > t0 for each (s0, t0) in ``nans``."""

    def det(s, t):
        s, t = np.broadcast_arrays(s, t)
        out = np.ones(s.shape, dtype=complex)
        for s0, t0 in nans:
            out[(s == s0) & (t > t0)] = np.nan
        return out

    return SurfacePatch(
        name="faulty",
        chart=lambda s, t: (np.asarray(s) + 0j, np.asarray(t) + 0j),
        det=det,
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
    patch = _faulty_patch((_S[10], _T[6]))
    message = f"has non-finite tangent data at (s, t) = ({_S[10]}, {_T[7]})"
    assert message in _whole_grid_error(patch)
    with pytest.raises(GeometryError) as chunked:
        sweep(patch, _STEP)
    assert str(chunked.value) == _whole_grid_error(patch)


@pytest.mark.parametrize("sweep", [locate_complex_points, min_abs_complex_det])
def test_row_block_sweeps_report_the_first_failing_block(monkeypatch, sweep):
    monkeypatch.setattr(patches, "DEFAULT_CHUNK", _CHUNK)
    # Non-finite data in an earlier block wins over more of it in a later
    # one, although the later one's starts at a lower t.
    patch = _faulty_patch((_S[4], _T[15]), (_S[10], _T[0]))
    with pytest.raises(GeometryError) as chunked:
        sweep(patch, _STEP)
    assert str(chunked.value) == _whole_grid_error(patch)
    assert f"has non-finite tangent data at (s, t) = ({_S[4]}, {_T[16]})" in str(
        chunked.value
    )


# At step 0.004 the whole-grid sweep of Weinstein peaked at about 156 MB
# of traced allocations; a row block of closed-form dets keeps the peak
# near 1.6-2.5 MiB at any step.
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


# ---------------------------------------------------------------------------
# Per-axis passes over broadcast dets against the materialized passes
# ---------------------------------------------------------------------------


def _screen_patch(kind, epsilon):
    return conjugate_graph(3) if kind == "conjugate_graph(3)" else model_patch(kind, epsilon)


def _passes(det):
    """What the sweeps read from one block: the screened cells, whether
    the exact-zero refusal fires, and the block's min |det|."""
    distinct = patches._distinct(det)
    return (
        patches._steep_cells(det).tolist(),
        bool(np.any(distinct == 0)),
        float(np.min(np.abs(distinct))),
    )


_ONE_VARIABLE_KINDS = (MODEL_SIGMA_PLUS, MODEL_WEINSTEIN)


@pytest.mark.parametrize("kind, epsilon", [
    *((kind, eps) for kind in _SIGMA_KINDS for eps in (0.1, -0.07, 0.178)),
    (MODEL_WEINSTEIN, None),
    (MODEL_GRAPH_ELLIPTIC, None),
    (MODEL_GRAPH_HYPERBOLIC, None),
    ("conjugate_graph(3)", None),
])
def test_per_axis_passes_match_the_materialized_det(kind, epsilon):
    patch = _screen_patch(kind, epsilon)
    for step in (0.004, 0.013, 0.05, 0.1):
        for *_, det in patches._det_blocks(patch, step):
            # Only a det of one variable comes back as a broadcast view.
            assert (0 in det.strides) == (kind in _ONE_VARIABLE_KINDS)
            full = np.array(det)
            assert patches._distinct(full).shape == full.shape
            assert _passes(det) == _passes(full)


def test_per_axis_passes_match_the_materialized_det_on_random_grids():
    # One axis broadcast, as an (n, 1) column or a (1, m) row, with axes
    # of length 2 among them, and full grids; a few hold an exact zero.
    kinds = {"column": 0, "row": 0, "full": 0}
    for k in range(256):
        rng = np.random.default_rng(k)
        shape = tuple(int(n) for n in rng.integers(2, 24, size=2))
        if k % 8 == 0:
            shape = (2, shape[1]) if k % 16 else (shape[0], 2)
        kind = ("column", "row", "full")[k % 3]
        drawn = shape[0] if kind == "column" else shape[1] if kind == "row" else shape
        spread = rng.uniform(0.1, 1) * math.pi
        values = 10.0 ** rng.uniform(-100, 100, size=drawn) * np.exp(
            1j * rng.uniform(-spread, spread, size=drawn)
        )
        if rng.uniform() < 0.2:
            values.flat[rng.integers(values.size)] = 0
        det = np.broadcast_to(
            values[:, None] if kind == "column" else values, shape
        )
        full = np.array(det)
        assert (0 in det.strides) == (kind != "full")
        assert _passes(det) == _passes(full)
        kinds[kind] += 1
    assert min(kinds.values()) > 80


def _one_variable_patch(axis, nans=(), zeros=()):
    """Plane (z, w) = (s, t) whose det, 1, is computed from s alone
    (axis 0) or t alone (axis 1) and set to NaN on ``nans`` and to 0 on
    ``zeros`` there, so a sweep block gets it as a broadcast view."""

    def det(s, t):
        x = np.asarray((s, t)[axis], dtype=float)
        out = np.ones(x.shape, dtype=complex)
        out[np.isin(x, nans)] = np.nan
        out[np.isin(x, zeros)] = 0
        return out

    return SurfacePatch(
        name=f"one-variable-{axis}",
        chart=lambda s, t: (np.asarray(s) + 0j, np.asarray(t) + 0j),
        det=det,
        domain=(Rect(-1, 1, -1, 1),),
    )


def _materialized(patch):
    """``patch`` with its det computed over the full broadcast shape."""

    def det(s, t):
        return np.array(np.broadcast_to(patch.det(s, t), np.broadcast(s, t).shape))

    return dataclasses.replace(patch, det=det)


_ZERO = "determinant vanishes exactly on a grid node of"


def _nan_at(s, t):
    return f"has non-finite tangent data at (s, t) = ({s}, {t})"


_AT_S4, _AT_S10 = _nan_at(_S[4], _T[0]), _nan_at(_S[10], _T[0])
_AT_T6, _AT_T15 = _nan_at(_S[0], _T[6]), _nan_at(_S[0], _T[15])


# With _STEP and _CHUNK, rows 4 and 10 lie in different blocks; every
# block holds all 20 t nodes.  Each case gives what locate_complex_points
# and min_abs_complex_det must raise or return.
@pytest.mark.parametrize("axis, nans, zeros, located, least", [
    # s alone: the first offending block wins, NaN or zero alike.
    pytest.param(0, (_S[10], _S[4]), (), _AT_S4, _AT_S4, id="s-nan-nan"),
    pytest.param(0, (_S[4],), (_S[10],), _AT_S4, _AT_S4, id="s-nan-zero"),
    pytest.param(0, (_S[10],), (_S[4],), _ZERO, _AT_S10, id="s-zero-nan"),
    pytest.param(0, (), (_S[10], _S[4]), _ZERO, 0.0, id="s-zero-zero"),
    # t alone: one block holds every bad node, and the finite check runs
    # before the refusal.
    pytest.param(1, (_T[15], _T[6]), (), _AT_T6, _AT_T6, id="t-nan-nan"),
    pytest.param(1, (_T[15],), (_T[3],), _AT_T15, _AT_T15, id="t-nan-zero"),
    pytest.param(1, (), (_T[3],), _ZERO, 0.0, id="t-zero"),
])
def test_one_variable_dets_fail_where_the_materialized_det_fails(
    monkeypatch, axis, nans, zeros, located, least
):
    monkeypatch.setattr(patches, "DEFAULT_CHUNK", _CHUNK)
    patch = _one_variable_patch(axis, nans, zeros)
    for sweep, expected in ((locate_complex_points, located), (min_abs_complex_det, least)):
        outcome = _outcome(sweep, patch, _STEP)
        assert outcome == _outcome(sweep, _materialized(patch), _STEP)
        if expected == 0.0:
            assert outcome == ("ok", 0.0)
        else:
            assert outcome[0] == "error" and expected in outcome[1]
        if expected not in (_ZERO, 0.0):
            assert outcome[1] == _whole_grid_error(patch)


def _counted_elements(patch, step):
    """Elements handed to np.angle and np.abs by both patch sweeps."""
    with mock.patch.object(np, "angle", wraps=np.angle) as angle, \
            mock.patch.object(np, "abs", wraps=np.abs) as absolute:
        locate_complex_points(patch, grid_step=step)
        min_abs_complex_det(patch, grid_step=step)
    return sum(
        np.size(call.args[0]) for f in (angle, absolute) for call in f.call_args_list
    )


# A block's passes take about 10 (rows + n_t) elements on a one-variable
# det; an edit that materializes it takes rows * n_t again, which at step
# 0.004 is 40 to 80 times rows + n_t.
@pytest.mark.parametrize("kind, epsilon", [(MODEL_SIGMA_PLUS, 0.1), (MODEL_WEINSTEIN, None)])
def test_one_variable_det_passes_grow_with_the_axes_not_the_nodes(kind, epsilon):
    patch = model_patch(kind, epsilon)
    step = 0.004
    blocks = [(len(det), len(t)) for _, t, _, det in patches._det_blocks(patch, step)]
    per_axis = sum(rows + n_t for rows, n_t in blocks)
    nodes = sum(rows * n_t for rows, n_t in blocks)
    assert _counted_elements(patch, step) <= 12 * per_axis < nodes / 2
    assert _counted_elements(_materialized(patch), step) >= 2 * nodes
