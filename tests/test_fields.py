"""Tests for model scalar fields, finite differences, and grid sweeps."""

import math

import numpy as np
import pytest

from steinsurf.certificates import RULE_DET_IDENTITY, RULE_LEVI_PSH
from steinsurf.errors import GeometryError
from steinsurf.localgeo import (
    Box4,
    PointC2,
    ScalarField,
    det_identity_check,
    eigmin_arrays,
    fd_gradient_arrays,
    fd_levi_arrays,
    flow_to_surface,
    grid_chunks,
    model_field,
    psh_certificate,
    sweeps,
)
from steinsurf.localgeo.fields import (
    MODEL_DOUBLE_POINT,
    MODEL_KINDS,
    MODEL_SPECIAL_HYPERBOLIC,
)

RNG = np.random.default_rng(20260814)


def random_points(n):
    return [PointC2.from_reals(*coords) for coords in RNG.uniform(-1, 1, (n, 4))]


def eigenvalues(a11, a22, a12):
    """Eigenvalues (min, max) of the 2x2 Hermitian form
    [[a11, a12], [conj(a12), a22]] in closed form: the scalar reference
    for ``eigmin_arrays``."""
    mean = 0.5 * (a11 + a22)
    disc = math.hypot(0.5 * (a11 - a22), abs(a12))
    return (mean - disc, mean + disc)


def levi(kind, p):
    """Closed-form Levi entries (a11, a22, a12) of a model field at p."""
    return model_field(kind).levi(*p.reals)


# ---------------------------------------------------------------------------
# Zero sets and closed-form jets
# ---------------------------------------------------------------------------


def test_hyperbolic_field_vanishes_exactly_on_its_graph():
    fld = model_field(MODEL_SPECIAL_HYPERBOLIC)
    for _ in range(20):
        x, y = RNG.uniform(-1, 1, 2)
        on = PointC2.from_reals(x, y, x * x - y * y, -2 * x * y)
        assert fld.value_at(on) == pytest.approx(0.0, abs=1e-28)
        off = PointC2.from_reals(x, y, x * x - y * y + 0.1, -2 * x * y)
        assert fld.value_at(off) == pytest.approx(0.01)


def test_double_field_vanishes_on_both_planes():
    fld = model_field(MODEL_DOUBLE_POINT)
    for t in np.linspace(-1, 1, 7):
        assert fld.value_at(PointC2.from_reals(t, 0, 2 * t, 0)) == 0.0
        assert fld.value_at(PointC2.from_reals(0, t, 0, -t)) == 0.0
    assert fld.value_at(PointC2.from_reals(1, 1, 0, 0)) == 1.0


def test_hyperbolic_levi_is_diagonal():
    for p in random_points(20):
        x, y, _, _ = p.reals
        a11, a22, a12 = levi(MODEL_SPECIAL_HYPERBOLIC, p)
        assert a11 == pytest.approx(4 * (x * x + y * y))
        assert a22 == 1.0
        assert a12 == 0j
        assert eigenvalues(a11, a22, a12)[0] == pytest.approx(min(a11, 1.0))


def test_double_levi_entries():
    for p in random_points(20):
        x, y, u, v = p.reals
        s = x * x + y * y + u * u + v * v
        a11, a22, a12 = levi(MODEL_DOUBLE_POINT, p)
        assert a11 == pytest.approx(0.5 * s)
        assert a22 == pytest.approx(0.5 * s)
        assert a12 == pytest.approx(1j * (x * v - y * u))


def test_double_eigmin_distance_to_complex_lines():
    """The smallest Levi eigenvalue of the double point field equals half
    the squared distance to the nearer of the lines w = +-(i z)."""
    for p in random_points(40):
        x, y, u, v = p.reals
        near = min((u + y) ** 2 + (v - x) ** 2, (u - y) ** 2 + (v + x) ** 2)
        assert eigenvalues(*levi(MODEL_DOUBLE_POINT, p))[0] == pytest.approx(
            0.5 * near, abs=1e-12
        )


def test_hyperbolic_gradient_norm_identity():
    """|d rho / d z|^2 = 4 |z|^2 rho for the graph-distance field."""
    fld = model_field(MODEL_SPECIAL_HYPERBOLIC)
    for p in random_points(40):
        x, y, _, _ = p.reals
        gx, gy, _, _ = fld.gradient(*p.reals)
        rho_z = 0.5 * (gx - 1j * gy)
        assert abs(rho_z) ** 2 == pytest.approx(
            4 * (x * x + y * y) * fld.value_at(p), rel=1e-11, abs=1e-13
        )


# ---------------------------------------------------------------------------
# Finite differences against closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fd_gradient_matches_closed(kind):
    fld = model_field(kind)
    for p in random_points(30):
        x, y, u, v = p.reals
        fd = np.array(fd_gradient_arrays(fld.value, x, y, u, v, 1e-4))
        assert np.allclose(fd, fld.gradient(x, y, u, v), atol=1e-6)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fd_levi_matches_closed(kind):
    fld = model_field(kind)
    for p in random_points(30):
        fd = fd_levi_arrays(fld.value, *p.reals, 1e-4)[2]
        for got, want in zip(fd, fld.levi(*p.reals)):
            assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_value_only_field_falls_back_to_fd(kind):
    bare = model_field(kind, with_jets=False)
    full = model_field(kind)
    assert not bare.has_jets and full.has_jets
    for p in random_points(10):
        lazy_value, lazy_grad, lazy_levi = sweeps._field_jets(bare, *p.reals)
        value, grad, closed_levi = sweeps._field_jets(full, *p.reals)
        assert lazy_value == value
        assert np.allclose(lazy_grad, grad, atol=1e-5)
        for got, want in zip(lazy_levi, closed_levi):
            assert got == pytest.approx(want, abs=1e-5)


def test_nonfinite_field_data_raises():
    blowup = ScalarField("pole", lambda x, y, u, v: np.inf)
    with pytest.raises(GeometryError):
        blowup.value_at(PointC2.from_reals(0, 0, 0, 0))
    bad_grad = ScalarField(
        "nan-grad",
        lambda x, y, u, v: x * x,
        gradient=lambda x, y, u, v: (np.nan, 0.0, 0.0, 0.0),
    )
    with pytest.raises(GeometryError, match="gradient of nan-grad non-finite"):
        flow_to_surface(bad_grad, PointC2.from_reals(1, 0, 0, 0))


def test_model_field_unknown_kind():
    with pytest.raises(GeometryError):
        model_field("Parabolic")


# ---------------------------------------------------------------------------
# Determinant identity
# ---------------------------------------------------------------------------


def test_det_identity_at_random_points():
    for p in random_points(50):
        cert = det_identity_check(p)
        assert cert.passed
        assert cert.rule == RULE_DET_IDENTITY


def test_det_identity_on_degenerate_lines():
    # w = i z and w = -i z, where the determinant vanishes exactly
    for x, y in RNG.uniform(-1, 1, (10, 2)):
        for s in (+1, -1):
            p = PointC2.from_reals(x, y, -s * y, s * x)
            assert det_identity_check(p).passed
            a11, a22, a12 = levi(MODEL_DOUBLE_POINT, p)
            assert a11 * a22 - abs(a12) ** 2 == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def test_point_round_trip():
    p = PointC2.from_reals(0.5, -0.25, 1.0, 2.0)
    assert p.reals == (0.5, -0.25, 1.0, 2.0)
    assert p.to_json() == [0.5, -0.25, 1.0, 2.0]
    assert PointC2.from_reals(*p.reals) == p


def test_box_validation_and_containment():
    with pytest.raises(GeometryError):
        Box4((0, 0, 0, 0), (1, 1, 0, 1))
    box = Box4.symmetric(1.0)
    assert box.contains(PointC2.from_reals(1, -1, 0, 0.5))
    assert not box.contains(PointC2.from_reals(1.0001, 0, 0, 0))
    with pytest.raises(GeometryError):
        box.axes(0.0)


def test_grid_chunks_cover_the_box_in_order():
    box = Box4.symmetric(0.5)
    full = [np.concatenate(parts) for parts in
            zip(*grid_chunks(box, 0.5, chunk=10 ** 9))]
    assert full[0].size == 3 ** 4
    pieces = list(grid_chunks(box, 0.5, chunk=10))
    assert all(part[0].size <= 10 for part in pieces)
    stitched = [np.concatenate(axis) for axis in zip(*pieces)]
    for whole, rebuilt in zip(full, stitched):
        assert np.array_equal(whole, rebuilt)
    # every axis hits both endpoints
    assert set(np.unique(full[0])) == {-0.5, 0.0, 0.5}


def test_eigmin_arrays_matches_scalar_forms():
    a11 = RNG.uniform(-2, 2, 64)
    a22 = RNG.uniform(-2, 2, 64)
    a12 = RNG.uniform(-2, 2, 64) + 1j * RNG.uniform(-2, 2, 64)
    vec = eigmin_arrays(a11, a22, a12)
    for k in range(64):
        lo, hi = eigenvalues(float(a11[k]), float(a22[k]), complex(a12[k]))
        assert lo <= hi and vec[k] == pytest.approx(lo, abs=1e-12)


# ---------------------------------------------------------------------------
# Plurisubharmonicity sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_models_certified_psh_on_coarse_grid(kind):
    cert = psh_certificate(model_field(kind), Box4.symmetric(1.0), 0.25, 1e-9)
    assert cert.passed
    assert cert.rule == RULE_LEVI_PSH
    labels = {w.point[0] for w in cert.witnesses}
    assert labels == {"levi_min", "grad_min"}
    eig_witness = next(w for w in cert.witnesses if w.point[0] == "levi_min")
    assert eig_witness.value >= 0.0
    assert len(eig_witness.point) == 5


def test_concave_field_fails_levi_sweep():
    cap = ScalarField("cap", lambda x, y, u, v: -(x * x + y * y + u * u + v * v))
    cert = psh_certificate(cap, Box4.symmetric(0.5), 0.5, 1e-9)
    assert not cert.passed
    eig_witness = next(w for w in cert.witnesses if w.point[0] == "levi_min")
    assert eig_witness.value == pytest.approx(-1.0, abs=1e-5)


def test_vanishing_gradient_off_surface_fails_sweep():
    ridge = ScalarField("ridge", lambda x, y, u, v: 1.0 + x * x)
    cert = psh_certificate(ridge, Box4.symmetric(0.5), 0.5, 1e-9)
    assert not cert.passed
    grad_witness = next(w for w in cert.witnesses if w.point[0] == "grad_min")
    assert grad_witness.value == pytest.approx(0.0, abs=1e-12)
    assert grad_witness.point[1] == 0.0  # minimizer sits on the x = 0 slice
