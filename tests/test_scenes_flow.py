"""Tests for scene assembly, the localization term, the exhaustion
certificate, and gradient descent onto the model surfaces."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinsurf import scenario
from steinsurf.certificates import RULE_EXHAUSTION
from steinsurf.errors import GeometryError
from steinsurf.localgeo import (
    Box4,
    ModelChart,
    PointC2,
    ScalarField,
    bump_jets,
    cutoff_jets,
    double_point_scene,
    exhaustion_certificate,
    fd_levi_arrays,
    flow_to_surface,
    model_field,
    special_hyperbolic_scene,
    tau_jets,
)
from steinsurf.localgeo import flow
from steinsurf.localgeo.fields import MODEL_DOUBLE_POINT, MODEL_KINDS, MODEL_SPECIAL_HYPERBOLIC
from steinsurf.localgeo.scenes import DOUBLE_CUTOFF, HYPERBOLIC_CUTOFF


# ---------------------------------------------------------------------------
# Smooth step and cutoff
# ---------------------------------------------------------------------------


def test_bump_endpoints_and_symmetry():
    g, g1, g2 = bump_jets(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert list(g) == [0.0, 0.0, 0.5, 1.0, 1.0]
    assert list(g1[[0, 1, 3, 4]]) == [0.0] * 4
    assert list(g2[[0, 1, 3, 4]]) == [0.0] * 4
    sigma = np.linspace(0.05, 0.95, 19)
    g, g1, g2 = bump_jets(sigma)
    gr, g1r, g2r = bump_jets(1.0 - sigma)
    assert np.allclose(g + gr, 1.0, atol=1e-15)
    assert np.all(g1 > 0)
    assert np.allclose(g1, g1r, atol=1e-15)
    assert np.allclose(g2, -g2r, atol=1e-12)


def test_bump_derivatives_match_finite_differences():
    sigma = np.linspace(0.08, 0.92, 43)
    h = 1e-6
    g, g1, g2 = bump_jets(sigma)
    g_plus, g1_plus, _ = bump_jets(sigma + h)
    g_minus, g1_minus, _ = bump_jets(sigma - h)
    assert np.allclose((g_plus - g_minus) / (2 * h), g1, atol=1e-6)
    assert np.allclose((g1_plus - g1_minus) / (2 * h), g2, atol=1e-4)


def test_cutoff_plateaus_and_slope():
    chi, chi1, chi2 = cutoff_jets(np.array([0.0, 0.25, 0.75, 0.9]), 0.25, 0.75)
    assert chi[0] == chi[1] == 1.0
    assert chi[2] == chi[3] == 0.0
    mid, slope, _ = cutoff_jets(0.5, 0.25, 0.75)
    assert mid == pytest.approx(0.5)
    assert slope < 0
    with pytest.raises(GeometryError):
        cutoff_jets(0.5, 0.75, 0.25)


# ---------------------------------------------------------------------------
# Charts and scene validation
# ---------------------------------------------------------------------------


def test_chart_validation_and_cutoff_intervals():
    with pytest.raises(GeometryError):
        ModelChart("Cusp", 1.0)
    with pytest.raises(GeometryError):
        ModelChart(MODEL_DOUBLE_POINT, 0.0)
    hyp = ModelChart(MODEL_SPECIAL_HYPERBOLIC, 2.0)
    assert hyp.cutoff_interval() == (
        HYPERBOLIC_CUTOFF[0] * 2.0,
        HYPERBOLIC_CUTOFF[1] * 2.0,
    )
    dbl = ModelChart(MODEL_DOUBLE_POINT, 2.0)
    assert dbl.cutoff_interval() == DOUBLE_CUTOFF


def test_single_chart_scene_is_the_model_field():
    """The exhaustion's rho is the chart's model field: it masks exactly
    the grid nodes where the model lies below eps - collar."""
    box = Box4.symmetric(0.5)
    x, y, u, v = np.meshgrid(*box.axes(0.1), indexing="ij")
    for scene in (special_hyperbolic_scene(), double_point_scene()):
        model = model_field(scene.kind)
        below = np.count_nonzero(model.value(x, y, u, v) < 0.01 - 0.1 * 0.01)
        cert = exhaustion_certificate(scene, 0.01, 1e-3, 0.1, box=box)
        assert 0 < cert.witnesses[1].value == below < x.size


# ---------------------------------------------------------------------------
# The localization term
# ---------------------------------------------------------------------------


def _tau_field(chart):
    """tau = chi(c) * (|z|^2 + |w|^2) as a ScalarField: its value and
    gradient are written out here as the reference, its Levi entries are
    tau_jets, so the field's finite differences cross-check them."""

    def jets(x, y, u, v):
        q = (x * x + y * y) + (u * u + v * v)
        c = chart.cutoff_argument(x, y, u, v)
        return q, c, *cutoff_jets(c, *chart.cutoff_interval())

    def value(x, y, u, v):
        q, _, chi, _, _ = jets(x, y, u, v)
        return chi * q

    def gradient(x, y, u, v):
        # grad tau = chi grad q + q chi'(c) grad c, with grad q = 2 (x, y, u, v)
        # and grad c = (x, y, 0, 0) / c (hyperbolic, c = |z|) or grad q.
        q, c, chi, chi1, _ = jets(x, y, u, v)
        if chart.kind == MODEL_SPECIAL_HYPERBOLIC:
            grad_c = (x / c, y / c, 0.0, 0.0)
        else:
            grad_c = (2 * x, 2 * y, 2 * u, 2 * v)
        return tuple(2 * chi * a + q * chi1 * g for a, g in zip((x, y, u, v), grad_c))

    def levi(x, y, u, v):
        return tau_jets(chart, x, y, u, v)

    return ScalarField(name="SceneTau", value=value, gradient=gradient, levi=levi)


def test_tau_value_plateaus():
    scene = special_hyperbolic_scene(radius=0.5)
    tau = _tau_field(scene)
    inner = PointC2.from_reals(0.1, 0.05, 0.3, 0.2)
    assert math.hypot(0.1, 0.05) < 0.25
    assert tau.value_at(inner) == pytest.approx(sum(c * c for c in inner.reals))
    outer = PointC2.from_reals(0.5, 0.0, 0.1, 0.0)
    assert tau.value_at(outer) == 0.0


@pytest.mark.parametrize(
    "scene,samples",
    [
        (
            special_hyperbolic_scene(radius=4.0),
            [(2.2, 0.3, 0.4, 0.1), (2.8, -0.5, 0.2, 0.6), (1.4, 0.9, -0.3, 0.2)],
        ),
        (
            double_point_scene(),
            [(0.4, 0.3, 0.2, 0.1), (0.55, 0.35, 0.45, 0.15), (0.3, 0.2, 0.1, 0.6)],
        ),
    ],
)
def test_tau_jets_match_finite_differences(scene, samples):
    tau = _tau_field(scene)
    for coords in samples:
        p = PointC2.from_reals(*coords)
        x, y, u, v = coords
        h = 1e-4
        fd_grad = [
            (tau.value(*(np.add(coords, dc * h))) - tau.value(*(np.subtract(coords, dc * h))))
            / (2 * h)
            for dc in np.eye(4)
        ]
        assert np.allclose(tau.gradient(x, y, u, v), fd_grad, atol=1e-5)
        fd = fd_levi_arrays(tau.value, x, y, u, v, h)[2]
        for got, want in zip(fd, tau.levi(x, y, u, v)):
            assert got == pytest.approx(want, abs=1e-3)


# ---------------------------------------------------------------------------
# Exhaustion certificates
# ---------------------------------------------------------------------------


def test_exhaustion_validation():
    scene = double_point_scene()
    with pytest.raises(GeometryError):
        exhaustion_certificate(scene, 0.0, 1e-3, 0.25)
    with pytest.raises(GeometryError):
        exhaustion_certificate(scene, 0.01, 0.0, 0.25)
    with pytest.raises(GeometryError):
        exhaustion_certificate(scene, 0.01, 1e-3, 0.25, collar=0.02)


def test_exhaustion_needs_points_near_the_surface():
    off_surface_box = Box4((0.3, 0.3, 0.3, 0.3), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(GeometryError):
        exhaustion_certificate(double_point_scene(), 1e-9, 1e-3, 0.5, box=off_surface_box)


@pytest.mark.parametrize(
    "scene", [special_hyperbolic_scene(), double_point_scene()], ids=["hyp", "dbl"]
)
def test_exhaustion_passes_with_small_weight(scene):
    cert = exhaustion_certificate(scene, 0.01, 1e-3, grid_step=0.1)
    assert cert.passed
    assert cert.rule == RULE_EXHAUSTION
    eig, masked = cert.witnesses
    assert eig.point[0] == "phi_levi_min"
    assert eig.value > 0
    assert masked.point == "masked_points"
    assert masked.value > 0


@pytest.mark.parametrize(
    "scene", [special_hyperbolic_scene(), double_point_scene()], ids=["hyp", "dbl"]
)
def test_exhaustion_fails_with_large_weight_in_the_annulus(scene):
    cert = exhaustion_certificate(scene, 0.01, 10.0, grid_step=0.1)
    assert not cert.passed
    eig = cert.witnesses[0]
    assert eig.value < 0
    c = scene.cutoff_argument(*eig.point[1:])
    lo, hi = scene.cutoff_interval()
    assert lo < c < hi  # the negative curvature comes from the cutoff annulus


def test_exhaustion_margin_at_the_double_point_is_the_weight():
    """At the origin rho and its gradient and Levi form vanish and tau is
    |z|^2 + |w|^2, so the assembled Levi form there is exactly delta * I."""
    cert = exhaustion_certificate(double_point_scene(), 0.01, 1e-3, 0.01,
                                  box=Box4.symmetric(0.01))
    assert cert.passed
    eig, masked = cert.witnesses
    assert eig.point == ["phi_levi_min", 0.0, 0.0, 0.0, 0.0]
    assert eig.value == pytest.approx(1e-3, rel=1e-12)
    assert masked.value == 3 ** 4


# ---------------------------------------------------------------------------
# Gradient descent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [MODEL_SPECIAL_HYPERBOLIC, MODEL_DOUBLE_POINT])
def test_flow_reaches_the_surface_monotonically(kind):
    fld = model_field(kind)
    result = flow_to_surface(fld, PointC2.from_reals(0.3, -0.2, 0.25, 0.1))
    assert result.converged
    assert result.final_value <= 1e-10
    diffs = np.diff(result.values)
    assert np.all(diffs < 0)


def test_flow_evaluates_the_field_once_per_attempted_step():
    """Every RK4 attempt makes four gradient calls and, inside the box, one
    value call; an accepted step reuses that value instead of a second."""
    base = model_field(MODEL_SPECIAL_HYPERBOLIC)
    calls = {"value": 0, "gradient": 0}

    def counted(kind, fn):
        def wrapped(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapped

    fld = dataclasses.replace(base, value=counted("value", base.value),
                              gradient=counted("gradient", base.gradient))
    start = PointC2.from_reals(0.5, 0.4, 0.3, 0.2)
    result = flow_to_surface(fld, start)
    attempts, rest = divmod(calls["gradient"], 4)
    assert rest == 0
    assert attempts > len(result.trajectory) - 1 > 0  # some steps were rejected
    assert calls["value"] == 1 + attempts
    assert result == flow_to_surface(base, start)


def _reference_descent(field, coords):
    x, y, u, v = PointC2.from_reals(*coords).reals
    g = np.array(field.gradient(x, y, u, v), dtype=float)
    if not np.all(np.isfinite(g)):
        raise GeometryError(f"gradient of {field.name} non-finite at {(x, y, u, v)}")
    return -g.reshape(4)


def _reference_flow(field, start, step=0.05, max_iters=5000):
    """The numpy-vector RK4 stepper with a PointC2 per stage, the reference
    the float stepper must match bit for bit."""
    box = Box4.symmetric(2.0)
    coords = np.array(start.reals, dtype=float)
    value = float(field.value_at(start))
    trajectory, values = [start], [value]
    dt = step
    converged = value <= flow.CONVERGED_VALUE
    for _ in range(max_iters):
        if converged:
            break
        k1 = _reference_descent(field, coords)
        k2 = _reference_descent(field, coords + 0.5 * dt * k1)
        k3 = _reference_descent(field, coords + 0.5 * dt * k2)
        k4 = _reference_descent(field, coords + dt * k3)
        candidate = coords + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        point = PointC2.from_reals(*candidate)
        inside = box.contains(point)
        new_value = float(field.value_at(point)) if inside else None
        if not inside or new_value >= value:
            dt *= 0.5
            if dt < flow._MIN_STEP:
                if not inside:
                    raise GeometryError("escaped")
                break
            continue
        coords, value = candidate, new_value
        trajectory.append(point)
        values.append(value)
        dt *= flow._GROWTH
        converged = value <= flow.CONVERGED_VALUE
    return flow.FlowResult(tuple(trajectory), tuple(values), value, converged)


def _reference_sample(field, rng, level, half_width):
    """The PointC2-per-trial start sampler the suite used before."""
    for _ in range(100000):
        p = PointC2.from_reals(*rng.uniform(-half_width, half_width, size=4))
        if float(field.value_at(p)) < level:
            return p
    raise AssertionError("no start below the level")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.floats(1e-3, 0.05))
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float_flow_is_bit_identical_to_the_numpy_stepper(kind, seed, level):
    fld = model_field(kind)
    start = _reference_sample(fld, np.random.default_rng(seed), level, 0.6)
    result, expected = flow_to_surface(fld, start), _reference_flow(fld, start)
    assert result == expected
    assert repr(result) == repr(expected)  # signed zeros too


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_sampler_draws_the_starts_of_the_pointc2_sampler(kind):
    fld = model_field(kind)
    for seed in range(5):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = itertools.repeat(None, scenario.MAX_FLOW_DRAWS)
        for _ in range(20):
            start = scenario._sample_sublevel(fld, new, 0.01, 0.6, draws)
            assert start == _reference_sample(fld, old, 0.01, 0.6)


def test_flow_from_the_surface_is_immediate():
    fld = model_field(MODEL_DOUBLE_POINT)
    result = flow_to_surface(fld, PointC2.from_reals(0.5, 0.0, 0.25, 0.0))
    assert result.converged
    assert len(result.trajectory) == 1


def test_flow_near_diagonal_needs_growing_steps():
    """Starts near the line |z| = |w| converge only algebraically; the
    adaptive controller must stretch its step budget to finish."""
    fld = model_field(MODEL_DOUBLE_POINT)
    result = flow_to_surface(fld, PointC2.from_reals(0.09, 0.09, 0.0, 0.0))
    assert result.converged
    assert len(result.trajectory) < 200


def test_flow_parameter_validation():
    fld = model_field(MODEL_DOUBLE_POINT)
    inside = PointC2.from_reals(0.1, 0.2, 0.0, 0.0)
    with pytest.raises(GeometryError):
        flow_to_surface(fld, inside, step=0.0)
    with pytest.raises(GeometryError):
        flow_to_surface(fld, PointC2.from_reals(3.0, 0, 0, 0))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_flow_refuses_a_field_without_a_closed_gradient(kind):
    fld = model_field(kind, with_jets=False)
    calls = []

    def value(*coords):
        calls.append(coords)
        return fld.value(*coords)

    bare = dataclasses.replace(fld, value=value)
    with pytest.raises(GeometryError, match=f"field {kind} has no closed-form gradient"):
        flow_to_surface(bare, PointC2.from_reals(0.3, -0.2, 0.25, 0.1))
    assert calls == []  # refused before the first evaluation


def test_flow_escaping_the_box_raises():
    drain = ScalarField(
        "drain",
        lambda x, y, u, v: (x - 5.0) ** 2,
        gradient=lambda x, y, u, v: (2.0 * (x - 5.0), 0.0, 0.0, 0.0),
    )
    with pytest.raises(GeometryError):
        flow_to_surface(drain, PointC2.from_reals(2.0, 0.0, 0.0, 0.0))


def test_flow_iteration_budget():
    fld = model_field(MODEL_DOUBLE_POINT)
    result = flow_to_surface(fld, PointC2.from_reals(0.09, 0.09, 0.0, 0.0), max_iters=3)
    assert not result.converged
    assert result.final_value > 1e-10
    assert len(result.values) <= 4
