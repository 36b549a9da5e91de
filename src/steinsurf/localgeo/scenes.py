"""Model exhaustions: one cutoff per model kind and the exhaustion
certificate.

Each model of ``fields.MODEL_KINDS`` (special hyperbolic or double
point) sits at the origin of C^2 with one smooth cutoff, whose interval
``CUTOFFS`` holds by kind: on |z| for the special hyperbolic model, on
|z|^2 + |w|^2 for the double point.  Two scalar fields matter:

* the neighborhood function rho, the model function of the kind,
  vanishing exactly on the model surface and carrying closed-form jets;
* the localization term tau = chi * (|z|^2 + |w|^2), whose cutoff is the
  only place second derivatives of the bump enter.

The exhaustion phi = -log(eps - rho) + delta * tau is certified strongly
plurisubharmonic on {rho < eps} (minus a collar) by assembling its Levi
form analytically:

    L_phi = h' L_rho + h'' (d rho)(d rho)^H + delta L_tau,

with h(t) = -log(eps - t).  Differencing through the log directly would
lose ~(eps - t)^-4 h^2 of precision near the collar, which is why the
chain rule is applied in closed form and the cutoff jets are analytic.

The sweep visits only the grid nodes the model's closed-form fiber bound
admits below L = eps - collar (``sweeps.fiber_chunks``): over each
(x, y) the hyperbolic sublevel set is the disk of radius sqrt(L) around
(u, v) = (x^2 - y^2, -2xy), and over each (x, u) with a = x^2 + u^2 > 0
the double point's lies in |y|, |v| <= sqrt(L / a).  Each window is
widened by one node on each side and the candidates come in row-major
blocks, so the mask rho < L keeps the same nodes, in the same order, as
a sweep of the whole grid would, and the certificate is the same.
"""

from __future__ import annotations

import math

import numpy as np

from ..certificates import Certificate, RULE_EXHAUSTION, Witness
from ..errors import GeometryError
from .fields import MODEL_DOUBLE_POINT, MODEL_SPECIAL_HYPERBOLIC, model_field
from .geometry import Box4, eigmin_arrays
from .sweeps import fiber_chunks, first_minimum, require_finite_levi

# Cutoff interval (chi = 1 below, 0 above) of each model kind: on |z| for
# the special hyperbolic model, on |z|^2 + |w|^2 for the double point.
CUTOFFS = {MODEL_SPECIAL_HYPERBOLIC: (0.25, 0.375), MODEL_DOUBLE_POINT: (0.25, 0.75)}


# ---------------------------------------------------------------------------
# Smooth bump with analytic first and second derivatives
# ---------------------------------------------------------------------------


def _exp_piece(s):
    """exp(-1/s) continued by 0 for s <= 0, vectorized and overflow-safe."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def bump_jets(sigma):
    """The standard smooth step g and its first two derivatives.

    g = f(sigma) / (f(sigma) + f(1 - sigma)) with f(s) = exp(-1/s); g is
    0 for sigma <= 0, 1 for sigma >= 1, and strictly increasing between.
    """
    sigma = np.asarray(sigma, dtype=float)
    f1 = _exp_piece(sigma)
    f2 = _exp_piece(1.0 - sigma)
    den = f1 + f2
    g = np.where(sigma <= 0, 0.0, np.where(sigma >= 1, 1.0, f1 / np.where(den > 0, den, 1.0)))

    interior = (f1 > 0) & (f2 > 0)
    g1 = np.zeros_like(g)
    g2 = np.zeros_like(g)
    if np.any(interior):
        s = sigma[interior]
        a = f1[interior]
        b = f2[interior]
        d = a + b
        inv_s2 = s**-2.0
        inv_r2 = (1.0 - s) ** -2.0
        q = inv_s2 + inv_r2
        gp = a * b * q / (d * d)
        qp = -2.0 * s**-3.0 + 2.0 * (1.0 - s) ** -3.0
        log_deriv = inv_s2 - inv_r2 + qp / q - 2.0 * (a * inv_s2 - b * inv_r2) / d
        g1[interior] = gp
        g2[interior] = gp * log_deriv
    return g, g1, g2


def cutoff_jets(c, lo: float, hi: float):
    """chi(c) with chi = 1 for c <= lo and 0 for c >= hi, plus chi', chi''."""
    k = 1.0 / (hi - lo)
    g, g1, g2 = bump_jets((np.asarray(c, dtype=float) - lo) * k)
    return 1.0 - g, -g1 * k, -g2 * k * k


# ---------------------------------------------------------------------------
# The localization term tau and its closed-form Levi data
# ---------------------------------------------------------------------------


def tau_jets(kind: str, x, y, u, v):
    """Levi entries (t11, t22, t12) of the term chi(c) * (|z|^2 + |w|^2)
    of model ``kind``, with the cutoff interval CUTOFFS[kind]."""
    zbar = np.conj(x + 1j * y)
    w = u + 1j * v
    q = (x * x + y * y) + (u * u + v * v)

    if kind == MODEL_SPECIAL_HYPERBOLIC:
        # c = |z|: chi_z = chi' zbar / (2c); the annulus excludes c = 0,
        # where chi is locally constant and every chi-derivative vanishes.
        c = np.sqrt(x * x + y * y)
        chi, chi1, chi2 = cutoff_jets(c, *CUTOFFS[kind])
        safe_c = np.where(c > 0, c, 1.0)
        chi_z = chi1 * zbar / (2.0 * safe_c)
        chi_zz = chi2 / 4.0 + chi1 / (4.0 * safe_c)
        t11 = chi_zz * q + chi1 * c + chi
        t22 = chi + np.zeros_like(q)
        t12 = chi_z * w
    else:
        # c = |z|^2 + |w|^2: chi_z = chi' zbar, etc.  Summed left to right,
        # not as q, whose grouping rounds differently.
        chi, chi1, chi2 = cutoff_jets(x * x + y * y + u * u + v * v, *CUTOFFS[kind])
        t11 = (chi2 * (x * x + y * y) + chi1) * q + 2.0 * chi1 * (x * x + y * y) + chi
        t22 = (chi2 * (u * u + v * v) + chi1) * q + 2.0 * chi1 * (u * u + v * v) + chi
        t12 = chi2 * zbar * w * q + 2.0 * chi1 * zbar * w

    return t11, t22, t12


# ---------------------------------------------------------------------------
# Exhaustion certificate
# ---------------------------------------------------------------------------


def exhaustion_certificate(
    kind: str,
    epsilon: float,
    delta: float,
    grid_step: float,
    collar: float | None = None,
    box: Box4 | None = None,
) -> Certificate:
    """Certify phi = -log(eps - rho) + delta * tau strongly psh for the
    model ``kind``.

    Sweeps the grid points of ``box`` with rho < eps - collar, found
    among the candidates of the model's fiber bound, and checks that the
    smallest eigenvalue of the analytically assembled Levi form of phi
    is strictly positive.  The collar (default eps/10) keeps the
    log factor h' = 1/(eps - rho) bounded, so the certificate margin is
    meaningful; the sublevel set beyond the collar retracts inward along
    rho in any case.
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not math.isfinite(value):
            raise GeometryError(f"{name} must be finite, got {value}")
    if epsilon <= 0:
        raise GeometryError(f"epsilon must be positive, got {epsilon}")
    if delta <= 0:
        raise GeometryError(f"delta must be positive, got {delta}")
    if collar is None and not 0.1 * epsilon > 0:
        raise GeometryError(f"epsilon {epsilon} is too small: its collar epsilon/10 rounds to 0")
    collar = 0.1 * epsilon if collar is None else collar
    if not 0 < collar < epsilon:
        raise GeometryError(f"collar must lie in (0, epsilon), got {collar}")
    box = Box4.symmetric(1.0) if box is None else box
    rho = model_field(kind)
    level = epsilon - collar

    best = (np.inf, None)
    n_masked = 0
    for x, y, u, v in fiber_chunks(box, grid_step, rho.fiber, level):
        val = np.asarray(rho.value(x, y, u, v), dtype=float)
        mask = val < level
        if not np.any(mask):
            continue
        n_masked += int(np.count_nonzero(mask))
        xs, ys, us, vs = x[mask], y[mask], u[mask], v[mask]
        t = val[mask]
        gx, gy, gu, gv = rho.gradient(xs, ys, us, vs)
        rho_z = 0.5 * (gx - 1j * gy)
        rho_w = 0.5 * (gu - 1j * gv)
        r11, r22, r12 = rho.levi(xs, ys, us, vs)
        t11, t22, t12 = tau_jets(kind, xs, ys, us, vs)
        # An extreme eps or delta overflows here; the check below refuses it.
        with np.errstate(all="ignore"):
            h1 = 1.0 / (epsilon - t)
            h2 = h1 * h1
            a11 = h1 * r11 + h2 * np.abs(rho_z) ** 2 + delta * t11
            a22 = h1 * r22 + h2 * np.abs(rho_w) ** 2 + delta * t22
            a12 = h1 * r12 + h2 * rho_z * np.conj(rho_w) + delta * t12
            eig = eigmin_arrays(a11, a22, a12)
        require_finite_levi(eig, rho.name, xs, ys, us, vs)
        best = first_minimum(best, eig, xs, ys, us, vs)

    value, at = best
    if at is None:
        raise GeometryError(
            f"no grid points with rho < {level}; refine the grid"
        )
    witnesses = (
        Witness(["phi_levi_min", *at], value),
        Witness("masked_points", n_masked),
    )
    return Certificate(value > 0, RULE_EXHAUSTION, witnesses)
