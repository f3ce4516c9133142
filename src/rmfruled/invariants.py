"""Base-curve-on-surface invariants: geodesic curvature, normal curvature,
geodesic torsion, and line-of-curvature residuals.

Two geodesic-torsion quantities are computed side by side, because they
disagree in general:

* ``geodesic_torsion`` -- the closed form < N x N', T' >, which factors
  exactly as -k_g * k_n; its zero set gives the tan(2 theta) condition.
* ``curvature_line_residual_*`` -- the Rodrigues criterion < N', N x T >,
  whose zero set is the standard line-of-curvature condition.

Every closed form here has a finite-difference oracle in this module that
differences surface normals and the curve's unit tangent, reading T and |r'|
at s and s +- h from the surface's cached frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import EPS_REG
from .errors import GeometryError, TangentRuling, ZeroDirector
from .frame import frame_angular_velocity
from .ruled import FD_STEP, RuledSurface

# Closed-form residuals are exact identities; finite-difference-backed
# checks live in a separate error regime.
TOL_CLOSED = 1e-9
TOL_FD = 1e-5


def _ruling_weight2(x2: float, x3: float) -> float:
    """x2^2 + x3^2; raises where the ruling is tangent to the base curve."""
    w2 = x2 * x2 + x3 * x3
    if w2 <= EPS_REG ** 2:
        raise TangentRuling("x2 = x3 = 0: ruling is tangent to the base curve")
    return w2


def condition_residuals(x2: float, x3: float, theta: float):
    """Geodesic, asymptotic and tan(2 theta) residuals, as in BaseCurveSample."""
    c, sn = math.cos(theta), math.sin(theta)
    return (x2 * c - x3 * sn,
            x3 * c + x2 * sn,
            0.5 * math.sin(2 * theta) * (x3 * x3 - x2 * x2)
            - math.cos(2 * theta) * x2 * x3)


def geodesic_curvature(x2: float, x3: float, theta: float, kappa: float) -> float:
    """kappa (x2 cos - x3 sin) / sqrt(x2^2 + x3^2); pointwise in the frame."""
    w = math.sqrt(_ruling_weight2(x2, x3))
    return kappa * condition_residuals(x2, x3, theta)[0] / w


def normal_curvature(x2: float, x3: float, theta: float, kappa: float) -> float:
    """-kappa (x3 cos + x2 sin) / sqrt(x2^2 + x3^2)."""
    w = math.sqrt(_ruling_weight2(x2, x3))
    return -kappa * condition_residuals(x2, x3, theta)[1] / w


def geodesic_torsion(x2: float, x3: float, theta: float, kappa: float) -> float:
    """-kappa^2/(x2^2+x3^2) * (sin(2 theta)(x3^2 - x2^2)/2 - cos(2 theta) x2 x3).

    Algebraically identical to -k_g * k_n.
    """
    w2 = _ruling_weight2(x2, x3)
    return -kappa ** 2 / w2 * condition_residuals(x2, x3, theta)[2]


def curvature_line_residual_closed(surface: RuledSurface, s: float) -> float:
    """Rodrigues residual (x2' x3 - x2 x3')/(x2^2+x3^2) - phi, per arc length.

    Zero along the whole curve iff the base curve is a line of curvature in
    the standard sense.  phi is the frame's normal-plane rotation rate.
    """
    fd, af = surface.frame(s)
    _, j2, j3 = surface.coefficients(s)
    x2, x3 = j2.value, j3.value
    w2 = _ruling_weight2(x2, x3)
    p2, p3 = j2.d1 / fd.speed, j3.d1 / fd.speed
    phi = frame_angular_velocity(fd, af)
    return (p2 * x3 - x2 * p3) / w2 - phi


# ---------------------------------------------------------------------------
# finite-difference oracles (surface normals and the unit tangent only)


def _arc_derivative(surface: RuledSurface, s: float, f):
    """(f(s), d f/ds per arc length) by a central difference of step FD_STEP."""
    h = FD_STEP
    return f(s), (f(s + h) - f(s - h)) / (2 * h) / surface.frame(s)[0].speed


def _tangent_arc_derivative(surface: RuledSurface, s: float):
    return _arc_derivative(surface, s, lambda t: surface.frame(t)[0].T)


def _normal_arc_derivative(surface: RuledSurface, s: float):
    return _arc_derivative(surface, s, lambda t: surface.normal(t, 0.0))


def geodesic_curvature_numeric(surface: RuledSurface, s: float) -> float:
    """< N x T, T' > with a finite-difference tangent derivative."""
    n = surface.normal(s, 0.0)
    T, Tp = _tangent_arc_derivative(surface, s)
    return float(np.dot(np.cross(n, T), Tp))


def normal_curvature_numeric(surface: RuledSurface, s: float) -> float:
    """< r'', N > with the second arc-length derivative by finite differences."""
    n = surface.normal(s, 0.0)
    _, Tp = _tangent_arc_derivative(surface, s)
    return float(np.dot(Tp, n))


def geodesic_torsion_numeric(surface: RuledSurface, s: float) -> float:
    """< N x N', T' > by finite differences of the v=0 surface normal."""
    n, dn = _normal_arc_derivative(surface, s)
    _, Tp = _tangent_arc_derivative(surface, s)
    return float(np.dot(np.cross(n, dn), Tp))


def curvature_line_residual_numeric(surface: RuledSurface, s: float) -> float:
    """< N', N x T > by finite differences of the v=0 surface normal."""
    n, dn = _normal_arc_derivative(surface, s)
    return float(np.dot(dn, np.cross(n, surface.frame(s)[0].T)))


# ---------------------------------------------------------------------------
# per-curve report


@dataclass(frozen=True)
class BaseCurveSample:
    s: float
    kappa: float
    tau: float
    theta: float
    x1: float
    x2: float
    x3: float
    P: float
    k_g: float
    k_n: float
    tau_g: float
    rho: float  # Rodrigues residual, closed form
    res_geodesic: float  # x2 cos - x3 sin
    res_asymptotic: float  # x3 cos + x2 sin
    res_curvature_line: float  # sin(2t)(x3^2-x2^2)/2 - cos(2t) x2 x3


@dataclass(frozen=True)
class BaseCurveReport:
    samples: list
    is_geodesic: bool
    is_asymptotic: bool
    is_curvature_line_frame: bool  # tan(2 theta) condition
    is_curvature_line_rodrigues: bool
    director_parallel_tangent: bool  # x2 = x3 = 0 identically
    tol: float
    excluded: list = field(default_factory=list)  # s with no frame or x2=x3~0


def base_curve_report(surface: RuledSurface, s_values,
                      tol: float = TOL_CLOSED) -> BaseCurveReport:
    """Evaluate all closed-form invariants and condition residuals on a grid.

    Samples without a Frenet frame (vanishing curvature) or where the ruling
    is momentarily tangent (x2 = x3 = 0) carry NaN invariants and are left
    out of the conditions; if the ruling is tangent at every sample the
    director is parallel to the tangent and no condition applies.  A director
    that vanishes at every sample raises :class:`ZeroDirector`.
    """
    samples = []
    excluded = []
    max_w = max_x = 0.0
    for s in s_values:
        s = float(s)
        j1, j2, j3 = surface.coefficients(s)
        x1, x2, x3 = j1.value, j2.value, j3.value
        w2 = x2 * x2 + x3 * x3
        max_w = max(max_w, w2)
        max_x = max(max_x, abs(x1), abs(x2), abs(x3))
        try:
            fd, af = surface.frame(s)
        except GeometryError:
            excluded.append(s)
            samples.append(BaseCurveSample(s, *[math.nan] * 3, x1, x2, x3,
                                           *[math.nan] * 8))
            continue
        th = af.theta
        try:
            P = surface.distribution_parameter(s)
        except GeometryError:
            P = math.nan
        if w2 <= EPS_REG ** 2:
            excluded.append(s)
            samples.append(BaseCurveSample(s, fd.kappa, fd.tau, th, x1, x2, x3,
                                           P, *[math.nan] * 7))
            continue
        samples.append(BaseCurveSample(
            s, fd.kappa, fd.tau, th, x1, x2, x3, P,
            geodesic_curvature(x2, x3, th, fd.kappa),
            normal_curvature(x2, x3, th, fd.kappa),
            geodesic_torsion(x2, x3, th, fd.kappa),
            curvature_line_residual_closed(surface, s),
            *condition_residuals(x2, x3, th)))
    if samples and max_x <= EPS_REG:
        raise ZeroDirector("x1 = x2 = x3 = 0 at every grid node")

    parallel_tangent = max_w <= EPS_REG ** 2
    skip = set(excluded)

    def holds(name):  # a NaN residual at a used sample fails the condition
        vals = [abs(getattr(r, name)) for r in samples if r.s not in skip]
        return not parallel_tangent and bool(vals) and all(v < tol for v in vals)

    return BaseCurveReport(samples, *map(holds, ("res_geodesic", "res_asymptotic",
                                                 "res_curvature_line", "rho")),
                           parallel_tangent, tol, excluded)
