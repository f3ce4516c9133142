"""Base-curve-on-surface invariants: geodesic curvature, normal curvature,
geodesic torsion, and line-of-curvature residuals.

Two geodesic-torsion quantities are computed side by side, because they
disagree in general:

* ``geodesic_torsion`` -- the closed form < N x N', T' >, which factors
  exactly as -k_g * k_n; its zero set gives the tan(2 theta) condition.
* ``curvature_line_residual_*`` -- the Rodrigues criterion < N', N x T >,
  whose zero set is the standard line-of-curvature condition.

Every closed form here has a finite-difference oracle in this module that
differences base-curve normals and unit tangents at s and s +- h
(:func:`oracle_grids`), each grid's read from the surface's per-grid caches.
Invariants and oracles take floats or 1-D grids, under the float path of
:mod:`rmfruled.ruled`.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .curve import EPS_REG, _guard, _per_sample, vec_cross, vec_dot
from .errors import GeometryError, TangentRuling
from .frame import _cos_sin, frame_angular_velocity
from .record import Record
from .ruled import FD_STEP, RuledSurface, _director_scale

# Closed-form residuals are exact identities; finite-difference-backed
# checks live in a separate error regime.
TOL_CLOSED = 1e-9
TOL_FD = 1e-5


def _ruling_weight2(x2, x3):
    """x2^2 + x3^2; raises where the ruling is tangent to the base curve."""
    w2 = x2 * x2 + x3 * x3
    return _guard(w2, w2 <= EPS_REG ** 2, lambda: TangentRuling(
        "x2 = x3 = 0: ruling is tangent to the base curve"))


def condition_residuals(x2, x3, theta):
    """Geodesic, asymptotic and tan(2 theta) residuals (the ``res_*`` columns)."""
    c, sn = _cos_sin(theta)
    c2, s2 = _cos_sin(2 * theta)
    return (x2 * c - x3 * sn,
            x3 * c + x2 * sn,
            0.5 * s2 * (x3 * x3 - x2 * x2) - c2 * x2 * x3)


def geodesic_curvature(x2, x3, theta, kappa):
    """kappa (x2 cos - x3 sin) / sqrt(x2^2 + x3^2); pointwise in the frame."""
    w = ex._apply(math.sqrt, _ruling_weight2(x2, x3))
    return kappa * condition_residuals(x2, x3, theta)[0] / w


def normal_curvature(x2, x3, theta, kappa):
    """-kappa (x3 cos + x2 sin) / sqrt(x2^2 + x3^2)."""
    w = ex._apply(math.sqrt, _ruling_weight2(x2, x3))
    return -kappa * condition_residuals(x2, x3, theta)[1] / w


def geodesic_torsion(x2, x3, theta, kappa):
    """-kappa^2/(x2^2+x3^2) * (sin(2 theta)(x3^2 - x2^2)/2 - cos(2 theta) x2 x3).

    Algebraically identical to -k_g * k_n.
    """
    w2 = _ruling_weight2(x2, x3)
    return -ex.power(kappa, 2) / w2 * condition_residuals(x2, x3, theta)[2]


def curvature_line_residual_closed(surface: RuledSurface, s):
    """Rodrigues residual (x2' x3 - x2 x3')/(x2^2+x3^2) - phi, per arc length.

    Zero along the whole curve iff the base curve is a line of curvature in
    the standard sense.  phi is the frame's normal-plane rotation rate.
    """
    fd, af = surface.frame(s)
    (_, j2, j3), _, _ = surface._row(s)
    x2, x3 = j2.value, j3.value
    w2 = _ruling_weight2(x2, x3)
    p2, p3 = j2.d1 / fd.speed, j3.d1 / fd.speed
    phi = frame_angular_velocity(fd, af)
    return (p2 * x3 - x2 * p3) / w2 - phi


# ---------------------------------------------------------------------------
# finite-difference oracles (surface normals and the unit tangent only)


def oracle_grids(s) -> tuple:
    """(s, s + h, s - h): where the oracles at s evaluate frames and normals."""
    return s, s + FD_STEP, s - FD_STEP


def _arc_derivative(surface: RuledSurface, s, f):
    """(f(s), d f/ds per arc length) by a central difference of step FD_STEP."""
    speed = _per_sample(surface.frame(s)[0].speed)
    at_s, ahead, behind = map(f, oracle_grids(s))
    return at_s, (ahead - behind) / (2 * FD_STEP) / speed


def _tangent_arc_derivative(surface: RuledSurface, s):
    return _arc_derivative(surface, s, lambda t: surface.frame(t)[0].T)


def geodesic_curvature_numeric(surface: RuledSurface, s):
    """< N x T, T' > with a finite-difference tangent derivative."""
    n = surface.base_normal(s)
    T, Tp = _tangent_arc_derivative(surface, s)
    return vec_dot(vec_cross(n, T), Tp)


def normal_curvature_numeric(surface: RuledSurface, s):
    """< r'', N > with the second arc-length derivative by finite differences."""
    n = surface.base_normal(s)
    _, Tp = _tangent_arc_derivative(surface, s)
    return vec_dot(Tp, n)


def geodesic_torsion_numeric(surface: RuledSurface, s):
    """< N x N', T' > by finite differences of the v=0 surface normal."""
    n, dn = _arc_derivative(surface, s, surface.base_normal)
    _, Tp = _tangent_arc_derivative(surface, s)
    return vec_dot(vec_cross(n, dn), Tp)


def curvature_line_residual_numeric(surface: RuledSurface, s):
    """< N', N x T > by finite differences of the v=0 surface normal."""
    n, dn = _arc_derivative(surface, s, surface.base_normal)
    return vec_dot(dn, vec_cross(n, surface.frame(s)[0].T))


# ---------------------------------------------------------------------------
# per-curve report


# The columns of BaseCurveReport.table.  ``rho`` is the closed-form Rodrigues
# residual; the three ``res_*`` are x2 cos - x3 sin (geodesic), x3 cos +
# x2 sin (asymptotic) and sin(2t)(x3^2-x2^2)/2 - cos(2t) x2 x3.
COLUMNS = ("s", "kappa", "tau", "theta", "x1", "x2", "x3", "P",
           "k_g", "k_n", "tau_g", "rho",
           "res_geodesic", "res_asymptotic", "res_curvature_line")


class BaseCurveReport(Record):
    """The (n, 15) float ``table`` of invariants, one row per s in
    :data:`COLUMNS` order, and condition flags.  ``is_curvature_line_frame``
    is the tan(2 theta) condition; ``director_parallel_tangent`` means x2 = x3
    = 0 identically; ``excluded`` lists the s with no frame or x2 = x3 ~ 0."""

    __slots__ = ("table", "is_geodesic", "is_asymptotic", "is_curvature_line_frame",
                 "is_curvature_line_rodrigues", "director_parallel_tangent", "tol",
                 "excluded")
    _defaults = {"excluded": ()}


def base_curve_report(surface: RuledSurface, s_values,
                      tol: float = TOL_CLOSED) -> BaseCurveReport:
    """Evaluate all closed-form invariants and condition residuals on a grid.

    Samples without a Frenet frame (vanishing curvature) or where the ruling
    is momentarily tangent (x2 = x3 = 0) carry NaN invariants and are left
    out of the conditions; if the ruling is tangent at every sample the
    director is parallel to the tangent and no condition applies.  A director
    that vanishes at every sample raises :class:`ZeroDirector`.
    """
    s = np.asarray(s_values, dtype=float)
    jets, X, _ = surface._row(s)
    fd, af = surface.frame(s)
    # X is NaN wherever a coefficient, T, U or V is (U at a flat sample)
    framed, _ = ex._float_path(surface._row, s, X, GeometryError, "X")
    _director_scale(jets)
    x1, x2, x3 = (j.value for j in jets)
    w2 = x2 * x2 + x3 * x3
    used = framed & ~(w2 <= EPS_REG ** 2)  # framed, and the ruling not tangent
    kappa, th = fd.kappa, af.theta
    closed = np.where(used, [
        geodesic_curvature(x2, x3, th, kappa), normal_curvature(x2, x3, th, kappa),
        geodesic_torsion(x2, x3, th, kappa), curvature_line_residual_closed(surface, s),
        *condition_residuals(x2, x3, th)], np.nan)
    for name, column in zip(COLUMNS[8:], closed):
        ex._finite(name, s[used], column[used])
    frame_cols = np.where(framed, [kappa, fd.tau, th], np.nan)
    P = np.where(framed, surface.distribution_parameter(s), np.nan)
    ex._float_path(surface.distribution_parameter, s[framed], P[framed], GeometryError,
                   "P")
    table = np.vstack([s, frame_cols, x1, x2, x3, P, closed]).T

    parallel_tangent = np.fmax.reduce(w2, initial=0.0) <= EPS_REG ** 2

    def holds(res):  # a NaN residual at a used sample fails the condition
        vals = np.abs(res[used])
        return not parallel_tangent and vals.size > 0 and bool(np.all(vals < tol))

    return BaseCurveReport(table, *map(holds, closed[[4, 5, 6, 3]]),
                           bool(parallel_tangent), tol, s[~used].tolist())
