"""Base curves and their Frenet apparatus for arbitrary regular parametrizations.

Curvature and torsion use the general-parameter formulas

    kappa = |r' x r''| / |r'|^3,    tau = det(r', r'', r''') / |r' x r''|^2,

which reduce to the classical arc-length expressions when |r'| = 1.
Arc-length derivatives elsewhere in the package are obtained via the chain
rule d/ds = (1/|r'|) d/dt, never by numeric reparametrization.

Curve evaluation, tangents and Frenet data take a float or a 1-D grid of
parameters.  On a grid every vector gains a leading sample axis, and a grid
follows the float path of :mod:`rmfruled.expr`: where the float call raises,
the grid's data are NaN instead (a curvature-free sample has NaN N, B and tau;
a sample without a tangent, NaN in every field derived from r').  Two errors
are not failing samples, and a grid raises them as a float does: a parameter
outside the range (:class:`ParameterOutOfRange`), and a speed |r'| above
``MAX_SPEED``, out of the float range of the formulas (``FloatingPointError``).
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .errors import DegenerateTangent, ParameterOutOfRange, VanishingCurvature
from .record import Record

# Absolute regularity threshold, assuming O(1)-scaled geometry.
EPS_REG = 1e-9

# Evaluation slack beyond [t_min, t_max]; finite-difference oracles step
# up to 1e-4 past the endpoints.
RANGE_SLACK = 1e-3

# Largest |r'| whose cube, the denominator of kappa, is a finite float
# (about 5.64e102).
MAX_SPEED = float.fromhex("0x1.428a2f98d728ap+341")


class CurveDef(Record):
    """Expression-defined space curve r(t) on [t_min, t_max]: three
    :data:`expr.Expr` trees and two floats."""

    __slots__ = ("x", "y", "z", "t_min", "t_max")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")

    @staticmethod
    def from_strings(x: str, y: str, z: str, t_min: float, t_max: float) -> "CurveDef":
        return CurveDef(ex.parse(x), ex.parse(y), ex.parse(z),
                        float(t_min), float(t_max))


class FrenetData(Record):
    """Pointwise Frenet apparatus: position, orthonormal {T, N, B} (3-vectors),
    kappa and tau (floats).

    ``speed`` is |r'| in the curve's own parameter.  From a grid, each field
    holds one row (vectors) or element (scalars) per sample.
    """

    __slots__ = ("position", "T", "N", "B", "kappa", "tau", "speed")


class RegularityReport(Record):
    """Sample count, and the t values with |r'| <= eps (``speed_violations``)
    and with kappa <= eps (``curvature_violations``)."""

    __slots__ = ("n_samples", "speed_violations", "curvature_violations")
    _defaults = {"speed_violations": (), "curvature_violations": ()}

    @property
    def usable_for_frenet(self) -> bool:
        return not self.speed_violations and not self.curvature_violations

    @property
    def usable_for_tangent_only(self) -> bool:
        return not self.speed_violations


def _first(mask, t):
    """(index, parameter) of the first sample where ``mask`` holds, or None;
    ``t`` and ``mask`` are a float and a bool, or a grid and an array."""
    if not isinstance(mask, np.ndarray):
        return (0, t) if mask else None
    hits = np.flatnonzero(mask)
    return (int(hits[0]), float(t[hits[0]])) if len(hits) else None


def _check_range(c: CurveDef, t):
    inside = (c.t_min - RANGE_SLACK <= t) & (t <= c.t_max + RANGE_SLACK)
    bad = _first(np.logical_not(inside), t)
    if bad is not None:
        raise ParameterOutOfRange(f"t={bad[1]} outside [{c.t_min}, {c.t_max}]")


def eval_curve(c: CurveDef, t):
    """Position and first three derivatives (w.r.t. the curve's parameter),
    as 3-vectors at a float ``t`` or (n, 3) arrays on a grid of n."""
    _check_range(c, t)
    jets = [ex.eval_jet(e, t) for e in (c.x, c.y, c.z)]
    out = (np.array([getattr(j, f) for j in jets]) for f in ("value", "d1", "d2", "d3"))
    return tuple(a.T.copy() if a.ndim > 1 else a for a in out)


def tangent_data(c: CurveDef, t):
    """Partial Frenet data: (position, unit tangent, speed).

    Defined wherever |r'| > EPS_REG, including curvature-free points.
    """
    pos, d1, _, _ = eval_curve(c, t)
    speed = _speed(d1, t)
    return pos, d1 / _per_sample(speed), speed


def vec_dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis: a float for two 3-vectors, an array
    for rows.  Each row rounds as ``np.dot`` of that row alone (one kernel)."""
    return float(a.dot(b)) if a.ndim == 1 else np.vecdot(a, b)


def vec_norm(vecs: np.ndarray):
    """Euclidean length along the last axis, rounded as ``np.linalg.norm``."""
    sq = vec_dot(vecs, vecs)
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)


def vec_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product along the last axis, broadcast as ``np.cross`` and
    rounded as it is: each component is the difference of two rounded
    products, in numpy's order."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _per_sample(x):
    """A float, or an array shaped to scale one 3-vector row per element."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def _guard(value, bad, error):
    """``value`` with NaN where ``bad`` holds on a grid; at a float, raise
    ``error()`` if ``bad`` holds."""
    if isinstance(bad, np.ndarray):
        return np.where(bad, np.nan, value)
    if bad:
        raise error()
    return value


def _overflows(norm, message):
    """``norm``; where it overflows, NaN on a grid and FloatingPointError at a float."""
    return _guard(norm, norm == math.inf, lambda: FloatingPointError(message()))


def _check_speed(too_fast, d1: np.ndarray, t):
    """Raise FloatingPointError at the first sample where ``too_fast`` holds,
    giving |r'| there by ``math.hypot``, which does not overflow."""
    fast = _first(too_fast, t)
    if fast is not None:
        speed = math.hypot(*np.reshape(d1, (-1, 3))[fast[0]].tolist())
        raise FloatingPointError(f"|r'|^3 overflows: |r'|={speed:.3e} at t={fast[1]}")


def _speed(d1: np.ndarray, t):
    """|r'|, NaN where it is at most EPS_REG (DegenerateTangent at a float)."""
    # |r'|^2 overflows from about 1.3e154: check the largest component first.
    _check_speed(np.max(np.abs(d1), axis=-1) > MAX_SPEED, d1, t)
    speed = vec_norm(d1)
    return _guard(speed, speed <= EPS_REG,
                  lambda: DegenerateTangent(f"|r'|={speed:.3e} at t={t}"))


def frenet(c: CurveDef, t) -> FrenetData:
    """Full Frenet apparatus at a float ``t``, raising where the frame is
    undefined; on a grid, NaN data there instead (N, B and tau where kappa <=
    EPS_REG)."""
    pos, d1, d2, d3 = eval_curve(c, t)
    speed = _speed(d1, t)
    _check_speed(speed > MAX_SPEED, d1, t)
    cr = vec_cross(d1, d2)
    ncr = _overflows(vec_norm(cr), lambda: f"|r' x r''| overflows at t={t}")
    kappa = ncr / ex.power(speed, 3)
    # a grid row without a tangent has NaN kappa, and no frame either
    ncr = _guard(ncr, np.logical_not(kappa > EPS_REG),
                 lambda: VanishingCurvature(f"kappa={kappa:.3e} at t={t}"))
    tau = vec_dot(cr, d3) / ex.power(ncr, 2)
    T = d1 / _per_sample(speed)
    B = cr / _per_sample(ncr)
    return FrenetData(pos, T, vec_cross(B, T), B, kappa, tau, speed)


def validate_regular(c: CurveDef, n_samples: int) -> RegularityReport:
    """Sample the range and report where the tangent or Frenet frame degenerates."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    speed_bad, kappa_bad = [], []
    for t in np.linspace(c.t_min, c.t_max, n_samples).tolist():
        try:
            frenet(c, t)
        except DegenerateTangent:
            speed_bad.append(t)
        except VanishingCurvature:
            kappa_bad.append(t)
    return RegularityReport(n_samples, speed_bad, kappa_bad)
