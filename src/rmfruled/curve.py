"""Base curves and their Frenet apparatus for arbitrary regular parametrizations.

Curvature and torsion use the general-parameter formulas

    kappa = |r' x r''| / |r'|^3,    tau = det(r', r'', r''') / |r' x r''|^2,

which reduce to the classical arc-length expressions when |r'| = 1.
Arc-length derivatives elsewhere in the package are obtained via the chain
rule d/ds = (1/|r'|) d/dt, never by numeric reparametrization.

Curve evaluation, tangents and Frenet data take a float or a 1-D grid of
parameters.  On a grid every vector gains a leading sample axis, and a
curvature-free sample gets NaN N, B and tau instead of raising
:class:`VanishingCurvature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DegenerateTangent, ParameterOutOfRange, VanishingCurvature

# Absolute regularity threshold, assuming O(1)-scaled geometry.
EPS_REG = 1e-9

# Evaluation slack beyond [t_min, t_max]; finite-difference oracles step
# up to 1e-4 past the endpoints.
RANGE_SLACK = 1e-3


@dataclass(frozen=True)
class CurveDef:
    """Expression-defined space curve r(t) on [t_min, t_max]."""

    x: ex.Expr
    y: ex.Expr
    z: ex.Expr
    t_min: float
    t_max: float

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")

    @staticmethod
    def from_strings(x: str, y: str, z: str, t_min: float, t_max: float) -> "CurveDef":
        return CurveDef(ex.parse(x), ex.parse(y), ex.parse(z),
                        float(t_min), float(t_max))


@dataclass(frozen=True)
class FrenetData:
    """Pointwise Frenet apparatus: position, orthonormal {T, N, B}, kappa, tau.

    ``speed`` is |r'| in the curve's own parameter.  From a grid, each field
    holds one row (vectors) or element (scalars) per sample.
    """

    position: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    speed: float


@dataclass(frozen=True)
class RegularityReport:
    n_samples: int
    speed_violations: list = field(default_factory=list)  # t values with |r'| <= eps
    curvature_violations: list = field(default_factory=list)  # t with kappa <= eps

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
    bad = _first(~inside if isinstance(inside, np.ndarray) else not inside, t)
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
    return (pos, *_unit_tangent(d1, t))


def vec_dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis: a float for two 3-vectors, an array
    for rows.  Each row rounds as ``np.dot`` of that row alone (one kernel)."""
    return float(a.dot(b)) if a.ndim == 1 else np.vecdot(a, b)


def vec_norm(vecs: np.ndarray):
    """Euclidean length along the last axis, rounded as ``np.linalg.norm``."""
    sq = vec_dot(vecs, vecs)
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)


def _per_sample(x):
    """A float, or a 1-D array shaped to scale one 3-vector row per element."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _unit_tangent(d1: np.ndarray, t):
    speed = vec_norm(d1)
    bad = _first(speed <= EPS_REG, t)
    if bad is not None:
        raise DegenerateTangent(f"|r'|={np.ravel(speed)[bad[0]]:.3e} at t={bad[1]}")
    return d1 / _per_sample(speed), speed


def frenet(c: CurveDef, t) -> FrenetData:
    """Full Frenet apparatus at a float ``t``, raising where the frame is
    undefined; on a grid, curvature-free samples get NaN N, B and tau."""
    pos, d1, d2, d3 = eval_curve(c, t)
    T, speed = _unit_tangent(d1, t)
    cr = np.cross(d1, d2)
    ncr = vec_norm(cr)
    kappa = ncr / ex.power(speed, 3)
    if isinstance(t, np.ndarray):
        ncr = np.where(kappa <= EPS_REG, np.nan, ncr)
    elif kappa <= EPS_REG:
        raise VanishingCurvature(f"kappa={kappa:.3e} at t={t}")
    B = cr / _per_sample(ncr)
    N = np.cross(B, T)
    tau = vec_dot(cr, d3) / ex.power(ncr, 2)
    return FrenetData(pos, T, N, B, kappa, tau, speed)


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
