"""Base curves and their Frenet apparatus for arbitrary regular parametrizations.

Curvature and torsion use the general-parameter formulas

    kappa = |r' x r''| / |r'|^3,    tau = det(r', r'', r''') / |r' x r''|^2,

which reduce to the classical arc-length expressions when |r'| = 1.
Arc-length derivatives elsewhere in the package are obtained via the chain
rule d/ds = (1/|r'|) d/dt, never by numeric reparametrization.
"""

from __future__ import annotations

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

    ``speed`` is |r'| in the curve's own parameter.
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


def _check_range(c: CurveDef, t: float):
    if not (c.t_min - RANGE_SLACK <= t <= c.t_max + RANGE_SLACK):
        raise ParameterOutOfRange(
            f"t={t} outside [{c.t_min}, {c.t_max}]")


def eval_curve(c: CurveDef, t: float):
    """Position and first three derivatives (w.r.t. the curve's parameter)."""
    _check_range(c, t)
    jets = [ex.eval_jet(e, t) for e in (c.x, c.y, c.z)]
    pos = np.array([j.value for j in jets])
    d1 = np.array([j.d1 for j in jets])
    d2 = np.array([j.d2 for j in jets])
    d3 = np.array([j.d3 for j in jets])
    return pos, d1, d2, d3


def tangent_data(c: CurveDef, t: float):
    """Partial Frenet data: (position, unit tangent, speed).

    Defined wherever |r'| > EPS_REG, including curvature-free points.
    """
    pos, d1, _, _ = eval_curve(c, t)
    return (pos, *_unit_tangent(d1, t))


def _unit_tangent(d1: np.ndarray, t: float):
    speed = float(np.linalg.norm(d1))
    if speed <= EPS_REG:
        raise DegenerateTangent(f"|r'|={speed:.3e} at t={t}")
    return d1 / speed, speed


def frenet(c: CurveDef, t: float) -> FrenetData:
    """Full Frenet apparatus; raises where the frame is undefined."""
    pos, d1, d2, d3 = eval_curve(c, t)
    T, speed = _unit_tangent(d1, t)
    cr = np.cross(d1, d2)
    ncr = float(np.linalg.norm(cr))
    kappa = ncr / speed ** 3
    if kappa <= EPS_REG:
        raise VanishingCurvature(f"kappa={kappa:.3e} at t={t}")
    B = cr / ncr
    N = np.cross(B, T)
    tau = float(np.dot(cr, d3)) / ncr ** 2
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
