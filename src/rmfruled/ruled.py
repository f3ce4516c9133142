"""Ruled surfaces phi(s, v) = r(s) + v X(s) with the director X given in
adapted-frame coordinates (x1, x2, x3).

Provides the director and its derivative (closed form under the RMF policy,
product-rule numeric path for any policy), the distribution parameter,
surface points/normals, finite-difference fundamental forms as an
independent oracle, and the developability / special-case classifier.
All primed quantities are per unit arc length unless stated otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .curve import EPS_REG, CurveDef, vec_norm
from .errors import (CylindricalPoint, GeometryError,
                     RequiresRotationMinimizingFrame, SingularPoint,
                     TangentRuling, ZeroDirector)
from .frame import FrameField, ThetaPolicy, frame_derivatives

# Finite-difference step for the fundamental-form oracle; fixed for
# reproducible golden values.
FD_STEP = 1e-4

TOL_DEV = 1e-7
TOL_K = 1e-5


@dataclass(frozen=True)
class DirectorField:
    """Dimensionless ruling-direction coordinates in the adapted frame."""

    x1: ex.Expr
    x2: ex.Expr
    x3: ex.Expr

    @staticmethod
    def from_strings(x1: str, x2: str, x3: str) -> "DirectorField":
        return DirectorField(ex.parse(x1), ex.parse(x2), ex.parse(x3))


@dataclass(frozen=True)
class RuledSurfaceDef:
    curve: CurveDef
    theta: ThetaPolicy
    director: DirectorField
    v_min: float = -1.0
    v_max: float = 1.0

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be < v_max")


@dataclass(frozen=True)
class SurfaceSample:
    """Pointwise surface data with finite-difference form coefficients."""

    s: float
    v: float
    point: np.ndarray
    d_s: np.ndarray
    d_v: np.ndarray
    normal: np.ndarray | None
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    K: float
    H: float


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # "yes" | "no" | "borderline"
    max_abs_det: float
    special_case: str
    corollary_conditions: dict
    notes: list
    max_interior_abs_K: float
    tol_dev: float
    tol_K: float
    base_curve: object = None  # BaseCurveReport, attached by callers
    n_s: int = 0
    n_v: int = 0
    skipped_samples: list = field(default_factory=list)


class RuledSurface:
    """Runtime binding of a surface definition to a dense frame field."""

    def __init__(self, sdef: RuledSurfaceDef):
        self.sdef = sdef
        self.field = FrameField(sdef.curve, sdef.theta)
        self._frame_at = functools.lru_cache(maxsize=8192)(self.field.frame_at)
        self._row = functools.lru_cache(maxsize=8192)(self._director_row)

    @property
    def is_rmf(self) -> bool:
        return self.field.is_rmf

    def frame(self, s: float):
        return self._frame_at(float(s))

    def coefficients(self, s: float):
        d = self.sdef.director
        return (ex.eval_jet(d.x1, s), ex.eval_jet(d.x2, s), ex.eval_jet(d.x3, s))

    def _director_row(self, s: float):
        """(coefficient jets, X, X' per arc length) at s, cached as ``_row``: the
        one evaluation of X and X'; both read-only, as all callers share them."""
        fd, af = self.frame(s)
        jets = j1, j2, j3 = self.coefficients(float(s))
        X = j1.value * fd.T + j2.value * af.U + j3.value * af.V
        Xp = np.zeros(3)
        for j, e_vec, de in zip(jets, (fd.T, af.U, af.V), frame_derivatives(fd, af)):
            Xp += (j.d1 / fd.speed) * e_vec + j.value * de
        X.flags.writeable = Xp.flags.writeable = False
        return jets, X, Xp

    def director(self, s: float) -> np.ndarray:
        """World-space ruling direction X = x1 T + x2 U + x3 V."""
        _, X, _ = self._row(s)
        if np.linalg.norm(X) <= EPS_REG:
            raise ZeroDirector(f"|X|~0 at s={s}")
        return X

    def director_derivative_closed(self, s: float):
        """Frame components of X' per arc length, RMF policy only.

        Returns (components, world_vector).  Refused under an explicit theta
        policy, whose normal-plane rotation invalidates the formula.
        """
        if not self.is_rmf:
            raise RequiresRotationMinimizingFrame(
                "closed-form director derivative assumes a rotation minimizing "
                "frame; use the numeric path for explicit theta")
        fd, af = self.frame(s)
        (j1, j2, j3), _, _ = self._row(s)
        x1, x2, x3 = j1.value, j2.value, j3.value
        # coefficient derivatives converted to arc length
        p1, p2, p3 = (j.d1 / fd.speed for j in (j1, j2, j3))
        k = fd.kappa
        c, sn = math.cos(af.theta), math.sin(af.theta)
        comps = np.array([
            p1 - k * x2 * c + k * x3 * sn,
            k * x1 * c + p2,
            p3 - k * x1 * sn,
        ])
        world = comps[0] * fd.T + comps[1] * af.U + comps[2] * af.V
        return comps, world

    def director_derivative_numeric(self, s: float) -> np.ndarray:
        """World-space X' per arc length, valid for any theta policy."""
        return self._row(s)[2]

    def ruling_det(self, s: float) -> float:
        """det(T, X, X') -- the developability indicator at s."""
        _, X, Xp = self._row(s)
        return float(np.linalg.det(np.column_stack([self.frame(s)[0].T, X, Xp])))

    def distribution_parameter(self, s: float) -> float:
        """det(T, X, X') / |X'|^2; raises at cylindrical points (|X'| ~ 0)."""
        _, _, Xp = self._row(s)
        n2 = float(np.dot(Xp, Xp))
        if n2 <= EPS_REG ** 2:
            raise CylindricalPoint(f"|X'|~0 at s={s}")
        return self.ruling_det(s) / n2

    def det_numerator_closed(self, s: float) -> float:
        """Closed RMF form of det(T, X, X') = x2 X'_V - x3 X'_U, that is
        (x2 x3' - x3 x2') - kappa x1 (x2 sin(theta) + x3 cos(theta))."""
        comps, _ = self.director_derivative_closed(s)
        (_, j2, j3), _, _ = self._row(s)
        return j2.value * comps[2] - j3.value * comps[1]

    def distribution_parameter_closed(self, s: float) -> float:
        """Closed RMF form: det_numerator_closed / |X'|^2."""
        num = self.det_numerator_closed(s)
        comps, _ = self.director_derivative_closed(s)
        den = float(np.dot(comps, comps))
        if den <= EPS_REG ** 2:
            raise CylindricalPoint(f"|X'|~0 at s={s}")
        return num / den

    def point(self, s: float, v) -> np.ndarray:
        """r(s) + v X(s); ``v`` a float, or a 1-D array giving one row per v."""
        return self.frame(s)[0].position + np.multiply.outer(v, self._row(s)[1])

    def partials(self, s: float, v):
        """Analytic first partials (d/ds in the curve's own parameter); a 1-D
        array ``v`` gives one row of d/ds per v."""
        fd, _ = self.frame(s)
        _, X, Xp = self._row(s)
        d_s = fd.speed * fd.T + np.multiply.outer(v, Xp * fd.speed)
        return d_s, X

    def normal(self, s: float, v) -> np.ndarray:
        """Unit surface normal; oriented as d_s x d_v.

        A float ``v`` raises where the partials degenerate; a 1-D array gives
        one row per v, NaN where they degenerate.
        """
        d_s, d_v = self.partials(s, v)
        n = np.cross(d_s, d_v)
        nn = vec_norm(n)
        if isinstance(v, np.ndarray):
            return n / np.where(nn <= EPS_REG, np.nan, nn)[:, None]
        if nn <= EPS_REG:
            (_, j2, j3), _, _ = self._row(s)
            if v == 0.0 and j2.value ** 2 + j3.value ** 2 <= EPS_REG ** 2:
                raise TangentRuling(f"x2=x3=0 at s={s}: no normal on the base curve")
            raise SingularPoint(f"degenerate partials at (s={s}, v={v})")
        return n / nn

    def sample(self, s: float, v: float) -> SurfaceSample:
        """Finite-difference fundamental forms (independent of the closed forms)."""
        h = FD_STEP
        vs = np.array([v - h, v, v + h])
        (pmm, psm, pmp), (pvm, p, pvv), (ppm, pss, ppp) = (
            self.point(t, vs) for t in (s - h, s, s + h))
        d_s = (pss - psm) / (2 * h)
        d_v = (pvv - pvm) / (2 * h)
        dss = (pss - 2 * p + psm) / h ** 2
        dvv = (pvv - 2 * p + pvm) / h ** 2
        dsv = (ppp - ppm - pmp + pmm) / (4 * h ** 2)
        E = float(np.dot(d_s, d_s))
        F = float(np.dot(d_s, d_v))
        G = float(np.dot(d_v, d_v))
        cr = np.cross(d_s, d_v)
        ncr = float(np.linalg.norm(cr))
        if ncr <= EPS_REG:
            raise SingularPoint(f"degenerate partials at (s={s}, v={v})")
        n = cr / ncr
        e = float(np.dot(dss, n))
        f = float(np.dot(dsv, n))
        g = float(np.dot(dvv, n))
        W = E * G - F * F
        K = (e * g - f * f) / W
        H = (e * G - 2 * f * F + g * E) / (2 * W)
        return SurfaceSample(s, v, p, d_s, d_v, n, E, F, G, e, f, g, K, H)


# ---------------------------------------------------------------------------
# classification


def _special_case_tag(vanish):
    z1, z2, z3 = vanish
    if z2 and z3:
        return "X=T"
    if z1 and z3:
        return "X=U"
    if z1 and z2:
        return "X=V"
    if z3:
        return "span{T,U}"
    if z2:
        return "span{T,V}"
    if z1:
        return "span{U,V}"
    return "general"


def classify(surface: RuledSurface, n_s: int = 101, n_v: int = 11,
             tol_dev: float = TOL_DEV, tol_K: float = TOL_K) -> ClassificationReport:
    """Developability verdict, span detection, and per-case condition residuals.

    The verdict comes from max |det(T, X, X')| on the s-grid (numeric path,
    valid for both theta policies) with a 10x hysteresis band for
    "borderline", and is cross-checked against max |K| at interior v.  A
    director that vanishes at every grid node raises :class:`ZeroDirector`.
    """
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    dets = []
    rows = []  # (s, kappa, theta, jets) for residuals
    skipped = []
    max_abs = [0.0, 0.0, 0.0]
    for s in s_vals:
        s = float(s)
        jets = surface.coefficients(s)
        for i, j in enumerate(jets):
            max_abs[i] = max(max_abs[i], abs(j.value))
        try:
            fd, af = surface.frame(s)
            dets.append(surface.ruling_det(s))
            rows.append((s, fd.kappa, fd.speed, af.theta, jets))
        except GeometryError as err:
            skipped.append((s, type(err).__name__))
    if max(max_abs) <= EPS_REG:
        raise ZeroDirector("x1 = x2 = x3 = 0 at every grid node")
    if not dets:
        raise GeometryError("no usable samples on the classification grid")
    max_det = float(np.max(np.abs(dets)))
    if max_det < tol_dev:
        verdict = "yes"
    elif max_det > 10.0 * tol_dev:
        verdict = "no"
    else:
        verdict = "borderline"

    vanish = [m <= EPS_REG for m in max_abs]
    tag = _special_case_tag(vanish)

    conditions = {}
    notes = []
    if tag in ("span{T,U}", "X=T", "X=U"):
        res = max(abs(k * jets[0].value * jets[1].value * math.sin(th))
                  for s, k, sp, th, jets in rows)
        conditions["max |kappa*x1*x2*sin(theta)|"] = res
        if max(k for _, k, _, _, _ in rows) <= EPS_REG:
            notes.append("kappa vanishes on the grid; condition holds trivially")
        if max_abs[0] * max_abs[1] <= EPS_REG:
            notes.append("x1*x2 vanishes on the grid; condition holds trivially")
    if tag in ("span{T,V}", "X=T", "X=V"):
        res = max(abs(k * jets[0].value * jets[2].value * math.cos(th))
                  for s, k, sp, th, jets in rows)
        conditions["max |kappa*x1*x3*cos(theta)|"] = res
    if tag in ("span{U,V}", "X=U", "X=V"):
        res = max(abs(jets[1].value * jets[2].d1 / sp
                      - jets[2].value * jets[1].d1 / sp)
                  for s, k, sp, th, jets in rows)
        conditions["max |x2*x3' - x3*x2'|"] = res

    # Gaussian-curvature cross-check on a coarse interior grid.
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    v_interior = [float(v) for v in v_vals[1:-1]
                  if abs(v) > 1e-3 * (sdef.v_max - sdef.v_min)]
    s_sub = s_vals[:: max(1, n_s // 12)]
    max_K = 0.0
    for s in s_sub:
        for v in v_interior:
            try:
                smp = surface.sample(float(s), v)
            except GeometryError:
                continue
            if math.isfinite(smp.K):
                max_K = max(max_K, abs(smp.K))
            else:
                skipped.append((float(s), "NonFiniteK"))

    if verdict == "yes" and max_K > tol_K:
        # A "no" with small K is consistent (K scales as det^2); this is not.
        notes.append(f"det verdict 'yes' but max interior |K| = {max_K:.3e} "
                     f"exceeds tol_K = {tol_K:.3e}")

    return ClassificationReport(
        verdict=verdict,
        max_abs_det=max_det,
        special_case=tag,
        corollary_conditions=conditions,
        notes=notes,
        max_interior_abs_K=max_K,
        tol_dev=tol_dev,
        tol_K=tol_K,
        n_s=n_s,
        n_v=n_v,
        skipped_samples=skipped,
    )
