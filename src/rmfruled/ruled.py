"""Ruled surfaces phi(s, v) = r(s) + v X(s) with the director X given in
adapted-frame coordinates (x1, x2, x3).

Provides the director and its derivative (closed form and product-rule
numeric path, both for any adapted frame), the distribution parameter,
surface points/normals, finite-difference fundamental forms as an
independent oracle, and the developability / special-case classifier.
All primed quantities are per unit arc length unless stated otherwise, and
phi is the frame's normal-plane rotation rate, zero under the RMF.
Every per-s method takes a float s or a 1-D grid of s, under the float path of
:mod:`rmfruled.expr` that every layer below keeps: where a float call raises,
a grid gives NaN, and each other element equals the float call.  Callers that
must say why a sample failed ask the float call (:func:`expr._float_path`).
"""

from __future__ import annotations

import collections

import numpy as np

from . import expr as ex
from .curve import EPS_REG, _guard, _overflows, _per_sample, vec_cross, vec_dot, vec_norm
from .errors import (CylindricalPoint, GeometryError, SingularPoint,
                     TangentRuling, ZeroDirector)
from .frame import FrameField, _cos_sin, frame_angular_velocity, frame_derivatives
from .record import Record

# Finite-difference step for the fundamental-form oracle; fixed for
# reproducible golden values.
FD_STEP = 1e-4

TOL_DEV = 1e-7
TOL_K = 1e-5

_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _key(s):
    # bytes hash once per object; a tuple of floats hashes on every lookup
    return np.asarray(s, dtype=float).tobytes() if isinstance(s, np.ndarray) else float(s)


class _Keyed:
    """``fn`` of a float or a grid, cached by the float or the bytes of the
    grid's values; the oldest of more than ``MAXSIZE`` entries goes first.
    Each call of ``fn`` counts as one miss.  Every array stored, alone or in a
    tuple, is made read-only, as all callers share it."""

    MAXSIZE = 8192

    def __init__(self, fn):
        self.fn, self.hits, self.misses = fn, 0, 0
        self._entries = {}  # key -> value, oldest first

    def stack(self, grids):
        """Store each grid's slice of one call on ``grids`` stacked end to end."""
        for g, value in zip(grids, ex._stacked(self, grids)):
            self._store(_key(g), value)

    def __call__(self, s):
        key = _key(s)
        if key in self._entries:
            self.hits += 1
        else:
            self.misses += 1
            self._store(key, self.fn(np.array(s, dtype=float)
                                     if isinstance(s, np.ndarray) else key))
        return self._entries[key]

    def _store(self, key, value):
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        self._entries[key] = value
        if len(self._entries) > self.MAXSIZE:
            del self._entries[next(iter(self._entries))]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.MAXSIZE, len(self._entries))


def _max_abs(a) -> float:
    """max |a| over every element; NaN if any is NaN."""
    return float(np.max(np.abs(a)))


def _director_scale(jets) -> np.ndarray:
    """max |x_i| per coefficient over a grid, NaN ignored; raises
    :class:`ZeroDirector` if x1 = x2 = x3 = 0 at every node of the grid."""
    top = np.fmax.reduce(np.abs([j.value for j in jets]), axis=1, initial=0.0)
    if jets[0].value.size and top.max() <= EPS_REG:
        raise ZeroDirector("x1 = x2 = x3 = 0 at every grid node")
    return top


def _unit_normal(d_s, d_v, s, v, error):
    """(d_s x d_v / |d_s x d_v|, where |d_s x d_v| <= EPS_REG): a float raises
    ``error()`` there, and FloatingPointError where the length overflows; a
    grid is NaN at both, its mask False where the length overflows or is NaN."""
    n = vec_cross(d_s, d_v)
    nn = _overflows(vec_norm(n), lambda: f"|d_s x d_v| overflows at (s={s}, v={v})")
    degenerate = nn <= EPS_REG
    return n / _per_sample(_guard(nn, degenerate, error)), degenerate


def _over_xp2(num, xp: np.ndarray, s):
    """num / |X'|^2, raising CylindricalPoint (NaN on a grid) where |X'| ~ 0."""
    n2 = vec_dot(xp, xp)
    return num / _guard(n2, n2 <= EPS_REG ** 2,
                        lambda: CylindricalPoint(f"|X'|~0 at s={s}"))


class DirectorField(Record):
    """Dimensionless ruling-direction coordinates in the adapted frame, as
    :data:`expr.Expr` trees."""

    __slots__ = ("x1", "x2", "x3")

    @staticmethod
    def from_strings(x1: str, x2: str, x3: str) -> "DirectorField":
        return DirectorField(ex.parse(x1), ex.parse(x2), ex.parse(x3))


class RuledSurfaceDef(Record):
    """A :class:`CurveDef`, a theta policy (:class:`RotationMinimizing` or
    :class:`ExplicitTheta`), a :class:`DirectorField` and the v-range."""

    __slots__ = ("curve", "theta", "director", "v_min", "v_max")
    _defaults = {"v_min": -1.0, "v_max": 1.0}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be < v_max")


class SurfaceSample(Record):
    """Pointwise surface data with finite-difference form coefficients: the
    point, partials and unit normal, then E, F, G, e, f, g and K."""

    __slots__ = ("s", "v", "point", "d_s", "d_v", "normal",
                 "E", "F", "G", "e", "f", "g", "K")


class ClassificationReport(Record):
    """``verdict`` is "yes", "no" or "borderline"; ``base_curve`` is a
    ``BaseCurveReport`` that callers may attach."""

    __slots__ = ("verdict", "max_abs_det", "special_case", "corollary_conditions",
                 "notes", "max_interior_abs_K", "tol_dev", "tol_K",
                 "base_curve", "n_s", "n_v", "skipped_samples")
    _defaults = {"base_curve": None, "n_s": 0, "n_v": 0, "skipped_samples": ()}


class RuledSurface:
    """Runtime binding of a surface definition to a dense frame field."""

    def __init__(self, sdef: RuledSurfaceDef):
        self.sdef = sdef
        self.field = FrameField(sdef.curve, sdef.theta)
        self._frame_at = _Keyed(self.field.frame_at)
        self._row = _Keyed(self._director_row)
        self._det = _Keyed(self._ruling_det)
        self._normal0 = _Keyed(lambda s: self.normal(s, 0.0))

    def stack(self, *grids):
        """Evaluate the frames, director rows and base normals of ``grids`` now,
        one pass each over the grids stacked end to end, for later calls to hit."""
        for cache in (self._frame_at, self._row, self._normal0):
            cache.stack(grids)

    def frame(self, s):
        """(FrenetData, AdaptedFrame) at s; on a grid, NaN where a float raises."""
        return self._frame_at(s)

    def coefficients(self, s):
        d = self.sdef.director
        return (ex.eval_jet(d.x1, s), ex.eval_jet(d.x2, s), ex.eval_jet(d.x3, s))

    def _director_row(self, s):
        """(coefficient jets, X, X' per arc length) at s, cached as ``_row``: the
        one evaluation of X and X'.  A float raises the director's error before
        the frame's."""
        jets = self.coefficients(s)
        fd, af = self.frame(s)
        x1, x2, x3 = (_per_sample(j.value) for j in jets)
        X = x1 * fd.T + x2 * af.U + x3 * af.V
        Xp = np.zeros(X.shape)
        for j, e_vec, de in zip(jets, (fd.T, af.U, af.V), frame_derivatives(fd, af)):
            Xp += _per_sample(j.d1 / fd.speed) * e_vec + _per_sample(j.value) * de
        return jets, X, Xp

    def director(self, s) -> np.ndarray:
        """World-space ruling direction X = x1 T + x2 U + x3 V."""
        _, X, _ = self._row(s)
        return _guard(X, _per_sample(vec_norm(X) <= EPS_REG),
                      lambda: ZeroDirector(f"|X|~0 at s={s}"))

    def director_derivative_closed(self, s):
        """Frame components of X' per arc length, and the world vector X', for
        any adapted frame: X'_T = x1' - kappa (x2 cos(theta) - x3 sin(theta)),
        X'_U = kappa x1 cos(theta) + x2' - phi x3, X'_V = -kappa x1 sin(theta)
        + x3' + phi x2."""
        fd, af = self.frame(s)
        (j1, j2, j3), _, _ = self._row(s)
        x1, x2, x3 = j1.value, j2.value, j3.value
        # coefficient derivatives converted to arc length
        p1, p2, p3 = (j.d1 / fd.speed for j in (j1, j2, j3))
        k = fd.kappa
        phi = frame_angular_velocity(fd, af)
        c, sn = _cos_sin(af.theta)
        comps = np.stack([
            p1 - k * x2 * c + k * x3 * sn,
            k * x1 * c + p2 - phi * x3,
            p3 - k * x1 * sn + phi * x2,
        ], axis=-1)
        c1, c2, c3 = (comps[..., i:i + 1] for i in range(3))
        return comps, c1 * fd.T + c2 * af.U + c3 * af.V

    def director_derivative_numeric(self, s) -> np.ndarray:
        """World-space X' per arc length, valid for any theta policy."""
        return self._row(s)[2]

    def ruling_det(self, s):
        """det(T, X, X') -- the developability indicator at s; on a grid, one
        batched determinant of the stacked 3x3 matrices, cached as ``_det``
        and read-only."""
        return self._det(s)

    def _ruling_det(self, s):
        _, X, Xp = self._row(s)
        with np.errstate(invalid="ignore"):  # NaN rows warn outside the CLI
            det = np.linalg.det(np.stack([self.frame(s)[0].T, X, Xp], axis=-1))
        return det if det.ndim else float(det)

    def distribution_parameter(self, s):
        """det(T, X, X') / |X'|^2; raises at cylindrical points (|X'| ~ 0)."""
        return _over_xp2(self.ruling_det(s), self._row(s)[2], s)

    def det_numerator_closed(self, s):
        """Closed form of det(T, X, X') = x2 X'_V - x3 X'_U = x2 x3' - x3 x2'
        - kappa x1 (x2 sin(theta) + x3 cos(theta)) + phi (x2^2 + x3^2)."""
        comps, _ = self.director_derivative_closed(s)
        (_, j2, j3), _, _ = self._row(s)
        return j2.value * comps[..., 2] - j3.value * comps[..., 1]

    def distribution_parameter_closed(self, s):
        """Closed form: det_numerator_closed / |X'|^2."""
        comps, _ = self.director_derivative_closed(s)
        return _over_xp2(self.det_numerator_closed(s), comps, s)

    def point(self, s, v) -> np.ndarray:
        """r(s) + v X(s); a 1-D array ``v`` adds a leading axis, one row (or,
        with a grid s, one grid of rows) per v."""
        return self.frame(s)[0].position + np.multiply.outer(v, self._row(s)[1])

    def partials(self, s, v):
        """Analytic first partials (d/ds in the curve's own parameter); d/ds is
        shaped as ``point``."""
        fd, _ = self.frame(s)
        _, X, Xp = self._row(s)
        speed = _per_sample(fd.speed)
        d_s = speed * fd.T + np.multiply.outer(v, Xp * speed)
        return d_s, X

    def normal(self, s, v) -> np.ndarray:
        """Unit surface normal, oriented as d_s x d_v and shaped as ``point``;
        floats s and v raise where the partials degenerate or overflow, else NaN."""
        return self._normal(s, v)[0]

    def _normal(self, s, v):
        """(``normal(s, v)``, whether the partials degenerate there)."""
        def error():
            (_, j2, j3), _, _ = self._row(s)
            if v == 0.0 and j2.value ** 2 + j3.value ** 2 <= EPS_REG ** 2:
                return TangentRuling(f"x2=x3=0 at s={s}: no normal on the base curve")
            return SingularPoint(f"degenerate partials at (s={s}, v={v})")
        return _unit_normal(*self.partials(s, v), s, v, error)

    def base_normal(self, s) -> np.ndarray:
        """``normal(s, 0.0)``, the unit normal along the base curve; cached per
        float or grid, and read-only."""
        return self._normal0(s)

    def sample(self, s, v) -> SurfaceSample:
        """Finite-difference fundamental forms (independent of the closed forms),
        each field shaped as ``point`` without its last axis.  The 3x3 stencil
        of a grid s is one ``point`` call on the stacked grid [s - h; s; s + h]
        for every v at once."""
        h = FD_STEP
        vs = np.array([v - h, v, v + h])
        (pmm, psm, pmp), (pvm, p, pvv), (ppm, pss, ppp) = ex._stacked(
            lambda t: self.point(t, vs), (s - h, s, s + h), axis=vs.ndim)
        d_s = (pss - psm) / (2 * h)
        d_v = (pvv - pvm) / (2 * h)
        dss = (pss - 2 * p + psm) / h ** 2
        dvv = (pvv - 2 * p + pvm) / h ** 2
        dsv = (ppp - ppm - pmp + pmm) / (4 * h ** 2)
        E, F, G = vec_dot(d_s, d_s), vec_dot(d_s, d_v), vec_dot(d_v, d_v)
        n, _ = _unit_normal(d_s, d_v, s, v, lambda: SingularPoint(
            f"degenerate partials at (s={s}, v={v})"))
        e, f, g = vec_dot(dss, n), vec_dot(dsv, n), vec_dot(dvv, n)
        K = (e * g - f * f) / (E * G - F * F)
        return SurfaceSample(s, v, p, d_s, d_v, n, E, F, G, e, f, g, K)


# ---------------------------------------------------------------------------
# classification


# Which of x1, x2, x3 vanish on the grid -> the special case and the spans of
# two frame vectors holding X, each named by the form det(T, X, X') takes on
# it; all three vanishing raises ZeroDirector in det_verdict.
_ON_TU = "kappa*x1*x2*sin(theta) - phi*x2^2"
_ON_TV = "kappa*x1*x3*cos(theta) - phi*x3^2"
_ON_UV = "x2*x3' - x3*x2' + phi*(x2^2 + x3^2)"
_SPECIAL_CASES = {
    (False, False, False): ("general", ()),
    (False, False, True): ("span{T,U}", (_ON_TU,)),
    (False, True, False): ("span{T,V}", (_ON_TV,)),
    (True, False, False): ("span{U,V}", (_ON_UV,)),
    (False, True, True): ("X=T", (_ON_TU, _ON_TV)),
    (True, False, True): ("X=U", (_ON_TU, _ON_UV)),
    (True, True, False): ("X=V", (_ON_TV, _ON_UV)),
}


def det_verdict(surface: RuledSurface, s_vals: np.ndarray, tol_dev: float = TOL_DEV):
    """(verdict, max |det|, usable-sample mask, skipped [(s, error name)],
    max |x_i| per coefficient) from det(T, X, X') on the grid ``s_vals``
    (numeric path, valid for both theta policies).  The verdict is "yes"
    below ``tol_dev``, "no" above ``10 tol_dev`` and "borderline" between.
    Raises :class:`ZeroDirector` if the director vanishes at every node."""
    dets = surface.ruling_det(s_vals)
    ok, failed = ex._float_path(surface.ruling_det, s_vals, dets, GeometryError,
                                "det(T,X,X')")
    skipped = [(float(s_vals[i]), name) for i, name in failed.items()]
    max_abs = _director_scale(surface._row(s_vals)[0])
    if not ok.any():
        raise GeometryError("no usable samples on the classification grid")
    max_det = float(np.max(np.abs(dets[ok])))
    verdict = ("yes" if max_det < tol_dev else
               "no" if max_det > 10.0 * tol_dev else "borderline")
    return verdict, max_det, ok, skipped, max_abs


def classify(surface: RuledSurface, n_s: int = 101, n_v: int = 11,
             tol_dev: float = TOL_DEV, tol_K: float = TOL_K) -> ClassificationReport:
    """Developability verdict (:func:`det_verdict`), special case, and one
    corollary residual per span of two frame vectors holding X: max
    |x2 X'_V - x3 X'_U| (:meth:`RuledSurface.det_numerator_closed`) over the
    usable samples, keyed by the form it takes on that span.  The verdict is
    cross-checked against max |K| at interior v."""
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    verdict, max_det, ok, skipped, max_abs = det_verdict(surface, s_vals, tol_dev)

    vanish = tuple((max_abs <= EPS_REG).tolist())
    tag, spans = _SPECIAL_CASES[vanish]
    conditions, notes = {}, []
    if spans:
        worst = _max_abs(ex._finite(spans[0], s_vals[ok],
                                    surface.det_numerator_closed(s_vals)[ok]))
        conditions = {f"max |{span}|": worst for span in spans}
    if _ON_TU in spans and (vanish[1] or vanish[0] and _max_abs(
            frame_angular_velocity(*surface.frame(s_vals))[ok]) <= EPS_REG):
        notes.append("x1*x2 vanishes on the grid; condition holds trivially")

    # Gaussian-curvature cross-check on a coarse interior grid.
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    v_interior = [float(v) for v in v_vals[1:-1]
                  if abs(v) > 1e-3 * (sdef.v_max - sdef.v_min)]
    s_sub = s_vals[:: max(1, n_s // 12)]
    K = surface.sample(s_sub, np.array(v_interior)).K.T
    # Each non-finite K is skipped under the float call's error there, once per
    # (s, name) beside det_verdict's entries, or as NonFiniteK where it raised
    # FloatingPointError or nothing.
    names = np.where(np.isfinite(K), None, "NonFiniteK")
    for j, v in enumerate(v_interior):
        for i, name in ex._float_path(lambda s: surface.sample(s, v), s_sub, K[:, j],
                                      (GeometryError, FloatingPointError))[1].items():
            if name != "FloatingPointError":
                names[i, j] = name
    for i, j in zip(*np.nonzero(names)):
        entry = (float(s_sub[i]), names[i, j])
        if entry[1] == "NonFiniteK" or entry not in skipped:
            skipped.append(entry)
    max_K = float(np.abs(K[np.isfinite(K)]).max(initial=0.0))
    if not np.isfinite(K).any():
        notes.append("no interior K sample was usable; the K cross-check is void")

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
