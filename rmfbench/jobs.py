"""Seeded job generator for the three workloads.

A round is a fixed list of slots.  Each slot fixes the subcommand, the grid
shape, the curve kind and the families of the director coefficients, so that
every round does the same kind and amount of work; the seed and the round
index only draw the coefficients.  Draws that would put a job near a
singular point, or an expectation near its decision threshold, are drawn
again, so no job fails and no verdict is borderline.

Grid rows are even: n_s - 1 is then odd and shares no factor with the 512
cells of the program's RMF angle table, so no sample but the first lands on
a table node whatever the s range, and call counts repeat across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from reference import Fn, Helix, Surface

WORKLOADS = ("mesh_rmf", "mesh_explicit", "verify_rmf")

# (n_s, n_v, curve kind, coefficient families of x1, x2, x3)
MESH_SLOTS = (
    (100, 11, "helix", ("poly", "trig", "poly")),
    (96, 12, "helix", ("trig", "poly", "trig")),
    (104, 10, "circle", ("poly", "poly", "trig")),
    (102, 11, "helix", ("trig", "trig", "poly")),
    (98, 11, "helix", ("poly", "trig", "trig")),
)
# (n_s, n_v, curve kind, case); the cases follow the paper's conditions on the
# director.  An odd number of slots keeps the median job inside one slot's
# group of times rather than on the step between two groups.
VERIFY_SLOTS = (
    (100, 5, "helix", "developable"),
    (104, 4, "helix", "geodesic"),
    (96, 6, "helix", "asymptotic"),
    (102, 5, "circle", "general"),
    (98, 5, "circle", "geodesic"),
)

# Residuals the construction makes zero come out near 1e-16; a condition
# that does not hold must miss by at least this much on the grid.
CLEAR = 1e-3
EXACT = 1e-10
MIN_SINE = 0.05  # smallest angle between d_s and X on a mesh grid
MAX_DRAWS = 200


@dataclass(frozen=True)
class Job:
    command: str  # "surface" or "verify"
    surface: Surface
    n_s: int
    n_v: int
    rmf: bool
    expect: dict

    @property
    def points(self) -> int:
        """Vertices of a mesh, curve samples of a verify run."""
        return self.n_s * self.n_v if self.command == "surface" else self.n_s

    def config(self) -> dict:
        sf = self.surface
        x, y, z = sf.helix.dsl()
        theta = ({"mode": "rmf", "theta0": sf.theta.f(sf.s_min)} if self.rmf
                 else {"mode": "explicit", "expr": sf.theta.dsl})
        doc = {
            "curve": {"x": x, "y": y, "z": z, "s_range": [sf.s_min, sf.s_max]},
            "theta": theta,
            "director": {"x1": sf.x1.dsl, "x2": sf.x2.dsl, "x3": sf.x3.dsl},
            "grid": {"n_s": self.n_s, "n_v": self.n_v,
                     "v_range": [sf.v_min, sf.v_max]},
        }
        if self.expect:
            doc["expect"] = self.expect
        return doc


# ---------------------------------------------------------------------------
# scalar functions


def const(c: float) -> Fn:
    return Fn(repr(c), lambda s: c, lambda s: 0.0)


def poly(c0: float, c1: float, c2: float) -> Fn:
    return Fn(f"({c0!r} + {c1!r}*s + {c2!r}*s^2)",
              lambda s: c0 + c1 * s + c2 * s * s, lambda s: c1 + 2.0 * c2 * s)


def trig(c0: float, c1: float, k: float, p: float) -> Fn:
    return Fn(f"({c0!r} + {c1!r}*cos({k!r}*s + {p!r}))",
              lambda s: c0 + c1 * math.cos(k * s + p),
              lambda s: -c1 * k * math.sin(k * s + p))


def scale(c: float, g: Fn) -> Fn:
    return Fn(f"{c!r}*{g.dsl}", lambda s: c * g.f(s), lambda s: c * g.df(s))


def times_sin(m: Fn, th: Fn, sign: float = 1.0) -> Fn:
    """sign * m(s) sin(theta(s))."""
    text = f"{m.dsl}*sin{th.dsl}"
    return Fn(text if sign > 0 else f"-{text}",
              lambda s: sign * m.f(s) * math.sin(th.f(s)),
              lambda s: sign * (m.df(s) * math.sin(th.f(s))
                                + m.f(s) * math.cos(th.f(s)) * th.df(s)))


def times_cos(m: Fn, th: Fn) -> Fn:
    """m(s) cos(theta(s))."""
    return Fn(f"{m.dsl}*cos{th.dsl}",
              lambda s: m.f(s) * math.cos(th.f(s)),
              lambda s: (m.df(s) * math.cos(th.f(s))
                         - m.f(s) * math.sin(th.f(s)) * th.df(s)))


def rmf_angle(helix: Helix, s_min: float, theta0: float) -> Fn:
    """theta0 + rate (s - s_min); its DSL text is the same line in s."""
    rate = helix.rmf_rate()
    return Fn(f"({theta0 - rate * s_min!r} + {rate!r}*s)",
              lambda s: theta0 + rate * (s - s_min), lambda s: rate)


# ---------------------------------------------------------------------------
# draws


class Draw:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def u(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 4)

    def signed(self, lo: float, hi: float) -> float:
        return self.u(lo, hi) * self.rng.choice((-1.0, 1.0))

    def helix(self, kind: str) -> Helix:
        b = 0.0 if kind == "circle" else self.u(0.3, 1.0)
        return Helix(self.u(0.6, 1.4), b, self.u(0.6, 1.4))

    def s_range(self):
        s_min = self.u(-2.0, -0.5)
        return s_min, round(s_min + self.u(2.5, 4.0), 4)

    def coefficient(self, family: str) -> Fn:
        if family == "poly":
            return poly(self.signed(0.3, 1.0), self.u(-0.4, 0.4), self.u(-0.15, 0.15))
        return trig(self.signed(0.3, 1.0), self.u(-0.6, 0.6), self.u(0.5, 1.5),
                    self.u(0.0, 3.1416))

    def positive(self) -> Fn:
        """A quadratic that stays at or above 0.4 on every drawn s range."""
        return poly(self.u(1.0, 1.5), self.u(-0.15, 0.15), self.u(0.0, 0.05))


def _mesh_job(d: Draw, slot, rmf: bool) -> Job:
    n_s, n_v, kind, families = slot
    for _ in range(MAX_DRAWS):
        helix = d.helix(kind)
        s_min, s_max = d.s_range()
        if rmf:
            theta = rmf_angle(helix, s_min, d.u(-3.0, 3.0))
        else:
            t0, t1, t2, k = d.u(-1.0, 1.0), d.u(-0.5, 0.5), d.u(-0.5, 0.5), d.u(0.5, 1.5)
            theta = Fn(f"{t0!r} + {t1!r}*s + {t2!r}*sin({k!r}*s)",
                       lambda s: t0 + t1 * s + t2 * math.sin(k * s),
                       lambda s: t1 + t2 * k * math.cos(k * s))
        x1, x2, x3 = (d.coefficient(f) for f in families)
        vr = d.u(0.5, 1.0)
        sf = Surface(helix, s_min, s_max, theta, x1, x2, x3, -vr, vr)
        if sf.regularity(n_s, n_v) >= MIN_SINE:
            return Job("surface", sf, n_s, n_v, rmf, {})
    raise RuntimeError(f"no regular surface drawn for slot {slot}")


def expectations(case: str) -> dict:
    """What the paper's conditions say about each verify case.

    * developable: x1 = 0 and x2 : x3 constant make det(T, X, X') vanish.
    * geodesic: (x2, x3) proportional to (sin theta, cos theta) zeroes
      x2 cos theta - x3 sin theta; the asymptotic residual is then |(x2, x3)|.
    * asymptotic: (x2, x3) = (cos theta, -sin theta) zeroes x3 cos + x2 sin;
      its det numerator is x2 x3' - x3 x2' = -theta' = tau, nonzero on a helix.
    * geodesic on a circle: theta is constant and x1 != 0 keeps the det
      numerator -kappa x1 |(x2, x3)| away from zero.
    * general: a det numerator drawn to stay away from zero.
    A condition the construction does not force is expected to fail; the
    draw is confirmed against the reference before it is used.
    """
    return {
        "developable": "yes" if case == "developable" else "no",
        "geodesic": case == "geodesic",
        "asymptotic": case == "asymptotic",
    }


def _holds(res, want: bool, clear_min: bool = False) -> bool:
    peak = float(max(abs(x) for x in res))
    if want:
        return peak < EXACT
    if clear_min:
        return float(min(abs(x) for x in res)) > CLEAR
    return peak > CLEAR


def _verify_job(d: Draw, slot) -> Job:
    n_s, n_v, kind, case = slot
    for _ in range(MAX_DRAWS):
        helix = d.helix(kind)
        s_min, s_max = d.s_range()
        theta = rmf_angle(helix, s_min, d.u(-3.0, 3.0))
        if case == "developable":
            f = d.positive()
            x1, x2, x3 = const(0.0), scale(d.signed(0.3, 1.0), f), scale(d.signed(0.3, 1.0), f)
        elif case == "geodesic":
            m = d.positive()
            x1, x2, x3 = d.coefficient("poly"), times_sin(m, theta), times_cos(m, theta)
        elif case == "asymptotic":
            one = const(1.0)
            x1, x2, x3 = d.coefficient("trig"), times_cos(one, theta), times_sin(one, theta, -1.0)
        else:
            x1, x2, x3 = d.coefficient("poly"), const(d.signed(0.3, 1.0)), d.coefficient("poly")
        vr = d.u(0.5, 1.0)
        sf = Surface(helix, s_min, s_max, theta, x1, x2, x3, -vr, vr)
        expect = expectations(case)
        geo, asym, num = sf.conditions(n_s)
        if (_holds(geo, expect["geodesic"]) and _holds(asym, expect["asymptotic"])
                and _holds(num, expect["developable"] == "yes",
                           clear_min=case == "general")):
            return Job("verify", sf, n_s, n_v, True, expect)
    raise RuntimeError(f"no clear verify case drawn for slot {slot}")


def make_round(workload: str, seed: int, index: int) -> list:
    """The jobs of round ``index`` of a run seeded with ``seed``."""
    d = Draw(random.Random(f"{workload}/{seed}/{index}"))
    if workload == "mesh_rmf":
        return [_mesh_job(d, slot, rmf=True) for slot in MESH_SLOTS]
    if workload == "mesh_explicit":
        return [_mesh_job(d, slot, rmf=False) for slot in MESH_SLOTS]
    if workload == "verify_rmf":
        return [_verify_job(d, slot) for slot in VERIFY_SLOTS]
    raise ValueError(f"unknown workload {workload!r}")
