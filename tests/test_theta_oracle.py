"""The RMF angle against a 30-digit oracle that shares no code with rmfruled.

The oracle maps a curve's DSL text to sympy (``^`` -> ``**``), derives the
rate d(theta)/dt = -|r'| tau symbolically, lambdifies it to mpmath and
integrates it by Gauss-Legendre ``mp.quad`` at 30 digits, on the range cut
into 64 equal pieces and at every query.  It is checked against the helix's
closed form first.  ``FrameField``'s theta at off-node grid queries must then
stay within a bound pinned at about twice the largest error that the Simpson
table read by one more Simpson panel per query showed.
"""

import mpmath
import numpy as np
import pytest
import sympy

from rmfruled.curve import CurveDef
from rmfruled.frame import FrameField, RotationMinimizing

_S = sympy.Symbol("s")
HELIX = ("3/5*cos(s)", "3/5*sin(s)", "4/5*s")


def oracle_rate(xyz):
    """-|r'| tau of the curve with DSL components ``xyz``, as an mpmath function."""
    r = sympy.Matrix([sympy.sympify(e.replace("^", "**"), locals={"s": _S})
                      for e in xyz])
    d1, d2, d3 = (r.diff(_S, n) for n in (1, 2, 3))
    b = d1.cross(d2)
    return sympy.lambdify(_S, -sympy.sqrt(d1.dot(d1)) * b.dot(d3) / b.dot(b),
                          modules="mpmath")


def oracle_theta(xyz, lo: float, hi: float, queries) -> list:
    """theta - theta(lo) at each of the increasing ``queries``, as mpf numbers."""
    rate = oracle_rate(xyz)
    with mpmath.workdps(30):
        lo_mp, width = mpmath.mpf(lo), mpmath.mpf(hi) - mpmath.mpf(lo)
        cuts = sorted({lo_mp + width * i / 64 for i in range(65)}
                      | {mpmath.mpf(q) for q in queries})
        total, at = mpmath.mpf(0), {}
        for a, b in zip(cuts, cuts[1:]):
            total += mpmath.quad(rate, [a, b], method="gauss-legendre")
            at[b] = total
        return [at[mpmath.mpf(q)] for q in queries]


def _queries(lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * (np.arange(11) + 0.3) / 11


def test_oracle_matches_the_helix_closed_form():
    t = _queries(-5.0, 5.0).tolist()
    with mpmath.workdps(30):
        got = oracle_theta(HELIX, -5.0, 5.0, t)
        assert max(abs(g + mpmath.mpf("0.8") * (q + 5)) for g, q in zip(got, t)) < 1e-25


# curve, range and the bound on |theta - oracle| over the 11 queries (rad)
CURVES = {
    "helix": (HELIX, -5.0, 5.0, 1e-15),
    "twisted_cubic": (("s", "s^2", "s^3"), -1.0, 1.0, 1.6e-13),
    "twisted_cubic_wide": (("s", "s^2", "s^3"), -5.0, 5.0, 8e-11),
    "lissajous": (("cos(3*s)", "sin(2*s)", "s"), -3.0, 3.0, 4.5e-11),
    "exp_cubic": (("s", "exp(s)", "s^3+s"), -2.0, 2.0, 6.5e-12),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_frame_field_theta_within_bound_of_oracle(name):
    xyz, lo, hi, bound = CURVES[name]
    t = _queries(lo, hi)
    field = FrameField(CurveDef.from_strings(*xyz, lo, hi), RotationMinimizing(0.0))
    _, af = field.frame_at(t)
    assert not set(t.tolist()) & set(field._nodes.tolist())
    err = np.max(np.abs(af.theta - np.array(oracle_theta(xyz, lo, hi, t), dtype=float)))
    assert err <= bound, err
