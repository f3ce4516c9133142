import numpy as np
import pytest

from rmfruled.curve import (CurveDef, eval_curve, frenet, tangent_data,
                            validate_regular)
from rmfruled.errors import (DegenerateTangent, ParameterOutOfRange,
                             VanishingCurvature)


def test_helix_position_and_velocity(helix):
    pos, d1, _, _ = eval_curve(helix, 0.0)
    assert pos == pytest.approx([0.6, 0.0, 0.0])
    assert d1 == pytest.approx([0.0, 0.6, 0.8])


def test_line_higher_derivatives_vanish(line):
    _, _, d2, d3 = eval_curve(line, 7.0)
    assert np.all(d2 == 0) and np.all(d3 == 0)


def test_parabola_derivatives():
    c = CurveDef.from_strings("s^2", "s", "0", -2, 2)
    _, d1, d2, _ = eval_curve(c, 1.0)
    assert d1 == pytest.approx([2.0, 1.0, 0.0])
    assert d2 == pytest.approx([2.0, 0.0, 0.0])


def test_out_of_range():
    c = CurveDef.from_strings("s", "0", "0", 0, 1)
    with pytest.raises(ParameterOutOfRange):
        eval_curve(c, 2.0)


def test_helix_invariants_constant(helix):
    for s in np.linspace(-5, 5, 100):
        fd = frenet(helix, float(s))
        assert fd.kappa == pytest.approx(0.6, abs=1e-12)
        assert fd.tau == pytest.approx(0.8, abs=1e-12)
        assert fd.speed == pytest.approx(1.0, abs=1e-12)


def test_helix_frame_at_zero(helix):
    fd = frenet(helix, 0.0)
    assert fd.T == pytest.approx([0.0, 0.6, 0.8], abs=1e-12)
    assert fd.N == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)
    assert fd.B == pytest.approx([0.0, -0.8, 0.6], abs=1e-12)


def test_line_has_no_frenet_frame(line):
    with pytest.raises(VanishingCurvature):
        frenet(line, 0.0)
    _, T, speed = tangent_data(line, 0.0)
    assert T == pytest.approx([1.0, 0.0, 0.0])
    assert speed == pytest.approx(1.0)


def test_cusp_degenerate_tangent():
    c = CurveDef.from_strings("s^3", "s^2", "0", -1, 1)
    with pytest.raises(DegenerateTangent):
        tangent_data(c, 0.0)


def test_frame_orthonormal_right_handed():
    rng = np.random.default_rng(7)
    c = CurveDef.from_strings("cos(s)+0.3*sin(2*s)", "sin(s)", "0.5*s+0.2*cos(s)",
                              -3, 3)
    for t in rng.uniform(-3, 3, 200):
        fd = frenet(c, float(t))
        for a, b in ((fd.T, fd.N), (fd.T, fd.B), (fd.N, fd.B)):
            assert abs(np.dot(a, b)) < 1e-12
        assert np.cross(fd.T, fd.N) == pytest.approx(fd.B, abs=1e-12)
        assert fd.kappa >= 0


def test_unit_speed_frame_odes(helix):
    # dT/ds = kappa N and dB/ds = -tau N for unit-speed curves
    h = 1e-4
    for s in np.linspace(-4, 4, 17):
        f0 = frenet(helix, float(s))
        fm = frenet(helix, float(s) - h)
        fp = frenet(helix, float(s) + h)
        dT = (fp.T - fm.T) / (2 * h)
        dB = (fp.B - fm.B) / (2 * h)
        assert dT == pytest.approx(f0.kappa * f0.N, abs=1e-5)
        assert dB == pytest.approx(-f0.tau * f0.N, abs=1e-5)


def test_reparametrization_invariance(helix):
    fast = CurveDef.from_strings("3/5*cos(2*s)", "3/5*sin(2*s)", "4/5*2*s",
                                 -2.5, 2.5)
    for s in np.linspace(-2.4, 2.4, 25):
        a = frenet(helix, 2 * float(s))
        b = frenet(fast, float(s))
        assert abs(a.kappa - b.kappa) < 1e-8
        assert abs(a.tau - b.tau) < 1e-8
        assert b.speed == pytest.approx(2.0, abs=1e-12)


def test_validate_regular_helix(helix):
    rep = validate_regular(helix, 100)
    assert rep.usable_for_frenet
    assert not rep.speed_violations and not rep.curvature_violations


def test_validate_regular_line(line):
    rep = validate_regular(line, 50)
    assert len(rep.curvature_violations) == 50
    assert rep.usable_for_tangent_only
    assert not rep.usable_for_frenet


def test_validate_regular_cusp():
    c = CurveDef.from_strings("s^3", "s^2", "0", -1, 1)
    rep = validate_regular(c, 101)  # grid hits s = 0
    assert any(abs(t) < 1e-12 for t in rep.speed_violations)
    assert not rep.usable_for_tangent_only


# ---------------------------------------------------------------------------
# grids


def _bytes(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("xyz,lo,hi", [
    (("3/5*cos(s)", "3/5*sin(s)", "4/5*s"), -5.0, 5.0),
    (("s", "s^3", "s^4"), -1.0, 1.0),  # kappa vanishes at s = 0
    (("cos(s)+s^2/7", "exp(s/3)*sin(s)", "atan(s)"), -3.0, 3.0),
])
def test_grid_frenet_equals_pointwise(xyz, lo, hi):
    c = CurveDef.from_strings(*xyz, lo, hi)
    ts = np.linspace(lo, hi, 41)
    fg = frenet(c, ts)
    flat = []
    for k, t in enumerate(ts.tolist()):
        assert _bytes(*eval_curve(c, t)) == _bytes(*(a[k] for a in eval_curve(c, ts)))
        try:
            fp = frenet(c, t)
        except VanishingCurvature:
            flat.append(k)
            assert np.isnan(fg.tau[k]) and np.isnan(fg.N[k]).all()
            assert np.isnan(fg.B[k]).all() and np.isfinite(fg.T[k]).all()
            continue
        assert _bytes(fp.position, fp.T, fp.N, fp.B, fp.kappa, fp.tau, fp.speed) == \
            _bytes(fg.position[k], fg.T[k], fg.N[k], fg.B[k], fg.kappa[k],
                   fg.tau[k], fg.speed[k])
    assert flat == ([20] if xyz[1] == "s^3" else [])


def test_grid_degenerate_tangent_and_range_raise():
    c = CurveDef.from_strings("s^3", "s^2", "0", -1, 1)
    with pytest.raises(DegenerateTangent, match="at t=0.0"):
        frenet(c, np.linspace(-1, 1, 5))
    with pytest.raises(ParameterOutOfRange, match="t=2.0"):
        tangent_data(c, np.array([0.5, 2.0, 3.0]))
