import numpy as np
import pytest

from rmfruled.curve import (MAX_SPEED, CurveDef, eval_curve, frenet,
                            tangent_data, validate_regular, vec_cross)
from rmfruled.errors import (DegenerateTangent, ParameterOutOfRange,
                             VanishingCurvature)
from rmfruled.expr import ExprDomainError
from rmfruled.record import fields


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


def test_validate_regular_needs_two_samples(helix):
    with pytest.raises(ValueError):
        validate_regular(helix, 1)


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
    # A failing sample is NaN on a grid, in every field the float call would
    # derive from r' (the position stays where r exists), and the others equal
    # the float call bit for bit; only a parameter out of range raises.
    t = np.linspace(-1, 1, 5)
    for curve, failing in ((("s^3", "s^2", "0"), DegenerateTangent),  # |r'| = 0
                           (("s", "1/s", "s^2"), ExprDomainError)):   # a pole
        c = CurveDef.from_strings(*curve, -1, 1)
        fd = frenet(c, t)
        with pytest.raises(failing, match=r"at t=0\.0$|in 's'$"):
            frenet(c, 0.0)
        assert all(np.isnan(v[2]).all() for k, v in fields(fd).items()
                   if k != "position")
        for i in (0, 1, 3, 4):
            want = frenet(c, float(t[i]))
            for k, v in fields(fd).items():
                assert np.asarray(v[i]).tobytes() == np.asarray(
                    getattr(want, k), dtype=float).tobytes(), (curve, k, i)
        _, T, speed = tangent_data(c, t)
        assert np.isnan(T[2]).all() and np.isnan(speed[2])
        assert np.isfinite(np.delete(T, 2, 0)).all()
        with pytest.raises(ParameterOutOfRange, match="t=2.0"):
            tangent_data(c, np.array([0.5, 2.0, 3.0]))


def test_max_speed_is_the_last_speed_whose_cube_is_finite():
    assert np.isfinite(MAX_SPEED ** 3)
    with pytest.raises(OverflowError):
        np.nextafter(MAX_SPEED, np.inf).item() ** 3


@pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 5)], ids=["float", "grid"])
def test_speed_past_max_speed_raises_on_float_and_grid(t):
    c = CurveDef.from_strings("1e110*s", "cos(s)", "sin(s)", 0, 1)
    at = 0.5 if isinstance(t, float) else 0.0
    with pytest.raises(FloatingPointError, match=rf"\|r'\|=1.000e\+110 at t={at}$"):
        frenet(c, t)
    # just below MAX_SPEED kappa is formed, and it is 4e-206
    slow = CurveDef.from_strings("5e102*s", "cos(s)", "sin(s)", 0, 1)
    if isinstance(t, float):
        with pytest.raises(VanishingCurvature):
            frenet(slow, t)
    else:
        assert np.all(np.isnan(frenet(slow, t).N))


@pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 1.0, 5)], ids=["float", "grid"])
@pytest.mark.parametrize("fn", [frenet, tangent_data])
def test_speed_squared_overflow_is_checked_before_squaring(fn, t):
    # |r'|^2 = 1e320 is past the float range; numpy's overflow must not come first
    c = CurveDef.from_strings("1e160*s", "cos(s)", "sin(s)", 0, 1)
    at = 0.5 if isinstance(t, float) else 0.0
    with np.errstate(all="raise"), pytest.raises(
            FloatingPointError, match=rf"\|r'\|\^3 overflows: \|r'\|=1.000e\+160 at t={at}$"):
        fn(c, t)


def test_overflowing_binormal_norm_is_nan_on_a_grid_and_raises_at_a_float():
    # |r' x r''| ~ 1e240 is finite, but its squared norm overflows: dividing by
    # the norm inf would give a zero binormal
    c = CurveDef.from_strings("s", "sin(1e80*s)", "cos(1e80*s)", 0, 1)
    with np.errstate(all="ignore"):
        fd = frenet(c, np.linspace(0.0, 1.0, 5))
        assert np.isfinite(fd.T).all()
        assert np.isnan(fd.B).all() and np.isnan(fd.N).all() and np.isnan(fd.kappa).all()
        with pytest.raises(FloatingPointError, match=r"^\|r' x r''\| overflows at t=0.5$"):
            frenet(c, 0.5)


def test_nan_kappa_is_nan_on_a_grid_and_raises_at_a_float():
    # inf * 0 is NaN without a DSL error: the curve, and so kappa, is NaN at
    # every sample, which a float call counts as vanishing curvature (the RMF
    # angle table's bridges rely on it to end in a located error)
    c = CurveDef.from_strings("s", "s^2 + 1e200*1e200*0*s^4", "s^3", -1, 1)
    with np.errstate(all="ignore"):
        fd = frenet(c, np.linspace(-1.0, 1.0, 5))
        assert np.isnan(fd.kappa).all() and np.isnan(fd.B).all()
        with pytest.raises(VanishingCurvature, match="^kappa=nan at t=0.5$"):
            frenet(c, 0.5)


_SPECIAL = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3,), (3,)),          # double_reflection's rows
    ((50, 3), (50, 3)),    # frenet and oracles on a grid
    ((4, 50, 3), (50, 3)),  # normal: one grid of d_s rows per v, X per s
    ((50, 3), (3,)),
])
def test_vec_cross_is_byte_equal_to_np_cross(shape_a, shape_b):
    rng = np.random.default_rng(11)

    def draw(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        special = rng.random(shape) < 0.3
        return np.where(special, rng.choice(_SPECIAL, size=shape), x)

    for _ in range(20):
        a, b = draw(shape_a), draw(shape_b)
        with np.errstate(all="ignore"):
            got, want = vec_cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
