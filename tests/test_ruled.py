import math

import numpy as np
import pytest

from conftest import make_surface
from rmfruled.curve import CurveDef
from rmfruled.expr import ExprDomainError
from rmfruled.errors import SingularPoint, TangentRuling, ZeroDirector
from rmfruled.frame import ExplicitTheta, RotationMinimizing
from rmfruled.record import fields
from rmfruled.ruled import SurfaceSample, _max_abs, classify, det_verdict


def test_director_tangent_case(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    for s in (-3.0, 0.0, 2.5):
        fd, _ = surf.frame(s)
        assert surf.director(s) == pytest.approx(fd.T)


def test_director_normal_at_theta_zero(helix):
    surf = make_surface(helix, ExplicitTheta.from_string("0"), "0", "1", "0")
    fd, _ = surf.frame(1.2)
    assert surf.director(1.2) == pytest.approx(fd.N)


def test_director_zero_rejected(geodesic_example):
    with pytest.raises(ZeroDirector):
        geodesic_example.director(0.0)


@pytest.mark.parametrize("v_max", [-1.0, 1.0])
def test_surface_def_needs_v_min_below_v_max(helix, v_max):
    with pytest.raises(ValueError, match="v_min must be < v_max"):
        make_surface(helix, RotationMinimizing(0.0), "0", "1", "0", 1.0, v_max)


def test_director_golden_value(helix):
    # frozen regression value for x = (s^2, s^2, s), theta = atan(s) at s = 1
    surf = make_surface(helix, ExplicitTheta.from_string("atan(s)"),
                        "s^2", "s^2", "s")
    X = surf.director(1.0)
    fd, af = surf.frame(1.0)
    assert X == pytest.approx(fd.T + af.U + af.V, abs=1e-12)
    assert X == pytest.approx([0.4471331523622794, -0.2871008954712598,
                               1.6485281374238572], abs=1e-12)


# ---------------------------------------------------------------------------
# director derivative


def test_closed_tangent_director_derivative(helix):
    # X = T gives X' = kappa cos U - kappa sin V with |X'| = kappa
    surf = make_surface(helix, RotationMinimizing(0.4), "1", "0", "0")
    for s in (-2.0, 0.5, 3.0):
        comps, world = surf.director_derivative_closed(s)
        fd, af = surf.frame(s)
        k, th = fd.kappa, af.theta
        assert comps == pytest.approx([0.0, k * math.cos(th), -k * math.sin(th)])
        assert np.linalg.norm(world) == pytest.approx(k, abs=1e-12)
        assert world == pytest.approx(k * fd.N, abs=1e-12)


def test_closed_normal_plane_director_under_rmf(helix):
    # X = U has U' parallel to the tangent under the RMF
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    comps, world = surf.director_derivative_closed(1.5)
    fd, af = surf.frame(1.5)
    assert comps == pytest.approx([-fd.kappa * math.cos(af.theta), 0.0, 0.0])
    assert np.linalg.norm(np.cross(world, fd.T)) < 1e-12


def test_closed_matches_numeric_under_explicit_theta(geodesic_example):
    # theta = atan(s) turns the frame at phi = theta' + tau != 0
    for s in np.linspace(-4.5, 4.5, 19):
        s = float(s)
        _, world = geodesic_example.director_derivative_closed(s)
        assert world == pytest.approx(
            geodesic_example.director_derivative_numeric(s), abs=1e-12)
        assert geodesic_example.det_numerator_closed(s) == pytest.approx(
            geodesic_example.ruling_det(s), abs=1e-11)


def test_closed_matches_finite_difference(rmf_polynomial):
    h = 1e-4
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        _, world = rmf_polynomial.director_derivative_closed(s)
        fd, _ = rmf_polynomial.frame(s)
        fdiff = (rmf_polynomial.director(s + h)
                 - rmf_polynomial.director(s - h)) / (2 * h) / fd.speed
        assert world == pytest.approx(fdiff, abs=1e-6)


def test_numeric_equals_closed_under_rmf(rmf_polynomial):
    for s in np.linspace(-4.5, 4.5, 19):
        s = float(s)
        _, world = rmf_polynomial.director_derivative_closed(s)
        assert rmf_polynomial.director_derivative_numeric(s) == pytest.approx(
            world, abs=1e-9)


def test_numeric_frozen_theta(helix):
    # theta' = 0: X = U rotates at rate phi = tau about the tangent
    surf = make_surface(helix, ExplicitTheta.from_string("0.7"), "0", "1", "0")
    fd, af = surf.frame(0.4)
    Xp = surf.director_derivative_numeric(0.4)
    expected = -fd.kappa * math.cos(af.theta) * fd.T + fd.tau * af.V
    assert Xp == pytest.approx(expected, abs=1e-12)


def test_director_row_is_shared_read_only(rmf_polynomial):
    Xp = rmf_polynomial.director_derivative_numeric(0.3)
    before = Xp.copy()
    with pytest.raises(ValueError):
        Xp += 1.0
    with pytest.raises(ValueError):
        rmf_polynomial.director(0.3)[0] = 0.0
    assert np.array_equal(rmf_polynomial.director_derivative_numeric(0.3), before)


def test_frame_does_not_evaluate_the_director(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1/s", "0", "1")
    surf.frame(0.0)
    assert surf._row.cache_info().currsize == 0


@pytest.mark.parametrize("method", ["ruling_det", "director", "distribution_parameter",
                                    "director_derivative_numeric"])
def test_director_error_comes_before_the_frame_error(method):
    # x1 = 1/s on a curve whose curvature vanishes at s = 0: both fail there,
    # and a float call names the director's error, as the CLI probes do
    flat = CurveDef.from_strings("s", "s^3", "s^4", -1, 1)
    surf = make_surface(flat, RotationMinimizing(0.0), "1/s", "1", "0")
    with pytest.raises(ExprDomainError, match="division by zero in 's'"):
        getattr(surf, method)(0.0)


def test_numeric_constant_frame(line):
    surf = make_surface(line, ExplicitTheta.from_string("0"), "0", "1", "1")
    # straight line has no Frenet frame; the numeric path needs one
    with pytest.raises(Exception):
        surf.director_derivative_numeric(1.0)


# ---------------------------------------------------------------------------
# distribution parameter


def test_distribution_parameter_tangent_director(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    for s in np.linspace(-4, 4, 17):
        assert abs(surf.distribution_parameter(float(s))) < 1e-12


def test_distribution_parameter_normal_plane_rmf(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    for s in (-2.0, 1.0):
        assert abs(surf.distribution_parameter(s)) < 1e-12


def test_distribution_parameter_cylindrical_point(line):
    # constant director on a straight base curve: X' = 0
    surf = make_surface(line, ExplicitTheta.from_string("0"), "0", "1", "0")
    with pytest.raises(Exception):
        surf.distribution_parameter(1.0)


def test_distribution_parameter_general_case(rmf_polynomial):
    helix = rmf_polynomial  # noqa: F841 - uses its own fixture surface
    surf = make_surface(rmf_polynomial.sdef.curve, RotationMinimizing(0.0),
                        "0", "s^2", "s")
    s = 1.0
    # numerator x2 x3' - x3 x2' = s^2 - 2 s^2 = -1 at s = 1
    _, j2, j3 = surf.coefficients(s)
    num = j2.value * j3.d1 - j3.value * j2.d1
    assert num == pytest.approx(-1.0)
    comps, _ = surf.director_derivative_closed(s)
    assert surf.distribution_parameter(s) == pytest.approx(
        -1.0 / float(np.dot(comps, comps)), abs=1e-12)
    assert surf.distribution_parameter(s) == pytest.approx(
        surf.distribution_parameter_closed(s), abs=1e-12)


def test_closed_numerator_matches_det(rmf_polynomial):
    for s in np.linspace(-4.5, 4.5, 31):
        s = float(s)
        assert abs(rmf_polynomial.ruling_det(s)
                   - rmf_polynomial.det_numerator_closed(s)) < 1e-8


# ---------------------------------------------------------------------------
# surface evaluation


def test_surface_point_base_curve(geodesic_example):
    for s in (-2.0, 1.5):
        fd, _ = geodesic_example.frame(s)
        assert geodesic_example.point(s, 0.0) == pytest.approx(fd.position)


def test_surface_point_tangent_offset(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    assert surf.point(0.0, 1.0) == pytest.approx([0.6, 0.6, 0.8])


def test_surface_point_ruling_linearity(rmf_polynomial):
    s, v = 0.8, 0.37
    lhs = rmf_polynomial.point(s, 2 * v) - rmf_polynomial.point(s, v)
    assert lhs == pytest.approx(v * rmf_polynomial.director(s), abs=1e-12)


def test_normal_closed_form_x2(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    _, af = surf.frame(1.0)
    assert surf.normal(1.0, 0.0) == pytest.approx(af.V, abs=1e-12)


def test_normal_closed_form_mixed(helix):
    r = 1 / math.sqrt(2)
    surf = make_surface(helix, RotationMinimizing(0.0), "0",
                        "1/2^0.5", "1/2^0.5")
    _, af = surf.frame(0.5)
    assert surf.normal(0.5, 0.0) == pytest.approx((af.V - af.U) * r, abs=1e-12)


def test_normal_base_curve_closed_form_general(rmf_polynomial):
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        _, af = rmf_polynomial.frame(s)
        _, j2, j3 = rmf_polynomial.coefficients(s)
        w = math.hypot(j2.value, j3.value)
        expected = (j2.value * af.V - j3.value * af.U) / w
        assert rmf_polynomial.normal(s, 0.0) == pytest.approx(expected, abs=1e-9)


def test_normal_singular_on_tangent_developable(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    with pytest.raises((SingularPoint, TangentRuling)):
        surf.normal(1.0, 0.0)


def test_fundamental_forms_plane():
    plane = CurveDef.from_strings("s", "0", "0", -2, 2)
    surf = make_surface(plane, ExplicitTheta.from_string("0"), "0", "0", "1")
    # straight base curve: no Frenet frame, so build the plane differently
    c = CurveDef.from_strings("s", "0.001*s^2", "0", -2, 2)
    surf = make_surface(c, ExplicitTheta.from_string("0"), "0", "0", "1")
    smp = surf.sample(0.5, 0.3)
    assert smp.E == pytest.approx(1.0, abs=1e-5)
    assert smp.G == pytest.approx(1.0, abs=1e-8)
    assert abs(smp.F) < 1e-5
    assert abs(smp.K) < 1e-5


def test_fundamental_forms_tangent_developable_flat(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    smp = surf.sample(0.7, 0.5)
    assert abs(smp.K) < 1e-6


def test_fundamental_forms_helicoid_negative_K(helix):
    surf = make_surface(helix, ExplicitTheta.from_string("0"), "0", "1", "0")
    smp = surf.sample(1.0, 1e-3)  # just off the base curve
    assert smp.K < -1e-3


def test_gauss_equation_consistency(rmf_polynomial):
    smp = rmf_polynomial.sample(1.1, 0.4)
    W = smp.E * smp.G - smp.F ** 2
    assert W > 0
    assert smp.K == pytest.approx((smp.e * smp.g - smp.f ** 2) / W, abs=1e-12)


# ---------------------------------------------------------------------------
# classification


def test_classify_tangent_director(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    rep = classify(surf, n_s=51, n_v=9)
    assert rep.verdict == "yes"
    assert rep.special_case == "X=T"
    assert rep.max_interior_abs_K < 1e-5


def test_classify_proportional_normal_coeffs(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "2*s", "s")
    rep = classify(surf, n_s=51, n_v=9)
    assert rep.verdict == "yes"
    assert rep.special_case == "span{U,V}"
    key = "max |x2*x3' - x3*x2' + phi*(x2^2 + x3^2)|"
    assert rep.corollary_conditions[key] < 1e-12


def test_classify_nondevelopable(helix):
    c = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 1.0, 5.0)
    surf = make_surface(c, RotationMinimizing(0.0), "0", "s^2", "s")
    rep = classify(surf, n_s=51, n_v=9)
    assert rep.verdict == "no"
    assert rep.max_abs_det > 0.1
    assert rep.max_interior_abs_K > 1e-5


def test_classify_planar_sin_zero(helix):
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0.0, 2 * math.pi)
    surf = make_surface(circle, RotationMinimizing(math.pi), "1", "1", "0")
    rep = classify(surf, n_s=51, n_v=9)
    assert rep.verdict == "yes"
    assert rep.special_case == "span{T,U}"
    assert rep.corollary_conditions["max |kappa*x1*x2*sin(theta) - phi*x2^2|"] < 1e-9


def test_classify_binormal_of_the_rmf(helix):
    # X = V under the RMF: V' is parallel to T, so det(T, V, V') = 0
    rep = classify(make_surface(helix, RotationMinimizing(0.0), "0", "0", "1"))
    assert (rep.verdict, rep.special_case) == ("yes", "X=V")
    assert sorted(rep.corollary_conditions.values()) == [0.0, 0.0]


def test_classify_residuals_carry_the_frame_rotation(helix):
    # X = U with theta = s: det(T, U, U') = phi = theta' + tau = 1.8 on the
    # unit-speed helix, which both residuals of the X=U case must show.
    surf = make_surface(helix, ExplicitTheta.from_string("s"), "0", "1", "0")
    rep = classify(surf, n_s=51, n_v=9)
    assert rep.verdict == "no"
    assert rep.special_case == "X=U"
    assert rep.max_abs_det == pytest.approx(1.8, rel=1e-12)
    assert len(rep.corollary_conditions) == 2
    for residual in rep.corollary_conditions.values():
        assert residual == pytest.approx(rep.max_abs_det, rel=1e-12)
    assert not any("holds trivially" in note for note in rep.notes)


CUBIC = CurveDef.from_strings("s", "s^2", "s^3/3", -1.0, 1.0)

# (x1, x2, x3) -> the special case and its number of corollaries, one row per
# vanishing pattern; sin(s), s, 0 under the RMF from theta0 = 1.8 is a config
# whose corollary value the hand-expanded residual gave 1 ulp away from the
# closed numerator.
SPECIAL_CASES = [
    (("1", "s", "cos(s)"), "general", 0),
    (("sin(s)", "s", "0"), "span{T,U}", 1),
    (("1", "0", "s"), "span{T,V}", 1),
    (("0", "s", "cos(s)"), "span{U,V}", 1),
    (("1+s^2", "0", "0"), "X=T", 2),
    (("0", "cos(s)", "0"), "X=U", 2),
    (("0", "0", "exp(s)"), "X=V", 2),
]


@pytest.mark.parametrize("policy", [RotationMinimizing(1.8),
                                    ExplicitTheta.from_string("atan(s)")],
                         ids=["rmf", "explicit"])
@pytest.mark.parametrize("coeffs, case, n_corollaries", SPECIAL_CASES,
                         ids=[row[1] for row in SPECIAL_CASES])
def test_classify_corollaries_are_the_closed_det_numerator(policy, coeffs, case,
                                                           n_corollaries):
    surf = make_surface(CUBIC, policy, *coeffs)
    rep = classify(surf, n_s=101, n_v=2)
    assert rep.special_case == case
    s_vals = np.linspace(-1.0, 1.0, 101)
    ok = det_verdict(surf, s_vals)[2]
    worst = _max_abs(surf.det_numerator_closed(s_vals)[ok])
    assert len(rep.corollary_conditions) == n_corollaries
    for value in rep.corollary_conditions.values():
        assert value == worst  # bit for bit
    # x1 x2 = 0 on the grid where x2 vanishes, or x1 does and the RMF gives phi = 0
    trivial = case == "X=T" or case == "X=U" and isinstance(policy, RotationMinimizing)
    assert ("x1*x2 vanishes on the grid; condition holds trivially" in rep.notes) == trivial


def test_classify_scaling_invariance(helix):
    base = make_surface(helix, RotationMinimizing(0.0), "0", "s^2", "s")
    scaled = make_surface(helix, RotationMinimizing(0.0),
                          "0", "2.5*s^2", "2.5*s")
    r1 = classify(base, n_s=41, n_v=7)
    r2 = classify(scaled, n_s=41, n_v=7)
    assert r1.verdict == r2.verdict
    # det scales by lambda^2
    for s in (1.0, 2.0, 3.5):
        assert scaled.ruling_det(s) == pytest.approx(
            2.5 ** 2 * base.ruling_det(s), rel=1e-9)


def test_classify_K_cross_check(helix):
    # verdict and oracle agree on both a developable and a non-developable case
    dev = classify(make_surface(helix, RotationMinimizing(0.0), "0", "1", "0"),
                   n_s=31, n_v=7)
    assert dev.verdict == "yes" and dev.max_interior_abs_K < 1e-5
    c = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 1.0, 5.0)
    ndev = classify(make_surface(c, RotationMinimizing(0.0), "0", "s^2", "s"),
                    n_s=31, n_v=7)
    assert ndev.verdict == "no" and ndev.max_interior_abs_K > 1e-5


def test_classify_lists_nonfinite_K_as_skipped(helix, monkeypatch):
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    real = surf.sample
    monkeypatch.setattr(surf, "sample", lambda s, v: SurfaceSample(
        **{**fields(real(s, v)), "K": np.full(np.shape(real(s, v).K), np.nan)}))
    rep = classify(surf, n_s=13, n_v=5)
    bad = [s for s, reason in rep.skipped_samples if reason == "NonFiniteK"]
    assert len(bad) == 13 * 2  # every s-row at both interior v != 0
    assert rep.max_interior_abs_K == 0.0
    assert any("no interior K sample" in note for note in rep.notes)


def test_classify_lists_K_samples_whose_float_call_raises():
    # At v = +-1e200 the K stencil's step vanishes beside v, so the float call
    # raises SingularPoint at every interior sample: each s is listed once,
    # and the report says that no K sample was usable.
    surf = make_surface(HELIX_UP, RotationMinimizing(0.0), "0", "2*s", "s",
                        -1e200, 1e200)
    with np.errstate(all="ignore"):
        rep = classify(surf, n_s=13, n_v=5)
    s_vals = np.linspace(0.5, 5.0, 13).tolist()
    assert [list(x) for x in rep.skipped_samples] == [[s, "SingularPoint"]
                                                      for s in s_vals]
    assert rep.max_interior_abs_K == 0.0
    assert "no interior K sample was usable; the K cross-check is void" in rep.notes


def test_classify_lists_a_K_failure_once_beside_det_verdict():
    # kappa vanishes at the node s = 0: det_verdict skips it, and so does
    # every interior K sample there, under the same name
    c = CurveDef.from_strings("s", "s^3", "s^4", -1, 1)
    rep = classify(make_surface(c, RotationMinimizing(0.0), "0", "1", "0"),
                   n_s=13, n_v=5)
    assert [list(x) for x in rep.skipped_samples] == [[0.0, "VanishingCurvature"]]
    assert not any("K cross-check" in note for note in rep.notes)


def test_classify_notes_curvature_against_yes_verdict(helix):
    c = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 1.0, 5.0)
    surf = make_surface(c, RotationMinimizing(0.0), "0", "s^2", "s")
    assert not any("tol_K" in n for n in classify(surf, n_s=51, n_v=9).notes)
    rep = classify(surf, n_s=51, n_v=9, tol_dev=1e3)  # det alone now says "yes"
    assert rep.verdict == "yes" and rep.max_interior_abs_K > rep.tol_K
    assert any("tol_K" in n for n in rep.notes)


HELIX_UP = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 0.5, 5.0)


def test_overflowing_normal_is_nan_on_a_grid_and_raises_at_a_float():
    # |d_s x d_v| ~ 1e200 is finite, but its squared norm overflows: dividing
    # by the norm inf would give a zero "unit" normal
    surf = make_surface(HELIX_UP, RotationMinimizing(0.0), "0", "2*s", "s")
    with np.errstate(all="ignore"):
        assert np.isnan(surf.normal(np.linspace(0.5, 5.0, 7), 1e200)).all()
        with pytest.raises(FloatingPointError,
                           match=r"^\|d_s x d_v\| overflows at \(s=1.0, v=1e\+200\)$"):
            surf.normal(1.0, 1e200)


def test_overflowing_sample_normal_is_nan_on_a_grid_and_raises_at_a_float():
    # x2 = 1e100 makes both finite-difference partials about 1e100
    surf = make_surface(HELIX_UP, RotationMinimizing(0.0), "0", "1e100", "0")
    with np.errstate(all="ignore"):
        sample = surf.sample(np.linspace(0.5, 5.0, 7), 1.0)
        assert np.isnan(sample.normal).all() and np.isnan(sample.K).all()
        with pytest.raises(FloatingPointError,
                           match=r"^\|d_s x d_v\| overflows at \(s=1.0, v=1.0\)$"):
            surf.sample(1.0, 1.0)


def test_max_abs_counts_every_nan():
    assert _max_abs(np.array([1.0, -3.0, 2.0])) == 3.0
    assert math.isnan(_max_abs(np.array([1.0, math.nan])))
    rows = np.array([[1.0, -4.0, 0.5], [2.0, 3.0, -1.0]])
    assert _max_abs(rows) == 4.0 and type(_max_abs(rows)) is float
    rows[1, 2] = math.nan
    assert math.isnan(_max_abs(rows))
