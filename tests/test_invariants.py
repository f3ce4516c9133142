import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_surface
from rmfruled import invariants as inv
from rmfruled.errors import TangentRuling
from rmfruled.frame import ExplicitTheta, RotationMinimizing

_coef = st.floats(min_value=-2.0, max_value=2.0)
_angle = st.floats(min_value=-math.pi, max_value=math.pi)
_kappa = st.floats(min_value=1e-3, max_value=3.0)


def test_geodesic_curvature_reduces_to_kappa():
    assert inv.geodesic_curvature(1.0, 0.0, 0.0, 0.6) == pytest.approx(0.6)


def test_normal_curvature_reduces_to_minus_kappa():
    assert inv.normal_curvature(0.0, 1.0, 0.0, 0.6) == pytest.approx(-0.6)


def test_geodesic_condition_tan_theta():
    # tan(theta) = x2/x3 kills the geodesic curvature
    x2, x3 = 1.3, 0.7
    th = math.atan2(x2, x3)
    assert abs(inv.geodesic_curvature(x2, x3, th, 0.9)) < 1e-15


def test_asymptotic_condition_tan_theta():
    x2, x3 = 1.3, 0.7
    th = math.atan2(-x3, x2)
    assert abs(inv.normal_curvature(x2, x3, th, 0.9)) < 1e-15


def test_torsion_condition_tan_two_theta():
    x2, x3 = 1.3, 0.7
    th = 0.5 * math.atan2(2 * x2 * x3, x3 * x3 - x2 * x2)
    assert abs(inv.geodesic_torsion(x2, x3, th, 0.9)) < 1e-15


def test_geodesic_torsion_half_angle_form():
    # x3 = 0 leaves (kappa^2/2) sin(2 theta)
    k, th = 1.1, 0.6
    assert inv.geodesic_torsion(1.0, 0.0, th, k) == pytest.approx(
        0.5 * k * k * math.sin(2 * th))
    assert abs(inv.geodesic_torsion(1.0, 0.0, 0.0, k)) < 1e-15


def test_tangent_ruling_rejected():
    with pytest.raises(TangentRuling):
        inv.geodesic_curvature(0.0, 0.0, 0.1, 1.0)


@given(_coef, _coef, _angle, _kappa)
@settings(max_examples=1000)
def test_pythagoras_identity(x2, x3, th, k):
    if x2 * x2 + x3 * x3 < 1e-6:
        return
    kg = inv.geodesic_curvature(x2, x3, th, k)
    kn = inv.normal_curvature(x2, x3, th, k)
    assert kg * kg + kn * kn == pytest.approx(k * k, rel=1e-12)


@given(_coef, _coef, _angle, _kappa)
@settings(max_examples=1000)
def test_product_identity(x2, x3, th, k):
    if x2 * x2 + x3 * x3 < 1e-6:
        return
    kg = inv.geodesic_curvature(x2, x3, th, k)
    kn = inv.normal_curvature(x2, x3, th, k)
    tg = inv.geodesic_torsion(x2, x3, th, k)
    scale = max(1.0, abs(tg))
    assert abs(tg + kg * kn) < 1e-12 * scale


# ---------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize("policy_name", ["rmf", "explicit"])
def test_curvature_oracles(helix, policy_name):
    policy = (RotationMinimizing(0.3) if policy_name == "rmf"
              else ExplicitTheta.from_string("0.2*s"))
    surf = make_surface(helix, policy, "s", "1+s^2", "s")
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        fd, af = surf.frame(s)
        _, j2, j3 = surf.coefficients(s)
        kg = inv.geodesic_curvature(j2.value, j3.value, af.theta, fd.kappa)
        kn = inv.normal_curvature(j2.value, j3.value, af.theta, fd.kappa)
        assert abs(kg - inv.geodesic_curvature_numeric(surf, s)) < 1e-6
        assert abs(kn - inv.normal_curvature_numeric(surf, s)) < 1e-6


def test_geodesic_torsion_oracle(rmf_polynomial):
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        fd, af = rmf_polynomial.frame(s)
        _, j2, j3 = rmf_polynomial.coefficients(s)
        tg = inv.geodesic_torsion(j2.value, j3.value, af.theta, fd.kappa)
        assert abs(tg - inv.geodesic_torsion_numeric(rmf_polynomial, s)) < 1e-5


def test_curvature_line_residual_closed_vs_fd(rmf_polynomial):
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        closed = inv.curvature_line_residual_closed(rmf_polynomial, s)
        fd_val = inv.curvature_line_residual_numeric(rmf_polynomial, s)
        assert abs(closed - fd_val) < 1e-5


def test_constant_coefficients_rmf_is_curvature_line(helix):
    # constant (x2, x3) in an RMF: the Rodrigues residual vanishes for any
    # theta0, while the tan(2 theta) residual is generically nonzero.
    surf = make_surface(helix, RotationMinimizing(0.3), "0", "0.6", "0.8")
    rep = inv.base_curve_report(surf, np.linspace(-4, 4, 33))
    assert rep.is_curvature_line_rodrigues
    assert not rep.is_curvature_line_frame
    res = rep.table[:, inv.COLUMNS.index("res_curvature_line")]
    assert max(np.abs(res).tolist()) > 1e-3


def test_normal_plane_rmf_is_curvature_line(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    for s in (-2.0, 0.5, 3.0):
        assert abs(inv.curvature_line_residual_closed(surf, s)) < 1e-12


def test_curvature_line_residual_general(helix):
    # x2 = s^2, x3 = s under RMF: rho = (x2' x3 - x2 x3')/(x2^2 + x3^2)
    surf = make_surface(helix, RotationMinimizing(0.0), "0", "s^2", "s")
    for s in (0.5, 1.0, 2.0):
        expected = (2 * s * s - s * s) / (s ** 4 + s ** 2)
        assert inv.curvature_line_residual_closed(surf, s) == pytest.approx(
            expected, abs=1e-12)
        assert inv.curvature_line_residual_numeric(surf, s) == pytest.approx(
            expected, abs=1e-5)
        assert expected != 0.0


# ---------------------------------------------------------------------------
# reports


def test_report_geodesic_example(geodesic_example):
    grid = [s for s in np.linspace(-5, 5, 101) if abs(s) > 1e-6]
    rep = inv.base_curve_report(geodesic_example, grid)
    assert rep.is_geodesic
    assert not rep.is_asymptotic


def test_report_asymptotic_example(asymptotic_example):
    grid = [s for s in np.linspace(-5, 5, 101) if abs(s) > 1e-6]
    rep = inv.base_curve_report(asymptotic_example, grid)
    assert rep.is_asymptotic
    assert not rep.is_geodesic


def test_report_tangent_director_flag(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    rep = inv.base_curve_report(surf, np.linspace(-4, 4, 21))
    assert rep.director_parallel_tangent
    assert not rep.is_geodesic and not rep.is_asymptotic


def test_report_excludes_pointwise_tangent_samples(geodesic_example):
    rep = inv.base_curve_report(geodesic_example, np.linspace(-5, 5, 101))
    assert rep.excluded == [0.0]
    assert not rep.director_parallel_tangent
    assert rep.is_geodesic
