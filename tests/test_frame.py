import math

import numpy as np
import pytest

from rmfruled.curve import CurveDef, frenet, tangent_data
from rmfruled.frame import (ExplicitTheta, FrameField, RotationMinimizing,
                            adapted_frame, double_reflection,
                            frame_derivatives, theta_rmf)

TWO_PI = 2 * math.pi


def _angle(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))


# ---------------------------------------------------------------------------
# theta integration


def test_theta_rmf_helix_linear(helix_2pi):
    grid = np.linspace(0, TWO_PI, 257)
    th = theta_rmf(helix_2pi, 0.0, grid)
    assert np.max(np.abs(th - (-0.8 * grid))) < 1e-12


def test_theta_rmf_planar_constant():
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0, TWO_PI)
    grid = np.linspace(0, TWO_PI, 65)
    th = theta_rmf(circle, 1.25, grid)
    assert np.max(np.abs(th - 1.25)) < 1e-14


def test_theta_rmf_fourth_order_convergence():
    # Reparametrized helix: same geometry, nonconstant |r'| tau, exact
    # angle -0.8 * (t + 0.3 sin t).
    c = CurveDef.from_strings("3/5*cos(s+0.3*sin(s))", "3/5*sin(s+0.3*sin(s))",
                              "4/5*(s+0.3*sin(s))", 0, TWO_PI)
    errs = []
    for n in (64, 128):
        grid = np.linspace(0, TWO_PI, n + 1)
        th = theta_rmf(c, 0.0, grid)
        exact = -0.8 * (grid + 0.3 * np.sin(grid))
        errs.append(np.max(np.abs(th - exact)))
    assert errs[0] / errs[1] > 12.0


def test_theta_rmf_requires_increasing_grid(helix_2pi):
    with pytest.raises(ValueError):
        theta_rmf(helix_2pi, 0.0, [0.0, 1.0, 0.5])


def test_theta_rmf_across_inflection():
    # Planar curve with an inflection at s = 0: N flips there, so theta must
    # jump by pi while U itself stays continuous.
    c = CurveDef.from_strings("s", "s^3/3", "0", -1, 1)
    field = FrameField(c, RotationMinimizing(0.0))
    _, af_m = field.frame_at(-0.5)
    _, af_p = field.frame_at(0.5)
    assert np.dot(af_m.U, af_p.U) > 1 - 1e-6  # U continuous across the flat point
    assert abs(abs(af_p.theta - af_m.theta) - math.pi) < 1e-6


# ---------------------------------------------------------------------------
# adapted frame


def test_adapted_frame_theta_zero(helix):
    fd = frenet(helix, 0.7)
    af = adapted_frame(fd, 0.0, 0.0)
    assert af.U == pytest.approx(fd.N)
    assert af.V == pytest.approx(fd.B)


def test_adapted_frame_quarter_turn(helix):
    fd = frenet(helix, 0.7)
    af = adapted_frame(fd, math.pi / 2, 0.0)
    assert af.U == pytest.approx(fd.B, abs=1e-15)
    assert af.V == pytest.approx(-fd.N, abs=1e-15)


def test_adapted_frame_helix_eighth_turn(helix):
    fd = frenet(helix, 0.0)
    af = adapted_frame(fd, math.pi / 4, 0.0)
    r = math.sqrt(2) / 2
    assert af.U == pytest.approx([-r, -0.4 * math.sqrt(2), 0.3 * math.sqrt(2)],
                                 abs=1e-12)


def test_adapted_frame_orthonormal(helix):
    fd = frenet(helix, 1.3)
    af = adapted_frame(fd, 2.1, 0.0)
    for a, b in ((af.T, af.U), (af.T, af.V), (af.U, af.V)):
        assert abs(np.dot(a, b)) < 1e-10
    assert np.cross(af.T, af.U) == pytest.approx(af.V, abs=1e-10)


# ---------------------------------------------------------------------------
# frame derivative rules


def test_rmf_derivative_parallel_to_tangent(helix_2pi):
    field = FrameField(helix_2pi, RotationMinimizing(0.0))
    fd, af = field.frame_at(1.0)
    _, dU, dV = frame_derivatives(fd, af)
    assert abs(np.dot(dU, af.U)) < 1e-9
    assert abs(np.dot(dU, af.V)) < 1e-9
    assert abs(np.dot(dV, af.V)) < 1e-9
    assert np.linalg.norm(np.cross(dU, fd.T)) < 1e-9


def test_frozen_theta_has_torsion_rotation_rate(helix):
    # theta' = 0 makes phi = tau = 0.8; U' picks up 0.8 V
    field = FrameField(helix, ExplicitTheta.from_string("0.4"))
    fd, af = field.frame_at(0.9)
    _, dU, _ = frame_derivatives(fd, af)
    assert np.dot(dU, af.V) == pytest.approx(0.8, abs=1e-12)
    assert np.dot(dU, fd.T) == pytest.approx(-0.6 * math.cos(0.4), abs=1e-12)


def test_planar_constant_theta_derivative():
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0, TWO_PI)
    field = FrameField(circle, ExplicitTheta.from_string("0.3"))
    fd, af = field.frame_at(1.0)
    _, dU, _ = frame_derivatives(fd, af)
    assert dU == pytest.approx(-fd.kappa * math.cos(0.3) * fd.T, abs=1e-12)


@pytest.mark.parametrize("policy", [RotationMinimizing(0.2),
                                    ExplicitTheta.from_string("0.5*s")])
def test_frame_derivatives_match_finite_differences(helix, policy):
    field = FrameField(helix, policy)
    h = 1e-4
    for s in np.linspace(-4, 4, 9):
        s = float(s)
        fd, af = field.frame_at(s)
        _, dU, dV = frame_derivatives(fd, af)
        _, af_m = field.frame_at(s - h)
        _, af_p = field.frame_at(s + h)
        assert (af_p.U - af_m.U) / (2 * h) / fd.speed == pytest.approx(dU, abs=1e-5)
        assert (af_p.V - af_m.V) / (2 * h) / fd.speed == pytest.approx(dV, abs=1e-5)


def test_rmf_minimality(helix_2pi):
    field = FrameField(helix_2pi, RotationMinimizing(0.0))
    for s in np.linspace(0.1, TWO_PI - 0.1, 23):
        fd, af = field.frame_at(float(s))
        _, dU, _ = frame_derivatives(fd, af)
        assert abs(np.dot(dU, af.V)) < 1e-6


# ---------------------------------------------------------------------------
# double reflection


def _helix_samples(c, n):
    ts = np.linspace(c.t_min, c.t_max, n)
    pts, tans = [], []
    for t in ts:
        pos, T, _ = tangent_data(c, float(t))
        pts.append(pos)
        tans.append(T)
    return ts, pts, tans


def test_double_reflection_straight_line(line):
    pts = [np.array([t, 0.0, 0.0]) for t in np.linspace(0, 5, 20)]
    tans = [np.array([1.0, 0.0, 0.0])] * 20
    u0 = np.array([0.0, 0.6, 0.8])
    U, V = double_reflection(pts, tans, u0)
    assert np.max(np.abs(U - u0)) < 1e-15
    assert np.allclose(V, np.cross(tans[0], u0))


def test_double_reflection_vs_exact_rmf(helix_2pi):
    ts, pts, tans = _helix_samples(helix_2pi, 1000)
    fd0 = frenet(helix_2pi, 0.0)
    U, _ = double_reflection(pts, tans, fd0.N)
    worst = 0.0
    for t, u in zip(ts, U):
        fd = frenet(helix_2pi, float(t))
        exact = adapted_frame(fd, -0.8 * float(t), 0.0).U
        worst = max(worst, _angle(u, exact))
    assert worst < 1e-5


def test_double_reflection_planar_circle():
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0, TWO_PI)
    ts, pts, tans = _helix_samples(circle, 300)
    u0 = frenet(circle, 0.0).N  # in-plane normal
    U, _ = double_reflection(pts, tans, u0)
    assert np.max(np.abs(U[:, 2])) < 1e-10


def test_double_reflection_rejects_bad_input():
    pts = [np.zeros(3), np.zeros(3)]
    tans = [np.array([1.0, 0, 0])] * 2
    with pytest.raises(ValueError):
        double_reflection(pts, tans, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        double_reflection([np.zeros(3), np.ones(3)], tans,
                          np.array([1.0, 0.0, 0.0]))  # not perpendicular


def test_double_reflection_fourth_order(helix_2pi):
    errs = []
    for n in (251, 501):
        ts, pts, tans = _helix_samples(helix_2pi, n)
        fd0 = frenet(helix_2pi, 0.0)
        U, _ = double_reflection(pts, tans, fd0.N)
        fd_end = frenet(helix_2pi, float(ts[-1]))
        exact = adapted_frame(fd_end, -0.8 * float(ts[-1]), 0.0).U
        errs.append(_angle(U[-1], exact))
    assert errs[0] / errs[1] > 8.0


@pytest.mark.parametrize("reparam", [False, True])
def test_theta_at_off_node_matches_closed_form(helix_2pi, reparam):
    # helix: theta = -0.8 t; reparametrized helix: theta = -0.8 (t + 0.3 sin t)
    if reparam:
        c = CurveDef.from_strings("3/5*cos(s+0.3*sin(s))", "3/5*sin(s+0.3*sin(s))",
                                  "4/5*(s+0.3*sin(s))", 0, TWO_PI)
        exact = lambda t: -0.8 * (t + 0.3 * math.sin(t))
        exact_rate = lambda t: -0.8 * (1.0 + 0.3 * math.cos(t))
    else:
        c = helix_2pi
        exact = lambda t: -0.8 * t
        exact_rate = lambda t: -0.8
    field = FrameField(c, RotationMinimizing(0.0))
    nodes = set(field._nodes.tolist())
    for t in np.linspace(0.01, TWO_PI - 0.01, 40):
        t = float(t)
        assert t not in nodes
        fd, af = field.frame_at(t)
        assert abs(af.theta - exact(t)) < 1e-12
        assert af.theta_prime == -fd.speed * fd.tau
        assert abs(af.theta_prime - exact_rate(t)) < 1e-12


def test_theta_at_bridges_from_flat_node_below():
    # kappa vanishes at s = 0, which is a table node: a query just above it
    # bridges from the last node below with a Frenet frame.
    c = CurveDef.from_strings("s", "s^3", "s^4", -1, 1)
    field = FrameField(c, RotationMinimizing(0.0))
    assert 0.0 in field._nodes.tolist()
    _, af_m = field.frame_at(-1e-4)
    _, af_p = field.frame_at(1e-4)
    assert float(np.dot(af_m.U, af_p.U)) > 1 - 1e-6
