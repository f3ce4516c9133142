"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured value against its pinned tolerance."""

import json
import math

import numpy as np

from conftest import CONFIGS, make_surface
from rmfruled import invariants as inv
from rmfruled.cli import main
from rmfruled.curve import CurveDef, frenet, tangent_data
from rmfruled.frame import (RotationMinimizing, adapted_frame,
                            double_reflection, theta_rmf)
from rmfruled.ruled import classify

TWO_PI = 2 * math.pi


def _report(name, value, tol, ok=None):
    if ok is None:
        ok = value < tol
    print(f"{'PASS' if ok else 'FAIL'}: {name}  (measured {value:.3e}, "
          f"tolerance {tol:.1e})")
    assert ok, f"{name}: {value} vs tolerance {tol}"


def _column_max_abs(rep, name):
    """max |value| over one column of a base-curve table, as Python's max."""
    return max(np.abs(rep.table[:, inv.COLUMNS.index(name)]).tolist())


def test_criterion_01_helix_apparatus(helix):
    worst = 0.0
    for s in np.linspace(-5, 5, 100):
        fd = frenet(helix, float(s))
        worst = max(worst, abs(fd.kappa - 0.6), abs(fd.tau - 0.8))
    _report("1 helix kappa=0.6 tau=0.8 at 100 samples", worst, 1e-9)


def test_criterion_02_rmf_angle_exactness(helix_2pi):
    grid = np.linspace(0, TWO_PI, 257)
    th = theta_rmf(helix_2pi, 0.25, grid)
    err = float(np.max(np.abs(th - (0.25 - 0.8 * grid))))
    _report("2a rmf angle matches -0.8 s + theta0 at 256 intervals", err, 1e-8)
    # 4th-order step check needs a nonconstant integrand: same helix under a
    # reparametrization t -> t + 0.3 sin t, exact angle -0.8 (t + 0.3 sin t).
    c = CurveDef.from_strings("3/5*cos(s+0.3*sin(s))", "3/5*sin(s+0.3*sin(s))",
                              "4/5*(s+0.3*sin(s))", 0, TWO_PI)
    errs = []
    for n in (64, 128):
        g = np.linspace(0, TWO_PI, n + 1)
        t = theta_rmf(c, 0.0, g)
        errs.append(float(np.max(np.abs(t - (-0.8 * (g + 0.3 * np.sin(g)))))))
    ratio = errs[0] / errs[1]
    _report("2b halving the step shrinks the angle error >= 12x", ratio, 12.0,
            ok=ratio >= 12.0)


def _helix_samples(c, n):
    ts = np.linspace(c.t_min, c.t_max, n)
    pts, tans = [], []
    for t in ts:
        pos, T, _ = tangent_data(c, float(t))
        pts.append(pos)
        tans.append(T)
    return ts, pts, tans


def _dr_max_angle_error(c, n):
    ts, pts, tans = _helix_samples(c, n)
    U, _ = double_reflection(pts, tans, frenet(c, 0.0).N)
    worst = 0.0
    for t, u in zip(ts, U):
        fd = frenet(c, float(t))
        exact = adapted_frame(fd, -0.8 * float(t), 0.0).U
        worst = max(worst, math.atan2(np.linalg.norm(np.cross(u, exact)),
                                      float(np.dot(u, exact))))
    return worst


def test_criterion_03_double_reflection(helix_2pi):
    err = _dr_max_angle_error(helix_2pi, 1000)
    _report("3a double reflection vs exact rmf at 1000 samples", err, 1e-5)
    coarse = _dr_max_angle_error(helix_2pi, 251)
    fine = _dr_max_angle_error(helix_2pi, 501)
    ratio = coarse / fine
    _report("3b double reflection refines at ~4th order", ratio, 8.0,
            ok=ratio >= 8.0)


def _example_grid():
    return [float(s) for s in np.linspace(-5, 5, 201) if abs(s) > 1e-6]


def test_criterion_04_geodesic_example(geodesic_example):
    grid = _example_grid()
    rep = inv.base_curve_report(geodesic_example, grid)
    closed = _column_max_abs(rep, "k_g")
    _report("4a geodesic example: closed-form |k_g|", closed, 1e-9)
    numeric = max(abs(inv.geodesic_curvature_numeric(geodesic_example, s))
                  for s in grid[::5])
    _report("4b geodesic example: <NxT,T'> oracle |k_g|", numeric, 1e-5)


def test_criterion_05_asymptotic_example(asymptotic_example):
    grid = _example_grid()
    rep = inv.base_curve_report(asymptotic_example, grid)
    closed = _column_max_abs(rep, "k_n")
    _report("5a asymptotic example: closed-form |k_n|", closed, 1e-9)
    numeric = max(abs(inv.normal_curvature_numeric(asymptotic_example, s))
                  for s in grid[::5])
    _report("5b asymptotic example: <r'',N> oracle |k_n|", numeric, 1e-5)


def test_criterion_06_identities():
    rng = np.random.default_rng(42)
    worst_pyth, worst_prod = 0.0, 0.0
    n = 0
    while n < 1000:
        x2, x3 = rng.uniform(-2, 2, 2)
        if x2 * x2 + x3 * x3 < 1e-6:
            continue
        n += 1
        th = rng.uniform(-math.pi, math.pi)
        k = rng.uniform(1e-3, 3.0)
        kg = inv.geodesic_curvature(x2, x3, th, k)
        kn = inv.normal_curvature(x2, x3, th, k)
        tg = inv.geodesic_torsion(x2, x3, th, k)
        worst_pyth = max(worst_pyth, abs(kg * kg + kn * kn - k * k) / (k * k))
        worst_prod = max(worst_prod,
                         abs(tg + kg * kn) / max(1e-300, abs(tg), abs(kg * kn)))
    _report("6a k_g^2 + k_n^2 = kappa^2 (relative)", worst_pyth, 1e-12)
    _report("6b tau_g = -k_g k_n (relative)", worst_prod, 1e-12)


def test_criterion_07_developability_suite(helix):
    # (a) tangent director
    tangent = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    worst_p = max(abs(tangent.distribution_parameter(float(s)))
                  for s in np.linspace(-4.5, 4.5, 61))
    _report("7a X=T: distribution parameter == 0", worst_p, 1e-12)
    rep_t = classify(tangent, 61, 9)
    _report("7a X=T: verdict developable", rep_t.max_abs_det, rep_t.tol_dev,
            ok=rep_t.verdict == "yes")
    # (b) normal-plane unit director under the RMF
    u_dir = make_surface(helix, RotationMinimizing(0.0), "0", "1", "0")
    worst_det = max(abs(u_dir.ruling_det(float(s)))
                    for s in np.linspace(-4.5, 4.5, 61))
    _report("7b X=U under rmf: |det(T,X,X')|", worst_det, 1e-10)
    # (c) proportional vs non-proportional normal-plane coefficients
    c15 = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 1.0, 5.0)
    pos = classify(make_surface(c15, RotationMinimizing(0.0), "0", "2*s", "s"),
                   61, 9)
    _report("7c x2=2s,x3=s: developable", pos.max_abs_det, pos.tol_dev,
            ok=pos.verdict == "yes")
    neg = classify(make_surface(c15, RotationMinimizing(0.0), "0", "s^2", "s"),
                   61, 9)
    _report("7c x2=s^2,x3=s: max |det| > 0.1 and non-developable",
            neg.max_abs_det, 0.1,
            ok=neg.verdict == "no" and neg.max_abs_det > 0.1)
    # (d) Gaussian-curvature cross-check on all four cases
    for name, rep in (("X=T", rep_t), ("x2=2s,x3=s", pos)):
        _report(f"7d {name}: developable has max interior |K| < 1e-5",
                rep.max_interior_abs_K, 1e-5)
    rep_u = classify(u_dir, 61, 9)
    _report("7d X=U: developable has max interior |K| < 1e-5",
            rep_u.max_interior_abs_K, 1e-5)
    _report("7d non-developable has |K| > 1e-5 somewhere",
            neg.max_interior_abs_K, 1e-5,
            ok=neg.max_interior_abs_K > 1e-5)


def test_criterion_08_closed_form_director_derivative(helix):
    rng = np.random.default_rng(7)
    h = 1e-4
    worst = 0.0
    for _ in range(5):
        coeffs = ["%.3f+%.3f*s+%.3f*s^2" % tuple(rng.uniform(-1, 1, 3))
                  for _ in range(3)]
        surf = make_surface(helix, RotationMinimizing(float(rng.uniform(0, 2))),
                            *coeffs)
        for s in np.linspace(-4, 4, 17):
            s = float(s)
            _, world = surf.director_derivative_closed(s)
            fd, _ = surf.frame(s)
            fdiff = (surf.director(s + h) - surf.director(s - h)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(world - fdiff / fd.speed))))
    _report("8 closed X' vs finite differences, 5 random directors", worst, 1e-6)


def test_criterion_09_distribution_parameter_special_cases(helix):
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0.0, TWO_PI)
    cases = [
        ("span{T,U}", make_surface(circle, RotationMinimizing(0.7),
                                   "s", "1+s^2", "0")),
        ("span{T,V}", make_surface(circle, RotationMinimizing(0.7),
                                   "s", "0", "1+s^2")),
        ("span{U,V}", make_surface(helix, RotationMinimizing(0.0),
                                   "0", "s^2", "s")),
    ]
    worst = 0.0
    for name, surf in cases:
        c = surf.sdef.curve
        for s in np.linspace(c.t_min + 0.3, c.t_max - 0.3, 21):
            s = float(s)
            general = surf.distribution_parameter(s)
            special = surf.distribution_parameter_closed(s)
            worst = max(worst, abs(general - special))
    _report("9 span-case distribution parameter vs det/|X'|^2", worst, 1e-9)


def test_criterion_10_geodesic_torsion_definition(helix):
    varying = make_surface(helix, RotationMinimizing(0.0), "0", "s^2", "s")
    worst = 0.0
    for s in np.linspace(0.5, 4.5, 17):
        s = float(s)
        fd, af = varying.frame(s)
        _, j2, j3 = varying.coefficients(s)
        tg = inv.geodesic_torsion(j2.value, j3.value, af.theta, fd.kappa)
        worst = max(worst, abs(tg - inv.geodesic_torsion_numeric(varying, s)))
    _report("10a <NxN',T'> oracle matches closed tau_g under rmf", worst, 1e-5)
    const = make_surface(helix, RotationMinimizing(0.3), "0", "0.6", "0.8")
    grid = np.linspace(-4, 4, 33)
    rho = max(abs(inv.curvature_line_residual_numeric(const, float(s)))
              for s in grid[::4])
    _report("10b constant (x2,x3) rmf: standard residual rho", rho, 1e-6)
    rep = inv.base_curve_report(const, grid)
    res = _column_max_abs(rep, "res_curvature_line")
    _report("10c ... while the tan(2 theta) residual stays nonzero", res, 1e-3,
            ok=res > 1e-3)


def test_criterion_11_cli_determinism(tmp_path):
    outs = []
    for run in range(2):
        obj = tmp_path / f"m{run}.obj"
        ver = tmp_path / f"v{run}.json"
        assert main(["surface", "--config", str(CONFIGS / "example1.json"),
                     "--out", str(obj)]) == 0
        assert main(["verify", "--config", str(CONFIGS / "example1.json"),
                     "--out", str(ver)]) == 0
        outs.append((obj.read_bytes(), ver.read_bytes()))
    same = outs[0] == outs[1]
    _report("11 surface+verify outputs byte-identical across runs",
            0.0 if same else 1.0, 1.0, ok=same)
    assert json.loads(outs[0][1].decode())["pass"] is True
