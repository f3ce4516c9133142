import math

import numpy as np
import pytest

from rmfruled import frame
from rmfruled.curve import CurveDef, frenet, tangent_data
from rmfruled.errors import GeometryError, ParameterOutOfRange
from rmfruled.expr import ExprDomainError, ExprError
from rmfruled.frame import (TOL_TABLE, ExplicitTheta, FrameField,
                            RotationMinimizing, adapted_frame, double_reflection,
                            frame_derivatives, theta_rmf)
from rmfruled.record import fields

TWO_PI = 2 * math.pi


def _angle(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(np.dot(a, b)))


# ---------------------------------------------------------------------------
# theta integration


def test_theta_rmf_helix_linear(helix_2pi):
    grid = np.linspace(0, TWO_PI, 257)
    th = theta_rmf(helix_2pi, 0.0, grid).thetas
    assert np.max(np.abs(th - (-0.8 * grid))) < 1e-12


def test_theta_rmf_planar_constant():
    circle = CurveDef.from_strings("cos(s)", "sin(s)", "0", 0, TWO_PI)
    grid = np.linspace(0, TWO_PI, 65)
    th = theta_rmf(circle, 1.25, grid).thetas
    assert np.max(np.abs(th - 1.25)) < 1e-14


def test_theta_rmf_fourth_order_convergence():
    # Reparametrized helix: same geometry, nonconstant |r'| tau, exact
    # angle -0.8 * (t + 0.3 sin t).
    c = CurveDef.from_strings("3/5*cos(s+0.3*sin(s))", "3/5*sin(s+0.3*sin(s))",
                              "4/5*(s+0.3*sin(s))", 0, TWO_PI)
    errs = []
    for n in (64, 128):
        grid = np.linspace(0, TWO_PI, n + 1)
        th = theta_rmf(c, 0.0, grid).thetas
        exact = -0.8 * (grid + 0.3 * np.sin(grid))
        errs.append(np.max(np.abs(th - exact)))
    assert errs[0] / errs[1] > 12.0


def test_theta_rmf_requires_increasing_grid(helix_2pi):
    with pytest.raises(ValueError):
        theta_rmf(helix_2pi, 0.0, [0.0, 1.0, 0.5])


def test_theta_rmf_requires_two_nodes(helix_2pi):
    with pytest.raises(ValueError, match="at least two"):
        theta_rmf(helix_2pi, 0.0, [1.0])


def test_theta_rmf_across_inflection():
    # Planar curve with an inflection at s = 0: N flips there, so theta must
    # jump by pi while U itself stays continuous.
    c = CurveDef.from_strings("s", "s^3/3", "0", -1, 1)
    field = FrameField(c, RotationMinimizing(0.0))
    _, af_m = field.frame_at(-0.5)
    _, af_p = field.frame_at(0.5)
    assert np.dot(af_m.U, af_p.U) > 1 - 1e-6  # U continuous across the flat point
    assert abs(abs(af_p.theta - af_m.theta) - math.pi) < 1e-6


def test_angle_table_ends_where_the_curve_fails_between_nodes():
    # The pole sits at the midpoint of two table nodes alone: its rate is NaN,
    # and the bridge across it ends the job with the float call's error.  The
    # table is built at first use: a read of it, or a first frame query.
    c = CurveDef.from_strings("s", "s^2", "s^3+1/(s+0.49951171875)", -1, 1)
    for first_use in (lambda f: f.cells, lambda f: f.frame_at(0.5),
                      lambda f: f.frame_at(np.linspace(-1.0, 1.0, 11))):
        field = FrameField(c, RotationMinimizing(0.0))
        with pytest.raises(ExprDomainError, match=r"in 's\+0.49951171875'$"):
            first_use(field)


# ---------------------------------------------------------------------------
# angle-table size

# Helices a cos(w s), a sin(w s), b w s, whose angle is theta0 + rate (s - s0)
# with rate -w b / sqrt(a^2 + b^2): two bundled configs and two rmfbench-style
# draws, with the largest errors against that closed form of a 2048-cell
# table, at the nodes and at 40 off-node queries.
CLOSED_FORM_CURVES = {
    "proportional_normal_coeffs": (0.6, 1.0, 0.8, 0.5, 5.0, 5.2e-14, 5.2e-14),
    "tangent_ruling": (0.6, 1.0, 0.8, 0.0, TWO_PI, 3.6e-14, 3.5e-14),
    "helix": (1.3, 0.7, 0.6, -1.7, 1.9, 7.4e-15, 7.3e-15),
    "circle": (0.9, 1.2, 0.0, -0.8, 2.6, 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CURVES))
def test_angle_table_takes_256_cells_where_they_suffice(name):
    a, w, b, lo, hi, at_nodes, off_nodes = CLOSED_FORM_CURVES[name]
    c = CurveDef.from_strings(f"{a}*cos({w}*s)", f"{a}*sin({w}*s)", f"{b * w}*s", lo, hi)
    field = FrameField(c, RotationMinimizing(0.7))
    assert field.cells == 256 and len(field._nodes) == len(field._rates) == 257
    assert field.richardson <= TOL_TABLE
    exact = lambda t: 0.7 - w * b / math.hypot(a, b) * (t - lo)  # noqa: E731
    assert np.max(np.abs(field._thetas - exact(field._nodes))) <= at_nodes
    queries = np.linspace(lo + 0.01, hi - 0.01, 40)
    assert not set(queries.tolist()) & set(field._nodes.tolist())
    _, af = field.frame_at(queries)
    assert np.max(np.abs(af.theta - exact(queries))) <= off_nodes


TURNED_DOWN = {
    "twisted_cubic": ("s", "s^2", "s^3"),
    "flat_node": ("s", "s^3", "s^4"),
    "cusp": ("s^3", "s^2", "s^4"),
    "pole_between_nodes": ("s", "s^2", "s^3+1/(s+0.49951171875)"),
}


def _table_bytes(make):
    """The bytes of the (nodes, thetas, rates) that ``make`` builds, or the
    class and text of its error."""
    try:
        table = make()
    except Exception as err:  # compared as they are, whatever they are
        return type(err).__name__, str(err)
    return tuple(x.tobytes() for x in table)


@pytest.mark.parametrize("name", sorted(TURNED_DOWN))
def test_turned_down_table_is_the_2048_cell_table_bit_for_bit(name):
    c = CurveDef.from_strings(*TURNED_DOWN[name], -1, 1)

    def sized():
        field = FrameField(c, RotationMinimizing(0.3))
        assert field.cells == 2048
        return field._nodes, field._thetas, field._rates

    def cap():
        table = theta_rmf(c, 0.3, np.linspace(-1.0, 1.0, 2049))
        return table.nodes, table.thetas, table.rates
    assert _table_bytes(sized) == _table_bytes(cap)


def _counting_frenet(monkeypatch) -> list:
    """The sizes of the grids that ``frame``'s Frenet calls take."""
    counts = []

    def counted(c, t):
        counts.append(np.size(t))
        return frenet(c, t)
    monkeypatch.setattr(frame, "frenet", counted)
    return counts


def test_turned_down_table_evaluates_each_rate_once(monkeypatch):
    # The 2048-cell pass reuses the 513 rates of the 256-cell try: 2049 nodes
    # and 2048 midpoints in all, as without the try.
    counts = _counting_frenet(monkeypatch)
    field = FrameField(CurveDef.from_strings("s", "s^2", "s^3", -1, 1),
                       RotationMinimizing(0.0))
    assert field.cells == 2048 and counts == [513, 3584]


@pytest.mark.parametrize("xyz, cells, passes", [
    (("s", "s^2", "s^3"), 2048, [513 + 2 * 101, 3584 + 101]),
    (("3/5*cos(s)", "3/5*sin(s)", "4/5*s"), 256, [513 + 2 * 101]),
])
def test_first_grid_query_rides_on_the_table_passes(monkeypatch, xyz, cells, passes):
    # The first pass takes the 256-cell nodes and midpoints, the query and its
    # 256-cell panel midpoints; a turned-down table's pass adds the query's
    # 2048-cell panel midpoints alone.  A later query takes its own call.
    counts = _counting_frenet(monkeypatch)
    field = FrameField(CurveDef.from_strings(*xyz, -1, 1), RotationMinimizing(0.0))
    assert counts == []
    field.frame_at(np.linspace(-1.0, 1.0, 101))
    assert counts == passes and field.cells == cells
    field.frame_at(np.linspace(-0.5, 0.5, 7))
    assert counts == passes + [14]


def _frames_bytes(field, t):
    """The bytes of every field of the frames at t and of the angle table, or
    the class and text of the geometry or expression error of either."""
    try:
        fd, af = field.frame_at(t)
    except (GeometryError, ExprError) as err:
        return type(err).__name__, str(err)
    return [np.asarray(x).tobytes() for r in (fd, af, field.table)
            for x in fields(r).values()]


_G = np.linspace(-1.0, 1.0, 101)

MERGED = {
    "helix": (("3/5*cos(s)", "3/5*sin(s)", "4/5*s"), _G),
    "circle": (("cos(s)", "sin(s)", "0"), _G),
    "twisted_cubic": (("s", "s^2", "s^3"), _G),
    "flat_node": (("s", "s^3", "s^4"), _G),
    # s, s + h and s - h as verify stacks them, all within the range's slack
    "verify_stack": (("s", "s^2", "s^3"), np.concatenate([_G, _G + 1e-4, _G - 1e-4])),
    # the merged pass raises where the query is out of range, and the table's
    # bridge across the pole: the error is the one of the table or query alone
    "query_out_of_range": (("3/5*cos(s)", "3/5*sin(s)", "4/5*s"), _G * 1.5),
    "pole_between_nodes": (("s", "s^2", "s^3+1/(s+0.49951171875)"), _G),
}


@pytest.mark.parametrize("name", sorted(MERGED))
def test_first_grid_query_equals_a_query_on_a_table_built_before(name):
    xyz, t = MERGED[name]
    c = CurveDef.from_strings(*xyz, -1, 1)
    merged, alone = (FrameField(c, RotationMinimizing(0.3)) for _ in range(2))
    later = np.linspace(-0.9, 0.9, 13)  # after a failed merged pass too
    try:
        alone.table
    except (GeometryError, ExprError) as err:
        failed = type(err).__name__, str(err)
        assert _frames_bytes(merged, t) == _frames_bytes(merged, later) == failed
        return
    assert _frames_bytes(merged, t) == _frames_bytes(alone, t)
    assert _frames_bytes(merged, later) == _frames_bytes(alone, later)


def test_sized_table_needs_a_multiple_of_8_cells(helix_2pi):
    with pytest.raises(ValueError, match="multiple of 8 cells"):
        theta_rmf(helix_2pi, 0.0, np.linspace(0.0, 1.0, 13), tol=TOL_TABLE)


def _reference(c: CurveDef, n: int = 2 ** 16) -> np.ndarray:
    """theta - theta0 at every 256th node of an n-cell Simpson table, each
    cell's steps summed by ``math.fsum``, so that rounding stays far below
    the truncation error of 256 cells."""
    g = np.linspace(c.t_min, c.t_max, n + 1)
    r, m = (frame._theta_rate(frenet(c, t)) for t in (g, 0.5 * (g[:-1] + g[1:])))
    steps = (np.diff(g) * (r[:-1] + 4.0 * m + r[1:]) / 6.0).reshape(256, -1)
    cells = [math.fsum(row) for row in steps.tolist()]
    return np.array([math.fsum(cells[:k]) for k in range(257)])


@pytest.mark.parametrize("xyz, lo, hi", [
    (("cos(s)", "sin(s)", "exp(s)"), 0.0, 1.0),
    (("cos(s)", "sin(s)", "exp(s)"), 0.5, 2.0),
    (("cos(s)", "sin(s)", "0.5*s+0.1*s^2"), 0.0, 1.0),
    (("cos(s)", "sin(s)", "0.5*s+0.1*s^2"), 0.5, 2.0),
    (("cos(s)", "sin(s)", "s+0.05*sin(s)"), 0.0, 1.0),
])
def test_richardson_sum_bounds_the_256_cell_error(xyz, lo, hi):
    # With no tolerance to fail, theta_rmf keeps the 256-cell table.  The
    # Richardson sum, without the usual 1/15, is at least its error against a
    # 2^16-cell table; FrameField takes it exactly where the sum is small.
    c = CurveDef.from_strings(*xyz, lo, hi)
    table = theta_rmf(c, 0.0, np.linspace(lo, hi, 2049), tol=math.inf)
    assert len(table.nodes) == 257
    assert np.max(np.abs(table.thetas - _reference(c))) <= table.richardson
    field = FrameField(c, RotationMinimizing(0.0))
    assert field.cells == (256 if table.richardson <= TOL_TABLE else 2048)


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
    with pytest.raises(ValueError, match="equal-length"):
        double_reflection([np.zeros(3), np.ones(3), 2 * np.ones(3)], tans,
                          np.array([0.0, 1.0, 0.0]))


def test_double_reflection_keeps_u_when_the_tangents_agree():
    # the reflected tangent equals the next one: the second reflection is void
    tans = [np.array([0.0, 1.0, 0.0])] * 2
    U, _ = double_reflection([np.zeros(3), np.array([1.0, 0.0, 0.0])], tans,
                             np.array([0.0, 0.0, 1.0]))
    assert U.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


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


def test_non_finite_explicit_theta_is_located(helix):
    # 1e200*1e200*s overflows without a DSL error: a float call names theta
    # and s, and a grid is NaN there.
    field = FrameField(helix, ExplicitTheta.from_string("1e200*1e200*s"))
    with pytest.raises(ExprDomainError, match=r"theta=inf, theta'=inf .* at s=0\.5"):
        field.frame_at(0.5)
    _, af = field.frame_at(np.array([-1.0, 0.0, 0.5]))
    assert np.isnan(af.theta).all() and np.isnan(af.theta_prime).all()
    assert np.isnan(af.U).all() and np.isnan(af.V).all()


@pytest.mark.parametrize("t", [math.nan, np.array([1.0, math.nan]), math.inf],
                         ids=["float-nan", "grid-nan", "float-inf"])
def test_non_finite_query_is_out_of_range(helix_2pi, t):
    # the panel lookup runs first and takes a NaN or infinite t to panel 0;
    # the Frenet call then names t as outside the range
    field = FrameField(helix_2pi, RotationMinimizing(0.0))
    with pytest.raises(ParameterOutOfRange, match="outside"):
        field.frame_at(t)
