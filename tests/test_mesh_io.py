import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, make_surface
from rmfruled.cli import load_config, main
from rmfruled.curve import CurveDef
from rmfruled.errors import GeometryError
from rmfruled.frame import ExplicitTheta, RotationMinimizing
from rmfruled.invariants import BaseCurveReport, base_curve_report
from rmfruled.mesh_io import (CSV_COLUMNS, Mesh, _face_tokens, _number_text,
                              samples_to_csv, tessellate, write_obj, write_report)
from rmfruled.record import fields
from rmfruled.ruled import ClassificationReport, RuledSurface, classify


def read_obj(text: str) -> Mesh:
    """Parse the OBJ subset produced by ``write_obj``."""
    verts, norms, faces = [], [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "vn":
            norms.append(np.array([float(x) for x in parts[1:4]]))
        elif parts[0] == "f":
            faces.append([int(p.split("//")[0]) - 1 for p in parts[1:4]])
    normals = np.array(norms) if norms else np.full((len(verts), 3), np.nan)
    return Mesh(np.array(verts), normals, np.array(faces, dtype=int), not norms)


@pytest.fixture(scope="module")
def strip():
    # nearly-straight base curve with a constant perpendicular ruling: a strip
    c = CurveDef.from_strings("s", "0.001*s^2", "0", 0, 1)
    return make_surface(c, ExplicitTheta.from_string("0"), "0", "0", "1")


def test_plane_strip_two_by_two(strip):
    mesh = tessellate(strip, 2, 2)
    assert mesh.vertices.shape == (4, 3)
    assert mesh.faces.shape == (2, 3)
    assert not mesh.flat_shaded
    n0 = mesh.normals[0]
    for n in mesh.normals:
        assert n == pytest.approx(n0, abs=5e-3)


def test_grid_counts(geodesic_example):
    mesh = tessellate(geodesic_example, 101, 11)
    assert mesh.vertices.shape == (101 * 11, 3)
    assert mesh.faces.shape == (100 * 10 * 2, 3)


def test_vertices_are_exact_surface_points(geodesic_example):
    mesh = tessellate(geodesic_example, 11, 5)
    s_vals = np.linspace(-5, 5, 11)
    v_vals = np.linspace(-1, 1, 5)
    for i, s in enumerate(s_vals):
        for j, v in enumerate(v_vals):
            assert np.array_equal(mesh.vertices[i * 5 + j],
                                  geodesic_example.point(float(s), float(v)))


def test_normals_unit_length(rmf_polynomial):
    mesh = tessellate(rmf_polynomial, 21, 7)
    assert mesh.normals.shape == (21 * 7, 3)
    for n in mesh.normals:
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-9)


def test_tangent_director_flags_flat_shaded(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    mesh = tessellate(surf, 11, 5)
    assert mesh.flat_shaded
    # the v = 0 column is the singular locus
    for i in range(11):
        assert np.isnan(mesh.normals[i * 5 + 2]).all()


def test_tessellate_needs_two_rows_each_way(geodesic_example):
    with pytest.raises(ValueError):
        tessellate(geodesic_example, 1, 5)


def test_face_indices_in_range(geodesic_example):
    mesh = tessellate(geodesic_example, 13, 6)
    assert mesh.faces.min() >= 0
    assert mesh.faces.max() < len(mesh.vertices)


def test_faces_ccw_wrt_normals(strip):
    mesh = tessellate(strip, 6, 4)
    for tri in mesh.faces:
        a, b, c = (mesh.vertices[k] for k in tri)
        n = np.mean([mesh.normals[k] for k in tri], axis=0)
        assert float(np.dot(np.cross(b - a, c - a), n)) > 0


def test_obj_single_triangle_counts(strip):
    mesh = tessellate(strip, 2, 2)
    text = write_obj(mesh)
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("vn ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2


def test_obj_write_parse_write_idempotent(rmf_polynomial):
    mesh = tessellate(rmf_polynomial, 9, 5)
    text = write_obj(mesh)
    assert write_obj(read_obj(text)) == text


def test_obj_deterministic(geodesic_example):
    m1 = tessellate(geodesic_example, 21, 5)
    m2 = tessellate(geodesic_example, 21, 5)
    assert write_obj(m1) == write_obj(m2)


def _reference_faces(verts, normals, n_s, n_v):
    """Per-quad loop: split along the shorter diagonal, then wind each
    triangle counterclockwise about the mean of its known vertex normals."""
    faces = []
    for i in range(n_s - 1):
        for j in range(n_v - 1):
            a, b = i * n_v + j, (i + 1) * n_v + j
            c, d = i * n_v + j + 1, (i + 1) * n_v + j + 1
            if np.linalg.norm(verts[a] - verts[d]) <= np.linalg.norm(verts[b] - verts[c]):
                tris = ((a, b, d), (a, d, c))
            else:
                tris = ((a, b, c), (b, d, c))
            for tri in tris:
                ref = [normals[k] for k in tri if not np.isnan(normals[k]).any()]
                if ref:
                    p, q, r = (verts[k] for k in tri)
                    if float(np.dot(np.cross(q - p, r - p), np.mean(ref, axis=0))) < 0.0:
                        tri = (tri[0], tri[2], tri[1])
                faces.append(tri)
    return np.array(faces, dtype=int)


CONFIG_NAMES = ("example1", "example2", "planar_cos_zero", "planar_sin_zero",
                "proportional_normal_coeffs", "tangent_ruling")


def _surfaces():
    for name in CONFIG_NAMES:
        yield name, lambda name=name: RuledSurface(
            load_config(str(CONFIGS / f"{name}.json")).surface)
    # the base curve's normal is missing at s = 0, next to triangles that the
    # known normals alone must flip
    helix = CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", -2, 2)
    yield "missing-normal-flips", lambda: make_surface(
        helix, ExplicitTheta.from_string("atan(s)"), "1", "s", "s")


@pytest.mark.parametrize("build", [pytest.param(b, id=n) for n, b in _surfaces()])
def test_rows_equal_per_vertex_evaluation(build):
    surface = build()
    sdef = surface.sdef
    n_s, n_v = 21, 7
    mesh = tessellate(surface, n_s, n_v)
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    k = 0
    for s in s_vals.tolist():
        for v in v_vals.tolist():
            assert mesh.vertices[k].tobytes() == surface.point(s, v).tobytes()
            try:
                n = surface.normal(s, v)
            except GeometryError:
                assert np.isnan(mesh.normals[k]).all()
            else:
                assert mesh.normals[k].tobytes() == n.tobytes()
            k += 1
    assert mesh.flat_shaded == np.isnan(mesh.normals).any()
    assert np.array_equal(mesh.faces,
                          _reference_faces(mesh.vertices, mesh.normals, n_s, n_v))


def _reference_obj(mesh):
    """Per-value loop: one ``%`` call per coordinate and one f-string per face."""
    lines = []
    for v in mesh.vertices:
        lines.append("v %s %s %s" % tuple("%.9g" % x for x in v))
    if not mesh.flat_shaded:
        for n in mesh.normals:
            lines.append("vn %s %s %s" % tuple("%.9g" % x for x in n))
    for f in mesh.faces:
        i, j, k = (int(x) + 1 for x in f)
        if mesh.flat_shaded:
            lines.append(f"f {i} {j} {k}")
        else:
            lines.append(f"f {i}//{i} {j}//{j} {k}//{k}")
    return "\n".join(lines) + "\n"


def _reference_frames(surface, n_s):
    """Per-s loop: one float ``frame`` call and one ``%`` call per value."""
    curve = surface.sdef.curve
    cols = (["s", "kappa", "tau", "theta"]
            + [f"{v}_{a}" for v in ("T", "N", "B", "U", "V") for a in "xyz"])
    lines = [",".join(cols)]
    for s in np.linspace(curve.t_min, curve.t_max, n_s):
        fd, af = surface.frame(float(s))
        row = [s, fd.kappa, fd.tau, af.theta]
        for vec in (fd.T, fd.N, fd.B, af.U, af.V):
            row.extend(vec)
        lines.append(",".join("%.12g" % x for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_s,n_v", [(101, 11), (401, 41)])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_obj_text_equals_per_value_reference(name, n_s, n_v):
    surface = RuledSurface(load_config(str(CONFIGS / f"{name}.json")).surface)
    mesh = tessellate(surface, n_s, n_v)
    assert write_obj(mesh) == _reference_obj(mesh)


@pytest.mark.parametrize("n_s", [101, 401])
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_frames_text_equals_per_s_reference(tmp_path, name, n_s):
    cfg, out = CONFIGS / f"{name}.json", tmp_path / "frames.csv"
    assert main(["frames", "--config", str(cfg), "--out", str(out),
                 "--samples", str(n_s)]) == 0
    surface = RuledSurface(load_config(str(cfg)).surface)
    assert out.read_text() == _reference_frames(surface, n_s)


def _hand_built_mesh(flat_shaded):
    big = 2 ** 31 + 7
    vertices = np.array([[-0.0, 5e-324, 1e300], [123456789.5, -1e-300, 0.1],
                         [np.pi, -2.5, 1e16 + 2.0]])
    normals = (np.full((3, 3), np.nan) if flat_shaded else
               np.array([[-0.0, 1.0, 0.0], [0.6, -0.8, 5e-324], [1e-300, 0.0, -1.0]]))
    faces = np.array([[0, 1, 2], [big, big + 1, 2 ** 40], [2, 0, 1]])
    return Mesh(vertices, normals, faces, flat_shaded)


@pytest.mark.parametrize("flat_shaded", [False, True])
def test_obj_text_of_hand_built_mesh_equals_reference(flat_shaded):
    mesh = _hand_built_mesh(flat_shaded)
    text = write_obj(mesh)
    assert text == _reference_obj(mesh)
    assert "v -0 4.94065646e-324 1e+300\n" in text
    assert "v 123456790 " in text  # the tie at 9 digits goes to even
    assert f"f {2 ** 31 + 8}" in text


def _percent_text(table, digits, sep, prefix=""):
    """Per-value loop: one ``%`` call per value, ``sep`` between values."""
    return "".join(prefix + sep.join("%.*g" % (digits, x) for x in row) + "\n"
                   for row in np.asarray(table).tolist())


def _near_ties(digits):
    """Doubles at, and up to 2 ulps either side of, the places where
    ``%.<digits>g`` changes its rounding, its exponent or its notation."""
    def around(x):
        bits = int(np.float64(x).view(np.int64))
        return st.builds(
            lambda k, sign: sign * float(np.int64(bits + k).view(np.float64)),
            st.integers(-2, 2), st.sampled_from([1.0, -1.0]))
    mantissa = st.integers(10 ** (digits - 1), 10 ** digits - 1)
    ties = st.builds(lambda m, k: (m + 0.5) * 10.0 ** k, mantissa,
                     st.integers(-digits - 6, 6))
    decade = st.integers(-323, 308).map(lambda k: float(10 ** k) if k >= 0 else 10.0 ** k)
    below = st.builds(lambda k, j: 10.0 ** k * (1 - 5 * 10.0 ** -(digits + j)),
                      st.integers(-30, 30), st.integers(0, 2))
    switch = st.builds(lambda b, f: b * f,
                       st.sampled_from([1e-4, 1e-5, 10.0 ** (digits - 1),
                                        10.0 ** digits]),
                       st.sampled_from([1.0, 1 - 5e-10, 1 - 5e-13, 1 + 5e-10, 0.5, 1.05]))
    wide = st.floats(1e3, 1e15) | st.builds(lambda m, k: m / 10.0 ** k, mantissa,
                                            st.integers(0, digits - 4))
    special = st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, float("nan"), float("inf")])
    subnormal = st.integers(1, 2 ** 52 - 1).map(lambda m: m * 5e-324)
    return st.one_of([s.flatmap(around) for s in
                      (ties, decade, below, switch, wide, special, subnormal)]
                     + [st.floats()])


@pytest.mark.parametrize("digits", [9, 12])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_number_text_equals_percent_on_near_ties(digits, data):
    values = data.draw(st.lists(_near_ties(digits), min_size=1, max_size=45))
    table = np.reshape(values + [0.0] * (-len(values) % 3), (-1, 3))
    assert _number_text(table, digits, " ", "v ").decode() == _percent_text(
        table, digits, " ", "v ")
    assert _number_text(table.T, digits, ",").decode() == _percent_text(
        table.T, digits, ",")


@pytest.mark.parametrize("digits,x", [
    (9, 0.01 * (1 - 5e-10)),  # a tie at the lower exponent only
    (9, 0.0001 * (1 - 5e-10)),  # rounds up into fixed notation
    (9, 999999999.5), (9, 123456789.5), (12, 999999999999.5), (12, 0.5e-4),
    (9, 1e22), (9, 1e23), (12, 5e-324), (12, -1.7976931348623157e308),
    (9, -0.0), (12, float("-nan")), (9, -float("inf")), (12, 123456789012.25)])
def test_number_text_named_cases(digits, x):
    table = np.array([[x, -x, 1.0]])
    assert _number_text(table, digits, ",").decode() == _percent_text(table, digits, ",")


@pytest.mark.parametrize("flat", [False, True])
def test_face_tokens_at_width_boundaries(flat):
    numbers = np.array([1, 999, 1000, 999_999, 1_000_000, -999, -1000, 2 ** 40 + 1])
    tokens = _face_tokens(numbers, flat)
    form = " {0}" if flat else " {0}//{0}"
    want = [form.format(i).encode() for i in numbers.tolist()]
    width = max(map(len, want))
    assert tokens.shape == (len(numbers), width)
    assert [row.tobytes() for row in tokens] == [w.ljust(width, b"\0") for w in want]


def test_tangent_ruling_mesh_is_flat_shaded_obj():
    surface = RuledSurface(load_config(str(CONFIGS / "tangent_ruling.json")).surface)
    text = write_obj(tessellate(surface, 9, 5))
    assert "vn " not in text
    assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 8 * 4 * 2


def test_missing_normals_take_one_partials_pass(monkeypatch):
    # example1's director vanishes at s = 0, so its v = 0 normal is missing:
    # the normal pass itself tells the degenerate rows from overflowing ones
    job = load_config(str(CONFIGS / "example1.json"))
    surface = RuledSurface(job.surface)
    calls = []
    real = surface.partials
    monkeypatch.setattr(surface, "partials", lambda s, v: calls.append(s) or real(s, v))
    mesh = tessellate(surface, job.n_s, job.n_v)
    assert mesh.flat_shaded and len(calls) == 1


# ---------------------------------------------------------------------------
# reports


def test_csv_geodesic_column(geodesic_example):
    grid = [s for s in np.linspace(-5, 5, 51) if abs(s) > 1e-6]
    rep = base_curve_report(geodesic_example, grid)
    text = samples_to_csv(rep.table)
    lines = text.splitlines()
    header = lines[0].split(",")
    k_g_idx = header.index("k_g")
    for line in lines[1:]:
        assert abs(float(line.split(",")[k_g_idx])) < 1e-9


def test_csv_distribution_parameter_zero_for_tangent(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    rep = base_curve_report(surf, np.linspace(-4, 4, 21))
    text = samples_to_csv(rep.table)
    header, *rows = text.splitlines()
    p_idx = header.split(",").index("P")
    for row in rows:
        assert abs(float(row.split(",")[p_idx])) < 1e-12


def test_csv_empty_grid_header_only(helix):
    surf = make_surface(helix, RotationMinimizing(0.0), "1", "0", "0")
    rep = base_curve_report(surf, [])
    text = samples_to_csv(rep.table)
    assert rep.table.shape == (0, len(CSV_COLUMNS))
    assert text == samples_to_csv([])
    assert text.splitlines()[0].startswith("s,kappa,tau")
    assert len(text.splitlines()) == 1


def test_csv_equals_per_value_reference(geodesic_example):
    rows = np.vstack([
        base_curve_report(geodesic_example, np.linspace(-5, 5, 21)).table,
        [-0.0, float("nan"), -float("nan"), 5e-324, 1e300, 123456789.5,
         *[float(k) for k in range(9)]]])
    def fmt(x):  # the retired per-value formatter, NaN branch included
        return "nan" if isinstance(x, float) and math.isnan(x) else "%.12g" % x
    reference = [",".join(CSV_COLUMNS)] + [
        ",".join(fmt(x) for x in r) for r in rows.tolist()]
    text = samples_to_csv(rows)
    assert text == "\n".join(reference) + "\n"
    assert text.splitlines()[-1].startswith("-0,nan,nan,4.94065645841e-324,1e+300,")


def test_json_report_schema(rmf_polynomial):
    rep = classify(rmf_polynomial, 21, 5)
    doc = json.loads(write_report(rep, "json"))
    assert doc["schema_version"] == 1
    assert doc["verdict"] in ("yes", "no", "borderline")
    assert "max_abs_det" in doc and "special_case" in doc


def test_json_samples_are_the_table_rows(rmf_polynomial):
    bc = base_curve_report(rmf_polynomial, np.linspace(-5, 5, 11))
    edge = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300,
            *[float(k) for k in range(9)]]
    table = np.vstack([bc.table, edge])
    bc = BaseCurveReport(**{**fields(bc), "table": table})
    rep = ClassificationReport(**{**fields(classify(rmf_polynomial, 11, 5)),
                                  "base_curve": bc})
    text = write_report(rep, "json")
    assert '"kappa": null' in text and '"tau": Infinity' in text
    assert '"theta": -Infinity' in text and '"s": -0.0' in text
    want = [{c: None if math.isnan(x) else x for c, x in zip(CSV_COLUMNS, row)}
            for row in table.tolist()]
    base = json.loads(text)["base_curve"]
    assert base["samples"] == want and "table" not in base


def test_write_report_rejects_unknown_format(rmf_polynomial):
    with pytest.raises(ValueError):
        write_report(None, "xml")
