"""Triangle tessellation of ruled surfaces and serialization.

Output formats: Wavefront OBJ (v/vn/f subset, `//` normal indices), CSV
per-sample tables (RFC-4180, LF line endings), and a JSON report with a
``schema_version`` field.  All numeric formatting is fixed so repeated runs
produce byte-identical files.  OBJ and CSV text is formatted from whole
arrays, with one fixed ``%``-template per row kind (:func:`format_rows`); OBJ
face rows are filled from one formatted token per vertex.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr as ex
from .curve import vec_cross, vec_dot, vec_norm
from .invariants import COLUMNS as CSV_COLUMNS, BaseCurveReport
from .record import Record, fields
from .ruled import ClassificationReport, RuledSurface, _director_scale

OBJ_FMT = "%.9g"
CSV_FMT = "%.12g"

SCHEMA_VERSION = 1


class Mesh(Record):
    """Grid mesh: (n, 3) row-major vertices (n_s rows by n_v columns), (n, 3)
    unit normals and (m, 3) int faces, counterclockwise about the normals.

    A normal row is NaN at a singular sample; the mesh is then flat-shaded
    and normals are omitted on export.
    """

    __slots__ = ("vertices", "normals", "faces", "flat_shaded")


def tessellate(surface: RuledSurface, n_s: int, n_v: int) -> Mesh:
    """Uniform-grid tessellation; each quad splits along its shorter diagonal.

    Points and normals are one grid call each; a zero director at every grid
    node raises :class:`ZeroDirector`, a normal is missing only where the
    partials degenerate, and a triangle is wound counterclockwise about the
    mean of its vertices' normals, missing normals left out of the mean.
    """
    if n_s < 2 or n_v < 2:
        raise ValueError("n_s and n_v must be >= 2")
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    verts = surface.point(s_vals, v_vals).swapaxes(0, 1)
    ex._float_path(lambda s: surface.point(s, v_vals), s_vals, verts, (), "point")
    _director_scale(surface._row(s_vals)[0])
    verts = verts.reshape(-1, 3)
    norms, degenerate = surface._normal(s_vals, v_vals)
    if np.isnan(norms).any():  # the float call decides where no partials degenerate
        for v, bad in zip(v_vals.tolist(), np.isnan(norms[..., 0]) & ~degenerate):
            ex._float_path(lambda s: surface.normal(s, v), s_vals,
                           np.where(bad, np.nan, 0.0), (), "normal")
    norms = norms.swapaxes(0, 1).reshape(-1, 3)

    grid = np.arange(n_s * n_v).reshape(n_s, n_v)
    a, b = grid[:-1, :-1].ravel(), grid[1:, :-1].ravel()
    c, d = grid[:-1, 1:].ravel(), grid[1:, 1:].ravel()
    split_ad = vec_norm(verts[a] - verts[d]) <= vec_norm(verts[b] - verts[c])
    first = np.where(split_ad[:, None], np.stack([a, b, d], 1), np.stack([a, b, c], 1))
    second = np.where(split_ad[:, None], np.stack([a, d, c], 1), np.stack([b, d, c], 1))
    faces = np.stack([first, second], 1).reshape(-1, 3)

    missing = np.isnan(norms[:, 0])
    corner = np.where(missing[faces][:, :, None], 0.0, norms[faces])
    total = (corner[:, 0] + corner[:, 1]) + corner[:, 2]  # np.mean's order
    mean = total / np.maximum(3 - missing[faces].sum(axis=1), 1)[:, None]
    p0, p1, p2 = (verts[faces[:, k]] for k in range(3))
    flip = vec_dot(vec_cross(p1 - p0, p2 - p0), mean) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]

    return Mesh(verts, norms, faces, bool(missing.any()))


def format_rows(row: str, table) -> str:
    """``row`` (a ``%``-template for one line) repeated for each row of the
    2-D ``table`` and applied once to its values in row-major order."""
    table = np.asarray(table)
    return (row * len(table)) % tuple(table.ravel().tolist())


def csv_table(columns, table) -> str:
    """CSV text: the header, then one line of ``CSV_FMT`` values per row."""
    row = ",".join([CSV_FMT] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + format_rows(row, table)


def write_obj(mesh: Mesh) -> str:
    """Deterministic OBJ text; vn/`//` indices only when all normals exist.
    Each vertex's face token is formatted once, and the face rows are filled
    from the tokens of their vertices (an index with no vertex is formatted
    where it occurs)."""
    vec = " ".join([OBJ_FMT] * 3) + "\n"
    text = format_rows("v " + vec, mesh.vertices)
    if not mesh.flat_shaded:
        text += format_rows("vn " + vec, mesh.normals)
    token = "{0}" if mesh.flat_shaded else "{0}//{0}"
    n, faces = len(mesh.vertices), np.asarray(mesh.faces)
    rows = np.array(list(map(token.format, range(1, n + 1))), dtype=object).take(
        faces, mode="clip")
    outside = (faces < 0) | (faces >= n)
    rows[outside] = list(map(token.format, (faces[outside] + 1).tolist()))
    return text + format_rows("f %s %s %s\n", rows)


# ---------------------------------------------------------------------------
# reports


def samples_to_csv(table) -> str:
    """CSV of a base-curve table (header always present)."""
    return csv_table(CSV_COLUMNS, table)


def _jsonable(obj):
    if isinstance(obj, BaseCurveReport):  # the table as one object per row
        doc = _jsonable({k: v for k, v in fields(obj).items() if k != "table"})
        doc["samples"] = [dict(zip(CSV_COLUMNS, row))
                          for row in _jsonable(obj.table.tolist())]
        return doc
    if isinstance(obj, Record):
        return {k: _jsonable(v) for k, v in fields(obj).items()}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_to_json(report) -> str:
    """JSON text of a report, a record or a dict, with ``schema_version``."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(_jsonable(report))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_report(report: ClassificationReport, fmt: str) -> str:
    """Serialize either the base-curve table (csv) or the full report (json)."""
    if fmt == "csv":
        return samples_to_csv(report.base_curve.table)
    if fmt == "json":
        return report_to_json(report)
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
