"""Triangle tessellation of ruled surfaces and serialization.

Output formats: Wavefront OBJ (v/vn/f subset, `//` normal indices), CSV
per-sample tables (RFC-4180, LF line endings), and a JSON report with a
``schema_version`` field.  All numeric formatting is fixed so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .curve import vec_dot, vec_norm
from .ruled import ClassificationReport, RuledSurface

OBJ_FMT = "%.9g"
CSV_FMT = "%.12g"

CSV_COLUMNS = ("s", "kappa", "tau", "theta", "x1", "x2", "x3", "P",
               "k_g", "k_n", "tau_g", "rho",
               "res_geodesic", "res_asymptotic", "res_curvature_line")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Mesh:
    """Grid mesh: row-major vertices (n_s rows by n_v columns).

    ``normals[i]`` may be None at singular samples; the mesh is then
    flat-shaded and normals are omitted on export.
    """

    vertices: np.ndarray  # (n, 3)
    normals: list  # entries: np.ndarray or None
    faces: np.ndarray  # (m, 3) int, counterclockwise w.r.t. stored normals
    flat_shaded: bool
    n_s: int
    n_v: int


def tessellate(surface: RuledSurface, n_s: int, n_v: int) -> Mesh:
    """Uniform-grid tessellation; each quad splits along its shorter diagonal.

    Each s-row takes its points and normals from one ``point``/``normal``
    call over all v.  A triangle is wound counterclockwise about the mean of
    its vertices' normals, missing normals left out of the mean.
    """
    if n_s < 2 or n_v < 2:
        raise ValueError("n_s and n_v must be >= 2")
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    verts = np.concatenate([surface.point(s, v_vals) for s in s_vals.tolist()])
    norms = np.concatenate([surface.normal(s, v_vals) for s in s_vals.tolist()])

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
    flip = vec_dot(np.cross(p1 - p0, p2 - p0), mean) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]

    normals = [None if m else n for m, n in zip(missing.tolist(), norms)]
    return Mesh(verts, normals, faces, bool(missing.any()), n_s, n_v)


def write_obj(mesh: Mesh) -> str:
    """Deterministic OBJ text; vn/`//` indices only when all normals exist."""
    lines = []
    for v in mesh.vertices:
        lines.append("v %s %s %s" % tuple(OBJ_FMT % x for x in v))
    with_normals = not mesh.flat_shaded
    if with_normals:
        for n in mesh.normals:
            lines.append("vn %s %s %s" % tuple(OBJ_FMT % x for x in n))
    for f in mesh.faces:
        i, j, k = (int(x) + 1 for x in f)
        if with_normals:
            lines.append(f"f {i}//{i} {j}//{j} {k}//{k}")
        else:
            lines.append(f"f {i} {j} {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return CSV_FMT % x


def samples_to_csv(samples) -> str:
    """CSV table of per-sample base-curve invariants (header always present)."""
    lines = [",".join(CSV_COLUMNS)]
    for r in samples:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_to_json(report: ClassificationReport) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(_jsonable(report))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_report(report: ClassificationReport, samples, fmt: str) -> str:
    """Serialize either the sample table (csv) or the full report (json)."""
    if fmt == "csv":
        return samples_to_csv(samples)
    if fmt == "json":
        return report_to_json(report)
    raise ValueError(f"unknown format {fmt!r} (expected csv or json)")
