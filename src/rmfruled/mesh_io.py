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

from .errors import GeometryError
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
    """Uniform-grid tessellation; each quad splits along its shorter diagonal."""
    if n_s < 2 or n_v < 2:
        raise ValueError("n_s and n_v must be >= 2")
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    verts = np.empty((n_s * n_v, 3))
    normals = []
    for i, s in enumerate(s_vals):
        for j, v in enumerate(v_vals):
            idx = i * n_v + j
            verts[idx] = surface.point(float(s), float(v))
            try:
                normals.append(surface.normal(float(s), float(v)))
            except GeometryError:
                normals.append(None)
    faces = []
    for i in range(n_s - 1):
        for j in range(n_v - 1):
            a = i * n_v + j
            b = (i + 1) * n_v + j
            c = i * n_v + (j + 1)
            d = (i + 1) * n_v + (j + 1)
            diag_ad = np.linalg.norm(verts[a] - verts[d])
            diag_bc = np.linalg.norm(verts[b] - verts[c])
            if diag_ad <= diag_bc:
                tris = ((a, b, d), (a, d, c))
            else:
                tris = ((a, b, c), (b, d, c))
            for tri in tris:
                faces.append(_orient(tri, verts, normals))
    flat = any(n is None for n in normals)
    return Mesh(verts, normals, np.array(faces, dtype=int), flat, n_s, n_v)


def _orient(tri, verts, normals):
    """Flip winding so the face agrees with the stored vertex normals."""
    ref = [normals[k] for k in tri if normals[k] is not None]
    if not ref:
        return tri
    n = np.mean(ref, axis=0)
    a, b, c = (verts[k] for k in tri)
    if float(np.dot(np.cross(b - a, c - a), n)) < 0.0:
        return (tri[0], tri[2], tri[1])
    return tri


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


def read_obj(text: str) -> Mesh:
    """Parse the OBJ subset produced by :func:`write_obj` (round-trip check)."""
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
    n = len(verts)
    normals = norms if norms else [None] * n
    nv = 0  # grid shape is not recoverable from OBJ
    return Mesh(np.array(verts), list(normals), np.array(faces, dtype=int),
                not norms, 0, nv)


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
