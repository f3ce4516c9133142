"""Triangle tessellation of ruled surfaces and serialization.

Output formats: Wavefront OBJ (v/vn/f subset, `//` normal indices), CSV
per-sample tables (RFC-4180, LF line endings), and a JSON report with a
``schema_version`` field.  All numeric formatting is fixed so repeated runs
produce byte-identical files.  OBJ and CSV numbers are written by one array
kernel, byte for byte as ``"%.9g"`` (OBJ) and ``"%.12g"`` (CSV) write them:
:func:`_decimal` rounds each value to its digits and sends only the proven
near-ties to ``%``, and :func:`_number_text` writes a whole block from a
table of 3-digit cells.  OBJ face rows are taken from one token per vertex
(:func:`_face_tokens`), and the OBJ stays bytes from the kernel to the file.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from . import expr as ex
from .curve import vec_cross, vec_dot, vec_norm
from .invariants import COLUMNS as CSV_COLUMNS, BaseCurveReport
from .record import Record, fields
from .ruled import ClassificationReport, RuledSurface, _director_scale

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
    node raises :class:`ZeroDirector`, and a normal is missing only where the
    partials degenerate.  Faces and their winding come from slices of the
    (n_s, n_v) grids (:func:`_faces`).
    """
    if n_s < 2 or n_v < 2:
        raise ValueError("n_s and n_v must be >= 2")
    sdef = surface.sdef
    s_vals = np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s)
    v_vals = np.linspace(sdef.v_min, sdef.v_max, n_v)
    verts = surface.point(s_vals, v_vals).swapaxes(0, 1)
    ex._float_path(lambda s: surface.point(s, v_vals), s_vals, verts, (), "point")
    _director_scale(surface._row(s_vals)[0])
    norms, degenerate = surface._normal(s_vals, v_vals)
    if np.isnan(norms).any():  # the float call decides where no partials degenerate
        for v, bad in zip(v_vals.tolist(), np.isnan(norms[..., 0]) & ~degenerate):
            ex._float_path(lambda s: surface.normal(s, v), s_vals,
                           np.where(bad, np.nan, 0.0), (), "normal")
    verts = verts.reshape(-1, 3)
    norms = norms.swapaxes(0, 1).reshape(-1, 3)
    return Mesh(verts, norms, _faces(verts, norms, n_v), bool(np.isnan(norms[:, 0]).any()))


def _faces(verts: np.ndarray, norms: np.ndarray, n_v: int) -> np.ndarray:
    """The faces of the (n, 3) vertex and normal rows (NaN where missing) of
    a row-major grid of n_v columns.  The quad of corners a = (i, j), b =
    (i+1, j), c = (i, j+1), d = (i+1, j+1) splits into (a, b, d) and (a, d, c)
    where |a - d| <= |b - c|, else into (a, b, c) and (b, d, c); each triangle
    is wound counterclockwise about the mean of its vertices' normals, missing
    ones left out of the mean.

    Every corner is a slice of the rows, so that no face index is gathered:
    quad q = i n_v + j has a at row q, b at q + n_v, c at q + 1 and d at
    q + n_v + 1.  The quads with j = n_v - 1 wrap around a row of the grid;
    they are computed with the others and dropped at the end."""
    m = len(verts) - n_v - 1  # quads q = 0 .. m - 1
    missing = np.isnan(norms[:, 0])
    rows = (verts, np.where(missing[:, None], 0.0, norms), 1 - missing)
    split = (vec_norm(verts[:m] - verts[n_v + 1:])
             <= vec_norm(verts[n_v:n_v + m] - verts[1:1 + m]))

    def corner(at_split, other):
        """(point, normal or 0, 1 if the normal is known, vertex number) of
        the corner at row q + ``at_split`` of a quad that splits along a-d,
        and at q + ``other`` of one that does not."""
        x, y = slice(at_split, at_split + m), slice(other, other + m)
        if at_split == other:
            return (*(r[x] for r in rows), np.arange(at_split, at_split + m))
        return (*(np.where(split if r.ndim == 1 else split[:, None], r[x], r[y])
                  for r in rows), np.arange(m) + np.where(split, at_split, other))

    faces = np.empty((m + 1, 2, 3), np.int64)
    a, b, c, d = 0, n_v, 1, n_v + 1  # the corners' row offsets
    triangles = ((corner(a, a), corner(b, b), corner(d, c)),
                 (corner(a, b), corner(d, d), corner(c, c)))
    for t, ((p0, n0, k0, i0), (p1, n1, k1, i1), (p2, n2, k2, i2)) in enumerate(triangles):
        mean = ((n0 + n1) + n2) / np.maximum((k0 + k1) + k2, 1)[:, None]  # np.mean's order
        flip = vec_dot(vec_cross(p1 - p0, p2 - p0), mean) < 0.0
        faces[:m, t, 0], faces[:m, t, 1], faces[:m, t, 2] = (
            i0, np.where(flip, i2, i1), np.where(flip, i1, i2))
    return faces.reshape(-1, n_v, 2, 3)[:, :-1].reshape(-1, 3)


# ---------------------------------------------------------------------------
# numbers as text
#
# A block of OBJ or CSV rows is a matrix of 4-byte cells taken from the
# table of ``_cells``; the cells' NUL bytes are padding, and one
# ``bytes.translate`` deletes them.  A number in fixed notation is ``groups``
# integer cells (the leading 3-digit group with its sign, then zero-padded
# groups), a "." cell with the first three fraction digits, and 3-digit
# fraction cells, the last of which also holds the separator; a cell after
# which no fraction digit is nonzero drops its trailing zeros.  In exponent
# notation the last-but-one cell holds the mantissa's last two digits and
# "e+" or "e-", the last the exponent and the separator.


@functools.cache
def _cells():
    """``(table, at)``: the cells as read-only uint32 words, and the offsets
    of the named words and of the 1000-cell segments, each indexed by a
    3-digit group g.  Built on first use, so that a run which writes no OBJ
    or CSV does not hold it."""
    g = np.arange(1000, dtype=np.uint16)
    digit = [(g // 10 ** (2 - i) % 10 + 48).astype(np.uint8) for i in range(3)]
    nul = np.uint8(0)
    lead = [np.where(g >= 10 ** (2 - i), digit[i], nul) for i in range(2)] + digit[2:]
    strip = [np.where(g % 10 ** (3 - i) != 0, digit[i], nul) for i in range(3)]
    segments = {  # each cell's bytes, from a character or an array of codes
        "lead": lead,                                   # "123", "45", "0"
        "neg": ["-", *lead],                            # "-123", "-0"
        "strip": strip,                                 # "12" for 120, "" for 0
        "full": digit,                                  # "120", "000"
        "dotstrip": [np.where(g != 0, np.uint8(ord(".")), nul), *strip],  # ".12", ""
        "dotfull": [".", *digit],                       # ".120"
        "exp+": [strip[0], strip[1], "e", "+"],         # for "dd0" groups
        "exp-": [strip[0], strip[1], "e", "-"],
    }
    for sep in _SEPS:  # "last" + sep and "pow" + sep, equally far apart for each sep
        segments["last" + sep] = [*strip, sep]
        segments["pow" + sep] = [lead[0], *digit[1:], sep]  # "%02d"
    words = ["", "nan", "inf", "-inf", "v ", "vn ", "//", " "]
    cells = np.zeros((len(words) + 1000 * len(segments), 4), np.uint8)
    for k, word in enumerate(words):
        cells[k, :len(word)] = list(word.encode())
    offsets = dict(zip(words, range(len(words))))
    for k, (name, columns) in enumerate(segments.items()):
        at = offsets[name] = len(words) + 1000 * k
        for j, c in enumerate(columns):
            cells[at:at + 1000, j] = ord(c) if isinstance(c, str) else c
    table = cells.view(np.uint32).ravel()
    table.flags.writeable = False
    return table, offsets


_SEPS = ("\n", " ", ",")
_TEN = np.array([float(10 ** k) for k in range(23)])  # each exact
_MUL = np.concatenate([np.ones(22), _TEN])  # at k + 22: 10**k for k >= 0, else 1
_DIV = np.concatenate([_TEN[:0:-1], np.ones(23)])  # at k + 22: 10**-k for k < 0, else 1


def _scaled(a, k):
    """``(a * 10**k, n)``: each value scaled in up to n correctly rounded
    steps, each a product or a quotient by an exact power of ten up to
    10**22."""
    at = k + 22  # "clip" takes the factors of the first step
    y = _MUL.take(at, mode="clip")
    y *= a
    y /= _DIV.take(at, mode="clip")
    if at.min(initial=0) >= 0 and at.max(initial=0) <= 44:
        return y, 1
    far = np.flatnonzero((at < 0) | (at > 44))  # |a| beyond about 1e-14 or 1e31
    part, rest, n = a[far], k[far], 0
    while rest.any():  # a factor 1 once a value's rest is 0
        at = np.minimum(np.maximum(rest, -22), 22) + 22
        part = part * _MUL.take(at) / _DIV.take(at)
        rest -= at - 22
        n += 1
    y[far] = part
    return y, n


def _decimal(x, digits: int):
    """``(q, e, exact)`` of the 1-D float array ``x``: |x| rounded to
    ``digits`` significant digits as ``%`` rounds it, q 10**(e - digits + 1)
    with q a float integer in [10**(digits-1), 10**digits) (q = e = 0 where
    x is 0 or not finite), and the positions of the values ``%`` decided.

    The scaled value y = |x| 10**(digits - 1 - e) takes at most n correctly
    rounded steps by exact powers of ten (``_scaled``), so |y - y_exact| <=
    ((1 + 2**-53)**n - 1) y_exact < 1.01 n 2**-53 10**digits wherever y_exact
    < 10**digits (n <= 16, reached at 5e-324).  rint(y) is therefore the
    exact rounding unless y lies within twice that bound, n 2**-52 10**digits
    (2.2e-7 n at 9 digits, 2.2e-4 n at 12), of a half-integer.  The exponent
    starts at the estimate floor(log10 |x|) and moves by one where rint(y)
    reaches 10**digits or y falls below 10**(digits-1), so the rounding at
    the estimate decides it too (a y at or above 10**digits moves it up
    whichever way it rounds).  A value near a tie at either exponent is
    formatted by ``%`` and read back.
    """
    a = np.abs(x)
    plain = (a > 0) & (a < np.inf)
    a[~plain] = 1.0  # scales exactly, far from any tie
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int64)
    lo, hi = 10.0 ** (digits - 1), 10.0 ** digits
    margin = 2.0 ** -52 * hi
    y, n = _scaled(a, digits - 1 - e)
    q = np.rint(y)
    near = y - q
    near = np.abs(near, out=near) > 0.5 - margin * n
    moved = np.flatnonzero((q >= hi) | (y < lo))
    if moved.size:
        e[moved] += np.where(y[moved] < lo, -1, 1)
        ym, n = _scaled(a[moved], digits - 1 - e[moved])
        qm = np.rint(ym)
        near[moved] |= np.abs(ym - qm) > 0.5 - margin * n
        carry = qm >= hi  # rounded up to 10**digits
        q[moved] = np.where(carry, lo, qm)
        e[moved] += carry
    exact = np.flatnonzero(near)
    for i in exact.tolist():
        mantissa, _, power = ("%.*e" % (digits - 1, a[i])).partition("e")
        q[i], e[i] = float(mantissa.replace(".", "")), int(power)
    q *= plain
    return q, e, exact


def _int_cells(i, neg, groups: int):
    """The cell columns of the integers ``i >= 0`` in ``groups`` 3-digit
    groups: empty cells, the leading group signed by ``neg``, then
    zero-padded groups."""
    at = _cells()[1]
    lead = at["lead"] + (at["neg"] - at["lead"]) * neg
    cols = []
    for j in range(groups):  # from the units group up
        if j == groups - 1:
            top, g = 0, i
        else:
            top = i // 1000
            g = i - 1000 * top
        base = lead if j == 0 else np.where(i > 0, lead, 0)
        cols.append((base if j == groups - 1 else
                     np.where(top > 0, at["full"], base)) + g)
        i = top
    return cols[::-1]


def _width(top) -> int:
    """The 3-digit groups of the integer ``top >= 0``."""
    return max(1, (len(str(int(top))) + 2) // 3)


def _number_text(table, digits: int, sep: str, prefix: str = "") -> bytes:
    """One line per row of the 2-D float ``table``: ``prefix``, then each
    value as ``"%.<digits>g"`` formats it, ``sep`` between values.
    ``digits`` is 9 or 12."""
    cell, at = _cells()
    table = np.asarray(table, dtype=float)
    x = table.ravel()
    q, e, _ = _decimal(x, digits)
    width = digits + 3  # fraction digits at e = -4, in digits // 3 + 1 cells
    expo = np.flatnonzero((e < -4) | (e >= digits))
    point = digits - 1 - e  # fraction digits: all but the first in exponent form
    point[expo] = digits - 1
    unit = _TEN.take(point)
    whole = np.floor(q / unit)  # exact: q < 2**53
    frac = q - whole * unit
    frac *= _TEN.take(width - point)
    frac = frac.astype(np.int64)
    del q, point, unit  # the block's peak is its cells and a few columns
    ints = _int_cells(whole.astype(np.int64), np.signbit(x), _width(whole.max(initial=0)))
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        ints[-1][bad] = np.where(np.isnan(x[bad]), at["nan"],
                                 np.where(x[bad] > 0, at["inf"], at["-inf"]))
    dot = len(ints)  # the cell of the point and the first fraction digits
    w = dot + width // 3
    cells = np.empty((len(table), 1 + table.shape[1] * w), np.uint32)
    cells[:, 0] = cell[at[prefix]]

    def put(c, col):
        cells[:, 1 + c::w] = cell.take(col).reshape(table.shape)

    for c, col in enumerate(ints):
        put(c, col)
    del ints, whole
    for c in range(w - 1, dot, -1):  # the fraction's groups, last first
        top = frac // 1000
        g = frac - 1000 * top
        frac = top
        if c == w - 1:  # the last digits and the separator
            col = at["last" + sep] + g
            if expo.size:  # the exponent
                col[expo] = at["pow" + sep] + np.abs(e[expo])
            col.reshape(table.shape)[:, -1] += at["last\n"] - at["last" + sep]
        else:
            col = np.where(more, at["full"], at["strip"]) + g
            if c == w - 2 and expo.size:  # the mantissa's last two digits, "e", sign
                col[expo] = np.where(e[expo] < 0, at["exp-"], at["exp+"]) + g[expo]
        put(c, col)
        more = g != 0 if c == w - 1 else more | (g != 0)
    put(dot, np.where(more, at["dotfull"], at["dotstrip"]) + frac)
    return cells.tobytes().translate(None, b"\0")


def csv_table(columns, table) -> str:
    """CSV text: the header, then one line of ``%.12g`` values per row."""
    body = _number_text(np.reshape(table, (-1, len(columns))), 12, ",")
    return ",".join(columns) + "\n" + body.decode("ascii")


def _face_tokens(numbers, flat: bool):
    """Row k: the face token " i" (or " i//i") of the vertex number
    ``numbers[k]``, NUL-padded at its end."""
    cell, at = _cells()
    magnitude = np.abs(numbers)
    cols = _int_cells(magnitude, numbers < 0, _width(magnitude.max(initial=0)))
    if not flat:
        cols += [np.full(numbers.shape, at["//"]), *cols]
    cells = cell.take(np.stack([np.full(numbers.shape, at[" "]), *cols], 1))
    text = np.frombuffer(cells.tobytes().translate(None, b"\0"), np.uint8)
    start = np.flatnonzero(text == ord(" "))
    size = np.diff(start, append=text.size)
    tokens = np.zeros((len(numbers), size.max(initial=0)), np.uint8)
    run = np.flatnonzero(np.diff(size, prepend=0)).tolist()  # tokens of one size
    for lo, hi in zip(run, run[1:] + [len(numbers)]):
        first, width = start[lo], size[lo]
        tokens[lo:hi, :width] = text[first:first + (hi - lo) * width].reshape(-1, width)
    return tokens


def write_obj(mesh: Mesh) -> bytes:
    """Deterministic OBJ text, as ASCII bytes; vn/`//` indices only when all
    normals exist.  Each vertex's face token is formatted once, and the face
    rows are taken from the tokens of their vertices (an index with no vertex
    is formatted as it is)."""
    text = [_number_text(mesh.vertices, 9, " ", "v ")]
    if not mesh.flat_shaded:
        text.append(_number_text(mesh.normals, 9, " ", "vn "))
    n, faces = len(mesh.vertices), np.asarray(mesh.faces, dtype=np.int64)
    numbers = np.arange(1, n + 1)
    outside = (faces < 0) | (faces >= n)
    if outside.any():  # each index with no vertex gets a token of its own
        other = np.unique(faces[outside])
        faces = np.where(outside, n + np.searchsorted(other, faces), faces)
        numbers = np.r_[numbers, other + 1]
    tokens = _face_tokens(numbers, mesh.flat_shaded)
    rows = np.empty((len(faces), 2 + 3 * tokens.shape[1]), np.uint8)
    rows[:, 0], rows[:, -1] = ord("f"), ord("\n")
    rows[:, 1:-1] = tokens.take(faces, axis=0).reshape(rows[:, 1:-1].shape)
    text.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(text)


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
