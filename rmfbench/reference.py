"""Closed-form reference geometry and the output checks built on it.

Nothing here imports rmfruled.  The base curves are helices and circles
r(s) = (a cos(w s), a sin(w s), b w s); their Frenet apparatus, the RMF angle
and the derivatives of the frame are written out by hand, and the director
coefficients are evaluated from their generating parameters with ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# %.9g keeps nine significant digits: a printed value is within 5e-9 of the
# true one relative to its size, and a unit vector's dot product with another
# unit vector picks up at most three such errors.
VERTEX_RTOL = 1e-8
VERTEX_ATOL = 1e-12
UNIT_TOL = 3e-8


@dataclass(frozen=True)
class Fn:
    """Scalar function of s: its DSL text, value and first derivative."""

    dsl: str
    f: Callable[[float], float]
    df: Callable[[float], float]

    def values(self, s: np.ndarray):
        return (np.array([self.f(float(x)) for x in s]),
                np.array([self.df(float(x)) for x in s]))


@dataclass(frozen=True)
class Helix:
    """r(s) = (a cos(w s), a sin(w s), b w s) with a > 0; b = 0 is a circle."""

    a: float
    b: float
    w: float

    @property
    def c(self) -> float:
        return math.hypot(self.a, self.b)

    @property
    def speed(self) -> float:
        return abs(self.w) * self.c

    @property
    def kappa(self) -> float:
        return self.a / self.c ** 2

    @property
    def tau(self) -> float:
        return self.b / self.c ** 2

    def dsl(self):
        a, b, w = self.a, self.b, self.w
        z = f"{b!r}*{w!r}*s" if b != 0.0 else "0"
        return f"{a!r}*cos({w!r}*s)", f"{a!r}*sin({w!r}*s)", z

    def rmf_rate(self) -> float:
        """d(theta)/ds of the rotation minimizing frame: -|r'| tau = -|w| b / c."""
        return -self.speed * self.tau

    def apparatus(self, s: np.ndarray):
        """r, r', T, N, B and their s-derivatives, each of shape (n, 3)."""
        a, b, w, c = self.a, self.b, self.w, self.c
        sg = 1.0 if w > 0 else -1.0
        cs, sn = np.cos(w * s), np.sin(w * s)
        zero, one = np.zeros_like(s), np.ones_like(s)
        r = np.stack([a * cs, a * sn, b * w * s], axis=1)
        dr = w * np.stack([-a * sn, a * cs, b * one], axis=1)
        T = sg * np.stack([-a * sn, a * cs, b * one], axis=1) / c
        N = np.stack([-cs, -sn, zero], axis=1)
        B = sg * np.stack([b * sn, -b * cs, a * one], axis=1) / c
        dT = (abs(w) * a / c) * np.stack([-cs, -sn, zero], axis=1)
        dN = w * np.stack([sn, -cs, zero], axis=1)
        dB = (abs(w) * b / c) * np.stack([cs, sn, zero], axis=1)
        return r, dr, (T, dT), (N, dN), (B, dB)


@dataclass(frozen=True)
class Surface:
    """phi(s, v) = r(s) + v X(s), X = x1 T + x2 U + x3 V, U/V rotated by theta."""

    helix: Helix
    s_min: float
    s_max: float
    theta: Fn  # the RMF angle for RMF jobs, the user's theta(s) otherwise
    x1: Fn
    x2: Fn
    x3: Fn
    v_min: float = -1.0
    v_max: float = 1.0

    def rows(self, s: np.ndarray):
        """Per-row r, r', X, X' (s-derivatives), shape (n, 3) each."""
        r, dr, (T, dT), (N, dN), (B, dB) = self.helix.apparatus(s)
        th, dth = self.theta.values(s)
        c, sn = np.cos(th)[:, None], np.sin(th)[:, None]
        dth = dth[:, None]
        U = c * N + sn * B
        V = -sn * N + c * B
        dU = -sn * dth * N + c * dN + c * dth * B + sn * dB
        dV = -c * dth * N - sn * dN - sn * dth * B + c * dB
        X = np.zeros_like(r)
        dX = np.zeros_like(r)
        for fn, E, dE in ((self.x1, T, dT), (self.x2, U, dU), (self.x3, V, dV)):
            x, dx = fn.values(s)
            X += x[:, None] * E
            dX += dx[:, None] * E + x[:, None] * dE
        return r, dr, X, dX

    def mesh(self, n_s: int, n_v: int):
        """Vertices and the partials d_s, d_v = X, row-major (n_s*n_v, 3) each."""
        s = np.linspace(self.s_min, self.s_max, n_s)
        v = np.linspace(self.v_min, self.v_max, n_v)
        r, dr, X, dX = self.rows(s)
        vv = v[None, :, None]
        pts = r[:, None, :] + vv * X[:, None, :]
        d_s = dr[:, None, :] + vv * dX[:, None, :]
        d_v = np.broadcast_to(X[:, None, :], d_s.shape)
        return (pts.reshape(-1, 3), d_s.reshape(-1, 3),
                np.ascontiguousarray(d_v).reshape(-1, 3))

    def regularity(self, n_s: int, n_v: int) -> float:
        """Smallest sine of the angle between d_s and d_v over the grid."""
        _, d_s, d_v = self.mesh(n_s, n_v)
        n = np.linalg.norm(np.cross(d_s, d_v), axis=1)
        return float(np.min(n / (np.linalg.norm(d_s, axis=1)
                                 * np.linalg.norm(d_v, axis=1))))

    def conditions(self, n_s: int):
        """Per-row residuals of the paper's conditions on the s grid.

        Returns (geodesic, asymptotic, det numerator): x2 cos - x3 sin,
        x3 cos + x2 sin and (x2 x3' - x3 x2') - kappa x1 (x2 sin + x3 cos),
        the last with arc-length derivatives.  Under the RMF the numerator
        is det(T, X, X'), whose vanishing is developability.
        """
        s = np.linspace(self.s_min, self.s_max, n_s)
        th, _ = self.theta.values(s)
        (x1, _), (x2, d2), (x3, d3) = (f.values(s) for f in (self.x1, self.x2, self.x3))
        h = self.helix
        c, sn = np.cos(th), np.sin(th)
        num = (x2 * d3 - x3 * d2) / h.speed - h.kappa * x1 * (x2 * sn + x3 * c)
        return x2 * c - x3 * sn, x3 * c + x2 * sn, num


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages (empty when correct)


def parse_obj(text: str):
    verts, norms, faces = [], [], []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "v":
            verts.append(rest.split())
        elif tag == "vn":
            norms.append(rest.split())
        elif tag == "f":
            faces.append([p.split("//")[0] for p in rest.split()])
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(norms, dtype=float).reshape(-1, 3),
            np.array(faces, dtype=int).reshape(-1, 3) - 1)


def check_obj(text: str, surface: Surface, n_s: int, n_v: int) -> list:
    verts, norms, faces = parse_obj(text)
    n, m = n_s * n_v, 2 * (n_s - 1) * (n_v - 1)
    errors = []
    if len(verts) != n or len(norms) != n or len(faces) != m:
        return [f"counts v={len(verts)} vn={len(norms)} f={len(faces)}, "
                f"want {n}, {n}, {m}"]
    ref, d_s, d_v = surface.mesh(n_s, n_v)
    bad = np.abs(verts - ref) > VERTEX_RTOL * np.abs(ref) + VERTEX_ATOL
    if bad.any():
        k = int(np.argwhere(bad)[0][0])
        errors.append(f"vertex {k} = {verts[k].tolist()}, reference {ref[k].tolist()}")
    def cosine(a):
        return np.abs(np.einsum("ij,ij->i", norms, a)) / np.linalg.norm(a, axis=1)
    gaps = {
        "|vn| - 1": np.abs(np.linalg.norm(norms, axis=1) - 1.0),
        "vn.X": cosine(d_v),
        "vn.dphi/ds": cosine(d_s),
    }
    for name, gap in gaps.items():
        if gap.max() > UNIT_TOL:
            errors.append(f"{name} = {gap.max():.3e} at vertex {int(gap.argmax())}")
    side = np.einsum("ij,ij->i", norms, np.cross(d_s, d_v))
    if (side <= 0).any():
        errors.append(f"vn points against d_s x d_v at vertex {int(np.argmin(side))}")
    if faces.min() < 0 or faces.max() >= n:
        return errors + ["face index out of range"]
    # every face is half of one grid cell, and each cell is split in two
    rows, cols = faces // n_v, faces % n_v
    if ((rows.max(1) - rows.min(1) != 1) | (cols.max(1) - cols.min(1) != 1)).any():
        errors.append("a face is not a triangle of one grid cell")
    else:
        cell = rows.min(1) * (n_v - 1) + cols.min(1)
        pairs = np.sort(faces[np.argsort(cell, kind="stable")].reshape(-1, 6), axis=1)
        corners = 1 + (np.diff(pairs, axis=1) != 0).sum(axis=1)
        if (np.bincount(cell, minlength=m // 2) != 2).any() or (corners != 4).any():
            errors.append("the faces do not split every grid cell in two")
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    winding = np.einsum("ij,ij->i", np.cross(b - a, c - a), norms[faces].sum(axis=1))
    if (winding <= 0).any():
        errors.append(f"face {int(np.argmin(winding))} winds against its vertex normals")
    return errors


def check_verify(doc: dict, expect: dict) -> list:
    errors = []
    if doc.get("pass") is not True:
        errors.append("verify reports pass != true")
    for c in doc.get("checks", []):
        if not c.get("pass"):
            errors.append(f"check failed: {c.get('check')} max_abs={c.get('max_abs')}")
    got = {e["expect"]: e for e in doc.get("expectations", [])}
    if set(got) != set(expect):
        errors.append(f"expectations {sorted(got)}, want {sorted(expect)}")
    for key, want in expect.items():
        e = got.get(key)
        if e is not None and (e["want"] != want or e["got"] != want or not e["pass"]):
            errors.append(f"{key}: want {want}, program wanted {e['want']} "
                          f"and got {e['got']}")
    for key in ("geodesic", "asymptotic"):
        if key in expect and doc.get("flags", {}).get(key) is not expect[key]:
            errors.append(f"flags.{key} disagrees with the expectation")
    return errors
