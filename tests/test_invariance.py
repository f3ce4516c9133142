"""Relations that keep the surface: a rigid motion of the base curve, an
affine reparametrization s = a u + b with a > 0, the reversal s = -u and the
nonlinear reparametrization s = sinh(u).

Each is written into a bundled config's DSL strings, and ``classify`` and
``verify`` run through ``cli.main`` on the config and on its image.  No
relation may move ``classify``'s verdict, special case, corollary keys and
base-curve flags, or ``verify``'s pass and its failing checks; kappa, k_g,
k_n, tau_g and P agree row by row within 1e-10.  The draws are seeded
(derandomized) and few, to keep the suite fast.  Under the RMF, theta0 is the
angle at the start of the range, which a > 0 maps to the start: it is kept.

The reversal turns T, B and so V (with U = N cos(theta) + B sin(theta) kept
by theta -> -theta) around, so x1 and x3 change sign, and row i of the image
is row n - 1 - i of the original: kappa, k_g, P, rho and res_geodesic agree
there, and k_n, tau_g, theta, res_asymptotic and res_curvature_line change
sign.  Under the RMF, the image starts where the original ends: its theta0 is
-theta(t_max).

Under s = sinh(u) the uniform grids of the original and the image no longer
share rows, so the invariants are compared through the library, at u_i on the
image against s_i = sinh(u_i) on the original.  Every column agrees within
1e-10 under an explicit theta; under the RMF, the columns that depend on theta
agree within the two angle tables' Richardson sums plus 1e-10.  Arc-length
derivatives take the chain-rule factor 1/|r'|, which s = sinh(u) changes
along the curve.
"""

import contextlib
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS
from rmfruled import expr, invariants
from rmfruled.cli import load_config, main
from rmfruled.frame import FrameField
from rmfruled.ruled import RuledSurface

NAMES = ("proportional_normal_coeffs", "example1", "example2", "planar_cos_zero")
FLAGS = ("is_geodesic", "is_asymptotic", "is_curvature_line_frame",
         "is_curvature_line_rodrigues")
COLUMNS = ("kappa", "k_g", "k_n", "tau_g", "P")
REVERSAL_SIGNS = {**dict.fromkeys(("kappa", "k_g", "P", "rho", "res_geodesic"), 1.0),
                  **dict.fromkeys(("k_n", "tau_g", "theta", "res_asymptotic",
                                   "res_curvature_line"), -1.0)}
TOL = 1e-10

SINH = "(exp(s)-exp(-s))/2"
THETA_FREE = ("kappa", "tau", "x1", "x2", "x3")  # the columns theta leaves alone

_ANGLE = st.floats(-math.pi, math.pi)
_SHIFT = st.floats(-10.0, 10.0)


def _run(doc: dict) -> tuple:
    """(classify JSON, verify JSON) of the config ``doc``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        for cmd, extra in (("classify", ["--format", "json"]), ("verify", [])):
            path = Path(tmp) / f"{cmd}.json"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([cmd, "--config", str(cfg), "--out", str(path), *extra])
            assert code in (0, 1), err.getvalue()
            out.append(json.loads(path.read_text()))
    return tuple(out)


@functools.cache
def _original(name: str) -> tuple:
    return _run(json.loads((CONFIGS / f"{name}.json").read_text()))


def _column(report: dict, name: str) -> np.ndarray:
    return np.array([math.nan if row[name] is None else row[name]
                     for row in report["base_curve"]["samples"]])


def _assert_same_surface(name: str, doc: dict, signs=dict.fromkeys(COLUMNS, 1.0),
                         step=1):
    """The checks above; row i of ``doc``'s report, taken with ``step`` and
    times ``signs[column]``, is row i of the original's."""
    (c0, v0), (c1, v1) = _original(name), _run(doc)
    assert (c1["verdict"], c1["special_case"]) == (c0["verdict"], c0["special_case"])
    assert list(c1["corollary_conditions"]) == list(c0["corollary_conditions"])
    assert ([c1["base_curve"][f] for f in FLAGS]
            == [c0["base_curve"][f] for f in FLAGS])
    for col, sign in signs.items():
        np.testing.assert_allclose(sign * _column(c1, col)[::step], _column(c0, col),
                                   rtol=0, atol=TOL, err_msg=col)
    failing = [[c["check"] for c in v["checks"] if not c["pass"]] for v in (v0, v1)]
    assert (v1["pass"], failing[1]) == (v0["pass"], failing[0])


def _rotation(a: float, b: float, c: float) -> np.ndarray:
    """Rz(a) Ry(b) Rx(c)."""
    ca, sa, cb, sb, cc, sc = (f(t) for t in (a, b, c) for f in (math.cos, math.sin))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(st.tuples(_ANGLE, _ANGLE, _ANGLE), st.tuples(_SHIFT, _SHIFT, _SHIFT))
def test_rigid_motion_keeps_the_surface(name, angles, shift):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    curve = doc["curve"]
    xyz = [curve[k] for k in "xyz"]
    for k, row, t in zip("xyz", _rotation(*angles).tolist(), shift):
        curve[k] = " + ".join(f"({r!r})*({e})" for r, e in zip(row, xyz)) + f" + ({t!r})"
    _assert_same_surface(name, doc)


def _substitute(text: str, image: str) -> str:
    """``text`` with every ``s`` replaced by ``(image)``."""
    return re.sub(r"\bs\b", f"({image})", text)


def _affine(a: float, b: float) -> str:
    return f"({a!r})*s + ({b!r})"


def _reparametrize(doc: dict, image: str, s_range: list):
    """Write s = ``image`` (in u, spelled ``s``) into the curve, the director
    and an explicit theta of ``doc``, on the u-range ``s_range``."""
    curve, director, theta = doc["curve"], doc["director"], doc["theta"]
    for part, keys in ((curve, "xyz"), (director, ("x1", "x2", "x3"))):
        for k in keys:
            part[k] = _substitute(part[k], image)
    if theta["mode"] == "explicit":
        theta["expr"] = _substitute(theta["expr"], image)
    curve["s_range"] = s_range


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(st.floats(0.5, 2.0), st.floats(-3.0, 3.0))
def test_affine_reparametrization_keeps_the_surface(name, a, b):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    _reparametrize(doc, _affine(a, b), [(t - b) / a for t in doc["curve"]["s_range"]])
    _assert_same_surface(name, doc)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_reversal_keeps_the_surface(name):
    path = CONFIGS / f"{name}.json"
    doc = json.loads(path.read_text())
    curve, director, theta = doc["curve"], doc["director"], doc["theta"]
    flip = _affine(-1.0, 0.0)
    for k in "xyz":
        curve[k] = _substitute(curve[k], flip)
    for k, sign in (("x1", "-"), ("x2", ""), ("x3", "-")):
        director[k] = f"{sign}({_substitute(director[k], flip)})"
    t_min, t_max = curve["s_range"]
    curve["s_range"] = [-t_max, -t_min]
    if theta["mode"] == "explicit":
        theta["expr"] = f"-({_substitute(theta['expr'], flip)})"
    else:
        sdef = load_config(str(path)).surface
        theta["theta0"] = -FrameField(sdef.curve, sdef.theta).frame_at(float(t_max))[1].theta
    _assert_same_surface(name, doc, REVERSAL_SIGNS, step=-1)


def _surface(doc: dict) -> RuledSurface:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        return RuledSurface(load_config(str(cfg)).surface)


@pytest.mark.parametrize("name", NAMES)
def test_sinh_reparametrization_keeps_the_surface(name):
    # An explicit theta becomes theta(sinh u); the RMF keeps theta0, since an
    # increasing map keeps the start of the range.
    original = json.loads((CONFIGS / f"{name}.json").read_text())
    doc = json.loads(json.dumps(original))
    _reparametrize(doc, SINH, [math.asinh(t) for t in original["curve"]["s_range"]])
    _assert_same_surface(name, doc, signs={})

    before, after = _surface(original), _surface(doc)
    u = np.linspace(*doc["curve"]["s_range"], doc["grid"]["n_s"])
    s = expr.eval_jet(SINH, u).value
    rows0, rows1 = (invariants.base_curve_report(surface, grid).table
                    for surface, grid in ((before, s), (after, u)))
    slack = (0.0 if doc["theta"]["mode"] == "explicit"
             else before.field.richardson + after.field.richardson)
    for i, col in enumerate(invariants.COLUMNS[1:], 1):
        np.testing.assert_allclose(rows1[:, i], rows0[:, i], rtol=0, err_msg=col,
                                   atol=TOL + (0.0 if col in THETA_FREE else slack))
