"""Grid-valued surface core against the float path, sample by sample.

On the s-grid G of each bundled config, and on G - h and G + h where the
finite-difference oracles evaluate, every grid element must equal the float
call bit for bit, and be NaN exactly where the float call raises.  Three more
surfaces cover failing samples: the curve (s, s^3, s^4), whose curvature
vanishes at the node s = 0 (the RMF bridges it); a cusp whose tangent
vanishes there (the grid Frenet call raises, so the grid is redone sample by
sample); and a director 1/s, whose grid evaluation raises at s = 0.  A grid
stacked from two grids must give what the two give apart, and one ``verify``
or ``surface`` run makes a pinned number of curve passes.
"""

import json
import sys

import numpy as np
import pytest

from conftest import CONFIGS, make_surface
from rmfruled import curve, expr, ruled
from rmfruled.cli import load_config, main
from rmfruled.curve import CurveDef
from rmfruled.errors import DegenerateTangent, VanishingCurvature
from rmfruled.frame import ExplicitTheta, RotationMinimizing
from rmfruled.record import fields
from rmfruled.ruled import FD_STEP, RuledSurface

FLAT = CurveDef.from_strings("s", "s^3", "s^4", -1, 1)
CUSP = CurveDef.from_strings("s^3", "s^2", "s^4", -1, 1)


def _surfaces():
    out = {}
    for cfg in sorted(CONFIGS.glob("*.json")):
        job = load_config(str(cfg))
        out[cfg.stem] = (lambda sdef=job.surface: RuledSurface(sdef), job.n_s)
    out["flat_node"] = (lambda: make_surface(FLAT, RotationMinimizing(0.0),
                                             "s", "1", "s^2"), 101)
    out["cusp"] = (lambda: make_surface(CUSP, ExplicitTheta.from_string("atan(s)"),
                                        "1", "s", "1"), 51)
    out["director_1_over_s"] = (lambda: make_surface(FLAT, RotationMinimizing(0.3),
                                                     "1/s", "1", "s"), 21)
    return out


SURFACES = _surfaces()


def _float_or_none(fn, t):
    try:
        return fn(t)
    except ruled._FAILURES:
        return None


def _same(grid_rows, float_values):
    """Each grid row is NaN where the float call raised, else its bytes."""
    for row, want in zip(grid_rows, float_values):
        row = np.asarray(row)
        if want is None:
            assert np.isnan(row).all()
        else:
            assert row.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("shift", [-FD_STEP, 0.0, FD_STEP], ids=["G-h", "G", "G+h"])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_grid_equals_float_path(name, shift):
    make, n_s = SURFACES[name]
    grid_surf, float_surf = make(), make()
    c = grid_surf.sdef.curve
    G = np.linspace(c.t_min, c.t_max, n_s) + shift
    ts = G.tolist()

    fd, af = grid_surf.frame(G)
    frames = [_float_or_none(float_surf.frame, t) for t in ts]
    for grid_rows, field, i in ((fd.N, "N", 0), (fd.B, "B", 0), (af.U, "U", 1),
                                (af.V, "V", 1)):
        _same(grid_rows, [f and getattr(f[i], field) for f in frames])
    framed = [f is not None for f in frames]
    _same(fd.T[framed], [f[0].T for f in frames if f])  # T exists at flat samples
    _same(af.theta[framed], [f[1].theta for f in frames if f])

    _, X, Xp = grid_surf._row(G)
    rows = [_float_or_none(float_surf._row, t) for t in ts]
    _same(X, [r and r[1] for r in rows])
    _same(Xp, [r and r[2] for r in rows])
    _same(grid_surf.ruling_det(G), [_float_or_none(float_surf.ruling_det, t) for t in ts])
    _same(grid_surf.normal(G, 0.0),
          [_float_or_none(lambda t: float_surf.normal(t, 0.0), t) for t in ts])
    if grid_surf.is_rmf:
        comps, world = grid_surf.director_derivative_closed(G)
        closed = [_float_or_none(float_surf.director_derivative_closed, t) for t in ts]
        _same(comps, [d and d[0] for d in closed])
        _same(world, [d and d[1] for d in closed])
        _same(grid_surf.det_numerator_closed(G),
              [_float_or_none(float_surf.det_numerator_closed, t) for t in ts])


def _fields(x):
    return list(fields(x).values())


def _concat(x, y, axis=0):
    """The results of two grid calls, joined in the shape that one call on the
    joined grids returns: arrays along the sample ``axis``, records and
    tuples field by field, and equal floats (a sample's v) kept as they are."""
    if isinstance(x, tuple):
        return tuple(_concat(a, b, axis) for a, b in zip(x, y))
    if fields(x) is not None:
        return type(x)(*(_concat(a, b, axis) for a, b in zip(_fields(x), _fields(y))))
    if isinstance(x, np.ndarray):
        return np.concatenate([x, y], axis=axis)
    assert x == y
    return x


def _bytes(x):
    if isinstance(x, tuple):
        return [_bytes(v) for v in x]
    if fields(x) is not None:
        return [_bytes(v) for v in _fields(x)]
    return np.asarray(x).tobytes()


STACKED = {
    "rmf": (SURFACES["proportional_normal_coeffs"][0], 0.5, 5.0),
    "explicit": (SURFACES["example1"][0], -5.0, 5.0),
    "flat_node": (SURFACES["flat_node"][0], -1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_grids_equal_separate_calls(name):
    # frames and the FD oracles stack the queries on their panel midpoints
    # or on s +- h; each grid must come out as it does alone
    make, lo, hi = STACKED[name]
    a = np.linspace(lo, hi, 41)  # holds 0, the flat node, on (s, s^3, s^4)
    b = np.linspace(lo, hi, 23)[1:-1] + FD_STEP
    v_vals = np.linspace(-1.0, 1.0, 5)
    calls = {"frame": lambda sf, t: sf.frame(t),
             "_row": lambda sf, t: sf._row(t),
             "normal": lambda sf, t: sf.normal(t, v_vals),
             "sample": lambda sf, t: sf.sample(t, 0.3)}
    for what, call in calls.items():
        axis = 1 if what == "normal" else 0
        apart = _concat(call(make(), a), call(make(), b), axis)
        assert _bytes(call(make(), np.concatenate([a, b]))) == _bytes(apart), what
    if name == "flat_node":
        fd, af = make().frame(np.concatenate([a, b]))
        assert np.isnan(af.U[20]).all() and np.isnan(fd.N[20]).all()
        assert np.isfinite(np.delete(af.U, 20, 0)).all()


def test_failing_samples_take_the_float_exception_class():
    flat, _ = SURFACES["flat_node"]
    surf = flat()
    G = np.linspace(-1, 1, 101)
    failed = ruled._float_path(surf.frame, G, surf.frame(G)[1].U)
    assert failed == {50: VanishingCurvature.__name__}
    cusp, _ = SURFACES["cusp"]
    surf = cusp()
    G = np.linspace(-1, 1, 51)
    assert ruled._float_path(surf.frame, G, surf.frame(G)[1].U) == {
        25: DegenerateTangent.__name__}
    rep = ruled.classify(surf, n_s=51, n_v=5)
    assert [0.0, "DegenerateTangent"] in [list(x) for x in rep.skipped_samples]


def test_grid_raising_for_one_sample_keeps_the_others():
    # The grid Frenet call raises DegenerateTangent at s = 0 alone.
    cusp, _ = SURFACES["cusp"]
    surf = cusp()
    G = np.linspace(-1, 1, 51)
    fd, af = surf.frame(G)
    assert np.isnan(af.U[25]).all() and np.isfinite(np.delete(af.U, 25, 0)).all()
    # x1 = 1/s raises on the grid at s = 0; the other rows keep their values.
    one_over_s, _ = SURFACES["director_1_over_s"]
    surf = one_over_s()
    G = np.linspace(-1, 1, 21)
    jets, X, _ = surf._row(G)
    assert np.isnan(X[10]).all() and np.isfinite(np.delete(X, 10, 0)).all()
    assert jets[1].value[0] == 1.0


def test_cusp_and_pole_through_the_cli(tmp_path, capsys):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["curve"] = {"x": "s^3", "y": "s^2", "z": "s^4", "s_range": [-1, 1]}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["classify", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    rep = json.loads(out.read_text())
    assert [0.0, "DegenerateTangent"] in rep["skipped_samples"]
    assert 0.0 in rep["base_curve"]["excluded"]
    doc["curve"]["x"] = "s"
    doc["director"]["x1"] = "1/s"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("E_GEOMETRY: division by zero")


def test_verify_work_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    calls = []
    eval_jet = expr.eval_jet

    def counting(e, s):
        calls.append(s)
        return eval_jet(e, s)

    monkeypatch.setattr(expr, "eval_jet", counting)
    counts = []
    for n_s in (51, 201):
        calls.clear()
        assert main(["verify", "--config", str(CONFIGS / "proportional_normal_coeffs.json"),
                     "--out", str(tmp_path / "v.json"), "--samples", str(n_s)]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _count_calls(monkeypatch, module, name) -> list:
    """Calls of ``module.name``, counted through every rmfruled module that
    binds the function (``frame`` imports ``frenet`` by name)."""
    calls, orig = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rmfruled":
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("command,cfg,jets,frenets", [
    ("verify", "proportional_normal_coeffs.json", 15, 3),
    ("classify", "proportional_normal_coeffs.json", 15, 3),
    ("surface", "proportional_normal_coeffs.json", 9, 2),
    ("surface", "example1.json", 7, 1),
])
def test_curve_passes_per_run(tmp_path, monkeypatch, command, cfg, jets, frenets):
    # One Frenet call (three curve jets) per grid: under the RMF the angle
    # table on its nodes and midpoints, then the s-grid with its panel
    # midpoints; verify adds s +- h for the oracles, and classify adds
    # [s - h; s; s + h] for its K stencil, which verify does not run.  Each
    # grid but the table also takes three director jets, and an explicit theta
    # one jet of its own.
    jet_calls = _count_calls(monkeypatch, expr, "eval_jet")
    frenet_calls = _count_calls(monkeypatch, curve, "frenet")
    assert main([command, "--config", str(CONFIGS / cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert (len(jet_calls), len(frenet_calls)) == (jets, frenets)
