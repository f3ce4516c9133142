"""Grid-valued surface core against the float path, sample by sample.

On the s-grid G of each bundled config, and on G - h and G + h where the
finite-difference oracles evaluate, every grid element must equal the float
call bit for bit, and be NaN exactly where the float call raises.  Three more
surfaces cover failing samples: the curve (s, s^3, s^4), whose curvature
vanishes at the node s = 0 (the RMF bridges it); a cusp whose tangent
vanishes there (the grid Frenet call raises, so the grid is redone sample by
sample); and a director 1/s, whose grid evaluation raises at s = 0.
"""

import json

import numpy as np
import pytest

from conftest import CONFIGS, make_surface
from rmfruled import expr, ruled
from rmfruled.cli import load_config, main
from rmfruled.curve import CurveDef
from rmfruled.errors import DegenerateTangent, VanishingCurvature
from rmfruled.frame import ExplicitTheta, RotationMinimizing
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
