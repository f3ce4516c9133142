"""Grid-valued surface core against the float path, sample by sample.

On the s-grid G of each bundled config, and on G - h and G + h where the
finite-difference oracles evaluate, every grid element must equal the float
call bit for bit, and be NaN exactly where the float call raises.  Three more
surfaces cover failing samples: the curve (s, s^3, s^4), whose curvature
vanishes at the node s = 0 (the RMF bridges it); a cusp whose tangent
vanishes there (the grid Frenet call gives NaN at that sample alone); and a
director 1/s, whose grid evaluation is NaN at s = 0 alone.  No grid call
raises for a failing sample, so a cusp costs a run a few float calls, not
one per sample.  A grid stacked from two grids must give what the two give
apart, ``RuledSurface.stack`` makes its stacked passes at once,
``RuledSurface.sample`` on a v-grid gives each v's rows of the float-v call
(``classify`` takes K from one such call), and one
``verify`` or ``surface`` run makes a pinned number of curve passes (and
``verify`` one frame, one director-row and one batched determinant grid
call).  The RMF angle table must hold at each node the rate of a float
:func:`curve.frenet` call there, bit for bit, NaN where that call raises.
The probe that makes the float calls at failing samples,
``expr._float_path``, has a contract test of its own.
"""

import json
import sys

import numpy as np
import pytest

from conftest import CONFIGS, make_surface
from rmfruled import curve, expr, frame, ruled
from rmfruled.cli import load_config, main
from rmfruled.curve import CurveDef
from rmfruled.errors import DegenerateTangent, GeometryError, VanishingCurvature
from rmfruled.frame import ExplicitTheta, FrameField, RotationMinimizing
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
    except (GeometryError, expr.ExprError):  # what these surfaces raise at a float
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


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_caches_equal_separate_calls(name):
    # After ``stack(a, b)`` the frame, director row and base normal of a and
    # of b are slices of one call on [a; b], and so is all built on them.
    make, lo, hi = STACKED[name]
    a = np.linspace(lo, hi, 41)
    b = np.linspace(lo, hi, 23)[1:-1] + FD_STEP
    for call in (lambda sf, t: sf.frame(t), lambda sf, t: sf._row(t),
                 lambda sf, t: sf.base_normal(t), lambda sf, t: sf.sample(t, 0.3),
                 lambda sf, t: sf.director_derivative_closed(t)):
        stacked = make()
        stacked.stack(a, b)
        assert [_bytes(call(stacked, t)) for t in (b, a)] == [
            _bytes(call(make(), t)) for t in (b, a)]


V_GRID = np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("name,raises", [
    ("director_1_over_s", {"VanishingCurvature"}),
    ("example1", {"SingularPoint"}),  # the partials degenerate at s = 0
    ("proportional_normal_coeffs", set()),
])
def test_sample_on_a_v_grid_equals_each_v_apart(name, raises):
    # One stencil for every v gives each v's row of every field of the
    # float-v call, bit for bit; a float s gives its column of the same rows;
    # a float s and v raise where that row is NaN, and nowhere else.
    make, n_s = SURFACES[name]
    c = make().sdef.curve
    G = np.linspace(c.t_min, c.t_max, n_s)
    whole = fields(make().sample(G, V_GRID))
    keys = [k for k in whole if k not in ("s", "v")]
    assert whole["v"] is V_GRID and whole["K"].shape == (len(V_GRID), n_s)
    for j, v in enumerate(V_GRID.tolist()):
        apart = fields(make().sample(G, v))
        assert [_bytes(whole[k][j]) for k in keys] == [_bytes(apart[k]) for k in keys]
    float_surf, raised = make(), set()
    for i, t in enumerate(G.tolist()):
        column = _float_or_none(lambda t: float_surf.sample(t, V_GRID), t)
        if column is None:
            assert np.isnan(whole["K"][:, i]).all()
        else:
            assert [_bytes(fields(column)[k]) for k in keys] == [
                _bytes(whole[k][:, i]) for k in keys]
        for j, v in enumerate(V_GRID.tolist()):
            try:
                float_surf.sample(t, v)
            except GeometryError as err:
                raised.add(type(err).__name__)
                assert np.isnan(whole["K"][j, i])
            else:
                assert np.isfinite(whole["K"][j, i])
    assert raised == raises


def test_stack_is_eager():
    # ``stack`` makes its frame and row passes at once; the grids then hit.
    surface = SURFACES["proportional_normal_coeffs"][0]()
    a = np.linspace(0.5, 5.0, 41)
    b = a + FD_STEP
    surface.stack(a, b)
    assert surface._frame_at.cache_info().misses == 1
    assert surface._row.cache_info().misses == 1
    hits = surface._frame_at.cache_info().hits
    surface.frame(a), surface.frame(b)
    assert surface._frame_at.cache_info()[:2] == (hits + 2, 1)


def test_stack_covers_base_normals():
    # the base normals of all the stacked grids are one pass too
    surface = SURFACES["proportional_normal_coeffs"][0]()
    a = np.linspace(0.5, 5.0, 41)
    surface.stack(a, a + FD_STEP, a - FD_STEP)
    assert surface._normal0.cache_info().misses == 1
    surface.base_normal(a), surface.base_normal(a - FD_STEP)
    assert surface._normal0.cache_info()[:2] == (2, 1)


def test_cached_arrays_are_read_only():
    # every array a cache stores is shared by its callers, so none takes a
    # write: the slices ``stack`` stores, a plain grid call's and a float call's
    surface = SURFACES["proportional_normal_coeffs"][0]()
    a = np.linspace(0.5, 5.0, 41)
    surface.stack(a, a + FD_STEP)
    for s in (a, a + FD_STEP, np.linspace(1.0, 2.0, 5), 1.25):
        _, X, Xp = surface._row(s)
        arrays = [X, Xp, surface.base_normal(s)]
        if isinstance(s, np.ndarray):  # a float determinant is a float
            arrays.append(surface.ruling_det(s))
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


def test_keyed_cache_evicts_the_oldest_entry():
    cache = ruled._Keyed(lambda s: s)
    for s in range(ruled._Keyed.MAXSIZE + 1):
        cache(float(s))
    assert cache.cache_info() == (0, 8193, 8192, 8192)
    cache(1.0)
    assert cache.cache_info().hits == 1
    cache(0.0)  # the oldest went first
    assert cache.cache_info()[:2] == (1, 8194)


def test_float_path_probe_contract():
    s = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    rows = np.ones((6, 3))
    rows[4, 2], rows[1, 0], rows[3] = np.nan, -np.inf, [np.nan, np.inf, 1.0]
    calls = []

    def fn(t):
        calls.append(t)
        if t == 1.5:
            raise VanishingCurvature("flat")
        if t == 2.0:
            raise ZeroDivisionError("pole")

    # Only rows holding NaN or inf are probed, in index order, as Python floats.
    with pytest.raises(ZeroDivisionError):
        expr._float_path(fn, s, rows, (VanishingCurvature,))
    assert calls == [0.5, 1.5, 2.0] and all(type(t) is float for t in calls)
    with pytest.raises(VanishingCurvature):  # no catch: the first failure raises
        expr._float_path(fn, s, rows)
    # ok is False exactly where the caught error was raised.
    calls.clear()
    ok, failed = expr._float_path(fn, s, rows, (VanishingCurvature, ArithmeticError))
    assert calls == [0.5, 1.5, 2.0]
    assert ok.tolist() == [True, True, True, False, False, True]
    assert failed == {3: "VanishingCurvature", 4: "ZeroDivisionError"}
    # A 1-D grid of values, and an all-finite grid, which makes no call.
    calls.clear()
    ok, failed = expr._float_path(fn, s, np.array([1, np.inf, 1, 1, 1, np.nan]))
    assert calls == [0.5, 2.5] and ok.all() and failed == {}
    calls.clear()
    ok, failed = expr._float_path(fn, s, rows[[0, 2, 5]][[0, 1, 2, 0, 1, 2]])
    assert calls == [] and ok.all() and failed == {}
    assert expr._float_path(fn, s[:0], np.empty((0, 3)))[0].shape == (0,)


def test_failing_samples_take_the_float_exception_class():
    flat, _ = SURFACES["flat_node"]
    surf = flat()
    G = np.linspace(-1, 1, 101)
    _, failed = expr._float_path(surf.frame, G, surf.frame(G)[1].U, GeometryError)
    assert failed == {50: VanishingCurvature.__name__}
    cusp, _ = SURFACES["cusp"]
    surf = cusp()
    G = np.linspace(-1, 1, 51)
    assert expr._float_path(surf.frame, G, surf.frame(G)[1].U, GeometryError)[1] == {
        25: DegenerateTangent.__name__}
    rep = ruled.classify(surf, n_s=51, n_v=5)
    assert [0.0, "DegenerateTangent"] in [list(x) for x in rep.skipped_samples]


def test_one_failing_sample_keeps_the_others():
    # The float Frenet call raises DegenerateTangent at s = 0 alone.
    cusp, _ = SURFACES["cusp"]
    surf = cusp()
    G = np.linspace(-1, 1, 51)
    fd, af = surf.frame(G)
    assert np.isnan(af.U[25]).all() and np.isfinite(np.delete(af.U, 25, 0)).all()
    # x1 = 1/s raises at the float s = 0; the other rows keep their values.
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


@pytest.mark.parametrize("command,code", [("classify", 0), ("verify", 1),
                                          ("surface", 3)])
def test_a_cusp_costs_a_few_float_frames(tmp_path, monkeypatch, command, code):
    # The cusp (|r'| = 0 at s = 0) fails at one sample of 2001: the float path
    # asks that sample why, not every sample of the grid.
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["curve"] = {"x": "s^3", "y": "s^2", "z": "s^4", "s_range": [-1, 1]}
    cfg = tmp_path / "cusp.json"
    cfg.write_text(json.dumps(doc))
    floats, frame_at = [], FrameField.frame_at

    def counting(self, t):
        if not isinstance(t, np.ndarray):
            floats.append(t)
        return frame_at(self, t)

    monkeypatch.setattr(FrameField, "frame_at", counting)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--samples", "2001"]) == code
    assert 1 <= len(floats) <= 4


def test_verify_work_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    calls = []
    eval_jet = expr.eval_jet

    def counting(e, s, *args):
        calls.append(s)
        return eval_jet(e, s, *args)

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
    ("verify", "proportional_normal_coeffs.json", 9, 2),
    ("classify", "proportional_normal_coeffs.json", 15, 3),
    ("surface", "proportional_normal_coeffs.json", 9, 2),
    ("surface", "example1.json", 7, 1),
])
def test_curve_passes_per_run(tmp_path, monkeypatch, command, cfg, jets, frenets):
    # Three curve jets per grid.  Under the RMF the angle table takes one
    # Frenet call on its nodes and midpoints for its rates.  Every other grid
    # takes one Frenet call, stacked on its panel midpoints under the RMF, and
    # three director jets; an explicit theta adds one jet.
    # surface evaluates the s-grid; verify evaluates [s; s + h; s - h] once,
    # for the report and the oracles alike; classify evaluates the s-grid,
    # then [s - h; s; s + h] for its K stencil, which verify does not run.
    jet_calls = _count_calls(monkeypatch, expr, "eval_jet")
    frenet_calls = _count_calls(monkeypatch, curve, "frenet")
    assert main([command, "--config", str(CONFIGS / cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert (len(jet_calls), len(frenet_calls)) == (jets, frenets)


def test_verify_takes_one_determinant_of_its_grid(tmp_path, monkeypatch):
    # The P column, the closed-numerator check and the developability verdict
    # share one batched det(T, X, X') of the s-grid.
    batched, det = [], np.linalg.det

    def counting(m):
        if np.ndim(m) == 3:
            batched.append(len(m))
        return det(m)

    monkeypatch.setattr(np.linalg, "det", counting)
    assert main(["verify", "--config", str(CONFIGS / "proportional_normal_coeffs.json"),
                 "--out", str(tmp_path / "v.json")]) == 0
    assert batched == [101]


def test_verify_evaluates_each_grid_once(tmp_path, monkeypatch):
    # The report, the four oracles, the director checks and the verdict read
    # G and [G + h; G - h] as slices of one pass over [G; G + h; G - h].
    frames, rows = [], []
    frame_at, director_row = FrameField.frame_at, RuledSurface._director_row

    def counting_frame(self, t):
        if isinstance(t, np.ndarray):
            frames.append(len(t))
        return frame_at(self, t)

    def counting_row(self, s):
        if isinstance(s, np.ndarray):
            rows.append(len(s))
        return director_row(self, s)

    monkeypatch.setattr(FrameField, "frame_at", counting_frame)
    monkeypatch.setattr(RuledSurface, "_director_row", counting_row)
    cfg = CONFIGS / "proportional_normal_coeffs.json"
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
    n_s = load_config(str(cfg)).n_s
    assert frames == [3 * n_s] and rows == [3 * n_s]


def test_classify_takes_k_from_one_sample_call(monkeypatch):
    # every interior v of the K cross-check shares one stencil of the s-grid
    grids, sample = [], RuledSurface.sample

    def counting(self, s, v):
        if isinstance(s, np.ndarray):
            grids.append(np.shape(v))
        return sample(self, s, v)

    monkeypatch.setattr(RuledSurface, "sample", counting)
    job = load_config(str(CONFIGS / "proportional_normal_coeffs.json"))
    ruled.classify(RuledSurface(job.surface), n_s=job.n_s, n_v=11)
    assert grids == [(8,)]  # the 9 interior v of 11, less v = 0


RATE_CURVES = {
    **{name: make().sdef.curve for name, (make, _) in SURFACES.items()
       if name not in ("flat_node", "cusp", "director_1_over_s")},
    "flat_node": FLAT,
    "cusp": CUSP,
    "fast_sqrt": CurveDef.from_strings("1e110*s", "cos(s)", "sin(s)", 0, 1),
    # each |x_i'| below MAX_SPEED, |r'| above it: the second speed check
    "fast_diagonal": CurveDef.from_strings("4e102*s", "4e102*s", "4e102*s^2", 0, 1),
}


def _outcome(fn, t):
    """``("value", bytes)`` of ``fn(t)``, or the class and text of its error."""
    try:
        return "value", np.asarray(fn(t)).tobytes()
    except Exception as err:  # compared as they are, whatever they are
        return type(err).__name__, str(err)


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
def test_rate_pass_equals_frenet(name):
    # The angle table, sized as FrameField sizes it, holds at each node the
    # rate -|r'| tau of a float Frenet call there, bit for bit, and NaN where
    # that call raises; a table that raises raises the error class of the
    # float call at the first node where one fails.
    c = RATE_CURVES[name]

    def rate(t):
        fd = curve.frenet(c, t)
        return -fd.speed * fd.tau

    nodes = np.linspace(c.t_min, c.t_max, frame._N_CELLS + 1)
    try:
        table = frame.theta_rmf(c, 0.0, nodes, tol=frame.TOL_TABLE)
    except Exception as err:  # compared as they are, whatever they are
        failed = (_outcome(rate, t) for t in nodes.tolist())
        assert type(err).__name__ == next(o[0] for o in failed if o[0] != "value")
        return
    for t, got in zip(table.nodes.tolist(), table.rates.tolist()):
        kind, value = _outcome(rate, t)
        assert np.float64(got).tobytes() == value if kind == "value" else np.isnan(got)
