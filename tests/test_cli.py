import json
import math

import pytest

from conftest import CONFIGS
from rmfruled import frame, ruled
from rmfruled.cli import load_config, main
from test_golden import _run


def run(tmp_path, *argv):
    return main(list(argv))


def test_load_example_config():
    job = load_config(str(CONFIGS / "example1.json"))
    assert job.n_s == 101 and job.n_v == 11
    assert job.fmt == "csv"
    assert job.expect == {"geodesic": True, "asymptotic": False}


def test_config_missing_file(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("E_CONFIG:")


def test_config_malformed_dsl(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["curve"]["x"] = "sin("
    cfg.write_text(json.dumps(doc))
    assert main(["frames", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("E_CONFIG:") and "offset 4" in err


def test_config_theta_mode_exclusive(tmp_path):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["theta"] = {"mode": "rmf"}  # theta0 missing
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["classify", "--config", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_missing_output_path(tmp_path, capsys):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    del doc["outputs"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["surface", "--config", str(cfg)]) == 2


def test_geometry_error_exit_code(tmp_path, capsys):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["curve"] = {"x": "s", "y": "0", "z": "0", "s_range": [0, 1]}
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["frames", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.startswith("E_GEOMETRY:")


def test_frames_helix_columns(tmp_path):
    out = tmp_path / "frames.csv"
    assert main(["frames", "--config", str(CONFIGS / "tangent_ruling.json"),
                 "--out", str(out), "--samples", "11"]) == 0
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    ik, it = cols.index("kappa"), cols.index("tau")
    for row in rows:
        vals = row.split(",")
        assert float(vals[ik]) == pytest.approx(0.6, abs=1e-12)
        assert float(vals[it]) == pytest.approx(0.8, abs=1e-12)
    assert len(rows) == 11


def test_frames_planar_curve_zero_torsion(tmp_path):
    out = tmp_path / "frames.csv"
    assert main(["frames", "--config", str(CONFIGS / "planar_sin_zero.json"),
                 "--out", str(out), "--samples", "13"]) == 0
    header, *rows = out.read_text().splitlines()
    it = header.split(",").index("tau")
    assert all(abs(float(r.split(",")[it])) < 1e-12 for r in rows)


def test_surface_writes_obj(tmp_path):
    out = tmp_path / "m.obj"
    assert main(["surface", "--config", str(CONFIGS / "example1.json"),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("v ")
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 101 * 11


@pytest.mark.parametrize("cfg,verdict,case", [
    ("tangent_ruling.json", "yes", "X=T"),
    ("proportional_normal_coeffs.json", "yes", "span{U,V}"),
    ("planar_sin_zero.json", "yes", "span{T,U}"),
    ("planar_cos_zero.json", "yes", "span{T,V}"),
    ("example1.json", "no", "general"),
])
def test_classify_bundled_configs(tmp_path, cfg, verdict, case):
    out = tmp_path / "r.json"
    assert main(["classify", "--config", str(CONFIGS / cfg),
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == verdict
    assert doc["special_case"] == case


def test_classify_csv_table(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["classify", "--config", str(CONFIGS / "example1.json"),
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["s", "kappa", "tau", "theta"]


def test_verify_examples_pass(tmp_path):
    for cfg in ("example1.json", "example2.json"):
        out = tmp_path / "v.json"
        assert main(["verify", "--config", str(CONFIGS / cfg),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert all(c["pass"] for c in doc["checks"])


def test_verify_rmf_theta_breaks_geodesic(tmp_path):
    # the geodesic property needs tan(theta) = x2/x3; the true RMF angle
    # of the helix is linear in s, so the expectation must fail
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "v.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["flags"]["geodesic"] is False
    assert any(e["expect"] == "geodesic" and not e["pass"]
               for e in rep["expectations"])


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for out in (a, b):
        assert main(["surface", "--config", str(CONFIGS / "example2.json"),
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    for out in (va, vb):
        assert main(["verify", "--config", str(CONFIGS / "example2.json"),
                     "--out", str(out)]) == 0
    assert va.read_bytes() == vb.read_bytes()


def test_curvature_free_grid_node_is_excluded(tmp_path):
    # kappa vanishes at s = 0, a node of the 101-sample grid
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"] = {"x": "s", "y": "s^3", "z": "s^4", "s_range": [-1, 1]}
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["classify", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) != 3
    rep = json.loads(out.read_text())
    assert 0.0 in rep["base_curve"]["excluded"]
    assert [0.0, "VanishingCurvature"] in rep["skipped_samples"]
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) != 3


@pytest.mark.parametrize("command", ["classify", "verify", "surface"])
def test_zero_director_is_a_geometry_error(tmp_path, capsys, command):
    # example1's own director (s^2, s^2, s) vanishes only at s = 0 and is fine
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["director"] = {"x1": "0", "x2": "0", "x3": "0"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_GEOMETRY:") and "every grid node" in err
    assert not out.exists()


def test_verify_evaluates_director_derivative_once_per_s(tmp_path, monkeypatch):
    seen = []
    frame_derivatives = ruled.frame_derivatives

    def spy(fd, af):
        seen.append(fd.position.tobytes())  # distinct s, distinct helix point
        return frame_derivatives(fd, af)

    monkeypatch.setattr(ruled, "frame_derivatives", spy)
    assert main(["verify", "--config", str(CONFIGS / "proportional_normal_coeffs.json"),
                 "--out", str(tmp_path / "v.json")]) == 0
    assert seen and len(seen) == len(set(seen))


def test_frames_do_not_evaluate_the_director(tmp_path):
    # x1 = 1/s has no value at the grid node s = 0, which frames never needs
    texts = []
    for x1 in ("1/s", "1"):
        doc = json.loads((CONFIGS / "example1.json").read_text())
        doc["curve"]["s_range"] = [-1, 1]
        doc["theta"] = {"mode": "rmf", "theta0": 0}
        doc["director"]["x1"] = x1
        cfg, out = tmp_path / "c.json", tmp_path / f"{len(texts)}.csv"
        cfg.write_text(json.dumps(doc))
        assert main(["frames", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] and "\n0,0.6," in texts[0]


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("theta", [{"mode": "rmf", "theta0": 0},
                                   {"mode": "explicit", "expr": "atan(s)"}],
                         ids=["rmf", "explicit"])
def test_fast_curve_is_a_geometry_error(tmp_path, capsys, command, theta):
    # |r'| = 1e110 everywhere, so kappa's denominator |r'|^3 leaves the float
    # range: the grid and float paths stop with the same line
    _assert_too_fast(tmp_path, capsys, command, theta, "1e110")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("theta", [{"mode": "rmf", "theta0": 0},
                                   {"mode": "explicit", "expr": "atan(s)"}],
                         ids=["rmf", "explicit"])
def test_overflowing_speed_squared_is_a_geometry_error(tmp_path, capsys, command,
                                                       theta):
    # |r'| = 1e160: |r'|^2 itself overflows, which is checked before squaring
    _assert_too_fast(tmp_path, capsys, command, theta, "1e160")


def _assert_too_fast(tmp_path, capsys, command, theta, speed):
    doc = json.loads((CONFIGS / "example1.json").read_text())
    doc["curve"] = {"x": f"{speed}*s", "y": "cos(s)", "z": "sin(s)", "s_range": [0, 1]}
    doc["theta"] = theta
    cfg, out = tmp_path / "c.json", tmp_path / "r.out"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"E_GEOMETRY: |r'|^3 overflows: |r'|={float(speed):.3e} at t=0.0\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
def test_nan_speed_is_a_missing_tangent_bridged_once(tmp_path, capsys, monkeypatch,
                                                    command):
    # inf * 0 makes y NaN at every sample without a DSL error, so |r'| is NaN:
    # a missing tangent, which the RMF angle table's check of the nodes of its
    # first gap reports at the first node, before any bridge; as vanishing
    # curvature it would end the job at the bridge from the first node
    bridges = []
    bridge = frame._theta_across_flat
    monkeypatch.setattr(frame, "_theta_across_flat",
                        lambda *args: bridges.append(args) or bridge(*args))
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"]["y"] = "3/5*sin(s) + 1e200*1e200*0*s^4"
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    cfg, out = tmp_path / "c.json", tmp_path / "r.out"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "E_GEOMETRY: |r'|=nan at t=-5.0\n"
    assert len(bridges) == 0 and not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("curve,s_range,n_s,err,n_bridges", [
    # kappa = 0 at the first node, then at no other: one bridge, which fails
    (("s", "s^3", "s^4"), [0, 1], None, "kappa=0.000e+00 at t=0.0", 1),
    # kappa = 0 everywhere: one bridge to the last node, which fails
    (("s", "0", "0"), [-1, 1], None, "kappa=0.000e+00 at t=-1.0", 1),
    # |r'| = 0 at s = 0 and kappa = 0 at the next node: a bridge from the node
    # below 0 to the first node with a rate would not hold s = 0, nor would
    # the 100 samples
    (("s^3", "2*s^3", "s^5/5 - 0.0009765625*s^4/2 + 0.0009765625^2*s^3/3"), [-1, 1],
     100, "|r'|=0.000e+00 at t=0.0", 0),
    # kappa = 0 at the first node and |r'| = 0 at s = 0.5, past the next node
    # with a rate: a gap whose first node has no rate checks every later node
    (("(s-0.5)^3/3", "s^5/5 - s^4/4 + s^3/12", "0"), [0, 1], None,
     "|r'|=0.000e+00 at t=0.5", 0),
    # the same on [-1, 1]: kappa = 0 at s = 0 takes one bridge; the gap at
    # s = 0.5 checks 33 points of its first cell, which ends at 0.5, in turn,
    # and |r'| is already too small at the one before 0.5
    (("(s-0.5)^3/3", "s^5/5 - s^4/4 + s^3/12", "0"), [-1, 1], None,
     "|r'|=9.600e-10 at t=0.499969482421875", 1),
])
def test_flat_gap_is_bridged_once_after_its_nodes_are_checked(
        tmp_path, capsys, monkeypatch, command, curve, s_range, n_s, err, n_bridges):
    bridges = []
    bridge = frame._theta_across_flat
    monkeypatch.setattr(frame, "_theta_across_flat",
                        lambda *args: bridges.append(args) or bridge(*args))
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"].update(zip("xyz", curve), s_range=s_range)
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    if n_s is not None:
        doc["grid"]["n_s"] = n_s
    cfg, out = tmp_path / "c.json", tmp_path / "r.out"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"E_GEOMETRY: {err}\n"
    assert len(bridges) == n_bridges and not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command,code,err", [
    ("surface", 0, ""), ("verify", 0, ""),
    ("classify", 3, "E_GEOMETRY: negative base with non-integer exponent in 's^1.5'\n"),
])
def test_director_that_is_c1_but_not_c3_at_a_node(tmp_path, capsys, command, code, err):
    # x1 = s^1.5 on [0, 1]: X and X' exist at s = 0, where x1'' does not; the
    # director is evaluated to first order, so only classify's K stencil,
    # which reaches s = -h, fails
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"]["s_range"] = [0, 1]
    doc["director"]["x1"] = "s^1.5"
    cfg, out = tmp_path / "c.json", tmp_path / "r.out"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("variant", ["big_v", "big_x", "fast_turn"])
def test_grid_overflow_ends_in_one_located_line(tmp_path, command, variant):
    # v_range +-1e200, x2 = 1e200*s and a curve turning at 1e80 rad per unit
    # overflow on the grid: a job ends with one line of its own, or finishes
    result = _run(command, variant, [], tmp_path)
    assert result["exit"] in (0, 1, 2, 3)
    assert result["stderr"].count("\n") == (result["exit"] >= 2)
    assert "encountered" not in result["stderr"] and "Traceback" not in result["stderr"]
    assert (result["sha256"] is None) == (result["exit"] >= 2)


def _with(section, key, value):
    def apply(doc):
        doc[section][key] = value
    return apply


def _rmf_theta0(value):
    def apply(doc):
        doc["theta"] = {"mode": "rmf", "theta0": value}
    return apply


def _exp_overflow(doc):
    doc["curve"] = {"x": "exp(s)", "y": "s", "z": "0", "s_range": [700, 800]}


def _narrow_rmf(doc):
    doc["curve"]["s_range"] = [1, 1 + 1e-15]  # fewer distinct floats than table nodes
    doc["theta"] = {"mode": "rmf", "theta0": 0}


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("edit,code,prefix", [
    (_with("grid", "n_s", "abc"), 2, "E_CONFIG:"),
    (_with("grid", "n_s", True), 2, "E_CONFIG:"),
    (_with("grid", "n_v", 2.5), 2, "E_CONFIG:"),
    (_with("grid", "n_s", 10 ** 400), 2, "E_CONFIG:"),
    (_with("grid", "v_range", ["a", "b"]), 2, "E_CONFIG:"),
    (_with("grid", "v_range", [-1, math.inf]), 2, "E_CONFIG:"),
    (_with("curve", "s_range", [0, math.nan]), 2, "E_CONFIG:"),
    (_rmf_theta0("x"), 2, "E_CONFIG:"),
    (_with("tolerances", "tol_dev", "x"), 2, "E_CONFIG:"),
    (_exp_overflow, 3, "E_GEOMETRY:"),
    (_with("director", "x1", "(" * 3000 + "s" + ")" * 3000), 2, "E_CONFIG:"),
    (lambda doc: doc.update(tolerances=None), 2, "E_CONFIG:"),
    (_narrow_rmf, 3, "E_GEOMETRY:"),
    # a whole line as the prefix pins the exact message
    (lambda doc: doc.pop("grid"), 2, "E_CONFIG: missing 'grid' in config\n"),
    (lambda doc: doc.update(theta=5), 2, "E_CONFIG: theta must be a JSON object\n"),
    (_with("curve", "s_range", [0]), 2,
     "E_CONFIG: curve.s_range must be [min, max] with min < max\n"),
    (lambda doc: doc["theta"].update(theta0=0), 2,
     "E_CONFIG: theta mode 'explicit' takes exactly 'expr'\n"),
    (_with("outputs", "format", "xml"), 2,
     "E_CONFIG: outputs.format must be 'csv' or 'json'\n"),
    (_with("outputs", "report", 5), 2, "E_CONFIG: outputs.report must be a path string\n"),
], ids=["n_s-str", "n_s-bool", "n_v-float", "n_s-huge", "v_range-str",
        "v_range-inf", "s_range-nan", "theta0-str", "tol_dev-str", "exp-overflow",
        "dsl-deep", "tolerances-null", "rmf-range-narrow", "grid-missing",
        "theta-not-object", "s_range-short", "explicit-with-theta0", "format-xml",
        "report-not-str"])
def test_malformed_input_exit_code(tmp_path, capsys, command, edit, code, prefix):
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc.setdefault("tolerances", {})
    edit(doc)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([command, "--config", str(cfg),
                 "--out", str(out_dir / "result")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command,text,extra,message", [
    ("classify", "{", [], "E_CONFIG: config is not valid JSON: "),
    ("verify", json.dumps({**json.loads((CONFIGS / "example2.json").read_text()),
                           "expect": {"bogus": True}}), [],
     "E_CONFIG: unknown expectation 'bogus'\n"),
    ("surface", (CONFIGS / "example2.json").read_text(), ["--samples", "1"],
     "E_CONFIG: --samples must be >= 2\n"),
    # the expectations are checked before the RMF angle table, built at the
    # first frame query, meets the pole between its nodes (exit 3 alone)
    ("verify", json.dumps({**json.loads((CONFIGS / "example2.json").read_text()),
                           "curve": {"x": "s", "y": "s^2", "z": "s^3+1/(s+0.49951171875)",
                                     "s_range": [-1, 1]},
                           "theta": {"mode": "rmf", "theta0": 0},
                           "expect": {"bogus": True}}), [],
     "E_CONFIG: unknown expectation 'bogus'\n"),
], ids=["json-invalid", "expect-unknown", "samples-1", "expect-before-table"])
def test_config_guard_messages(tmp_path, capsys, command, text, extra, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out_dir / "result"),
                 *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command,key", [("frames", "report"), ("surface", "mesh"),
                                         ("classify", "report"), ("verify", "report")])
def test_outputs_path_resolves_against_the_working_directory(tmp_path, monkeypatch,
                                                             command, key):
    # Without --out a run writes the config's outputs path, relative to the
    # working directory rather than to the config's own directory.
    doc = json.loads((CONFIGS / "example1.json").read_text())
    cfg_dir, work = tmp_path / "cfg", tmp_path / "work"
    cfg_dir.mkdir()
    work.mkdir()
    cfg = cfg_dir / "c.json"
    cfg.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "explicit")])
    monkeypatch.chdir(work)
    assert main([command, "--config", str(cfg)]) == code
    name = doc["outputs"][key]
    assert [p.name for p in work.iterdir()] == [name]
    assert [p.name for p in cfg_dir.iterdir()] == ["c.json"]
    assert (work / name).read_bytes() == (tmp_path / "explicit").read_bytes()


@pytest.mark.parametrize("command", ["frames", "surface", "classify", "verify"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, target):
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    out = work / ("no/such/dir/out" if target == "missing_dir" else "dir")
    assert main([command, "--config", str(CONFIGS / "example1.json"),
                 "--out", str(out)]) == 2
    reason = "No such file or directory" if target == "missing_dir" else "Is a directory"
    assert capsys.readouterr().err == f"E_CONFIG: cannot write output: {out}: {reason}\n"
    assert sorted(p.name for p in work.rglob("*")) == ["dir"]  # no temp file left


def test_verify_takes_no_surface_samples(tmp_path, monkeypatch):
    # the K stencil (RuledSurface.sample) is classify's cross-check only
    calls = []
    sample = ruled.RuledSurface.sample

    def counting(self, s, v):
        calls.append(v)
        return sample(self, s, v)

    monkeypatch.setattr(ruled.RuledSurface, "sample", counting)
    cfg = str(CONFIGS / "proportional_normal_coeffs.json")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v.json")]) == 0
    assert not calls
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 0
    assert calls


def _flat_node_doc():
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"] = {"x": "s", "y": "s^3", "z": "s^4", "s_range": [-1, 1]}
    doc["theta"] = {"mode": "rmf", "theta0": 0}
    return doc


@pytest.mark.parametrize("name", [*sorted(p.name for p in CONFIGS.glob("*.json")),
                                  "flat_node"])
def test_verify_developable_is_the_classify_verdict(tmp_path, name):
    doc = (_flat_node_doc() if name == "flat_node"
           else json.loads((CONFIGS / name).read_text()))
    doc["expect"] = {"developable": "yes"}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))

    def verdicts(*tol):
        opts = ["--tol-dev", repr(tol[0])] if tol else []
        assert main(["classify", "--config", str(cfg), "--format", "json",
                     "--out", str(tmp_path / "c.out"), *opts]) == 0
        cls = json.loads((tmp_path / "c.out").read_text())
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "v.out"), *opts]) in (0, 1)
        (got,) = json.loads((tmp_path / "v.out").read_text())["expectations"]
        return cls, got["got"]

    m = verdicts()[0]["max_abs_det"]
    # tol_dev values that put max |det| below tol_dev, inside [tol_dev,
    # 10 tol_dev] and above 10 tol_dev (tol_dev <= 0 where max |det| is 0)
    for want, tol in (("yes", 2 * m if m else 1.0), ("borderline", m / 2),
                      ("no", m / 20 if m else -1.0)):
        cls, got = verdicts(tol)
        assert cls["verdict"] == got == want


@pytest.mark.parametrize("want", [True, "yes", 1, None], ids=["true", "yes", "1", "null"])
@pytest.mark.parametrize("key", ["developable", "geodesic"])
def test_expectation_values_are_checked(tmp_path, capsys, key, want):
    # developable takes "yes", "no" or "borderline" and a flag takes a JSON
    # boolean; anything else is a config error, with no output written
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["expect"] = {key: want}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["verify", "--config", str(cfg), "--out", str(out_dir / "v.json")])
    err = capsys.readouterr().err
    valid = want == "yes" if key == "developable" else want is True  # 1 == True
    if valid:
        assert code in (0, 1) and err == ""
        (result,) = json.loads((out_dir / "v.json").read_text())["expectations"]
        assert result["want"] == want
    else:
        assert code == 2
        assert err.startswith(f"E_CONFIG: expect.{key} must be ") and err.count("\n") == 1
        assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("expect", [{"developable": True}, {"bogus": True}],
                         ids=["developable-bool", "unknown"])
def test_expectations_are_checked_before_any_evaluation(tmp_path, capsys, expect):
    # the straight line has no usable verify sample (exit 3 with a valid
    # expectation); a malformed expectation is a config error all the same
    doc = json.loads((CONFIGS / "example2.json").read_text())
    doc["curve"] = {"x": "s", "y": "0", "z": "0", "s_range": [0, 1]}
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cfg = tmp_path / "c.json"
    for want, code in ((expect, 2), ({"geodesic": True}, 3)):
        cfg.write_text(json.dumps({**doc, "expect": want}))
        assert main(["verify", "--config", str(cfg),
                     "--out", str(out_dir / "v.json")]) == code
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:" if code == 2 else "E_GEOMETRY:")
        assert err.count("\n") == 1
        assert list(out_dir.iterdir()) == []

