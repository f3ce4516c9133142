"""Self-tests of the benchmark's generator and output checks.

    python3 -m pytest rmfbench/test_checks.py

They show that the checks accept the program's real outputs and reject a
perturbed vertex, a flipped normal, a reversed face and a wrong expectation.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import reference  # noqa: E402
from rmfruled import cli  # noqa: E402


def _run(job, tmp_path):
    cfg, out = tmp_path / "job.json", tmp_path / "job.out"
    cfg.write_text(json.dumps(job.config()))
    code = cli.main([job.command, "--config", str(cfg), "--out", str(out)])
    return code, out.read_text() if out.exists() else None


@pytest.fixture(scope="module")
def mesh(tmp_path_factory):
    job = jobs.make_round("mesh_explicit", 7, 0)[2]
    code, text = _run(job, tmp_path_factory.mktemp("mesh"))
    assert code == 0
    return job, text


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    job = jobs.make_round("verify_rmf", 7, 0)[2]
    code, text = _run(job, tmp_path_factory.mktemp("verify"))
    assert code == 0
    return job, json.loads(text)


def _edit(text, tag, index, fn):
    """Apply ``fn`` to the numbers of the ``index``-th line starting with ``tag``."""
    lines, seen = text.splitlines(), -1
    for i, line in enumerate(lines):
        if line.startswith(tag + " "):
            seen += 1
            if seen == index:
                lines[i] = fn(line)
                break
    return "\n".join(lines) + "\n"


def test_rounds_are_seeded():
    a = [j.config() for j in jobs.make_round("mesh_rmf", 3, 1)]
    assert a == [j.config() for j in jobs.make_round("mesh_rmf", 3, 1)]
    assert a != [j.config() for j in jobs.make_round("mesh_rmf", 4, 1)]
    for wl in jobs.WORKLOADS:
        shapes = [(j.n_s, j.n_v) for j in jobs.make_round(wl, 3, 0)]
        assert shapes == [(j.n_s, j.n_v) for j in jobs.make_round(wl, 9, 5)]
        assert all(n_s % 2 == 0 for n_s, _ in shapes)


def test_mesh_output_passes(mesh):
    job, text = mesh
    assert reference.check_obj(text, job.surface, job.n_s, job.n_v) == []


def test_perturbed_vertex_fails(mesh):
    job, text = mesh

    def nudge(line):
        tag, x, y, z = line.split()
        return f"{tag} {x} {float(y) * (1 + 1e-6) + 1e-6:.9g} {z}"
    bad = _edit(text, "v", 17, nudge)
    assert any(e.startswith("vertex 17") for e in
               reference.check_obj(bad, job.surface, job.n_s, job.n_v))


def test_flipped_normal_fails(mesh):
    job, text = mesh

    def flip(line):
        return "vn " + " ".join(f"{-float(x):.9g}" for x in line.split()[1:])
    errors = reference.check_obj(_edit(text, "vn", 5, flip), job.surface, job.n_s, job.n_v)
    assert any("against d_s x d_v" in e for e in errors)


def test_reversed_face_fails(mesh):
    job, text = mesh

    def reverse(line):
        tag, a, b, c = line.split()
        return f"{tag} {a} {c} {b}"
    errors = reference.check_obj(_edit(text, "f", 3, reverse), job.surface, job.n_s, job.n_v)
    assert errors == ["face 3 winds against its vertex normals"]


def test_verify_output_passes(verify):
    job, doc = verify
    assert job.expect == {"developable": "no", "geodesic": False, "asymptotic": True}
    assert reference.check_verify(doc, job.expect) == []


@pytest.mark.parametrize("key", ["developable", "geodesic", "asymptotic"])
def test_wrong_expectation_fails(verify, key):
    job, doc = verify
    wrong = dict(job.expect)
    wrong[key] = {"yes": "no", "no": "yes"}.get(wrong[key], not wrong[key])
    assert reference.check_verify(doc, wrong) != []


def test_program_told_a_wrong_expectation_fails(tmp_path):
    job = jobs.make_round("verify_rmf", 7, 0)[0]
    wrong = jobs.Job(job.command, job.surface, job.n_s, job.n_v, job.rmf,
                     dict(job.expect, developable="no"))
    code, text = _run(wrong, tmp_path)
    assert code == 1
    assert reference.check_verify(json.loads(text), job.expect) != []


def test_reference_rmf_angle_matches_closed_form():
    job = jobs.make_round("mesh_rmf", 5, 0)[0]
    h, sf = job.surface.helix, job.surface
    s = np.linspace(sf.s_min, sf.s_max, 9)
    want = sf.theta.f(sf.s_min) - (h.w * h.b / np.hypot(h.a, h.b)) * (s - sf.s_min)
    assert np.allclose(sf.theta.values(s)[0], want, rtol=0, atol=1e-14)
