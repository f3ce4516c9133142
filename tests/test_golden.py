"""Byte identity of the CLI outputs, checked against recorded SHA-256 digests.

Every subcommand runs on each bundled config (in the config's own output
format), and all four run on the curve (s, s^3, s^4) over [-1, 1] under the
RMF, whose curvature vanishes at the grid node s = 0: `classify` (as JSON,
which holds the sample table too) and `verify` exclude that node, `frames`
and `surface` stop with exit 3.  Four more variants pin the paths where a
float call decides for a failing grid sample, all four subcommands each
(`classify` as JSON): ``cusp`` (|r'| = 0 at s = 0), ``pole`` (x1 = 1/s),
``flat_explicit`` (the flat curve under an explicit theta, which needs N)
and ``flat_pole`` (the flat curve with x1 = 1/s, where the director's
error, probed before the frame's, ends `classify` and `verify`).  Six
more end in exit 3 (``pole_x3`` in all but `frames`): ``pole_x3`` (x3 =
1/s, which a probe of x1 alone would miss), ``cusp_rmf`` (the cusp under
the RMF, whose angle table meets it), ``theta_pole`` (explicit theta 1/s),
``const_fail`` (x1 = exp(1000), failing at every sample), ``fast_sqrt``
(|r'| = 1e110 on [0, 1], with x2 = sqrt(s)) and ``inf_theta`` (explicit
theta 1e200*1e200*s, infinite without a DSL error).  Three more pin grid
overflow: ``big_v`` (``v_range`` +-1e200), ``big_x`` (x2 = 1e200*s on the
twisted cubic) and ``fast_turn`` (the curve (s, sin(1e80 s), cos(1e80 s))
under the RMF).  ``straight`` (the line
(s, 0, 0) under theta = s, with no expectations) has no Frenet frame at any
sample.  Each case records the exit code, the stderr text and the digest of
the output file (null when none is written).
``frames`` and ``surface`` also run on each bundled config at ``--samples
401`` (cases ``frames@401:...`` and ``surface@401:...``), and so do
``classify`` and ``verify`` with ``--format json`` (``classify@401:...``,
``verify@401:...``), which pin the stacked oracle and K-stencil grids away
from the configs' own n_s.  ``classify`` also runs at ``--samples 1001`` in
both formats (``classify@1001-csv:...``, ``classify@1001-json:...``), which
pin the base-curve table as CSV and as JSON rows.

The digests live in ``golden_digests.json``.  Check them outside pytest with

    PYTHONPATH=src python tests/test_golden.py

which prints one line per case whose exit code, stderr or digest moved,
old -> new (or "no case moved"), writes nothing, and exits 1 if any case
moved.  Only for a change that is meant to alter an output, regenerate them
with ``--write``, which prints the same lines.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CONFIGS
from rmfruled.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
COMMANDS = ("frames", "surface", "classify", "verify")
FLAT_CURVE = {"x": "s", "y": "s^3", "z": "s^4", "s_range": [-1, 1]}
CUSP_CURVE = {"x": "s^3", "y": "s^2", "z": "s^4", "s_range": [-1, 1]}
RMF = {"mode": "rmf", "theta0": 0}
# Variants of a bundled config, as (base config, {section: replacement}); a
# section is replaced whole, a director entry by itself.
VARIANTS = {
    "flat_node": ("example2.json", {"curve": FLAT_CURVE, "theta": RMF}),
    "cusp": ("example1.json", {"curve": CUSP_CURVE}),
    "pole": ("example1.json",
             {"curve": {"x": "s", "y": "s^2", "z": "s^3", "s_range": [-1, 1]},
              "director": {"x1": "1/s"}}),
    "flat_explicit": ("example1.json", {"curve": FLAT_CURVE,
                                        "theta": {"mode": "explicit", "expr": "s"}}),
    "flat_pole": ("example1.json", {"curve": FLAT_CURVE, "theta": RMF,
                                    "director": {"x1": "1/s", "x2": "1", "x3": "0"}}),
    "pole_x3": ("example1.json", {"director": {"x3": "1/s"}}),
    "cusp_rmf": ("example1.json", {"curve": CUSP_CURVE, "theta": RMF}),
    "theta_pole": ("example1.json", {"theta": {"mode": "explicit", "expr": "1/s"}}),
    "inf_theta": ("example1.json", {"theta": {"mode": "explicit",
                                              "expr": "1e200*1e200*s"}}),
    "const_fail": ("example1.json", {"director": {"x1": "exp(1000)"}}),
    "straight": ("example1.json",
                 {"curve": {"x": "s", "y": "0", "z": "0", "s_range": [-5, 5]},
                  "theta": {"mode": "explicit", "expr": "s"}, "expect": {}}),
    "fast_sqrt": ("example1.json",
                  {"curve": {"x": "1e110*s", "y": "cos(s)", "z": "sin(s)",
                             "s_range": [0, 1]},
                   "director": {"x2": "sqrt(s)"}}),
    "big_v": ("proportional_normal_coeffs.json",
              {"grid": {"n_s": 101, "n_v": 11, "v_range": [-1e200, 1e200]}}),
    "big_x": ("example1.json",
              {"curve": {"x": "s", "y": "s^2", "z": "s^3", "s_range": [-1, 1]},
               "director": {"x2": "1e200*s"}}),
    "fast_turn": ("example1.json",
                  {"curve": {"x": "s", "y": "sin(1e80*s)", "z": "cos(1e80*s)",
                             "s_range": [0, 1]}, "theta": RMF}),
}


def _cases():
    cases = {f"{cmd}:{cfg.name}": (cmd, cfg.name, []) for cfg in
             sorted(CONFIGS.glob("*.json")) for cmd in COMMANDS}
    for cmd in COMMANDS:
        fmt = ["--format", "json"] if cmd == "classify" else []
        for variant in VARIANTS:
            cases[f"{cmd}:{variant}"] = (cmd, variant, fmt)
    for cfg in sorted(CONFIGS.glob("*.json")):
        for cmd in ("frames", "surface"):
            cases[f"{cmd}@401:{cfg.name}"] = (cmd, cfg.name, ["--samples", "401"])
        for cmd in ("classify", "verify"):
            cases[f"{cmd}@401:{cfg.name}"] = (cmd, cfg.name, ["--samples", "401",
                                                              "--format", "json"])
        for fmt in ("csv", "json"):
            cases[f"classify@1001-{fmt}:{cfg.name}"] = (
                "classify", cfg.name, ["--samples", "1001", "--format", fmt])
    return cases


CASES = _cases()


def _run(cmd: str, cfg_name, extra, work: Path) -> dict:
    if cfg_name in VARIANTS:
        base, changes = VARIANTS[cfg_name]
        doc = json.loads((CONFIGS / base).read_text())
        for key, value in changes.items():
            doc[key] = {**doc[key], **value} if key == "director" else value
        cfg = work / f"{cfg_name}.json"
        cfg.write_text(json.dumps(doc))
    else:
        cfg = CONFIGS / cfg_name
    out = work / f"{cmd}.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([cmd, "--config", str(cfg), "--out", str(out), *extra])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"exit": code, "stderr": err.getvalue(), "sha256": digest}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_digest(tmp_path, case):
    want = json.loads(DIGESTS.read_text())[case]
    assert _run(*CASES[case], tmp_path) == want


def _moves(old: dict, new: dict) -> list:
    """One line per case whose exit code, stderr or digest moved, old -> new."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        was, now = old.get(case), new.get(case)
        if was is None or now is None:
            lines.append(f"{case}: {'added' if was is None else 'removed'}")
            continue
        moved = [f"{key} {was[key]!r} -> {now[key]!r}"
                 for key in ("exit", "stderr", "sha256") if was[key] != now[key]]
        if moved:
            lines.append(f"{case}: " + "; ".join(moved))
    return lines


def test_moves_names_each_moved_field():
    old = {"a": {"exit": 0, "stderr": "", "sha256": "1"},
           "b": {"exit": 3, "stderr": "E\n", "sha256": None}}
    new = {"a": {"exit": 0, "stderr": "", "sha256": "2"},
           "b": {"exit": 3, "stderr": "E\n", "sha256": None},
           "c": {"exit": 0, "stderr": "", "sha256": "3"}}
    assert _moves(old, new) == ["a: sha256 '1' -> '2'", "c: added"]
    assert _moves(new, old) == ["a: sha256 '2' -> '1'", "c: removed"]


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        print(f"usage: {sys.argv[0]} [--write]", file=sys.stderr)
        sys.exit(2)
    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = _run(*CASES[case], Path(tmp))
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    moves = _moves(recorded, table)
    print("\n".join(moves) or "no case moved")
    if write:
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(1 if moves and not write else 0)
