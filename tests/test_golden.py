"""Byte identity of the CLI outputs, checked against recorded SHA-256 digests.

Every subcommand runs on each bundled config (in the config's own output
format), and all four run on the curve (s, s^3, s^4) over [-1, 1] under the
RMF, whose curvature vanishes at the grid node s = 0: `classify` (as JSON,
which holds the sample table too) and `verify` exclude that node, `frames`
and `surface` stop with exit 3.  Each case records the exit code, the
stderr text and the digest of the output file (null when none is written).
``frames`` and ``surface`` also run on each bundled config at ``--samples
401`` (cases ``frames@401:...`` and ``surface@401:...``), and so do
``classify`` and ``verify`` with ``--format json`` (``classify@401:...``,
``verify@401:...``), which pin the stacked oracle and K-stencil grids away
from the configs' own n_s.  ``classify`` also runs at ``--samples 1001`` in
both formats (``classify@1001-csv:...``, ``classify@1001-json:...``), which
pin the base-curve table as CSV and as JSON rows.

The digests live in ``golden_digests.json``.  Regenerate them, only for a
change that is meant to alter an output, with

    PYTHONPATH=src python tests/test_golden.py
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


def _cases():
    cases = {f"{cmd}:{cfg.name}": (cmd, cfg.name, []) for cfg in
             sorted(CONFIGS.glob("*.json")) for cmd in COMMANDS}
    for cmd in COMMANDS:
        fmt = ["--format", "json"] if cmd == "classify" else []
        cases[f"{cmd}:flat_node"] = (cmd, None, fmt)
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
    if cfg_name is None:
        doc = json.loads((CONFIGS / "example2.json").read_text())
        doc["curve"] = FLAT_CURVE
        doc["theta"] = {"mode": "rmf", "theta0": 0}
        cfg = work / "flat_node.json"
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


if __name__ == "__main__":
    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = _run(*CASES[case], Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
