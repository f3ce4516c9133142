"""What importing the CLI costs a fresh interpreter: no ``dataclasses`` (whose
generated code cost about 1 ms a class), and one OpenBLAS thread unless the
caller chose otherwise, since all BLAS work here is on 3-vectors and 3x3
matrices."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, os, sys
import rmfruled.cli
status = {}
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
print(json.dumps({"dataclasses": "dataclasses" in sys.modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": status.get("Threads", "").strip() or None}))
"""


def _import_cli(**env_changes):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_changes)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def test_import_leaves_dataclasses_unloaded():
    assert _import_cli()["dataclasses"] is False


def test_import_sets_one_blas_thread_when_unset():
    assert _import_cli()["blas"] == "1"


def test_import_keeps_the_callers_blas_threads():
    assert _import_cli(OPENBLAS_NUM_THREADS="2")["blas"] == "2"


def test_import_starts_no_thread():
    threads = _import_cli()["threads"]
    if threads is None:
        pytest.skip("no /proc/self/status on this platform")
    assert threads == "1"
