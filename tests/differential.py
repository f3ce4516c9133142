"""Differential runner: seeded random configs through every subcommand.

Each config draws a curve (smooth, straight, with a curvature-free node, a
cusp, a pole, a square root, or a speed of 1e110), a theta policy (the RMF
from a random theta0, or an explicit expression), director coefficients from
a pool that fails at some, every or no sample, a ``v_range`` up to +-1e200,
and sometimes tolerances and expectations.  Each config runs through
``frames``, ``surface``, ``classify`` (as CSV and as JSON) and ``verify``,
each in a fresh directory through ``cli.main`` in this process.  The table
maps ``<config>:<run>`` to the exit code, the stderr text, the SHA-256 of the
output file (null if none) and the names of the files left behind.

Compare two versions of the package by running the same seed and count on
each checkout, then diffing the tables:

    PYTHONPATH=src python tests/differential.py run --configs 1000 --out new.json
    (in the other checkout)
    PYTHONPATH=src python /path/to/tests/differential.py run --configs 1000 --out old.json
    python tests/differential.py diff old.json new.json

``diff`` prints every run whose exit code, output or leftover files differ,
and each distinct stderr change with its count; it exits 1 if any run
differs in more than its stderr.  pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

# Curves, explicit thetas and coefficients that hold on every range, then
# ones that fail at some or every sample; a draw takes a failing one now and
# then, so that most runs still exit 0 or 1.
CURVES = [("3/5*cos(s)", "3/5*sin(s)", "4/5*s"), ("cos(s)", "sin(s)", "exp(s)"),
          ("s", "s^2", "s^3/3")]
BAD_CURVES = [
    ("s", "0", "0"),                  # straight: kappa = 0 everywhere
    ("s", "s^3", "s^4"),              # kappa = 0 at s = 0
    ("s^3", "s^2", "s^4"),            # cusp: |r'| = 0 at s = 0
    ("s", "1/s", "s^2"),              # pole at s = 0
    ("s", "sqrt(s)", "s^2"),          # sqrt needs s > 0
    ("1e110*s", "cos(s)", "sin(s)"),  # |r'|^3 overflows
]
RANGES = [(-1.0, 1.0), (0.0, 1.0), (-5.0, 5.0), (0.5, 2.0), (-2.0, 0.3)]
THETAS = ["s", "atan(s)", "0", "s^2", "sin(s)"]
BAD_THETAS = ["1/s", "sqrt(s)", "log(s)", "exp(1000)", "tan(s)", "1e200*1e200*s"]
COEFFS = ["0", "1", "s", "s^2", "-s^3", "abs(s)", "cos(s)", "sin(s)", "2^0.5",
          "atan(s)", "exp(s)", "1e200*s"]
BAD_COEFFS = ["1/s", "sqrt(s)", "log(s)", "exp(1000)", "exp(300*s)", "s^-1",
              "tan(s)", "1/(s-0.5)", "s^0.5", "0^-1", "1/0", "log(abs(s))"]
V_RANGES = [(-1.0, 1.0), (-1e200, 1e200), (0.0, 1e100), (-3.0, -1.0), (-1e-3, 2.0)]
EXPECT_KEYS = ["developable", "geodesic", "asymptotic", "curvature_line_frame",
               "curvature_line"]
RUNS = [("frames", []), ("surface", []), ("classify-csv", ["--format", "csv"]),
        ("classify-json", ["--format", "json"]), ("verify", [])]


def _pick(rng: random.Random, good: list, bad: list, p_bad: float):
    return rng.choice(bad if rng.random() < p_bad else good)


def _coeff(rng: random.Random) -> str:
    if rng.random() < 0.3:
        left, right = (_pick(rng, COEFFS, BAD_COEFFS, 0.1) for _ in range(2))
        return f"({left}){rng.choice('+-*/')}({right})"
    return _pick(rng, COEFFS, BAD_COEFFS, 0.1)


def make_config(seed: int) -> dict:
    """The config document drawn from ``seed`` alone."""
    rng = random.Random(seed)
    x, y, z = _pick(rng, CURVES, BAD_CURVES, 0.4)
    lo, hi = rng.choice(RANGES)
    if rng.random() < 0.5:
        theta = {"mode": "rmf", "theta0": round(rng.uniform(-3.0, 3.0), 3)}
    else:
        theta = {"mode": "explicit", "expr": _pick(rng, THETAS, BAD_THETAS, 0.2)}
    v_range = (list(rng.choice(V_RANGES)) if rng.random() < 0.7 else
               sorted(round(rng.uniform(-10.0, 10.0), 2) for _ in range(2)))
    if v_range[0] == v_range[1]:
        v_range[1] += 1.0
    doc = {"curve": {"x": x, "y": y, "z": z, "s_range": [lo, hi]},
           "theta": theta,
           "director": {"x1": _coeff(rng), "x2": _coeff(rng), "x3": _coeff(rng)},
           "grid": {"n_s": rng.choice([2, 3, 11, 21, 41, 101]),
                    "n_v": rng.choice([2, 3, 5, 11]), "v_range": v_range}}
    if rng.random() < 0.3:
        doc["tolerances"] = {"tol_dev": rng.choice([1e-12, 1e-7, 1e-2]),
                             "tol_K": rng.choice([1e-9, 1e-5, 1.0])}
    if rng.random() < 0.4:
        keys = rng.sample(EXPECT_KEYS, rng.randint(1, len(EXPECT_KEYS)))
        doc["expect"] = {k: (rng.choice(["yes", "no"]) if k == "developable"
                             else rng.random() < 0.5) for k in keys}
    return doc


def run_one(main, doc: dict, cmd: str, extra: list) -> dict:
    """One subcommand on ``doc`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([cmd.split("-")[0], "--config", str(cfg), "--out", str(out),
                         *extra])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        left = sorted(set(os.listdir(tmp)) - {"config.json", "out"})
        return {"exit": code, "stderr": err.getvalue().replace(tmp, "<dir>"),
                "sha256": digest, "left": left}


def cmd_run(args) -> int:
    from rmfruled.cli import main

    table = {}
    for i in range(args.configs):
        doc = make_config(args.seed * 1_000_003 + i)
        for name, extra in RUNS:
            table[f"{i}:{name}"] = run_one(main, doc, name, extra)
    Path(args.out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_diff(args) -> int:
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    if old.keys() != new.keys():
        print("the tables hold different runs")
        return 1
    hard, stderr = 0, Counter()
    for key in sorted(old, key=lambda k: (int(k.split(":")[0]), k)):
        a, b = old[key], new[key]
        for field in ("exit", "sha256", "left"):
            if a[field] != b[field]:
                hard += 1
                print(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
        if a["stderr"] != b["stderr"]:
            stderr[(a["stderr"].strip(), b["stderr"].strip())] += 1
    for (a, b), count in stderr.most_common():
        print(f"stderr x{count}:\n  - {a}\n  + {b}")
    print(f"{len(old)} runs: {hard} differ in exit code, output or leftover files; "
          f"{sum(stderr.values())} differ in stderr")
    return 1 if hard else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the configs and write the table")
    run.add_argument("--configs", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    diff = sub.add_parser("diff", help="compare two tables")
    diff.add_argument("old")
    diff.add_argument("new")
    args = p.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
