"""Differential runner: seeded random configs through every subcommand.

Each config draws a curve (smooth, straight, with a curvature-free node, a
cusp, a cusp beside a curvature-free node, a curvature-free start with a
later cusp, a pole, a square root, a speed of 1e110, or a third derivative
that overflows near the middle or the start of a range), a theta policy (the RMF
from a random theta0, or an explicit expression), director coefficients from
a pool that fails at some, every or no sample, a ``v_range`` up to +-1e200,
and sometimes tolerances and expectations.  Each config runs through
``frames``, ``surface``, ``classify`` (as CSV and as JSON) and ``verify``,
each in a fresh directory through ``cli.main`` in this process.  The table
maps ``<config>:<run>`` to the exit code (for an exception that escapes
``main``, its class and message), the stderr text, the SHA-256 of the
output file (null if none), the names of the files left behind, and
``nonfinite``: whether a run that exited 0 or 1 wrote a non-finite number
where a verdict or a mesh rests on it (a ``classify`` JSON ``max_abs_det``,
``max_interior_abs_K`` or corollary residual, a ``verify`` check's
``max_abs``, an OBJ ``v`` row, or a ``vn`` row whose length is not 1).

Compare this checkout with another one in one command:

    python tests/differential.py compare --old /path/to/other/checkout \
        [--configs 1000] [--seed 0]

``compare`` runs the other checkout's package (``PYTHONPATH=<old>/src``) in a
subprocess and this checkout's in this process, each on the configs drawn
here, then diffs the two tables.  The same can be done by hand, running the
same seed and count on each checkout and diffing the tables:

    PYTHONPATH=src python tests/differential.py run --configs 1000 --out new.json
    (in the other checkout)
    PYTHONPATH=src python /path/to/tests/differential.py run --configs 1000 --out old.json
    python tests/differential.py diff old.json new.json

``diff`` prints every run whose exit code, output or leftover files differ,
each distinct stderr change with its count, and every run of the new table
marked ``nonfinite``; it exits 1 if any run differs in more than its stderr
or the new table has a ``nonfinite`` run.  pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
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
    # on [-1, 1]: |r'| = 0 at s = 0, kappa = 0 at the next angle-table node
    ("s^3", "2*s^3", "s^5/5 - 0.0009765625*s^4/2 + 0.0009765625^2*s^3/3"),
    # on [0, 1]: kappa = 0 at s = 0, |r'| = 0 at s = 0.5
    ("(s-0.5)^3/3", "s^5/5 - s^4/4 + s^3/12", "0"),
    # the third derivative overflows around s = 0.305: tau is infinite or NaN there
    ("s", "s^2/2 + 1e308*(atan(100*(s-0.305))/10000)*1e-308",
     "1e308*(atan(100*(s-0.305))/10000)*1e-308"),
    # the same at s = 0: on [0, 1], no node up to about s = 0.04 has a rate
    ("s", "s^2/2 + 1e308*(atan(100*s)/10000)*1e-308", "1e308*(atan(100*s)/10000)*1e-308"),
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


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def nonfinite(cmd: str, text: str) -> bool:
    """Whether the output ``text`` of ``cmd`` holds a non-finite number that a
    verdict or a mesh rests on."""
    if cmd == "classify-json":
        doc = json.loads(text)
        return not all(map(_finite, [doc["max_abs_det"], doc["max_interior_abs_K"],
                                     *doc["corollary_conditions"].values()]))
    if cmd == "verify":
        return not all(_finite(c["max_abs"]) for c in json.loads(text)["checks"])
    if cmd == "surface":
        for line in text.splitlines():
            kind, *xyz = line.split()
            if kind in ("v", "vn"):
                vec = [float(x) for x in xyz]
                if not all(map(math.isfinite, vec)) or (
                        kind == "vn" and abs(math.hypot(*vec) - 1.0) > 1e-6):
                    return True
    return False


def run_one(main, doc: dict, cmd: str, extra: list) -> dict:
    """One subcommand on ``doc`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([cmd.split("-")[0], "--config", str(cfg), "--out", str(out),
                             *extra])
            except Exception as exc:  # an escaped exception is its own exit value
                code = f"{type(exc).__name__}: {exc}"
        data = out.read_bytes() if out.exists() else None
        left = sorted(set(os.listdir(tmp)) - {"config.json", "out"})
        return {"exit": code, "stderr": err.getvalue().replace(tmp, "<dir>"),
                "sha256": data and hashlib.sha256(data).hexdigest(), "left": left,
                "nonfinite": code in (0, 1) and nonfinite(cmd, data.decode())}


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
    bad = [key for key in sorted(new, key=lambda k: (int(k.split(":")[0]), k))
           if new[key].get("nonfinite")]
    for key in bad:
        print(f"{key}: nonfinite output (exit {new[key]['exit']})")
    print(f"{len(old)} runs: {hard} differ in exit code, output or leftover files; "
          f"{sum(stderr.values())} differ in stderr; {len(bad)} nonfinite in the new "
          f"table")
    return 1 if hard or bad else 0


def cmd_compare(args) -> int:
    here = Path(__file__).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old.json", Path(tmp) / "new.json"
        env = {**os.environ, "PYTHONPATH": str(Path(args.old).resolve() / "src")}
        subprocess.run([sys.executable, str(here), "run", "--configs", str(args.configs),
                        "--seed", str(args.seed), "--out", str(old)], env=env, check=True)
        sys.path.insert(0, str(here.parents[1] / "src"))
        cmd_run(argparse.Namespace(configs=args.configs, seed=args.seed, out=new))
        return cmd_diff(argparse.Namespace(old=old, new=new))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the configs and write the table")
    diff = sub.add_parser("diff", help="compare two tables")
    diff.add_argument("old")
    diff.add_argument("new")
    compare = sub.add_parser("compare", help="run the configs on another checkout "
                             "and on this one, and diff the tables")
    compare.add_argument("--old", required=True, help="root of the other checkout")
    for sp in (run, compare):
        sp.add_argument("--configs", type=int, default=1000)
        sp.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    args = p.parse_args(argv)
    return {"run": cmd_run, "diff": cmd_diff, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
