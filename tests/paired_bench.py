"""Paired benchmark: the same rmfbench jobs on two checkouts, back to back.

One ``rmfbench/worker.py`` process runs per checkout, each importing its own
``src``.  Every job of ``rmfbench/jobs.make_round`` is sent to both workers in
turn, the side that goes first alternating from job to job, so that a change
in the machine's speed falls on both sides of a pair alike.  The two outputs
must be byte-identical, with the same exit code.  A round's time on one side
is the sum of its jobs' times there.  Prints each side's median round time
between its first and third quartiles, whether the gap between the medians
exceeds the old side's interquartile range, and the share of rounds that ran
faster on the new side, as one JSON line:

    python tests/paired_bench.py --old /path/to/parent --workload verify_rmf \\
        --seed 1 --rounds 60 [--in-process]

``--workload`` and ``--seed`` each take several values; every (workload,
seed) pair runs in turn on the same two sides and prints its own JSON line,
so one command covers a change's no-regression check:

    python tests/paired_bench.py --old /path/to/parent --in-process \\
        --workload mesh_rmf mesh_explicit verify_rmf --seed 1 2 3

Unpaired runs of ``rmfbench/run.py`` on a machine whose speed swings between
phases can hide a gain of a few percent; a paired share of faster rounds
does not.  Quartiles over single jobs would mix the slots' sizes, whose job
times differ by more than most changes do.  Two worker processes can still
differ by a few percent for reasons of their own, which a pair of processes
cannot tell from a change in the code.  ``--in-process`` runs both sides in
this one interpreter instead: each checkout's ``src/rmfruled`` is copied under its own
package name (every import inside the package is relative), and each side's
``cli.main`` is called as the worker calls it, after a ``gc.collect()``.

The jobs come from the new checkout's ``rmfbench``, which this script reads
and does not change.  pytest does not collect this file.
"""

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NEW = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(NEW / "rmfbench"))
# ``jobs`` loads numpy before any rmfruled does; one BLAS thread, as there.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import jobs  # noqa: E402


class Worker:
    """A worker process of ``root``'s rmfbench, speaking its line protocol."""

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "rmfbench" / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.read()  # {"setup_s": ...}

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise EOFError("worker exited")
        return json.loads(line)

    def run(self, argv) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": False}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)


class InProcess:
    """``root``'s package, copied into ``tmp`` as ``name`` and imported here;
    runs a job as ``rmfbench/worker.py`` does."""

    def __init__(self, root: Path, name: str, tmp: Path):
        shutil.copytree(root / "src" / "rmfruled", tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if str(tmp) not in sys.path:
            sys.path.insert(0, str(tmp))
        self.cli = importlib.import_module(f"{name}.cli")

    def run(self, argv) -> dict:
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        return {"code": code, "seconds": time.perf_counter() - t0}

    def close(self):
        pass


def run_pair(workers: dict, order, job, work: Path) -> dict:
    """{side: (exit code, seconds, output bytes)} of ``job`` on each side."""
    cfg = work / "job.json"
    cfg.write_text(json.dumps(job.config()))
    result = {}
    for side in order:
        out = work / f"{side}.out"
        reply = workers[side].run([job.command, "--config", str(cfg), "--out", str(out)])
        result[side] = (reply["code"], reply["seconds"],
                        out.read_bytes() if out.exists() else None)
        if out.exists():
            out.unlink()
    return result


def measure(workers: dict, workload: str, seed: int, rounds: int, work: Path) -> dict:
    """The summary of ``rounds`` rounds of ``workload`` at ``seed``, one job
    pair at a time.  The spread and the faster share are taken over each
    side's round times (the sum of a round's job times), since one round
    holds one job of every slot and the slots' sizes differ."""
    times = {"old": [], "new": []}
    k = mismatched = 0
    for r in range(rounds):
        spent = {"old": 0.0, "new": 0.0}
        for job in jobs.make_round(workload, seed, r):
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            res = run_pair(workers, order, job, work)
            k += 1
            if (res["old"][0], res["old"][2]) != (res["new"][0], res["new"][2]):
                mismatched += 1
                print(f"outputs differ: {workload} seed {seed} round {r}, exit codes "
                      f"{res['old'][0]} / {res['new'][0]}", file=sys.stderr)
            for side in spent:
                spent[side] += res[side][1]
        for side in times:
            times[side].append(spent[side])

    summary = {"workload": workload, "seed": seed, "rounds": rounds, "jobs": k}
    for side in times:
        q1, p50, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        summary.update({f"{side}_round_s_q1": q1, f"{side}_round_s_p50": p50,
                        f"{side}_round_s_q3": q3})
    summary["p50_gap_exceeds_old_iqr"] = (
        abs(summary["new_round_s_p50"] - summary["old_round_s_p50"])
        > summary["old_round_s_q3"] - summary["old_round_s_q1"])
    faster = sum(new < old for old, new in zip(times["old"], times["new"]))
    summary.update(new_faster_share=faster / rounds, outputs_differ=mismatched)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", required=True, type=Path, help="the baseline checkout")
    ap.add_argument("--new", type=Path, default=NEW, help="the changed checkout")
    ap.add_argument("--workload", required=True, nargs="+", choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--in-process", action="store_true",
                    help="run both sides in this interpreter, not in two workers")
    args = ap.parse_args(argv)

    workers, mismatched = {}, 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for side in ("old", "new"):
                root = getattr(args, side).resolve()
                workers[side] = (InProcess(root, f"rmfruled_{side}", Path(tmp))
                                 if args.in_process else Worker(root))
            for workload in args.workload:
                for seed in args.seed:
                    summary = measure(workers, workload, seed, args.rounds, Path(tmp))
                    print(json.dumps(summary), flush=True)
                    mismatched += summary["outputs_differ"]
    finally:
        for w in workers.values():
            w.close()
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
