"""rmfruled benchmark: seeded CLI jobs, checked against closed-form surfaces.

    python3 rmfbench/run.py --workload mesh_rmf --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``src/rmfruled``.  One
worker process per run executes the jobs through ``rmfruled.cli.main`` one at
a time (a closed loop with a single client); this process generates each
job's config from the seed, checks each output against the reference in
``reference.py`` and prints one JSON result as its last line of stdout.
With ``--trace 1`` it prints the per-layer metrics of a traced run instead of
the end-to-end ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# Fresh interpreters timed per run, one after a job at each tenth of the run,
# so that the median spans the run; a warm-up import before the worker starts
# is dropped, and the worker's own import is kept.
SETUP_SAMPLES = 10
JOB_TIMEOUT = 60.0

# Spans whose own self_s is reported.  A span that a workload never enters
# reads 0 s there, next to its 0 calls.
SELF_SPANS = ("frame.theta_rmf", "expr.eval_jet", "curve.frenet",
              "curve.tangent_data", "frame.theta_at", "frame.frame_at",
              "ruled.frame", "ruled.coefficients", "ruled.point", "ruled.normal",
              "ruled.director_derivative_numeric", "ruled.sample", "ruled.classify",
              "invariants.base_curve_report", "invariants.oracles",
              "mesh_io.tessellate", "mesh_io.write_obj", "cli.load_config",
              "cli.write_atomic")
# Layers whose self_s is also reported as the sum over all their spans, so
# that the self time of every wrapped function falls in one of these metrics.
LAYERS = ("expr", "curve", "frame", "ruled", "invariants", "mesh_io", "cli")
CALL_SPANS = ("expr.eval_jet", "curve.frenet", "curve.tangent_data",
              "frame.theta_rmf", "frame.theta_at", "frame.frame_at",
              "frame.double_reflection", "ruled.frame", "ruled.coefficients",
              "ruled.point", "ruled.normal", "ruled.director_derivative_numeric",
              "ruled.sample", "ruled.classify", "invariants.base_curve_report",
              "invariants.oracles", "mesh_io.tessellate", "mesh_io.write_obj",
              "cli.write_atomic")


class Worker:
    """The worker process and its line protocol (see worker.py)."""

    def __init__(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""
        self.setup_s = None  # the worker's own import time, its first line

    def read(self, timeout: float = JOB_TIMEOUT) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("worker did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError("worker exited")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def call(self, argv, trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}).encode() + b"\n")
        return self.read()

    def close(self) -> dict:
        self.proc.stdin.close()
        last = self.read()
        self.proc.wait(timeout=JOB_TIMEOUT)
        return last

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure_setup(n: int) -> list:
    """Import times of ``n`` fresh interpreters."""
    times = []
    for _ in range(n):
        w = Worker("--setup")
        try:
            times.append(w.read()["setup_s"])
            w.proc.wait(timeout=JOB_TIMEOUT)
        finally:
            w.kill()
    return times


def run_job(worker: Worker, job: jobs.Job, base: Path, trace: bool) -> dict:
    cfg = base.with_suffix(".json")
    out = base.with_suffix(".obj" if job.command == "surface" else ".out")
    cfg.write_text(json.dumps(job.config()))
    reply = worker.call([job.command, "--config", str(cfg), "--out", str(out)], trace)
    if reply["code"] != 0:
        reply["errors"] = [f"exit code {reply['code']}: {reply['error']}"]
    elif job.command == "surface":
        reply["errors"] = reference.check_obj(out.read_text(), job.surface, job.n_s, job.n_v)
    else:
        reply["errors"] = reference.check_verify(json.loads(out.read_text()), job.expect)
    cfg.unlink()
    if out.exists():
        out.unlink()
    return reply


def theta_error(job: jobs.Job, tables) -> float:
    """Largest gap between the program's RMF angle table and the closed form."""
    err = 0.0
    for nodes, thetas in tables:
        for t, th in zip(nodes, thetas):
            err = max(err, abs(th - job.surface.theta.f(t)))
    return err


def rounds(seconds: float):
    """Round indices of a run: whole rounds, the last of them ending within
    half a round of ``seconds``."""
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        yield r
        r += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return


def end_to_end(workload: str, seed: int, seconds: float, worker: Worker, run_dir: Path):
    done, setup = [], [worker.setup_s]
    start = time.perf_counter()
    for r in rounds(seconds):
        for k, job in enumerate(jobs.make_round(workload, seed, r)):
            done.append((job, run_job(worker, job, run_dir / f"r{r}j{k}", False)))
            if (len(setup) <= SETUP_SAMPLES and time.perf_counter() - start
                    >= seconds * len(setup) / SETUP_SAMPLES):
                setup += measure_setup(1)
    setup += measure_setup(max(0, 1 + SETUP_SAMPLES - len(setup)))
    secs = [rep["seconds"] for _, rep in done]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s_p50": (statistics.median(secs), "s"),
        "points_per_s": (sum(j.points for j, _ in done) / sum(secs), "points/s"),
    }
    return done, metrics


def traced(workload: str, seed: int, seconds: float, worker: Worker, run_dir: Path):
    """Rounds run twice, untraced then traced; per-layer figures are per round."""
    done, per_round = [], []
    plain = spanned = 0.0
    hits = lookups = 0
    out_bytes = theta_err = 0.0
    for r in rounds(seconds):
        spans = {}
        for k, job in enumerate(jobs.make_round(workload, seed, r)):
            base = run_dir / f"r{r}j{k}"
            rep0 = run_job(worker, job, base, False)
            rep1 = run_job(worker, job, base, True)
            done += [(job, rep0), (job, rep1)]
            plain += rep0["seconds"]
            spanned += rep1["seconds"]
            tr = rep1["trace"]
            for name, (calls, self_s) in tr["spans"].items():
                acc = spans.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            hits += tr["cache_hits"]
            lookups += tr["cache_hits"] + tr["cache_misses"]
            out_bytes += tr["out_bytes"]
            theta_err = max(theta_err, theta_error(job, tr["theta_tables"]))
        per_round.append(spans)
    n = len(per_round)
    metrics = {}
    for name in CALL_SPANS:
        counts = [rd.get(name, [0])[0] for rd in per_round]
        # equal in every round by construction; a mean that is not a whole
        # number shows that the rounds did not repeat
        metrics[f"{name}.calls"] = (counts[0] if len(set(counts)) == 1
                                    else sum(counts) / n, "count")
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = (sum(rd.get(name, [0, 0.0])[1]
                                         for rd in per_round) / n, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v[1] for rd in per_round
                                          for name, v in rd.items()
                                          if name.startswith(layer + ".")) / n, "s")
    metrics["ruled.frame_cache.hit_ratio"] = (hits / lookups, "ratio")
    metrics["cli.write_atomic.bytes"] = (out_bytes / n, "bytes")
    metrics["frame.theta_max_abs_err"] = (theta_err, "rad")
    metrics["trace.overhead"] = (spanned / plain, "ratio")
    trace_file = WORK / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "rounds": per_round}, indent=1, sort_keys=True))
    return done, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rmfruled" / "cli.py").is_file():
        print(f"rmfbench: no rmfruled sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    measure_setup(1)  # warm-up: compiles and caches what the import reads
    worker = Worker()
    try:
        worker.setup_s = worker.read()["setup_s"]
        measure = traced if args.trace else end_to_end
        done, metrics = measure(args.workload, args.seed, args.seconds, worker, run_dir)
        peak_mb = worker.close()["peak_rss_mb"]
    finally:
        worker.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_mb, "MB")

    failed = [(job, rep) for job, rep in done if rep["errors"]]
    for job, rep in failed[:5]:
        print(f"rmfbench: {job.command} job failed: {rep['errors'][:3]}\n"
              f"  config: {json.dumps(job.config())}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(rep["code"] == 0 for _, rep in failed),
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
