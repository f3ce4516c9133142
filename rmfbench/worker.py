"""Job worker: imports rmfruled.cli once, then runs CLI jobs sent on stdin.

Protocol (one JSON object per line):
  out  {"setup_s": s}                      once, after the import
  in   {"argv": [...], "trace": bool}      one job
  out  {"code": int, "seconds": s, "error": str|null[, "trace": {...}]}
  (stdin closed)
  out  {"peak_rss_mb": mb}                 then the worker exits

With ``--setup`` the worker only reports its import time and exits.
``rmfruled`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

import sys
import time

_t0 = time.perf_counter()
import rmfruled.cli as cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


def _run(argv):
    gc.collect()
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, reported to the client
        code, error = -1, traceback.format_exc(limit=3)
    return code, time.perf_counter() - t0, error


def _trace_data(tracer: Tracer, out: str) -> dict:
    hits = misses = 0
    tables = []
    for sf in tracer.surfaces:
        info = sf._frame_at.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
        if sf.field.is_rmf:
            tables.append([sf.field._nodes.tolist(), sf.field._thetas.tolist()])
    return {"spans": {k: list(v) for k, v in tracer.stats.items()},
            "cache_hits": hits, "cache_misses": misses, "theta_tables": tables,
            "out_bytes": os.path.getsize(out) if os.path.exists(out) else 0}


def main():
    proto = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints can garble the protocol
    print(json.dumps({"setup_s": SETUP_S}), file=proto, flush=True)
    if "--setup" in sys.argv[1:]:
        return
    tracer = Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        argv = req["argv"]
        if req["trace"]:
            tracer.install()
            tracer.reset()
            try:
                code, seconds, error = _run(argv)
            finally:
                tracer.uninstall()
            reply = {"code": code, "seconds": seconds, "error": error,
                     "trace": _trace_data(tracer, argv[argv.index("--out") + 1])}
        else:
            code, seconds, error = _run(argv)
            reply = {"code": code, "seconds": seconds, "error": error}
        print(json.dumps(reply), file=proto, flush=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": rss_kb / 1024.0}), file=proto, flush=True)


if __name__ == "__main__":
    main()
