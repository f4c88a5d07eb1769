"""Benchmark worker: runs circperm CLI jobs one at a time for `run.py`.

Reads one JSON request per line on stdin and answers with one JSON line on
stdout.  Requests:

  {"op": "job", "id": 3, "argv": [...]}  -> {"rc", "out", "error", "t"}
  {"op": "ref"}                          -> {"t": [seconds, ...]}
  {"op": "trace", "on": true|false}      -> {"tracing": true|false}
  {"op": "take"}                         -> {"spans", "counts", "untraced"}
  {"op": "exit"}                         -> {"maxrss_kib"}, then exits

A job's stdout and stderr are captured; `t` is the seconds spent in
``circperm.cli.main``.  A ``ref`` request times the reference loop, a fixed
piece of pure-Python work that measures how fast the host runs Python at
that moment; `run.py` sends one before every job and after the last.  Started with ``src`` on PYTHONPATH.
"""
from __future__ import annotations

import gc
import io
import json
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

from tracing import JOB_SPAN, Tracer


REF_LOOP_ITERATIONS = 100_000   # about 10 ms on a 2-CPU container
REF_LOOP_ROUNDS = 3             # loops timed per ref request


def reference_loop() -> float:
    """Seconds spent on a fixed pure-Python loop."""
    start = perf_counter()
    s = 0
    for i in range(REF_LOOP_ITERATIONS):
        s += i * i % 7
    return perf_counter() - start


def reference() -> list[float]:
    """Collect garbage, then time the reference loop a few times.  The
    collection here, before every job, lets each job start from a collected
    heap, as in a fresh CLI process, without paying for the garbage of the
    job before it."""
    gc.collect()
    return [reference_loop() for _ in range(REF_LOOP_ROUNDS)]


def run_job(main, argv, tracer, job_id):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    span = tracer.span(JOB_SPAN, job_id) if tracer else nullcontext()
    start = perf_counter()
    try:
        with span, redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:          # argparse refusals
        rc = exc.code
    except Exception:                  # a crash is a failed job, not a dead worker
        error = traceback.format_exc()
    t = perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "error": error or err.getvalue(),
            "t": t}


def serve(requests, replies) -> None:
    import circperm
    from circperm.cli import main

    def reply(obj):
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    reply({"circperm": circperm.__file__})
    tracer = None
    for line in requests:
        req = json.loads(line)
        op = req["op"]
        if op == "job":
            reply(run_job(main, req["argv"], tracer, req["id"]))
        elif op == "ref":
            reply({"t": reference()})
        elif op == "trace":
            if req["on"] and tracer is None:
                tracer = Tracer()
                tracer.install()
            elif not req["on"] and tracer is not None:
                tracer.restore()
                tracer = None
            reply({"tracing": tracer is not None})
        elif op == "take":
            spans, counts = tracer.take()
            reply({"spans": spans, "counts": counts,
                   "untraced": tracer.untraced})
        elif op == "exit":
            reply({"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
