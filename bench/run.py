"""circperm benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fit-ladder --seed 1 --seconds 28 --trace 0

One worker process runs the workload's jobs through ``circperm.cli.main``,
one after another (a closed loop with one client), and repeats the whole
job list ("a pass") until the time is up.  Every output is checked against
`reference.py` after the pass, outside the timed region.  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and it holds the
per-layer metrics instead.  See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from reference import Reference
from tracing import COUNTS, LAYERS, self_times
from workloads import WORKLOADS, make_jobs

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 11         # fresh interpreters timed for setup_s
DEADLINE_S = 170        # the whole run, whatever the program does
WARMUP_ARGV = ["derive", "--jumps", "0,1,2", "--out", "json"]


class Worker:
    """The worker process, driven one request at a time."""

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   # CPython refuses to print ints over 4300 digits unless
                   # told otherwise; eval-large-n prints ~8000-digit values.
                   PYTHONINTMAXSTRDIGITS="0")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            where = Path(self._read()["circperm"]).resolve()
            if root / "src" not in where.parents:
                raise RuntimeError(f"worker imported circperm from {where}")
        except BaseException:
            self.kill()
            raise

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the worker exited")
        return json.loads(line)

    def close(self) -> int:
        """Peak RSS of the worker in KiB; the process has ended on return."""
        try:
            return self.ask(op="exit")["maxrss_kib"]
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure_setup(root: Path) -> float:
    """Median seconds for a fresh interpreter to import the CLI and build
    its parser; the first, untimed run writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c",
           "import circperm.cli as c; c.build_parser()"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - start)
    return median(times)


def run_pass(worker: Worker, jobs: list[dict], ref: Reference,
             traced: bool) -> dict:
    if traced:
        worker.ask(op="trace", on=True)
    # The worker times the reference loop before each job and after the
    # last one.  A pass's wall time is the sum of its job requests, so the
    # loops are not part of it.
    replies, trips, loops = [], [], []
    for job in jobs:
        loops.append(worker.ask(op="ref")["t"])
        start = perf_counter()
        replies.append(worker.ask(op="job", id=job["id"], argv=job["argv"]))
        trips.append(perf_counter() - start)
    loops.append(worker.ask(op="ref")["t"])
    result = {"traced": traced, "wall": sum(trips), "trips": trips,
              "times": [r["t"] for r in replies],
              # each job's reference: the loops just before and just after it
              "refs": [mean(a + b) for a, b in zip(loops, loops[1:])]}
    if traced:
        result.update(worker.ask(op="take"))
        worker.ask(op="trace", on=False)
    failures = []
    for job, r in zip(jobs, replies):
        reason = ref.check(job, r["rc"], r["out"])
        if reason:
            detail = r["error"].strip().splitlines()[-1:] if r["error"] else []
            failures.append((job["id"], "; ".join([reason, *detail])))
    result["failures"] = failures
    return result


def measure(worker: Worker, jobs: list[dict], ref: Reference,
            seconds: float, trace: bool) -> list[dict]:
    """Rounds of one pass (or a traced and an untraced pass) until the next
    round would end past `seconds`; at least three passes untraced, two
    rounds traced."""
    kinds = (True, False) if trace else (False,)
    min_rounds = 2 if trace else 3
    passes: list[dict] = []
    longest = 0.0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for traced in kinds:
            passes.append(run_pass(worker, jobs, ref, traced))
        longest = max(longest, perf_counter() - round_start)
        rounds = len(passes) // len(kinds)
        if rounds >= min_rounds and perf_counter() - start + longest > seconds:
            return passes


def tally(jobs: list[dict], passes: list[dict]) -> tuple[int, list]:
    """Jobs attempted and the (job id, reason) of every failed one."""
    return len(jobs) * len(passes), [f for p in passes for f in p["failures"]]


def end_to_end(passes: list[dict], setup_s: float, maxrss_kib: int) -> dict:
    # Job times are in units of their reference loops, which cancels the
    # host's speed swings (see README.md); each job at its mean over passes.
    def scaled(p, key):
        return [t / r for t, r in zip(p[key], p["refs"])]
    per_job = [mean(ts) for ts in zip(*(scaled(p, "times") for p in passes))]
    return {
        "wall_ref": (mean(sum(scaled(p, "trips")) for p in passes), "ref"),
        "job_p50_ref": (median(per_job), "ref"),
        "job_max_ref": (max(per_job), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (maxrss_kib / 1024, "MiB"),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    wall = median(p["wall"] for p in traced)
    untraced_wall = median(p["wall"] for p in passes if not p["traced"])
    selfs = [self_times(p["spans"]) for p in traced]
    # the part of a pass outside its jobs: requests and replies
    harness = median(p["wall"] - sum(end - start for _, start, end, parent, _
                                     in p["spans"] if parent is None)
                     for p in traced)
    out = {}
    for layer in LAYERS:
        v = median(s.get(layer, 0.0) for s in selfs)
        out[f"{layer}.self_s"] = (v, "s")
        out[f"{layer}.share_pct"] = (100 * v / wall, "%")
    out["harness.self_s"] = (harness, "s")
    out["harness.share_pct"] = (100 * harness / wall, "%")
    out["traced.wall_s"] = (wall, "s")
    out["tracing.overhead_s"] = (wall - untraced_wall, "s")
    counts = traced[0]["counts"]
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    terms_in = counts.get("algebra.fit.terms_in", 0)
    out["algebra.fit.useful_ratio"] = (
        counts.get("algebra.fit.terms_useful", 0) / terms_in if terms_in else 0.0,
        "ratio")
    out["tracing.untraced"] = (len(traced[0]["untraced"]), "count")
    return out


def write_spans(root: Path, workload: str, seed: int, passes: list[dict]) -> Path:
    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for i, p in enumerate(q for q in passes if q["traced"]):
            for name, start, end, parent, job in p["spans"]:
                fh.write(json.dumps({"pass": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
    return path


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "circperm" / "cli.py").is_file():
        print("error: run from a circperm checkout (src/circperm is missing)",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)

    jobs = make_jobs(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}")
    for job in jobs:
        print(f"job {job['id']}: circperm {' '.join(job['argv'])}")
    ref = Reference()
    worker = None
    try:
        setup_s = measure_setup(root) if not args.trace else None
        worker = Worker(root)
        worker.ask(op="job", id=-1, argv=WARMUP_ARGV)
        passes = measure(worker, jobs, ref, args.seconds, bool(args.trace))
        maxrss = worker.close()
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.kill()
        signal.alarm(0)

    attempted, failures = tally(jobs, passes)
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {i} ({kind}): {p['wall']:.4f} s, reference loop "
              f"{median(p['refs']) * 1e3:.3f} ms, {len(p['failures'])} failed")
    for job_id, reason in dict(failures).items():
        print(f"FAIL job {job_id}: {reason}")
    print(f"failed_ratio {len(failures) / attempted:.6f} "
          f"({len(failures)}/{attempted} jobs)")
    if args.trace:
        metrics = per_layer(passes)
        print(f"spans written to {write_spans(root, args.workload, args.seed, passes)}")
        for name in passes[0]["untraced"]:
            print(f"untraced: {name}")
    else:
        metrics = end_to_end(passes, setup_s, maxrss)
        print(f"unscaled: pass {mean(p['wall'] for p in passes)} s, reference "
              f"loop {mean(r for p in passes for r in p['refs'])} s "
              f"(means over {len(passes)} passes)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
