"""Write expected.json: the pinned answer for every job the seeds can draw.

Run from the repository root, once, when the job pools change:

    PYTHONPATH=src PYTHONINTMAXSTRDIGITS=0 python3 bench/pin.py

Each recurrence comes from circperm's CLI and is kept only after it agrees
with both of circperm's oracles (Ryser and exhaustive enumeration) at every
small size where they apply, and with this benchmark's own reference at
the sizes that `reference.py` checks at run time.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

from circperm.circulant import adjacency_matrix, parse_spec
from circperm.cli import main
from circperm.errors import CollisionError
from circperm.oracle import enumerate_stats, ryser_permanent
from reference import EXPECTED, REC_FIELDS, Reference, exact_terms
from workloads import WORKLOADS, make_jobs

SEEDS = range(1000)     # far more than needed to draw every pool member
ORACLE_MAX_SIZE = 16


def cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv + ["--out", "json"])
    if rc != 0:
        raise SystemExit(f"circperm {' '.join(argv)} exited {rc}")
    return json.loads(out.getvalue())


def spec_argv(jumps, size, weights) -> list[str]:
    argv = ["--jumps", jumps]
    if size:
        argv += ["--size", size]
    if weights:
        argv += ["--weights", weights]
    return argv


def oracle_values(spec, n: int, order: int):
    """(permanent, moment sum, Hamiltonian count) from circperm.oracle,
    or None where the index collides or is too large."""
    if not 0 < spec.size(n) <= ORACLE_MAX_SIZE:
        return None
    try:
        ryser = ryser_permanent(adjacency_matrix(spec, n))
    except CollisionError:
        return None
    if spec.weights is not None:
        return ryser, None, None
    stats = enumerate_stats(spec, n, order)
    if stats.count != ryser:
        raise SystemExit(f"oracles disagree at n={n}")
    return ryser, stats.moment_sums[order], stats.hamiltonian_count


def pin_recurrence(key: str, rep: dict, spec, order: int, pick: int) -> dict:
    """The recurrence of `rep`, after checking it against the oracles;
    pick 0 compares permanents, 1 moment sums, 2 Hamiltonian counts."""
    rec = {k: rep["recurrence"][k] for k in REC_FIELDS}
    if rep.get("normalized", {}).get("normalization", {}).get("index_shift"):
        raise SystemExit(f"{key}: the reference assumes raw n = normalized n")
    terms = exact_terms(rec, 40)
    checked = 0
    for i, value in enumerate(terms):
        oracle = oracle_values(spec, rec["base"] + i, order)
        if oracle is None or oracle[pick] is None:
            continue
        if oracle[pick] != value:
            raise SystemExit(f"{key}: term {i} is {value}, oracle {oracle[pick]}")
        checked += 1
    if not checked:
        raise SystemExit(f"{key}: no size small enough for the oracles")
    print(f"{key}: order {rec['order']}, {checked} terms oracle-checked")
    return rec


def main_pin() -> None:
    jobs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for job in make_jobs(workload, seed):
                jobs.setdefault((job["key"], job.get("verify_key")), job)
    expected: dict = {}
    ref = Reference(expected)
    for (key, verify_key), job in sorted(jobs.items(), key=str):
        if key not in expected:
            kind, order = job["kind"], job.get("order", 0)
            if kind in ("moments", "hamiltonian"):
                extra = ["--order", str(order)] if kind == "moments" else []
                pinned = dict(job)
            else:
                jumps, size, weights = (p or None for p in key[2:].split("|"))
                kind, extra = "derive", []
                pinned = {"kind": kind, "jumps": jumps, "size": size,
                          "weights": weights, "key": key}
            spec = parse_spec(pinned["jumps"], pinned["size"], pinned["weights"])
            rep = cli_json([kind, *spec_argv(pinned["jumps"], pinned["size"],
                                             pinned["weights"]), *extra])
            pick = {"derive": 0, "moments": 1, "hamiltonian": 2}[kind]
            expected[key] = pin_recurrence(key, rep, spec, order, pick)
            # the run-time reference must find terms it can compare
            reason = ref.check(pinned, 0, json.dumps(rep))
            if reason:
                raise SystemExit(f"{key}: {reason}")
        if verify_key and verify_key not in expected:
            rep = cli_json(["verify", *spec_argv(job["jumps"], job["size"],
                                                 job["weights"]),
                            "--n-max", str(job["n_max"])])
            if not all(e["ok"] for e in rep["verification"]):
                raise SystemExit(f"{verify_key}: verify reported a mismatch")
            expected[verify_key] = sum(1 for e in rep["verification"]
                                       if e["recurrence"] != "None")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {EXPECTED}")


if __name__ == "__main__":
    main_pin()
