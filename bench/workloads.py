"""Seeded job lists for the four benchmark workloads.

A job is a plain dict: the argv handed to ``circperm.cli.main`` plus what
the correctness check needs (the command kind, the spec as written, and the
key of its pinned expectation in ``expected.json``).  circperm only ever
sees the argv.

Every seeded choice picks between inputs of about the same cost (a cyclic
jump shift, which normalization undoes; a mirror pair of jump sets; a
permutation of one weight multiset; n within 2%), so a run's figures move
with the program and the machine, not with the seed.
"""
from __future__ import annotations

import random
from itertools import permutations

WORKLOADS = ("fit-ladder", "linear-build", "eval-large-n", "verify-oracle")

# The two shift pairs among the linear corpus rows (equal permanents).
ROWS_3N = ("0,1n+0,2n-1", "1,1n+1,2n+0")
ROWS_3N1 = ("1,1n+0,2n+1", "2,1n+1,2n+2")
# Weight pools: every permutation of one small-rational multiset.
WEIGHTS_A = tuple(",".join(p) for p in permutations(("1/2", "3", "-1")))
WEIGHTS_B = tuple(",".join(p) for p in permutations(("2", "-1", "1/2")))


def spec_key(jumps: str, size: str | None = None,
             weights: str | None = None) -> str:
    return "|".join((jumps, size or "", weights or ""))


def shifted(jumps: tuple[int, ...], shift: int) -> str:
    return ",".join(str(j + shift) for j in jumps)


def _job(kind: str, jumps: str, size=None, weights=None, *, key=None,
         key_jumps=None, extra=(), **check) -> dict:
    argv = [kind, "--jumps", jumps]
    if size:
        argv += ["--size", size]
    if weights:
        argv += ["--weights", weights]
    argv += [*extra, "--out", "json"]
    return {"argv": argv, "kind": kind, "jumps": jumps, "size": size,
            "weights": weights,
            "key": key or "T:" + spec_key(key_jumps or jumps, size, weights),
            **check}


def _derive(jumps, size=None, weights=None, shift=0):
    if isinstance(jumps, tuple):
        return _job("derive", shifted(jumps, shift), size, weights,
                    key_jumps=shifted(jumps, 0))
    return _job("derive", jumps, size, weights)


def fit_ladder(rng: random.Random) -> list[dict]:
    """Constant 3-jump sets {0,a,b}, b = 2..5, one 4-jump set, and the two
    transfer-pairing pipelines: the recurrence fit dominates all of them."""
    c = rng.randint(-2, 2)
    jobs = [_derive((0, 1, 2), shift=c)]
    for b, pair in ((3, (1, 2)), (4, (1, 3)), (5, (2, 3))):
        jobs.append(_derive((0, rng.choice(pair), b), shift=c))
    jobs.append(_derive(rng.choice(((0, 1, 2, 4), (0, 2, 3, 4))), shift=c))
    for jumps in ("1,3", "1,4"):
        jobs.append(_job("hamiltonian", jumps, key=f"HC:{jumps}"))
    for jumps, order in (("-1,0,1", 1),
                         (rng.choice(("-1,0,2", "-2,0,1")), 1),
                         ("0,1,2", 2)):
        jobs.append(_job("moments", jumps, extra=("--order", str(order)),
                         order=order, key=f"TC{order}:{jumps}"))
    return jobs


def linear_build(rng: random.Random) -> list[dict]:
    """Linear-in-n corpus rows and weighted w=4 specs: the transfer build
    (Ryser-based T0) and the annihilator dominate, not the fit.  The w=6
    spec {0,n+1,n+2} of size 2n+1 is left out: it would add 2.4 s to a
    pass, and the 3n+1 row already loads the same layers."""
    c = rng.randint(-2, 2)
    return [
        _derive(rng.choice(ROWS_3N1), "3n+1"),
        _derive("0,1n+0,1n+2", "2n"),
        _derive(rng.choice(ROWS_3N), "3n"),
        _derive((0, 1, 4), weights=rng.choice(WEIGHTS_A), shift=c),
        _derive(ROWS_3N[0], "3n", rng.choice(WEIGHTS_B)),
    ]


# (jumps, size, weights, n): n is chosen so that a pass takes about 4 s and
# a run holds several passes.
EVAL_POINTS = (
    ((0, 1, 2), None, None, 37500),
    ((0, 1, 4), None, None, 7500),
    (ROWS_3N, "3n", None, 15000),
    ((0, 1, 2), None, "2,1,1", 15000),
    ((0, 1, 3), None, "1/2,3,-1", 3750),
)


def eval_large_n(rng: random.Random) -> list[dict]:
    """Large-n evaluation on integer and rational recurrences whose derive
    is cheap: the evaluator dominates."""
    c = rng.randint(-2, 2)
    jobs = []
    for jumps, size, weights, n in EVAL_POINTS:
        n = rng.randint(n - n // 50, n + n // 50)
        extra = ("--n", str(n))
        if size:
            row = rng.choice(jumps)
            jobs.append(_job("eval", row, size, weights, extra=extra, n=n))
        else:
            jobs.append(_job("eval", shifted(jumps, c), size, weights,
                             key_jumps=shifted(jumps, 0), extra=extra, n=n))
    return jobs


# (jumps, size, weights, n_max).  Weights stay fixed here: Fraction Ryser
# costs up to 12% more for one permutation of a weight list than another.
VERIFY_POINTS = (
    ((1, 2, 3), None, None, 19),
    ((0, 1, 4), None, None, 19),
    (ROWS_3N, "3n", None, 6),
    ((0, 1, 2), None, "2,1,1", 15),
    ((0, 1, 3), None, "1/2,3,-1", 14),
)


def verify_oracle(rng: random.Random) -> list[dict]:
    """`verify` near the oracle caps, on integer and Fraction entries:
    Ryser and exhaustive enumeration dominate."""
    c = rng.randint(-2, 2)
    jobs = []
    for jumps, size, weights, n_max in VERIFY_POINTS:
        extra = ("--n-max", str(n_max))
        if size:
            jobs.append(_job("verify", rng.choice(jumps), size, weights,
                             extra=extra, n_max=n_max))
        else:
            jobs.append(_job("verify", shifted(jumps, c), size, weights,
                             key_jumps=shifted(jumps, 0), extra=extra,
                             n_max=n_max))
    for job in jobs:
        job["verify_key"] = f"V:{job['key'][2:]}|{job['n_max']}"
    return jobs


GENERATORS = {"fit-ladder": fit_ladder, "linear-build": linear_build,
              "eval-large-n": eval_large_n, "verify-oracle": verify_oracle}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one workload; the same seed gives the same list."""
    jobs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
