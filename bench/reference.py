"""Correctness reference that shares no code with the path being timed.

Each job's output is checked against the expectation pinned in
``expected.json`` (written once by ``pin.py`` after a cross-check against
circperm's two oracles) and against this module's own arithmetic:

* small-n terms against a few-line bitmask permanent and a few-line cycle
  enumerator, never ``circperm.oracle``;
* large-n ``eval`` values against a square-and-multiply of the pinned
  recurrence modulo a prime (x^k mod the characteristic polynomial);
* ``verify`` against the pinned count of checked sizes, all of them ``ok``.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")
PRIME = (1 << 61) - 1
PERM_MAX_SIZE = 20      # largest matrix the bitmask permanent is run on
CYCLE_MAX_SIZE = 14     # largest size the cycle enumerator is run on


def parse_jumps(jumps: str, size: str | None):
    """[(p, s)] jump laws and the (p, s) size law of a spec as written."""
    def law(term):
        if "n" not in term:
            return 0, int(term)
        p, _, s = term.partition("n")
        return int(p or 1), int(s or 0)
    return [law(t) for t in jumps.split(",")], law(size) if size else (1, 0)


def circulant_rows(jumps, size, weights, n):
    """Sparse rows [(column, weight)] of the circulant at index n, or None
    when the jumps collide modulo the size."""
    laws, (p, s) = parse_jumps(jumps, size)
    dim = p * n + s
    ws = ([Fraction(w) for w in weights.split(",")] if weights
          else [1] * len(laws))
    residues = [(a * n + b) % dim for a, b in laws] if dim > 0 else []
    if dim <= 0 or len(set(residues)) != len(residues):
        return None
    return [[((i + r) % dim, w) for r, w in zip(residues, ws)]
            for i in range(dim)]


def permanent(rows) -> Fraction | int:
    """Row-by-row dynamic programme over the set of used columns."""
    dp = {0: 1}
    for row in rows:
        nxt: dict[int, Fraction | int] = {}
        for used, v in dp.items():
            for col, w in row:
                if not used >> col & 1:
                    key = used | 1 << col
                    nxt[key] = nxt.get(key, 0) + v * w
        dp = nxt
    return sum(dp.values())


def cycle_stats(rows, order: int):
    """(sum over cycle covers of cycles**order, number of Hamiltonian
    cycles), by walking every permutation the rows allow."""
    dim = len(rows)
    perm = [0] * dim
    total = ham = 0

    def walk(i, used):
        nonlocal total, ham
        if i == dim:
            seen, cycles = 0, 0
            for start in range(dim):
                if not seen >> start & 1:
                    cycles += 1
                    v = start
                    while not seen >> v & 1:
                        seen |= 1 << v
                        v = perm[v]
            total += cycles ** order
            ham += cycles == 1
            return
        for col, _ in rows[i]:
            if not used >> col & 1:
                perm[i] = col
                walk(i + 1, used | 1 << col)

    walk(0, 0)
    return total, ham


def mod_term(rec: dict, n: int) -> int:
    """T(n) mod PRIME for n >= base, by x^(n-base) mod the characteristic
    polynomial (square-and-multiply), then a dot with the initials."""
    def residue(v):
        f = Fraction(v)
        return f.numerator % PRIME * pow(f.denominator, -1, PRIME) % PRIME

    coeffs = [residue(c) for c in rec["coeffs"]]
    init = [residue(v) for v in rec["initials"]]
    d = len(coeffs)

    def mulmod(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for t in range(2 * d - 2, d - 1, -1):   # x^d = sum_j c_j x^(d-j)
            v = prod[t] % PRIME
            for j, c in enumerate(coeffs, 1):
                prod[t - j] += v * c
        return [v % PRIME for v in prod[:d]]

    result = [1] + [0] * (d - 1)
    power = [coeffs[0]] if d == 1 else [0, 1] + [0] * (d - 2)
    k = n - rec["base"]
    if k < 0:
        raise ValueError("mod_term needs n >= base")
    while k:
        if k & 1:
            result = mulmod(result, power)
        power = mulmod(power, power)
        k >>= 1
    return sum(r * v for r, v in zip(result, init)) % PRIME


def exact_terms(rec: dict, count: int) -> list[Fraction]:
    """T(base), ..., T(base + count - 1) by plain iteration."""
    coeffs = [Fraction(c) for c in rec["coeffs"]]
    vals = [Fraction(v) for v in rec["initials"]]
    while len(vals) < count:
        vals.append(sum(c * vals[-j] for j, c in enumerate(coeffs, 1)))
    return vals[:count]


REC_FIELDS = ("order", "coeffs", "base", "initials")


class Reference:
    """Pinned expectations plus caches of this module's own oracle values."""

    def __init__(self, expected: dict | None = None):
        if expected is None:
            expected = json.loads(EXPECTED.read_text())
        self.expected = expected
        self._perm: dict[tuple, Fraction | int | None] = {}
        self._cycles: dict[tuple, tuple | None] = {}

    def own_permanent(self, job, n):
        key = (job["jumps"], job["size"], job["weights"], n)
        if key not in self._perm:
            rows = circulant_rows(job["jumps"], job["size"], job["weights"], n)
            small = rows is not None and len(rows) <= PERM_MAX_SIZE
            self._perm[key] = permanent(rows) if small else None
        return self._perm[key]

    def own_cycles(self, job, n):
        key = (job["jumps"], job.get("order", 0), n)
        if key not in self._cycles:
            rows = circulant_rows(job["jumps"], None, None, n)
            small = rows is not None and len(rows) <= CYCLE_MAX_SIZE
            self._cycles[key] = (cycle_stats(rows, job.get("order", 0))
                                 if small else None)
        return self._cycles[key]

    def check(self, job: dict, rc, out: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            rep = json.loads(out)
        except ValueError:
            return "output is not JSON"
        exp = self.expected.get(job["key"])
        if exp is None:
            return f"no pinned expectation for {job['key']}"
        try:
            return getattr(self, "_check_" + job["kind"])(job, rep, exp)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed report: {exc!r}"

    @staticmethod
    def _recurrence_differs(rep, exp):
        got = {k: rep["recurrence"][k] for k in REC_FIELDS}
        want = {k: exp[k] for k in REC_FIELDS}
        return None if got == want else "recurrence differs from the pinned one"

    def _small_terms(self, job, rep, exp, own):
        """Compare reported terms with `own(job, raw n)` where it applies."""
        start = rep["terms"]["start"]
        compared = 0
        for i, v in enumerate(rep["terms"]["values"]):
            want = own(job, start + i)
            if want is None:
                continue
            if Fraction(v) != want:
                return f"term {i} is {v}, expected {want}"
            compared += 1
        return None if compared else "no term small enough to check"

    def _check_derive(self, job, rep, exp):
        return (self._recurrence_differs(rep, exp)
                or self._small_terms(job, rep, exp, self.own_permanent))

    def _check_eval(self, job, rep, exp):
        value = Fraction(rep["value"])
        want = mod_term(exp, job["n"])
        got = value.numerator % PRIME * pow(value.denominator, -1, PRIME) % PRIME
        return None if got == want else f"T({job['n']}) differs mod 2^61-1"

    def _check_verify(self, job, rep, exp):
        bad = self._recurrence_differs(rep, exp)
        if bad:
            return bad
        entries = rep["verification"]
        checked = [e for e in entries if e["recurrence"] != "None"]
        want = self.expected[job["verify_key"]]
        if len(checked) != want:
            return f"verify checked {len(checked)} sizes, pinned {want}"
        if not all(e["ok"] for e in entries):
            return "verify reported a mismatch"
        for e in checked:
            own = self.own_permanent(job, e["n"])
            if own is not None and Fraction(e["recurrence"]) != own:
                return f"verify value at n={e['n']} is wrong"
        return None

    def _check_moments(self, job, rep, exp):
        return (self._recurrence_differs(rep, exp)
                or self._small_terms(job, rep, exp, self._own_moment))

    def _check_hamiltonian(self, job, rep, exp):
        return (self._recurrence_differs(rep, exp)
                or self._small_terms(job, rep, exp, self._own_hamiltonian))

    def _own_moment(self, job, n):
        stats = self.own_cycles(job, n)
        return None if stats is None else stats[0]

    def _own_hamiltonian(self, job, n):
        stats = self.own_cycles(job, n)
        return None if stats is None else stats[1]
