"""Brute-force ground truth: Ryser permanents and exhaustive cover enumeration.

Two independent oracles (inclusion-exclusion vs backtracking) validate each
other and everything derived by the transfer pipeline.  Budget caps are
enforced here; exceeding one raises SizeCapError rather than truncating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterator, Optional, Sequence

from .budget import Budget, default_budget
from .circulant import CirculantSpec, jump_residues
from .errors import SizeCapError


def ryser_permanent(matrix: Sequence[Sequence], max_dim: Optional[int] = 24):
    """Exact permanent by Ryser's alternating sum over column subsets.

    Entries may be ints or Fractions.  Each row is scaled by the lcm D_r of
    its denominators, so the sum runs on ints, and perm(M) = perm(DM) / prod
    D_r is divided out once at the end: an int when integral, else a
    Fraction.  Gray-code updates touch one column per step; the running
    product over row sums is maintained incrementally through a (zero
    count, product of nonzeros) pair, so each step costs O(nonzeros in the
    flipped column).
    """
    n = len(matrix)
    if max_dim is not None and n > max_dim:
        raise SizeCapError(f"Ryser dimension {n} exceeds cap {max_dim}")
    if n == 0:
        return 1
    scale = 1
    rows = []
    for row in matrix:
        d = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    cols = [[(i, rows[i][j]) for i in range(n) if rows[i][j] != 0]
            for j in range(n)]
    if any(not c for c in cols):
        return 0

    w = [0] * n               # row sums over the current column subset
    zero_count = n
    prod = 1                  # product of the nonzero w[i]
    total = 0
    membership = 0
    size = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        adding = not (membership & bit)
        membership ^= bit
        size += 1 if adding else -1
        for i, a in cols[j]:
            old = w[i]
            new = old + a if adding else old - a
            w[i] = new
            if old == 0:
                zero_count -= 1
            else:
                prod //= old
            if new == 0:
                zero_count += 1
            else:
                prod *= new
        if zero_count == 0:
            total += prod if (n - size) % 2 == 0 else -prod
    return total // scale if total % scale == 0 else Fraction(total, scale)


@dataclass(frozen=True)
class CoverStats:
    """Exhaustive cycle-cover statistics: moment_sums[i] = sum over covers of
    (number of cycles)^i;  moment_sums[0] is the cover count."""

    count: int
    moment_sums: tuple[int, ...]
    hamiltonian_count: int


def enumerate_stats(spec: CirculantSpec, n: int, i_max: int = 0,
                    budget: Optional[Budget] = None) -> CoverStats:
    """Backtracking enumeration of all cycle covers of C at index n, with
    per-cover cycle counts from the permutation's orbit structure."""
    budget = budget or default_budget()
    size = spec.size(n)
    if size > budget.enum_max_size:
        raise SizeCapError(f"enumeration size {size} exceeds cap {budget.enum_max_size}")
    if len(spec.jumps) > budget.enum_max_jumps:
        raise SizeCapError(f"{len(spec.jumps)} jumps exceed cap {budget.enum_max_jumps}")
    if size == 0:
        return CoverStats(1, tuple(1 if t == 0 else 0 for t in range(i_max + 1)),
                          0)

    residues = list(jump_residues(spec, n))
    targets = [[(i + r) % size for r in residues] for i in range(size)]

    perm = [0] * size
    moment_sums = [0] * (i_max + 1)
    ham = 0
    count = 0
    seen = [0] * size

    def orbit_count() -> int:
        marker = count + 1  # fresh per leaf; `seen` reused across leaves
        cycles = 0
        for start in range(size):
            if seen[start] != marker:
                cycles += 1
                v = start
                while seen[v] != marker:
                    seen[v] = marker
                    v = perm[v]
        return cycles

    def rec(row: int, used: int):
        nonlocal count, ham
        if row == size:
            count += 1
            cycles = orbit_count()
            for t in range(i_max + 1):
                moment_sums[t] += cycles ** t
            if cycles == 1:
                ham += 1
            return
        for col in targets[row]:
            bit = 1 << col
            if not (used & bit):
                perm[row] = col
                rec(row + 1, used | bit)

    rec(0, 0)
    return CoverStats(count, tuple(moment_sums), ham)


def brute_hamiltonian(spec: CirculantSpec, n: int,
                      budget: Optional[Budget] = None) -> int:
    """Number of single-orbit cycle covers (Hamiltonian cycles)."""
    return enumerate_stats(spec, n, 0, budget).hamiltonian_count


def enumerate_legal_covers(vertices: Sequence[Hashable],
                           edges: Sequence[tuple],
                           in_free: set, out_free: set) -> Iterator[tuple]:
    """All edge subsets that are legal covers: degrees <= 1 everywhere,
    in-degree 1 off `in_free`, out-degree 1 off `out_free`.

    Edges are (tail, head, payload) triples; yields tuples of edges.
    Used for oracle cross-checks of the classification layer and to seed
    the augmented transfer states at the base size.
    """
    order = {v: i for i, v in enumerate(vertices)}
    out_edges: dict = {v: [] for v in vertices}
    last_tail: dict = {}
    for e in edges:
        tail, head = e[0], e[1]
        out_edges[tail].append(e)
        pos = order[tail]
        last_tail[head] = max(last_tail.get(head, -1), pos)

    nv = len(vertices)
    deadline: list[list] = [[] for _ in range(nv + 1)]
    for v in vertices:
        if v not in in_free:
            deadline[last_tail.get(v, -1) + 1].append(v)

    chosen: list = []
    covered: set = set()

    def rec(idx: int) -> Iterator[tuple]:
        for v in deadline[idx]:
            if v not in covered:
                return
        if idx == nv:
            yield tuple(chosen)
            return
        v = vertices[idx]
        for e in out_edges[v]:
            if e[1] not in covered:
                covered.add(e[1])
                chosen.append(e)
                yield from rec(idx + 1)
                chosen.pop()
                covered.remove(e[1])
        if v in out_free:
            yield from rec(idx + 1)

    yield from rec(0)
