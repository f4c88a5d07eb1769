"""Brute-force ground truth: permanents and exhaustive cover enumeration.

Two independent oracles (inclusion-exclusion by Glynn's formula over sign
vectors vs backtracking over cycle covers) validate each other and
everything derived by the transfer pipeline.  Budget caps are enforced
here; exceeding one raises SizeCapError rather than truncating.
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
    """Exact permanent by Glynn's alternating sum over sign vectors.

    perm(A) = 2^-(n-1) * sum over s in {+1,-1}^n with s_0 = +1 of
    (prod_k s_k) * prod_j (sum_i s_i a_ij): 2^(n-1) terms where Ryser's
    formula over column subsets has 2^n (Glynn 2010).  Entries may be ints
    or Fractions.  Each row is scaled by the lcm D_r of its denominators,
    so the sum runs on ints, and prod D_r * 2^(n-1) is divided out once at
    the end: an int when integral, else a Fraction.  s_1 .. s_(n-1) are
    walked in Gray-code order, so the sign alternates and a step flips one
    row, moving the column sums in that row's nonzeros by -+2 a_ij; the
    product of the column sums is kept as a (zero count, product of
    nonzeros) pair, so a step costs O(nonzeros in the flipped row).

    The name, the `max_dim` cap and its message ("Ryser dimension N exceeds
    cap M") are kept from the Ryser formula this replaced: the bench tracer
    wraps `ryser_permanent` where `transfer` and `pipeline` import it, and
    the CLI prints the message as it stands.
    """
    n = len(matrix)
    if max_dim is not None and n > max_dim:
        raise SizeCapError(f"Ryser dimension {n} exceeds cap {max_dim}")
    if n == 0:
        return 1
    scale = 1
    sums = [0] * n            # column sums at the current sign vector
    covered = 0               # bit j: column j has a nonzero
    flips = []                # flips[i]: (column, change) of row i's next flip
    unflips = []              # ... and of the flip after it
    for row in matrix:
        d = math.lcm(*(v.denominator for v in row))
        scale *= d
        nonzeros = [(j, v.numerator * (d // v.denominator))
                    for j, v in enumerate(row) if v]
        if not nonzeros:
            return 0
        for j, a in nonzeros:
            sums[j] += a
            covered |= 1 << j
        flips.append([(j, -2 * a) for j, a in nonzeros])
        unflips.append([(j, 2 * a) for j, a in nonzeros])
    if covered != (1 << n) - 1:
        return 0

    zero_count = sums.count(0)
    prod = math.prod(s for s in sums if s)  # product of the nonzero sums
    total = prod if zero_count == 0 else 0
    for k in range(1, 1 << (n - 1)):
        i = (k & -k).bit_length()           # Gray code flips s_i
        step = flips[i]
        flips[i] = unflips[i]
        unflips[i] = step
        for j, c in step:
            old = sums[j]
            new = old + c
            sums[j] = new
            if old == 0:
                zero_count -= 1
            else:
                prod //= old
            if new == 0:
                zero_count += 1
            else:
                prod *= new
        if zero_count == 0:
            total += -prod if k & 1 else prod
    scale <<= n - 1
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
