"""Brute-force ground truth: permanents and exhaustive cover enumeration.

Two independent oracles (a dynamic programme over column sets vs
backtracking over cycle covers) validate each other and everything derived
by the transfer pipeline.  Both use only the matrix's sparsity, never the
lattice or transfer code they check, so a mistake there cannot repeat in
them.  Budget caps are enforced here; exceeding one raises SizeCapError
rather than truncating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .budget import Budget
from .circulant import CirculantSpec, jump_residues
from .errors import SizeCapError


def ryser_permanent(matrix: Sequence[Sequence], max_dim: Optional[int] = 24):
    """Exact permanent by a row-by-row dynamic programme over column sets.

    Rows are taken in order of their first nonzero column.  A state is the
    set of columns used so far that a later row can still use, mapped to
    the sum of the products of the partial assignments that reach it.  A
    column leaves the state after the last row with a nonzero in it, and a
    state that has not used it by then is dropped, so a row's step costs
    (states) x (nonzeros in the row).  On a circulant with jumps in a window
    of width w only the wrapped rows keep columns open across the matrix,
    and the states stay in the hundreds at the dimension cap.  On a dense
    matrix nothing closes until the last rows and the state count reaches
    C(n, n/2): an all-ones 20x20 takes 5-6 s and 62 MiB (Python 3.11, a
    2-CPU container), where Glynn's 2^(n-1) sign-vector sum, the oracle
    before this one, took 2 s and 16 MiB.  No caller builds such a matrix:
    the oracle gets circulant adjacencies.

    Entries may be ints or Fractions.  Each row is scaled by the lcm D_r of
    its denominators, so the sums run on ints, and prod D_r is divided out
    once at the end: an int when integral, else a Fraction.

    The name, the `max_dim` cap and its message ("Ryser dimension N exceeds
    cap M") are kept from the Ryser formula this replaced: the bench tracer
    wraps `ryser_permanent` where `pipeline` calls it (and where `transfer`
    still imports it, unused), and the CLI prints the message as it stands.
    """
    n = len(matrix)
    if max_dim is not None and n > max_dim:
        raise SizeCapError(f"Ryser dimension {n} exceeds cap {max_dim}")
    scale = 1
    rows = []                 # rows[i]: (column bit, scaled entry) nonzeros
    for row in matrix:
        d = math.lcm(*(v.denominator for v in row))
        scale *= d
        nonzeros = [(1 << j, v.numerator * (d // v.denominator))
                    for j, v in enumerate(row) if v]
        if not nonzeros:
            return 0
        rows.append(nonzeros)
    rows.sort(key=lambda nonzeros: nonzeros[0][0])
    closing = [0] * n         # closing[i]: columns with no nonzero after row i
    covered = 0
    for i in range(n - 1, -1, -1):
        for bit, _ in rows[i]:
            if not covered & bit:
                covered |= bit
                closing[i] |= bit
    if covered != (1 << n) - 1:
        return 0

    states = {0: 1}
    for nonzeros, done in zip(rows, closing):
        step: dict[int, int] = {}
        for used, value in states.items():
            for bit, a in nonzeros:
                if not used & bit:
                    key = used | bit
                    if key & done == done:
                        key ^= done
                        step[key] = step.get(key, 0) + value * a
        states = step
    total = states.get(0, 0)
    return total // scale if total % scale == 0 else Fraction(total, scale)


@dataclass(frozen=True)
class CoverStats:
    """Exhaustive cycle-cover statistics: moment_sums[i] = sum over covers of
    (number of cycles)^i;  moment_sums[0] is the cover count."""

    count: int
    moment_sums: tuple[int, ...]
    hamiltonian_count: int


def enumerate_stats(spec: CirculantSpec, n: int, i_max: int = 0,
                    budget: Budget = Budget()) -> CoverStats:
    """Backtracking enumeration of all cycle covers of C at index n.

    Rows are assigned in order.  A column whose last candidate row is the
    current one must be taken by it when still free, so a branch that
    strands a column dies at that row instead of at the leaf.  The cycle
    count is kept as the covers grow: the assigned edges form disjoint
    paths, `first[end]` and `last[start]` link each path's endpoints, and an
    edge row -> col either closes the path that runs from col to row (one
    more cycle) or joins two paths, in O(1) either way.

    This shares no code with the transfer census (`transfer.census`) or
    the pairing transfer (`extensions`): the oracle checks those pipelines,
    so it must not inherit their mistakes.
    """
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
    due = [0] * size          # due[row]: columns with no candidate row after it
    for col in range(size):
        due[max((col - r) % size for r in residues)] |= 1 << col

    first = list(range(size))  # first[v]: start of the path that ends at v
    last = list(range(size))   # last[v]: end of the path that starts at v
    moment_sums = [0] * (i_max + 1)
    ham = 0

    def rec(row: int, used: int, cycles: int):
        nonlocal ham
        if row == size:
            for t in range(i_max + 1):
                moment_sums[t] += cycles ** t
            if cycles == 1:
                ham += 1
            return
        forced = due[row] & ~used
        if forced & (forced - 1):
            return            # two stranded columns, one row
        cols = [forced.bit_length() - 1] if forced else targets[row]
        start = first[row]
        for col in cols:
            bit = 1 << col
            if used & bit:
                continue
            if start == col:
                rec(row + 1, used | bit, cycles + 1)
            else:
                end = last[col]
                last[start] = end
                first[end] = start
                rec(row + 1, used | bit, cycles)
                last[start] = row
                first[end] = col

    rec(0, 0, 0)
    return CoverStats(moment_sums[0], tuple(moment_sums), ham)


def brute_hamiltonian(spec: CirculantSpec, n: int,
                      budget: Budget = Budget()) -> int:
    """Number of single-orbit cycle covers (Hamiltonian cycles)."""
    return enumerate_stats(spec, n, 0, budget).hamiltonian_count
