"""Brute-force ground truth: permanents and exact cycle-cover statistics.

Two oracles validate each other and everything derived by the transfer
pipeline: a dynamic programme over column sets for the permanent, and one
over (open columns, open-path pairing) states that counts the covers by
their cycles.  Both read only the matrix's sparsity, never the lattice or
transfer code they check, so a mistake there cannot repeat in them.
Budget caps are enforced here; exceeding one raises SizeCapError rather
than truncating.
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
    """Exact cycle-cover statistics: moment_sums[i] = sum over covers of
    (number of cycles)^i;  moment_sums[0] is the cover count."""

    count: int
    moment_sums: tuple[int, ...]
    hamiltonian_count: int


def enumerate_stats(spec: CirculantSpec, n: int, i_max: int = 0,
                    budget: Budget = Budget()) -> CoverStats:
    """Cycle-cover statistics of C at index n, by a DP over its rows.

    Rows are taken in `ryser_permanent`'s order, by their first nonzero
    column.  The edges chosen so far form closed cycles and open paths: a
    path starts at a vertex whose row is taken and whose column is unused,
    and ends at one whose column is used and whose row is not.  A state is
    the set of used columns that a later row can still read, with each open
    path's end paired to its start; it maps to the polynomial sum over the
    partial covers that reach it of x^(closed cycles).  An edge row -> col
    closes the path that runs from col to row (one more cycle: times x) or
    joins the path ending at row to the one starting at col.  A column
    must be used by its last reader row and then leaves the set, so a state
    that strands a column dies at that row.

    Merging partial covers is exact: two with the same state have the same
    completions, and a completion closes the same number of cycles on
    either, since which paths it links into cycles depends on their end
    and start alone.  The row order cannot change a value: a cover is
    reached along one sequence of states (its edges, in row order), and its
    cycle count belongs to the permutation.  The order only sets how many
    states are live: at most 337 on the benchmark's verify rows, but
    141 725 for the spread jumps 6,7,11,14 at size 20, close to their
    179 712 covers.

    A state is one int: the used-column bits, then per vertex a field
    holding 1 + its partner if it ends or starts an open path, else 0 (no
    vertex does both: a start's column is unused, an end's is used).  The polynomial is one int too, the coefficient of
    x^c in bits [c*B, (c+1)*B): none exceeds k^size for k jumps, so none
    carries into the next.

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
    order = sorted(range(size), key=lambda i: min((i + r) % size for r in residues))
    position = [0] * size
    for k, row in enumerate(order):
        position[row] = k
    due = [0] * size          # due[k]: columns with no reader after row order[k]
    for col in range(size):
        due[max(position[(col - r) % size] for r in residues)] |= 1 << col
    width = size.bit_length()
    field = (1 << width) - 1
    at = [size + width * v for v in range(size)]    # offset of v's field
    bits = (len(residues) ** size).bit_length()      # B

    states = {0: 1}
    for row, done in zip(order, due):
        at_row = at[row]
        edges = [(col, 1 << col, at[col])
                 for col in ((row + r) % size for r in residues)]
        step: dict[int, int] = {}
        for key, poly in states.items():
            start = (key >> at_row) & field
            if start:         # row ends the open path start -> row
                start -= 1
                key -= ((start + 1) << at_row) + ((row + 1) << at[start])
            else:
                start = row
            for col, bit, at_col in edges:
                if key & bit:
                    continue
                if col == start:
                    new, value = key | bit, poly << bits
                else:
                    end = (key >> at_col) & field
                    if end:   # col starts the open path col -> end
                        end -= 1  # end's partner goes from col to start
                        new = (key - ((end + 1) << at_col)
                               + ((start - col) << at[end])
                               + ((end + 1) << at[start])) | bit
                    else:     # col starts no path: start -> col
                        new = (key + ((col + 1) << at[start])
                               + ((start + 1) << at_col)) | bit
                    value = poly
                if new & done == done:
                    new ^= done
                    step[new] = step.get(new, 0) + value
        states = step

    poly = states.get(0, 0)
    counts = [(poly >> bits * c) & ((1 << bits) - 1) for c in range(size + 1)]
    moment_sums = tuple(sum(m * c ** t for c, m in enumerate(counts))
                        for t in range(i_max + 1))
    return CoverStats(moment_sums[0], moment_sums, counts[1])


def brute_hamiltonian(spec: CirculantSpec, n: int,
                      budget: Budget = Budget()) -> int:
    """Number of single-orbit cycle covers (Hamiltonian cycles)."""
    return enumerate_stats(spec, n, 0, budget).hamiltonian_count
