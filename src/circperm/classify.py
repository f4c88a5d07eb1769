"""Legal-cover classifications and their transfer actions.

A legal cover of the lattice L_n is classified by the in-degree bits of the
left window and the out-degree bits of the right window (slot i of either
tuple is row i//bar_s, in-row offset i%bar_s).  Extending by a New-edge
subset and completing by a Hook-edge subset depend only on this profile,
which is what makes the transfer matrix finite.

The canonical ordering is the lexicographic concatenation of a left and a
right ordering (so the full transfer matrix is block diagonal with one copy
of A-bar per left tuple), with the right tuples further grouped by zero
count (so A-bar itself splits into the B_i blocks).  For bar_s = 2 this
reproduces the plain 4-bit lexicographic ordering.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .lattice import Decomposition, SymEdge, Vertex, row_last

Bits = tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    left: Bits    # in-degree bits over L(n) slots
    right: Bits   # out-degree bits over R(n) slots

    @property
    def key(self) -> int:
        """Packed little-endian: left slot i at bit i, right at bit w+i."""
        w = len(self.left)
        k = 0
        for i, b in enumerate(self.left):
            k |= b << i
        for i, b in enumerate(self.right):
            k |= b << (w + i)
        return k

    def bit_string(self) -> str:
        return "".join(map(str, self.left)) + "|" + "".join(map(str, self.right))


class ClassOrdering:
    """Positions of all 2^(2w) classifications under the canonical order."""

    def __init__(self, w: int):
        self.w = w
        # Left tuples sort by reversed-lex: slot w-1 is the most significant,
        # matching the worked example's enumeration of the left segments.
        self.lefts: list[Bits] = sorted(product((0, 1), repeat=w),
                                        key=lambda t: tuple(reversed(t)))
        self.rights: list[Bits] = sorted(product((0, 1), repeat=w),
                                         key=lambda r: (sum(r), r))
        self.left_pos = {t: i for i, t in enumerate(self.lefts)}
        self.right_pos = {t: i for i, t in enumerate(self.rights)}
        # contiguous spans of right tuples sharing a popcount (zero-count groups)
        self.group_spans: list[tuple[int, int]] = []
        start = 0
        for pc in range(w + 1):
            size = sum(1 for t in self.rights if sum(t) == pc)
            self.group_spans.append((start, size))
            start += size

    @property
    def num_rights(self) -> int:
        return 1 << self.w

    def position(self, cls: Classification) -> int:
        return self.left_pos[cls.left] * self.num_rights + self.right_pos[cls.right]

    def at(self, pos: int) -> Classification:
        return Classification(self.lefts[pos // self.num_rights],
                              self.rights[pos % self.num_rights])

    def all(self) -> Iterable[Classification]:
        for left in self.lefts:
            for right in self.rights:
                yield Classification(left, right)


def slot(dec: Decomposition, sym) -> int:
    """Window slot of a boundary vertex, left or right: row * bar_s + offset."""
    return sym.row * dec.bar_s + sym.offset


def extend_right(dec: Decomposition, right: Bits,
                 s_new: Sequence[SymEdge]) -> Optional[Bits]:
    """Right tuple after growing n by one and adding the New-edge subset
    s_new (one edge into each new vertex); None when illegal.

    The window shifts: slot (u, bar_s-1) retires and must reach out-degree 1,
    the new vertex of row u enters at slot (u, 0) with whatever out-degree
    the NV->NV edges of s_new gave it.
    """
    p, bs, w = dec.spec.size_coeff, dec.bar_s, dec.slot_width
    add = [0] * w
    nv_out = [0] * p
    for e in s_new:
        t = e.tail
        if t.anchor == "R":
            add[slot(dec, t)] += 1
        else:  # "N"
            nv_out[t.row] += 1
    new_right = [0] * w
    for u in range(p):
        base = u * bs
        for j in range(bs):
            d = right[base + j] + add[base + j]
            if d > 1:
                return None
            if j == bs - 1:
                if d != 1:
                    return None
            else:
                new_right[base + j + 1] = d
        if bs > 0:
            if nv_out[u] > 1:
                return None
            new_right[base] = nv_out[u]
        elif nv_out[u] != 1:
            return None
    return tuple(new_right)


def window_vertices(dec: Decomposition, n: int) -> tuple[list[Vertex], list[Vertex]]:
    """Concrete L(n), R(n) in slot order."""
    spec = dec.spec
    left = [(s.row, s.offset) for s in dec.boundaries.left]
    right = [(s.row, row_last(spec, n, s.row) - s.offset)
             for s in dec.boundaries.right]
    return left, right
