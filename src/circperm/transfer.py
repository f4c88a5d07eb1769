"""Assembly and iteration of the transfer system (A-bar, B_i, beta, T0).

A legal cover of the lattice L_n is classified by two w-bit masks: the
in-degree bits of the left window and the out-degree bits of the right
window, slot i of either (row i//bar_s, in-row offset i%bar_s) at bit i.
Extending by a New-edge subset and completing by a Hook-edge subset depend
only on this pair, which is what makes the transfer matrix finite.

The canonical position of a class is left * 2^w + the right mask's index in
`right_order(w)`.  Left masks stand in integer order, which is the order of
their slot tuples read from slot w-1.  Right masks are grouped by popcount,
and within a group ordered by their slot tuples read from slot 0, so the
popcount-k group spans C(w, k) positions.  For w = 2 this is the plain 4-bit
lexicographic order of the worked example.

The full transfer matrix A is diag(A-bar, ..., A-bar) with one copy per left
mask, because extension never touches the left window, so only A-bar is
stored.  T0 is a census of the legal covers of L_{n0}, bucketed by class,
and A-bar is checked against a second census at n0+1: applied to each left
mask's slice of T0 it must give that census.  A-bar itself is block
diagonal in the zero-count groups B_i, which is both the degree-bound
argument and the work-saver: each left mask's slice of T0 only ever meets
its own B_i.  `iterate` is the package's one stepping loop (sparse pull
rows, a start vector and output vectors in, one term list per output out);
`sequence` and the pairing transfers of `extensions` both feed it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Hashable, Iterator, Optional, Sequence

from .algebra import Massey
from .errors import BlockStructureError, InconsistencyError
from .lattice import (Decomposition, SymEdge, Vertex, lattice_edges,
                      lattice_vertices, row_last)
from .oracle import ryser_permanent


def right_order(w: int) -> list[int]:
    """The 2^w right masks in canonical order: by popcount, then by slot
    tuple read from slot 0."""
    return sorted(range(1 << w),
                  key=lambda m: (m.bit_count(), [m >> i & 1 for i in range(w)]))


def _positions(rights: list[int]) -> list[int]:
    """Index of each right mask in `rights`."""
    pos = [0] * len(rights)
    for i, m in enumerate(rights):
        pos[m] = i
    return pos


def _group_span(w: int, popcount: int) -> tuple[int, int]:
    """(start, size) of the right positions whose masks have `popcount` ones."""
    return sum(math.comb(w, k) for k in range(popcount)), math.comb(w, popcount)


def slot(dec: Decomposition, sym) -> int:
    """Window slot of a boundary vertex, left or right: row * bar_s + offset."""
    return sym.row * dec.bar_s + sym.offset


def window_vertices(dec: Decomposition, n: int) -> tuple[list[Vertex], list[Vertex]]:
    """Concrete L(n), R(n) in slot order."""
    spec = dec.spec
    left = [(s.row, s.offset) for s in dec.boundaries.left]
    right = [(s.row, row_last(spec, n, s.row) - s.offset)
             for s in dec.boundaries.right]
    return left, right


def extend_right(dec: Decomposition, right: int,
                 s_new: Sequence[SymEdge]) -> Optional[int]:
    """Right mask after growing n by one and adding the New-edge subset
    s_new (one edge into each new vertex); None when illegal.

    The window shifts: slot (u, bar_s-1) retires and must reach out-degree 1,
    every other slot (u, j) of row u becomes (u, j+1), one bit up within
    the row, and the new vertex of row u enters at slot (u, 0) with
    whatever out-degree the NV->NV edges of s_new gave it.
    """
    p, bs = dec.spec.size_coeff, dec.bar_s
    nv_out = [0] * p
    for e in s_new:
        t = e.tail
        if t.anchor == "R":
            bit = 1 << slot(dec, t)
            if right & bit:
                return None
            right |= bit
        else:  # "N"
            nv_out[t.row] += 1
    if bs == 0:
        return 0 if all(d == 1 for d in nv_out) else None
    if max(nv_out) > 1:
        return None
    retiring = sum(1 << (u * bs + bs - 1) for u in range(p))
    if right & retiring != retiring:
        return None
    return (right & ~retiring) << 1 | sum(d << u * bs for u, d in enumerate(nv_out))


def new_edge_choices(dec: Decomposition) -> list[tuple]:
    """All candidate New-edge subsets: exactly one edge into each new vertex
    (the |S'| lemmas), as tuples in new-vertex row order."""
    by_head: list[list] = [[] for _ in range(dec.spec.size_coeff)]
    for e in sorted(dec.new):
        by_head[e.head.row].append(e)
    if any(not c for c in by_head):
        raise InconsistencyError("some new vertex has no incoming New edge")
    return [tuple(combo) for combo in product(*by_head)]


@dataclass
class TransferSystem:
    dec: Decomposition
    a_bar: list[list]                 # dense, [new right pos][old right pos]
    blocks: list[list[list]]          # zero-count blocks, popcount ascending
    beta: list                        # length 4^w, canonical order
    t0: list                          # length 4^w, canonical order

    @property
    def w(self) -> int:
        return self.dec.slot_width

    @property
    def n0(self) -> int:
        return self.dec.n0

    @property
    def multiplicity(self) -> int:
        """Copies of A-bar on the diagonal of the full A."""
        return 1 << self.w


def verify_block_structure(rights: list[int], a_bar: list[list]) -> None:
    """Assert that A-bar, indexed by the positions of `rights`, respects the
    zero-count groups, the contiguous spans of popcount 0, 1, ..., w: every
    nonzero entry joins two positions of one span; raises
    BlockStructureError otherwise.  Zero-valued entries (a zero weight, or
    weights that cancel) are absent entries."""
    group = sorted(m.bit_count() for m in rights)
    for i, row in enumerate(a_bar):
        for j, v in enumerate(row):
            if v != 0 and group[i] != group[j]:
                raise BlockStructureError(
                    f"A-bar entry ({i},{j}) crosses zero-count groups")


def build_alpha(dec: Decomposition) -> tuple[list[list], list[list[list]]]:
    """A-bar (dense, right-mask positions) plus its zero-count blocks B_i,
    with the zero-count grouping verified under the canonical order."""
    w = dec.slot_width
    rights = right_order(w)
    pos = _positions(rights)
    a_bar = [[0] * len(rights) for _ in rights]
    choices = new_edge_choices(dec)
    weights = [math.prod(dec.spec.weight(e.jump_index) for e in c)
               for c in choices]
    for c, right in enumerate(rights):
        for combo, wgt in zip(choices, weights):
            new_right = extend_right(dec, right, combo)
            if new_right is not None:
                a_bar[pos[new_right]][c] += wgt
    verify_block_structure(rights, a_bar)
    blocks = []
    for pc in range(w + 1):
        lo, size = _group_span(w, pc)
        blocks.append([row[lo:lo + size] for row in a_bar[lo:lo + size]])
    return a_bar, blocks


def build_beta(dec: Decomposition) -> list:
    """beta[X] = (weighted) number of Hook subsets completing X, computed as
    the permanent of the bipartite matrix over the zero slots."""
    hook_map: dict[tuple[int, int], Fraction | int] = {}
    for e in dec.hook:
        key = (slot(dec, e.tail), slot(dec, e.head))
        hook_map[key] = hook_map.get(key, 0) + dec.spec.weight(e.jump_index)
    w = dec.slot_width
    zeros = [[i for i in range(w) if not m >> i & 1] for m in range(1 << w)]
    rights = right_order(w)
    beta = []
    for lz in zeros:
        for right in rights:
            rz = zeros[right]
            if len(lz) != len(rz):
                beta.append(0)
                continue
            m = [[hook_map.get((b, a), 0) for a in lz] for b in rz]
            beta.append(ryser_permanent(m, max_dim=None))
    return beta


def enumerate_legal_covers(vertices: Sequence[Hashable],
                           edges: Sequence[tuple],
                           in_free: set, out_free: set) -> Iterator[tuple]:
    """All edge subsets that are legal covers: degrees <= 1 everywhere,
    in-degree 1 off `in_free`, out-degree 1 off `out_free`.

    Edges are (tail, head, payload) triples; yields tuples of edges.  The
    census below counts them, and `extensions` seeds its pairing states at
    the base size with them.
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


def _bucketer(w: int, left: list, right: list):
    """cover -> canonical position of its class, for legal covers with
    window vertices `left` and `right` in slot order, read from those
    vertices' degrees alone: a left bit is set by an edge into that vertex,
    a right bit by an edge out of it.  Legality is the enumeration's
    guarantee."""
    lbit = {v: 1 << i for i, v in enumerate(left)}
    rbit = {v: 1 << i for i, v in enumerate(right)}
    right_at = _positions(right_order(w))

    def bucket(cover) -> int:
        lmask = rmask = 0
        for tail, head, _ in cover:
            lmask |= lbit.get(head, 0)
            rmask |= rbit.get(tail, 0)
        return (lmask << w) + right_at[rmask]
    return bucket


def census(dec: Decomposition, n: int) -> list:
    """(Weighted) count of legal covers of L_n per class, in canonical
    order: one enumeration, each cover weighted by the product of its jump
    weights and added to its class's bucket."""
    spec = dec.spec
    left, right = window_vertices(dec, n)
    bucket = _bucketer(dec.slot_width, left, right)
    weight = [spec.weight(i) for i in range(len(spec.jumps))]
    counts = [0] * (1 << 2 * dec.slot_width)
    for cover in enumerate_legal_covers(lattice_vertices(spec, n),
                                        sorted(lattice_edges(spec, n)),
                                        set(left), set(right)):
        counts[bucket(cover)] += math.prod(weight[idx] for _, _, idx in cover)
    return counts


def build_initial(dec: Decomposition) -> list:
    """T0[X] = (weighted) count of legal covers of L_{n0} with class X, by a
    census of those covers."""
    return census(dec, dec.n0)


def verify_against_census(dec: Decomposition, a_bar: list[list],
                          t0: list) -> None:
    """A-bar against direct cover counts: A-bar applied to every left
    mask's slice of T0 must give the census of L_{n0+1}; raises
    BlockStructureError otherwise, naming the class as its left and right
    slot bits.  Only the columns of A-bar that T0 reaches are tested."""
    w = dec.slot_width
    n, nr = dec.n0 + 1, 1 << w
    for pos, want in enumerate(census(dec, n)):
        lo, i = pos - pos % nr, pos % nr
        got = sum(v * x for v, x in zip(a_bar[i], t0[lo:lo + nr]) if v and x)
        if got != want:
            left, right = pos // nr, right_order(w)[i]
            bits = "|".join("".join(str(m >> k & 1) for k in range(w))
                            for m in (left, right))
            raise BlockStructureError(
                f"A-bar applied to T0 gives {got} covers of class {bits}, "
                f"but L_{n} of {dec.spec.describe()} has {want}")


def build_transfer_system(dec: Decomposition) -> TransferSystem:
    a_bar, blocks = build_alpha(dec)
    beta = build_beta(dec)
    t0 = build_initial(dec)
    verify_against_census(dec, a_bar, t0)
    return TransferSystem(dec, a_bar, blocks, beta, t0)


def iterate(rows: list[list[tuple[int, object]]], start: list,
            outputs: list[list], bound: int) -> list[list]:
    """The one transfer stepping loop: for each output vector o, the terms
    o . v_k for k = 0, 1, ..., where v_0 = `start` and v_{k+1}[i] is the sum
    of val * v_k[col] over the sparse pull row `rows[i]` of (col, val) pairs.
    Exact on ints and Fractions alike.

    `bound` is a proven bound on the order of every output's sequence.  The
    loop stops once each output has bound + r terms, r its order so far by
    Berlekamp-Massey mod a prime, which is what `min_recurrence` needs: for
    a prime that divides no term's denominator r is at most the true
    order, and once bound + r terms are read it no longer changes (its
    residual vanishes on bound consecutive indices).  It stops as well on an
    order above the bound, which `min_recurrence` refuses."""
    outs = [[(j, o) for j, o in enumerate(out) if o] for out in outputs]
    # a row of int ones sums its columns, with no multiplication
    pulls = [([j for j, _ in row],
              None if all(type(v) is int and v == 1 for _, v in row)
              else [v for _, v in row]) for row in rows]
    terms: list[list] = [[] for _ in outs]
    fits = [Massey(ts) for ts in terms]
    vec = start
    while True:
        for out, ts in zip(outs, terms):
            ts.append(sum(o * vec[j] for j, o in out))
        if all(len(fit.terms) >= bound + fit.read().order or fit.order > bound
               for fit in fits):
            return terms
        get = vec.__getitem__
        vec = [sum(map(get, cols)) if vals is None
               else sum(map(mul, vals, map(get, cols))) for cols, vals in pulls]


def sequence(system: TransferSystem, bound: int) -> list:
    """Exact T(n) for n = n0, n0 + 1, ..., iterating A-bar on T0 by block,
    until `iterate` has the bound + r terms that `min_recurrence` needs for
    a sequence of order r <= `bound`.

    Each left mask's slice of T0 is supported on the zero-count group
    matching its own popcount, so only that B_i ever acts on it: the nonzero
    slices become one block-diagonal system with beta as its output.
    """
    w = system.w
    nr = 1 << w
    rows: list[list] = []
    start: list = []
    beta: list = []
    for left in range(nr):
        pc = left.bit_count()
        lo, size = _group_span(w, pc)
        seg = system.t0[left * nr:(left + 1) * nr]
        if any(v != 0 for k, v in enumerate(seg) if not lo <= k < lo + size):
            raise BlockStructureError(
                "T0 has support outside its zero-count group")
        # a zero slice stays zero under every B_i
        if any(seg[lo:lo + size]):
            off = len(start)
            rows += [[(off + j, v) for j, v in enumerate(row) if v != 0]
                     for row in system.blocks[pc]]
            start += seg[lo:lo + size]
            beta += system.beta[left * nr + lo:left * nr + lo + size]
    return iterate(rows, start, [beta], bound)[0]
