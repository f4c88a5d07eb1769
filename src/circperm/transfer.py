"""Assembly and iteration of the transfer system (A-bar, B_i, beta, T0).

The full transfer matrix A is diag(A-bar, ..., A-bar) with one copy per left
tuple, because extension never touches the left window, so only A-bar is
stored.  T0 is a census of the legal covers of L_{n0}, bucketed by
classification, and A-bar is checked against a second census at n0+1:
applied to each left tuple's slice of T0 it must give that census.  A-bar
itself is block diagonal in the zero-count groups B_i, which is both the
degree-bound argument and the work-saver: each left tuple's slice of T0 only
ever meets its own B_i.  `iterate` is the package's one stepping loop (sparse
pull rows, a start vector and output vectors in, one term list per output
out); `sequence` and the pairing transfers of `extensions` both feed it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .classify import ClassOrdering, extend_right, slot, window_vertices
from .errors import BlockStructureError, InconsistencyError
from .lattice import Decomposition, lattice_edges, lattice_vertices
from .oracle import enumerate_legal_covers, ryser_permanent


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
    ordering: ClassOrdering
    a_bar: list[list]                 # dense, [new right pos][old right pos]
    blocks: list[list[list]]          # zero-count blocks, popcount ascending
    beta: list                        # length 4^w, canonical order
    t0: list                          # length 4^w, canonical order
    n0: int

    @property
    def w(self) -> int:
        return self.ordering.w

    @property
    def multiplicity(self) -> int:
        """Copies of A-bar on the diagonal of the full A."""
        return 1 << self.w


def verify_block_structure(ordering: ClassOrdering, a_bar: list[list]) -> None:
    """Assert that A-bar respects the zero-count groups: every nonzero entry
    joins two positions of one span of `ordering.group_spans`; raises
    BlockStructureError otherwise.  Zero-valued entries (a zero weight, or weights that cancel)
    are absent entries."""
    group_of = [g for g, (_, size) in enumerate(ordering.group_spans)
                for _ in range(size)]
    for i, row in enumerate(a_bar):
        for j, v in enumerate(row):
            if v != 0 and group_of[i] != group_of[j]:
                raise BlockStructureError(
                    f"A-bar entry ({i},{j}) crosses zero-count groups")


def build_alpha(dec: Decomposition,
                ordering: Optional[ClassOrdering] = None) -> tuple[list[list], list[list[list]]]:
    """A-bar (dense, right-tuple positions) plus its zero-count blocks B_i,
    with the zero-count grouping verified under the canonical ordering."""
    ordering = ordering or ClassOrdering(dec.slot_width)
    nr = ordering.num_rights
    a_bar = [[0] * nr for _ in range(nr)]
    choices = new_edge_choices(dec)
    weights = [math.prod(dec.spec.weight(e.jump_index) for e in c)
               for c in choices]
    for right in ordering.rights:
        c = ordering.right_pos[right]
        for combo, wgt in zip(choices, weights):
            new_right = extend_right(dec, right, combo)
            if new_right is not None:
                a_bar[ordering.right_pos[new_right]][c] += wgt
    verify_block_structure(ordering, a_bar)
    blocks = [[[a_bar[i][j] for j in range(start, start + size)]
               for i in range(start, start + size)]
              for start, size in ordering.group_spans]
    return a_bar, blocks


def build_beta(dec: Decomposition,
               ordering: Optional[ClassOrdering] = None) -> list:
    """beta[X] = (weighted) number of Hook subsets completing X, computed as
    the permanent of the bipartite matrix over the zero slots."""
    ordering = ordering or ClassOrdering(dec.slot_width)
    hook_map: dict[tuple[int, int], Fraction | int] = {}
    for e in dec.hook:
        key = (slot(dec, e.tail), slot(dec, e.head))
        hook_map[key] = hook_map.get(key, 0) + dec.spec.weight(e.jump_index)
    w = dec.slot_width
    beta = []
    for left in ordering.lefts:
        lz = [i for i in range(w) if left[i] == 0]
        for right in ordering.rights:
            rz = [i for i in range(w) if right[i] == 0]
            if len(lz) != len(rz):
                beta.append(0)
                continue
            m = [[hook_map.get((b, a), 0) for a in lz] for b in rz]
            beta.append(ryser_permanent(m, max_dim=None))
    return beta


def _bucketer(ordering: ClassOrdering, left: list, right: list):
    """cover -> canonical position of its classification, for legal covers
    with window vertices `left` and `right` in slot order, read from those
    vertices' degrees alone: a left bit is set by an edge into that vertex,
    a right bit by an edge out of it.  Legality is the enumeration's
    guarantee, so this is what `classify` gives."""
    lbit = {v: 1 << i for i, v in enumerate(left)}
    rbit = {v: 1 << i for i, v in enumerate(right)}
    nr = ordering.num_rights

    def bits(mask: int) -> tuple:
        return tuple(mask >> i & 1 for i in range(ordering.w))

    left_at = [ordering.left_pos[bits(m)] * nr for m in range(nr)]
    right_at = [ordering.right_pos[bits(m)] for m in range(nr)]

    def bucket(cover) -> int:
        lmask = rmask = 0
        for tail, head, _ in cover:
            lmask |= lbit.get(head, 0)
            rmask |= rbit.get(tail, 0)
        return left_at[lmask] + right_at[rmask]
    return bucket


def census(dec: Decomposition, ordering: ClassOrdering, n: int) -> list:
    """(Weighted) count of legal covers of L_n per classification, in
    canonical order: one enumeration, each cover weighted by the product of
    its jump weights and added to its classification's bucket."""
    spec = dec.spec
    left, right = window_vertices(dec, n)
    bucket = _bucketer(ordering, left, right)
    weight = [spec.weight(i) for i in range(len(spec.jumps))]
    counts = [0] * (len(ordering.lefts) * ordering.num_rights)
    for cover in enumerate_legal_covers(lattice_vertices(spec, n),
                                        sorted(lattice_edges(spec, n)),
                                        set(left), set(right)):
        counts[bucket(cover)] += math.prod(weight[idx] for _, _, idx in cover)
    return counts


def build_initial(dec: Decomposition,
                  ordering: Optional[ClassOrdering] = None) -> list:
    """T0[X] = (weighted) count of legal covers of L_{n0} with classification
    X, by a census of those covers."""
    return census(dec, ordering or ClassOrdering(dec.slot_width), dec.n0)


def verify_against_census(dec: Decomposition, ordering: ClassOrdering,
                          a_bar: list[list], t0: list) -> None:
    """A-bar against direct cover counts: A-bar applied to every left
    tuple's slice of T0 must give the census of L_{n0+1}; raises
    BlockStructureError otherwise.  Only the columns of A-bar that T0
    reaches are tested."""
    n, nr = dec.n0 + 1, ordering.num_rights
    for pos, want in enumerate(census(dec, ordering, n)):
        lo, i = pos - pos % nr, pos % nr
        got = sum(v * x for v, x in zip(a_bar[i], t0[lo:lo + nr]) if v and x)
        if got != want:
            raise BlockStructureError(
                f"A-bar applied to T0 gives {got} covers of class "
                f"{ordering.at(pos).bit_string()}, but L_{n} of "
                f"{dec.spec.describe()} has {want}")


def build_transfer_system(dec: Decomposition) -> TransferSystem:
    ordering = ClassOrdering(dec.slot_width)
    a_bar, blocks = build_alpha(dec, ordering)
    beta = build_beta(dec, ordering)
    t0 = build_initial(dec, ordering)
    verify_against_census(dec, ordering, a_bar, t0)
    return TransferSystem(dec, ordering, a_bar, blocks, beta, t0, dec.n0)


def iterate(rows: list[list[tuple[int, object]]], start: list,
            outputs: list[list], steps: int) -> list[list]:
    """The one transfer stepping loop: for each output vector o, the terms
    o . v_k for k = 0..steps-1, where v_0 = `start` and v_{k+1}[i] is the sum
    of val * v_k[col] over the sparse pull row `rows[i]` of (col, val) pairs.
    Exact on ints and Fractions alike."""
    outs = [[(j, o) for j, o in enumerate(out) if o] for out in outputs]
    terms: list[list] = [[] for _ in outs]
    vec = start
    for k in range(steps):
        if k:
            vec = [sum(val * vec[j] for j, val in row) for row in rows]
        for out, ts in zip(outs, terms):
            ts.append(sum(o * vec[j] for j, o in out))
    return terms


def sequence(system: TransferSystem, n_max: int) -> list:
    """Exact T(n) for n = n0..n_max, iterating A-bar on T0 by block.

    Each left tuple's slice of T0 is supported on the zero-count group
    matching its own popcount, so only that B_i ever acts on it: the nonzero
    slices become one block-diagonal system with beta as its output.
    """
    ordering = system.ordering
    nr = ordering.num_rights
    rows: list[list] = []
    start: list = []
    beta: list = []
    for li, left in enumerate(ordering.lefts):
        pc = sum(left)
        lo, size = ordering.group_spans[pc]
        seg = system.t0[li * nr:(li + 1) * nr]
        if any(v != 0 for k, v in enumerate(seg) if not lo <= k < lo + size):
            raise BlockStructureError(
                "T0 has support outside its zero-count group")
        # a zero slice stays zero under every B_i
        if any(seg[lo:lo + size]):
            off = len(start)
            rows += [[(off + j, v) for j, v in enumerate(row) if v != 0]
                     for row in system.blocks[pc]]
            start += seg[lo:lo + size]
            beta += system.beta[li * nr + lo:li * nr + lo + size]
    return iterate(rows, start, [beta], n_max - system.n0 + 1)[0]
