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
stored.  T0 is a census of the legal covers of L_{n0} per class, and
A-bar is checked against a second census at n0+1: applied, as sparse rows,
to each left mask's slice of T0 it must give that census.  The census
never lists covers: it is a transfer of its own inside the lattice, a
dynamic programme over the tails whose state is the covered heads a later
tail can still reach plus the two masks, so its cost follows its states,
not its covers.  A-bar itself is block diagonal in the zero-count groups
B_i, which is both the degree-bound argument and the work-saver: each left
mask's slice of T0 only ever meets its own B_i.  `sequence` makes
derive's terms from that: it steps each group's slices deg chi_i times,
chi_i = char(B_i) as the annihilator stage checked it, and runs the
group's share of the terms forward by chi_i.  `iterate` (sparse pull rows,
a start vector and output vectors in, one term list per output out) is the
stepping loop of the pairing transfers of `extensions`.

Rational weights never reach an inner loop: `build_transfer_system`
scales them once, by the lcm L of their denominators, and builds the whole
system on the ints L w_i.  A cycle cover of an N x N matrix has N edges, so
perm(L M) = L^N perm(M), and `sequence` divides each term once:
T(n) = T_L(n) / L^size(n), an int when the quotient is integral, else a
Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count, product
from operator import add, mul
from typing import Optional, Sequence

from .algebra import Massey, Polynomial
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
    """Concrete L(n), R(n) in slot order: slot i is row i // bar_s, at
    offset i % bar_s from the row's left end in L and from its right end
    in R (the g^L / g^R index maps)."""
    slots = [divmod(i, dec.bar_s) for i in range(dec.slot_width)]
    return slots, [(u, row_last(dec.spec, n, u) - j) for u, j in slots]


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
    scale: int                        # L: dec.spec's weights are L w_i

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


def _exact(t: int, den: int):
    """t / den, an int when integral, else a Fraction."""
    return t // den if t % den == 0 else Fraction(t, den)


def census(dec: Decomposition, n: int) -> list:
    """(Weighted) count of legal covers of L_n per class, in canonical
    order, by a dynamic programme over the tails.

    Tails are taken in column order, the lattice vertices sorted by (v, u),
    so every lattice edge stays within a bounded column window, linear rows
    included.  A state is (the covered heads that a later tail can still
    reach, the left mask, the right mask), mapped to the weighted count of
    the partial covers that reach it.  A tail takes one of its out-edges
    into an uncovered head, or, in the right window only, none, which is
    its right bit.  A head retires after its last tail: uncovered outside
    the left window, the state dies; covered inside it, its left bit is set.

    The counts are plain sums of products of the weights, exact for any
    weights; `build_transfer_system` hands it int weights, so that the
    sums run on ints.
    """
    spec, w = dec.spec, dec.slot_width
    left, right = window_vertices(dec, n)
    verts = sorted(lattice_vertices(spec, n), key=lambda v: (v[1], v[0]))
    nv = len(verts)
    at = {v: i for i, v in enumerate(verts)}
    # key bits: covered heads by vertex index, then left, then right slots
    lbit = {at[v]: 1 << nv + i for i, v in enumerate(left)}
    rbit = {at[v]: 1 << nv + w + i for i, v in enumerate(right)}
    counts = [0] * (1 << 2 * w)
    out: list[list] = [[] for _ in verts]
    last = [-1] * nv                 # last[h]: the last tail into head h
    for tail, head, idx in sorted(lattice_edges(spec, n)):
        t, h = at[tail], at[head]
        out[t].append((1 << h, spec.weight(idx)))
        last[h] = max(last[h], t)
    done = [0] * nv                  # heads retiring after tail t
    must = [0] * nv                  # ... of which outside the left window
    lefts: list[list] = [[] for _ in verts]  # ... inside it, with left bits
    for h in range(nv):
        if last[h] < 0:
            if h not in lbit:
                return counts        # a head no edge reaches: no cover
            continue
        done[last[h]] |= 1 << h
        if h in lbit:
            lefts[last[h]].append((1 << h, lbit[h]))
        else:
            must[last[h]] |= 1 << h

    states = {0: 1}
    for t in range(nv):
        d, m, ls, rb = done[t], must[t], lefts[t], rbit.get(t, 0)
        moves = [(hb, hb | rb, wt) for hb, wt in out[t]]
        step: dict[int, int] = {}
        for key, val in states.items():
            nexts = [(key | add, val * wt) for hb, add, wt in moves
                     if not key & hb]
            if rb:
                nexts.append((key, val))
            for nk, v in nexts:
                if nk & m != m:
                    continue
                for hb, lb in ls:
                    if nk & hb:
                        nk |= lb
                nk &= ~d
                step[nk] = step.get(nk, 0) + v
        states = step

    right_at = _positions(right_order(w))
    for key, val in states.items():
        lmask, rmask = key >> nv & (1 << w) - 1, key >> nv + w
        counts[(lmask << w) + right_at[rmask]] = val
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
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in a_bar]
    for pos, want in enumerate(census(dec, n)):
        lo, i = pos - pos % nr, pos % nr
        got = sum(v * t0[lo + j] for j, v in rows[i])
        if got != want:
            left, right = pos // nr, right_order(w)[i]
            bits = "|".join("".join(str(m >> k & 1) for k in range(w))
                            for m in (left, right))
            raise BlockStructureError(
                f"A-bar applied to T0 gives {got} covers of class {bits}, "
                f"but L_{n} of {dec.spec.describe()} has {want}")


def build_transfer_system(dec: Decomposition) -> TransferSystem:
    """A-bar, its blocks, beta and T0, checked against the census at n0+1,
    on the ints L w_i, L the lcm of the weights' denominators (`scale`):
    the system counts T_L(n) = L^size(n) T(n)."""
    scale = 1
    weights = dec.spec.weights
    if weights is not None:
        scale = math.lcm(*(v.denominator for v in weights))
        dec = replace(dec, spec=replace(dec.spec, weights=tuple(
            v.numerator * (scale // v.denominator) for v in weights)))
    a_bar, blocks = build_alpha(dec)
    beta = build_beta(dec)
    t0 = build_initial(dec)
    verify_against_census(dec, a_bar, t0)
    return TransferSystem(dec, a_bar, blocks, beta, t0, scale)


def _pulls(rows: list[list[tuple[int, object]]]) -> list[tuple]:
    """Sparse pull rows of (col, val) pairs as (cols, vals), vals None for
    a row of int ones, which sums its columns with no multiplication."""
    return [([j for j, _ in row],
             None if all(type(v) is int and v == 1 for _, v in row)
             else [v for _, v in row]) for row in rows]


def _step(pulls: list[tuple], vec: list) -> list:
    """The vector the pull rows make from `vec`."""
    get = vec.__getitem__
    return [sum(map(get, cols)) if vals is None
            else sum(map(mul, vals, map(get, cols))) for cols, vals in pulls]


def _enough(fit: Massey, bound: int) -> bool:
    """Whether the terms `fit` reads are the bound + r that `min_recurrence`
    needs, r their order so far by Berlekamp-Massey mod a prime, or show an
    order above the bound, which `min_recurrence` refuses.  For a prime
    that divides no term's denominator r is at most the true order, and
    once bound + r terms are read it no longer changes (its residual
    vanishes on bound consecutive indices)."""
    return len(fit.terms) >= bound + fit.read().order or fit.order > bound


def iterate(rows: list[list[tuple[int, object]]], start: list,
            outputs: list[list], bound: int) -> list[list]:
    """The pairing engines' stepping loop: for each output vector o, the
    terms o . v_k for k = 0, 1, ..., where v_0 = `start` and v_{k+1}[i] is
    the sum of val * v_k[col] over the sparse pull row `rows[i]` of (col,
    val) pairs.

    `bound` is a proven bound on the order of every output's sequence, and
    the loop stops once every output has `_enough` terms."""
    outs = [[(j, o) for j, o in enumerate(out) if o] for out in outputs]
    pulls = _pulls(rows)
    terms: list[list] = [[] for _ in outs]
    fits = [Massey(ts) for ts in terms]
    vec = start
    while True:
        for out, ts in zip(outs, terms):
            ts.append(sum(o * vec[j] for j, o in out))
        if all(_enough(fit, bound) for fit in fits):
            return terms
        vec = _step(pulls, vec)


def sequence(system: TransferSystem, bound: int,
             chis: Sequence[Polynomial]) -> list:
    """Exact T(n) for n = n0, n0 + 1, ..., until there are the `_enough`
    terms that `min_recurrence` needs for a sequence of order <= `bound`:
    each zero-count group is stepped deg chi_i times, then run forward by
    its own chi_i, the characteristic polynomial of B_i (`chis`, in block
    order, as `annihilator_from_blocks` hands them on).

    Each left mask's slice of T0 is supported on the zero-count group
    matching its own popcount i, so only B_i ever acts on it, and T(n0 + k)
    is the sum over the groups of the shares s_i(k) = sum_l beta_l . B_i^k
    t_l over the nonzero slices t_l of group i.  As chi_i(B_i) = 0, s_i obeys
    the recurrence chi_i, so its first deg chi_i values, from stepping the
    group's slices, give all the rest.  The system is on ints, so the shares
    run forward on ints, groups with equal chi_i as one, and term k is
    their sum divided once by L^size(n0 + k), L the system's `scale`.
    """
    w = system.w
    nr = 1 << w
    groups: dict[int, list[tuple[list, list]]] = {}
    for left in range(nr):
        pc = left.bit_count()
        lo, size = _group_span(w, pc)
        seg = system.t0[left * nr:(left + 1) * nr]
        if any(seg[:lo]) or any(seg[lo + size:]):
            raise BlockStructureError(
                "T0 has support outside its zero-count group")
        # a zero slice stays zero under every B_i
        if any(seg[lo:lo + size]):
            start = left * nr + lo
            groups.setdefault(pc, []).append(
                (seg[lo:lo + size], system.beta[start:start + size]))
    shares: dict[tuple, list[int]] = {}
    for pc, slices in groups.items():
        chi = chis[pc].coeffs[:-1]
        if any(c.denominator != 1 for c in chi):
            raise InconsistencyError(
                f"chi_{pc} of the block is not an integer polynomial")
        # the group's slices side by side, stepped by B_i
        size = len(slices[0][0])
        pulls = _pulls([[(off + j, v) for j, v in enumerate(row) if v]
                        for off in range(0, size * len(slices), size)
                        for row in system.blocks[pc]])
        vec = [v for seg, _ in slices for v in seg]
        out = [(j, v) for j, v in
               enumerate(v for _, beta in slices for v in beta) if v]
        vals = [sum(o * vec[j] for j, o in out)]
        while len(vals) < len(chi):
            vec = _step(pulls, vec)
            vals.append(sum(o * vec[j] for j, o in out))
        key = tuple(map(int, chi))
        if key in shares:
            vals = list(map(add, shares[key], vals))
        shares[key] = vals
    terms: list = []
    fit = Massey(terms)
    scale, spec = system.scale, system.dec.spec
    for k in count():
        t = 0
        for chi, vals in shares.items():
            if k == len(vals):
                vals.append(-sum(map(mul, chi, vals[k - len(chi):])))
            t += vals[k]
        if scale != 1:
            # before Massey reads it: T_L vanishes mod a prime that divides L
            t = _exact(t, scale ** spec.size(system.n0 + k))
        terms.append(t)
        if _enough(fit, bound):
            return terms
