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
lexicographic order of the worked example; `right_order` sorts once per
width.

The full transfer matrix A is diag(A-bar, ..., A-bar) with one copy per left
mask, because extension never touches the left window, so only A-bar is
stored.  Everything the system is built from counts one kind of object,
a weighted matching of tails into heads per class, and `_matchings` is
the one dynamic programme that counts it, over four edge sets: the
lattice edges of L_{n0} (T0) and of L_{n0+1} (the census that A-bar is
checked against), the Hook edges (beta) and the New edges (A-bar), with
one retire table per tail for the left bits of its retiring heads.  The
check pushes T0's nonzero entries through the sparse columns of A-bar and
compares the result with the census on the union of the two supports.
Nothing here calls the oracles that `verify` checks the terms against.
A-bar itself is block diagonal in the zero-count groups B_i, which is
both the degree-bound argument and the work-saver: each left mask's slice
of T0 only ever meets its own B_i.  `sequence` makes derive's terms from
that: it steps each group's slices deg chi_i times, chi_i = char(B_i) as
the annihilator stage checked it, and runs the group's share of the terms
forward by chi_i, to the 2 * bound terms the fit is handed.  `iterate`
(pull rows, a start vector and output vectors in, one term list per output
out) is the pairing engines' stepping loop, the only one that stops on
Berlekamp-Massey.  Both step through `_powers`, on `pull_rows`.

Rational weights never reach an inner loop: `build_transfer_system`
scales them once, by the lcm L of their denominators, and builds the whole
system on the ints L w_i.  A cycle cover of an N x N matrix has N edges, so
perm(L M) = L^N perm(M), and `sequence` returns the integer terms
T_L(n) = L^size(n) T(n); `pipeline.derive` divides L out of the recurrence
fitted to them, once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import compress, islice
from operator import add, mul, sub
from time import perf_counter
from typing import Iterable, Sequence

from .algebra import Massey
from .errors import BlockStructureError, InconsistencyError
from .lattice import (Decomposition, Vertex, lattice_edges, lattice_vertices,
                      row_last)
from .oracle import ryser_permanent  # unused: bench/tracing.py wraps this name


def right_order(w: int) -> list[int]:
    """The 2^w right masks in canonical order: by popcount, then by slot
    tuple read from slot 0.  A fresh list each call; the sort runs once per
    width."""
    return list(_right_order(w))


@cache
def _right_order(w: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << w), key=lambda m: (
        m.bit_count(), [m >> i & 1 for i in range(w)])))


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


@dataclass
class TransferSystem:
    dec: Decomposition
    a_bar: list[list]                 # dense, [new right pos][old right pos]
    blocks: list[list[list]]          # zero-count blocks, popcount ascending
    beta: list                        # length 4^w, canonical order
    t0: list                          # length 4^w, canonical order
    scale: int                        # L: dec.spec's weights are L w_i
    timings: dict[str, float]         # wall time of alpha, beta, t0, check

    @property
    def w(self) -> int:
        return self.dec.slot_width

    @property
    def n0(self) -> int:
        return self.dec.n0


def _matchings(width: int, out: list[list], rbits: list[int],
               lbits: list[int]) -> dict[tuple[int, int], object]:
    """Weighted count of the matchings of tails into heads, per (left mask,
    right mask): tail t = 0, 1, ... in turn takes at most one of its edges
    out[t] = [(head, weight)] into a head that no earlier tail took.

    A tail that takes an edge sets its right bit rbits[t]; one whose rbits
    entry is 0 must take one.  A taken head h sets its left bit lbits[h]
    (below 1 << width); one whose lbits entry is 0 must be taken.  A state
    is (the taken heads a later tail can still reach, the left mask, the
    right mask), mapped to the weighted count of the partial matchings that
    reach it, so the cost follows the states, not the matchings.  A head
    retires after its last tail, setting its left bit or, untaken with none,
    killing the state.  The left bits of the heads that retire at a tail
    come from that tail's retire table, keyed by the subset of them that
    was taken (at most 2^k entries for k such heads), so each move is a
    few mask operations and one lookup, tested in place.
    """
    nh, nt = len(lbits), len(out)
    last = [-1] * nh                 # last[h]: the last tail into head h
    for t, edges in enumerate(out):
        for h, _ in edges:
            last[h] = t
    done = [0] * nt                  # heads retiring after tail t
    must = [0] * nt                  # ... of which must be taken
    # ... the others' retire table: taken subset -> OR of its left bits
    lifts: list[dict] = [{0: 0} for _ in out]
    for h in range(nh):
        if last[h] < 0:
            if not lbits[h]:
                return {}
            continue
        done[last[h]] |= 1 << h
        if lbits[h]:
            lift, hb, lb = lifts[last[h]], 1 << h, lbits[h] << nh
            lift.update([(k | hb, v | lb) for k, v in lift.items()])
        else:
            must[last[h]] |= 1 << h

    # key bits: taken heads by index, then left bits, then right bits
    states = {0: 1}
    for t in range(nt):
        keep, m, rb = ~done[t], must[t], rbits[t] << nh + width
        lift, ret = lifts[t], done[t] & ~m
        moves = [(1 << h, 1 << h | rb, wt) for h, wt in out[t]]
        step: dict[int, object] = {}
        get = step.get
        for key, val in states.items():
            for hb, bits, wt in moves:
                if not key & hb:
                    nk = key | bits
                    if nk & m == m:
                        nk = (nk | lift[nk & ret]) & keep
                        step[nk] = get(nk, 0) + val * wt
            if rb and key & m == m:
                nk = (key | lift[key & ret]) & keep
                step[nk] = get(nk, 0) + val
        states = step
    full = (1 << width) - 1
    return {(key >> nh & full, key >> nh + width): val
            for key, val in states.items()}


def build_alpha(dec: Decomposition) -> tuple[list[list], list[list[list]]]:
    """A-bar (dense, right-mask positions) plus its zero-count blocks B_i.

    An extension is a matching of the New edges: the tails are the w right
    slots, then the p new vertices, which are also the heads and must all
    be taken.  New vertex u takes at most one edge, its slot (u, 0) bit,
    or with bar_s = 0 (no slots) exactly one.  Each matching, listed once
    as the right bits `took` it sets, is applied to every right mask r:
    slot (u, bar_s-1) retires and must reach out-degree 1, every other slot
    moves one bit up within its row, and new vertex u enters at (u, 0).
    The popcount never changes, so A-bar is block diagonal in the
    zero-count groups; an entry that would cross them raises
    BlockStructureError.
    """
    w, p, bs = dec.slot_width, dec.spec.size_coeff, dec.bar_s
    out: list[list] = [[] for _ in range(w + p)]
    for e in dec.new:
        t = w + e.tail.row if e.tail.anchor == "N" else slot(dec, e.tail)
        out[t].append((e.head.row, dec.spec.weight(e.jump_index)))
    if {e.head.row for e in dec.new} != set(range(p)):
        raise InconsistencyError("some new vertex has no incoming New edge")
    rbits = [1 << t for t in range(w + p)] if bs else [0] * p
    full = (1 << w) - 1
    retiring = sum(1 << u * bs + bs - 1 for u in range(p)) if bs else 0
    rights = right_order(w)
    pos = _positions(rights)
    a_bar = [[0] * len(rights) for _ in rights]
    for (_, took), wt in _matchings(0, out, rbits, [0] * p).items():
        took_r = took & full
        born = sum((took >> w + u & 1) << u * bs for u in range(p))
        for r in rights:
            grown = r | took_r
            if r & took_r or grown & retiring != retiring:
                continue
            new = (grown & ~retiring) << 1 | born
            if new.bit_count() != r.bit_count():
                raise BlockStructureError(f"A-bar entry ({pos[new]},{pos[r]})"
                                          " crosses zero-count groups")
            a_bar[pos[new]][pos[r]] += wt
    blocks = []
    for pc in range(w + 1):
        lo, size = _group_span(w, pc)
        blocks.append([row[lo:lo + size] for row in a_bar[lo:lo + size]])
    return a_bar, blocks


def build_beta(dec: Decomposition) -> list:
    """beta[X] = (weighted) number of Hook subsets completing X.

    A completion matches the zero slots of X's right window, one Hook edge
    each, onto the zero slots of its left window, so beta[X] is the sum
    over those matchings of the products of their summed Hook weights:
    `_matchings` of the right slots into the left slots, X's masks the
    complements of the slots matched.  Only the nonzero entries are
    visited; the rest of the dense list stays 0.
    """
    w = dec.slot_width
    hooks: list[dict[int, object]] = [{} for _ in range(w)]
    for e in dec.hook:
        heads, a = hooks[slot(dec, e.tail)], slot(dec, e.head)
        heads[a] = heads.get(a, 0) + dec.spec.weight(e.jump_index)
    out = [[(a, wt) for a, wt in heads.items() if wt] for heads in hooks]
    bits, full = [1 << i for i in range(w)], (1 << w) - 1
    right_at = _positions(right_order(w))
    beta = [0] * (1 << 2 * w)
    for (left, right), val in _matchings(w, out, bits, bits).items():
        beta[(full & ~left) << w | right_at[full & ~right]] = val
    return beta


def census(dec: Decomposition, n: int) -> list:
    """(Weighted) count of legal covers of L_n per class, in canonical
    order: `_matchings` of the lattice edges, every vertex a tail and a
    head, free only in the right window (as a tail) and the left (as a head).

    Tails are taken in column order, the lattice vertices sorted by (v, u),
    so every lattice edge stays within a bounded column window, linear rows
    included, and with it the heads a later tail can still reach.

    The counts are plain sums of products of the weights, exact for any
    weights; `build_transfer_system` hands it int weights, so that the
    sums run on ints.
    """
    spec, w = dec.spec, dec.slot_width
    left, right = window_vertices(dec, n)
    verts = sorted(lattice_vertices(spec, n), key=lambda v: (v[1], v[0]))
    at = {v: i for i, v in enumerate(verts)}
    out: list[list] = [[] for _ in verts]
    for tail, head, idx in sorted(lattice_edges(spec, n)):
        out[at[tail]].append((at[head], spec.weight(idx)))
    lbits, rbits = [0] * len(verts), [0] * len(verts)
    for i, (lv, rv) in enumerate(zip(left, right)):
        lbits[at[lv]], rbits[at[rv]] = 1 << i, 1 << i
    right_at = _positions(right_order(w))
    counts = [0] * (1 << 2 * w)
    for (lmask, rmask), val in _matchings(w, out, rbits, lbits).items():
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
    slot bits.

    Only the support is visited: T0's nonzero entries are pushed through
    the sparse columns of A-bar, and the result is compared with the census
    on the union of both supports, in ascending position, so the first
    mismatch is the one a walk over all 4^w positions would meet first.
    Elsewhere both sides are 0.
    """
    w = dec.slot_width
    n, nr = dec.n0 + 1, 1 << w
    cols: list[list] = [[] for _ in range(nr)]
    for i, row in enumerate(a_bar):
        for j in compress(range(nr), row):
            cols[j].append((i, row[j]))
    got: dict[int, object] = {}
    for pos in compress(range(len(t0)), t0):
        lo, t = pos - pos % nr, t0[pos]
        for i, v in cols[pos % nr]:
            got[lo + i] = got.get(lo + i, 0) + v * t
    want = census(dec, n)
    for pos in sorted(got.keys() | set(compress(range(len(want)), want))):
        have = got.get(pos, 0)
        if have != want[pos]:
            left, right = pos // nr, right_order(w)[pos % nr]
            bits = "|".join("".join(str(m >> k & 1) for k in range(w))
                            for m in (left, right))
            raise BlockStructureError(
                f"A-bar applied to T0 gives {have} covers of class {bits}, "
                f"but L_{n} of {dec.spec.describe()} has {want[pos]}")


def build_transfer_system(dec: Decomposition) -> TransferSystem:
    """A-bar, its blocks, beta and T0, checked against the census at n0+1,
    on the ints L w_i, L the lcm of the weights' denominators (`scale`):
    the system counts T_L(n) = L^size(n) T(n).  The wall time of each of
    the four parts goes to the system's `timings`."""
    scale = 1
    weights = dec.spec.weights
    if weights is not None:
        scale = math.lcm(*(v.denominator for v in weights))
        dec = replace(dec, spec=replace(dec.spec, weights=tuple(
            v.numerator * (scale // v.denominator) for v in weights)))
    marks = [perf_counter()]
    a_bar, blocks = build_alpha(dec)
    marks.append(perf_counter())
    beta = build_beta(dec)
    marks.append(perf_counter())
    t0 = build_initial(dec)
    marks.append(perf_counter())
    verify_against_census(dec, a_bar, t0)
    marks.append(perf_counter())
    timings = dict(zip(("alpha", "beta", "t0", "check"),
                       map(sub, marks[1:], marks)))
    return TransferSystem(dec, a_bar, blocks, beta, t0, scale, timings)


def pull_rows(entries: Iterable[tuple[int, int, object]],
              size: int) -> list[tuple]:
    """The sparse pull rows of the `size` x `size` matrix with the (row,
    col, value) `entries`, repeats summed: (cols, vals) per row, its nonzero
    entries, vals None for a row of ones, which sums its columns."""
    rows: list[dict[int, object]] = [{} for _ in range(size)]
    for i, j, v in entries:
        if v:
            rows[i][j] = rows[i].get(j, 0) + v
    return [(list(row), None if all(v == 1 for v in row.values())
             else list(row.values())) for row in rows]


def _powers(pulls: list[tuple], vec: list):
    """vec, A vec, A^2 vec, ... for the matrix A whose pull rows are
    `pulls`, each power made only when it is asked for."""
    while True:
        yield vec
        get = vec.__getitem__
        vec = [sum(map(get, cols)) if vals is None
               else sum(map(mul, vals, map(get, cols))) for cols, vals in pulls]


def _enough(fit: Massey, bound: int) -> bool:
    """Whether the integer terms `fit` reads are the bound + r that
    `min_recurrence` needs, r their order so far by Berlekamp-Massey mod a
    prime, or show an order above the bound, which `min_recurrence`
    refuses.  r is at most the true order, and once bound + r terms are
    read it no longer changes (its residual vanishes on bound consecutive
    indices)."""
    return len(fit.terms) >= bound + fit.read().order or fit.order > bound


def iterate(pulls: list[tuple], start: list, outputs: list[list],
            bound: int) -> list[list]:
    """The pairing engines' stepping loop: for each output vector o, the
    terms o . A^k start for k = 0, 1, ..., A the matrix with pull rows
    `pulls`, until every output has `_enough` terms for its order r <=
    `bound`, a proven bound: bound + r, which for a small r is well short
    of the 2 bound terms that `derive` makes."""
    outs = [[(j, o) for j, o in enumerate(out) if o] for out in outputs]
    terms: list[list] = [[] for _ in outs]
    fits = [Massey(ts) for ts in terms]
    for vec in _powers(pulls, start):
        for out, ts in zip(outs, terms):
            ts.append(sum(o * vec[j] for j, o in out))
        if all(_enough(fit, bound) for fit in fits):
            return terms


def sequence(system: TransferSystem, bound: int,
             chis: Sequence[Sequence[int]]) -> list:
    """The integer terms T_L(n) = L^size(n) T(n) of the system, L its
    `scale`, for the 2 * `bound` sizes n = n0, n0 + 1, ...: at least the
    bound + r that `min_recurrence` needs for an order r <= `bound`, with
    no Berlekamp-Massey run to say where to stop.  Each zero-count group is
    stepped deg chi_i times, then run forward by its own chi_i, the
    characteristic polynomial of the integer block B_i (`chis`: ascending
    int coefficient lists in block order, as `annihilator_from_blocks`
    hands them on).

    Each left mask's slice of T0 is supported on the zero-count group
    matching its own popcount i, so only B_i ever acts on it, and T(n0 + k)
    is the sum over the groups of the shares s_i(k) = sum_l beta_l . B_i^k
    t_l over the nonzero slices t_l of group i.  As chi_i(B_i) = 0, s_i obeys
    the recurrence chi_i, so its first deg chi_i values, from stepping the
    group's slices, give all the rest.  The system is on ints, so the shares
    run forward on ints, groups with equal chi_i as one, and term k is
    their sum.
    """
    w = system.w
    nr = 1 << w
    starts: dict[int, list[int]] = {}   # per popcount, its nonzero slices
    for left in range(nr):
        lo, size = _group_span(w, left.bit_count())
        seg = system.t0[left * nr:(left + 1) * nr]
        if any(seg[:lo]) or any(seg[lo + size:]):
            raise BlockStructureError(
                "T0 has support outside its zero-count group")
        if any(seg):            # a zero slice stays zero under every B_i
            starts.setdefault(left.bit_count(), []).append(left * nr + lo)
    shares: dict[tuple, list[int]] = {}
    for pc, group in starts.items():
        chi, block = tuple(chis[pc][:-1]), system.blocks[pc]
        size = len(block)
        rows = pull_rows(((i, j, v) for i, row in enumerate(block)
                          for j, v in enumerate(row)), size)
        # the group's slices side by side, stepped by B_i
        pulls = [([off + j for j in cols], vals)
                 for off in range(0, size * len(group), size)
                 for cols, vals in rows]
        start = [v for s in group for v in system.t0[s:s + size]]
        out = [(j, v) for j, v in enumerate(
            v for s in group for v in system.beta[s:s + size]) if v]
        vals = [sum(o * vec[j] for j, o in out)
                for vec in islice(_powers(pulls, start), len(chi))]
        shares[chi] = list(map(add, shares.get(chi, [0] * len(chi)), vals))
    terms = [0] * (2 * bound)
    for chi, vals in shares.items():
        for k in range(len(vals), len(terms)):
            vals.append(-sum(map(mul, chi, vals[k - len(chi):])))
        terms = list(map(add, terms, vals))
    return terms
