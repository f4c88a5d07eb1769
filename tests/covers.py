"""Exhaustive references the tests check src against: every legal cover
of a lattice listed one by one, the pairing engines' seeds folded from
those covers, and a backtracker that visits every cycle cover of a
circulant one at a time.  Nothing under src uses them."""
from typing import Hashable, Iterator, Sequence

from circperm.circulant import CirculantSpec, jump_residues
from circperm.extensions import Pairing, SignedModel, Slot
from circperm.oracle import CoverStats


def backtrack_stats(spec: CirculantSpec, n: int, i_max: int) -> CoverStats:
    """`oracle.enumerate_stats` without its caps, by backtracking over the
    cycle covers of C at index n one at a time.

    Rows are assigned in order.  A column whose last candidate row is the
    current one must be taken by it when still free, so a branch that
    strands a column dies at that row instead of at the leaf.  The cycle
    count is kept as the covers grow: the assigned edges form disjoint
    paths, `first[end]` and `last[start]` link each path's endpoints, and an
    edge row -> col either closes the path that runs from col to row (one
    more cycle) or joins two paths, in O(1) either way.
    """
    size = spec.size(n)
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


def enumerate_legal_covers(vertices: Sequence[Hashable],
                           edges: Sequence[tuple],
                           in_free: set, out_free: set) -> Iterator[tuple]:
    """All edge subsets that are legal covers: degrees <= 1 everywhere,
    in-degree 1 off `in_free`, out-degree 1 off `out_free`.

    Edges are (tail, head, payload) triples; yields tuples of edges.
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


def seed_reference(model: SignedModel,
                   tours: bool = False) -> dict[tuple[Pairing, int], int]:
    """Reference for `SignedModel.seed_counts` with no state cap: every
    legal cover of L_{n0} folded into counts per (pairing, closed-cycle
    count), with the same `tours` filter."""
    counts: dict[tuple[Pairing, int], int] = {}
    for key in base_covers(model):
        pairing, closed = key
        if tours and closed and (closed > 1 or pairing):
            continue
        counts[key] = counts.get(key, 0) + 1
    return counts


def base_covers(model: SignedModel) -> Iterator[tuple[Pairing, int]]:
    """Legal covers of the base lattice as (pairing, closed-cycle count),
    by exhaustive enumeration."""
    n = model.n0
    sp, sm = model.s_plus, model.s_minus
    verts = list(range(n))
    edges = [(i, i + t, t) for i in verts for t in model.jumps
             if 0 <= i + t <= n - 1]
    in_free = ({v for v in verts if v < sp}
               | {v for v in verts if n - 1 - v < sm})
    out_free = ({v for v in verts if v < sm}
                | {v for v in verts if n - 1 - v < sp})
    for cover in enumerate_legal_covers(verts, edges, in_free, out_free):
        nxt = {t: h for t, h, _ in cover}
        indeg = {v: 0 for v in verts}
        for _, h, _ in cover:
            indeg[h] += 1
        closed = 0
        visited = set()
        pairing = set()
        for v in verts:
            if indeg[v] == 0:
                start = v
                w = v
                while w in nxt:
                    visited.add(w)
                    w = nxt[w]
                visited.add(w)
                pairing.add((_start_slot(model, start), _end_slot(model, w)))
        for v in verts:
            if v not in visited:
                closed += 1
                w = v
                while w not in visited:
                    visited.add(w)
                    w = nxt[w]
        yield frozenset(pairing), closed


def _start_slot(model: SignedModel, v: int) -> Slot:
    if v < model.s_plus:
        return ("Lp", v)
    assert model.n0 - 1 - v < model.s_minus, f"in-deficient vertex {v}"
    return ("Rm", model.n0 - 1 - v)


def _end_slot(model: SignedModel, v: int) -> Slot:
    if v < model.s_minus:
        return ("Lm", v)
    assert model.n0 - 1 - v < model.s_plus, f"out-deficient vertex {v}"
    return ("Rp", model.n0 - 1 - v)
