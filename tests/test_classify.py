"""Classes of legal covers: the canonical orders, extension, completion,
and exhaustive representative-independence against direct recomputation on
concrete covers.

A class is a (left mask, right mask) pair, slot i at bit i.  `extend_right`,
`new_edge_choices`, `extend`, `completes`, `enumerate_classifications`,
`classify` and `cover_census` below are references that only the tests
use; `test_transfer`, `test_census_property` and `test_alpha_property`
import them from here.  The first two apply one New-edge subset at a time,
independently of the matching programme that `transfer.build_alpha` and
`transfer.census` share."""
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

import pytest

from circperm.circulant import normalize, parse_spec
from circperm.errors import InconsistencyError
from circperm.lattice import (Decomposition, Edge, SymEdge, decompose,
                              lattice_edges, lattice_vertices)
from circperm.transfer import _group_span, right_order, slot, window_vertices
from covers import enumerate_legal_covers
from test_lattice import concrete_edge

Class = tuple[int, int]


def position(w: int, cls: Class) -> int:
    """Canonical position of a class: left mask * 2^w + right mask's index."""
    return (cls[0] << w) + right_order(w).index(cls[1])


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


def extend(dec: Decomposition, x: Class,
           s_new: Iterable[SymEdge]) -> Optional[Class]:
    """Class of T union s_new for any representative T of x."""
    s_new = tuple(s_new)
    heads = [e.head.row for e in s_new]
    if sorted(heads) != list(range(dec.spec.size_coeff)):
        return None  # every new vertex needs in-degree exactly 1
    right = extend_right(dec, x[1], s_new)
    if right is None:
        return None
    return (x[0], right)


def completes(dec: Decomposition, x: Class, s_hook: Iterable[SymEdge]) -> bool:
    """True iff adding s_hook turns a representative of x into a cycle cover:
    every left in-bit and right out-bit reaches exactly 1."""
    w = dec.slot_width
    in_add = [0] * w
    out_add = [0] * w
    for e in s_hook:
        if e.tail.anchor != "R" or e.head.anchor != "L":
            raise InconsistencyError("completes() expects R->L hook edges")
        out_add[slot(dec, e.tail)] += 1
        in_add[slot(dec, e.head)] += 1
    left, right = x
    return (all((right >> i & 1) + out_add[i] == 1 for i in range(w))
            and all((left >> i & 1) + in_add[i] == 1 for i in range(w)))


def enumerate_classifications(dec: Decomposition) -> list[Class]:
    """All 2^(2w) classes in the canonical (zero-count grouped) order."""
    w = dec.slot_width
    return [(left, right) for left in range(1 << w) for right in right_order(w)]


def classify(dec: Decomposition, n: int, edges: Iterable[Edge]) -> Optional[Class]:
    """Classify a concrete edge subset of L_n, or None when not a legal cover.

    Direct recomputation from the degrees: tests validate extend(),
    completes() and the transfer census's bucketing with it.
    """
    if n < dec.n0:
        raise InconsistencyError(f"classify needs n >= n0 = {dec.n0}")
    spec = dec.spec
    verts = lattice_vertices(spec, n)
    indeg = {v: 0 for v in verts}
    outdeg = {v: 0 for v in verts}
    for tail, head, _ in edges:
        outdeg[tail] += 1
        indeg[head] += 1
    if any(d > 1 for d in indeg.values()) or any(d > 1 for d in outdeg.values()):
        return None
    left, right = window_vertices(dec, n)
    lset, rset = set(left), set(right)
    for v in verts:
        if v not in lset and indeg[v] != 1:
            return None
        if v not in rset and outdeg[v] != 1:
            return None
    return (sum(indeg[v] << i for i, v in enumerate(left)),
            sum(outdeg[v] << i for i, v in enumerate(right)))


def cover_census(dec: Decomposition, n: int) -> list:
    """Reference for `transfer.census`: every legal cover of L_n, listed
    one by one, weighted by the product of its jump weights and added to
    the bucket of its class as `classify` finds it."""
    spec, w = dec.spec, dec.slot_width
    left, right = window_vertices(dec, n)
    counts = [0] * (1 << 2 * w)
    for cover in enumerate_legal_covers(
            lattice_vertices(spec, n), sorted(lattice_edges(spec, n)),
            set(left), set(right)):
        weight = 1
        for _, _, idx in cover:
            weight *= spec.weight(idx)
        counts[position(w, classify(dec, n, cover))] += weight
    return counts


def _dec(jumps, size=None):
    return decompose(normalize(parse_spec(jumps, size)))


def test_classification_counts():
    assert len(enumerate_classifications(_dec("0,1,2"))) == 16
    dec = _dec("1,1n+1,2n+0", "3n")      # p*bar_s = 3
    assert dec.slot_width == 3
    assert len(enumerate_classifications(dec)) == 64


def test_zero_count_group_sizes():
    assert [_group_span(2, k)[1] for k in range(3)] == [1, 2, 1]
    assert [_group_span(3, k)[1] for k in range(4)] == [1, 3, 3, 1]
    for w in range(5):
        rights = right_order(w)
        for k in range(w + 1):
            lo, size = _group_span(w, k)
            assert [m.bit_count() for m in rights[lo:lo + size]] == [k] * size


def test_ordering_is_consistent_and_deterministic():
    seen = enumerate_classifications(_dec("0,1,2"))
    assert seen == enumerate_classifications(_dec("0,1,2"))
    # the left mask changes only every 2^w positions: lexicographic
    # concatenation of the left order (the masks) and the right order
    for i, cls in enumerate(seen):
        assert cls[0] == i // 4
        assert position(2, cls) == i
    assert len(set(seen)) == 16


def test_key_packing_little_endian():
    """An edge into left slot 0 and one out of right slot 1 give left mask
    0b01 and right mask 0b10, which sits at right position 1."""
    dec = _dec("0,1,2")
    # L_4: left slots 0, 1 are (0,0), (0,1); right slots 0, 1 are (0,3), (0,2)
    cover = [((0, 0), (0, 0), 0), ((0, 1), (0, 2), 1), ((0, 2), (0, 3), 1)]
    assert classify(dec, 4, cover) == (0b01, 0b10)
    assert position(2, (0b01, 0b10)) == 5


@pytest.mark.parametrize("w", range(5))
def test_canonical_orders_pin(w):
    """Right masks follow their slot tuples sorted by (ones, tuple); left
    masks follow their slot tuples sorted by the reversed tuple, which is
    plain integer order."""
    tuples = list(product((0, 1), repeat=w))

    def mask(t):
        return sum(b << i for i, b in enumerate(t))
    assert right_order(w) == [mask(t) for t in sorted(tuples, key=lambda r: (sum(r), r))]
    assert [mask(t) for t in sorted(tuples, key=lambda t: t[::-1])] == list(range(2 ** w))


def test_classify_empty_cover_is_illegal():
    dec = _dec("0,1,2")
    assert classify(dec, 5, []) is None       # interior in-degrees are 0


def test_extend_examples():
    dec = _dec("0,1,2")
    jump2 = [e for e in dec.new if e.jump_index == 2]
    assert extend(dec, (0b00, 0b00), jump2) == (0b00, 0b00)
    assert extend(dec, (0b10, 0b10), jump2) is None
    assert extend(dec, (0b00, 0b00), []) is None


def test_extend_rejects_multi_edge_subsets_constant_case():
    dec = _dec("0,1,2")
    edges = sorted(dec.new)
    for pair in combinations(edges, 2):
        for cls in enumerate_classifications(dec):
            assert extend(dec, cls, pair) is None


def test_new_edge_choice_sizes():
    assert all(len(c) == 1 for c in new_edge_choices(_dec("0,1,2")))
    dec = _dec("2,1n+1,2n+2", "3n+1")
    assert all(len(c) == dec.spec.size_coeff for c in new_edge_choices(dec))


def test_completes_trivial_and_support_count():
    dec = _dec("0,1,2")
    all_ones = (0b11, 0b11)
    assert completes(dec, all_ones, [])
    hooks = sorted(dec.hook)
    supported = 0
    for cls in enumerate_classifications(dec):
        if any(completes(dec, cls, s) for r in range(len(hooks) + 1)
               for s in combinations(hooks, r)):
            supported += 1
    assert supported == 5


def test_completion_needs_balanced_zero_counts():
    dec = _dec("0,1,2")
    hooks = sorted(dec.hook)
    for left, right in enumerate_classifications(dec):
        for r in range(len(hooks) + 1):
            for s in combinations(hooks, r):
                if completes(dec, (left, right), s):
                    assert left.bit_count() == right.bit_count()


@pytest.mark.parametrize("jumps,size", [
    ("0,1,2", None), ("1,2", None), ("1,1n+1,2n+0", "3n"),
])
def test_zero_count_conservation(jumps, size):
    dec = _dec(jumps, size)
    for cls in enumerate_classifications(dec):
        for combo in new_edge_choices(dec):
            out = extend(dec, cls, combo)
            if out is not None:
                assert out[1].bit_count() == cls[1].bit_count()
                assert out[0] == cls[0]


def _covers_by_class(dec, n):
    spec = dec.spec
    verts = lattice_vertices(spec, n)
    left, right = window_vertices(dec, n)
    edges = sorted(lattice_edges(spec, n))
    grouped = {}
    for cover in enumerate_legal_covers(verts, edges, set(left), set(right)):
        cls = classify(dec, n, cover)
        assert cls is not None
        grouped.setdefault(cls, []).append(cover)
    return grouped


def _is_cycle_cover(spec, n, edges):
    indeg = {}
    outdeg = {}
    for t, h, _ in edges:
        outdeg[t] = outdeg.get(t, 0) + 1
        indeg[h] = indeg.get(h, 0) + 1
    verts = lattice_vertices(spec, n)
    return all(indeg.get(v, 0) == 1 and outdeg.get(v, 0) == 1 for v in verts)


@pytest.mark.parametrize("jumps,size", [("0,1,2", None), ("1,2", None)])
def test_representative_independence_exhaustive(jumps, size):
    """Every cover with a given class extends and completes exactly as the
    class predicts, over several concrete n."""
    dec = _dec(jumps, size)
    spec = dec.spec
    hooks = sorted(dec.hook)
    for n in range(dec.n0, dec.n0 + 3):
        for cls, covers in _covers_by_class(dec, n).items():
            for combo in new_edge_choices(dec):
                predicted = extend(dec, cls, combo)
                concrete = [concrete_edge(spec, n, e) for e in combo]
                for cover in covers:
                    direct = classify(dec, n + 1, list(cover) + concrete)
                    assert direct == predicted, (cls, combo, cover)
            for r in range(len(hooks) + 1):
                for s in combinations(hooks, r):
                    predicted = completes(dec, cls, s)
                    concrete = [concrete_edge(spec, n, e) for e in s]
                    for cover in covers:
                        direct = _is_cycle_cover(spec, n, list(cover) + concrete)
                        assert direct == predicted, (cls, s, cover)


def test_representative_independence_linear_spot():
    """Same agreement for a linear spec, extension side, two concrete n."""
    dec = _dec("1,1n+1,2n+0", "3n")
    spec = dec.spec
    for n in (dec.n0, dec.n0 + 1):
        for cls, covers in _covers_by_class(dec, n).items():
            for combo in new_edge_choices(dec):
                predicted = extend(dec, cls, combo)
                concrete = [concrete_edge(spec, n, e) for e in combo]
                for cover in covers[:20]:
                    direct = classify(dec, n + 1, list(cover) + concrete)
                    assert direct == predicted
