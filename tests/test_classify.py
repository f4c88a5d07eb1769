"""Classification layer: ordering, extension, completion, and exhaustive
representative-independence against direct recomputation on concrete covers.

`extend`, `completes`, `enumerate_classifications` and `classify` below
are references that only the tests use; `test_transfer` imports `classify`
from here."""
from itertools import combinations
from typing import Iterable, Optional

import pytest

from circperm.circulant import normalize, parse_spec
from circperm.classify import (ClassOrdering, Classification, extend_right,
                               slot, window_vertices)
from circperm.errors import InconsistencyError
from circperm.lattice import (Decomposition, Edge, SymEdge, decompose,
                              lattice_edges, lattice_vertices)
from circperm.oracle import enumerate_legal_covers
from circperm.transfer import new_edge_choices


def extend(dec: Decomposition, x: Classification,
           s_new: Iterable[SymEdge]) -> Optional[Classification]:
    """Classification of T union s_new for any representative T of x."""
    s_new = tuple(s_new)
    heads = [e.head.row for e in s_new]
    if sorted(heads) != list(range(dec.spec.size_coeff)):
        return None  # every new vertex needs in-degree exactly 1
    right = extend_right(dec, x.right, s_new)
    if right is None:
        return None
    return Classification(x.left, right)


def completes(dec: Decomposition, x: Classification,
              s_hook: Iterable[SymEdge]) -> bool:
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
    return (all(x.right[i] + out_add[i] == 1 for i in range(w))
            and all(x.left[i] + in_add[i] == 1 for i in range(w)))


def enumerate_classifications(dec: Decomposition) -> list[Classification]:
    """All 2^(2w) profiles in the canonical (consistent, zero-count grouped)
    order."""
    return list(ClassOrdering(dec.slot_width).all())


def classify(dec: Decomposition, n: int, edges: Iterable[Edge]) -> Optional[Classification]:
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
    return Classification(tuple(indeg[v] for v in left),
                          tuple(outdeg[v] for v in right))



def _dec(jumps, size=None):
    return decompose(normalize(parse_spec(jumps, size)))


def test_classification_counts():
    assert len(enumerate_classifications(_dec("0,1,2"))) == 16
    dec = _dec("1,1n+1,2n+0", "3n")      # p*bar_s = 3
    assert dec.slot_width == 3
    assert len(enumerate_classifications(dec)) == 64


def test_zero_count_group_sizes():
    spans = ClassOrdering(2).group_spans
    assert [size for _, size in spans] == [1, 2, 1]
    spans = ClassOrdering(3).group_spans
    assert [size for _, size in spans] == [1, 3, 3, 1]


def test_ordering_is_consistent_and_deterministic():
    ordering = ClassOrdering(2)
    seen = [ordering.at(i) for i in range(16)]
    # left tuple changes only every |rights| positions: lexicographic
    # concatenation of a left and a right ordering
    for i, cls in enumerate(seen):
        assert cls.left == ordering.lefts[i // 4]
        assert ordering.position(cls) == i
    assert len({c.key for c in seen}) == 16


def test_key_packing_little_endian():
    c = Classification((1, 0), (0, 1))
    assert c.key == 1 + 8          # left slot 0 -> bit 0, right slot 1 -> bit 3
    assert c.bit_string() == "10|01"


def test_classify_empty_cover_is_illegal():
    dec = _dec("0,1,2")
    assert classify(dec, 5, []) is None       # interior in-degrees are 0


def test_extend_examples():
    dec = _dec("0,1,2")
    jump2 = [e for e in dec.new if e.jump_index == 2]
    assert extend(dec, Classification((0, 0), (0, 0)), jump2) \
        == Classification((0, 0), (0, 0))
    assert extend(dec, Classification((0, 1), (0, 1)), jump2) is None
    assert extend(dec, Classification((0, 0), (0, 0)), []) is None


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
    all_ones = Classification((1, 1), (1, 1))
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
    for cls in enumerate_classifications(dec):
        for r in range(len(hooks) + 1):
            for s in combinations(hooks, r):
                if completes(dec, cls, s):
                    assert cls.left.count(0) == cls.right.count(0)


@pytest.mark.parametrize("jumps,size", [
    ("0,1,2", None), ("1,2", None), ("1,1n+1,2n+0", "3n"),
])
def test_zero_count_conservation(jumps, size):
    dec = _dec(jumps, size)
    for cls in enumerate_classifications(dec):
        for combo in new_edge_choices(dec):
            out = extend(dec, cls, combo)
            if out is not None:
                assert out.right.count(0) == cls.right.count(0)
                assert out.left == cls.left


def _covers_by_class(dec, n):
    spec = dec.spec
    verts = lattice_vertices(spec, n)
    left = {s.eval(spec, n) for s in dec.boundaries.left}
    right = {s.eval(spec, n) for s in dec.boundaries.right}
    edges = sorted(lattice_edges(spec, n))
    grouped = {}
    for cover in enumerate_legal_covers(verts, edges, left, right):
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
    """Every cover with a given classification extends and completes exactly
    as the classification predicts, over several concrete n."""
    dec = _dec(jumps, size)
    spec = dec.spec
    hooks = sorted(dec.hook)
    for n in range(dec.n0, dec.n0 + 3):
        for cls, covers in _covers_by_class(dec, n).items():
            for combo in new_edge_choices(dec):
                predicted = extend(dec, cls, combo)
                concrete = [e.eval(spec, n) for e in combo]
                for cover in covers:
                    direct = classify(dec, n + 1, list(cover) + concrete)
                    assert direct == predicted, (cls, combo, cover)
            for r in range(len(hooks) + 1):
                for s in combinations(hooks, r):
                    predicted = completes(dec, cls, s)
                    concrete = [e.eval(spec, n) for e in s]
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
                concrete = [e.eval(spec, n) for e in combo]
                for cover in covers[:20]:
                    direct = classify(dec, n + 1, list(cover) + concrete)
                    assert direct == predicted
