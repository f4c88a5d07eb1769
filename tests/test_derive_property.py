"""Property tests over generated specs: derive is invariant under shifting
every jump, and its terms, constant or linear in n, are the Ryser
permanents of the matrices."""
from itertools import count

import pytest

from circperm.circulant import (adjacency_matrix, jump_residues, normalize,
                                parse_spec)
from circperm.errors import CollisionError
from circperm.lattice import decompose
from circperm.oracle import ryser_permanent
from circperm.pipeline import derive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0", "-3/2"]


@st.composite
def specs(draw):
    """(jumps, weights, shift): a constant jump set of width <= 3, weights
    from _WEIGHTS or none, and a shift c in [-3, 3]."""
    jumps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    weights = None
    if draw(st.booleans()):
        weights = ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in jumps)
    return sorted(jumps), weights, draw(st.integers(-3, 3))


def _spec(jumps, weights, shift=0):
    return parse_spec(",".join(str(j + shift) for j in jumps), weights=weights)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(([0, 1, 2], "2,0,1", -3))
def test_derive_is_shift_invariant_and_matches_ryser(case):
    jumps, weights, shift = case
    res = derive(_spec(jumps, weights))
    moved = derive(_spec(jumps, weights, shift))
    assert moved.recurrence == res.recurrence
    assert moved.growth == res.growth
    for n in range(max(res.recurrence.base, 1), 11):
        try:
            jump_residues(moved.spec, n)
        except CollisionError:
            continue
        assert moved.raw_term(n) == ryser_permanent(adjacency_matrix(moved.spec, n))


@st.composite
def linear_specs(draw):
    """(jumps, size): p in {2, 3}, 2-3 distinct jumps a*n+b with 0 <= a < p,
    at least one a > 0, and b in [-2, 3], under a size law p*n+s with any
    offset s in [-4, 4]."""
    p = draw(st.sampled_from([2, 3]))
    jumps = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(-2, 3)),
                          min_size=2, max_size=3, unique=True)
                 .filter(lambda js: any(a for a, _ in js)))
    text = ",".join(f"{a}n{b:+d}" if a else str(b) for a, b in jumps)
    return text, f"{p}n{draw(st.integers(-4, 4)):+d}"


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(linear_specs())
@hypothesis.example(("1,1n+1,2n+0", "3n"))
def test_linear_derive_matches_ryser(case):
    """Two or three rows move each slot of every row one offset in as n
    grows; the terms check that no row's slots spill into the next."""
    spec = parse_spec(*case)
    hypothesis.assume(decompose(normalize(spec)).slot_width <= 4)
    res = derive(spec)
    # from n0 on, a size-0 index included: the empty matrix has permanent 1
    n = max(res.n0 - res.normalized.trace.index_shift, 1 if spec.size(0) <= 0 else 0)
    for n in count(n):
        if spec.size(n) > 12:
            break
        try:
            matrix = adjacency_matrix(spec, n)
        except CollisionError:
            continue
        assert res.raw_term(n) == ryser_permanent(matrix), n
