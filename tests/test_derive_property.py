"""Property tests over generated specs: derive is invariant under shifting
every jump, and its terms, constant or linear in n, weighted or not, are
the Ryser permanents of the matrices; with weights, its annihilator is that
of the rational blocks."""
from fractions import Fraction
from itertools import count

import pytest

from circperm.algebra import annihilator_from_blocks
from circperm.circulant import (adjacency_matrix, jump_residues, normalize,
                                parse_spec)
from circperm.errors import CollisionError
from circperm.lattice import decompose
from circperm.oracle import ryser_permanent
from circperm.pipeline import derive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0", "-3/2", "2/3"]


def _check_annihilator(res):
    """The integer system steps by L^p B_i, L its scale: derive reports the
    annihilator of the blocks B_i themselves."""
    step = res.system.scale ** res.normalized.size_coeff
    blocks = [[[Fraction(v, step) for v in row] for row in b]
              for b in res.system.blocks]
    assert res.annihilator == annihilator_from_blocks(blocks)


@st.composite
def specs(draw):
    """(jumps, weights, shift): a constant jump set of width <= 4, weights
    from _WEIGHTS or none, and a shift c in [-3, 3]."""
    jumps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
    weights = None
    if draw(st.booleans()):
        weights = ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in jumps)
    return sorted(jumps), weights, draw(st.integers(-3, 3))


def _spec(jumps, weights, shift=0):
    return parse_spec(",".join(str(j + shift) for j in jumps), weights=weights)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(([0, 1, 2], "2,0,1", -3))
# a denominator that is the first Massey prime, 2^61 - 1
@hypothesis.example(([0, 1, 2], "1/2305843009213693951,1,1", 1))
@hypothesis.example(([0, 1, 2], "0,1/2,1/2", 2))
def test_derive_is_shift_invariant_and_matches_ryser(case):
    jumps, weights, shift = case
    res = derive(_spec(jumps, weights))
    moved = derive(_spec(jumps, weights, shift))
    assert moved.recurrence == res.recurrence
    assert moved.growth == res.growth
    if weights:
        _check_annihilator(res)
    for n in range(max(res.recurrence.base, 1), 11):
        try:
            jump_residues(moved.spec, n)
        except CollisionError:
            continue
        assert moved.raw_term(n) == ryser_permanent(adjacency_matrix(moved.spec, n))


@st.composite
def linear_specs(draw, weighted=False):
    """(jumps, size, weights): p in {2, 3}, 2-3 distinct jumps a*n+b with
    0 <= a < p, at least one a > 0, and b in [-2, 3], under a size law
    p*n+s with any offset s in [-4, 4]; weights from _WEIGHTS if
    `weighted`, else none."""
    p = draw(st.sampled_from([2, 3]))
    jumps = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(-2, 3)),
                          min_size=2, max_size=3, unique=True)
                 .filter(lambda js: any(a for a, _ in js)))
    text = ",".join(f"{a}n{b:+d}" if a else str(b) for a, b in jumps)
    weights = None
    if weighted:
        weights = ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in jumps)
    return text, f"{p}n{draw(st.integers(-4, 4)):+d}", weights


def _check_linear(spec):
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
    return res


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(linear_specs())
@hypothesis.example(("1,1n+1,2n+0", "3n", None))
def test_linear_derive_matches_ryser(case):
    """Two or three rows move each slot of every row one offset in as n
    grows; the terms check that no row's slots spill into the next."""
    _check_linear(parse_spec(*case))


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(linear_specs(weighted=True))
@hypothesis.example(("0,1n+0,2n-1", "3n", "2,-1,1/2"))
@hypothesis.example(("0,1n+0,1n+2", "2n", "1/2,2/3,-1"))
def test_weighted_linear_derive_matches_ryser(case):
    """Each step of a size law p*n+s adds p edges, so the integer system
    of scale L steps by L^p: the terms and the annihilator check that it
    is unscaled as such."""
    spec = parse_spec(*case)
    res = _check_linear(spec)
    _check_annihilator(res)
