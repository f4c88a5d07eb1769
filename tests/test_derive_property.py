"""Property tests over generated specs: derive is invariant under shifting
every jump, and its terms are the Ryser permanents of the matrices."""
import pytest

from circperm.circulant import adjacency_matrix, jump_residues, parse_spec
from circperm.errors import CollisionError
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
