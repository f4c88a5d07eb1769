"""Property test: the pairing-augmented engine behind `moments` and the
classification transfer behind `derive` count the same cycle covers."""
import pytest

from circperm.circulant import jump_residues, parse_spec
from circperm.errors import CollisionError
from circperm.extensions import moments_derive
from circperm.pipeline import derive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# raw constant jump sets from [-3, 3] of width <= 4 with a jump >= 0
jump_sets = st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True).filter(
    lambda js: max(js) - min(js) <= 4 and max(js) >= 0).map(sorted)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(jump_sets)
@hypothesis.example([-1, 0, 1])
def test_zeroth_moment_equals_the_derived_permanent(jumps):
    spec = parse_spec(",".join(map(str, jumps)))
    res = derive(spec)
    base = res.recurrence.base - res.normalized.trace.index_shift
    mom = moments_derive(spec, 0)
    checked = 0
    for n, term in enumerate(mom.terms[0], start=mom.n0):
        if n < base or spec.size(n) <= 0:
            continue
        try:
            jump_residues(spec, n)
        except CollisionError:
            continue
        assert term == res.raw_term(n), (jumps, n)
        checked += 1
    assert checked
