"""Property tests over generated specs: the state DP of `transfer.census`
gives, class by class, the weighted count of the legal covers listed one by
one and classified from their degrees (`test_classify.cover_census`), at the
base size n0 and at n0 + 1, where the A-bar check reads it; and the
transfer system built on them is on ints whatever the weights."""
import pytest

from circperm.circulant import normalize, parse_spec
from circperm.corpus import TABLE1
from circperm.lattice import decompose
from circperm.transfer import build_transfer_system, census
from test_classify import cover_census

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0", "-3/2", "2/3"]


@st.composite
def weighted_specs(draw):
    """(jumps, weights): a constant jump set of width <= 4, shifted to
    start anywhere in [-2, 2], with weights from _WEIGHTS or none."""
    offsets = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5,
                            unique=True))
    shift = draw(st.integers(-2, 2))
    jumps = ",".join(str(o + shift) for o in sorted(offsets))
    weights = None
    if draw(st.booleans()):
        weights = ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in offsets)
    return jumps, weights


def _check(jumps, size=None, weights=None):
    dec = decompose(normalize(parse_spec(jumps, size, weights)))
    for n in (dec.n0, dec.n0 + 1):
        assert census(dec, n) == cover_census(dec, n), (jumps, size, weights, n)
    # the system scales the weights to ints, so integer stepping stays on ints
    system = build_transfer_system(dec)
    assert all(type(v) is int for row in system.a_bar for v in row)
    assert all(type(v) is int for v in system.beta + system.t0)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(weighted_specs())
@hypothesis.example(("0,1,4", "1/2,3,-1"))
@hypothesis.example(("0,1,2,3,4", "0,-1,2/3,1,-3/2"))
def test_census_dp_equals_the_cover_enumeration(case):
    jumps, weights = case
    _check(jumps, weights=weights)


@pytest.mark.parametrize("jumps,size", sorted(
    {(row["jumps"], row["size"]) for row in TABLE1 if row["size"]}
    | {("0,1n+0,1n+2", "2n")}))
@pytest.mark.parametrize("weights", [None, "2,-1,1/2"])
def test_census_dp_on_the_linear_rows(jumps, size, weights):
    _check(jumps, size, weights)
