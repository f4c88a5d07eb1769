"""Property tests: the pairing-augmented engine behind `moments` and the
classification transfer behind `derive` count the same cycle covers, and the
compiled pairing transfers match exhaustive enumeration."""
import pytest

from circperm.algebra import eval_recurrence
from circperm.circulant import jump_residues, parse_spec
from circperm.errors import CollisionError
from circperm.extensions import hamiltonian_derive, moments_derive
from circperm.oracle import brute_hamiltonian, enumerate_stats
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
    # the n the fit read: 2 * dim terms, plus the six spare ones it once had
    for n in range(mom.n0, mom.n0 + 2 * mom.state_count + 6):
        if n < base or spec.size(n) <= 0:
            continue
        try:
            jump_residues(spec, n)
        except CollisionError:
            continue
        assert eval_recurrence(mom.recurrences[0], n) == res.raw_term(n), (jumps, n)
        checked += 1
    assert checked


# raw constant jump sets from [-3, 3] of width <= 3 with a jump >= 0
narrow_jump_sets = st.lists(st.integers(-3, 3), min_size=1, max_size=4,
                            unique=True).filter(
    lambda js: max(js) - min(js) <= 3 and max(js) >= 0).map(sorted)


def _enumerable_sizes(spec, n0, n_max=10):
    for n in range(n0, n_max + 1):
        if spec.size(n) <= 0:
            continue
        try:
            jump_residues(spec, n)
        except CollisionError:
            continue
        yield n


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(narrow_jump_sets)
@hypothesis.example([0])
@hypothesis.example([-3, -1, 0])
def test_pairing_transfers_match_enumeration(jumps):
    spec = parse_spec(",".join(map(str, jumps)))
    ham = hamiltonian_derive(spec)
    mom = moments_derive(spec, 2)
    assert ham.n0 == mom.n0
    checked = 0
    for n in _enumerable_sizes(spec, ham.n0):
        got = eval_recurrence(ham.recurrence, n)
        assert got == brute_hamiltonian(spec, n), (jumps, n)
        sums = enumerate_stats(spec, n, 2).moment_sums
        got = [eval_recurrence(mom.recurrences[i], n) for i in range(3)]
        assert got == list(sums), (jumps, n)
        checked += 1
    assert checked
