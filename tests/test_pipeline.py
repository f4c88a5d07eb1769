"""End-to-end derivation results and the oracle verification ledger."""
import pytest

from circperm.circulant import adjacency_matrix, parse_spec
from circperm.errors import CollisionError, InconsistencyError
from circperm.oracle import ryser_permanent
from circperm.pipeline import derive, verify
from circperm.report import decimal_str


def test_derive_records_sizes_and_timings(derived):
    res = derived("0,1,2")
    assert res.n0 == 4
    assert res.annihilator.degree == 3
    assert res.system.w == 2
    assert set(res.timings) >= {"decompose", "transfer", "annihilator",
                                "sequence", "recurrence", "growth"}
    # the transfer build's four parts, inside its total
    parts = [res.timings["transfer." + part]
             for part in ("alpha", "beta", "t0", "check")]
    assert all(v >= 0 for v in parts)
    assert sum(parts) <= res.timings["transfer"]


def test_minimal_order_at_most_annihilator_degree(derived):
    for key in [("0,1,2", None), ("0,1n+0,2n-1", "3n"), ("2,1n+1,2n+2", "3n+1")]:
        res = derived(*key)
        assert res.recurrence.order <= res.annihilator.degree


import pytest


@pytest.mark.parametrize("key", [("0,1,2", None), ("0,1n+0,2n-1", "3n"),
                                 ("2,1n+1,2n+2", "3n+1"),
                                 ("0,1,2", None, "1/2,1,3")])
def test_recurrence_agrees_with_sequence_past_fit_window(derived, key):
    res = derived(*key)
    from circperm.algebra import eval_recurrence
    from circperm.transfer import sequence
    far = sequence(res.system, res.n0 + 2 * res.annihilator.degree + 15,
                   res.annihilator.chis)
    # sequence counts on the integer weights L w_i: T_L(n) = L^size(n) T(n)
    size = res.normalized.size
    for n in range(res.n0, res.n0 + len(far)):
        assert (far[n - res.n0]
                == res.system.scale ** size(n) * eval_recurrence(res.recurrence, n))


def test_raw_term_handles_index_shift():
    spec = parse_spec("0,1n+0", "2n+3")
    res = derive(spec)
    assert res.normalized.trace.index_shift == 1
    assert res.raw_n0 == res.n0 - 1
    for n in range(1, 6):
        assert res.raw_term(n) == ryser_permanent(adjacency_matrix(spec, n))


@pytest.mark.parametrize("jumps,size,n,error,message,good", [
    # the recurrence run backward to size 0 gives 3, but there is no matrix
    ("0,1n+0,2n-1", "3n", 0, InconsistencyError, "size 0 is not positive", 2),
    ("0,1n+0,1n+2", "2n", 0, InconsistencyError, "size 0 is not positive", 3),
    ("3,1n-1,1n+0", "2n", 0, InconsistencyError, "size 0 is not positive", 2),
    ("0,1,1n+0", "2n", 0, InconsistencyError, "size 0 is not positive", 2),
    # jumps 3, n-1, n collide mod 2n at n = 3 and 4, past the base n = 2
    ("3,1n-1,1n+0", "2n", 3, CollisionError, "residue 3 duplicated", 5),
    ("0,1n+0,1n+2", "2n", 2, CollisionError, "residue 0 duplicated", 3),
])
def test_raw_term_refuses_an_index_with_no_matrix(derived, jumps, size, n,
                                                  error, message, good):
    res = derived(jumps, size)
    with pytest.raises(error, match=message):
        res.raw_term(n)
    spec = parse_spec(jumps, size)
    assert res.raw_term(good) == ryser_permanent(adjacency_matrix(spec, good))


def test_verify_ledger_contents(derived):
    entries = verify(derived("0,1,2"), 12)
    assert all(e.ok for e in entries)
    real = [e for e in entries if e.recurrence_value is not None]
    assert [e.n for e in real] == list(range(4, 13))
    assert all(e.recurrence_value == e.ryser_value == e.enumeration_value
               for e in real)


def test_verify_skips_degenerate_sizes(derived):
    # {1,2,3} at n=3 collides mod 3; the ledger records the skip
    entries = verify(derived("1,2,3"), 10)
    assert all(e.ok for e in entries)
    assert all(e.n >= 4 for e in entries if e.recurrence_value is not None)


def test_verify_below_the_base_names_the_first_index(derived):
    # n0 of {0,1,5} is 10; sizes up to 9 are far below any oracle cap
    with pytest.raises(InconsistencyError,
                       match="up to n=9: the first verifiable index is n=10"):
        verify(derived("0,1,5"), 9)



def test_wide_derive_of_0_1_8(derived):
    # the annihilator (degree 255) overshoots the minimal order 223; the
    # growth search finds the one root it reports in chi of degree 223
    res = derived("0,1,8")
    assert res.recurrence.order == 223
    assert res.annihilator.degree == 255
    assert decimal_str(res.growth.dominant_root) == "1.3920674885"
    entries = verify(res, 24)
    assert [e.n for e in entries] == list(range(16, 25))
    assert all(e.ok and e.recurrence_value == e.ryser_value for e in entries)
    assert [e.n for e in entries if e.enumeration_value is not None] == list(range(16, 21))


def test_wide_linear_derive_of_3_1n_minus_1_1n(derived):
    # w = 8: a linear spec as wide as {0,1,8}, its annihilator (degree 255)
    # again above the minimal order
    res = derived("3,1n-1,1n+0", "2n")
    assert res.system.w == 8
    assert res.recurrence.order == 247
    assert res.annihilator.degree == 255
    assert decimal_str(res.growth.dominant_root) == "1.9341392966"
    spec = parse_spec("3,1n-1,1n+0", "2n")
    for n in range(res.n0, res.n0 + 5):
        assert res.raw_term(n) == ryser_permanent(adjacency_matrix(spec, n)), n
