"""Property tests below the transfer base n0: the derived recurrences run
backward from their initials, and `eval` reads no index below n0 from
them, yet the corpus's published initials at n = 2 and 3 (the 3n+1 rows,
n0 = 4) and `moments --ratio-at n` for n < n0 do.  There the recurrence
values must still be the permanents, and the moment ratio the
enumerated TC_1/TC_0."""
from fractions import Fraction

import pytest

from circperm.circulant import (adjacency_matrix, jump_residues, normalize,
                                parse_spec)
from circperm.errors import CollisionError, InconsistencyError
from circperm.extensions import moments_derive, moments_ratio
from circperm.lattice import decompose
from circperm.oracle import enumerate_stats, ryser_permanent
from circperm.pipeline import derive
from test_derive_property import _spec, linear_specs, specs

hypothesis = pytest.importorskip("hypothesis")


def _has_matrix(spec, n) -> bool:
    """Whether index n has a matrix, as `raw_term` and `moments_ratio`
    decide it: a positive size and no colliding jumps."""
    try:
        jump_residues(spec, n)
    except (InconsistencyError, CollisionError):
        return False
    return True


def _refused_backward(exc, *recs):
    """The one refusal accepted below the base: a recurrence of `recs` with
    trailing coefficient 0 cannot run backward."""
    assert "cannot extend backward" in str(exc), exc
    assert any(rec.coeffs[-1] == 0 for rec in recs), exc


def _check_derive(spec):
    res = derive(spec)
    for n in range(1, res.raw_n0):
        if not _has_matrix(spec, n):
            continue
        try:
            value = res.raw_term(n)
        except InconsistencyError as exc:
            _refused_backward(exc, res.recurrence)
            continue
        assert value == ryser_permanent(adjacency_matrix(spec, n)), n


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(([0, 1, 2], None, 0))
@hypothesis.example(([0, 1, 2], "2,1,1", 0))
def test_constant_recurrence_below_the_base_is_ryser(case):
    _check_derive(_spec(*case))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(hypothesis.strategies.one_of(linear_specs(),
                                               linear_specs(weighted=True)))
@hypothesis.example(("1,1n+0,2n+1", "3n+1", None))
@hypothesis.example(("2,1n+1,2n+2", "3n+1", None))
@hypothesis.example(("0,1n+0,2n-1", "3n", "2,-1,1/2"))
def test_linear_recurrence_below_the_base_is_ryser(case):
    spec = parse_spec(*case)
    hypothesis.assume(decompose(normalize(spec)).slot_width <= 4)
    _check_derive(spec)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(([0, 1, 2], None, 0))
@hypothesis.example(([0, 1, 2], None, -1))
def test_moment_ratio_below_the_base_is_enumerated(case):
    jumps, _, shift = case
    hypothesis.assume(max(jumps) + shift >= 0)
    spec = _spec(jumps, None, shift)
    # moments take the jumps as written, so a shift can widen the window
    # (derive's normalization undoes it); wider ones meet the state cap
    hypothesis.assume(decompose(spec).slot_width <= 4)
    res = moments_derive(spec, 1)
    for n in range(1, res.n0):
        if not _has_matrix(spec, n):
            continue
        st = enumerate_stats(spec, n, 1)
        try:
            ratio = moments_ratio(res, n)
        except InconsistencyError as exc:
            if "no cycle covers" in str(exc):
                assert st.count == 0, n
            else:
                _refused_backward(exc, res.recurrences[0], res.recurrences[1])
            continue
        assert st.count and ratio == Fraction(st.moment_sums[1], st.count), n
