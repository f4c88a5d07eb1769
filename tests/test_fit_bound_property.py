"""Property test: an integer sequence of order at most `bound`, given exactly
2*bound terms, is fitted with a recurrence of at most its planted order
that goes on generating it."""
import pytest

from circperm.algebra import eval_recurrence, min_recurrence

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_coeff = st.integers(-3, 3)
_initial = st.integers(-20, 20)


@st.composite
def planted(draw):
    """(terms, order, bound): 4*bound terms of a planted integer
    recurrence of order <= bound, run forward from integer initials.
    Order 0 gives the all-zero sequence."""
    bound = draw(st.integers(1, 8))
    order = draw(st.integers(0, bound))
    coeffs = draw(st.lists(_coeff, min_size=order, max_size=order))
    terms = draw(st.lists(_initial, min_size=order, max_size=order))
    while len(terms) < 4 * bound:
        terms.append(sum(c * terms[-l] for l, c in enumerate(coeffs, 1)))
    return terms, order, bound


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(planted())
def test_fit_on_twice_the_bound_generates_the_next_terms(case):
    terms, order, bound = case
    rec = min_recurrence(terms[:2 * bound], 3, bound)
    assert rec.order <= max(order, 1)
    assert [eval_recurrence(rec, 3 + i) for i in range(4 * bound)] == terms
