"""Property tests: an integer sequence of order at most `bound`, given
exactly 2*bound terms, is fitted with a recurrence of at most its planted
order that goes on generating it, and the fit's bit bound on the Hankel
determinants holds."""
from fractions import Fraction

import pytest

from circperm.algebra import _hankel_bits, eval_recurrence, min_recurrence

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


def _det(rows: list[list[int]]) -> Fraction:
    """Exact determinant by elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.integers(0, 5).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.integers(-2 ** 70, 2 ** 70),
                            min_size=2 * size + 1, max_size=2 * size + 1))))
def test_hankel_bits_bound_the_hankel_and_cramer_determinants(case):
    """2^b exceeds |det| of every Hankel matrix (u_(i+j)) of order k <= size
    and of each one with a column swapped for (u_k..u_(2k-1))."""
    size, terms = case
    bits = _hankel_bits(terms, size)
    for k in range(1, size + 1):
        hankel = [terms[i:i + k] for i in range(k)]
        for col in [None, *range(k)]:
            rows = [row[:] for row in hankel]
            if col is not None:
                for i in range(k):
                    rows[i][col] = terms[k + i]
            assert abs(_det(rows)) < 2 ** bits
