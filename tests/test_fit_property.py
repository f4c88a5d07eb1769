"""Property test: the Berlekamp-Massey fit returns what the order-by-order
Hankel solve it replaced returns, on sequences with a planted recurrence."""
from fractions import Fraction
from typing import Optional

import pytest

from circperm.algebra import Recurrence, min_recurrence
from circperm.errors import NoRecurrenceError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _solve_consistent(rows: list[list[Fraction]], rhs: list[Fraction],
                      unknowns: int) -> Optional[list[Fraction]]:
    """Any exact solution of rows * c = rhs, or None when inconsistent.
    Free variables are set to zero."""
    aug = [row[:] + [r] for row, r in zip(rows, rhs)]
    m = len(aug)
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(unknowns):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][unknowns] != 0:
            return None
    sol = [Fraction(0)] * unknowns
    for row, col in pivots:
        sol[col] = aug[row][unknowns]
    return sol


def hankel_min_recurrence(terms, base: int, degree_cap: int,
                          guard: int = 4) -> Recurrence:
    """Reference fit: for each order 1..cap, solve the Hankel-window system
    over all but the last `guard` terms, then check every term."""
    terms = [Fraction(t) if not isinstance(t, int) else t for t in terms]
    fit_len = len(terms) - guard
    for d in range(1, degree_cap + 1):
        rows = [[Fraction(terms[j - l]) for l in range(1, d + 1)]
                for j in range(d, fit_len)]
        rhs = [Fraction(terms[j]) for j in range(d, fit_len)]
        sol = _solve_consistent(rows, rhs, d)
        if sol is None:
            continue
        if all(sum(c * terms[j - l - 1] for l, c in enumerate(sol)) == terms[j]
               for j in range(d, len(terms))):
            return Recurrence(d, tuple(sol), base, tuple(terms[:d]))
    raise NoRecurrenceError(f"no recurrence of order <= {degree_cap}")


def _outcome(fit, terms, cap):
    try:
        rec = fit(terms, 3, cap)
    except NoRecurrenceError:
        return None
    return (rec.order, rec.coeffs, {type(c) for c in rec.coeffs},
            rec.initials, rec.base)


_coeff = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))
_initial = st.one_of(st.integers(-20, 20),
                     st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def planted(draw):
    """(terms, cap): a planted recurrence of order <= 6, run forward.  Order
    0 gives the all-zero sequence; zero coefficients give a zero tail; an
    optional bump on one term leaves the fit to find something longer or
    refuse.  The cap may fall below the planted order."""
    order = draw(st.integers(0, 6))
    if draw(st.booleans()):
        coeffs = [0] * order
    else:
        coeffs = draw(st.lists(_coeff, min_size=order, max_size=order))
    terms = draw(st.lists(_initial, min_size=order, max_size=order))
    cap = draw(st.integers(1, 8))
    n = 2 * cap + 4 + draw(st.integers(0, 3))
    while len(terms) < n:
        terms.append(sum(c * terms[-l] for l, c in enumerate(coeffs, 1)))
    if draw(st.booleans()):
        terms[draw(st.integers(0, n - 1))] += 1
    return terms, cap


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(planted())
@hypothesis.example(([2, 0, 1, 1] + [0] * 8, 4))   # int / int discrepancies
def test_berlekamp_massey_matches_the_hankel_solve(case):
    terms, cap = case
    assert (_outcome(min_recurrence, terms, cap)
            == _outcome(hankel_min_recurrence, terms, cap))
