"""Property tests: the modular fit returns what the order-by-order Hankel
solve and the Berlekamp-Massey pass over the rationals it replaced return,
on sequences with a planted recurrence, and it needs exactly bound + r
terms."""
from fractions import Fraction
from typing import Optional

import pytest

from circperm import algebra
from circperm.algebra import Massey, Recurrence, _prime, min_recurrence
from circperm.errors import InconsistencyError, NoRecurrenceError

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


def fraction_min_recurrence(terms, base: int, bound: int) -> Recurrence:
    """Reference fit: one Berlekamp-Massey pass over the rationals (Massey
    1969) on every term, the shortest recurrence that generates them all.
    On 2*bound terms or more of a sequence of order <= bound, that is the
    sequence's minimal recurrence."""
    terms = [Fraction(t) if not isinstance(t, int) else t for t in terms]
    conn = [Fraction(1)]         # connection polynomial, conn[0] = 1
    prev = [Fraction(1)]         # its value before the last length change
    order, gap, prev_disc = 0, 1, Fraction(1)
    for n, t in enumerate(terms):
        disc = t + sum(conn[i] * terms[n - i]
                       for i in range(1, min(len(conn), order + 1)) if conn[i])
        if disc == 0:
            gap += 1
            continue
        f = Fraction(disc) / prev_disc     # the two may both be ints
        grown = conn + [Fraction(0)] * max(0, len(prev) + gap - len(conn))
        for i, v in enumerate(prev):
            if v:
                grown[i + gap] -= f * v
        if 2 * order <= n:
            prev, prev_disc = conn, disc
            order, gap = n + 1 - order, 1
        else:
            gap += 1
        conn = grown
    conn += [Fraction(0)] * (order + 1 - len(conn))
    coeffs = [-v for v in conn[1:order + 1]]
    if order == 0:
        order, coeffs = 1, [Fraction(0)]
    if order > bound:
        raise NoRecurrenceError(
            f"no recurrence of order <= {bound} fits {len(terms)} terms")
    return Recurrence(order, tuple(coeffs), base, tuple(terms[:order]))


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


# 2^61 - 1 itself: a denominator the first prime divides
P0 = _prime(0)
_big = st.one_of(st.integers(-2 ** 80, 2 ** 80),
                 st.fractions(min_value=-2 ** 40, max_value=2 ** 40,
                              max_denominator=2 ** 40))
_p0_initial = st.builds(lambda a, k: Fraction(a, P0 * k),
                        st.integers(-20, 20), st.integers(1, 3))


@st.composite
def planted_within_bound(draw):
    """(terms, bound): 2*bound terms of a recurrence of order <= bound run
    forward.  Coefficients are small rationals, or large enough that one
    61-bit prime cannot hold them; initials may carry the first prime in
    their denominators; zero coefficients give zero tails."""
    bound = draw(st.integers(1, 8))
    order = draw(st.integers(0, bound))
    kind = draw(st.sampled_from(("small", "zero tail", "large", "p0")))
    coeffs = draw(st.lists(_big if kind == "large" else _coeff,
                           min_size=order, max_size=order))
    if kind == "zero tail":
        coeffs = [0] * order
    initial = _p0_initial if kind == "p0" else _initial
    terms = draw(st.lists(initial, min_size=order, max_size=order))
    while len(terms) < 2 * bound:
        terms.append(sum(c * terms[-l] for l, c in enumerate(coeffs, 1)))
    return terms, bound


def _needed(terms, rec: Recurrence) -> int:
    """The order Berlekamp-Massey finds: 0 for the all-zero sequence."""
    return 0 if not any(terms) else rec.order


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(planted_within_bound())
@hypothesis.example(([Fraction(1, P0), Fraction(2, P0)] + [Fraction(3, P0)] * 2, 2))
def test_modular_fit_matches_the_rational_berlekamp_massey(case):
    terms, bound = case
    ref = fraction_min_recurrence(terms, 3, bound)
    assert min_recurrence(terms, 3, bound) == ref
    assert ([type(c) for c in min_recurrence(terms, 3, bound).coeffs]
            == [Fraction] * ref.order)
    need = bound + _needed(terms, ref)
    assert min_recurrence(terms[:need], 3, bound) == ref
    with pytest.raises(InconsistencyError, match=f"need at least {need} terms"):
        min_recurrence(terms[:need - 1], 3, bound)


def test_a_denominator_the_first_prime_divides_moves_the_run_on():
    terms = [Fraction(1, 2), Fraction(1, 4)]
    run = Massey(terms).read()
    assert (run.index, run.order) == (0, 1)
    terms.append(Fraction(1, 8 * P0))       # a term the first prime cannot take
    run.read()
    assert run.index == 1 and run.p == _prime(1) and len(run.residues) == 3
    assert min_recurrence([Fraction(1, P0)] * 3, 0, 1).coeffs == (Fraction(1),)


def _runs(monkeypatch) -> list[tuple[int, int]]:
    """Record each Berlekamp-Massey run of the fit as (prime, order)."""
    runs = []

    class Counted(Massey):
        def read(self):
            super().read()
            runs.append((self.p, self.order))
            return self

    monkeypatch.setattr(algebra, "Massey", Counted)
    return runs


def test_large_coefficients_take_more_than_one_prime(monkeypatch):
    runs = _runs(monkeypatch)
    # 136 bits over 57: Wang's reconstruction needs both below sqrt(M / 2)
    c = 3 ** 50 + Fraction(1, 7 ** 20)
    terms = [Fraction(1)]
    while len(terms) < 4:
        terms.append(c * terms[-1])
    rec = min_recurrence(terms, 0, 2)
    assert rec.coeffs == (c,) and rec.order == 1
    assert runs == [(_prime(i), 1) for i in range(5)]


def test_a_run_of_smaller_order_is_skipped(monkeypatch):
    """c^n (1 + p n) has order 2, but mod the second prime p it is c^n, of
    order 1: that run must not enter the CRT of the order-2 runs."""
    runs = _runs(monkeypatch)
    c, p1 = 2 ** 40 + 3, _prime(1)
    terms = [c ** n * (1 + p1 * n) for n in range(4)]
    rec = min_recurrence(terms, 0, 2)
    assert rec.coeffs == (2 * c, -c * c)
    assert [order for _, order in runs[:2]] == [2, 1] and len(runs) > 2
