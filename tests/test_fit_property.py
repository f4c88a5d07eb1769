"""Property tests: on integer sequences with a planted integer
recurrence, the modular fit returns what the order-by-order Hankel solve
and the Berlekamp-Massey pass over the rationals it replaced return, or
refuses a window that only a recurrence with a fractional coefficient
fits, and it needs exactly bound + r terms."""
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest

from circperm import algebra, transfer
from circperm.algebra import Massey, Recurrence, _prime, min_recurrence
from circperm.circulant import parse_spec
from circperm.errors import InconsistencyError, NoRecurrenceError
from circperm.pipeline import derive
from circperm.report import recurrence_dict

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
    return rec.order, rec.coeffs, rec.initials, rec.base


_coeff = st.integers(-3, 3)
_initial = st.integers(-20, 20)


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
@hypothesis.example(([64, 32, 16, 8, 4, 2, 1], 1))  # only c = 1/2 fits
def test_berlekamp_massey_matches_the_hankel_solve(case):
    """The fit is the Hankel solve's recurrence, as ints, when its
    coefficients are integers, and refuses the window when they are not:
    no integer sequence obeys such a recurrence for ever (Fatou), so the
    bound is false."""
    terms, cap = case
    want = _outcome(hankel_min_recurrence, terms, cap)
    if want is not None and any(c.denominator != 1 for c in want[1]):
        want = None
    got = _outcome(min_recurrence, terms, cap)
    assert got == want
    assert got is None or all(type(c) is int for c in got[1])


_big = st.integers(-2 ** 80, 2 ** 80)


@st.composite
def planted_within_bound(draw):
    """(terms, bound): 2*bound terms of an integer recurrence of order
    <= bound run forward from integer initials.  Coefficients are small,
    or large enough that one 61-bit prime cannot hold them; zero
    coefficients give zero tails."""
    bound = draw(st.integers(1, 8))
    order = draw(st.integers(0, bound))
    kind = draw(st.sampled_from(("small", "zero tail", "large")))
    coeffs = draw(st.lists(_big if kind == "large" else _coeff,
                           min_size=order, max_size=order))
    if kind == "zero tail":
        coeffs = [0] * order
    terms = draw(st.lists(_initial, min_size=order, max_size=order))
    while len(terms) < 2 * bound:
        terms.append(sum(c * terms[-l] for l, c in enumerate(coeffs, 1)))
    return terms, bound


def _needed(terms, rec: Recurrence) -> int:
    """The order Berlekamp-Massey finds: 0 for the all-zero sequence."""
    return 0 if not any(terms) else rec.order


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(planted_within_bound())
def test_modular_fit_matches_the_rational_berlekamp_massey(case):
    terms, bound = case
    ref = fraction_min_recurrence(terms, 3, bound)
    assert min_recurrence(terms, 3, bound) == ref
    assert all(type(c) is int for c in min_recurrence(terms, 3, bound).coeffs)
    need = bound + _needed(terms, ref)
    assert min_recurrence(terms[:need], 3, bound) == ref
    with pytest.raises(InconsistencyError, match=f"need at least {need} terms"):
        min_recurrence(terms[:need - 1], 3, bound)


def test_a_denominator_the_first_prime_divides_moves_the_run_on(monkeypatch):
    """With weights 1/P0, 1, 1, P0 = 2^61 - 1 the first prime, the integer
    terms T_L(n) = P0^n T(n) are 1 mod P0, as only the cover by self-loops
    has no factor P0: the fit's first run, mod P0, has order 1, the run mod
    the next prime has the true order 4 and supersedes it, and the
    recurrence is the one the pinned report holds."""
    runs = _runs(monkeypatch)
    p0 = _prime(0)
    res = derive(parse_spec("0,1,2", weights=f"1/{p0},1,1"))
    assert res.system.scale == p0 and res.recurrence.order == 4
    assert runs[:2] == [(p0, 1), (_prime(1), 4)]
    pinned = Path(__file__).parent / "reports" / "const_bigden.json"
    assert (recurrence_dict(res.recurrence)
            == json.loads(pinned.read_text())["recurrence"])


@pytest.mark.parametrize("jumps, size, weights", [
    ("0,1,2", None, None), ("0,1,4", None, "1/2,3,-1"),
    ("1,1n+0,2n+1", "3n+1", None), ("-2,2", "2n-1", "3,1/7")])
def test_derive_runs_berlekamp_massey_mod_the_first_prime_once(
        monkeypatch, jumps, size, weights):
    """`sequence` stops on the proven bound, not on a run of its own: the
    fit's first run is a derive's only one mod the first prime."""
    runs = _runs(monkeypatch)
    derive(parse_spec(jumps, size, weights))
    assert [p for p, _ in runs].count(_prime(0)) == 1


def _runs(monkeypatch) -> list[tuple[int, int]]:
    """Record each Berlekamp-Massey run, the fit's and any stepping
    loop's, as (prime, order) at every read."""
    runs = []

    class Counted(Massey):
        def read(self):
            super().read()
            runs.append((self.p, self.order))
            return self

    monkeypatch.setattr(algebra, "Massey", Counted)
    monkeypatch.setattr(transfer, "Massey", Counted)
    return runs


def test_large_coefficients_take_more_than_one_prime(monkeypatch):
    runs = _runs(monkeypatch)
    # 80 bits: the symmetric range of one 61-bit prime cannot hold it
    c = 3 ** 50
    terms = [c ** k for k in range(4)]
    rec = min_recurrence(terms, 0, 2)
    assert rec.coeffs == (c,) and rec.order == 1
    assert runs == [(_prime(i), 1) for i in range(2)]


def test_a_run_of_smaller_order_is_skipped(monkeypatch):
    """c^n (1 + p n) has order 2, but mod the second prime p it is c^n, of
    order 1: that run must not enter the CRT of the order-2 runs."""
    runs = _runs(monkeypatch)
    c, p1 = 2 ** 40 + 3, _prime(1)
    terms = [c ** n * (1 + p1 * n) for n in range(4)]
    rec = min_recurrence(terms, 0, 2)
    assert rec.coeffs == (2 * c, -c * c)
    assert [order for _, order in runs[:2]] == [2, 1] and len(runs) > 2
