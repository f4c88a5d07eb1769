"""Property test: the halving evaluator returns what the term-by-term loops
it replaced return, forward and below the base, at orders up to 127, plus
large-n pins against independent values."""
import json
from fractions import Fraction

import pytest

from circperm import cli
from circperm.algebra import Recurrence, eval_recurrence
from circperm.circulant import parse_spec
from circperm.errors import InconsistencyError
from circperm.pipeline import derive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def linear_eval(rec: Recurrence, n: int):
    """Reference evaluator: run the recurrence one term at a time, forward
    from the base, or backward below it by solving the relation at the top
    of the window for the term under it."""
    if n >= rec.base:
        vals = list(rec.initials)
        while len(vals) <= n - rec.base:
            vals.append(sum(c * vals[-j] for j, c in enumerate(rec.coeffs, 1)))
        v = vals[n - rec.base]
    else:
        cd = rec.coeffs[-1]
        if cd == 0:
            raise InconsistencyError("cannot extend backward: trailing coefficient 0")
        back = list(rec.initials)
        for _ in range(rec.base - n):
            # window holds T(m..m+d-1); the relation at m+d-1 solves T(m-1)
            top = back[rec.order - 1]
            acc = top - sum(rec.coeffs[j - 1] * back[rec.order - 1 - j]
                            for j in range(1, rec.order))
            back.insert(0, Fraction(acc, 1) / cd)
            back.pop()
        v = back[0]
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


_int_coeff = st.integers(-3, 3).map(Fraction)
_rat_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_initial = st.one_of(st.integers(-20, 20),
                     st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def recurrences(draw):
    """(recurrence, n): order 1..8, integer or rational coefficients, a
    forced zero trailing coefficient half of the time, and n anywhere from
    base - 30 to base + 300."""
    order = draw(st.integers(1, 8))
    coeff = _rat_coeff if draw(st.booleans()) else _int_coeff
    coeffs = draw(st.lists(coeff, min_size=order, max_size=order))
    if order > 1 and draw(st.booleans()):
        coeffs[-1] = Fraction(0)
    initials = draw(st.lists(_initial, min_size=order, max_size=order))
    base = draw(st.integers(-3, 6))
    rec = Recurrence(order, tuple(coeffs), base, tuple(initials))
    return rec, base + draw(st.integers(-30, 300))


def _wide(order: int, rational: bool, zero_tail: bool) -> Recurrence:
    """A fixed recurrence of the given order, its coefficients in -2..2
    (over 1..3 when rational), with a trailing 0 when `zero_tail`."""
    coeffs = [Fraction((7 * j) % 5 - 2, 1 + j % 3 if rational else 1)
              for j in range(1, order + 1)]
    if zero_tail:
        coeffs[-1] = Fraction(0)
    initials = [Fraction(i % 7 - 3, 1 + i % 2) if rational else i % 7 - 3
                for i in range(order)]
    return Recurrence(order, tuple(coeffs), 3, tuple(initials))


def _at_wide_orders(test):
    """Examples at orders 20 and 40, at k = d - 1, d, d + 1 and 5d + 3
    steps past the base: where the halving loop first runs and well past it."""
    for rec in (_wide(20, False, True), _wide(20, True, False),
                _wide(40, False, False), _wide(40, True, True)):
        d = rec.order
        for k in (d - 1, d, d + 1, 5 * d + 3):
            test = hypothesis.example((rec, rec.base + k))(test)
    return test


@_at_wide_orders
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(recurrences())
@hypothesis.example((Recurrence(1, (Fraction(0),), 2, (5,)), 2))     # order-1 zero
@hypothesis.example((Recurrence(1, (Fraction(0),), 2, (5,)), 300))
@hypothesis.example((Recurrence(3, (Fraction(1, 2), Fraction(3), Fraction(0)), 0,
                                (Fraction(1, 3), 2, Fraction(-7, 4))), 299))
@hypothesis.example((Recurrence(3, (Fraction(1, 2), Fraction(3), Fraction(0)), 0,
                                (Fraction(1, 3), 2, Fraction(-7, 4))), -1))
@hypothesis.example((Recurrence(1, (Fraction(-2),), 5, (3,)), -25))     # order 1
@hypothesis.example((Recurrence(2, (Fraction(1), Fraction(1, 3)), 4,
                                (Fraction(1, 2), -1)), 3))
def test_powering_matches_the_linear_loop(case):
    """eval_recurrence equals the term-by-term loop on random recurrences of
    order 1..8 and on fixed ones of order 20 and 40, integer and rational,
    with and without a zero trailing coefficient, or both refuse."""
    rec, n = case
    try:
        want = linear_eval(rec, n)
    except InconsistencyError:
        with pytest.raises(InconsistencyError):
            eval_recurrence(rec, n)
        return
    got = eval_recurrence(rec, n)
    assert got == want and type(got) is type(want)


def test_order_127_recurrence_matches_the_linear_loop():
    """The derived {0,1,7} recurrence (order 127) at k = d - 1, d, d + 1 and
    far past the base."""
    rec = derive(parse_spec("0,1,7")).recurrence
    assert rec.order == 127
    for k in (126, 127, 128, 2000):
        assert eval_recurrence(rec, rec.base + k) == linear_eval(rec, rec.base + k)


def test_eval_at_n_100000_is_lucas_plus_two(capsys):
    # T(n) = Lucas(n) + 2 for {0,1,2}; Lucas by a plain int loop
    n = 100_000
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    assert cli.main(["eval", "--jumps", "0,1,2", "--n", str(n), "--out", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    with cli._unlimited_int_digits():
        assert int(value) == a + 2


def test_eval_rational_weights_at_n_500(capsys):
    spec = parse_spec("0,1,3", weights="1/2,3,-1")
    res = derive(spec)
    assert any(Fraction(c).denominator > 1 for c in res.recurrence.coeffs)
    expected = linear_eval(res.recurrence, 500 + res.normalized.trace.index_shift)
    assert cli.main(["eval", "--jumps", "0,1,3", "--weights", "1/2,3,-1",
                     "--n", "500", "--out", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    with cli._unlimited_int_digits():
        assert Fraction(value) == expected
