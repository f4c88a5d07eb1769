"""Property test: the x^k mod chi(x) evaluator returns what the term-by-term
loop it replaced returns, plus large-n pins against independent values."""
import json
from fractions import Fraction

import pytest

from circperm import cli
from circperm.algebra import Recurrence, eval_recurrence
from circperm.circulant import parse_spec
from circperm.pipeline import derive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def linear_eval(rec: Recurrence, n: int):
    """Reference evaluator: run the recurrence forward one term at a time."""
    vals = list(rec.initials)
    while len(vals) <= n - rec.base:
        vals.append(sum(c * vals[-j] for j, c in enumerate(rec.coeffs, 1)))
    v = vals[n - rec.base]
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
    the base to base + 300."""
    order = draw(st.integers(1, 8))
    coeff = _rat_coeff if draw(st.booleans()) else _int_coeff
    coeffs = draw(st.lists(coeff, min_size=order, max_size=order))
    if order > 1 and draw(st.booleans()):
        coeffs[-1] = Fraction(0)
    initials = draw(st.lists(_initial, min_size=order, max_size=order))
    base = draw(st.integers(-3, 6))
    rec = Recurrence(order, tuple(coeffs), base, tuple(initials))
    return rec, base + draw(st.integers(0, 300))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(recurrences())
@hypothesis.example((Recurrence(1, (Fraction(0),), 2, (5,)), 2))     # order-1 zero
@hypothesis.example((Recurrence(1, (Fraction(0),), 2, (5,)), 300))
@hypothesis.example((Recurrence(3, (Fraction(1, 2), Fraction(3), Fraction(0)), 0,
                                (Fraction(1, 3), 2, Fraction(-7, 4))), 299))
def test_powering_matches_the_linear_loop(case):
    rec, n = case
    got, want = eval_recurrence(rec, n), linear_eval(rec, n)
    assert got == want and type(got) is type(want)


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
