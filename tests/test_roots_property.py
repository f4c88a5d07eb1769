"""Property tests: the Descartes-rule top-root search returns the largest
positive root of a polynomial whose roots are known by construction, and
on its mirror p(-x) the modulus of the most negative one, each with the
10-decimal rounding of the true root; the certified path that `growth`
tries first agrees with it, and its bracket holds the planted root."""
import math
from fractions import Fraction

import pytest

from circperm.algebra import (BRACKET_BITS, _bracket, _estimate, _mirror,
                              _squarefree, _top, _top_root)
from circperm.report import decimal_str

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _times(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ints(p: list) -> list:
    """p times the lcm of its denominators: the same roots, on ints."""
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    return [int(c * scale) for c in p]


def _bound(p: list) -> Fraction:
    """The B = 2^b that _top_root searches below: the least power of two
    with p(B) != 0 and every coefficient of p(x + B) of one sign."""
    b = Fraction(1)
    while True:
        shifted = list(p)
        for i in range(len(shifted) - 1):          # Taylor shift by b
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += b * shifted[j + 1]
        if shifted[0] and len({c > 0 for c in shifted if c}) == 1:
            return b
        b *= 2


_root = st.fractions(min_value=-6, max_value=6, max_denominator=8)
_lead = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def planted(draw):
    """(coefficients, roots): lead * prod (x - r_i)^m_i * prod (root-free
    quadratics), with m_i <= 3, a cluster as close as 10^-6, a root at 0
    half of the time, and half of the time one on a dyadic point f * B of
    (0, B) or of (-B, 0), such as B/2 or 3B/8, where the search splits."""
    roots = draw(st.lists(_root, max_size=4, unique=True))
    if roots and draw(st.booleans()):
        gap = draw(st.sampled_from([Fraction(1, 997), Fraction(1, 4096),
                                    Fraction(1, 10 ** 6)]))
        roots += [roots[0] + gap, roots[0] - 2 * gap][:draw(st.integers(1, 2))]
    if draw(st.booleans()):
        roots.append(Fraction(0))
    roots = sorted(set(roots))
    p = [draw(_lead)]
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = _times(p, [-r, 1])
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.integers(-4, 4))
        c = draw(st.integers(b * b // 4 + 1, b * b // 4 + 6))     # b^2 < 4c
        p = _times(p, [Fraction(c), Fraction(b), Fraction(1)])
    if draw(st.booleans()):
        f = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 8),
                                  Fraction(-3, 4), Fraction(1, 4)]))
        # p * (x - rho) has every root below B(p), so its own bound is at
        # most B(p) and rho a dyadic point of its (0, B) or (-B, 0)
        rho = f * _bound(p)
        if rho not in roots:
            p = _times(p, [-rho, 1])
            roots = sorted(roots + [rho])
    return p, roots


def _check(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and abs(got - want) <= Fraction(1, 10 ** 10)
        assert decimal_str(got) == decimal_str(want)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(planted())
@hypothesis.example(([Fraction(0), Fraction(-4), Fraction(0), Fraction(1)],   # x^3 - 4x
                     [Fraction(-2), Fraction(0), Fraction(2)]))
def test_top_planted_root_comes_back_on_both_sides(case):
    coeffs, roots = case
    chi = _squarefree(_ints(coeffs))
    _check(_top_root(chi), max((r for r in roots if r > 0), default=None))
    mirror = [-c if i % 2 else c for i, c in enumerate(chi)]
    _check(_top_root(mirror), max((-r for r in roots if r < 0), default=None))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(planted())
@hypothesis.example(([Fraction(0), Fraction(-4), Fraction(0), Fraction(1)],   # x^3 - 4x
                     [Fraction(-2), Fraction(0), Fraction(2)]))
def test_certified_top_root_agrees_with_the_search_and_brackets_the_root(case):
    coeffs, roots = case
    chi = _ints(coeffs)
    for c, top in ((chi, max((r for r in roots if r > 0), default=None)),
                   (_mirror(chi), max((-r for r in roots if r < 0), default=None))):
        got, want = _top(c, ()), _top_root(_squarefree(c))
        _check(got, top)
        assert (got is None) == (want is None)
        if want is not None:
            assert decimal_str(got) == decimal_str(want)
        lead = c if c[-1] > 0 else [-v for v in c]
        x = _estimate(lead, ())
        if _bracket(lead, x) is not None:
            # the bracket (m - 2, m + 2) / 2^k that `_bracket` certified
            k = max(0, BRACKET_BITS + 2 - math.frexp(x)[1])
            m = round(math.ldexp(x, k))
            assert Fraction(m - 2, 1 << k) < top < Fraction(m + 2, 1 << k)
            assert got == Fraction(m, 1 << k)
