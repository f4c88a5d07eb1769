"""Property test: the Descartes-rule root isolator returns every real root of
a polynomial whose roots are known by construction, each to within tol."""
from fractions import Fraction

import pytest

from circperm.algebra import Polynomial, _real_roots

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOL = Fraction(1, 10 ** 11)             # what growth() asks for


def _times(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _cauchy(p: list) -> Fraction:
    """The bound B that _real_roots isolates in, [-B, B]."""
    return 1 + max(abs(c) for c in p) / abs(p[-1])


def _dyadic_root(p: list, f: Fraction):
    """rho with rho = f * B(p * (x - rho)), or None: a root that lands on the
    point f * B of the dyadic grid of [-B, B] once (x - rho) is multiplied
    in.  Each coefficient of p * (x - rho) is linear in rho, so each choice
    of the coefficient that sets B, and of its sign, is one linear equation."""
    lead, cands = abs(p[-1]), []
    for a, b in zip([Fraction(0)] + p, p + [Fraction(0)]):    # a - rho * b
        for s in (1, -1):
            den = lead + f * s * b
            if den:
                cands.append(f * (lead + s * a) / den)
    for rho in cands:
        if rho == f * _cauchy(_times(p, [-rho, 1])):
            return rho
    return None


_root = st.fractions(min_value=-6, max_value=6, max_denominator=8)
_lead = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def planted(draw):
    """(coefficients, roots): lead * prod (x - r_i)^m_i * prod (root-free
    quadratics), with m_i <= 3, a cluster far closer than a 1024-point grid
    cell (>= 4/1024 wide, as B >= 2), a root at 0 (the first dyadic
    midpoint) half of the time, and one on a dyadic point f * B such as
    +-B/2 or -3B/8 half of the time."""
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
        f = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 8)]))
        for _ in range(16):   # solvable once |f| * max|p_i| / |lead| < 1
            rho = _dyadic_root(p, f)
            if rho is not None:
                break
            f /= 2
        if rho is not None and rho not in roots:
            p = _times(p, [-rho, 1])
            roots = sorted(roots + [rho])
    return p, roots


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(planted())
@hypothesis.example(([Fraction(0), Fraction(-4), Fraction(0), Fraction(1)],   # x^3 - 4x
                     [Fraction(-2), Fraction(0), Fraction(2)]))
def test_every_planted_root_comes_back_once(case):
    coeffs, roots = case
    got = _real_roots(Polynomial.from_list(coeffs), TOL)
    assert got == sorted(got)
    assert len(got) == len(roots)
    assert all(abs(g - r) <= TOL for g, r in zip(got, roots))
