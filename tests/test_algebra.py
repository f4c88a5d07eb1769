"""Exact algebra: characteristic polynomials, annihilators, recurrences,
dominant-root estimation, and the certificate that finds the top root
without the Descartes search."""
import math
import random
from fractions import Fraction

import pytest

from circperm import algebra
from circperm.algebra import (Recurrence, _check_kills, _mul, _squarefree,
                              _top_root, annihilator_from_blocks, char_poly,
                              eval_recurrence, growth, min_recurrence)
from circperm.errors import (AnnihilationError, InconsistencyError,
                             NoRecurrenceError)
from circperm.report import decimal_str

F = Fraction


def test_char_poly_knowns():
    assert char_poly([[1, 1], [1, 0]]) == [-1, -1, 1]
    assert char_poly([[1]]) == [-1, 1]
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert char_poly(ident) == [-1, 3, -3, 1]   # (x-1)^3


def test_char_poly_block_diagonal_multiplies():
    rng = random.Random(3)
    for _ in range(10):
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        block = [[0] * 5 for _ in range(5)]
        for i in range(2):
            for j in range(2):
                block[i][j] = a[i][j]
        for i in range(3):
            for j in range(3):
                block[2 + i][2 + j] = b[i][j]
        assert char_poly(block) == _mul(char_poly(a), char_poly(b))


def test_annihilator_dedups_repeated_factors():
    p = annihilator_from_blocks([[[1]], [[1, 1], [1, 0]], [[1]]])
    assert p.coeffs == (1, 0, -2, 1)    # (x-1)(x^2-x-1)
    assert p.chis == ((-1, 1), (-1, -1, 1), (-1, 1))
    assert annihilator_from_blocks([[[1]]]).coeffs == (-1, 1)


def test_kill_check_raises_on_wrong_polynomial():
    with pytest.raises(AnnihilationError, match="B_3 .dimension 1"):
        _check_kills([-2, 1], [[1]], 3)      # x - 2 does not kill (1)


def test_min_recurrence_fibonacci():
    seq = [1, 1]
    while len(seq) < 20:
        seq.append(seq[-1] + seq[-2])
    rec = min_recurrence(seq, 0, 5)
    assert rec.order == 2 and list(rec.coeffs) == [1, 1]
    assert rec.initials == (1, 1)


def test_min_recurrence_prefers_smallest_order():
    rec = min_recurrence([7] * 16, 3, 5)
    assert rec.order == 1 and rec.coeffs == (F(1),)
    rec = min_recurrence([3 ** k for k in range(16)], 0, 5)
    assert rec.order == 1 and rec.coeffs == (F(3),)


def test_min_recurrence_refuses_rational_coefficients():
    # the only recurrence of order 1 is T(n) = T(n-1) / 2, which no integer
    # sequence obeys for ever (Fatou): the bound is false, and the fit says so
    with pytest.raises(NoRecurrenceError, match="certified"):
        min_recurrence([64, 32, 16, 8, 4, 2, 1], 0, 1)


def test_min_recurrence_guard_rejects_short_fits():
    # quadratic-in-n sequence satisfies order 3; a low-order fit to the first
    # window must be rejected by the later terms
    seq = [n * n for n in range(20)]
    rec = min_recurrence(seq, 0, 6)
    assert rec.order == 3
    assert list(rec.coeffs) == [3, -3, 1]


def test_min_recurrence_on_exactly_twice_the_bound():
    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    rec = min_recurrence(fib, 0, 5)
    assert (rec.order, rec.coeffs, rec.initials) == (2, (F(1), F(1)), (1, 1))


def test_min_recurrence_all_zero_and_zero_tail():
    rec = min_recurrence([0] * 14, 2, 5)
    assert (rec.order, rec.coeffs, rec.initials) == (1, (0,), (0,))
    assert type(rec.coeffs[0]) is int
    rec = min_recurrence([5] + [0] * 13, 2, 5)
    assert (rec.order, rec.coeffs, rec.initials) == (1, (0,), (5,))
    assert type(rec.coeffs[0]) is int
    # the certified coefficients are integers, and stay ints
    rec = min_recurrence([2, 0, 1, 1] + [0] * 8, 0, 4)
    assert (rec.order, rec.coeffs, rec.initials) == (4, (0,) * 4, (2, 0, 1, 1))
    assert all(type(c) is int for c in rec.coeffs)


def test_min_recurrence_failure_signals():
    random_seq = [1, 4, 9, 2, 8, 5, 7, 1, 3, 9, 2, 6, 4, 8, 5, 7, 1, 2]
    with pytest.raises(NoRecurrenceError):
        min_recurrence(random_seq, 0, 3)
    with pytest.raises(InconsistencyError):
        min_recurrence([1, 2, 3], 0, 5)    # too few terms for the cap


def test_eval_recurrence_forward_and_backward():
    rec = Recurrence(3, (F(2), F(0), F(-1)), 4, (9, 13, 20))
    assert eval_recurrence(rec, 4) == 9
    assert eval_recurrence(rec, 7) == 31
    assert eval_recurrence(rec, 10) == 125
    # backward: T(3) = 2*T(5) - T(6) ... solved through the trailing coefficient
    assert eval_recurrence(rec, 3) == 6
    rec0 = Recurrence(1, (F(0),), 0, (5,))
    with pytest.raises(InconsistencyError):
        eval_recurrence(rec0, -1)


def test_growth_golden_ratio():
    rec = Recurrence(3, (F(2), F(0), F(-1)), 4, (9, 13, 20))
    g = growth(rec, nonneg=True)
    assert g.note == "largest-modulus real root"
    assert abs(g.dominant_root - (1 + 5 ** 0.5) / 2) < 1e-8


def test_growth_constant_and_alternating():
    g = growth(Recurrence(1, (F(1),), 0, (1,)), nonneg=True)
    assert abs(g.dominant_root - 1.0) < 1e-9
    g = growth(Recurrence(2, (F(0), F(1)), 0, (1, 2)), nonneg=True)
    assert abs(g.dominant_root - 1.0) < 1e-9


def test_growth_non_real_dominant_pair():
    # x^2 + 1: rotation by i, signed terms and no real root, so nothing is
    # claimed dominant and the lower bound on the modulus is 0
    g = growth(Recurrence(2, (F(0), F(-1)), 0, (1, 1)), nonneg=False)
    assert g.dominant_root is None
    assert g.note.endswith("a lower bound on the dominant modulus")
    assert g.modulus == 0


def _chi(rec):
    """The characteristic polynomial x^r - sum_j c_j x^(r-j) of rec, on ints."""
    scale = math.lcm(*(c.denominator for c in rec.coeffs))
    return [int(-c * scale) for c in reversed(rec.coeffs)] + [scale]


def _mirror(c):
    """c(-x)."""
    return [-v if i % 2 else v for i, v in enumerate(c)]


def test_top_root_of_a_weighted_chi_and_of_its_mirror(derived):
    # chi of {0,1,4} with weights 2,0,1 factors (per sympy) as
    # (x-2)(x-1)(x^2-2)(x^2+2)(x^4-8)(x^4-2): the top root is 2, and the
    # most negative root, the top root of chi(-x), is -2^(3/4)
    chi = _chi(derived("0,1,4", None, "2,0,1").recurrence)
    assert len(chi) == 15
    assert chi[0] == -128 and chi[-1] == 1
    assert _top_root(_squarefree(chi)) == 2
    got = _top_root(_squarefree(_mirror(chi)))
    assert abs(float(got) - 2 ** 0.75) < 1e-10
    assert decimal_str(got) == "1.6817928305"


def test_top_root_settles_the_rounding_next_to_and_on_an_edge():
    # phi lies 1.05e-13 below e = 1.61803398875, a rounding edge of the
    # 10-decimal grid, and must still print as 1.6180339887
    phi = _top_root([-1, -1, 1])
    assert abs(float(phi) - (1 + 5 ** 0.5) / 2) < 1e-10
    assert decimal_str(phi) == "1.6180339887"
    # e itself is the top root of (x^2 - x - 1)(x - e), and its rounding
    # no bracket settles, so it must come back exactly
    e = F(161803398875, 10 ** 11)
    scaled = [int(c * 10 ** 11) for c in (e, e - 1, -1 - e, 1)]
    assert _top_root(scaled) == e


def test_growth_of_signed_terms_reads_the_mirror():
    # chi = (x + 3)(x - 1): the largest |real root| is the root -3, which
    # only the search on chi(-x) sees
    g = growth(Recurrence(2, (F(-2), F(3)), 0, (1, 1)), nonneg=False)
    assert g.dominant_root is None
    assert g.modulus == 3


def test_growth_repeated_dominant_root():
    # T(n) = n*2^n and n^2*2^n: a root of multiplicity m still dominates
    for rec in (Recurrence(2, (F(4), F(-4)), 0, (0, 2)),
                Recurrence(3, (F(6), F(-12), F(8)), 0, (0, 2, 16))):
        g = growth(rec, nonneg=True)
        assert g.note == "largest-modulus real root"
        assert abs(g.dominant_root - 2) < 1e-9


def _prs_calls(monkeypatch) -> list:
    """Record each call of the integer PRS `_gcd` behind `_squarefree`."""
    calls, prs = [], algebra._gcd
    monkeypatch.setattr(algebra, "_gcd", lambda a, b: calls.append(a) or prs(a, b))
    return calls


def _up_to_sign(got, want):
    assert got in (want, [-v for v in want])


def test_squarefree_certified_by_the_modular_gcd_is_returned_as_is(monkeypatch):
    calls = _prs_calls(monkeypatch)
    chi = [-4, -2, 2]                     # 2(x^2 - x - 1), not primitive
    assert _squarefree(chi) is chi
    assert calls == []


def test_squarefree_drops_planted_square_and_cube_factors(monkeypatch):
    calls = _prs_calls(monkeypatch)
    # (x - 2)^2 (x + 1)^3 (x^2 + 1) loses its repeats, by the PRS
    chi = algebra._mul(algebra._mul([4, -4, 1], [1, 3, 3, 1]), [1, 0, 1])
    _up_to_sign(_squarefree(chi), algebra._mul([-2, -1, 1], [1, 0, 1]))
    assert len(calls) == 1


def test_squarefree_skips_a_prime_that_divides_the_lead(monkeypatch):
    # (q x + 1)^2 for the first prime q: mod q it is the constant 1, whose
    # gcd with the derivative has degree 0, so q must be skipped, and mod
    # the next prime the square shows
    calls = _prs_calls(monkeypatch)
    q = algebra._prime(0)
    _up_to_sign(_squarefree([1, 2 * q, q * q]), [1, q])
    assert len(calls) == 1


def test_squarefree_after_an_unlucky_prime_is_the_prs_answer(monkeypatch):
    # x (x - q) is squarefree, but mod the first prime q it is x^2: the
    # modular gcd is x, so the PRS decides, and keeps both roots
    calls = _prs_calls(monkeypatch)
    q = algebra._prime(0)
    chi = [0, -q, 1]
    _up_to_sign(_squarefree(chi), chi)
    assert len(calls) == 1
    assert _top_root(_squarefree(chi)) == q


def _searches(monkeypatch) -> list:
    """Record each call of the Descartes search `_top_root`, which `_top`
    falls back on when its certificate fails."""
    calls, search = [], algebra._top_root
    monkeypatch.setattr(algebra, "_top_root", lambda c: calls.append(c) or search(c))
    return calls


E = F(161803398875, 10 ** 11)         # a rounding edge of the 10-decimal grid


@pytest.mark.parametrize("c, certified", [
    (_mul([4, -4, 1], [1, 1]), False),                    # (x - 2)^2 (x + 1)
    (_mul([-2, 1], [4000002, -4000001, 1000000]), None),  # 2 and 2 + 10^-6
    ([int(c * 10 ** 11) for c in (E, E - 1, -1 - E, 1)], False),  # E itself
    (_mirror(_mul([-1, 1], [3, 7, 2])), True),            # odd degree: -(x + 1)(x - 3)(2x - 1)
    (_mul([1, 1], [2, 1]), True),                         # roots -1, -2: none positive
    ([1, -1, 1], False),                                  # x^2 - x + 1: none real
    ([-1, -1, 1], False),                                 # phi, 1.05e-13 below an edge
])
def test_top_gives_todays_answer_certified_or_not(monkeypatch, c, certified):
    want = _top_root(_squarefree(c))
    calls = _searches(monkeypatch)
    got = algebra._top(c)
    assert (got is None) == (want is None)
    if want is not None:
        assert decimal_str(got) == decimal_str(want)
    if certified is False:      # the search ran, and its answer stands as it is
        assert len(calls) == 1 and got == want
    elif certified:
        assert calls == []


@pytest.mark.parametrize("off", [1e-3, -1e-3, "0", "-1", "nan", "inf", None])
def test_growth_falls_back_on_a_bad_estimate(monkeypatch, derived, off):
    rec = derived("0,2,5", None, None).recurrence
    want = growth(rec, nonneg=True)
    rho = float(want.dominant_root)
    bad = None if off is None else rho + off if isinstance(off, float) else float(off)
    monkeypatch.setattr(algebra, "_estimate", lambda c: bad)
    calls = _searches(monkeypatch)
    got = growth(rec, nonneg=True)
    assert decimal_str(got.dominant_root) == decimal_str(want.dominant_root) == "1.4092352350"
    assert len(calls) == 1


def test_an_estimate_on_a_lower_root_is_not_certified(monkeypatch):
    # c changes sign from - to + at 1 as at 3, so only the Taylor shift at
    # the bracket's top end sees the roots above it
    c = _mul(_mul([-1, 1], [-2, 1]), [-3, 1])           # (x - 1)(x - 2)(x - 3)
    monkeypatch.setattr(algebra, "_estimate", lambda c: 1.0)
    calls = _searches(monkeypatch)
    assert algebra._top(c) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("c", [
    _mul([-10 ** 400, 1], [1, 1]),                    # root 10^400: no float holds it
    _mul([-3, 1], _mul([10 ** 200, 1], [10 ** 200, 1])),  # root 3, a 3 10^400 coefficient
    _mul([-2, 0, 1], [10 ** 400, 1]),                 # root sqrt 2 next to -10^400
])
def test_top_of_a_chi_beyond_the_floats(c):
    # Fujiwara's bound leaves the floats: no estimate, or one on c scaled by
    # a power of two, and the answer is the search's
    assert decimal_str(algebra._top(c)) == decimal_str(_top_root(_squarefree(c)))


@pytest.mark.parametrize("weights, nonneg", [("1e400,1,1", True), ("-1e400,1,1", False)])
def test_growth_of_a_weight_beyond_the_floats(derived, weights, nonneg):
    g = growth(derived("0,1,2", None, weights).recurrence, nonneg=nonneg)
    assert g.modulus == 10 ** 400


@pytest.mark.parametrize("jumps, weights, root, modulus", [
    ("0,2,5", None, "1.4092352350", "1.4092352350"),
    ("0,1,4", None, "1.4012683679", "1.4012683679"),
    ("0,2,3,4", None, "1.8558859987", "1.8558859987"),
    ("1,2,4", "1/2,3,-1", None, "2.9716904563"),      # chi and its mirror
    ("0,1,7", None, "1.3887275744", "1.3887275744"),  # degree 127: scaled Newton
    ("0,1,4,7", None, "1.7831027548", "1.7831027548"),
    ("0,2,7", "1/3,2,-1", None, "2.0001927629"),      # degree 128, chi and its mirror
    ("0,1,8", "1,-1,1", None, "1.3920674885"),        # degree 223
    ("0,3,8", "1/2,-2,5", None, "5.0000000000"),      # degree 256, an integer root
    ("0,1,4,7", "1,-1,1,1", None, "1.2498515889"),
])
def test_growth_is_certified_without_the_search(monkeypatch, derived, jumps,
                                                weights, root, modulus):
    def refuse(c):
        raise AssertionError("the certificate fell back on the Descartes search")

    rec = derived(jumps, None, weights).recurrence
    monkeypatch.setattr(algebra, "_squarefree", refuse)
    monkeypatch.setattr(algebra, "_top_root", refuse)
    g = growth(rec, nonneg=weights is None)
    assert (None if g.dominant_root is None else decimal_str(g.dominant_root)) == root
    assert decimal_str(g.modulus) == modulus
