"""Exact algebra: characteristic polynomials, annihilators, recurrences,
dominant-root estimation."""
import random
from fractions import Fraction

import pytest

from circperm.algebra import (Polynomial, Recurrence, _real_roots,
                              annihilator_from_blocks, char_poly,
                              eval_recurrence, growth, min_recurrence,
                              recurrence_char_poly, verify_annihilates)
from circperm.errors import (AnnihilationError, InconsistencyError,
                             NoRecurrenceError)

F = Fraction


def coeffs(p):
    return [F(c) for c in p]


def test_char_poly_knowns():
    assert char_poly([[1, 1], [1, 0]]).coeffs == tuple(coeffs([-1, -1, 1]))
    assert char_poly([[1]]).coeffs == tuple(coeffs([-1, 1]))
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert char_poly(ident).coeffs == tuple(coeffs([-1, 3, -3, 1]))   # (x-1)^3


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
        assert char_poly(block).coeffs == (char_poly(a) * char_poly(b)).coeffs


def test_annihilator_dedups_repeated_factors():
    p = annihilator_from_blocks([[[1]], [[1, 1], [1, 0]], [[1]]])
    assert p.coeffs == tuple(coeffs([1, 0, -2, 1]))    # (x-1)(x^2-x-1)
    assert annihilator_from_blocks([[[1]]]).coeffs == tuple(coeffs([-1, 1]))


def test_verify_annihilates_raises_on_wrong_polynomial():
    wrong = Polynomial.from_list([-2, 1])      # x - 2 does not kill (1)
    with pytest.raises(AnnihilationError):
        verify_annihilates(wrong, [[[1]]])


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


def test_min_recurrence_rational_coefficients():
    seq = [F(1)]
    for _ in range(15):
        seq.append(seq[-1] * F(1, 2))
    rec = min_recurrence(seq, 0, 4)
    assert rec.order == 1 and rec.coeffs == (F(1, 2),)


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
    assert (rec.order, rec.coeffs, rec.initials) == (1, (F(0),), (0,))
    rec = min_recurrence([5] + [0] * 13, 2, 5)
    assert (rec.order, rec.coeffs, rec.initials) == (1, (F(0),), (5,))
    # all-int terms make int/int discrepancy ratios, which must stay exact
    rec = min_recurrence([2, 0, 1, 1] + [0] * 8, 0, 4)
    assert (rec.order, rec.coeffs, rec.initials) == (4, (F(0),) * 4, (2, 0, 1, 1))
    assert all(isinstance(c, F) for c in rec.coeffs)


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


def test_real_roots_finds_all_eight_of_a_weighted_chi(derived):
    # chi of {0,1,4} with weights 2,0,1 factors (per sympy) as
    # (x-2)(x-1)(x^2-2)(x^2+2)(x^4-8)(x^4-2): eight distinct real roots, some
    # closer together than the cells of a 1024-point grid on [-B, B]
    poly = recurrence_char_poly(derived("0,1,4", None, "2,0,1").recurrence)
    assert poly.degree == 14
    tol = F(1, 10 ** 9) / 4
    want = [-2 ** 0.75, -2 ** 0.5, -2 ** 0.25, 1, 2 ** 0.25, 2 ** 0.5, 2 ** 0.75, 2]
    got = _real_roots(poly, tol)
    assert got == sorted(got) and len(got) == len(want)
    assert all(abs(float(r) - w) <= tol for r, w in zip(got, want))


def test_real_roots_settle_the_rounding_next_to_and_on_an_edge():
    # (x^2 - x - 1)(x - e) with e = 1.61803398875, a rounding edge of the
    # 10-decimal grid: phi lies 1.05e-13 below e, and e itself is a root,
    # whose rounding no bracket settles, so it must come back exactly
    e = F(161803398875, 10 ** 11)
    roots = _real_roots(Polynomial.from_list([e, e - 1, -1 - e, 1]), F(1, 10 ** 11))
    assert len(roots) == 3 and roots[2] == e
    assert abs(roots[0] + (5 ** 0.5 - 1) / 2) < 1e-11
    assert round(roots[1] * 10 ** 10) == 16180339887


def test_growth_repeated_dominant_root():
    # T(n) = n*2^n and n^2*2^n: a root of multiplicity m still dominates
    for rec in (Recurrence(2, (F(4), F(-4)), 0, (0, 2)),
                Recurrence(3, (F(6), F(-12), F(8)), 0, (0, 2, 16))):
        g = growth(rec, nonneg=True)
        assert g.note == "largest-modulus real root"
        assert abs(g.dominant_root - 2) < 1e-9


def test_recurrence_char_poly_shape():
    rec = Recurrence(2, (F(1), F(1)), 0, (1, 1))
    assert recurrence_char_poly(rec).coeffs == tuple(coeffs([-1, -1, 1]))


def test_polynomial_str_and_eval():
    p = Polynomial.from_list([1, 0, -2, 1])
    assert str(p) == "x^3-2x^2+1"
    assert p(F(1)) == 0
    assert p(F(2)) == 1
