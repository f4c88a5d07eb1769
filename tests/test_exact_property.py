"""Property test: every exact value the package returns is an int when it
is integral, else a reduced Fraction (never one of denominator 1), and
equals its reference computed on Fractions: derive's recurrence and
annihilator, eval_recurrence below and above the base, moments_ratio, and
the fit on planted integer sequences."""
from dataclasses import replace
from fractions import Fraction

import pytest

from circperm.algebra import eval_recurrence, min_recurrence
from circperm.circulant import parse_spec
from circperm.errors import CollisionError, InconsistencyError
from circperm.extensions import moments_derive, moments_ratio
from circperm.pipeline import derive
from circperm.transfer import sequence
from test_derive_property import (_check_annihilator, _check_linear, _spec,
                                  linear_specs, specs)
from test_eval_property import linear_eval
from test_fit_property import fraction_min_recurrence, planted_within_bound

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _form(values):
    """Each value is an int or a Fraction that is not whole."""
    values = list(values)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values), values


def _check(values, reference):
    """The values take the exact form and equal the reference."""
    values = list(values)
    _form(values)
    assert values == list(reference)


def _check_eval(rec):
    """eval_recurrence below the base (when the trailing coefficient lets it
    run backward) and above it, against the term-by-term loop on the
    recurrence's Fraction copy."""
    ref = replace(rec, coeffs=tuple(map(Fraction, rec.coeffs)),
                  initials=tuple(map(Fraction, rec.initials)))
    below = range(rec.base - 3, rec.base) if rec.coeffs[-1] else ()
    for n in [*below, *range(rec.base, rec.base + rec.order + 3), rec.base + 40]:
        _check([eval_recurrence(rec, n)], [linear_eval(ref, n)])


def _check_derive(res):
    """The recurrence is the rational Berlekamp-Massey fit of the terms
    T(n) = T_L(n) / L^size(n) as Fractions, the annihilator the
    Faddeev-LeVerrier product of the rational blocks."""
    rec, system = res.recurrence, res.system
    cap = max(res.annihilator.degree, 1)
    terms = [Fraction(t, system.scale ** res.normalized.size(n)) for n, t in
             enumerate(sequence(system, cap, res.annihilator.chis), res.n0)]
    ref = fraction_min_recurrence(terms, res.n0, cap)
    _check(rec.coeffs, ref.coeffs)
    _check(rec.initials, ref.initials)
    _form(res.annihilator.coeffs)
    _check_annihilator(res)
    g = res.growth
    _form(v for v in (g.dominant_root, g.modulus) if v is not None)
    _check_eval(rec)


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(([0, 1, 3], "1/2,3,-1", 0))     # integral and not
@hypothesis.example(([0, 1, 2], "2,-1,1/2", 0))
@hypothesis.example(([0, 1, 2], "1,1,1", 0))        # unit weights: all ints
def test_constant_derive_values_take_the_exact_form(case):
    _check_derive(derive(_spec(*case)))


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
@hypothesis.given(st.booleans().flatmap(
    lambda weighted: linear_specs(weighted=weighted)))
@hypothesis.example(("0,1n+0", "2n+1", "1/2,3"))
def test_linear_derive_values_take_the_exact_form(case):
    _check_derive(_check_linear(parse_spec(*case)))


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
@hypothesis.given(st.lists(st.integers(-2, 2), min_size=1, max_size=4,
                           unique=True).filter(lambda js: max(js) >= 0))
@hypothesis.example([0])                            # TC_1 / TC_0 = n
@hypothesis.example([-1, 0, 1])
def test_moments_ratio_takes_the_exact_form(jumps):
    """Raw jumps of width <= 4, one of them non-negative, as moments need."""
    res = moments_derive(_spec(sorted(jumps), None), 1)
    for rec in res.recurrences.values():
        _form(rec.coeffs)
        _check_eval(rec)
    for n in [*range(max(res.n0, 1), res.n0 + 6), 57]:
        try:
            ratio = moments_ratio(res, n)
        except (CollisionError, InconsistencyError):
            continue
        tc1, tc0 = (linear_eval(res.recurrences[i], n) for i in (1, 0))
        _check([ratio], [Fraction(tc1, tc0)])


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(planted_within_bound())
def test_fit_values_take_the_exact_form(case):
    terms, bound = case
    rec = min_recurrence(terms, 3, bound)
    ref = fraction_min_recurrence(terms, 3, bound)
    _check(rec.coeffs, ref.coeffs)
    _check(rec.initials, ref.initials)
    _check_eval(rec)
