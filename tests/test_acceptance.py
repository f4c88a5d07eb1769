"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two deliberate deviations from the published tables are pinned at the end as
strict xfails rather than silently patched: the printed T(6)=12 for {0,1,2}
(the worked example's own transfer data, Ryser, and exhaustive enumeration
all give 20), and the {0,1,2} cycle-moment ratio read at n=200 (the ratio
carries a +1/n correction, putting it 5e-3 from its limit there; the stated
1e-3 tolerance holds from n=1000 on).
"""
import copy
import time

import pytest

from circperm import corpus
from circperm.circulant import adjacency_matrix, parse_spec
from circperm.extensions import moments_derive, moments_ratio
from circperm.oracle import enumerate_stats, ryser_permanent
from circperm.pipeline import derive


@pytest.fixture(scope="module")
def get():
    return corpus._derive_cached()


def _assert_all(name, checks, budget_s=None, elapsed=None):
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed and (budget_s is None or elapsed <= budget_s) else "FAIL"
    timing = f" [{elapsed:.2f}s <= {budget_s}s]" if budget_s is not None else ""
    print(f"ACCEPTANCE {name}: {status}{timing}")
    assert not failed, failed
    if budget_s is not None:
        assert elapsed <= budget_s, f"{elapsed:.2f}s over the {budget_s}s budget"


def test_criterion_1_worked_example_golden(get):
    t0 = time.perf_counter()
    fresh = derive(parse_spec("0,1,2"))     # timed cold, not from the cache
    checks = corpus.check_golden_transfer(lambda *a: fresh)
    _assert_all("1 worked-example transfer data (bit-exact)", checks,
                budget_s=1.0, elapsed=time.perf_counter() - t0)


def test_criterion_2_published_recurrences(get):
    t0 = time.perf_counter()
    checks = corpus.check_table1(get)
    _assert_all("2 cycle-cover recurrences and initials", checks,
                budget_s=60.0, elapsed=time.perf_counter() - t0)


def test_criterion_3_oracle_equivalence(get):
    t0 = time.perf_counter()
    checks = corpus.check_oracle_equivalence(get=get, size_cap=20)
    _assert_all("3 recurrence = Ryser = enumeration up to size 20", checks,
                budget_s=300.0, elapsed=time.perf_counter() - t0)


def test_oracle_equivalence_reports_a_wrong_term(get):
    # one corpus spec whose derived T is off by one at raw n = 7
    res = copy.copy(get("1,2"))
    res.raw_term = lambda n: res.term(n) + (n == 7)     # index shift 0
    checks = {label: (ok, detail) for label, ok, detail in
              corpus.check_oracle_equivalence(
                  get=lambda *key: res if key == ("1,2", None) else get(*key),
                  size_cap=13)}
    assert checks["oracle equivalence 1,2"] == (False, "n=7: rec=3 ryser=2 enum=2")
    assert checks["oracle equivalence 1,2,3"] == (True, "10 sizes checked")


def test_criterion_4_degree_bounds(get):
    _assert_all("4 minimal order within the degree bounds",
                corpus.check_degree_bounds(get))


def test_criterion_5_growth_constants(get):
    _assert_all("5 dominant roots to 1e-6", corpus.check_growth(get))


def test_criterion_6_cycle_moments(get):
    _assert_all("6 total-cycle-count rows, enumeration and ratio limits",
                corpus.check_table2())


def test_criterion_7_shift_invariance_and_variance(get):
    _assert_all("7 permanents shift-invariant, TC1 not", corpus.check_shift_pairs(get))


def test_criterion_8_hamiltonian(get):
    _assert_all("8 Hamiltonian counts match brute force and extrapolate",
                corpus.check_hamiltonian())


def test_criterion_9_weighted(get):
    _assert_all("9 weighted pipeline", corpus.check_weighted(get))


def test_startup_smoke_bound():
    t0 = time.perf_counter()
    res = derive(parse_spec("0,1,3"))       # boundary width 3
    elapsed = time.perf_counter() - t0
    ok = res.recurrence.order <= 2 ** 3 - 1
    print(f"ACCEPTANCE smoke (width-3 derivation): "
          f"{'PASS' if ok and elapsed < 10 else 'FAIL'} [{elapsed:.2f}s <= 10s]")
    assert ok and elapsed < 10.0
    for n in range(6, 13):
        assert res.raw_term(n) == ryser_permanent(adjacency_matrix(res.spec, n))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="published table misprint: T(6) for {0,1,2} is 20 "
                          "(beta*A^2*T-bar(4), Ryser, and enumeration agree), "
                          "not the printed 12")
def test_defect_printed_initial_value(get):
    mp = corpus.TABLE1_MISPRINT
    res = get(mp["jumps"])
    assert res.term(mp["n"]) == mp["printed"]


def test_defect_printed_initial_value_is_oracle_refuted():
    mp = corpus.TABLE1_MISPRINT
    spec = parse_spec(mp["jumps"])
    ry = ryser_permanent(adjacency_matrix(spec, mp["n"]))
    en = enumerate_stats(spec, mp["n"]).count
    assert ry == en == mp["actual"] != mp["printed"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the {0,1,2} moment ratio carries a +1/n offset; at "
                          "n=200 it sits 5e-3 from its limit, outside the "
                          "stated 1e-3 (satisfied from n=1000 on)")
def test_defect_ratio_tolerance_at_200():
    r = moments_ratio(moments_derive(parse_spec("0,1,2"), 1), 200)
    assert abs(float(r / 200) - 0.2764) < 1e-3
