"""Pairing-augmented transfer: cycle moments and Hamiltonian counting, all
cross-validated against exhaustive enumeration."""
from fractions import Fraction
from itertools import combinations

import pytest

from circperm.algebra import eval_recurrence
from circperm.budget import Budget
from circperm.circulant import normalize, parse_spec
from circperm.errors import InconsistencyError, StateBudgetError
from circperm.extensions import (SignedModel, _shift_coeff, hamiltonian_derive,
                                 moments_derive, moments_ratio)
from circperm.oracle import brute_hamiltonian, enumerate_stats
from circperm.pipeline import derive
from circperm.transfer import iterate
from covers import seed_reference


@pytest.mark.parametrize("jumps", ["0,1,2", "-1,0,1", "1,2", "-1,2", "-2,1", "0"])
def test_moments_match_enumeration(jumps):
    spec = parse_spec(jumps)
    res = moments_derive(spec, 2)
    for n in range(res.n0, 11):
        st = enumerate_stats(spec, n, 2)
        for i in range(3):
            assert (eval_recurrence(res.recurrences[i], n)
                    == st.moment_sums[i]), (jumps, n, i)


def test_zeroth_moment_is_the_permanent(derived):
    res = moments_derive(parse_spec("-1,0,1"), 0)
    plain = derived("-1,0,1")
    for n in range(4, 4 + 12):
        assert eval_recurrence(res.recurrences[0], n) == plain.raw_term(n)


def test_moment_shift_is_a_monoid_action():
    def shift(m, c):
        return tuple(sum(_shift_coeff(t, j, c) * m[j] for j in range(t + 1))
                     for t in range(len(m)))

    m = (3, 5, 11, 29)
    assert shift(m, 0) == m
    for c1 in range(3):
        for c2 in range(3):
            assert shift(shift(m, c1), c2) == shift(m, c1 + c2)


def test_table2_rows():
    res = moments_derive(parse_spec("-1,0,1"), 1)
    rec = res.recurrences[1]
    assert [eval_recurrence(rec, n) for n in range(4, 9)] == [22, 42, 80, 149, 274]
    assert rec.order == 5 and [int(c) for c in rec.coeffs] == [3, -1, -3, 1, 1]

    res = moments_derive(parse_spec("0,1,2"), 1)
    rec = res.recurrences[1]
    assert ([eval_recurrence(rec, n) for n in range(4, 11)]
            == [21, 32, 56, 93, 161, 275, 475])
    assert rec.order == 7 and [int(c) for c in rec.coeffs] == [3, 0, -6, 2, 4, -1, -1]


def test_self_loop_spec_moment_is_n():
    res = moments_derive(parse_spec("0"), 1)
    for n in (5, 17, 40):
        assert eval_recurrence(res.recurrences[1], n) == n
        assert moments_ratio(res, n) == n


def test_expected_cycles_ratios():
    r = moments_ratio(moments_derive(parse_spec("-1,0,1"), 1), 200)
    assert isinstance(r, Fraction)
    assert abs(float(r / 200) - 0.7236) < 1e-3
    # the {0,1,2} ratio approaches .2764n with a +1 offset; at n=2000 the
    # residual is 5e-4
    r = moments_ratio(moments_derive(parse_spec("0,1,2"), 1), 2000)
    assert abs(float(r / 2000) - 0.2764) < 1e-3


def test_moments_refuse_normalized_specs():
    with pytest.raises(InconsistencyError):
        moments_derive(normalize(parse_spec("-1,0,1")), 1)


def test_state_budget():
    with pytest.raises(StateBudgetError):
        moments_derive(parse_spec("-1,0,1"), 1, Budget(pairing_state_cap=3))


def test_hamiltonian_state_budget():
    # {1,2} has 3 tour states, so the tour dimension is 4
    assert hamiltonian_derive(parse_spec("1,2"), Budget(pairing_state_cap=4))
    with pytest.raises(StateBudgetError):
        hamiltonian_derive(parse_spec("1,2"), Budget(pairing_state_cap=3))


def _count_calls(monkeypatch, name):
    """The states the walk passes to `SignedModel.<name>`.  `transitions`
    also steps the seeds at n < n0; those calls are not recorded."""
    calls = []
    original = getattr(SignedModel, name)

    def counted(self, state, *n):
        if n in ((), (self.n0,)):
            calls.append(state)
        return original(self, state, *n)
    monkeypatch.setattr(SignedModel, name, counted)
    return calls


@pytest.mark.parametrize("derive_fn", [
    lambda spec, budget: hamiltonian_derive(spec, budget),
    lambda spec, budget: moments_derive(spec, 1, budget),
])
def test_refusal_at_the_cap_expands_no_further(monkeypatch, derive_fn):
    # {-2,1,2,5} reaches 9686 tour states; the walk must stop at the cap
    expanded = _count_calls(monkeypatch, "transitions")
    with pytest.raises(StateBudgetError):
        derive_fn(parse_spec("-2,1,2,5"), Budget(pairing_state_cap=8))
    assert len(expanded) <= 8


def test_refusal_while_seeding_stays_bounded(monkeypatch):
    # every seeding step holds at most 63 pairings, so it expands at most 63
    calls = []
    original = SignedModel.transitions

    def counted(self, state, n):
        calls.append(n)
        return original(self, state, n)
    monkeypatch.setattr(SignedModel, "transitions", counted)
    with pytest.raises(StateBudgetError):
        hamiltonian_derive(parse_spec("1,2,3,4,5"), Budget(pairing_state_cap=64))
    assert calls and len(calls) <= 63 * 10        # n0 = 10


SEED_JUMPS = ([c for k in (1, 2, 3) for c in combinations(range(-3, 5), k)]
              + list(combinations(range(-2, 4), 4)) + [(1, 2, 5), (-2, 1, 2, 5)])


@pytest.mark.parametrize("jumps", [",".join(map(str, c)) for c in SEED_JUMPS
                                   if max(c) >= 0])
def test_seeds_match_the_folded_base_covers(jumps):
    """Stepping the transfer from the empty lattice gives the same counts
    per (pairing, cycles closed) as folding every legal cover of L_n0."""
    model = SignedModel(parse_spec(jumps), "seeds", Budget())
    for tours in (False, True):
        assert model.seed_counts(1 << 30, "seeds", tours) == seed_reference(
            model, tours), tours


def test_pairing_transfer_is_compiled_once(monkeypatch):
    # every state is expanded and completed once, not once per step
    expanded = _count_calls(monkeypatch, "transitions")
    completed = _count_calls(monkeypatch, "completion_orbit_counts")
    res = hamiltonian_derive(parse_spec("1,4"))
    assert res.state_count == 50
    assert len(expanded) == len(completed) == res.state_count
    assert len(set(expanded)) == res.state_count


@pytest.mark.parametrize("jumps, tours, moments", [
    ("-1,0,1", (2, 1), (6, 5)),
    ("-2,0,1", (12, 4), (21, 14)),
    ("-1,1,2", (12, 5), (21, 11)),
    ("-3,-1,0", (18, 6), (31, 19)),
])
def test_signed_jump_state_counts(jumps, tours, moments):
    # (state count, recurrence order) with s_minus > 0, so `_apply` also
    # steps the Rm side of the window
    ham = hamiltonian_derive(parse_spec(jumps))
    assert (ham.state_count, ham.recurrence.order) == tours
    mom = moments_derive(parse_spec(jumps), 1)
    assert (mom.state_count, mom.recurrences[1].order) == moments


@pytest.mark.parametrize("jumps", ["1,2", "0,1,2", "-1,0,1", "-1,2", "-2,1", "2"])
def test_hamiltonian_matches_brute_force(jumps):
    spec = parse_spec(jumps)
    res = hamiltonian_derive(spec)
    for n in range(res.n0, 16):
        assert (eval_recurrence(res.recurrence, n)
                == brute_hamiltonian(spec, n)), (jumps, n)


def test_hamiltonian_single_jump():
    res = hamiltonian_derive(parse_spec("1"))
    assert res.recurrence.order == 1 and res.recurrence.coeffs == (Fraction(1),)
    assert res.recurrence.initials == (1,)


def test_hamiltonian_ignores_self_loops(derived):
    a = hamiltonian_derive(parse_spec("0,1,2"))
    b = hamiltonian_derive(parse_spec("1,2"))
    assert a.recurrence == b.recurrence


def test_lattice_hamiltonian_event_channel():
    # the lone self-loop cover of C^0 is a Hamiltonian cycle of L_1 itself:
    # the one case where a tour closes without any hook edge
    res = hamiltonian_derive(parse_spec("0"))
    assert res.n0 == 0
    assert (1, 1) in res.lattice_cycle_events
    assert [eval_recurrence(res.recurrence, n) for n in (0, 1)] == [0, 1]
    for n in range(2, 8):
        assert eval_recurrence(res.recurrence, n) == 0 == brute_hamiltonian(
            parse_spec("0"), n)


def test_weighted_derive_single_loop_powers():
    res = derive(parse_spec("0", weights="5/2"))
    rec = res.recurrence
    assert rec.order == 1 and rec.coeffs == (Fraction(5, 2),)
    assert res.term(4) == Fraction(5, 2) ** 4


def test_weighted_derive_unit_weights_identical(derived):
    plain = derived("0,1,2")
    unit = derive(parse_spec("0,1,2", weights="1,1,1"))
    assert list(map(Fraction, plain.recurrence.coeffs)) == list(unit.recurrence.coeffs)
    assert unit.recurrence.initials == plain.recurrence.initials


def _steps(monkeypatch) -> list[int]:
    """Record how many terms each `iterate` call of the engines steps."""
    from circperm import extensions
    seen = []

    def counted(rows, start, outputs, bound):
        terms = iterate(rows, start, outputs, bound)
        seen.append(len(terms[0]))
        return terms

    monkeypatch.setattr(extensions, "iterate", counted)
    return seen


def test_moments_of_0_1_5_stop_at_the_bound_plus_the_order(monkeypatch):
    """631 states and two moments make the bound 1262; the fit needs 1262
    + 97 terms for TC_1, not the 2 * 1262 an order-blind stop would take."""
    steps = _steps(monkeypatch)
    spec = parse_spec("0,1,5")
    res = moments_derive(spec, 1)
    assert res.state_count == 631 and steps == [1262 + 97]
    assert [res.recurrences[i].order for i in (0, 1)] == [27, 97]
    for n in range(res.n0, Budget().enum_max_size + 1):
        st = enumerate_stats(spec, n, 1)
        assert [eval_recurrence(res.recurrences[i], n) for i in (0, 1)] == list(
            st.moment_sums), n


def test_hamiltonian_of_1_2_5_stops_at_the_bound_plus_the_order(monkeypatch):
    steps = _steps(monkeypatch)
    spec = parse_spec("1,2,5")
    res = hamiltonian_derive(spec)
    assert (res.state_count, res.recurrence.order) == (530, 62)
    assert steps == [531 + 62]
    assert res.lattice_cycle_events == []
    for n in range(res.n0, Budget().enum_max_size + 1):
        assert eval_recurrence(res.recurrence, n) == brute_hamiltonian(spec, n), n
