"""Transfer derivations beyond plain counting: cycle-count moments TC_i and
Hamiltonian-cycle counts for constant-jump circulants with raw jumps.

These quantities are not invariant under cyclic jump shifts (C^0 has one
cycle cover with n cycles, its shift C^1 has one with a single cycle), so
the jumps are taken as given, negative values included.  Boundary profiles
follow the signed four-tuple form: in-degree bits over L+ and R-, out-degree
bits over L- and R+.

The classification alone cannot count cycles; each state additionally
carries the start<->end pairing of its open paths, and the per-state value
is the vector of moment sums over covers in that state (m_j = sum of
(#closed cycles)^j), so that closing c new cycles is the linear binomial map
m'_t = sum_j C(t,j) c^(t-j) m_j.  Correctness rests on oracle equivalence
with exhaustive enumeration, not on any printed formula.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

from .algebra import (Recurrence, eval_recurrence, fit_term_count,
                      min_recurrence)
from .budget import Budget, default_budget
from .circulant import CirculantSpec, jump_residues
from .errors import InconsistencyError, StateBudgetError
from .lattice import decompose
from .oracle import enumerate_legal_covers

Slot = tuple[str, int]          # ("Lp"|"Lm"|"Rp"|"Rm", offset)
Pairing = frozenset[tuple[Slot, Slot]]


@dataclass(frozen=True)
class PairingState:
    """Signed boundary profile plus the open-path start->end pairing.

    Starts are the in-degree-0 slots (Lp/Rm zeros), ends the out-degree-0
    slots (Lm/Rp zeros); an isolated boundary vertex is a zero-length path
    pairing its own two slots.
    """

    lp: tuple[int, ...]   # in-degree bits of 0..s_plus-1
    lm: tuple[int, ...]   # out-degree bits of 0..s_minus-1
    rp: tuple[int, ...]   # out-degree bits of n-1-j, j < s_plus
    rm: tuple[int, ...]   # in-degree bits of n-1-j, j < s_minus
    pairing: Pairing

    def check(self):
        starts = {s for s, _ in self.pairing}
        ends = {e for _, e in self.pairing}
        want_starts = ({("Lp", i) for i, b in enumerate(self.lp) if b == 0}
                       | {("Rm", j) for j, b in enumerate(self.rm) if b == 0})
        want_ends = ({("Lm", i) for i, b in enumerate(self.lm) if b == 0}
                     | {("Rp", j) for j, b in enumerate(self.rp) if b == 0})
        if starts != want_starts or ends != want_ends or len(self.pairing) != len(starts):
            raise InconsistencyError(f"inconsistent pairing state {self}")


class SignedModel:
    """Transition/completion machinery for one raw constant-jump set."""

    def __init__(self, spec: CirculantSpec):
        if not spec.constant:
            raise InconsistencyError("raw-jump analyses need a constant-jump spec")
        if not spec.trace.trivial:
            raise InconsistencyError(
                "raw-jump analyses are not shift-invariant; pass the un-normalized spec")
        if spec.weighted:
            raise InconsistencyError("cycle moments are defined for unweighted specs")
        jumps = [s for _, s in spec.jumps]
        if not any(t >= 0 for t in jumps):
            raise InconsistencyError("need at least one non-negative jump")
        self.spec = spec
        self.jumps = jumps
        self.s_plus = max([t for t in jumps if t >= 0], default=0)
        self.s_minus = max([-t for t in jumps if t < 0], default=0)
        self.n0 = 2 * (self.s_plus + self.s_minus)
        dec = decompose(spec)
        self.in_jumps = sorted(t for t in jumps if t >= 0)
        self.out_jumps = sorted(t for t in jumps if t < 0)
        # hook edges as (end slot, start slot) gluing pairs, from the verified
        # symbolic decomposition
        self.hook_pairs: set[tuple[Slot, Slot]] = set()
        for e in dec.hook:
            if e.tail.anchor == "R":
                pair = (("Rp", e.tail.offset), ("Lp", e.head.offset))
            else:
                pair = (("Lm", e.tail.offset), ("Rm", e.head.offset))
            self.hook_pairs.add(pair)
        self._transitions: dict[PairingState, list[tuple[PairingState, int]]] = {}

    # -- extension ---------------------------------------------------------

    def transitions(self, state: PairingState) -> list[tuple[PairingState, int]]:
        """All legal one-column extensions as (new state, cycles closed)."""
        cached = self._transitions.get(state)
        if cached is None:
            cached = []
            for in_t in [None] + self.in_jumps:
                for out_t in [None] + self.out_jumps:
                    if in_t == 0 and out_t is not None:
                        continue  # the self-loop already spends n's out-degree
                    res = self._apply(state, in_t, out_t)
                    if res is not None:
                        cached.append(res)
            self._transitions[state] = cached
        return cached

    def _apply(self, state: PairingState, in_t, out_t):
        sp, sm = self.s_plus, self.s_minus
        if in_t is not None and in_t >= 1 and state.rp[in_t - 1] != 0:
            return None
        if out_t is not None and state.rm[-out_t - 1] != 0:
            return None
        indeg_n = 1 if in_t is not None else 0
        outdeg_n = (1 if out_t is not None else 0) + (1 if in_t == 0 else 0)
        if sm == 0 and indeg_n != 1:
            return None
        if sp == 0 and outdeg_n != 1:
            return None
        # vertices leaving the right windows must be degree-complete
        if sp >= 1 and state.rp[sp - 1] + (1 if in_t == sp else 0) != 1:
            return None
        if sm >= 1 and state.rm[sm - 1] + (1 if out_t == -sm else 0) != 1:
            return None

        closed = 0
        paths = dict(state.pairing)          # start -> end
        end_of = {e: s for s, e in paths.items()}
        NEW_END, NEW_START = ("new", 0), ("new", 1)
        if in_t == 0:
            closed = 1                        # self-loop at the new vertex
        else:
            if in_t is not None:
                s = end_of.pop(("Rp", in_t - 1))
                paths[s] = NEW_END
                end_of[NEW_END] = s
            else:
                paths[NEW_START] = NEW_END
                end_of[NEW_END] = NEW_START
            if out_t is not None:
                q_start = ("Rm", -out_t - 1)
                p_start = end_of.pop(NEW_END)
                if p_start == q_start:
                    closed = 1
                    del paths[p_start]
                else:
                    q_end = paths.pop(q_start)
                    paths[p_start] = q_end
                    end_of[q_end] = p_start

        def shift(slot: Slot) -> Slot:
            kind, off = slot
            if kind in ("Rp", "Rm"):
                return (kind, off + 1)
            if kind == "new":
                return ("Rp", 0) if slot == NEW_END else ("Rm", 0)
            return slot

        pairing = frozenset((shift(s), shift(e)) for s, e in paths.items())
        rp = (outdeg_n,) + tuple(state.rp[j] + (1 if in_t == j + 1 else 0)
                                 for j in range(sp - 1))
        rm = (indeg_n,) + tuple(state.rm[j] + (1 if out_t == -(j + 1) else 0)
                                for j in range(sm - 1))
        if sp == 0:
            rp = ()
        if sm == 0:
            rm = ()
        new_state = PairingState(state.lp, state.lm, rp, rm, pairing)
        new_state.check()
        return new_state, closed

    # -- completion --------------------------------------------------------

    def completion_orbit_counts(self, state: PairingState) -> list[int]:
        """Orbit counts of every way to glue the open paths shut with Hook
        edges (one list entry per valid Hook subset)."""
        pairs = sorted(state.pairing)
        ends = [e for _, e in pairs]
        start_index = {s: i for i, (s, _) in enumerate(pairs)}
        results: list[int] = []
        succ = [0] * len(pairs)
        used: set[Slot] = set()

        def rec(i: int):
            if i == len(pairs):
                seen = [False] * len(pairs)
                orbits = 0
                for j in range(len(pairs)):
                    if not seen[j]:
                        orbits += 1
                        k = j
                        while not seen[k]:
                            seen[k] = True
                            k = succ[k]
                results.append(orbits)
                return
            e = ends[i]
            for s, idx in start_index.items():
                if s not in used and (e, s) in self.hook_pairs:
                    used.add(s)
                    succ[i] = idx
                    rec(i + 1)
                    used.remove(s)

        rec(0)
        return results

    # -- initialization ----------------------------------------------------

    def initial_covers(self):
        """Legal covers of the base lattice with their state, pairing and
        closed-cycle count, by exhaustive enumeration."""
        n = self.n0
        verts = list(range(n))
        edges = [(i, i + t, t) for i in verts for t in self.jumps
                 if 0 <= i + t <= n - 1]
        in_free = ({v for v in verts if v < self.s_plus}
                   | {v for v in verts if n - 1 - v < self.s_minus})
        out_free = ({v for v in verts if v < self.s_minus}
                    | {v for v in verts if n - 1 - v < self.s_plus})
        for cover in enumerate_legal_covers(verts, edges, in_free, out_free):
            nxt = {t: h for t, h, _ in cover}
            indeg = {v: 0 for v in verts}
            for _, h, _ in cover:
                indeg[h] += 1
            closed = 0
            visited = set()
            pairing = set()
            for v in verts:
                if indeg[v] == 0:
                    start = v
                    w = v
                    while w in nxt:
                        visited.add(w)
                        w = nxt[w]
                    visited.add(w)
                    pairing.add((self._start_slot(start, n), self._end_slot(w, n)))
            for v in verts:
                if v not in visited:
                    closed += 1
                    w = v
                    while w not in visited:
                        visited.add(w)
                        w = nxt[w]
            lp = tuple(min(indeg[v], 1) for v in range(self.s_plus))
            lm = tuple(1 if v in nxt else 0 for v in range(self.s_minus))
            rp = tuple(1 if (n - 1 - j) in nxt else 0 for j in range(self.s_plus))
            rm = tuple(min(indeg[n - 1 - j], 1) for j in range(self.s_minus))
            state = PairingState(lp, lm, rp, rm, frozenset(pairing))
            state.check()
            yield state, closed

    def _start_slot(self, v: int, n: int) -> Slot:
        if v < self.s_plus:
            return ("Lp", v)
        if n - 1 - v < self.s_minus:
            return ("Rm", n - 1 - v)
        raise InconsistencyError(f"in-deficient vertex {v} off the boundary")

    def _end_slot(self, v: int, n: int) -> Slot:
        if v < self.s_minus:
            return ("Lm", v)
        if n - 1 - v < self.s_plus:
            return ("Rp", n - 1 - v)
        raise InconsistencyError(f"out-deficient vertex {v} off the boundary")


def _binomial_shift(m: tuple, c: int) -> tuple:
    """Moment vector after c new closed cycles: m'_t = sum_j C(t,j) c^(t-j) m_j."""
    if c == 0:
        return m
    return tuple(sum(comb(t, j) * (c ** (t - j)) * m[j] for j in range(t + 1))
                 for t in range(len(m)))


@dataclass
class MomentsResult:
    spec: CirculantSpec
    i_max: int
    n0: int
    state_count: int
    terms: dict[int, list[int]]       # order i -> TC_i(n0), TC_i(n0+1), ...
    recurrences: dict[int, Recurrence]

    def recurrence(self, i: Optional[int] = None) -> Recurrence:
        return self.recurrences[self.i_max if i is None else i]


def _reachable_states(model: SignedModel, seeds: Iterable[PairingState]) -> list[PairingState]:
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for st in frontier:
            for st2, _ in model.transitions(st):
                if st2 not in seen:
                    seen.add(st2)
                    nxt.append(st2)
        frontier = nxt
    return sorted(seen, key=repr)


def moments_derive(spec: CirculantSpec, i_max: int,
                   budget: Optional[Budget] = None) -> MomentsResult:
    """Recurrences for the cycle-count moments TC_0..TC_i of a raw
    constant-jump spec, via the pairing-augmented transfer."""
    if i_max < 0:
        raise InconsistencyError(f"moment order must be >= 0, got {i_max}")
    budget = budget or default_budget()
    model = SignedModel(spec)
    values: dict[PairingState, tuple] = {}
    zero = tuple(0 for _ in range(i_max + 1))
    for state, closed in model.initial_covers():
        m = tuple(closed ** t for t in range(i_max + 1))
        values[state] = tuple(a + b for a, b in zip(values.get(state, zero), m))

    states = _reachable_states(model, values.keys())
    dim = len(states) * (i_max + 1)
    if dim > budget.pairing_state_cap:
        raise StateBudgetError(
            f"augmented dimension {dim} exceeds cap {budget.pairing_state_cap}")

    cap = dim
    terms: dict[int, list[int]] = {i: [] for i in range(i_max + 1)}
    for step in range(fit_term_count(cap)):
        if step:
            new_vals: dict[PairingState, tuple] = {}
            for st, m in values.items():
                for st2, closed in model.transitions(st):
                    shifted = _binomial_shift(m, closed)
                    cur = new_vals.get(st2, zero)
                    new_vals[st2] = tuple(a + b for a, b in zip(cur, shifted))
            values = new_vals
        for i in range(i_max + 1):
            total = 0
            for st, m in values.items():
                for orbits in model.completion_orbit_counts(st):
                    total += sum(comb(i, j) * orbits ** (i - j) * m[j]
                                 for j in range(i + 1))
            terms[i].append(total)

    recs = {i: min_recurrence(terms[i], model.n0, cap)
            for i in range(i_max + 1)}
    return MomentsResult(spec, i_max, model.n0, len(states), terms, recs)


def moments_ratio(spec: CirculantSpec, n: int,
                  budget: Optional[Budget] = None,
                  result: Optional[MomentsResult] = None) -> Fraction:
    """Exact expected cycle count TC_1(n)/TC_0(n) of a uniformly random
    restricted permutation."""
    jump_residues(spec, n)     # refuses sizes <= 0 and colliding jumps
    result = result or moments_derive(spec, 1, budget)
    tc1 = eval_recurrence(result.recurrences[1], n)
    tc0 = eval_recurrence(result.recurrences[0], n)
    if tc0 == 0:
        raise InconsistencyError(f"no cycle covers at n={n}: E[#cycles] undefined")
    return Fraction(tc1, tc0)


@dataclass
class HamiltonianResult:
    spec: CirculantSpec
    n0: int
    state_count: int
    terms: list[int]
    recurrence: Recurrence
    lattice_cycle_events: list[tuple[int, int]] = field(default_factory=list)
    # (n, count) whenever a cover became a Hamiltonian cycle of L_n itself


def hamiltonian_derive(spec: CirculantSpec,
                       budget: Optional[Budget] = None) -> HamiltonianResult:
    """Recurrence for the number of Hamiltonian cycles, via the cycle-free
    (legal tour) pairing transfer; acceptance requires the hook gluing to
    form a single orbit covering every path."""
    budget = budget or default_budget()
    model = SignedModel(spec)
    values: dict[PairingState, int] = {}
    events: list[tuple[int, int]] = []
    ham_l_n = 0  # covers that are Hamiltonian cycles of the lattice itself
    for state, closed in model.initial_covers():
        if closed == 0:
            values[state] = values.get(state, 0) + 1
        elif closed == 1 and not state.pairing and all(
                all(b == 1 for b in bits) for bits in (state.lp, state.lm, state.rp, state.rm)):
            ham_l_n += 1

    states = _reachable_states(model, values.keys())
    dim = len(states) + 1
    if dim > budget.pairing_state_cap:
        raise StateBudgetError(
            f"tour state count {dim} exceeds cap {budget.pairing_state_cap}")

    cap = dim
    terms: list[int] = []
    n = model.n0
    for step in range(fit_term_count(cap)):
        if step:
            new_vals: dict[PairingState, int] = {}
            new_ham_l = 0
            for st, cnt in values.items():
                for st2, closed in model.transitions(st):
                    if closed == 0:
                        new_vals[st2] = new_vals.get(st2, 0) + cnt
                    elif not st2.pairing:
                        new_ham_l += cnt   # the single path closed over everything
            values = new_vals
            ham_l_n = new_ham_l
            n += 1
        total = ham_l_n
        for st, cnt in values.items():
            total += cnt * sum(1 for o in model.completion_orbit_counts(st) if o == 1)
        if ham_l_n:
            events.append((n, ham_l_n))
        terms.append(total)

    rec = min_recurrence(terms, model.n0, cap)
    return HamiltonianResult(spec, model.n0, len(states), terms, rec, events)
