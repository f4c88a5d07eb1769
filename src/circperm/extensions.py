"""Transfer derivations beyond plain counting: cycle-count moments TC_i and
Hamiltonian-cycle counts for constant-jump circulants with raw jumps.

These quantities are not invariant under cyclic jump shifts (C^0 has one
cycle cover with n cycles, its shift C^1 has one with a single cycle), so
the jumps are taken as given, negative values included.

The classification alone cannot count cycles, so a state is the start->end
pairing of its open paths.  Starts are the in-degree-0 window slots (L+ and
R-), ends the out-degree-0 ones (L- and R+), so every window vertex's degree
bit is whether its slot appears in the pairing.  `SignedModel.seed_counts`
steps that transfer from the empty lattice up to the base size n0, so a seed
costs its states, not its covers; `SignedModel.walk` then expands and
completes each reachable state once, and each derivation compiles the
result into `transfer.pull_rows` for `transfer.iterate`, which stops
once Berlekamp-Massey has seen bound + r terms.  Moments index by
(state, j), holding m_j = sum over covers of (#closed cycles)^j, so
closing c new cycles is the binomial map m'_t = sum_j C(t,j) c^(t-j) m_j;
tours route each edge that closes the last open path to one sink state.
Correctness rests on oracle equivalence with exhaustive enumeration, not on
any printed formula.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

from .algebra import Recurrence, eval_recurrence, exact, min_recurrence
from .budget import Budget
from .circulant import CirculantSpec, jump_residues
from .errors import InconsistencyError, StateBudgetError
from .lattice import check_width, decompose
from .pipeline import check_eval
from .transfer import iterate, pull_rows

Slot = tuple[str, int]          # ("Lp"|"Lm"|"Rp"|"Rm", offset)
# A pairing-transfer state: its open paths as (start slot, end slot).  An
# isolated window vertex is a zero-length path pairing its own two slots.
Pairing = frozenset[tuple[Slot, Slot]]


class SignedModel:
    """Transition/completion machinery for one raw constant-jump set."""

    def __init__(self, spec: CirculantSpec, analysis: str, budget: Budget):
        """`analysis` names what is derived ("cycle moments", ...) in the
        refusal of a weighted spec; a window wider than the budget's
        transfer width cap is refused before any lattice is built."""
        if not spec.constant:
            raise InconsistencyError("raw-jump analyses need a constant-jump spec")
        if not spec.trace.trivial:
            raise InconsistencyError(
                "raw-jump analyses are not shift-invariant; pass the un-normalized spec")
        if spec.weighted:
            raise InconsistencyError(f"{analysis} are defined for unweighted specs")
        jumps = [s for _, s in spec.jumps]
        if not any(t >= 0 for t in jumps):
            raise InconsistencyError("need at least one non-negative jump")
        self.spec = spec
        self.jumps = jumps
        check_width(spec, budget.transfer_max_width, spec.describe())
        dec = decompose(spec)
        self.s_plus, self.s_minus, self.n0 = dec.s_plus, dec.s_minus, dec.n0
        self.bar_s = dec.bar_s
        self._steps: dict[Pairing, list[tuple[Pairing, int]]] = {}
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

    # -- extension ---------------------------------------------------------

    def transitions(self, state: Pairing, n: int) -> list[tuple[Pairing, int]]:
        """All legal ways to add vertex n to a state of L_n, as (new state,
        cycles closed).  From n = bar_s on they depend on the state alone,
        so they are computed once per state."""
        steady = n >= self.bar_s
        if steady and state in self._steps:
            return self._steps[state]
        out = []
        for in_t in [None] + self.in_jumps:
            for out_t in [None] + self.out_jumps:
                if in_t == 0 and out_t is not None:
                    continue  # the self-loop already spends n's out-degree
                res = self._apply(state, n, in_t, out_t)
                if res is not None:
                    out.append(res)
        if steady:
            self._steps[state] = out
        return out

    def seed_counts(self, max_states: int, what: str,
                    tours: bool = False) -> dict[tuple[Pairing, int], int]:
        """The legal covers of the base lattice L_{n0} counted per (pairing,
        closed-cycle count), by stepping `transitions` from the empty
        lattice over n = 0 .. n0 - 1.  A step holding more than max_states
        pairings raises StateBudgetError(`what`).  With `tours` only the
        covers that closed no cycle are states; one that closed a single
        cycle and left no open path is kept under (empty pairing, 1)
        without counting as a state, and every other cover is dropped at
        the step that closes its cycle."""
        counts: dict[tuple[Pairing, int], int] = {(frozenset(), 0): 1}
        for n in range(self.n0):
            held: dict[Pairing, list[tuple[int, int]]] = {}
            for (state, closed), count in counts.items():
                if not (tours and closed):    # a closed tour extends to none
                    held.setdefault(state, []).append((closed, count))
            counts = {}
            pairings: set[Pairing] = set()
            for state, entries in held.items():
                for state2, c in self.transitions(state, n):
                    for closed, count in entries:
                        key = (state2, closed + c)
                        if tours and key[1]:
                            if key[1] > 1 or state2:
                                continue
                        elif state2 not in pairings:
                            if len(pairings) >= max_states:
                                raise StateBudgetError(
                                    f"{what}: more than {max_states} pairing "
                                    "states reachable")
                            pairings.add(state2)
                        counts[key] = counts.get(key, 0) + count
        return counts

    def walk(self, seeds: Iterable[Pairing], max_states: int, what: str):
        """Number the states reachable from `seeds`, seeds first, expanding
        and completing each once: (state -> number, every extension as
        (src, dst, cycles closed), each state's `completion_orbit_counts`).
        Raises StateBudgetError(`what`) on finding state max_states + 1."""
        index: dict[Pairing, int] = {}
        states: list[Pairing] = []

        def number(st: Pairing) -> int:
            i = index.get(st)
            if i is None:
                if len(states) >= max_states:
                    raise StateBudgetError(
                        f"{what}: more than {max_states} pairing states reachable")
                i = index[st] = len(states)
                states.append(st)
            return i

        for st in seeds:
            number(st)
        edges: list[tuple[int, int, int]] = []
        completions: list[list[int]] = []
        for src, st in enumerate(states):     # the list grows while it is read
            completions.append(self.completion_orbit_counts(st))
            edges += [(src, number(st2), closed)
                      for st2, closed in self.transitions(st, self.n0)]
        return index, edges, completions

    def _apply(self, state: Pairing, n: int, in_t, out_t):
        sp, sm = self.s_plus, self.s_minus
        paths = dict(state)                   # start -> end
        end_of = {e: s for s, e in paths.items()}
        # a hook target must still lack that degree: Rp an end, Rm a start
        if in_t is not None and in_t >= 1 and ("Rp", in_t - 1) not in end_of:
            return None
        if out_t is not None and ("Rm", -out_t - 1) not in paths:
            return None
        # the vertex leaving a right window (n itself when s± = 0) must be
        # degree-complete, unless it lies in the matching left window, which
        # happens only while n < bar_s
        if sm == 0 and in_t is None and n >= sp:                  # in-degree
            return None
        if sp == 0 and (out_t is not None) + (in_t == 0) != 1 and n >= sm:
            return None                                           # out-degree
        if (sp >= 1 and ("Rp", sp - 1) in end_of and in_t != sp
                and n - sp >= sm):
            return None
        if (sm >= 1 and ("Rm", sm - 1) in paths and out_t != -sm
                and n - sm >= sp):
            return None

        closed = 0
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

        pairs = ((shift(s), shift(e)) for s, e in paths.items())
        if n < self.bar_s:        # an open vertex leaving a right window
            left = {("Rp", sp): ("Lm", n - sp), ("Rm", sm): ("Lp", n - sm)}
            pairs = ((left.get(s, s), left.get(e, e)) for s, e in pairs)
        return frozenset(pairs), closed

    # -- completion --------------------------------------------------------

    def completion_orbit_counts(self, state: Pairing) -> list[int]:
        """Orbit counts of every way to glue the open paths shut with Hook
        edges (one list entry per valid Hook subset)."""
        pairs = sorted(state)
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


def _shift_coeff(t: int, j: int, c: int) -> int:
    """Entry (t, j) of the binomial shift m'_t = sum_j C(t,j) c^(t-j) m_j
    that closing c new cycles applies to a moment vector."""
    return comb(t, j) * c ** (t - j)


@dataclass
class MomentsResult:
    spec: CirculantSpec
    n0: int
    state_count: int
    recurrences: dict[int, Recurrence]    # order i -> recurrence of TC_i


def moments_derive(spec: CirculantSpec, i_max: int,
                   budget: Budget = Budget(),
                   ratio_at: Optional[int] = None) -> MomentsResult:
    """Recurrences for the cycle-count moments TC_0..TC_i of a raw
    constant-jump spec, via the pairing-augmented transfer, refusing first
    a `ratio_at` whose TC_0 exceeds the value budget (`check_eval`), then
    an order whose i + 1 moments a state exceed the pairing state cap."""
    if i_max < 0:
        raise InconsistencyError(f"moment order must be >= 0, got {i_max}")
    model = SignedModel(spec, "cycle moments", budget)
    if ratio_at is not None:
        check_eval(spec, ratio_at, budget, "TC_0")
    k = i_max + 1
    if k > budget.pairing_state_cap:
        raise StateBudgetError(
            f"moment order {i_max} needs {k} moments a pairing state, "
            f"above the augmented dimension cap {budget.pairing_state_cap}")
    cap = budget.pairing_state_cap // k
    what = f"augmented dimension states*{k} exceeds cap {budget.pairing_state_cap}"
    covers = model.seed_counts(cap, what)
    index, edges, completions = model.walk(
        (st for st, _ in covers), cap, what)
    dim = len(index) * k          # the (state, j) pairs and the order cap

    start = [0] * dim
    for (state, closed), count in covers.items():
        for t in range(k):
            start[index[state] * k + t] += count * closed ** t
    rows = pull_rows(((dst * k + t, src * k + j, _shift_coeff(t, j, c))
                      for src, dst, c in edges
                      for t in range(k) for j in range(t + 1)), dim)
    outputs = [[sum(_shift_coeff(i, j, o) for o in orbits) if j <= i else 0
                for orbits in completions for j in range(k)]
               for i in range(k)]

    terms = iterate(rows, start, outputs, dim)
    recs = {i: min_recurrence(terms[i], model.n0, dim) for i in range(k)}
    return MomentsResult(spec, model.n0, len(index), recs)


def moments_ratio(result: MomentsResult, n: int) -> Fraction | int:
    """Exact expected cycle count TC_1(n)/TC_0(n) of a uniformly random
    restricted permutation of `result`'s spec, derived to order >= 1."""
    jump_residues(result.spec, n)     # refuses sizes <= 0 and colliding jumps
    tc1 = eval_recurrence(result.recurrences[1], n)
    tc0 = eval_recurrence(result.recurrences[0], n)
    if tc0 == 0:
        raise InconsistencyError(f"no cycle covers at n={n}: E[#cycles] undefined")
    return exact(tc1, tc0)


@dataclass
class HamiltonianResult:
    spec: CirculantSpec
    n0: int
    state_count: int
    recurrence: Recurrence
    lattice_cycle_events: list[tuple[int, int]] = field(default_factory=list)
    # (n, count) whenever a cover became a Hamiltonian cycle of L_n itself


def hamiltonian_derive(spec: CirculantSpec,
                       budget: Budget = Budget()) -> HamiltonianResult:
    """Recurrence for the number of Hamiltonian cycles, via the cycle-free
    (legal tour) pairing transfer; acceptance requires the hook gluing to
    form a single orbit covering every path."""
    model = SignedModel(spec, "Hamiltonian cycle counts", budget)
    cap = budget.pairing_state_cap - 1
    what = f"tour state count states+1 exceeds cap {budget.pairing_state_cap}"
    covers = model.seed_counts(cap, what, tours=True)
    # one cycle and no open path: all degrees complete, straight to the sink
    whole = covers.pop((frozenset(), 1), 0)
    index, edges, completions = model.walk(
        (st for st, _ in covers), cap, what)
    states = list(index)
    sink = len(states)            # tours that closed over all of L_n

    start = [0] * (sink + 1)
    for (state, _), count in covers.items():
        start[index[state]] += count
    start[sink] = whole
    # a step that closes a cycle keeps a tour only if no open path is left
    rows = pull_rows(((dst if closed == 0 else sink, src, 1)
                      for src, dst, closed in edges
                      if closed == 0 or not states[dst]), sink + 1)
    tours = [sum(1 for o in orbits if o == 1) for orbits in completions] + [1]
    at_sink = [0] * sink + [1]

    terms, sunk = iterate(rows, start, [tours, at_sink], sink + 1)
    events = [(n, c) for n, c in enumerate(sunk, start=model.n0) if c]
    rec = min_recurrence(terms, model.n0, sink + 1)
    return HamiltonianResult(spec, model.n0, sink, rec, events)
