"""Assembly and iteration of the transfer system (A, A-bar, B_i, beta, T0).

The full transfer matrix A is diag(A-bar, ..., A-bar) with one copy per left
tuple, so only A-bar is stored; a sparse rendition of A is built once to
verify the block structure (and is what the mutation test scrambles).  A-bar
itself is block diagonal in the zero-count groups B_i, which is both the
degree-bound argument and the work-saver: iteration applies each B_i to its
own slice independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .circulant import CirculantSpec
from .classify import (Bits, ClassOrdering, extend_right, left_slot,
                       right_slot)
from .errors import BlockStructureError, InconsistencyError
from .lattice import Decomposition, lattice_edges, lattice_vertices, row_last
from .oracle import ryser_permanent


def new_edge_choices(dec: Decomposition) -> list[tuple]:
    """All candidate New-edge subsets: exactly one edge into each new vertex
    (the |S'| lemmas), as tuples in new-vertex row order."""
    by_head: list[list] = [[] for _ in range(dec.spec.size_coeff)]
    for e in sorted(dec.new):
        by_head[e.head.row].append(e)
    if any(not c for c in by_head):
        raise InconsistencyError("some new vertex has no incoming New edge")
    return [tuple(combo) for combo in product(*by_head)]


def _subset_weight(spec: CirculantSpec, edges) -> Fraction | int:
    if spec.weights is None:
        return 1
    w = Fraction(1)
    for e in edges:
        w *= spec.weight(e.jump_index)
    return w


@dataclass
class TransferSystem:
    dec: Decomposition
    ordering: ClassOrdering
    a_bar: list[list]                 # dense, [new right pos][old right pos]
    blocks: list[list[list]]          # zero-count blocks, popcount ascending
    beta: list                        # length 4^w, canonical order
    t0: list                          # length 4^w, canonical order
    n0: int
    weighted: bool

    @property
    def w(self) -> int:
        return self.ordering.w

    @property
    def multiplicity(self) -> int:
        """Copies of A-bar on the diagonal of the full A."""
        return 1 << self.w

    def full_a(self) -> dict[tuple[int, int], Fraction | int]:
        """Sparse full transfer matrix under the canonical ordering
        (debug dumps and block verification only)."""
        return build_full_alpha(self.dec, self.ordering)

    def debug_dump(self) -> dict:
        """JSON-ready dump: matrices as row-major decimal-string arrays,
        classifications as packed keys plus bit strings."""

        def s(v):
            return (str(v) if not isinstance(v, Fraction) or v.denominator == 1
                    else f"{v.numerator}/{v.denominator}")

        classes = [self.ordering.at(i) for i in range(len(self.beta))]
        return {
            "n0": self.n0,
            "slot_width": self.w,
            "multiplicity": self.multiplicity,
            "classifications": [
                {"position": i, "key": c.key, "bits": c.bit_string()}
                for i, c in enumerate(classes)],
            "a_bar": [s(v) for row in self.a_bar for v in row],
            "blocks": [[s(v) for row in b for v in row] for b in self.blocks],
            "beta": [s(v) for v in self.beta],
            "t0": [s(v) for v in self.t0],
        }


def build_full_alpha(dec: Decomposition, ordering: ClassOrdering,
                     lefts: Optional[Sequence[Bits]] = None
                     ) -> dict[tuple[int, int], Fraction | int]:
    """Sparse A over full classifications: entry (x, x') counts (weighted)
    the New subsets with extend(x', s) = x, positions per `ordering`.
    `lefts` restricts which left-tuple stripes are materialized."""
    entries: dict[tuple[int, int], Fraction | int] = {}
    choices = new_edge_choices(dec)
    weights = [_subset_weight(dec.spec, c) for c in choices]
    nr = ordering.num_rights
    for left in (ordering.lefts if lefts is None else lefts):
        lbase = ordering.left_pos[left] * nr
        for right in ordering.rights:
            cpos = lbase + ordering.right_pos[right]
            for combo, wgt in zip(choices, weights):
                new_right = extend_right(dec, right, combo)
                if new_right is None:
                    continue
                rpos = lbase + ordering.right_pos[new_right]
                entries[(rpos, cpos)] = entries.get((rpos, cpos), 0) + wgt
    return entries


def verify_block_structure(entries: dict, ordering: ClassOrdering,
                           a_bar: list[list],
                           blocks_checked: Optional[Sequence[int]] = None) -> None:
    """Assert A = diag(A-bar, ..., A-bar) and that A-bar respects the
    zero-count groups; raises BlockStructureError otherwise.  When only a
    stripe of left tuples was materialized, `blocks_checked` names the
    diagonal blocks that must equal A-bar.  Zero-valued entries (a zero
    weight, or weights that cancel) are absent entries."""
    nr = ordering.num_rights
    seen_per_block: dict[int, dict] = {}
    for (r, c), v in entries.items():
        if v == 0:
            continue
        if r // nr != c // nr:
            raise BlockStructureError(
                f"nonzero entry off the diagonal blocks at ({r},{c})")
        seen_per_block.setdefault(r // nr, {})[(r % nr, c % nr)] = v
    expected = {(i, j): a_bar[i][j]
                for i in range(nr) for j in range(nr) if a_bar[i][j] != 0}
    if blocks_checked is None:
        blocks_checked = range(1 << ordering.w)
    for b in blocks_checked:
        if seen_per_block.get(b, {}) != expected:
            raise BlockStructureError(f"diagonal block {b} differs from A-bar")
    group_of = [0] * nr
    for g, (start, size) in enumerate(ordering.group_spans):
        for i in range(start, start + size):
            group_of[i] = g
    for (i, j) in expected:
        if group_of[i] != group_of[j]:
            raise BlockStructureError(
                f"A-bar entry ({i},{j}) crosses zero-count groups")


# full-A materialization is O(4^w); past this many left tuples the diagonal
# structure is verified on a deterministic stripe instead of all of them
_FULL_CHECK_LEFTS = 256


def build_alpha(dec: Decomposition,
                ordering: Optional[ClassOrdering] = None) -> tuple[list[list], list[list[list]]]:
    """A-bar (dense, right-tuple positions) plus its zero-count blocks B_i,
    with the full-A block structure verified under the canonical ordering."""
    ordering = ordering or ClassOrdering(dec.slot_width)
    nr = ordering.num_rights
    a_bar = [[0] * nr for _ in range(nr)]
    choices = new_edge_choices(dec)
    weights = [_subset_weight(dec.spec, c) for c in choices]
    for right in ordering.rights:
        c = ordering.right_pos[right]
        for combo, wgt in zip(choices, weights):
            new_right = extend_right(dec, right, combo)
            if new_right is not None:
                a_bar[ordering.right_pos[new_right]][c] += wgt
    if len(ordering.lefts) <= _FULL_CHECK_LEFTS:
        lefts = ordering.lefts
    else:
        step = len(ordering.lefts) // _FULL_CHECK_LEFTS
        lefts = ordering.lefts[::step]
    verify_block_structure(build_full_alpha(dec, ordering, lefts), ordering,
                           a_bar, [ordering.left_pos[t] for t in lefts])
    blocks = [[[a_bar[i][j] for j in range(start, start + size)]
               for i in range(start, start + size)]
              for start, size in ordering.group_spans]
    return a_bar, blocks


def build_beta(dec: Decomposition,
               ordering: Optional[ClassOrdering] = None) -> list:
    """beta[X] = (weighted) number of Hook subsets completing X, computed as
    the permanent of the bipartite matrix over the zero slots."""
    ordering = ordering or ClassOrdering(dec.slot_width)
    hook_map: dict[tuple[int, int], Fraction | int] = {}
    for e in dec.hook:
        key = (right_slot(dec, e.tail), left_slot(dec, e.head))
        hook_map[key] = hook_map.get(key, 0) + (
            dec.spec.weight(e.jump_index) if dec.spec.weights is not None else 1)
    w = dec.slot_width
    beta = []
    for left in ordering.lefts:
        lz = [i for i in range(w) if left[i] == 0]
        for right in ordering.rights:
            rz = [i for i in range(w) if right[i] == 0]
            if len(lz) != len(rz):
                beta.append(0)
                continue
            m = [[hook_map.get((b, a), 0) for a in lz] for b in rz]
            beta.append(ryser_permanent(m, max_dim=None))
    return beta


def build_initial(dec: Decomposition,
                  ordering: Optional[ClassOrdering] = None) -> list:
    """T0[X] = (weighted) count of legal covers of L_{n0} with classification
    X, via the permanent of the pairing graph G_X (Ryser)."""
    ordering = ordering or ClassOrdering(dec.slot_width)
    spec = dec.spec
    n0 = dec.n0
    verts = lattice_vertices(spec, n0)
    vindex = {v: i for i, v in enumerate(verts)}
    dim = len(verts)
    edges = sorted(lattice_edges(spec, n0))
    left_v = [(s.row, s.offset) for s in dec.boundaries.left]
    right_v = [(s.row, row_last(spec, n0, s.row) - s.offset)
               for s in dec.boundaries.right]
    w = dec.slot_width

    t0 = []
    for left in ordering.lefts:
        lz = [i for i in range(w) if left[i] == 0]
        for right in ordering.rights:
            rz = [i for i in range(w) if right[i] == 0]
            if len(lz) != len(rz):
                t0.append(0)
                continue
            forced_in = {left_v[i] for i in lz}
            forced_out = {right_v[i] for i in rz}
            m = [[0] * dim for _ in range(dim)]
            for tail, head, idx in edges:
                if head in forced_in or tail in forced_out:
                    continue
                m[vindex[tail]][vindex[head]] = (
                    spec.weight(idx) if spec.weights is not None else 1)
            for b, a in zip(rz, lz):
                m[vindex[right_v[b]]][vindex[left_v[a]]] = 1
            t0.append(ryser_permanent(m, max_dim=None))
    return t0


def build_transfer_system(dec: Decomposition) -> TransferSystem:
    ordering = ClassOrdering(dec.slot_width)
    a_bar, blocks = build_alpha(dec, ordering)
    beta = build_beta(dec, ordering)
    t0 = build_initial(dec, ordering)
    return TransferSystem(dec, ordering, a_bar, blocks, beta, t0, dec.n0,
                          weighted=dec.spec.weights is not None)


def sequence(system: TransferSystem, n_max: int) -> list:
    """Exact T(n) for n = n0..n_max by per-block application of A-bar.

    Each left tuple's slice of T0 is supported on the zero-count group
    matching its own popcount, so only that B_i ever acts on it.
    """
    ordering = system.ordering
    nr = ordering.num_rights
    spans = ordering.group_spans
    sparse_blocks = []
    for b in system.blocks:
        sparse_blocks.append([[(j, v) for j, v in enumerate(row) if v != 0]
                              for row in b])

    segments = []          # (block index, beta slice, value vector)
    for li, left in enumerate(ordering.lefts):
        pc = sum(left)
        start, size = spans[pc]
        seg_t0 = system.t0[li * nr:(li + 1) * nr]
        seg_beta = system.beta[li * nr:(li + 1) * nr]
        if any(v != 0 for k, v in enumerate(seg_t0) if not start <= k < start + size):
            raise BlockStructureError(
                "T0 has support outside its zero-count group")
        segments.append((pc, seg_beta[start:start + size],
                         seg_t0[start:start + size]))

    def dot(beta_slice, vec):
        return sum(b * v for b, v in zip(beta_slice, vec) if b != 0 and v != 0)

    def step(seg):
        pc, bslice, vec = seg
        rows = sparse_blocks[pc]
        return (pc, bslice, [sum(val * vec[j] for j, val in row) for row in rows])

    terms = []
    for n in range(system.n0, n_max + 1):
        if n > system.n0:
            segments = [step(s) for s in segments]
        terms.append(sum(dot(b, v) for _, b, v in segments))
    return terms
