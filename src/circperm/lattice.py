"""Lattice representation of circulant graphs and the Hook/New decomposition.

The circulant C at index n is drawn on a bounded-height lattice: vertex
(u, v) stands for the number u*n + v, rows 0..p-2 hold n vertices each and
row p-1 holds n+s.  Lattice edges are the circulant edges that respect the
row structure (the jump's n-coefficient equals the row displacement mod p);
the remainder is Hook(n).  New(n) is the edge growth from L_n to L_{n+1}.

Both Hook(n) and New(n) are independent of n once vertices are written
relative to an anchor (left end, right end, or the new column).  That claim
is not assumed: decompose() derives the sets by diffing concrete graphs at
consecutive n and asserts stability at a third.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .circulant import CirculantSpec
from .errors import InconsistencyError, SizeCapError

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex, int]       # (tail, head, jump index)


@dataclass(frozen=True, order=True)
class SymVertex:
    """Anchored vertex: L offsets from the left end of a row, R from the
    right end, N the single new vertex of a row."""

    anchor: str   # "L" | "R" | "N"
    row: int
    offset: int

    def __str__(self):
        if self.anchor == "L":
            return f"({self.row},{self.offset})"
        if self.anchor == "R":
            return f"({self.row},end-{self.offset})"
        return f"({self.row},new)"


@dataclass(frozen=True, order=True)
class SymEdge:
    tail: SymVertex
    head: SymVertex
    jump_index: int

    def __str__(self):
        return f"{self.tail}->{self.head}[j{self.jump_index}]"


@dataclass(frozen=True)
class Decomposition:
    spec: CirculantSpec
    hook: frozenset[SymEdge]
    new: frozenset[SymEdge]
    bar_s: int           # structural boundary width (s+ + s- for signed jumps)
    s_plus: int
    s_minus: int
    n0: int

    @property
    def slot_width(self) -> int:
        """Width w = p*bar_s of a class's left and right masks."""
        return self.spec.size_coeff * self.bar_s


def row_last(spec: CirculantSpec, n: int, row: int) -> int:
    if row < spec.size_coeff - 1:
        return n - 1
    return n + spec.size_offset - 1


def lattice_vertices(spec: CirculantSpec, n: int) -> list[Vertex]:
    return [(u, v) for u in range(spec.size_coeff)
            for v in range(row_last(spec, n, u) + 1)]


def vertex_value(spec: CirculantSpec, n: int, vertex: Vertex) -> int:
    u, v = vertex
    return u * n + v


def value_vertex(spec: CirculantSpec, n: int, value: int) -> Vertex:
    p = spec.size_coeff
    u = min(value // n, p - 1) if n > 0 else p - 1
    return (u, value - u * n)


def circulant_edges(spec: CirculantSpec, n: int) -> set[Edge]:
    size = spec.size(n)
    out: set[Edge] = set()
    for tail in lattice_vertices(spec, n):
        fv = vertex_value(spec, n, tail)
        for idx, jump in enumerate(spec.jump_values(n)):
            head = value_vertex(spec, n, (fv + jump) % size)
            out.add((tail, head, idx))
    return out


def lattice_edges(spec: CirculantSpec, n: int) -> set[Edge]:
    """Row-respecting circulant edges.

    A jump (p_i, s_i) leaving (u, v) lands either at (u+p_i, v+s_i) when the
    target row exists, or at (u+p_i-p, v+s_i-s) when the jump crosses the top
    row.  Everything else a jump induces is a Hook edge.
    """
    p, s = spec.size_coeff, spec.size_offset
    out: set[Edge] = set()
    for u, v in lattice_vertices(spec, n):
        for idx, (p_i, s_i) in enumerate(spec.jumps):
            if u + p_i <= p - 1:
                head = (u + p_i, v + s_i)
            else:
                head = (u + p_i - p, v + s_i - s)
            if 0 <= head[1] <= row_last(spec, n, head[0]):
                out.add(((u, v), head, idx))
    return out


def symbolize_vertex(spec: CirculantSpec, n: int, vertex: Vertex, width: int,
                     allow_new: bool) -> SymVertex:
    u, v = vertex
    last = row_last(spec, n, u)
    if allow_new and v == last + 1:
        return SymVertex("N", u, 0)
    if v <= last and last - v < width:
        return SymVertex("R", u, last - v)
    if v < width:
        return SymVertex("L", u, v)
    raise InconsistencyError(f"vertex {vertex} not anchored within width {width} at n={n}")


def _symbolize_edges(spec: CirculantSpec, n: int, edges: Iterable[Edge],
                     width: int, allow_new: bool) -> frozenset[SymEdge]:
    width = max(width, 1)
    out = set()
    for tail, head, idx in edges:
        out.add(SymEdge(symbolize_vertex(spec, n, tail, width, allow_new),
                        symbolize_vertex(spec, n, head, width, allow_new), idx))
    return frozenset(out)


def _widths(spec: CirculantSpec) -> tuple[int, int, int]:
    """(s+, s-, bar_s): the largest forward and backward offsets and the
    structural boundary width, from the jumps alone."""
    offsets = [s for _, s in spec.jumps]
    s_plus = max(max((s for s in offsets if s >= 0), default=0), 0)
    s_minus = max((-s for s in offsets if s < 0), default=0)
    if spec.constant:
        return s_plus, s_minus, s_plus + s_minus
    if s_minus:
        raise InconsistencyError("linear decomposition requires offsets >= 0 "
                                 "(normalize the spec first)")
    if any(s < spec.size_offset for s in offsets):
        raise InconsistencyError("linear decomposition requires s_i >= s "
                                 "(normalize the spec first)")
    return s_plus, s_minus, s_plus


def check_width(spec: CirculantSpec, cap: int, name: str) -> None:
    """Refuse a spec whose class width w = p*bar_s exceeds `cap`, with
    SizeCapError naming `name`, w and the cap.  Read from the jumps alone,
    before any lattice is evaluated or anything of size 2^w is built."""
    w = spec.size_coeff * _widths(spec)[2]
    if w > cap:
        raise SizeCapError(f"{name}: transfer width w = {w} exceeds cap {cap}")


def decompose(spec: CirculantSpec, check_span: int = 2) -> Decomposition:
    """Derive Hook(n) and New(n), symbolically.

    Computed by evaluating the definitions at consecutive concrete n and
    diffing; stability is asserted over `check_span` further values, which
    is what makes the n-independence claim checked rather than assumed.
    """
    s_plus, s_minus, bar_s = _widths(spec)
    n0 = 2 * bar_s
    width = max(s_plus, s_minus)
    n_eval = max(n0, 1)
    # each concrete lattice L_n is built once, for hook_at and new_at
    lattices = {n: lattice_edges(spec, n)
                for n in range(n_eval, n_eval + check_span + 2)}

    def hook_at(n):
        return _symbolize_edges(spec, n, circulant_edges(spec, n) - lattices[n],
                                width, allow_new=False)

    def new_at(n):
        el_n, el_n1 = lattices[n], lattices[n + 1]
        missing = {e for e in el_n if e not in el_n1}
        if missing:
            raise InconsistencyError(f"lattice not monotone at n={n}: {missing}")
        return _symbolize_edges(spec, n, el_n1 - el_n, width, allow_new=True)

    hook = hook_at(n_eval)
    new = new_at(n_eval)
    for n in range(n_eval + 1, n_eval + 1 + check_span):
        if hook_at(n) != hook:
            raise InconsistencyError(f"Hook not n-independent at n={n}")
        if new_at(n) != new:
            raise InconsistencyError(f"New not n-independent at n={n}")

    # Boundary membership: hook edges run between the two windows; new-edge
    # heads are all new vertices, tails sit in the right window or are new.
    # Sorted, so an error names the least offending edge whatever the hashes.
    for e in sorted(hook):
        if {e.tail.anchor, e.head.anchor} not in ({"R", "L"}, {"L", "R"}):
            raise InconsistencyError(f"hook edge {e} leaves the boundary windows")
        if s_minus == 0 and not (e.tail.anchor == "R" and e.head.anchor == "L"):
            raise InconsistencyError(f"hook edge {e} not R->L")
    for e in sorted(new):
        if "N" not in (e.tail.anchor, e.head.anchor):
            raise InconsistencyError(f"new edge {e} misses the new column")
        if s_minus == 0 and e.head.anchor != "N":
            raise InconsistencyError(f"new edge {e} head is not a new vertex")
        if "L" in (e.tail.anchor, e.head.anchor):
            raise InconsistencyError(f"new edge {e} touches the left window")

    return Decomposition(spec, hook, new, bar_s, s_plus, s_minus, n0)
