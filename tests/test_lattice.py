"""Lattice decomposition: Hook/New sets, n-independence, boundary membership."""
import os
import subprocess
import sys

import pytest

from circperm import lattice
from circperm.circulant import normalize, parse_spec
from circperm.errors import InconsistencyError
from circperm.lattice import (circulant_edges, decompose, lattice_edges,
                              lattice_vertices, row_last)
from circperm.transfer import window_vertices


def concrete_edge(spec, n, e):
    """The edge of L_n (or of the new column) that an anchored edge stands
    for: L offsets count from a row's left end, R offsets from its right
    end, and N is the vertex just past the right end."""
    def vertex(sym):
        last = row_last(spec, n, sym.row)
        return (sym.row, {"L": sym.offset, "R": last - sym.offset,
                          "N": last + 1}[sym.anchor])
    return (vertex(e.tail), vertex(e.head), e.jump_index)


def _sym_strings(edges):
    return sorted(str(e) for e in edges)


def test_decompose_012():
    dec = decompose(parse_spec("0,1,2"))
    assert dec.bar_s == 2 and dec.n0 == 4
    assert _sym_strings(dec.new) == [
        "(0,end-0)->(0,new)[j1]",
        "(0,end-1)->(0,new)[j2]",
        "(0,new)->(0,new)[j0]",
    ]
    assert _sym_strings(dec.hook) == [
        "(0,end-0)->(0,0)[j1]",
        "(0,end-0)->(0,1)[j2]",
        "(0,end-1)->(0,0)[j2]",
    ]


def test_decompose_self_loop_only():
    dec = decompose(parse_spec("0"))
    assert dec.hook == frozenset()
    assert _sym_strings(dec.new) == ["(0,new)->(0,new)[j0]"]
    assert dec.n0 == 0


@pytest.mark.parametrize("jumps,size", [
    ("0,1,2", None), ("1,2", None), ("-1,0,1", None), ("-1,0,2", None),
    ("1,1n+1,2n+0", "3n"), ("2,1n+1,2n+2", "3n+1"), ("1,1n+2,2n+1", "4n+1"),
])
def test_edge_set_partitions(jumps, size):
    """E_C(n) = E_L(n) + Hook(n) and E_L(n+1) = E_L(n) + New(n), checked by
    brute-force edge enumeration over a window of concrete n."""
    spec = normalize(parse_spec(jumps, size))
    dec = decompose(spec)
    start = max(dec.n0, 1)
    for n in range(start, start + 8):
        ec = circulant_edges(spec, n)
        el = lattice_edges(spec, n)
        assert el <= ec
        hook_concrete = {concrete_edge(spec, n, e) for e in dec.hook}
        assert ec - el == hook_concrete
        el1 = lattice_edges(spec, n + 1)
        assert el <= el1
        # New(n) anchors are relative to L_n's windows; evaluating at n gives
        # the concrete growth edges of L_{n+1}
        new_concrete = {concrete_edge(spec, n, e) for e in dec.new}
        assert el1 - el == new_concrete


@pytest.mark.parametrize("jumps,size", [
    ("0,1,2", None), ("1,1n+1,2n+0", "3n"), ("2,1n+1,2n+2", "3n+1"),
    ("1,1n+2,2n+1", "4n+1"),
])
def test_boundary_membership(jumps, size):
    """Hook runs right-window to left-window; New heads are new vertices."""
    spec = normalize(parse_spec(jumps, size))
    dec = decompose(spec)
    for e in dec.hook:
        assert e.tail.anchor == "R" and e.head.anchor == "L"
        assert e.tail.offset < dec.bar_s and e.head.offset < dec.bar_s
    for e in dec.new:
        assert e.head.anchor == "N"
        assert e.tail.anchor in ("R", "N")
    n = dec.n0
    new_vertices = set(lattice_vertices(spec, n + 1)) - set(lattice_vertices(spec, n))
    assert len(new_vertices) == spec.size_coeff
    left, right = window_vertices(dec, n)
    assert len(left) == len(set(left)) == dec.slot_width
    assert len(right) == len(set(right)) == dec.slot_width
    assert set(left) | set(right) <= set(lattice_vertices(spec, n))


def test_hook_symbolics_stable_over_many_n():
    """decompose() checks 3 consecutive n; push the window further here."""
    spec = normalize(parse_spec("2,1n+1,2n+2", "3n+1"))
    dec = decompose(spec, check_span=8)
    assert dec.hook and dec.new


def test_decompose_builds_each_lattice_once(monkeypatch):
    """Hook(n) and New(n) over n = n0 .. n0 + check_span read L_n and
    L_(n+1) from one build per n."""
    built, real = [], lattice.lattice_edges
    monkeypatch.setattr(lattice, "lattice_edges",
                        lambda spec, n: built.append(n) or real(spec, n))
    assert decompose(parse_spec("0,1,3")).n0 == 6
    assert built == [6, 7, 8, 9]


def test_signed_hook_runs_both_ways():
    dec = decompose(parse_spec("-1,0,1"))
    kinds = {(e.tail.anchor, e.head.anchor) for e in dec.hook}
    assert kinds == {("R", "L"), ("L", "R")}
    assert dec.n0 == 4  # both window widths count


def test_linear_decompose_requires_normal_form():
    with pytest.raises(InconsistencyError):
        decompose(parse_spec("0,1n+0,2n-1", "3n"))  # offset -1 < s


def test_boundary_error_names_the_least_edge_under_any_hash_seed():
    """An edge outside the boundary windows is named in sorted order, so the
    message does not depend on the string hashes of a SymEdge set."""
    code = ("from circperm.circulant import parse_spec\n"
            "from circperm.lattice import decompose\n"
            "try:\n"
            "    decompose(parse_spec('2', '1n-2'), check_span=0)\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, e)\n")
    src = os.path.dirname(os.path.dirname(lattice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    messages = {subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": path,
                                    "PYTHONHASHSEED": seed}).stdout
                for seed in ("0", "1")}
    # the hook set decompose checks first, at n = max(2 bar_s, 1)
    spec = parse_spec("2", "1n-2")
    s_plus, s_minus, bar_s = lattice._widths(spec)
    n = max(2 * bar_s, 1)
    hook = lattice._symbolize_edges(
        spec, n, circulant_edges(spec, n) - lattice_edges(spec, n),
        max(s_plus, s_minus), allow_new=False)
    least = min(e for e in hook
                if (e.tail.anchor, e.head.anchor) != ("R", "L"))
    assert messages == {f"InconsistencyError hook edge {least} leaves the "
                        "boundary windows\n"}


def test_lattice_vertex_count_matches_size():
    spec = parse_spec("2,1n+1,2n+2", "3n+1")
    for n in range(2, 6):
        assert len(lattice_vertices(spec, n)) == spec.size(n)
