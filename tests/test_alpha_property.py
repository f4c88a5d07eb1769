"""Property tests over generated specs: `transfer.build_alpha`, which lists
the New-edge matchings once with the programme the census runs on, equals
the A-bar built from the per-subset reference of `test_classify`
(`new_edge_choices`, each subset applied to each right mask by
`extend_right`), for constant and linear jumps, weighted or not, with zero
weights, and with a second New edge planted on each edge of one jump whose
weight cancels it.  The reference's A-bar is also block diagonal in the
zero-count groups, and build_alpha's blocks are its diagonal blocks."""
import math
from dataclasses import replace

import pytest

from circperm.lattice import SymEdge
from circperm.transfer import _group_span, build_alpha, right_order
from test_beta_property import _dec, specs
from test_classify import extend_right, new_edge_choices

hypothesis = pytest.importorskip("hypothesis")


def reference_a_bar(dec):
    """A-bar summed subset by subset: every choice of one New edge into
    each new vertex, weighted by the product of its weights, moves each
    right mask it extends legally to the mask `extend_right` gives."""
    rights = right_order(dec.slot_width)
    a_bar = [[0] * len(rights) for _ in rights]
    for combo in new_edge_choices(dec):
        wgt = math.prod(dec.spec.weight(e.jump_index) for e in combo)
        for c, right in enumerate(rights):
            new = extend_right(dec, right, combo)
            if new is not None:
                a_bar[rights.index(new)][c] += wgt
    return a_bar


def _cancelling(dec):
    """dec with every New edge of one jump j doubled by an edge of another
    jump k on the same vertex pair, and weights 1 and -1 on j and k, so
    each doubled pair sums to 0; None when there is nothing to double."""
    if len(dec.spec.jumps) < 2:
        return None
    j = min(e.jump_index for e in dec.new)
    k = 1 if j == 0 else 0
    weights = list(dec.spec.weights or [1] * len(dec.spec.jumps))
    weights[j], weights[k] = 1, -1
    twins = {SymEdge(e.tail, e.head, k) for e in dec.new if e.jump_index == j}
    return replace(dec, new=dec.new | twins,
                   spec=replace(dec.spec, weights=tuple(weights)))


def _check(dec, case):
    a_bar, blocks = build_alpha(dec)
    want = reference_a_bar(dec)
    assert a_bar == want, case
    w = dec.slot_width
    group = [m.bit_count() for m in right_order(w)]
    assert all(group[i] == group[j] for i, row in enumerate(want)
               for j, v in enumerate(row) if v), case
    for pc, block in enumerate(blocks):
        lo, size = _group_span(w, pc)
        assert block == [row[lo:lo + size] for row in want[lo:lo + size]]


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(("0", None, None))                    # bar_s = 0, p = 1
@hypothesis.example(("0,1n+0", "2n", None))               # bar_s = 0, p = 2
@hypothesis.example(("0,1n+0", "2n", "2,-3"))
@hypothesis.example(("0,1,2", None, None))
@hypothesis.example(("0,1,4", None, "1/2,0,-1"))
@hypothesis.example(("1,1n+0,2n+1", "3n+1", "-3/2,0,1/2"))
@hypothesis.example(("0,1n+0,1n+2", "2n", "1,-1,2"))
def test_build_alpha_equals_the_per_subset_reference(case):
    dec = _dec(*case)
    _check(dec, case)
    planted = _cancelling(dec)
    if planted is not None:
        _check(planted, case)
