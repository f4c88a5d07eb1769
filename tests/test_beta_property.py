"""Property tests over generated specs: the Hook-matching DP of
`transfer.build_beta` equals, class by class, the permanent of the Hook
weights between the zero slots of the class's right and left windows,
computed by the Ryser oracle (`ryser_beta`), for constant and linear jumps,
weighted or not, and with a second Hook edge planted on a slot pair whose
weights cancel."""
from dataclasses import replace

import pytest

from circperm.circulant import normalize, parse_spec
from circperm.errors import SizeCapError
from circperm.lattice import SymEdge, check_width, decompose
from circperm.oracle import ryser_permanent
from circperm.transfer import build_beta, right_order, slot

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0", "-3/2"]
_WIDTH = 6


def ryser_beta(dec):
    """Reference beta, independent of the DP: per class X, the permanent
    of the matrix of summed Hook weights from the zero slots of X's right
    window (rows) to the zero slots of its left window (columns)."""
    hook: dict[tuple[int, int], object] = {}
    for e in dec.hook:
        key = (slot(dec, e.tail), slot(dec, e.head))
        hook[key] = hook.get(key, 0) + dec.spec.weight(e.jump_index)
    w = dec.slot_width
    zeros = [[i for i in range(w) if not m >> i & 1] for m in range(1 << w)]
    beta = []
    for lz in zeros:
        for right in right_order(w):
            rz = zeros[right]
            if len(lz) != len(rz):
                beta.append(0)
                continue
            m = [[hook.get((b, a), 0) for a in lz] for b in rz]
            beta.append(ryser_permanent(m, max_dim=None))
    return beta


@st.composite
def specs(draw):
    """(jumps, size, weights): constant jumps in a window of width <= 6, or
    2-3 linear jumps a*n + b with size p*n + s, p in {2, 3}; weights from
    _WEIGHTS or none."""
    if draw(st.booleans()):
        offsets = draw(st.lists(st.integers(0, _WIDTH), min_size=1,
                                max_size=4, unique=True))
        shift = draw(st.integers(-3, 3))
        terms, size = [str(o + shift) for o in sorted(offsets)], None
    else:
        p = draw(st.sampled_from([2, 3]))
        pairs = draw(st.lists(st.tuples(st.integers(0, p - 1),
                                         st.integers(-2, 3)),
                              min_size=2, max_size=3, unique=True))
        terms = [f"{a}n{b:+d}" if a else str(b) for a, b in pairs]
        size = f"{p}n{draw(st.integers(-1, 2)):+d}"
    weights = None
    if draw(st.booleans()):
        weights = ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in terms)
    return ",".join(terms), size, weights


def _dec(jumps, size, weights):
    spec = normalize(parse_spec(jumps, size, weights))
    try:
        check_width(spec, _WIDTH, spec.describe())
    except SizeCapError:
        hypothesis.reject()
    return decompose(spec)


def _cancelling(dec):
    """dec with every Hook edge of one jump j doubled by an edge of another
    jump k on the same slot pair, and weights 1 and -1 on j and k, so each
    doubled slot pair sums to 0; None when there is nothing to double."""
    if not dec.hook or len(dec.spec.jumps) < 2:
        return None
    j = min(e.jump_index for e in dec.hook)
    k = 1 if j == 0 else 0
    weights = list(dec.spec.weights or [1] * len(dec.spec.jumps))
    weights[j], weights[k] = 1, -1
    twins = {SymEdge(e.tail, e.head, k) for e in dec.hook if e.jump_index == j}
    return replace(dec, hook=dec.hook | twins,
                   spec=replace(dec.spec, weights=tuple(weights)))


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(specs())
@hypothesis.example(("0,1,2", None, None))
@hypothesis.example(("0,1,4", None, "1/2,2,-1"))
@hypothesis.example(("0,1n+0,2n-1", "3n", "2,-1,1/2"))
@hypothesis.example(("1,1n+0,2n+1", "3n+1", "-3/2,0,1/2"))
@hypothesis.example(("0,3", None, "1,-1"))
def test_beta_dp_equals_the_ryser_permanents(case):
    dec = _dec(*case)
    assert build_beta(dec) == ryser_beta(dec), case
    planted = _cancelling(dec)
    if planted is not None:
        assert build_beta(planted) == ryser_beta(planted), case
