"""Property tests of the block stepping in `transfer.sequence`: its terms
begin with those of the full block-diagonal stepping it replaced, kept
here as the reference, and the annihilator's integer factor product equals the
schoolbook product over Fraction."""
from fractions import Fraction
from functools import reduce

import pytest

from circperm.algebra import _mul, annihilator_from_blocks
from circperm.circulant import normalize, parse_spec
from circperm.errors import BlockStructureError
from circperm.lattice import decompose
from circperm.transfer import (_group_span, build_transfer_system, iterate,
                               pull_rows, sequence)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0", "-3/2"]


def full_sequence(system, bound: int) -> list:
    """The reference: every nonzero left slice of T0 stepped by its B_i in
    one block-diagonal system on ints, with beta as output, until `iterate`
    has bound + r terms: the integer terms T_L(n0 + k) = L^size(n0 + k)
    T(n0 + k).  `iterate` stops on the first prime, which divides none of
    the scales L drawn here."""
    w = system.w
    nr = 1 << w
    entries: list = []
    start: list = []
    beta: list = []
    for left in range(nr):
        pc = left.bit_count()
        lo, size = _group_span(w, pc)
        seg = system.t0[left * nr:(left + 1) * nr]
        if any(seg[lo:lo + size]):
            off = len(start)
            entries += [(off + i, off + j, v)
                        for i, row in enumerate(system.blocks[pc])
                        for j, v in enumerate(row)]
            start += seg[lo:lo + size]
            beta += system.beta[left * nr + lo:left * nr + lo + size]
    return iterate(pull_rows(entries, len(start)), start, [beta], bound)[0]


def _system(jumps, size=None, weights=None):
    return build_transfer_system(decompose(normalize(
        parse_spec(jumps, size, weights))))


def _same(system, bound):
    """The bound + r terms of the reference start `sequence`'s 2 * bound."""
    chis = annihilator_from_blocks(system.blocks).chis
    got, want = sequence(system, bound, chis), full_sequence(system, bound)
    assert len(got) == 2 * bound and got[:len(want)] == want
    assert {type(t) for t in got} <= {int}


@st.composite
def cases(draw):
    """(jumps, size, weights, bound shift): a constant jump set, or a linear
    one a*n+b (0 <= a < p, some a > 0) under the size law p*n+s, weights
    from _WEIGHTS or none, and the bound as the annihilator degree plus a
    shift, 0 half of the time."""
    if draw(st.booleans()):
        jumps = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=4,
                              unique=True))
        text, size = ",".join(map(str, sorted(jumps))), None
    else:
        p = draw(st.sampled_from([2, 3]))
        pairs = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(-2, 3)),
                              min_size=2, max_size=3, unique=True)
                     .filter(lambda js: any(a for a, _ in js)))
        text = ",".join(f"{a}n{b:+d}" if a else str(b) for a, b in pairs)
        size = f"{p}n{draw(st.integers(-4, 4)):+d}"
    weights = None
    if draw(st.booleans()):
        weights = ",".join(draw(st.sampled_from(_WEIGHTS))
                           for _ in text.split(","))
    shift = draw(st.one_of(st.just(0), st.integers(-3, 6)))
    return text, size, weights, shift


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(cases())
@hypothesis.example(("0,1,2,3", None, None, 0))
@hypothesis.example(("0,1,4", None, "1/2,3,-1", 0))
@hypothesis.example(("0,1n+0,2n-1", "3n", "2,-1,1/2", 2))
def test_block_stepping_equals_full_stepping(case):
    jumps, size, weights, shift = case
    dec = decompose(normalize(parse_spec(jumps, size, weights)))
    hypothesis.assume(dec.slot_width <= 4)
    system = build_transfer_system(dec)
    degree = annihilator_from_blocks(system.blocks).degree
    _same(system, max(degree + shift, 1))


def test_blocks_with_one_chi_share_their_extension():
    # {0,1,2,3}: B_1 and B_2 have the same chi, x^3 - x^2 - x - 1, and
    # both groups carry nonzero slices of T0, so their shares run as one
    system = _system("0,1,2,3")
    chis = annihilator_from_blocks(system.blocks).chis
    assert chis[1] == chis[2] == (-1, -1, -1, 1)
    nr = 1 << system.w
    pops = {left.bit_count() for left in range(nr)
            if any(system.t0[left * nr:(left + 1) * nr])}
    assert {1, 2} <= pops
    for bound in (1, 3, 8, 20):
        _same(system, bound)


def test_t0_outside_its_zero_count_group_is_refused():
    system = _system("0,1,2")
    system.t0[0 * 4 + 1] = 1          # left mask 00 carries right position 1
    with pytest.raises(BlockStructureError, match="outside its zero-count"):
        sequence(system, 3, annihilator_from_blocks(system.blocks).chis)


def fraction_product(factors) -> list[Fraction]:
    """The reference: the schoolbook product of ascending coefficient
    lists over Fraction."""
    want = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(want) + len(f) - 1)
        for i, a in enumerate(want):
            for j, b in enumerate(f):
                out[i + j] += a * b
        want = out
    return want


_coeff = st.integers(-9, 9)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(st.lists(st.lists(_coeff, min_size=1, max_size=6)
                           .filter(lambda cs: cs[-1] != 0), max_size=4))
def test_integer_factor_product_equals_the_fraction_product(factors):
    got = reduce(_mul, factors, [1])
    assert got == fraction_product(factors)
    assert all(type(c) is int for c in got)
