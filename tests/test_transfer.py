"""Transfer system assembly: golden fixtures, oracle cross-checks of every
component, the zero-count group check, and the census check on A-bar with
its mutation tests."""

import pytest

from circperm.algebra import annihilator_from_blocks
from circperm.circulant import adjacency_matrix, normalize, parse_spec
from circperm.errors import BlockStructureError
from circperm.lattice import decompose, lattice_edges, lattice_vertices
from circperm.oracle import enumerate_stats, ryser_permanent
from circperm.transfer import (build_alpha, build_initial,
                               build_transfer_system, census, right_order,
                               sequence, verify_against_census,
                               verify_block_structure, window_vertices)
from covers import enumerate_legal_covers
from test_classify import classify, cover_census, position

GOLDEN_A_BAR = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]


def _chis(system):
    return annihilator_from_blocks(system.blocks).chis


def _dec(jumps, size=None, weights=None):
    return decompose(normalize(parse_spec(jumps, size, weights)))


def ryser_t0(dec):
    """Reference T0, independent of the cover census: per class X,
    the permanent of L_{n0}'s pairing graph G_X, in which the zero slots of
    X's right window are joined back to the zero slots of its left window."""
    spec, n0, w = dec.spec, dec.n0, dec.slot_width
    verts = lattice_vertices(spec, n0)
    vindex = {v: i for i, v in enumerate(verts)}
    edges = sorted(lattice_edges(spec, n0))
    left_v, right_v = window_vertices(dec, n0)
    t0 = []
    for left in range(1 << w):
        lz = [i for i in range(w) if not left >> i & 1]
        for right in right_order(w):
            rz = [i for i in range(w) if not right >> i & 1]
            if len(lz) != len(rz):
                t0.append(0)
                continue
            forced_in = {left_v[i] for i in lz}
            forced_out = {right_v[i] for i in rz}
            m = [[0] * len(verts) for _ in verts]
            for tail, head, idx in edges:
                if head in forced_in or tail in forced_out:
                    continue
                m[vindex[tail]][vindex[head]] = spec.weight(idx)
            for b, a in zip(rz, lz):
                m[vindex[right_v[b]]][vindex[left_v[a]]] = 1
            t0.append(ryser_permanent(m, max_dim=None))
    return t0


@pytest.fixture(scope="module")
def sys012():
    return build_transfer_system(_dec("0,1,2"))


def test_golden_transfer_data(sys012):
    assert sys012.a_bar == GOLDEN_A_BAR
    assert sys012.blocks == [[[1]], [[1, 1], [1, 0]], [[1]]]
    assert sys012.beta == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]
    assert sys012.t0 == [1, 0, 0, 0, 0, 2, 1, 0, 0, 3, 2, 0, 0, 0, 0, 1]
    assert sys012.multiplicity == 4


@pytest.mark.parametrize("jumps,size,weights", [
    ("0,1,2", None, None), ("0,2,5", None, None), ("0,1,4", None, "1/2,3,-1"),
    ("0,1,2", None, "0,1,1"), ("1,1n+1,2n+0", "3n", None),
    ("0,1n+0,2n-1", "3n", "2,-1,1/2"), ("0,1n+0,1n+2", "2n", None),
])
def test_census_t0_matches_the_pairing_graph_permanents(jumps, size, weights):
    dec = _dec(jumps, size, weights)
    assert build_initial(dec) == ryser_t0(dec)


@pytest.mark.parametrize("jumps,size,weights", [
    ("0,1,2", None, None), ("1,1n+0,2n+1", "3n+1", None),
    ("0,1,4", None, "1/2,3,-1")])
def test_census_buckets_every_cover_as_classify_does(jumps, size, weights):
    dec = _dec(jumps, size, weights)
    for n in (dec.n0, dec.n0 + 1):
        want = cover_census(dec, n)
        assert any(want)
        assert census(dec, n) == want


@pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (1, 2), (2, 1), (3, 3),
                                 (0, 3), (2, 2), (3, 0)])
def test_census_check_catches_a_changed_a_bar_entry(sys012, i, j):
    verify_against_census(sys012.dec, sys012.a_bar, sys012.t0)
    bad = [list(row) for row in sys012.a_bar]
    bad[i][j] += 1
    with pytest.raises(BlockStructureError, match=r"class [01]{2}\|[01]{2},"):
        verify_against_census(sys012.dec, bad, sys012.t0)


def test_census_check_names_the_class_by_its_slot_bits(sys012):
    """Left mask 0b01 and right position 1 (mask 0b10) print slot 0 first."""
    bad = [list(row) for row in sys012.a_bar]
    bad[1][1] += 1
    with pytest.raises(BlockStructureError,
                       match=r"gives 5 covers of class 10\|01, but L_5 .* has 3"):
        verify_against_census(sys012.dec, bad, sys012.t0)
    linear = build_transfer_system(_dec("1,1n+1,2n+0", "3n"))
    bad = [list(row) for row in linear.a_bar]
    bad[2][5] += 1
    with pytest.raises(BlockStructureError, match=r"of class 110\|010, but L_3"):
        verify_against_census(linear.dec, bad, linear.t0)


def test_self_loop_only_spec():
    sys_ = build_transfer_system(_dec("0"))
    assert sys_.a_bar == [[1]]
    assert sys_.beta == [1] and sys_.t0 == [1]
    assert sequence(sys_, 6, _chis(sys_)) == [1] * 7


def test_linear_a_bar_against_direct_cover_counts():
    """T-bar(n0+1) = A-bar applied per segment must match a fresh census of
    legal covers of the next lattice."""
    dec = _dec("1,1n+1,2n+0", "3n")
    sys_ = build_transfer_system(dec)
    assert len(sys_.a_bar) == 8
    w = sys_.w
    spec = dec.spec

    def census(n):
        verts = lattice_vertices(spec, n)
        left, right = window_vertices(dec, n)
        counts = {}
        for cover in enumerate_legal_covers(
                verts, sorted(lattice_edges(spec, n)), set(left), set(right)):
            pos = position(w, classify(dec, n, cover))
            counts[pos] = counts.get(pos, 0) + 1
        return counts

    t2 = census(dec.n0)
    assert t2 == {i: v for i, v in enumerate(sys_.t0) if v}
    t3 = census(dec.n0 + 1)
    nr = 1 << w
    for li in range(nr):
        seg = sys_.t0[li * nr:(li + 1) * nr]
        pushed = [sum(sys_.a_bar[i][j] * seg[j] for j in range(nr))
                  for i in range(nr)]
        for i, v in enumerate(pushed):
            assert t3.get(li * nr + i, 0) == v


def test_beta_spot_values(sys012):
    # masks: slot 0 at bit 0, so slot tuple (0, 1) is 0b10
    assert sys012.beta[position(2, (0b10, 0b01))] == 1   # completed by the single edge into 0
    assert sys012.beta[position(2, (0b11, 0b11))] == 1   # nothing missing
    assert sys012.beta[position(2, (0b01, 0b01))] == 0


def test_initial_vector_matches_exhaustive_counts(sys012):
    dec = sys012.dec
    spec = dec.spec
    verts = lattice_vertices(spec, 4)
    left, right = window_vertices(dec, 4)
    counts = [0] * 16
    for cover in enumerate_legal_covers(verts, sorted(lattice_edges(spec, 4)),
                                        set(left), set(right)):
        counts[position(2, classify(dec, 4, cover))] += 1
    assert counts == sys012.t0


def test_unbalanced_zero_counts_have_zero_initial(sys012):
    for left in range(4):
        for right in range(4):
            if left.bit_count() != right.bit_count():
                assert sys012.t0[position(2, (left, right))] == 0


def test_beta_dot_t0_equals_cover_count(sys012):
    total = sum(b * t for b, t in zip(sys012.beta, sys012.t0))
    assert total == enumerate_stats(parse_spec("0,1,2"), 4).count == 9


@pytest.mark.parametrize("jumps,size,n_max", [
    ("0,1,2", None, 14), ("1,1n+1,2n+0", "3n", 6),
])
def test_sequence_equals_ryser(jumps, size, n_max):
    spec = normalize(parse_spec(jumps, size))
    sys_ = build_transfer_system(decompose(spec))
    terms = sequence(sys_, n_max, _chis(sys_))
    for n in range(sys_.n0, n_max + 1):
        if spec.size(n) <= 20:
            assert terms[n - sys_.n0] == ryser_permanent(adjacency_matrix(spec, n))


@pytest.mark.parametrize("jumps,size,weights,n_max", [
    ("0,1,4", None, "1/2,3,-1", 14), ("0,1,4", None, "3,0,-2/3", 14),
    ("0,1n+0,2n-1", "3n", "2,-1,1/2", 6),
])
def test_weighted_sequence_equals_ryser(jumps, size, weights, n_max):
    """The integer stepping divides term k by L^size(n0 + k): the weighted terms
    are the Ryser permanents of the weighted matrices, ints where whole."""
    spec = normalize(parse_spec(jumps, size, weights))
    sys_ = build_transfer_system(decompose(spec))
    terms = sequence(sys_, n_max, _chis(sys_))
    for n in range(sys_.n0, n_max + 1):
        want = ryser_permanent(adjacency_matrix(spec, n))
        assert terms[n - sys_.n0] == want, n
        assert type(terms[n - sys_.n0]) is type(want), n


def test_weighted_blocks_are_scaled_to_ints():
    def last_block(weights):
        system = build_transfer_system(decompose(normalize(
            parse_spec("0,1,2", weights=weights))))
        block = system.blocks[-1]
        assert type(block[0][0]) is int
        return block, system.scale
    # the jump-0 self-loop carries weight 2: the all-ones diagonal block doubles
    assert last_block("2,1,1") == ([[2]], 1)
    # weight 1/2 is scaled by L = 2 to the int 2 * (1/2) = 1
    assert last_block("1/2,1,1") == ([[1]], 2)


def test_scrambled_ordering_triggers_block_error():
    dec = _dec("0,1,2")
    rights = right_order(2)
    # swap two right masks across zero-count groups: the canonical order's
    # grouping is violated and the A-bar group check must notice
    bad = list(rights)
    bad[0], bad[1] = bad[1], bad[0]
    a_bar, _ = build_alpha(dec)
    verify_block_structure(rights, a_bar)
    scrambled_a_bar = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            scrambled_a_bar[bad.index(rights[i])][bad.index(rights[j])] = a_bar[i][j]
    with pytest.raises(BlockStructureError):
        verify_block_structure(bad, scrambled_a_bar)


def test_sequence_stops_at_the_bound_plus_the_order(sys012):
    # {0,1,2} has order 3: a bound of 3 needs 6 terms, a looser one more
    assert sequence(sys012, 3, _chis(sys012)) == [9, 13, 20, 31, 49, 78]
    assert len(sequence(sys012, 10, _chis(sys012))) == 13
