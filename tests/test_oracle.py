"""Brute-force oracles: Ryser vs naive permanents, enumeration statistics."""
import random
from fractions import Fraction
from itertools import permutations

import pytest

from circperm.budget import Budget
from circperm.circulant import adjacency_matrix, parse_spec
from circperm.errors import SizeCapError
from circperm.oracle import (brute_hamiltonian, enumerate_legal_covers,
                             enumerate_stats, ryser_permanent)


def naive_permanent(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
            if prod == 0:
                break
        total += prod
    return total


def test_ryser_small_knowns():
    assert ryser_permanent([[1] * 3 for _ in range(3)]) == 6
    assert ryser_permanent([[1 if i == j else 0 for j in range(6)]
                            for i in range(6)]) == 1
    assert ryser_permanent([]) == 1
    assert ryser_permanent([[0, 1], [0, 1]]) == 0


def test_ryser_against_naive_random():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        assert ryser_permanent(m) == naive_permanent(m), m


def test_ryser_rational_entries():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        assert ryser_permanent(m) == naive_permanent(m), m


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_entry = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def mixed_matrices(draw):
    """Square matrices of dimension 0..7 whose rows mix ints and Fractions
    of different denominators, negatives included; half of them get a zero
    row or a zero column."""
    n = draw(st.integers(0, 7))
    m = [draw(st.lists(_entry, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            m[k] = [0] * n
        else:
            for row in m:
                row[k] = Fraction(0)
    return m


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(mixed_matrices())
@hypothesis.example([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(2, 3)]])
@hypothesis.example([[Fraction(1, 2), Fraction(1, 2)], [1, 1]])     # integral
@hypothesis.example([[Fraction(2, 3), Fraction(1, 2)], [3, Fraction(-1, 4)]])
def test_ryser_matches_naive_on_mixed_rows(m):
    got, want = ryser_permanent(m), naive_permanent(m)
    assert got == want
    if Fraction(want).denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is Fraction


def test_ryser_size_cap():
    big = [[1] * 25 for _ in range(25)]
    with pytest.raises(SizeCapError):
        ryser_permanent(big)
    assert ryser_permanent([[1]], max_dim=1) == 1


def test_ryser_circulant_at_six_is_twenty():
    # the published table prints 12 here; both oracles and the worked
    # example's own transfer data say 20
    m = adjacency_matrix(parse_spec("0,1,2"), 6)
    assert ryser_permanent(m) == 20
    assert enumerate_stats(parse_spec("0,1,2"), 6).count == 20


def test_enumerate_stats_moments():
    st = enumerate_stats(parse_spec("-1,0,1"), 4, i_max=2)
    assert st.count == 9
    assert st.moment_sums[0] == st.count
    assert st.moment_sums[1] == 22
    assert st.moment_sums[1] ** 2 <= st.moment_sums[0] * st.moment_sums[2]
    assert st.hamiltonian_count <= st.count

    st = enumerate_stats(parse_spec("0,1,2"), 4, i_max=1)
    assert st.moment_sums[1] == 21


def test_enumerate_stats_self_loops():
    for n in (3, 6, 9):
        st = enumerate_stats(parse_spec("0"), n, i_max=1)
        assert st.count == 1 and st.moment_sums[1] == n


def test_enumeration_budget():
    with pytest.raises(SizeCapError):
        enumerate_stats(parse_spec("0,1"), 25)
    with pytest.raises(SizeCapError):
        enumerate_stats(parse_spec("0,1,2,3,4"), 8)
    b = Budget(enum_max_size=6, enum_max_jumps=2)
    assert enumerate_stats(parse_spec("0,1"), 6, budget=b).count == 2


def test_brute_hamiltonian_knowns():
    assert all(brute_hamiltonian(parse_spec("1"), n) == 1 for n in range(3, 9))
    assert all(brute_hamiltonian(parse_spec("0"), n) == 0 for n in range(2, 8))
    assert brute_hamiltonian(parse_spec("1,2"), 5) == 2   # frozen golden value


@pytest.mark.parametrize("jumps", ["0,1,2", "-1,0,1", "1,2,3", "1,2"])
def test_oracles_agree(jumps):
    spec = parse_spec(jumps)
    for n in range(4, 11):
        assert (ryser_permanent(adjacency_matrix(spec, n))
                == enumerate_stats(spec, n).count)


def test_legal_cover_enumeration_counts():
    # hand-enumerated census of legal covers of the {0,1,2} lattice at n=4
    from circperm.circulant import normalize
    from circperm.lattice import decompose, lattice_edges, lattice_vertices
    dec = decompose(normalize(parse_spec("0,1,2")))
    spec = dec.spec
    verts = lattice_vertices(spec, 4)
    left = {s.eval(spec, 4) for s in dec.boundaries.left}
    right = {s.eval(spec, 4) for s in dec.boundaries.right}
    covers = list(enumerate_legal_covers(verts, sorted(lattice_edges(spec, 4)),
                                         left, right))
    assert len(covers) == 10
