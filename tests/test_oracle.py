"""Brute-force oracles: the column-set DP vs Ryser vs naive permanents,
the cover-statistics DP vs backtracking and a sum over all permutations,
and the oracles' independence from the code they check."""
import ast
import math
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import circperm.oracle
from circperm.budget import Budget
from circperm.circulant import adjacency_matrix, jump_residues, parse_spec
from circperm.corpus import TABLE1
from circperm.errors import CollisionError, InconsistencyError, SizeCapError
from circperm.oracle import brute_hamiltonian, enumerate_stats, ryser_permanent
from circperm.pipeline import derive, verify
from covers import backtrack_stats


def naive_permanent(m):
    """The defining sum over permutations, expanded row by row and skipping
    zero entries, so a sparse 10 x 10 stays cheap."""
    n = len(m)

    def rest(i, free):
        if i == n:
            return 1
        return sum(m[i][j] * rest(i + 1, free - {j})
                   for j in free if m[i][j])

    return rest(0, frozenset(range(n)))


def ryser_reference(m):
    """Ryser's alternating sum over column subsets in Gray-code order, with
    rows scaled to ints by the lcm of their denominators: an earlier
    permanent oracle, kept as an inclusion-exclusion reference."""
    n = len(m)
    if n == 0:
        return 1
    scale = 1
    rows = []
    for row in m:
        d = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    cols = [[(i, rows[i][j]) for i in range(n) if rows[i][j] != 0]
            for j in range(n)]
    if any(not c for c in cols):
        return 0
    w = [0] * n               # row sums over the current column subset
    zero_count = n
    prod = 1                  # product of the nonzero w[i]
    total = 0
    membership = 0
    size = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        adding = not (membership & bit)
        membership ^= bit
        size += 1 if adding else -1
        for i, a in cols[j]:
            old = w[i]
            new = old + a if adding else old - a
            w[i] = new
            if old == 0:
                zero_count -= 1
            else:
                prod //= old
            if new == 0:
                zero_count += 1
            else:
                prod *= new
        if zero_count == 0:
            total += prod if (n - size) % 2 == 0 else -prod
    return total // scale if total % scale == 0 else Fraction(total, scale)


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
    """Square matrices whose rows mix ints and Fractions of different
    denominators, negatives included: dense ones of dimension 0..8 and
    sparse ones (about half zeros) of dimension 0..10, in which the DP
    drops states that leave a column unused.  Half of them get a zero row
    or a zero column."""
    sparse = draw(st.booleans())
    n = draw(st.integers(0, 10 if sparse else 8))
    entry = st.one_of(st.just(0), _entry) if sparse else _entry
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
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
@hypothesis.example([[Fraction(-5, 3)]])
@hypothesis.example([[4]])
@hypothesis.example([[1, -1, 0], [1, 1, 1], [1, 0, -1]])
@hypothesis.example([[0, 1, 0], [1, 0, 1], [1, 1, 0]])  # column 0 closes at row 1
def test_ryser_matches_naive_on_mixed_rows(m):
    got, want = ryser_permanent(m), naive_permanent(m)
    assert got == want == ryser_reference(m)
    if Fraction(want).denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is Fraction


def test_ryser_size_cap():
    big = [[1] * 25 for _ in range(25)]
    with pytest.raises(SizeCapError):
        ryser_permanent(big)
    assert ryser_permanent([[1]], max_dim=1) == 1


def test_ryser_at_the_dimension_cap(derived):
    # size 24, the default cap: the column-set DP keeps at most a few
    # hundred states on these sparse rows, so this stays fast
    assert ryser_permanent(adjacency_matrix(parse_spec("0,1,2"), 24)) \
        == 103684                                         # Lucas(24) + 2
    spec = parse_spec("0,1n+0,2n-1", size="3n")
    assert ryser_permanent(adjacency_matrix(spec, 8)) == 7073
    assert derived("0,1n+0,2n-1", "3n").raw_term(8) == 7073


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


def test_four_jump_permanent_matches_enumeration():
    spec = parse_spec("0,1,2,4")
    checked = []
    for n in range(1, 17):
        try:
            m = adjacency_matrix(spec, n)
        except CollisionError:
            continue
        assert ryser_permanent(m) == enumerate_stats(spec, n).count, n
        checked.append(n)
    assert checked == list(range(5, 17))


def test_weighted_ryser_matches_the_derived_recurrence():
    entries = verify(derive(parse_spec("0,1,3", weights="1/2,3,-1")), 14)
    assert [e.n for e in entries] == list(range(6, 15))
    assert all(e.ryser_value == e.recurrence_value for e in entries)
    assert any(type(e.ryser_value) is Fraction for e in entries)


def test_legal_cover_enumeration_counts():
    # hand-enumerated census of legal covers of the {0,1,2} lattice at n=4
    from circperm.circulant import normalize
    from circperm.lattice import decompose, lattice_edges, lattice_vertices
    from covers import enumerate_legal_covers
    from circperm.transfer import window_vertices
    dec = decompose(normalize(parse_spec("0,1,2")))
    spec = dec.spec
    verts = lattice_vertices(spec, 4)
    left, right = window_vertices(dec, 4)
    covers = list(enumerate_legal_covers(verts, sorted(lattice_edges(spec, 4)),
                                         set(left), set(right)))
    assert len(covers) == 10


def permutation_stats(jumps, size, i_max):
    """CoverStats from the definition: every permutation of range(size)
    whose steps are all jumps, with its cycles counted at the leaf."""
    residues = {j % size for j in jumps}
    count, moments, ham = 0, [0] * (i_max + 1), 0
    for perm in permutations(range(size)):
        if any((perm[i] - i) % size not in residues for i in range(size)):
            continue
        seen, cycles = set(), 0
        for start in range(size):
            if start not in seen:
                cycles += 1
                v = start
                while v not in seen:
                    seen.add(v)
                    v = perm[v]
        count += 1
        moments = [m + cycles ** t for t, m in enumerate(moments)]
        ham += cycles == 1
    return count, tuple(moments), ham


@st.composite
def jump_sets_and_sizes(draw):
    """1-4 distinct jumps in [-4, 4] and a size 1..8 at which no two of
    them collide."""
    jumps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4,
                          unique=True))
    sizes = [n for n in range(1, 9)
             if len({j % n for j in jumps}) == len(jumps)]
    hypothesis.assume(sizes)
    return jumps, draw(st.sampled_from(sizes))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(jump_sets_and_sizes())
@hypothesis.example(([0], 5))                 # self-loops only: n cycles
@hypothesis.example(([3], 1))                 # size 1
@hypothesis.example(([-1, 0, 1], 8))
@hypothesis.example(([1, 2, 3, 4], 8))
def test_enumerate_stats_matches_permutations(case):
    jumps, size = case
    got = enumerate_stats(parse_spec(",".join(map(str, jumps))), size, i_max=2)
    assert (got.count, got.moment_sums, got.hamiltonian_count) \
        == permutation_stats(jumps, size, 2)


def _has_matrix(spec, n):
    try:
        jump_residues(spec, n)
    except (CollisionError, InconsistencyError):
        return False
    return True


@st.composite
def wider_jump_sets_and_sizes(draw):
    """1-4 distinct jumps in [-6, 6] and a size 1..12 at which no two of
    them collide, as (jumps, size formula, n)."""
    jumps = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                          unique=True))
    sizes = [n for n in range(1, 13)
             if len({j % n for j in jumps}) == len(jumps)]
    hypothesis.assume(sizes)
    return ",".join(map(str, jumps)), None, draw(st.sampled_from(sizes))


def _linear_table1_examples(test):
    """An explicit example for each linear TABLE1 row at each n <= 5 with a
    matrix."""
    for row in TABLE1:
        if row["size"] is None:
            continue
        spec = parse_spec(row["jumps"], row["size"])
        for n in range(1, 6):
            if _has_matrix(spec, n):
                test = hypothesis.example((row["jumps"], row["size"], n))(test)
    return test


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(wider_jump_sets_and_sizes())
@hypothesis.example(("2,3,6", None, 19))      # 0,1,4 shifted by 2, as benched
@hypothesis.example(("3,4,5", None, 19))      # 1,2,3 shifted by 2
@_linear_table1_examples
def test_enumerate_stats_matches_backtracking(case):
    jumps, size, n = case
    spec = parse_spec(jumps, size)
    assert enumerate_stats(spec, n, 2) == backtrack_stats(spec, n, 2)


@pytest.mark.parametrize("row", TABLE1, ids=lambda row: row["name"])
def test_oracles_agree_up_to_the_enumeration_cap(row):
    spec = parse_spec(row["jumps"], row["size"])
    cap = Budget().enum_max_size
    checked = []
    for n in range(cap + 1):
        if spec.size(n) <= cap and _has_matrix(spec, n):
            assert (ryser_permanent(adjacency_matrix(spec, n))
                    == enumerate_stats(spec, n, 2).count), n
            checked.append(spec.size(n))
    assert max(checked) > cap - spec.size_coeff


def test_oracle_imports_none_of_the_code_it_checks():
    """The oracles share no code with the pipeline they validate: no import
    in oracle.py names the lattice, transfer, extensions or pipeline module."""
    tree = ast.parse(Path(circperm.oracle.__file__).read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
        else:
            continue
        for name in names:
            parts.update(name.split("."))
    assert {"budget", "circulant", "errors"} <= parts
    assert parts.isdisjoint({"lattice", "transfer", "extensions", "pipeline"})
