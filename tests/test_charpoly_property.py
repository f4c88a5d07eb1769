"""Property test: on integer matrices, the multimodular characteristic
polynomial equals the Faddeev-LeVerrier one it replaced, and the integer
annihilation check agrees with evaluating the polynomial at the matrix
over the rationals."""
from fractions import Fraction

import pytest

from circperm.algebra import _check_kills, char_poly
from circperm.errors import AnnihilationError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def faddeev_char_poly(matrix) -> list[Fraction]:
    """Coefficients of the monic det(xI - M), ascending, by Faddeev-LeVerrier
    over the rationals; the per-step division by k is exact."""
    dim = len(matrix)
    if dim == 0:
        return [Fraction(1)]
    m = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (dim + 1)
    coeffs[dim] = Fraction(1)
    mk = [row[:] for row in m]
    for k in range(1, dim + 1):
        ck = -sum(mk[i][i] for i in range(dim)) / k
        coeffs[dim - k] = ck
        if k == dim:
            break
        for i in range(dim):
            mk[i][i] += ck
        mk = [[sum(m[i][t] * mk[t][j] for t in range(dim)) for j in range(dim)]
              for i in range(dim)]
    return coeffs


def eval_matrix(coeffs, m) -> list[list[Fraction]]:
    """Horner evaluation of the polynomial with ascending `coeffs` at a
    square matrix over the rationals."""
    dim = len(m)
    acc = [[Fraction(0)] * dim for _ in range(dim)]
    for c in reversed(coeffs):
        acc = [[sum((acc[i][k] * m[k][j] for k in range(dim)), Fraction(0))
                + (c if i == j else 0) for j in range(dim)] for i in range(dim)]
    return acc


_small = st.integers(-3, 3)
_big = st.integers(-2 ** 200, 2 ** 200)
_entry = st.one_of(st.just(0), _small, _big)


@st.composite
def matrices(draw):
    """Square integer matrices of dimension 0-9: dense draws, sparse ones (mostly
    zero, so pivots are missing), strictly upper triangular (nilpotent),
    permutations scaled entrywise, and rank-one (singular) products."""
    dim = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["dense", "sparse", "nilpotent",
                                 "permutation", "rank-one"]))
    if kind == "dense":
        return [[draw(_entry) for _ in range(dim)] for _ in range(dim)]
    if kind == "sparse":
        return [[draw(_entry) if draw(st.integers(0, 3)) == 0 else 0
                 for _ in range(dim)] for _ in range(dim)]
    if kind == "nilpotent":
        return [[draw(_entry) if j > i else 0 for j in range(dim)]
                for i in range(dim)]
    if kind == "permutation":
        perm = draw(st.permutations(range(dim)))
        return [[draw(st.one_of(st.just(1), _entry)) if perm[i] == j else 0
                 for j in range(dim)] for i in range(dim)]
    u = [draw(_entry) for _ in range(dim)]
    v = [draw(_small) for _ in range(dim)]
    return [[a * b for b in v] for a in u]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(matrices())
@hypothesis.example([[2 ** 200]])                   # needs four primes
@hypothesis.example([[0, 2 ** 200], [-2 ** 200, 0]])
@hypothesis.example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
def test_char_poly_matches_faddeev_leverrier(m):
    got = char_poly(m)
    assert got == faddeev_char_poly(m)
    assert all(type(c) is int for c in got)
    _check_kills(got, m, 0)                         # Cayley-Hamilton


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(matrices(), _small.filter(lambda c: c != 0), st.integers(0, 9))
def test_integer_annihilation_check_agrees_with_rational_evaluation(m, bump, k):
    """A characteristic polynomial with one coefficient moved passes the
    integer check exactly when rational evaluation gives the zero matrix."""
    cs = [int(c) for c in faddeev_char_poly(m)]
    cs[min(k, len(cs) - 1)] += bump
    kills = not any(any(row) for row in eval_matrix(cs, m))
    if kills:
        _check_kills(cs, m, 0)
    else:
        with pytest.raises(AnnihilationError, match=f"B_0 .dimension {len(m)}"):
            _check_kills(cs, m, 0)

