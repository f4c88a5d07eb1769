"""Exact polynomial/matrix algebra and recurrence machinery.

Every asserted value is exact.  Characteristic polynomials are computed on
ints: each block is an integer matrix, the transfer system being built on
integer weights, so its characteristic polynomial chi_i is an int
coefficient list, found mod 61-bit primes by Hessenberg reduction and
combined by CRT under a Hadamard bound on the coefficients.  Annihilation
is checked and the distinct chi_i are multiplied exactly on ints; the
rational annihilator of a rational-weight spec is made once from that
product, for the report (`pipeline.derive`).  Recurrences are fitted to
integer terms mod the same primes, lifted to integer coefficients by CRT
and checked exactly on ints, and evaluated on scaled ints by Bostan-Mori
halving, whose only product is the schoolbook `_mul`.  Growth seeks
only the top real root of the characteristic polynomial: float Newton from
above, on it scaled by a power of two at any degree, proposes it, and a
dyadic bracket about 2^-BRACKET_BITS of it wide is certified on ints by
two exact signs and one Taylor shift, with no rounding edge of the
DECIMALS-place grid inside; only when that fails does a Descartes search
isolate the root and bisect it until its rounding is certain.  A float
never decides a reported digit.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from operator import mul
from typing import Optional, Sequence

from .errors import AnnihilationError, InconsistencyError, NoRecurrenceError

Matrix = Sequence[Sequence[int]]


def exact(num, den):
    """num / den for ints or Fractions, exactly: an int when the quotient is
    integral, else a reduced Fraction.  Every exact value the package
    returns takes this form."""
    return num // den if num % den == 0 else Fraction(num, den)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for
    37 < n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes below 2^61 in descending order, searched for on first use
_PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The i-th prime below 2^61 (0-based, descending)."""
    while len(_PRIMES) <= i:
        p = (_PRIMES[-1] if _PRIMES else (1 << 61) + 1) - 2
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[i]


def _char_poly_mod(m: list[list[int]], p: int) -> list[int]:
    """Coefficients of det(xI - m) mod p, ascending: reduction to upper
    Hessenberg form by similarity, then the Hessenberg recurrence (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    n = len(m)
    h = [[v % p for v in row] for row in m]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c]), None)
        if piv is None:
            continue
        r = c + 1
        if piv != r:
            h[piv], h[r] = h[r], h[piv]
            for row in h:
                row[piv], row[r] = row[r], row[piv]
        top = h[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, n):
            u = h[i][c] * inv % p
            if u:
                # row_i -= u row_r, then col_r += u col_i: a similarity
                h[i] = [(a - u * b) % p for a, b in zip(h[i], top)]
                for row in h:
                    row[r] = (row[r] + u * row[i]) % p
    # polys[k] = char poly of the leading k x k block of h
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]                       # x * polys[k]
        for j, v in enumerate(polys[k]):
            nxt[j] -= h[k][k] * v
        t = 1
        for i in range(k, 0, -1):
            # t = h[k][k-1] ... h[i][i-1], the subdiagonal below row i-1
            t = t * h[i][i - 1] % p
            f = t * h[i - 1][k] % p
            if f:
                for j, v in enumerate(polys[i - 1]):
                    nxt[j] -= f * v
        polys.append([v % p for v in nxt])
    return polys[n]


def _norm(row: Sequence[int]) -> int:
    """The Euclidean norm of an integer vector, rounded up."""
    sq = sum(v * v for v in row)
    norm = math.isqrt(sq)
    return norm + (norm * norm < sq)


def _lift(values: list[int], modulus: int, residues: list[int],
          p: int) -> list[int]:
    """Garner's CRT step: the values mod modulus * p that are `values` mod
    `modulus` and `residues` mod the prime p."""
    inv = pow(modulus, -1, p)
    return [c + modulus * ((r - c) * inv % p) for c, r in zip(values, residues)]


def char_poly(matrix: Matrix) -> list[int]:
    """Coefficients of the monic characteristic polynomial det(xI - M) of
    an integer matrix M, ascending, exact.

    They are found mod 61-bit primes (_char_poly_mod) and combined by CRT
    until the primes' product exceeds 2 * bound + 1, where bound =
    prod_i (1 + ceil(|row_i|_2)) is at least every coefficient's absolute
    value: c_k is a signed sum of principal minors, each at most the product
    of its rows' norms (Hadamard).  The result is read in the symmetric
    range.
    """
    bound = 1
    for row in matrix:
        bound *= 1 + _norm(row)
    cs, modulus, i = [0] * (len(matrix) + 1), 1, 0
    while modulus <= 2 * bound + 1:
        p = _prime(i)
        cs = _lift(cs, modulus, _char_poly_mod(matrix, p), p)
        modulus, i = modulus * p, i + 1
    return [c - modulus if 2 * c > modulus else c for c in cs]


def _check_kills(chi: Sequence[int], block: Matrix, index: int) -> None:
    """Raise unless chi(block) = 0, for int coefficients (ascending) and an
    integer block: Horner's rule, exact on ints."""
    dim = len(block)
    m = [[(j, v) for j, v in enumerate(row) if v] for row in block]
    acc = [[0] * dim for _ in range(dim)]
    for c in reversed(chi):
        nxt = []
        for i, row in enumerate(acc):
            out = [0] * dim
            for k, a in enumerate(row):
                if a:
                    for j, v in m[k]:
                        out[j] += a * v
            out[i] += c
            nxt.append(out)
        acc = nxt
    if any(any(row) for row in acc):
        raise AnnihilationError(
            f"annihilation check: the polynomial does not kill block B_{index} "
            f"(dimension {dim})")


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials (schoolbook)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class Annihilator:
    """A polynomial that kills every block, its coefficients ascending by
    degree (the leading one nonzero; ints when integral, else Fractions),
    with the characteristic polynomial chi_i of each block B_i kept in
    `chis` as its ascending int coefficients (block order, repeats
    included): the part of the sequence that comes from B_i obeys chi_i."""

    coeffs: tuple
    chis: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def annihilator_from_blocks(blocks: Sequence[Matrix]) -> Annihilator:
    """Product of the integer blocks' characteristic polynomials chi_i,
    repeated factors included once, with every chi_i handed on in `chis`;
    all int coefficients.  Each block is checked against its own chi_i,
    which the product is a multiple of, so the product kills every block."""
    chis = []
    for i, b in enumerate(blocks):
        chi = char_poly(b)
        _check_kills(chi, b, i)
        chis.append(tuple(chi))
    return Annihilator(tuple(reduce(_mul, dict.fromkeys(chis), [1])),
                       tuple(chis))


@dataclass(frozen=True)
class Recurrence:
    """T(n) = sum_j coeffs[j-1] * T(n-j), valid for n >= base + order; each
    coefficient and initial is an int when integral, else a Fraction."""

    order: int
    coeffs: tuple
    base: int
    initials: tuple

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            terms.append(("-" if c < 0 else "+") + f"{mag}T(n-{j})")
        rhs = " ".join(terms).lstrip("+") or "0"
        return f"T(n) = {rhs}"


class Massey:
    """Berlekamp-Massey mod a prime (Massey 1969) over a list of integer
    terms that may still grow: `read()` takes in every term appended since
    its last call, in O(order) operations each.  `order` is then the length
    of the shortest linear recurrence mod p that generates every term read,
    and `conn` its connection polynomial (conn[0] = 1, length order + 1).
    The run uses `_prime(index)`.
    """

    def __init__(self, terms: Sequence[int], index: int = 0):
        self.terms, self.p = terms, _prime(index)
        self.residues: list[int] = []
        self.conn, self.prev = [1], [1]   # prev: conn before the last length change
        self.order, self.gap, self.prev_disc = 0, 1, 1

    def read(self) -> "Massey":
        res, terms, p = self.residues, self.terms, self.p
        while len(res) < len(terms):
            u = terms[len(res)] % p
            n, order, conn = len(res), self.order, self.conn
            disc = (u + sum(map(mul, conn[1:], reversed(res[n - order:n])))) % p
            res.append(u)
            if disc == 0:
                self.gap += 1
                continue
            f, gap, prev = disc * pow(self.prev_disc, -1, p) % p, self.gap, self.prev
            grown = conn + [0] * (len(prev) + gap - len(conn))
            grown[gap:gap + len(prev)] = [(a - f * b) % p
                                          for a, b in zip(grown[gap:], prev)]
            if 2 * order <= n:
                self.prev, self.prev_disc = conn, disc
                self.order, self.gap = n + 1 - order, 1
            else:
                self.gap += 1
            self.conn = grown + [0] * (self.order + 1 - len(grown))
        return self


def _generates(terms: Sequence[int], coeffs: list[int]) -> bool:
    """Whether T(n) = sum_j coeffs[j-1] T(n-j) at every n of the integer
    terms past the first len(coeffs)."""
    r, window = len(coeffs), coeffs[::-1]
    return all(terms[n] == sum(map(mul, window, terms[n - r:n]))
               for n in range(r, len(terms)))


def _hankel_bits(terms: Sequence[int], size: int) -> int:
    """A b with 2^b above |det| of every k x k matrix, k <= size, whose row
    i is drawn from the terms u_i..u_(i+size): Hadamard's product of row
    norms, each below (size + 1) 2^(bit length of the row's largest term),
    so that no big int is multiplied.  That covers the Hankel matrices
    (u_(i+j)) of order k and the ones Cramer's rule makes from them by
    putting (u_k..u_(2k-1)) in a column."""
    bits = [abs(v).bit_length() for v in terms]
    return (sum(max(bits[i:i + size + 1]) for i in range(size))
            + size * (size + 1).bit_length())


def min_recurrence(terms: Sequence[int], base: int, bound: int) -> Recurrence:
    """The minimal exact linear recurrence of an integer sequence whose
    order is known to be at most `bound`, from its first bound + r terms or
    more, r being that order.

    Berlekamp-Massey (`Massey`) runs mod 61-bit primes on all the given
    terms.  Each run gives an order r_p and coefficients mod p.  The runs
    of the largest order seen are combined by CRT (a larger order starts
    afresh, a smaller one is skipped), and after each one the coefficients
    are read in the symmetric range of the CRT modulus and checked exactly,
    on ints, against the first bound + r terms.  A check that passes
    certifies the recurrence q:

    * Validity.  The sequence obeys some recurrence A of order D <= bound
      (the annihilator degree, or the transfer dimension by Cayley-
      Hamilton).  The residual R = q(E)T obeys A too, since shift operators
      commute.  The check makes R vanish at the bound >= D consecutive
      indices 0..bound-1, and A carries those zeros forward, so R = 0
      everywhere: q generates the whole sequence.
    * Minimality.  q comes from a residue mod a product of primes p of
      order r_p = r, and its denominators are prime to them, so q is
      p-integral, and so is every term, as q generates them all from
      p-integral initials.  Then q mod p generates the whole reduced
      sequence, whose linear complexity is therefore r_p, as no shorter
      recurrence fits even the terms BM read.  A sequence of linear
      complexity L has a nonsingular L x L Hankel matrix (u_(i+j)); this
      one is nonsingular mod p, hence over Q, so the order over Q is at
      least r_p.  q is minimal, and so unique: the reports cannot change.

    When to stop adding primes.  Say the bound holds and at least bound + r
    terms are given.  Then q has integer coefficients: the generating
    function of the terms is P/C in lowest terms, with C(x) = 1 - sum_j
    c_j x^j, and as a power series with integer coefficients it converges
    on the p-adic open unit disc for every prime p, where a root of C
    would be one of P as well.  So C's inverse roots have p-adic size at
    most 1, and its coefficients, their elementary symmetric functions, are
    integers (Fatou's lemma).  Hence no run has an order above r, and a run
    mod a prime that does not divide the r x r Hankel determinant has order
    r and q's residues, as BM's recurrence of that length is unique on
    N >= 2r terms.  The primes of a smaller order all divide that
    determinant, a nonzero integer.  Let H = 2^b, b the `_hankel_bits` of
    order K = min(bound, N - bound) on the N given terms; as r <= K, H bounds
    that determinant, and by Cramer's rule every |c_j|.  Once the CRT
    modulus of the runs of the largest order exceeds 2 H, their primes
    cannot all divide the determinant, so that order is r and the residues
    are q's, which the symmetric range reads back, and the check passes.
    If it has not passed by then, the premises fail: the bound is false or
    too few terms were given, and NoRecurrenceError is raised.  It is
    raised at once when a run's order exceeds the bound, and
    InconsistencyError when fewer than bound + r_p terms are given, which
    under the premises is fewer than bound + r.

    An all-zero sequence gets order 1 with coefficient 0.
    """
    given, group, modulus, bits = len(terms), -1, 1, None
    for index in count():
        run = Massey(terms, index).read()
        order, p = run.order, run.p
        if order > bound:
            raise NoRecurrenceError(
                f"no recurrence of order <= {bound} fits {given} terms")
        if given < bound + order:
            raise InconsistencyError(
                f"need at least {bound + order} terms, got {given}")
        if order < group:
            continue
        if order > group:
            group, modulus, lifted = order, 1, [0] * order
        lifted = _lift(lifted, modulus, [-c % p for c in run.conn[1:]], p)
        modulus *= p
        coeffs = [c - modulus if 2 * c > modulus else c for c in lifted]
        if _generates(terms[:bound + order], coeffs):
            break
        if bits is None:
            bits = _hankel_bits(terms, min(bound, given - bound))
        if modulus.bit_length() > bits + 1:      # modulus >= 2^(b+1) > 2 H
            raise NoRecurrenceError(
                f"no recurrence of order <= {bound} is certified by "
                f"{given} terms")
    if order == 0:
        order, coeffs = 1, [0]
    return Recurrence(order, tuple(coeffs), base, tuple(terms[:order]))


def eval_recurrence(rec: Recurrence, n: int):
    """Exact T(n) = [x^k] P(x)/Q(x), k = n - base, with Q = 1 - sum_j c_j x^j
    and P = Q * (initials) mod x^d, by halving k (Bostan and Mori 2021):
    O(d^2 log n) multiplications, all on ints, and a series division once
    k < d.  Below the base it runs the reversed recurrence forward, which
    needs an invertible trailing coefficient."""
    if n < rec.base:
        cd = rec.coeffs[-1]
        if cd == 0:
            raise InconsistencyError("cannot extend backward: trailing coefficient 0")
        # S(k) = T(base + d - 1 - k) has S(k) = sum_{j<d} -c_(d-j)/c_d
        # S(k-j) + S(k-d)/c_d, starting from the initials reversed
        back = tuple(exact(-c, cd) for c in reversed(rec.coeffs[:-1]))
        rev = Recurrence(rec.order, back + (exact(1, cd),), 0,
                         rec.initials[::-1])
        return eval_recurrence(rev, rec.base + rec.order - 1 - n)
    # on ints: Q times the lcm of the coefficient denominators, and the
    # initials times that of theirs, `common`, so P/Q generates common * T
    d, k = rec.order, n - rec.base
    scale = math.lcm(*(c.denominator for c in rec.coeffs))
    common = math.lcm(*(v.denominator for v in rec.initials))
    q = [scale] + [-int(c * scale) for c in rec.coeffs]
    p = _mul(q, [int(v * common) for v in rec.initials])[:d]
    while k >= d:
        # P/Q = P(x)Q(-x) / Q(x)Q(-x), whose denominator is even in x
        q_neg = [(-c if j % 2 else c) for j, c in enumerate(q)]
        p = _mul(p, q_neg)[k % 2::2]
        q = _mul(q, q_neg)[::2]
        k //= 2
    # P/Q up to x^k on ints: u_i = q0^(i+1) [x^i] P/Q
    pw = [q[0] ** i for i in range(k + 2)]
    u = []
    for i in range(k + 1):
        u.append(pw[i] * p[i] - sum(q[j] * pw[j - 1] * u[i - j]
                                    for j in range(1, i + 1)))
    return exact(u[k], common * pw[k + 1])


# reports print growth constants to this many decimal places, and
# _top_root brackets its root until that rounding is certain
DECIMALS = 10


def _grid_cells(lo: int, hi: int, k: int) -> tuple[int, int]:
    """The 10^-DECIMALS grid cells that hold lo / 2^k from the right and
    hi / 2^k from the left: equal when no rounding edge lies between, else
    for ends within a cell the one edge is (first + 1/2) / 10^DECIMALS."""
    cell = 10 ** DECIMALS
    return ((2 * lo * cell + (1 << k)) >> k + 1,
            -(((1 << k) - 2 * hi * cell) >> k + 1))


@dataclass(frozen=True)
class GrowthEstimate:
    """Dominant growth of a recurrence: its dominant root when a theorem
    identifies it among the real roots, else a lower bound on the dominant
    modulus.  Both are exact rationals, ints when integral, that round to
    DECIMALS places as the root does: usually the dyadic midpoint of a
    certified bracket about 2^-BRACKET_BITS of the root wide (an integer
    root, estimated closely, is its own midpoint); else what the fallback
    search returns, a root or the midpoint of a bracket that holds one."""

    dominant_root: Optional[Fraction | int]
    modulus: Fraction | int
    error_bound: float
    note: str


def _taylor_shift(c: list[int], a: int = 1) -> list[int]:
    """c(x + a), coefficients ascending (Horner's O(d^2) additions)."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _primitive(c: list[int]) -> list[int]:
    """c over the gcd of its coefficients (signs kept)."""
    g = math.gcd(*c)
    return [v // g for v in c]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) up to sign, by a primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [v * b[-1] for v in r]
            for i, v in enumerate(b):
                r[shift + i] -= top * v
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r)
    return a


def _gcd_degree_mod(a: list[int], b: list[int], q: int) -> int:
    """The degree of gcd(a, b) mod the prime q, by Euclid's algorithm over
    GF(q)."""
    def reduced(c: list[int]) -> list[int]:
        c = [v % q for v in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = reduced(a), reduced(b)
    while b:
        inv, size = pow(b[-1], -1, q), len(b)
        while len(a) >= size:
            f, s = a[-1] * inv % q, len(a) - size
            a[s:] = [(x - f * y) % q for x, y in zip(a[s:], b)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _squarefree(p: list[int]) -> list[int]:
    """p / gcd(p, p'): p with every repeated root made simple.

    The modular test decides and the integer PRS computes.  Take the first
    prime q = _prime(i) that does not divide p's leading coefficient.  A
    repeated factor f^2 of p has a leading coefficient that divides p's, so
    f keeps its degree mod q and divides both p and p' there: a gcd(p, p')
    of degree 0 mod q proves p squarefree over Q, and p is returned as it
    is.  Otherwise (a repeated factor, or an unlucky q) the gcd is computed
    over Z by `_gcd`, which is exact up to sign, as are the roots.
    """
    dp = [i * c for i, c in enumerate(p)][1:]
    q = next(q for q in map(_prime, count()) if p[-1] % q)
    if _gcd_degree_mod(p, dp, q) == 0:
        return p
    g = _gcd(p, dp)
    # g is primitive, so the quotient stays in Z[x] (Gauss's lemma)
    quot, r = [0] * (len(p) - len(g) + 1), list(p)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = r[shift + len(g) - 1] // g[-1]
        for i, v in enumerate(g):
            r[shift + i] -= quot[shift] * v
    return quot


def _sign_changes(c: list[int]) -> int:
    """Descartes' bound on the number of roots of c in (0, 1): the sign
    changes of (1 + x)^d c(1 / (1 + x)), exact when it is 0 or 1."""
    signs = [v > 0 for v in _taylor_shift(c[::-1]) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _value(c: list[int], num: int, den: int) -> int:
    """den^d c(num / den), exactly (homogeneous Horner)."""
    acc, power = 0, 1
    for v in reversed(c):
        acc, power = acc * num + v * power, power * den
    return acc


def _top_root(c: list[int]) -> Optional[Fraction | int]:
    """The largest positive root of the squarefree integer polynomial c,
    or None when it has none.

    Every root lies below B = 2^b, the least power of two with c(B) != 0
    and every coefficient of c(x + B) of one sign (Descartes).  Then
    Descartes-rule isolation (Collins-Akritas 1976; the bisection form in
    Vincent-Akritas-Strzebonski 2005), all on ints, from the right:
    q(t) = c(Bt) on (0, 1) is split into dyadic halves, 2^d q(t/2) and its
    Taylor shift by 1, right half first.  The first piece whose Descartes
    count is 1 holds the top root, as every piece to its right had count 0
    or was split; a split point that is a root is returned once the half
    to its right is found empty.  That piece is bisected with exact signs
    until it is at most one cell of the 10^-DECIMALS grid wide, and on until
    no rounding edge (s + 1/2) / 10^DECIMALS lies inside it, so the root's
    rounding to DECIMALS places is certain.  A root on an edge would keep
    that going forever, so the one edge inside is tried as a root of c,
    exactly.  The result is the root itself when it is a split, bisection
    or edge point, else the midpoint of a bracket that holds it.
    """
    d, b, shifted = len(c) - 1, 0, _taylor_shift(c)
    while shifted[0] == 0 or len({v > 0 for v in shifted if v}) > 1:
        shifted = _taylor_shift(shifted, 1 << b)            # c(x + 2^(b+1))
        b += 1
    q = _primitive([v << b * i for i, v in enumerate(c)])
    cell = 10 ** DECIMALS

    def x_at(j: int, k: int) -> Fraction | int:
        """The point t = j / 2^k of (0, 1) back on (0, B)."""
        return exact(j << b, 1 << k)

    def refine(m: int, k: int, left: bool) -> Fraction | int:
        """The one root of q on (m, m + 1) / 2^k, where q is `left`-signed
        just right of the left end (which may itself be a root)."""
        tried = None
        while True:
            if cell << b <= 1 << k:
                below, above = _grid_cells(m << b, (m + 1) << b, k)
                if below == above:
                    break
                if below != tried:
                    tried = below
                    if _value(c, 2 * below + 1, 2 * cell) == 0:
                        return Fraction(2 * below + 1, 2 * cell)
            mid = _value(q, 2 * m + 1, 1 << k + 1)
            if mid == 0:
                break
            m, k = 2 * m + ((mid > 0) == left), k + 1
        return x_at(2 * m + 1, k + 1)

    pieces = [(0, 0, q)]        # q on (m, m + 1) / 2^k, or None: a root at m / 2^k
    while pieces:
        m, k, piece = pieces.pop()
        if piece is None:
            return x_at(m, k)
        count = _sign_changes(piece)
        if count == 1:
            return refine(m, k, next(v for v in piece if v) > 0)
        if count > 1:
            half = _primitive([v << d - i for i, v in enumerate(piece)])  # 2^d piece(t/2)
            pieces.append((2 * m, k + 1, half))
            if sum(half) == 0:
                pieces.append((2 * m + 1, k + 1, None))
            pieces.append((2 * m + 1, k + 1, _taylor_shift(half)))
    return None


# the certificate brackets an estimate of the top root between dyadic points
# about 2^-BRACKET_BITS of it apart
BRACKET_BITS = 40


def _mirror(c: Sequence) -> list:
    """(-1)^i c_i: the coefficients of c(-x), whose positive roots are the
    negatives of c's negative ones."""
    return [-v if i % 2 else v for i, v in enumerate(c)]


def _fujiwara(c: list[int]) -> float:
    """log2 of Fujiwara's bound 2 max(|c_(d-i) / c_d|^(1/i),
    |c_0 / (2 c_d)|^(1/d)) on the moduli of the roots of c, so that
    neither a coefficient nor the bound need fit a float (-inf for a power
    of x)."""
    d, lead = len(c) - 1, math.log2(abs(c[-1]))
    logs = [(math.log2(abs(v)) - lead - (i == 0)) / (d - i)
            for i, v in enumerate(c[:-1]) if v]
    return 1 + max(logs, default=-math.inf)


def _newton_from_above(c: list[int]) -> Optional[float]:
    """Newton's iteration in floats on c (leading coefficient > 0), down
    from Fujiwara's bound F, run on c(Rt) / (c_d R^d) from t = F / R, the
    least R = 2^e >= F (e >= 0): its coefficients c_(d-i) / (c_d R^i) are
    at most 2^(1-i) in size, so no value overflows at any degree.
    When no root z of c has Re z above its top positive root rho
    (Pringsheim, for a nonnegative sequence), c'/c = sum_z 1/(x - z) >=
    1/(x - rho) at every x > rho, so no step overshoots rho and the
    iterates fall to it.  None when R leaves the floats, so that rho may
    too, when a value is not finite or when the iteration does not
    settle."""
    f = _fujiwara(c)
    e = math.ceil(max(f, 0.0))
    if e >= sys.float_info.max_exp:
        return None
    down = [v / (c[-1] << e * i) for i, v in enumerate(reversed(c))]
    t = 2 ** (f - e)
    for _ in range(8 * len(c) + 64):
        p = dp = 0.0
        for v in down:
            p, dp = p * t + v, dp * t + p
        if not (math.isfinite(p) and math.isfinite(dp) and dp > 0):
            return None
        step = p / dp
        if step <= t * 2 ** -52:          # settled, or past rho by rounding
            return math.ldexp(t, e)
        t -= step
    return None


def _polish(c: list[int], x: Optional[float]) -> Optional[float]:
    """x after at most 8 Newton steps on c whose c(x) and c'(x) are exact
    (`_value` at x, a dyadic rational), each step rounded to a float, so
    that no cancellation in c(x) limits the result; None when x or a step
    is not a finite float."""
    dc = [i * v for i, v in enumerate(c)][1:]
    for _ in range(8):
        if x is None or not math.isfinite(x):
            return None
        num, den = x.as_integer_ratio()
        slope = _value(dc, num, den) * den
        if not slope:
            break
        try:
            step = _value(c, num, den) / slope
        except OverflowError:
            return None
        x -= step
        if abs(step) <= abs(x) * 2 ** -50:
            break
    return x


def _estimate(c: list[int]) -> Optional[float]:
    """A float estimate of the top positive root of c (leading coefficient
    > 0), or None: `_newton_from_above`, then `_polish` on exact values."""
    return _polish(c, _newton_from_above(c))


def _bracket(c: list[int], x) -> Optional[Fraction | int]:
    """The midpoint m / 2^k of the bracket (lo, hi) = (m - 2, m + 2) / 2^k
    about the estimate x, 2^(BRACKET_BITS+1) <= x 2^k < 2^(BRACKET_BITS+2)
    (k >= 0), when the bracket is certified to hold the top positive root
    of c (leading coefficient > 0) and to settle its rounding; else None.
    Certified means, cheapest check first:

    * no rounding edge (s + 1/2) / 10^DECIMALS lies in (lo, hi), so every
      point of the bracket rounds alike to DECIMALS places;
    * c(lo) < 0 < c(hi), so a root lies in (lo, hi);
    * 2^(kd) c((y + m + 2) / 2^k), one Taylor shift, has no negative
      coefficient, so it is > 0 for every y >= 0 and no root is >= hi.
    """
    if x is None or not 0 < x < math.inf:
        return None
    k = max(0, BRACKET_BITS + 2 - math.frexp(x)[1])
    m, den = round(math.ldexp(x, k)), 1 << k
    lo, hi = m - 2, m + 2
    below, above = _grid_cells(lo, hi, k)
    if below != above or not _value(c, lo, den) < 0 < _value(c, hi, den):
        return None
    d = len(c) - 1
    scaled = [v << k * (d - i) for i, v in enumerate(c)]       # 2^(kd) c(y / 2^k)
    if min(_taylor_shift(scaled, hi)) < 0:
        return None
    return exact(m, den)


def _top(c: list[int]) -> Optional[Fraction | int]:
    """The largest positive root of the integer polynomial c, or None when
    it has none, rounding to DECIMALS places as `_top_root(_squarefree(c))`
    does.

    With c signed to lead > 0, nonzero coefficients of one sign leave no
    positive root (Descartes).  Else an estimate (`_estimate`) is tried
    against its certificate (`_bracket`), and only when that fails (a
    repeated or clustered top root, a rounding edge in the bracket, an
    estimate that is off or missing) does the Descartes search of
    `_top_root` run on c's squarefree part."""
    if c[-1] < 0:
        c = [-v for v in c]
    if min(c) >= 0:
        return None
    root = _bracket(c, _estimate(c))
    return _top_root(_squarefree(c)) if root is None else root


def growth(rec: Recurrence, nonneg: bool) -> GrowthEstimate:
    """Dominant growth of `rec`, the minimal recurrence of a sequence, from
    the top real roots of its characteristic polynomial chi.

    With `nonneg`, every term is >= 0, so the generating function has a
    singularity at its radius of convergence (Pringsheim; Flajolet-Sedgewick,
    Analytic Combinatorics, Thm IV.6).  As chi is minimal, its nonzero
    roots are exactly the reciprocals of the poles, so the largest positive
    real root rho has the largest modulus and is reported as dominant (0
    when there is none).  Without `nonneg` a non-real pair may dominate: the
    largest |real root| is then reported as a lower bound on the dominant
    modulus (0 if chi has no nonzero real root), and no dominant root is
    claimed.  Only those roots are sought, by `_top` on chi, and for the
    lower bound on its mirror chi(-x) too: estimate, then certificate, then
    fallback.  The estimate is a float, Newton's iteration from above on
    chi scaled by a power of two; with `nonneg` every root z has Re z <=
    rho, so it never overshoots rho.  The certificate is exact, a bracket
    about 2^-BRACKET_BITS of rho wide whose midpoint is reported.  The
    fallback, when the certificate fails, is the Descartes search
    `_top_root` on the squarefree part.  Either answer rounds to DECIMALS
    places as the root does.
    """
    scale = math.lcm(*(c.denominator for c in rec.coeffs))
    chi = [int(-c * scale) for c in reversed(rec.coeffs)] + [scale]
    top = _top(chi)
    if nonneg:
        best = 0 if top is None else top
        return GrowthEstimate(best, best, 1e-9, "largest-modulus real root")
    mirror = _top(_mirror(chi))
    best = max((r for r in (top, mirror) if r is not None), default=0)
    return GrowthEstimate(None, best, 1e-9,
                          "terms may be negative: largest |real root|, "
                          "a lower bound on the dominant modulus")
