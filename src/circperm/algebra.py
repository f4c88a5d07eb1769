"""Exact polynomial/matrix algebra and recurrence machinery.

Every asserted value is exact.  Characteristic polynomials are computed on
ints: each block is scaled to an integer matrix, its characteristic
polynomial is found mod 61-bit primes by Hessenberg reduction, and the
residues are combined by CRT under a Hadamard bound on the coefficients.
Annihilation is then checked exactly over ints.  Recurrences are fitted
mod the same primes, lifted to rationals and checked exactly on ints, and
evaluated on scaled ints.  Growth isolates only the top real root of the
characteristic polynomial, on ints, and bisects it until its rounding to
DECIMALS places is certain, so no float enters any reported value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Optional, Sequence

from .errors import AnnihilationError, InconsistencyError, NoRecurrenceError

Matrix = Sequence[Sequence]


@dataclass(frozen=True)
class Polynomial:
    """Coefficients ascending by degree; trimmed so the leading one is nonzero."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_list(cs) -> "Polynomial":
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) == 1:
                piece = mono
            elif i == 0:
                piece = str(abs(c))
            else:
                piece = f"{abs(c)}{mono}"
            parts.append(("-" if c < 0 else "+") + piece)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else "-" + s[1:]


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


def char_poly(matrix: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - M), exact.

    With D the lcm of the entries' denominators, DM is an integer matrix
    and chi_M(x) = D^(-d) chi_DM(Dx).  chi_DM is found mod 61-bit primes
    (_char_poly_mod) and combined by CRT until the primes' product exceeds
    2 * bound + 1, where bound = prod_i (1 + ceil(|row_i|_2)) is at least
    every coefficient's absolute value: c_k is a signed sum of principal
    minors, each at most the product of its rows' norms (Hadamard).  The
    result is read in the symmetric range.
    """
    dim = len(matrix)
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    m = [[int(v * scale) for v in row] for row in matrix]
    bound = 1
    for row in m:
        bound *= 1 + _norm(row)
    cs, modulus, i = [0] * (dim + 1), 1, 0
    while modulus <= 2 * bound + 1:
        p = _prime(i)
        cs = _lift(cs, modulus, _char_poly_mod(m, p), p)
        modulus, i = modulus * p, i + 1
    cs = [c - modulus if 2 * c > modulus else c for c in cs]
    return Polynomial(tuple(Fraction(c, scale ** (dim - k))
                            for k, c in enumerate(cs)))


def _check_kills(poly: Polynomial, block: Matrix, index: int) -> None:
    """Raise unless poly(block) = 0, checked over ints: with D the lcm of
    the block's denominators and L that of the coefficients', it is
    sum_k L c_k D^(deg-k) (D block)^k = 0, evaluated by Horner."""
    dim = len(block)
    scale = math.lcm(*(v.denominator for row in block for v in row))
    m = [[(j, int(v * scale)) for j, v in enumerate(row) if v] for row in block]
    coeffs = [Fraction(c) * scale ** (poly.degree - k)
              for k, c in enumerate(poly.coeffs)]
    common = math.lcm(*(c.denominator for c in coeffs))
    acc = [[0] * dim for _ in range(dim)]
    for c in reversed(coeffs):
        c = int(c * common)
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


def verify_annihilates(poly: Polynomial, blocks: Sequence[Matrix]) -> None:
    """Raise AnnihilationError, naming the block, unless poly(B) = 0 for
    every block; exact, on ints."""
    for i, b in enumerate(blocks):
        _check_kills(poly, b, i)


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer polynomials (schoolbook)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _product(polys: Sequence[Polynomial]) -> tuple[Fraction, ...]:
    """Coefficients of the product of the polynomials, on ints: each factor
    is cleared of its denominators, the integer factors are multiplied, and
    the product of the clearing scales is divided out once."""
    out, scale = [1], 1
    for f in polys:
        d = math.lcm(*(c.denominator for c in f.coeffs))
        out = _mul(out, [c.numerator * (d // c.denominator) for c in f.coeffs])
        scale *= d
    return tuple(Fraction(c, scale) for c in out)


@dataclass(frozen=True)
class Annihilator(Polynomial):
    """A polynomial that kills every block, with the characteristic
    polynomial chi_i of each block B_i kept in `chis` (block order, repeats
    included): the part of the sequence that comes from B_i obeys chi_i."""

    chis: tuple[Polynomial, ...]


def annihilator_from_blocks(blocks: Sequence[Matrix]) -> Annihilator:
    """Product of the blocks' characteristic polynomials chi_i, repeated
    factors included once, with every chi_i handed on in `chis`.  Each block
    is checked against its own chi_i, which the product is a multiple of, so
    the product kills every block.  The distinct factors are multiplied on
    ints (`_product`)."""
    chis = []
    for i, b in enumerate(blocks):
        cp = char_poly(b)
        _check_kills(cp, b, i)
        chis.append(cp)
    return Annihilator(_product(list(dict.fromkeys(chis))), tuple(chis))


@dataclass(frozen=True)
class Recurrence:
    """T(n) = sum_j coeffs[j-1] * T(n-j), valid for n >= base + order."""

    order: int
    coeffs: tuple[Fraction, ...]
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
    """Berlekamp-Massey mod a prime (Massey 1969) over a list of terms that
    may still grow: `read()` takes in every term appended since its last
    call, in O(order) operations each.  `order` is then the length of the
    shortest linear recurrence mod p that generates every term read, and
    `conn` its connection polynomial (conn[0] = 1, length order + 1).  The
    run uses `_prime(index)`, and moves to the next prime, starting over
    from the first term, whenever p divides a term's denominator.
    """

    def __init__(self, terms: Sequence, index: int = 0):
        self.terms = terms
        self._start(index)

    def _start(self, index: int) -> None:
        self.index, self.p = index, _prime(index)
        self.residues: list[int] = []
        self.conn, self.prev = [1], [1]   # prev: conn before the last length change
        self.order, self.gap, self.prev_disc = 0, 1, 1

    def read(self) -> "Massey":
        res, terms = self.residues, self.terms
        while len(res) < len(terms):
            p, t = self.p, terms[len(res)]
            if type(t) is int:
                u = t % p
            elif t.denominator % p:
                u = t.numerator * pow(t.denominator, -1, p) % p
            else:
                self._start(self.index + 1)
                res = self.residues
                continue
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


def _rational(u: int, m: int) -> Optional[Fraction]:
    """The a/b = u mod m with |a| and b at most sqrt(m/2), which is unique
    when it exists, or None (Wang 1981): the extended Euclidean algorithm on
    m and u, stopped at the first remainder at most sqrt(m/2).  gcd(a, b) =
    1 forces gcd(b, m) = 1."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _cleared(terms: Sequence) -> list[int]:
    """The terms times the lcm of their denominators: the same recurrences."""
    scale = math.lcm(*(t.denominator for t in terms))
    return [t.numerator * (scale // t.denominator) for t in terms]


def _generates(terms: Sequence, coeffs: list[Fraction]) -> bool:
    """Whether T(n) = sum_j coeffs[j-1] T(n-j) at every n of the terms past
    the first len(coeffs), checked on ints: the terms are cleared of their
    denominators and the coefficients of theirs."""
    r, u = len(coeffs), _cleared(terms)
    scale = math.lcm(*(c.denominator for c in coeffs))
    window = [c.numerator * (scale // c.denominator) for c in reversed(coeffs)]
    return all(scale * u[n] == sum(map(mul, window, u[n - r:n]))
               for n in range(r, len(u)))


def _hankel_bound(terms: Sequence, size: int) -> int:
    """A bound on |det| of every k x k matrix, k <= size, whose row i is
    drawn from the cleared terms u_i..u_(i+size): Hadamard's product of
    row norms, each at least 1.  That covers the Hankel matrices
    (u_(i+j)) of order k and the ones Cramer's rule makes from them by
    putting (u_k..u_(2k-1)) in a column."""
    u = _cleared(terms[:2 * size])
    bound = 1
    for i in range(size):
        bound *= max(1, _norm(u[i:i + size + 1]))
    return bound


def min_recurrence(terms: Sequence, base: int, bound: int) -> Recurrence:
    """The minimal exact linear recurrence of a sequence whose order is
    known to be at most `bound`, from its first bound + r terms or more,
    r being that order.

    Berlekamp-Massey (`Massey`) runs mod 61-bit primes on all the given
    terms, skipping a prime that divides a term's denominator.  Each run
    gives an order r_p and coefficients mod p.  The runs of the largest
    order seen are combined by CRT (a larger order starts afresh, a smaller
    one is skipped), and after each one the coefficients are recovered as
    rationals (`_rational`) and checked exactly, on ints, against the first
    bound + r terms.  A check that passes certifies the recurrence q:

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

    Both hold for rational terms as well as integer ones.

    When to stop adding primes.  Say the bound holds, at least bound + r
    terms are given, and every term of the sequence is p-integral for each
    prime used (so for integer sequences always).  Then q is p-integral
    too: the generating function of the terms is P/C in lowest terms, with
    C(x) = 1 - sum_j c_j x^j, and as a power series with p-integral
    coefficients it converges on the p-adic open unit disc, where a root of
    C would be one of P as well.  So C's inverse roots have p-adic size at
    most 1, and its coefficients, their elementary symmetric functions, are
    p-integral (Fatou's lemma, p-adically).  Hence no run has an order
    above r, and a run mod a prime that does not divide the r x r Hankel
    determinant has order r and q's residues, as BM's recurrence of that
    length is unique on N >= 2r terms.  The primes of a smaller order all
    divide that determinant.  Let H be the `_hankel_bound` of order
    K = min(bound, N - bound) on the N given terms; as r <= K, it bounds
    that determinant, and by Cramer's rule the numerators and denominators
    of q's coefficients.  Once the CRT modulus of the runs of the largest
    order exceeds 2 H^2, their primes cannot all divide the determinant,
    so that order is r and the residues are q's, which `_rational`
    recovers, and the check passes.  If it has not passed by then, the
    premises fail: the bound is false or too few terms were given, and
    NoRecurrenceError is raised.  It is raised at once when a run's order
    exceeds the bound, and InconsistencyError when fewer than bound + r_p
    terms are given, which under the premises is fewer than bound + r.

    An all-zero sequence gets order 1 with coefficient 0.
    """
    count, group, modulus, index, hadamard = len(terms), -1, 1, 0, None
    while True:
        run = Massey(terms, index).read()
        index, order, p = run.index + 1, run.order, run.p
        if order > bound:
            raise NoRecurrenceError(
                f"no recurrence of order <= {bound} fits {count} terms")
        if count < bound + order:
            raise InconsistencyError(
                f"need at least {bound + order} terms, got {count}")
        if order < group:
            continue
        if order > group:
            group, modulus, lifted = order, 1, [0] * order
        lifted = _lift(lifted, modulus, [-c % p for c in run.conn[1:]], p)
        modulus *= p
        coeffs = [_rational(c, modulus) for c in lifted]
        if None not in coeffs and _generates(terms[:bound + order], coeffs):
            break
        if hadamard is None:
            hadamard = _hankel_bound(terms, min(bound, count - bound))
        if modulus > 2 * hadamard ** 2:
            raise NoRecurrenceError(
                f"no recurrence of order <= {bound} is certified by "
                f"{count} terms")
    initials = tuple(t if isinstance(t, int) else Fraction(t)
                     for t in terms[:max(order, 1)])
    if order == 0:
        return Recurrence(1, (Fraction(0),), base, initials)
    return Recurrence(order, tuple(coeffs), base, initials)


def _mulmod(a: list[int], b: list[int], chi: list[int]) -> list[int]:
    """a * b mod chi(x) = x^d - sum_j chi[j-1] x^(d-j), for a, b of degree < d."""
    d = len(chi)
    prod = _mul(a, b)
    for i in range(2 * d - 2, d - 1, -1):
        top = prod[i]
        if top:
            for j, c in enumerate(chi, 1):
                prod[i - j] += top * c
    return prod[:d]


def _mulx(a: list[int], chi: list[int]) -> list[int]:
    """x * a mod chi(x), for a of degree < d."""
    top, out = a[-1], [0] + a[:-1]
    if top:
        for j, c in enumerate(chi, 1):
            out[-j] += top * c
    return out


def eval_recurrence(rec: Recurrence, n: int):
    """Exact T(n) = sum_i r_i * initials_i with r(x) = x^(n-base) mod chi(x)
    by square-and-multiply (Fiduccia 1985): O(d^2 log n) multiplications,
    all on ints.  Below the base it runs the reversed recurrence forward,
    which needs an invertible trailing coefficient."""
    if n < rec.base:
        cd = rec.coeffs[-1]
        if cd == 0:
            raise InconsistencyError("cannot extend backward: trailing coefficient 0")
        # S(k) = T(base + d - 1 - k) has S(k) = sum_{j<d} -c_(d-j)/c_d
        # S(k-j) + S(k-d)/c_d, starting from the initials reversed
        back = tuple(-Fraction(c) / cd for c in reversed(rec.coeffs[:-1]))
        rev = Recurrence(rec.order, back + (1 / Fraction(cd),), 0,
                         rec.initials[::-1])
        return eval_recurrence(rev, rec.base + rec.order - 1 - n)
    # with D the lcm of the coefficient denominators, U(m) =
    # D^m * T(base+m) obeys the integer recurrence c'_j = c_j * D^j
    coeffs = [Fraction(c) for c in rec.coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    chi = [int(c * scale ** j) for j, c in enumerate(coeffs, 1)]
    inits = [Fraction(v) * scale ** i for i, v in enumerate(rec.initials)]
    common = math.lcm(*(v.denominator for v in inits))
    k = n - rec.base
    r = [1] + [0] * (rec.order - 1)
    for bit in bin(k)[2:]:
        r = _mulmod(r, r, chi)
        if bit == "1":
            r = _mulx(r, chi)
    num = sum(ri * v.numerator * (common // v.denominator)
              for ri, v in zip(r, inits))
    den = common * scale ** k
    return num // den if num % den == 0 else Fraction(num, den)


# reports print growth constants to this many decimal places, and
# _top_root brackets its root until that rounding is certain
DECIMALS = 10


@dataclass(frozen=True)
class GrowthEstimate:
    """Dominant growth of a recurrence: its dominant root when a theorem
    identifies it among the real roots, else a lower bound on the dominant
    modulus.  Both are exact rationals: a root, or the midpoint of a
    certified bracket that holds one."""

    dominant_root: Optional[Fraction]
    modulus: Fraction
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


def _top_root(c: list[int]) -> Optional[Fraction]:
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

    def x_at(j: int, k: int) -> Fraction:
        """The point t = j / 2^k of (0, 1) back on (0, B)."""
        return Fraction(j << b, 1 << k)

    def refine(m: int, k: int, left: bool) -> Fraction:
        """The one root of q on (m, m + 1) / 2^k, where q is `left`-signed
        just right of the left end (which may itself be a root)."""
        tried = None
        while True:
            if cell << b <= 1 << k:
                # the cells of the decimal grid that hold the left end from
                # the right and the right end from the left: equal once no
                # edge is inside, else the one edge is (below + 1/2) / cell
                below = ((2 * m * cell << b) + (1 << k)) >> k + 1
                above = -(((1 << k) - (2 * (m + 1) * cell << b)) >> k + 1)
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


def growth(rec: Recurrence, nonneg: bool) -> GrowthEstimate:
    """Dominant growth of `rec`, the minimal recurrence of a sequence, from
    the top real roots of its characteristic polynomial chi.

    With `nonneg`, every term is >= 0, so the generating function has a
    singularity at its radius of convergence (Pringsheim; Flajolet-Sedgewick,
    Analytic Combinatorics, Thm IV.6).  As chi is minimal, its nonzero
    roots are exactly the reciprocals of the poles, so the largest positive
    real root has the largest modulus and is reported as dominant (0 when
    there is none).  Without `nonneg` a non-real pair may dominate: the
    largest |real root| is then reported as a lower bound on the dominant
    modulus (0 if chi has no nonzero real root), and no dominant root is
    claimed.  Only those roots are sought: _top_root on chi's squarefree
    part, and for the lower bound on its mirror chi(-x) too, each
    certified and bracketed until its rounding to DECIMALS places is
    certain.
    """
    scale = math.lcm(*(c.denominator for c in rec.coeffs))
    chi = _squarefree([int(-c * scale) for c in reversed(rec.coeffs)] + [scale])
    top = _top_root(chi)
    if nonneg:
        best = Fraction(0) if top is None else top
        return GrowthEstimate(best, best, 1e-9, "largest-modulus real root")
    mirror = _top_root([-v if i % 2 else v for i, v in enumerate(chi)])
    best = max((r for r in (top, mirror) if r is not None), default=Fraction(0))
    return GrowthEstimate(None, best, 1e-9,
                          "terms may be negative: largest |real root|, "
                          "a lower bound on the dominant modulus")
