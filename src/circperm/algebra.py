"""Exact polynomial/matrix algebra and recurrence machinery.

Everything is arbitrary-precision rational (Fraction); no floating point
enters any value that is asserted exactly.  Floats appear only in the
dominant-root estimate, which carries an explicit error bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def eval_matrix(self, m: Matrix) -> list[list[Fraction]]:
        """Horner evaluation at a square matrix."""
        dim = len(m)
        acc = [[Fraction(0)] * dim for _ in range(dim)]
        for c in reversed(self.coeffs):
            nxt = [[c if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
            for i in range(dim):
                row = acc[i]
                for k in range(dim):
                    a = row[k]
                    if a:
                        mk = m[k]
                        ni = nxt[i]
                        for j in range(dim):
                            if mk[j]:
                                ni[j] += a * mk[j]
            acc = nxt
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


def char_poly(matrix: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - M) by Faddeev-LeVerrier.

    The per-step division by k is exact (the c_k are the genuine
    coefficients), so the scheme is deterministic and rational-exact.
    """
    dim = len(matrix)
    if dim == 0:
        return Polynomial.from_list([1])
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
    return Polynomial(tuple(coeffs))


def verify_annihilates(poly: Polynomial, blocks: Sequence[Matrix]) -> None:
    """Raise unless poly(B) = 0 for every block (exact matrix evaluation)."""
    for b in blocks:
        val = poly.eval_matrix(b)
        if any(any(v != 0 for v in row) for row in val):
            raise AnnihilationError("annihilator does not kill a diagonal block")


def annihilator_from_blocks(blocks: Sequence[Matrix]) -> Polynomial:
    """Product of the blocks' characteristic polynomials, repeated factors
    included once; verified to annihilate every block."""
    factors: list[Polynomial] = []
    for b in blocks:
        cp = char_poly(b)
        if cp not in factors:
            factors.append(cp)
    out = Polynomial.from_list([1])
    for f in factors:
        out = out * f
    verify_annihilates(out, blocks)
    return out


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


# held-out terms every fit is re-checked on after it is found
GUARD = 4


def fit_term_count(degree_cap: int) -> int:
    """Terms a pipeline generates for a fit up to order `degree_cap`: the
    2*cap that pin a recurrence down, the guard, and two spare."""
    return 2 * degree_cap + GUARD + 2


def _berlekamp_massey(terms: Sequence) -> tuple[int, list[Fraction]]:
    """Shortest linear recurrence generating `terms` (Massey 1969), as
    (order, c) with terms[j] = sum_l c[l-1] * terms[j-l] for j >= order.
    Exact over the rationals; the order is 0 only for an all-zero input."""
    conn = [Fraction(1)]         # connection polynomial, conn[0] = 1
    prev = [Fraction(1)]         # its value before the last length change
    order, gap, prev_disc = 0, 1, Fraction(1)
    for n, t in enumerate(terms):
        disc = t + sum(conn[i] * terms[n - i]
                       for i in range(1, min(len(conn), order + 1)) if conn[i])
        if disc == 0:
            gap += 1
            continue
        f = Fraction(disc) / prev_disc     # the two may both be ints
        grown = conn + [Fraction(0)] * max(0, len(prev) + gap - len(conn))
        for i, v in enumerate(prev):
            if v:
                grown[i + gap] -= f * v
        if 2 * order <= n:
            prev, prev_disc = conn, disc
            order, gap = n + 1 - order, 1
        else:
            gap += 1
        conn = grown
    conn += [Fraction(0)] * (order + 1 - len(conn))
    return order, [-v for v in conn[1:order + 1]]


def min_recurrence(terms: Sequence, base: int, degree_cap: int,
                   guard: int = GUARD) -> Recurrence:
    """Minimal-order exact linear recurrence fitted to `terms`.

    Berlekamp-Massey over the rationals on all but the last `guard` terms
    finds the shortest recurrence of that fit region in O(N^2); with at
    least 2*degree_cap terms there it is the unique one of its order.  The
    result is then re-checked on every term, the held-out guard included.
    An all-zero sequence gets order 1 with coefficient 0.  Raises
    NoRecurrenceError when no order <= degree_cap reproduces every term.
    """
    if guard < 4:
        raise InconsistencyError("guard must be at least 4")
    terms = [Fraction(t) if not isinstance(t, int) else t for t in terms]
    if len(terms) < 2 * degree_cap + guard:
        raise InconsistencyError(
            f"need at least {2 * degree_cap + guard} terms, got {len(terms)}")
    order, coeffs = _berlekamp_massey(terms[:len(terms) - guard])
    if order == 0:
        order, coeffs = 1, [Fraction(0)]
    # a fit of the first N - guard terms that misses a later term leaves no
    # recurrence of order <= degree_cap for the whole sequence (Massey's
    # length bound), so both failures are the same refusal
    if order > degree_cap or not all(
            sum(c * terms[j - l] for l, c in enumerate(coeffs, 1)) == terms[j]
            for j in range(order, len(terms))):
        raise NoRecurrenceError(
            f"no recurrence of order <= {degree_cap} fits {len(terms)} terms")
    return Recurrence(order, tuple(coeffs), base, tuple(terms[:order]))


def _mulmod(a: list[int], b: list[int], chi: list[int]) -> list[int]:
    """a * b mod chi(x) = x^d - sum_j chi[j-1] x^(d-j), for a, b of degree < d."""
    d = len(chi)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
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
    """Exact T(n).  Forward it is sum_i r_i * initials_i with
    r(x) = x^(n-base) mod chi(x) by square-and-multiply (Fiduccia 1985):
    O(d^2 log n) multiplications, all on ints.  Backward it steps one term
    at a time below the base, which needs an invertible trailing
    coefficient."""
    if n >= rec.base:
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
        v = num if den == 1 else Fraction(num, den)
    else:
        cd = rec.coeffs[-1]
        if cd == 0:
            raise InconsistencyError("cannot extend backward: trailing coefficient 0")
        back = list(rec.initials)
        for _ in range(rec.base - n):
            # window holds T(m..m+d-1); the relation at m+d-1 solves T(m-1)
            top = back[rec.order - 1]
            acc = top - sum(rec.coeffs[j - 1] * back[rec.order - 1 - j]
                            for j in range(1, rec.order))
            back.insert(0, Fraction(acc, 1) / cd)
            back.pop()
        v = back[0]
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


@dataclass(frozen=True)
class GrowthEstimate:
    """Dominant growth of a recurrence: largest-modulus real characteristic
    root when it dominates, else the empirical modulus of a non-real pair."""

    dominant_root: Optional[float]
    modulus: float
    error_bound: float
    note: str
    residual_bound: float


def recurrence_char_poly(rec: Recurrence) -> Polynomial:
    cs = [-c for c in reversed(rec.coeffs)] + [Fraction(1)]
    return Polynomial.from_list(cs)


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


def _squarefree(p: list[int]) -> list[int]:
    """p / gcd(p, p'): p with every repeated root made simple."""
    g = _gcd(p, [i * c for i, c in enumerate(p)][1:])
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


def _real_roots(poly: Polynomial, tol: Fraction) -> list[Fraction]:
    """Every real root of `poly`, ascending, each to within `tol`.

    Descartes-rule isolation (Collins-Akritas 1976; the bisection form in
    Vincent-Akritas-Strzebonski 2005), all on ints.  The squarefree part
    is mapped from the Cauchy interval [-B, B] onto (0, 1) and split into
    dyadic halves, 2^d q(x/2) and its Taylor shift by 1, until Descartes'
    count is 0 or 1 on each piece.  A piece with one root is bisected to
    width <= tol with exact signs (homogeneous Horner at j / 2^k).  The
    result is certified: every distinct real root is returned exactly once,
    as the split or bisection point it falls on, or else as the midpoint of
    a bracket no wider than tol that holds it.
    """
    bound = Fraction(1) + max(abs(c) for c in poly.coeffs) / abs(poly.coeffs[-1])
    scale = math.lcm(*(c.denominator for c in poly.coeffs))
    sqf = _squarefree([int(c * scale) for c in poly.coeffs])
    d = len(sqf) - 1
    # q(t) = den^d s(B(2t - 1)), B = num/den, takes [-B, B] onto [0, 1]
    num, den = bound.numerator, bound.denominator
    q = _taylor_shift([c * num ** i * den ** (d - i) for i, c in enumerate(sqf)], -1)
    q = _primitive([c << i for i, c in enumerate(q)])
    # pieces at depth k are 2B / 2^k wide; bisection stops at width <= tol
    stop = 0
    while 2 * bound > tol * 2 ** stop:
        stop += 1

    def positive_at(j: int, k: int) -> Optional[bool]:
        """Whether q(j / 2^k) > 0; None at a root."""
        acc = 0
        for i, c in enumerate(reversed(q)):
            acc = acc * j + (c << k * i)
        return None if acc == 0 else acc > 0

    found: list[Fraction] = []                 # roots t in (0, 1)
    pieces = [(0, 0, q)]                       # q on [m, m + 1] / 2^k
    while pieces:
        m, k, c = pieces.pop()
        count = _sign_changes(c)
        if count == 1:
            # the sign just right of the left end, which may itself be a root
            left = next(v for v in c if v) > 0
            while k < stop:
                pos = positive_at(2 * m + 1, k + 1)
                if pos is None:
                    break
                m, k = 2 * m + (pos == left), k + 1
            found.append(Fraction(2 * m + 1, 2 << k))
        elif count > 1:
            half = [v << (d - i) for i, v in enumerate(c)]      # 2^d c(x/2)
            if sum(half) == 0:
                found.append(Fraction(2 * m + 1, 2 << k))
            half = _primitive(half)
            pieces += [(2 * m + 1, k + 1, _taylor_shift(half)), (2 * m, k + 1, half)]
    return sorted(bound * (2 * t - 1) for t in found)


def _multiplicity(poly: Polynomial, root: Fraction, tol: Fraction) -> int:
    """Multiplicity of the real root of `poly` that `root` brackets to tol:
    how many of g_0 = poly, g_k = gcd(g_(k-1), g_(k-1)') share that root."""
    scale = math.lcm(*(c.denominator for c in poly.coeffs))
    g = [int(c * scale) for c in poly.coeffs]
    m = 0
    while len(g) > 1 and any(abs(r - root) <= 2 * tol
                             for r in _real_roots(Polynomial.from_list(g), tol)):
        m += 1
        g = _gcd(g, [i * c for i, c in enumerate(g)][1:])
    return m


def _log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational whose parts may exceed float range."""
    num, den = fr.numerator, fr.denominator
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        den <<= shift
    else:
        num <<= -shift
    return shift + math.log2(num / den)


def growth(rec: Recurrence, tol: float = 1e-9) -> GrowthEstimate:
    """Dominant growth of `rec` from its characteristic polynomial chi.

    Every real root of chi comes from _real_roots, certified: Descartes-rule
    isolation finds each one, and bisection brackets it to tol / 4.  The
    largest-modulus real root is reported when the empirical modulus of
    far-out term ratios agrees with it to 1e-3; otherwise the dominant roots
    are taken to be a non-real pair and that empirical modulus is reported.
    A root of multiplicity m puts a factor n^(m-1) into the terms, so when
    the first comparison fails the modulus is divided by that factor's share
    of the ratio, (far / (far - window))^((m-1) / window), and compared
    again.  The certificate covers the real roots, not that choice.
    """
    poly = recurrence_char_poly(rec)
    rtol = Fraction(tol) / 4
    roots = _real_roots(poly, rtol)
    best: Optional[Fraction] = None
    for r in roots:
        if best is None or abs(r) > abs(best) or (abs(r) == abs(best) and r > best):
            best = r

    # empirical modulus from far-out term ratios (even window: sign-safe)
    window, far = 24, 240
    num = eval_recurrence(rec, rec.base + far)
    den = eval_recurrence(rec, rec.base + far - window)
    emp: Optional[float] = None
    if den != 0 and num != 0:
        emp = 2.0 ** (_log2_fraction(abs(Fraction(num) / Fraction(den))) / window)

    def agrees(modulus: float) -> bool:
        return abs(abs(float(best)) - modulus) <= 1e-3 * max(1.0, modulus)

    real = best is not None and (emp is None or agrees(emp))
    if best is not None and not real:
        m = _multiplicity(poly, best, rtol)
        real = m > 1 and agrees(emp / (far / (far - window)) ** ((m - 1) / window))
    if real:
        res = max(abs(poly(best - Fraction(tol))), abs(poly(best + Fraction(tol))))
        return GrowthEstimate(float(best), abs(float(best)), tol,
                              "largest-modulus real root", float(res))
    return GrowthEstimate(None, emp if emp is not None else 0.0, 1e-6,
                          "non-real dominant pair (modulus from term ratios)", 0.0)
