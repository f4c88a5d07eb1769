"""Circulant specifications: parsing, normalization, adjacency matrices.

A spec describes the family C_{pn+s}^{p_1 n + s_1, ..., p_k n + s_k} of
directed circulant graphs.  The constant-jump family is the special case
p=1, s=0 with every jump coefficient zero.  All values are exact: weights
are Fractions, everything else is int.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import CollisionError, InconsistencyError, SpecSyntaxError

_CONST_TERM = re.compile(r"^([+-]?\d+)$")
_LINEAR_TERM = re.compile(r"^([+-]?\d*)n([+-]\d+)?$")
_SIZE_LAW = re.compile(r"^(\d+)n([+-]\d+)?$")


@dataclass(frozen=True)
class NormalizationTrace:
    """How a spec was normalized.

    offset_shift: constant added to every jump offset (a cyclic row shift of
        the adjacency matrix, permanent-preserving).
    index_shift:  alpha with n_normalized = n_raw + alpha (linear reindexing
        so that 0 <= s < p).  T_raw(n) = T_norm(n + alpha).
    """

    offset_shift: int = 0
    index_shift: int = 0

    @property
    def trivial(self) -> bool:
        return self.offset_shift == 0 and self.index_shift == 0


@dataclass(frozen=True)
class CirculantSpec:
    """Jump set with linear coefficients and the size law pn+s."""

    size_coeff: int                      # p
    size_offset: int                     # s
    jumps: tuple[tuple[int, int], ...]   # (p_i, s_i), ordered as given
    weights: Optional[tuple[Fraction, ...]] = None
    trace: NormalizationTrace = field(default=NormalizationTrace(), compare=False)

    def __post_init__(self):
        if self.size_coeff < 1:
            raise InconsistencyError("size coefficient p must be >= 1")
        if len(set(self.jumps)) != len(self.jumps):
            raise SpecSyntaxError("duplicate jump")
        if not self.jumps:
            raise SpecSyntaxError("at least one jump required")
        for p_i, _ in self.jumps:
            if not (0 <= p_i < self.size_coeff):
                raise InconsistencyError(
                    f"jump coefficient {p_i} outside [0, p) with p={self.size_coeff}")
        if self.weights is not None and len(self.weights) != len(self.jumps):
            raise InconsistencyError("weights list must parallel the jumps")

    @property
    def constant(self) -> bool:
        return (self.size_coeff == 1 and self.size_offset == 0
                and all(p == 0 for p, _ in self.jumps))

    @property
    def weighted(self) -> bool:
        return self.weights is not None and any(w != 1 for w in self.weights)

    def weight(self, jump_index: int) -> Fraction | int:
        """The jump's weight; 1 for every jump of an unweighted spec."""
        return 1 if self.weights is None else self.weights[jump_index]

    def size(self, n: int) -> int:
        return self.size_coeff * n + self.size_offset

    def jump_values(self, n: int) -> list[int]:
        return [p * n + s for p, s in self.jumps]

    def jump_text(self) -> str:
        """The jumps in the CLI grammar: "0,n,2n-1"."""
        return ",".join(_linear_text("" if p == 1 else str(p), s) if p else str(s)
                        for p, s in self.jumps)

    def size_text(self) -> str:
        """The size law in the CLI grammar, coefficient always shown: "3n+1"."""
        return _linear_text(str(self.size_coeff), self.size_offset)

    def describe(self) -> str:
        if self.constant:
            return "C_n^{%s}" % self.jump_text()
        return "C_{%s}^{%s}" % (self.size_text(), self.jump_text())


def _linear_text(coeff: str, offset: int) -> str:
    return f"{coeff}n{offset:+d}" if offset else f"{coeff}n"


def parse_spec(text: str, size: Optional[str] = None,
               weights: Optional[str] = None) -> CirculantSpec:
    """Parse the jump grammar plus optional size law and weights.

    term := INT | [INT] "n" [("+"|"-") UINT]; size := UINT "n" [("+"|"-") UINT].
    """
    if not text or not text.strip():
        raise SpecSyntaxError("empty jump list")
    jumps: list[tuple[int, int]] = []
    for raw in text.split(","):
        term = raw.strip().replace(" ", "")
        if not term:
            raise SpecSyntaxError(f"empty jump term in {text!r}")
        m = _CONST_TERM.match(term)
        if m:
            jumps.append((0, int(m.group(1))))
            continue
        m = _LINEAR_TERM.match(term)
        if m:
            coeff_txt = m.group(1)
            if coeff_txt in ("", "+"):
                coeff = 1
            elif coeff_txt == "-":
                coeff = -1
            else:
                coeff = int(coeff_txt)
            offset = int(m.group(2)) if m.group(2) else 0
            jumps.append((coeff, offset))
            continue
        raise SpecSyntaxError(f"malformed jump term {raw!r}")

    if size is not None:
        m = _SIZE_LAW.match(size.strip().replace(" ", ""))
        if not m:
            raise SpecSyntaxError(f"malformed size law {size!r}")
        p = int(m.group(1))
        s = int(m.group(2)) if m.group(2) else 0
    else:
        if any(c != 0 for c, _ in jumps):
            raise InconsistencyError("jumps depend on n but no size law was given")
        p, s = 1, 0

    wtuple: Optional[tuple[Fraction, ...]] = None
    if weights is not None:
        parts = [w.strip() for w in weights.split(",")]
        try:
            wtuple = tuple(Fraction(w) for w in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecSyntaxError(f"malformed weight list {weights!r}: {exc}") from None

    if len(set(jumps)) != len(jumps):
        raise SpecSyntaxError(f"duplicate jump in {text!r}")
    return CirculantSpec(p, s, tuple(jumps), wtuple)


def normalize(spec: CirculantSpec) -> CirculantSpec:
    """Bring a spec into the analyzed form, recording the shifts in `trace`.

    Constant mode: shift all offsets so the smallest is 0 (cyclic row shift,
    permanent-invariant).  Linear mode: reindex n so 0 <= s < p, then shift
    offsets so every s_i >= s.  Raw-jump analyses (cycle moments, Hamiltonian
    counting) are NOT shift-invariant and must consume un-normalized specs;
    they can detect a shifted spec through `trace`.
    """
    if spec.constant:
        shift = -min(s for _, s in spec.jumps)
        jumps = tuple((0, s + shift) for _, s in spec.jumps)
        return CirculantSpec(1, 0, jumps, spec.weights,
                             NormalizationTrace(offset_shift=shift))

    p, s = spec.size_coeff, spec.size_offset
    alpha, beta = divmod(s, p)           # s = alpha*p + beta, 0 <= beta < p
    jumps = [(pi, si - alpha * pi) for pi, si in spec.jumps]
    shift = max(0, beta - min(si for _, si in jumps))
    jumps = [(pi, si + shift) for pi, si in jumps]
    return CirculantSpec(p, beta, tuple(jumps), spec.weights,
                         NormalizationTrace(offset_shift=shift, index_shift=alpha))


def jump_residues(spec: CirculantSpec, n: int) -> dict[int, Fraction | int]:
    """Each jump's residue mod the size pn+s at index n, mapped to its weight.

    Raises InconsistencyError when the size is not positive and
    CollisionError when two jumps are congruent: no matrix is defined there.
    """
    size = spec.size(n)
    if size <= 0:
        raise InconsistencyError(f"no matrix at n={n}: size {size} is not positive")
    residues: dict[int, Fraction | int] = {}
    for idx, v in enumerate(spec.jump_values(n)):
        r = v % size
        if r in residues:
            raise CollisionError(
                f"jumps collide mod {size} at n={n}: residue {r} duplicated")
        residues[r] = spec.weight(idx)
    return residues


def adjacency_matrix(spec: CirculantSpec, n: int) -> list[list[Fraction | int]]:
    """Adjacency matrix of C at index n: entry (i,j) is the weight of the jump
    congruent to j-i mod (pn+s), 0 otherwise.  Size 0 gives the empty matrix.
    """
    size = spec.size(n)
    if size == 0:
        return []
    residues = jump_residues(spec, n)
    return [[residues.get((j - i) % size, 0) for j in range(size)]
            for i in range(size)]
