"""End-to-end derivation: spec -> normalized spec -> transfer system ->
annihilator -> exact term sequence -> minimal recurrence -> growth, plus the
oracle verification ledger."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .algebra import (Annihilator, GrowthEstimate, Recurrence,
                      annihilator_from_blocks, eval_recurrence, exact,
                      growth, min_recurrence)
from .budget import Budget
from .circulant import (CirculantSpec, adjacency_matrix, jump_residues,
                        normalize)
from .errors import (AnnihilationError, CollisionError, InconsistencyError,
                     SizeCapError)
from .lattice import check_width, decompose
from .oracle import enumerate_stats, ryser_permanent
from .transfer import TransferSystem, build_transfer_system, sequence


@dataclass
class DeriveResult:
    spec: CirculantSpec
    normalized: CirculantSpec
    system: TransferSystem       # on the integer weights L w_i
    # coeffs: of the blocks of the weights w_i; chis: of system's blocks
    annihilator: Annihilator
    recurrence: Recurrence       # of T, with L divided out
    growth: GrowthEstimate
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n0(self) -> int:
        return self.system.n0

    @property
    def raw_n0(self) -> int:
        """n0 as a raw index of the original (pre-normalization) spec."""
        return self.n0 - self.normalized.trace.index_shift

    def term(self, n_normalized: int):
        """Exact T at a normalized index, from the recurrence."""
        return eval_recurrence(self.recurrence, n_normalized)

    def raw_term(self, n_raw: int):
        """Exact T at a raw index of the original (pre-normalization) spec;
        an index with no matrix (size <= 0, or colliding jumps) is refused
        as `jump_residues` refuses it."""
        jump_residues(self.spec, n_raw)
        return self.term(n_raw + self.normalized.trace.index_shift)


def derive(spec: CirculantSpec, budget: Budget = Budget()) -> DeriveResult:
    """Run the full pipeline on a (possibly raw) spec.

    Works for constant and linear jumps, weighted or not.  Raw-jump analyses
    that are not shift-invariant (cycle moments, Hamiltonian counting) live
    in `extensions`, not here.  A spec whose transfer width w exceeds
    `budget.transfer_max_width` is refused with SizeCapError before any
    lattice is evaluated or anything of size 2^w is built.
    """
    timings: dict[str, float] = {}
    t = time.perf_counter()
    norm = normalize(spec)
    check_width(norm, budget.transfer_max_width, spec.describe())
    dec = decompose(norm)
    timings["decompose"] = time.perf_counter() - t

    t = time.perf_counter()
    system = build_transfer_system(dec)
    timings["transfer"] = time.perf_counter() - t
    timings.update(("transfer." + part, v)
                   for part, v in system.timings.items())

    t = time.perf_counter()
    try:
        ann = annihilator_from_blocks(system.blocks)
    except AnnihilationError as exc:
        raise AnnihilationError(f"{exc} of {spec.describe()}") from exc
    # a step of the integer system adds p edges: its blocks are L^p B_i
    scale, step = system.scale, system.scale ** norm.size_coeff
    if scale != 1:
        ann = replace(ann, coeffs=_unscaled(ann.coeffs[::-1], step)[::-1])
    timings["annihilator"] = time.perf_counter() - t

    cap = max(ann.degree, 1)
    t = time.perf_counter()
    terms = sequence(system, cap, ann.chis)
    timings["sequence"] = time.perf_counter() - t

    t = time.perf_counter()
    rec = min_recurrence(terms, system.n0, cap)
    if scale != 1:
        # T_L(n) = L^size(n) T(n): its recurrence's roots are T's times L^p
        rec = replace(rec, coeffs=_unscaled((1,) + rec.coeffs, step)[1:],
                      initials=tuple(exact(v, scale ** norm.size(n)) for n, v
                                     in enumerate(rec.initials, rec.base)))
    timings["recurrence"] = time.perf_counter() - t

    t = time.perf_counter()
    # nonnegative weights make every term a sum of nonnegative products
    gro = growth(rec, spec.weights is None or min(spec.weights) >= 0)
    timings["growth"] = time.perf_counter() - t
    return DeriveResult(spec, norm, system, ann, rec, gro, timings)


def check_eval(spec: CirculantSpec, n: int, budget: Budget = Budget(),
               value: str = "T") -> None:
    """Refuse with SizeCapError, before any derive, an `eval` of T(n) that
    the budget does not admit: first a spec wider than the transfer cap, as
    `derive` refuses it, then an n whose T(n) may be longer than
    `budget.eval_max_bits` bits, read from the jumps and weights alone.

    Every row of the size(n) x size(n) matrix holds the weights w_i, so with
    L the lcm of their denominators |perm(L M)| <= S^size(n), S = sum |L w_i|,
    and T(n) = perm(L M) / L^size(n) has at most size(n) log2(S L) bits in
    its numerator and denominator together, as the cover count TC_0(n) <=
    k^size(n) of k unweighted jumps does (`value` names the refused value).
    `n` must have a matrix (`jump_residues` checks that).
    """
    check_width(normalize(spec), budget.transfer_max_width, spec.describe())
    weights = spec.weights or (1,) * len(spec.jumps)
    scale = math.lcm(*(v.denominator for v in weights))
    total = scale * sum(abs(v.numerator) * (scale // v.denominator)
                        for v in weights)
    if total <= 1:
        return                      # |T(n)| <= 1
    size, cap = spec.size(n), budget.eval_max_bits
    # log2(total) >= 1, so a size over the cap is refused without a float
    if size > cap or size * math.log2(total) > cap:
        raise SizeCapError(
            f"{value}({n}) of {spec.describe()} may have more than {cap} "
            f"bits: size {size} times {math.log2(total):.3f} bits a row")


def _unscaled(coeffs: tuple, step: int) -> tuple:
    """p(x) from step^d p(x / step), whose roots are p's times step (for
    p_B it is p_{step B}), coefficients from the leading one down: that of
    x^(d-k) is divided by step^k."""
    return tuple(exact(c, step ** k) for k, c in enumerate(coeffs))


@dataclass
class VerificationEntry:
    n: int                      # raw index
    size: int
    recurrence_value: object
    ryser_value: object
    enumeration_value: object   # None when outside the enumeration budget
    ok: bool
    note: str = ""


def verify(result: DeriveResult, n_max: int,
           budget: Budget = Budget()) -> list[VerificationEntry]:
    """Compare the recurrence values of `result` against both oracles on
    its spec, for every raw n up to n_max that fits the budget; entries
    record both values either way."""
    spec = result.spec
    entries: list[VerificationEntry] = []
    # the first index from n0 on with a matrix: size 0 has none, as in eval
    n_start = max(result.raw_n0, 0)
    while spec.size(n_start) <= 0:
        n_start += 1
    if n_max < n_start:
        raise InconsistencyError(
            f"nothing to verify up to n={n_max}: the first verifiable index "
            f"is n={n_start}")
    for n in range(n_start, n_max + 1):
        size = spec.size(n)
        if size > budget.ryser_max_dim:
            entries.append(VerificationEntry(
                n, size, None, None, None, True,
                f"stopped: size {size} exceeds Ryser cap {budget.ryser_max_dim}"))
            break
        try:
            mat = adjacency_matrix(spec, n)
        except CollisionError as exc:
            entries.append(VerificationEntry(n, size, None, None, None, True,
                                             f"skipped: {exc}"))
            continue
        rec_val = result.raw_term(n)
        ry = ryser_permanent(mat, max_dim=budget.ryser_max_dim)
        enum_val = None
        if (size <= budget.enum_max_size
                and len(spec.jumps) <= budget.enum_max_jumps
                and spec.weights is None):
            enum_val = enumerate_stats(spec, n, 0, budget).count
        ok = rec_val == ry and (enum_val is None or enum_val == rec_val)
        entries.append(VerificationEntry(n, size, rec_val, ry, enum_val, ok))
    if not any(e.recurrence_value is not None for e in entries):
        raise SizeCapError(
            f"no index up to {n_max} fits the oracle budget for this spec")
    return entries
