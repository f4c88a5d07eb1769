"""End-to-end derivation: spec -> normalized spec -> transfer system ->
annihilator -> exact term sequence -> minimal recurrence -> growth, plus the
oracle verification ledger."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (Annihilator, GrowthEstimate, Polynomial, Recurrence,
                      annihilator_from_blocks, eval_recurrence, growth,
                      min_recurrence)
from .budget import Budget
from .circulant import CirculantSpec, adjacency_matrix, normalize
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
    annihilator: Annihilator     # of the blocks of the weights w_i
    recurrence: Recurrence
    growth: GrowthEstimate
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n0(self) -> int:
        return self.system.n0

    def term(self, n_normalized: int):
        """Exact T at a normalized index, from the recurrence."""
        return eval_recurrence(self.recurrence, n_normalized)

    def raw_term(self, n_raw: int):
        """Exact T at a raw index of the original (pre-normalization) spec."""
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

    t = time.perf_counter()
    try:
        ann = annihilator_from_blocks(system.blocks)
    except AnnihilationError as exc:
        raise AnnihilationError(f"{exc} of {spec.describe()}") from exc
    chis = ann.chis
    if system.scale != 1:
        # a step of the integer system adds p edges: its blocks are L^p B_i
        step = system.scale ** norm.size_coeff
        ann = Annihilator(_unscaled(ann, step), tuple(
            Polynomial(_unscaled(chi, step)) for chi in ann.chis))
    timings["annihilator"] = time.perf_counter() - t

    cap = max(ann.degree, 1)
    t = time.perf_counter()
    terms = sequence(system, cap, chis)
    timings["sequence"] = time.perf_counter() - t

    t = time.perf_counter()
    rec = min_recurrence(terms, system.n0, cap)
    timings["recurrence"] = time.perf_counter() - t

    t = time.perf_counter()
    # nonnegative weights make every term a sum of nonnegative products
    gro = growth(rec, spec.weights is None or min(spec.weights) >= 0)
    timings["growth"] = time.perf_counter() - t
    return DeriveResult(spec, norm, system, ann, rec, gro, timings)


def _unscaled(poly: Polynomial, step: int) -> tuple:
    """chi_B's coefficients from those of chi_{step B}, which is
    step^d chi_B(x / step)."""
    return tuple(c / step ** (poly.degree - k)
                 for k, c in enumerate(poly.coeffs))


@dataclass
class VerificationEntry:
    n: int                      # raw index
    size: int
    recurrence_value: object
    ryser_value: object
    enumeration_value: object   # None when outside the enumeration budget
    ok: bool
    note: str = ""


def verify(spec: CirculantSpec, n_max: int,
           budget: Budget = Budget(),
           result: Optional[DeriveResult] = None) -> list[VerificationEntry]:
    """Compare recurrence values against both oracles for every raw n up to
    n_max that fits the budget; entries record both values either way."""
    result = result or derive(spec, budget)
    shift = result.normalized.trace.index_shift
    entries: list[VerificationEntry] = []
    # the first index from n0 on with a matrix: size 0 has none, as in eval
    n_start = max(result.n0 - shift, 0)
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
