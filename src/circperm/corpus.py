"""Pinned regression corpus and its replay.

Every externally sourced value the pipeline must reproduce lives here:
the worked-example transfer data for jumps {0,1,2}, the published
recurrences/initials/growth constants for the three cycle-cover families,
the two total-cycle-count rows, shifted-pair equalities, Hamiltonian and
weighted checks.  One deliberate correction is recorded inline: the resolved
value of T(6) for {0,1,2} is 20; the value 12 that circulates for that cell
contradicts both oracles and the worked example's own transfer data (see
`TABLE1_MISPRINT`).

Each check_* function returns a list of (label, ok, detail) triples; the
CLI replay and the acceptance tests share them.
"""
from __future__ import annotations

from typing import Callable, Optional

from .algebra import eval_recurrence
from .budget import Budget
from .circulant import parse_spec
from .errors import BlockStructureError, SizeCapError
from .extensions import hamiltonian_derive, moments_derive, moments_ratio
from .oracle import brute_hamiltonian, enumerate_stats
from .pipeline import DeriveResult, derive, verify
from .transfer import verify_against_census

Check = tuple[str, bool, str]

# -- golden transfer data for C^{0,1,2} (worked example) --------------------

GOLDEN_BETA = [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]
GOLDEN_T4 = [1, 0, 0, 0, 0, 2, 1, 0, 0, 3, 2, 0, 0, 0, 0, 1]
GOLDEN_A_BAR = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
GOLDEN_BLOCKS = [[[1]], [[1, 1], [1, 0]], [[1]]]
GOLDEN_ANNIHILATOR = [1, 0, -2, 1]          # x^3 - 2x^2 + 1, ascending

# -- cycle-cover rows --------------------------------------------------------

TABLE1 = [
    {
        "name": "C^{0,1,2}",
        "jumps": "0,1,2", "size": None,
        "order": 3, "coeffs": [2, 0, -1],
        "initials": {4: 9, 5: 13, 6: 20},
        "growth": (1 + 5 ** 0.5) / 2,
    },
    {
        "name": "C^{-1,0,1}",
        "jumps": "-1,0,1", "size": None,
        "order": 3, "coeffs": [2, 0, -1],
        "initials": {4: 9, 5: 13, 6: 20},
        "growth": (1 + 5 ** 0.5) / 2,
    },
    {
        "name": "C^{0,n,2n-1}_{3n}",
        "jumps": "0,1n+0,2n-1", "size": "3n",
        "order": 4, "coeffs": [5, -5, -5, 6],
        "initials": {2: 17, 3: 45, 4: 113, 5: 309},
        "growth": 3.0,
    },
    {
        "name": "C^{1,n+1,2n}_{3n}",
        "jumps": "1,1n+1,2n+0", "size": "3n",
        "order": 4, "coeffs": [5, -5, -5, 6],
        "initials": {2: 17, 3: 45, 4: 113, 5: 309},
        "growth": 3.0,
    },
    {
        "name": "C^{1,n,2n+1}_{3n+1}",
        "jumps": "1,1n+0,2n+1", "size": "3n+1",
        "order": 10, "coeffs": [4, 5, -16, -2, -8, -6, 16, 3, 4, 1],
        "initials": {n: v for n, v in zip(range(2, 12),
                     [31, 169, 523, 2401, 9351, 40401,
                      167763, 714025, 3010351, 12766329])},
        "growth": 2 + 5 ** 0.5,
    },
    {
        "name": "C^{2,n+1,2n+2}_{3n+1}",
        "jumps": "2,1n+1,2n+2", "size": "3n+1",
        "order": 10, "coeffs": [4, 5, -16, -2, -8, -6, 16, 3, 4, 1],
        "initials": {n: v for n, v in zip(range(2, 12),
                     [31, 169, 523, 2401, 9351, 40401,
                      167763, 714025, 3010351, 12766329])},
        "growth": 2 + 5 ** 0.5,
    },
]

# The published table prints T(6) = 12 for C^{0,1,2}; the worked example's
# own beta/A-bar/T-bar(4) give beta·A²·T̄(4) = 20, as do both oracles and
# the closed form Lucas(n)+2.  Kept for the defect test.
TABLE1_MISPRINT = {"jumps": "0,1,2", "n": 6, "printed": 12, "actual": 20}

# -- total-cycle-count rows ---------------------------------------------------

TABLE2 = [
    {
        "name": "TC1 C^{-1,0,1}",
        "jumps": "-1,0,1",
        "order": 5, "coeffs": [3, -1, -3, 1, 1],
        "terms": {n: v for n, v in zip(range(4, 9), [22, 42, 80, 149, 274])},
        "ratio_limit": 0.7236,
    },
    {
        "name": "TC1 C^{0,1,2}",
        "jumps": "0,1,2",
        "order": 7, "coeffs": [3, 0, -6, 2, 4, -1, -1],
        "terms": {n: v for n, v in zip(range(4, 11),
                                       [21, 32, 56, 93, 161, 275, 475])},
        "ratio_limit": 0.2764,
    },
]

# -- shifted pairs (equal permanents) ----------------------------------------

SHIFT_PAIRS = [
    (("0,1,2", None), ("-1,0,1", None)),
    (("0,1,2", None), ("-2,-1,0", None)),
    (("0,1,2", None), ("1,2,3", None)),
    (("0,1n+0,2n-1", "3n"), ("1,1n+1,2n+0", "3n")),
    (("1,1n+0,2n+1", "3n+1"), ("2,1n+1,2n+2", "3n+1")),
]

HAMILTONIAN_SPECS = ["1,2", "0,1,2"]
WEIGHTED_CASE = {"jumps": "0,1,2", "weights": "2,1,1"}


def _derive_cached() -> Callable[[str, Optional[str], Optional[str]], DeriveResult]:
    cache: dict = {}

    def get(jumps: str, size: Optional[str] = None,
            weights: Optional[str] = None) -> DeriveResult:
        key = (jumps, size, weights)
        if key not in cache:
            cache[key] = derive(parse_spec(jumps, size, weights))
        return cache[key]

    return get


def check_golden_transfer(get) -> list[Check]:
    """Worked-example reproduction: beta, T-bar(4), A-bar, the zero-count
    blocks and the annihilator, all bit-exact, and A = diag(A-bar x4)
    checked against the cover census of L_5."""
    res = get("0,1,2")
    sys_, ann = res.system, list(res.annihilator.coeffs)
    out = [
        ("beta", sys_.beta == GOLDEN_BETA, f"{sys_.beta}"),
        ("T-bar(4)", sys_.t0 == GOLDEN_T4, f"{sys_.t0}"),
        ("A-bar", sys_.a_bar == GOLDEN_A_BAR, f"{sys_.a_bar}"),
        ("blocks", sys_.blocks == GOLDEN_BLOCKS, f"{sys_.blocks}"),
        ("annihilator", ann == GOLDEN_ANNIHILATOR, f"{ann}"),
    ]
    # A = diag(A-bar x4) carries T-bar(4) to T-bar(5): golden A-bar on each
    # left mask's slice of golden T-bar(4) must give the census of L_5
    try:
        verify_against_census(sys_.dec, GOLDEN_A_BAR, GOLDEN_T4)
        out.append(("full A = diag(A-bar x4)", True,
                    "A-bar x T-bar(4) = census of L_5 on all 4 left tuples"))
    except BlockStructureError as exc:
        out.append(("full A = diag(A-bar x4)", False, str(exc)))
    return out


def check_table1(get) -> list[Check]:
    out: list[Check] = []
    for row in TABLE1:
        res = get(row["jumps"], row["size"])
        rec = res.recurrence
        ok = (rec.order == row["order"]
              and list(rec.coeffs) == row["coeffs"])
        out.append((f"{row['name']} recurrence", ok,
                    f"order {rec.order}, coeffs {[str(c) for c in rec.coeffs]}"))
        vals = {n: res.raw_term(n) for n in row["initials"]}
        ok = vals == row["initials"]
        out.append((f"{row['name']} initials", ok, f"{vals}"))
    return out


def _ledger(label: str, res: DeriveResult, n_max: int,
            budget: Budget) -> tuple[bool, int, str]:
    """(ok, sizes checked, detail) of `verify` up to n_max: the detail
    names the first mismatch.  A size within n_max past the Ryser cap is
    refused, as the oracle would refuse it; a refusal names the check, the
    spec and, where there is one, the n."""
    where = f"{label} ({res.spec.describe()})"
    try:
        entries = verify(res, n_max, budget)
    except SizeCapError as exc:
        raise SizeCapError(f"{where}: {exc}") from exc
    for e in entries:
        if e.size > budget.ryser_max_dim:
            raise SizeCapError(
                f"{where}, n={e.n}: Ryser dimension {e.size} "
                f"exceeds cap {budget.ryser_max_dim}")
    checked = [e for e in entries if e.recurrence_value is not None]
    bad = next((e for e in checked if not e.ok), None)
    if bad is not None:
        return False, len(checked), (
            f"n={bad.n}: rec={bad.recurrence_value} ryser={bad.ryser_value} "
            f"enum={bad.enumeration_value}")
    return True, len(checked), ""


def check_oracle_equivalence(get, budget: Budget = Budget(),
                             size_cap: int = 20) -> list[Check]:
    """Recurrence vs Ryser vs enumeration, every corpus spec, sizes <= cap."""
    specs = [(row["jumps"], row["size"]) for row in TABLE1]
    specs += [("1,2,3", None), ("1,2", None)]
    out: list[Check] = []
    for jumps, size in specs:
        res = get(jumps, size)
        n_max = (size_cap - res.spec.size_offset) // res.spec.size_coeff
        label = f"oracle equivalence {jumps}" + (f" size {size}" if size else "")
        ok, checked, detail = _ledger(label, res, n_max, budget)
        out.append((label, ok and checked > 0,
                    detail or f"{checked} sizes checked"))
    return out


def check_degree_bounds(get) -> list[Check]:
    out: list[Check] = []
    for row in TABLE1:
        res = get(row["jumps"], row["size"])
        dec = res.system.dec
        if res.normalized.constant:
            bound = 2 ** dec.bar_s - 1
            label = "2^s-1"
        else:
            bound = 2 ** (res.normalized.size_coeff * dec.bar_s)
            label = "2^(p*s)"
        ok = res.recurrence.order <= bound and res.annihilator.degree <= bound
        out.append((f"{row['name']} degree bound", ok,
                    f"order {res.recurrence.order} <= {label} = {bound}"))
    return out


def check_growth(get) -> list[Check]:
    out: list[Check] = []
    for row in TABLE1:
        res = get(row["jumps"], row["size"])
        g = res.growth
        ok = g.dominant_root is not None and abs(g.dominant_root - row["growth"]) < 1e-6
        out.append((f"{row['name']} growth", ok,
                    f"{float(g.modulus)} vs {row['growth']}"))
    return out


def check_table2(budget: Budget = Budget()) -> list[Check]:
    out: list[Check] = []
    for row in TABLE2:
        spec = parse_spec(row["jumps"])
        res = moments_derive(spec, 1, budget)
        rec = res.recurrences[1]
        ok = (rec.order == row["order"]
              and list(rec.coeffs) == row["coeffs"])
        out.append((f"{row['name']} recurrence", ok,
                    f"order {rec.order}, coeffs {[str(c) for c in rec.coeffs]}"))
        vals = {n: eval_recurrence(rec, n) for n in row["terms"]}
        out.append((f"{row['name']} terms", vals == row["terms"], f"{vals}"))
        ok, detail = True, ""
        for n in range(res.n0, 13):       # enumerate up to n = 12
            if spec.size(n) > budget.enum_max_size:
                break
            st = enumerate_stats(spec, n, 1, budget)
            if (st.count, st.moment_sums[1]) != (
                    eval_recurrence(res.recurrences[0], n),
                    eval_recurrence(rec, n)):
                ok, detail = False, f"mismatch at n={n}"
                break
        out.append((f"{row['name']} vs enumeration", ok, detail or f"n <= {n}"))
        # ratio/n converges to the printed constant like 1/n; n=2000 puts the
        # residual at 5e-4, inside the 1e-3 tolerance for both rows
        r = moments_ratio(res, 2000)
        dev = abs(float(r / 2000) - row["ratio_limit"])
        out.append((f"{row['name']} ratio limit", dev < 1e-3,
                    f"ratio/n = {float(r / 2000):.6f}, dev {dev:.2e}"))
    return out


def check_shift_pairs(get) -> list[Check]:
    """Permanents agree across each shifted pair; TC1 does not (C^0 vs C^1)."""
    out: list[Check] = []
    for (j1, s1), (j2, s2) in SHIFT_PAIRS:
        r1, r2 = get(j1, s1), get(j2, s2)
        n_lo = max(r1.raw_n0, r2.raw_n0)
        ok = all(r1.raw_term(n) == r2.raw_term(n)
                 for n in range(n_lo, n_lo + 8))
        out.append((f"shift pair {j1} / {j2} permanents equal", ok,
                    f"n = {n_lo}..{n_lo + 7}"))
    m0 = moments_derive(parse_spec("0"), 1)
    m1 = moments_derive(parse_spec("1"), 1)
    probe = {n: (eval_recurrence(m0.recurrences[1], n),
                 eval_recurrence(m1.recurrences[1], n)) for n in (5, 9)}
    ok = all(a == 1 and b == n for n, (b, a) in probe.items())
    out.append(("TC1 shift-variant: C^0 gives n, C^1 gives 1", ok, f"{probe}"))
    return out


def check_hamiltonian(budget: Budget = Budget()) -> list[Check]:
    out: list[Check] = []
    recs = {}
    for jumps in HAMILTONIAN_SPECS:
        spec = parse_spec(jumps)
        res = hamiltonian_derive(spec, budget)
        recs[jumps] = res.recurrence
        ok, detail = True, ""
        for n in range(4, 13):
            got = eval_recurrence(res.recurrence, n)
            b = brute_hamiltonian(spec, n, budget)
            if got != b:
                ok, detail = False, f"n={n}: derived {got} brute {b}"
                break
        out.append((f"HC({jumps}) = brute force, n = 4..12", ok, detail))
        ok = all(eval_recurrence(res.recurrence, n)
                 == brute_hamiltonian(spec, n, budget) for n in (13, 14, 15))
        out.append((f"HC({jumps}) recurrence extrapolates to n = 13..15", ok, ""))
    a, b = recs["0,1,2"], recs["1,2"]
    out.append(("HC(0,1,2) equals HC(1,2) for n = 4..16",
                all(eval_recurrence(a, n) == eval_recurrence(b, n)
                    for n in range(4, 17)), ""))
    return out


def check_weighted(get) -> list[Check]:
    out: list[Check] = []
    case = WEIGHTED_CASE
    wres = get(case["jumps"], None, case["weights"])
    label = f"weighted {case['weights']} on {case['jumps']} = weighted Ryser, n = 4..12"
    # sizes up to 12 fit the default caps whatever budget the replay runs under
    ok, _, detail = _ledger(label, wres, 12, Budget())
    out.append((label, ok, detail))
    plain = get(case["jumps"])
    unit = get(case["jumps"], None, "1,1,1")
    # repr tells an int from an equal Fraction: the types must match too
    ok = (repr(unit.recurrence) == repr(plain.recurrence)
          and repr(unit.system.a_bar) == repr(plain.system.a_bar)
          and repr(unit.system.beta) == repr(plain.system.beta)
          and repr(unit.system.t0) == repr(plain.system.t0))
    out.append(("unit weights reproduce the unweighted pipeline exactly", ok, ""))
    return out


def run_corpus(budget: Budget = Budget()) -> tuple[list[Check], bool]:
    """Replay every pinned value; returns (checks, all_ok)."""
    get = _derive_cached()
    checks: list[Check] = []
    checks += check_golden_transfer(get)
    checks += check_table1(get)
    checks += check_degree_bounds(get)
    checks += check_growth(get)
    checks += check_oracle_equivalence(get, budget)
    checks += check_table2(budget)
    checks += check_shift_pairs(get)
    checks += check_hamiltonian(budget)
    checks += check_weighted(get)
    return checks, all(ok for _, ok, _ in checks)
