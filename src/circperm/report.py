"""Machine- and human-readable run reports.

All numbers serialize as decimal strings (arbitrary precision safe): an
exact value is an int when integral, else a Fraction (`algebra.exact`), and
`str` prints it; table mode may abbreviate long integers with a digit count.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .algebra import DECIMALS, GrowthEstimate, Recurrence
from .circulant import CirculantSpec
from .pipeline import DeriveResult, VerificationEntry

SCHEMA = 1


def abbreviate(v, limit: int = 24) -> str:
    s = str(v)
    if len(s) <= limit:
        return s
    return f"{s[:8]}…({len(s)} digits)"


def spec_dict(spec: CirculantSpec) -> dict:
    d: dict[str, Any] = {
        "jumps": [{"coeff": p, "offset": s} for p, s in spec.jumps],
        "size": {"coeff": spec.size_coeff, "offset": spec.size_offset},
        "constant": spec.constant,
    }
    if spec.weights is not None:
        d["weights"] = [str(w) for w in spec.weights]
    if not spec.trace.trivial:
        d["normalization"] = {"offset_shift": spec.trace.offset_shift,
                              "index_shift": spec.trace.index_shift}
    return d


def spec_strings(spec: CirculantSpec) -> dict:
    """Round-trippable jump/size/weights strings in the CLI grammar."""
    out = {"jumps": spec.jump_text()}
    if not spec.constant:
        out["size"] = spec.size_text()
    if spec.weights is not None:
        out["weights"] = ",".join(str(w) for w in spec.weights)
    return out


def recurrence_dict(rec: Recurrence) -> dict:
    return {
        "order": rec.order,
        "coeffs": [str(c) for c in rec.coeffs],
        "base": rec.base,
        "initials": [str(t) for t in rec.initials],
        "convention": "T(n) = sum_j coeffs[j-1]*T(n-j)",
    }


def term_values(rec: Recurrence, count: int) -> list[str]:
    """T(base), ..., T(base + count - 1): the initials, then the recurrence
    run forward, on ints for every unweighted spec; a whole term of Fraction
    coefficients may be a Fraction, which `str` prints as an int."""
    vals = list(rec.initials[:count])
    while len(vals) < count:
        vals.append(sum(c * vals[-j] for j, c in enumerate(rec.coeffs, 1)))
    return [str(v) for v in vals]


def decimal_str(x: Fraction | int) -> str:
    """x >= 0 rounded to DECIMALS places, exactly (ties to even)."""
    whole, frac = divmod(round(x * 10 ** DECIMALS), 10 ** DECIMALS)
    return f"{whole}.{frac:0{DECIMALS}d}"


def growth_dict(g: GrowthEstimate) -> dict:
    return {
        "dominant_root": None if g.dominant_root is None else decimal_str(g.dominant_root),
        "modulus": decimal_str(g.modulus),
        "error_bound": g.error_bound,
        "note": g.note,
    }


def derive_report(result: DeriveResult,
                  verification: Optional[list[VerificationEntry]] = None) -> dict:
    rep = {
        "schema": SCHEMA,
        "spec": {**spec_dict(result.spec), **{"text": spec_strings(result.spec)}},
        "normalized": {**spec_dict(result.normalized),
                       **{"text": spec_strings(result.normalized)}},
        "n0": result.n0,
        "transfer": {
            "slot_width": result.system.w,
            "a_bar_dim": len(result.system.a_bar),
            "block_sizes": [len(b) for b in result.system.blocks],
            # copies of A-bar on the diagonal of the full A
            "full_matrix_copies": 1 << result.system.w,
        },
        "annihilator": {
            "degree": result.annihilator.degree,
            "coeffs": [str(c) for c in result.annihilator.coeffs],
        },
        "recurrence": recurrence_dict(result.recurrence),
        "terms": {"start": result.n0,
                  "values": term_values(result.recurrence, 16)},
        "growth": growth_dict(result.growth),
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }
    if verification is not None:
        rep["verification"] = [
            {"n": e.n, "size": e.size, "recurrence": str(e.recurrence_value),
             "ryser": str(e.ryser_value),
             "enumeration": None if e.enumeration_value is None else str(e.enumeration_value),
             "ok": e.ok, **({"note": e.note} if e.note else {})}
            for e in verification]
    return rep


def render_json(rep: dict) -> str:
    return json.dumps(rep, indent=2, sort_keys=False)


def render_table(result: DeriveResult,
                 verification: Optional[list[VerificationEntry]] = None) -> str:
    rec = result.recurrence
    lines = [
        f"spec        {result.spec.describe()}",
    ]
    if not result.normalized.trace.trivial:
        lines.append(f"normalized  {result.normalized.describe()} "
                     f"(offset shift {result.normalized.trace.offset_shift:+d}, "
                     f"index shift {result.normalized.trace.index_shift:+d})")
    init = ", ".join(abbreviate(t) for t in rec.initials)
    lines += [
        f"recurrence  {rec}   (order {rec.order})",
        f"initials    {init}  for n = {rec.base}..{rec.base + rec.order - 1}",
        f"annihilator degree {result.annihilator.degree}, "
        f"blocks {[len(b) for b in result.system.blocks]}",
    ]
    g = result.growth
    if g.dominant_root is not None:
        lines.append(f"growth      T(n) ~ phi^n, phi = {decimal_str(g.dominant_root)}")
    else:
        lines.append(f"growth      {g.note}: modulus {decimal_str(g.modulus)}")
    if verification is not None:
        lines.append("verification (recurrence vs Ryser vs enumeration):")
        for e in verification:
            if e.note:
                lines.append(f"  n={e.n:<3} {e.note}")
            else:
                enum_part = "-" if e.enumeration_value is None else abbreviate(e.enumeration_value)
                status = "ok" if e.ok else "MISMATCH"
                lines.append(f"  n={e.n:<3} size={e.size:<3} "
                             f"rec={abbreviate(e.recurrence_value)} "
                             f"ryser={abbreviate(e.ryser_value)} enum={enum_part}  {status}")
    return "\n".join(lines)
