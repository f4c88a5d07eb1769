"""Command-line front end.

Exit codes: 0 success; 1 internal inconsistency or verification mismatch;
2 budget/size refusal; 3 parse error or degenerate input.
"""
from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from typing import Optional

from .budget import Budget
from .circulant import adjacency_matrix, jump_residues, parse_spec
from .corpus import run_corpus
from .errors import (AnnihilationError, BlockStructureError, CollisionError,
                     InconsistencyError, NoRecurrenceError, SizeCapError,
                     SpecSyntaxError, StateBudgetError)
from .extensions import hamiltonian_derive, moments_derive, moments_ratio
from .oracle import ryser_permanent
from .pipeline import check_eval, derive, verify
from .report import (SCHEMA, decimal_str, derive_report, growth_dict,
                     recurrence_dict, render_json, render_table, spec_dict,
                     term_values)


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, which `main` reports on one line with exit
    3, not argparse's 2, the budget code; its subparsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


PARSE_ERRORS = (SpecSyntaxError, InconsistencyError, CollisionError,
                argparse.ArgumentError)
BUDGET_ERRORS = (SizeCapError, StateBudgetError)
INTERNAL_ERRORS = (AnnihilationError, BlockStructureError, NoRecurrenceError)


def _add_spec_args(p: argparse.ArgumentParser, n_max: bool = False):
    p.add_argument("--jumps", required=True,
                   help="comma-separated jump terms, e.g. '0,1,2' or '0,1n+0,2n-1'")
    p.add_argument("--size", help="size law for linear jumps, e.g. '3n' or '3n+1'")
    p.add_argument("--weights", help="comma-separated rational weights, e.g. '2,1,1'")
    p.add_argument("--out", choices=["json", "table"], default="table")
    # SUPPRESS: an absent flag must not overwrite a top-level --budget-bits
    p.add_argument("--budget-bits", type=int, default=argparse.SUPPRESS,
                   help="override the exponential-work caps (bits)")
    if n_max:
        p.add_argument("--n-max", type=int, required=True)


def _budget(args) -> Budget:
    bits = getattr(args, "budget_bits", None)
    return Budget() if bits is None else Budget().with_bits(bits)


def _parse(args):
    return parse_spec(args.jumps, args.size, args.weights)


def cmd_derive(args) -> int:
    result = derive(_parse(args), _budget(args))
    if args.out == "json":
        print(render_json(derive_report(result)))
    else:
        print(render_table(result))
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    result = derive(_parse(args), budget)
    entries = verify(result, args.n_max, budget)
    if args.out == "json":
        print(render_json(derive_report(result, entries)))
    else:
        print(render_table(result, entries))
    return 0 if all(e.ok for e in entries) else 1


def cmd_eval(args) -> int:
    spec, budget = _parse(args), _budget(args)
    jump_residues(spec, args.n)     # refuses sizes <= 0 and colliding jumps
    check_eval(spec, args.n, budget)
    result = derive(spec, budget)
    if args.n < result.raw_n0:
        # below the transfer base the recurrence is not known to hold
        value = ryser_permanent(adjacency_matrix(spec, args.n),
                                max_dim=budget.ryser_max_dim)
    else:
        value = result.raw_term(args.n)
    if args.out == "json":
        print(render_json({"schema": SCHEMA, "spec": spec_dict(spec),
                           "n": args.n, "value": str(value)}))
    else:
        print(f"T({args.n}) = {value}")
    return 0


def cmd_growth(args) -> int:
    result = derive(_parse(args), _budget(args))
    g = result.growth
    if args.out == "json":
        print(render_json({"schema": SCHEMA, "spec": spec_dict(result.spec),
                           **growth_dict(g)}))
    elif g.dominant_root is not None:
        print(decimal_str(g.dominant_root))
    else:
        print(f"{g.note}: modulus {decimal_str(g.modulus)}")
    return 0


def cmd_moments(args) -> int:
    spec, ratio_n = _parse(args), args.ratio_at
    res = moments_derive(spec, args.order, _budget(args),
                         ratio_n if args.order >= 1 else None)
    rec = res.recurrences[args.order]
    ratio = moments_ratio(res, ratio_n) if args.order >= 1 else None
    if args.out == "json":
        rep = {
            "schema": SCHEMA, "spec": spec_dict(spec), "moment": args.order,
            "n0": res.n0, "pairing_states": res.state_count,
            "recurrence": recurrence_dict(rec),
            "terms": {"start": res.n0, "values": term_values(rec, 16)},
        }
        if ratio is not None:
            rep["expected_cycles"] = {"n": ratio_n, "value": str(ratio),
                                      "over_n": float(ratio / ratio_n)}
        print(render_json(rep))
    else:
        print(f"spec        {spec.describe()}")
        print(f"TC_{args.order} recurrence  {rec}   (order {rec.order})")
        print(f"terms       {', '.join(term_values(rec, 10))}  from n = {res.n0}")
        if ratio is not None:
            print(f"E[#cycles]  at n = {ratio_n}: {ratio} "
                  f"(= {float(ratio / ratio_n):.6f} * n)")
    return 0


def cmd_hamiltonian(args) -> int:
    spec = _parse(args)
    res = hamiltonian_derive(spec, _budget(args))
    if args.out == "json":
        rep = {
            "schema": SCHEMA, "spec": spec_dict(spec), "n0": res.n0,
            "pairing_states": res.state_count,
            "recurrence": recurrence_dict(res.recurrence),
            "terms": {"start": res.n0,
                      "values": term_values(res.recurrence, 16)},
        }
        if res.lattice_cycle_events:
            rep["lattice_hamiltonian_events"] = res.lattice_cycle_events
        print(render_json(rep))
    else:
        print(f"spec        {spec.describe()}")
        print(f"HC recurrence  {res.recurrence}   (order {res.recurrence.order})")
        print(f"terms       {', '.join(term_values(res.recurrence, 12))}  "
              f"from n = {res.n0}")
        if res.lattice_cycle_events:
            print(f"note: lattice-Hamiltonian events at {res.lattice_cycle_events}")
    return 0


def cmd_corpus(args) -> int:
    checks, ok = run_corpus(_budget(args))
    for label, good, detail in checks:
        mark = "PASS" if good else "FAIL"
        extra = f"  ({detail})" if detail and not good else ""
        print(f"[{mark}] {label}{extra}")
    print(f"{sum(1 for _, g, _ in checks if g)}/{len(checks)} corpus checks passed")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built on the first call and shared by every
    later call in the process, so `main` does not rebuild it per call.

    Callers must not change the shared parser: `parse_args` leaves it as
    it is and returns a fresh namespace, and nothing else may touch it.
    `set_defaults(fn=cmd_*)` binds each command function once, here, so
    code that replaces a command patches what the command calls (as the
    tests patch `cli.derive` or `cli.verify`), not the `cmd_*` function.
    """
    parser = _Parser(
        prog="circperm",
        description="Exact recurrences for permanents of circulant matrices "
                    "(cycle covers of directed circulant graphs), with "
                    "brute-force cross-validation.")
    parser.add_argument("--corpus", action="store_true",
                        help="replay the pinned regression corpus and exit")
    parser.add_argument("--budget-bits", type=int, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("derive", help="derive the cycle-cover recurrence")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="check the recurrence against both oracles")
    _add_spec_args(p, n_max=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="evaluate T(n) exactly for arbitrary n")
    _add_spec_args(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("growth", help="dominant growth rate of T(n)")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("moments", help="cycle-count moment recurrences TC_i")
    _add_spec_args(p)
    p.add_argument("--order", type=int, default=1, help="moment order i")
    p.add_argument("--ratio-at", type=int, default=200,
                   help="evaluate E[#cycles] at this n")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("hamiltonian", help="Hamiltonian-cycle recurrence")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_hamiltonian)
    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join '--jumps -1,0,1' into '--jumps=-1,0,1' so negative jumps are not
    mistaken for option strings."""
    out, i = [], 0
    while i < len(argv):
        a = argv[i]
        if a in ("--jumps", "--weights", "--size") and i + 1 < len(argv):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


@contextmanager
def _unlimited_int_digits():
    """Exact values run far past the 4300 digits CPython (3.10.7+) allows
    by default when turning an int into a string; lift that for one call."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    with _unlimited_int_digits():
        try:
            args = parser.parse_args(_merge_value_flags(
                list(sys.argv[1:] if argv is None else argv)))
            if args.corpus:
                return cmd_corpus(args)
            if not getattr(args, "command", None):
                parser.print_help()
                return 0
            return args.fn(args)
        except PARSE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except BUDGET_ERRORS as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 2
        except INTERNAL_ERRORS as exc:
            print(f"error: internal inconsistency: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
