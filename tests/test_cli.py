"""CLI surface: flags, output formats, exit codes, JSON round-trip."""
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

from circperm import cli
from circperm.budget import Budget
from circperm.circulant import parse_spec
from circperm.errors import SizeCapError
from circperm.extensions import SignedModel
from circperm.pipeline import VerificationEntry, check_eval
from circperm.report import growth_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_table(capsys):
    code, out = run(capsys, "derive", "--jumps", "0,1,2")
    assert code == 0
    assert "T(n) = 2*T(n-1) -T(n-3)" in out
    assert "9, 13, 20" in out
    assert "growth      T(n) ~ phi^n, phi = 1.6180339887\n" in out


@pytest.mark.parametrize("name, argv", [
    ("const", ["--jumps", "0,1,2"]),
    ("const_weighted", ["--jumps", "0,1,2", "--weights", "1/2,1,3"]),
    ("linear_weighted", ["--jumps", "0,1n+0", "--size", "2n+1",
                         "--weights", "1/2,3"]),
    # A-bar's shapes: w = 0, constant and linear (p = 2); a New edge from
    # one new vertex into another (p = 3); new vertices that reach each
    # other and themselves beside the window's edges (w = 4)
    ("const_w0", ["--jumps", "0"]),
    ("linear_w0", ["--jumps", "0,1n+0", "--size", "2n"]),
    ("linear_p3", ["--jumps", "1,1n+0,2n+1", "--size", "3n+1"]),
    ("linear_twin", ["--jumps", "0,1n+0,1n+2", "--size", "2n"]),
    # the fit's paths: a weight denominator that is the first fitting
    # prime; coefficients past one prime; a weighted w = 4 fit
    ("const_bigden", ["--jumps", "0,1,2",
                      "--weights", "1/2305843009213693951,1,1"]),
    ("linear_twoprime", ["--jumps", "3,1n-1,1n+0", "--size", "2n"]),
    ("const_weighted_w4", ["--jumps", "0,1,4,7",
                           "--weights", "3,1/2,-1,2"]),
])
def test_derive_json_report_is_pinned(capsys, name, argv):
    """JSON reports stay byte-identical from change to change, timings
    aside: the whole report, against a recorded one (tests/reports)."""
    code, out = run(capsys, "derive", *argv, "--out", "json")
    assert code == 0
    out = re.sub(r',\n  "timings": \{[^}]*\}', "", out)
    want = Path(__file__).parent / "reports" / f"{name}.json"
    assert out == want.read_text()


_EVAL_WEIGHTED = ["eval", "--jumps", "0,1,3", "--weights", "1/2,3,-1"]
_MOMENTS = ["moments", "--jumps", "-1,0,1", "--order", "1"]


@pytest.mark.parametrize("name, argv", [
    # weights integral and not; a Fraction value from the recurrence, one
    # from Ryser below n0 = 6, and an int value
    ("eval_weighted.json", [*_EVAL_WEIGHTED, "--n", "7", "--out", "json"]),
    ("eval_weighted_below_n0.json",
     [*_EVAL_WEIGHTED, "--n", "5", "--out", "json"]),
    ("eval_int.json", ["eval", "--jumps", "0,1,2", "--n", "9", "--out", "json"]),
    ("growth.json", ["growth", "--jumps", "0,1,2", "--out", "json"]),
    ("growth.txt", ["growth", "--jumps", "0,1,2"]),
    ("growth_signed.json", ["growth", "--jumps", "0,1,2", "--weights",
                            "1,1/2,-1", "--out", "json"]),
    ("growth_signed.txt", ["growth", "--jumps", "0,1,2", "--weights",
                           "1,1/2,-1"]),
    # E[#cycles] is the int 4 at n = 6 and a Fraction at n = 200
    ("moments_ratio_int.json", [*_MOMENTS, "--ratio-at", "6", "--out", "json"]),
    ("moments_ratio_int.txt", [*_MOMENTS, "--ratio-at", "6"]),
    ("moments_ratio.json", [*_MOMENTS, "--ratio-at", "200", "--out", "json"]),
    ("moments_ratio.txt", [*_MOMENTS, "--ratio-at", "200"]),
    ("hamiltonian.json", ["hamiltonian", "--jumps", "1,3", "--out", "json"]),
    ("hamiltonian.txt", ["hamiltonian", "--jumps", "1,3"]),
    # the stopped entry at n = 25 writes "recurrence" and "ryser" as the
    # string "None", not null: bench/reference.py and bench/pin.py filter
    # entries on that string
    ("verify_stopped.json", ["verify", "--jumps", "0,1,2", "--n-max", "30",
                             "--out", "json"]),
])
def test_printer_output_is_pinned(capsys, name, argv):
    """Each printer's output stays byte-identical from change to change,
    timings aside, against a recorded one (tests/reports/cli)."""
    code, out = run(capsys, *argv)
    assert code == 0
    out = re.sub(r',\n  "timings": \{[^}]*\}', "", out)
    assert out == (Path(__file__).parent / "reports" / "cli" / name).read_text()


def test_derive_degenerate_single_self_loop(capsys):
    code, out = run(capsys, "derive", "--jumps", "0", "--out", "json")
    assert code == 0
    rep = json.loads(out)
    rec = rep["recurrence"]
    assert rec["order"] == 1 and rec["coeffs"] == ["1"]
    assert rec["base"] == 0 and rec["initials"] == ["1"]


def test_json_report_round_trips(capsys):
    code, out = run(capsys, "derive", "--jumps", "0,1n+0,2n-1", "--size", "3n",
                    "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    text = rep["spec"]["text"]
    code, out2 = run(capsys, "derive", "--jumps", text["jumps"],
                     "--size", text["size"], "--out", "json")
    rep2 = json.loads(out2)
    assert (json.dumps(rep["recurrence"], sort_keys=True)
            == json.dumps(rep2["recurrence"], sort_keys=True))
    assert rep["terms"] == rep2["terms"]


@pytest.mark.parametrize("argv", [
    ["derive", "--jumps", "0,1,2"],
    ["hamiltonian", "--jumps", "1,2"],
])
def test_json_reports_show_sixteen_terms(capsys, argv):
    # the terms come from the recurrence, not from what the fit read
    code, out = run(capsys, *argv, "--out", "json")
    assert code == 0
    assert len(json.loads(out)["terms"]["values"]) == 16


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "circperm", "derive", "--jumps", "0,1,2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "T(n) = 2*T(n-1) -T(n-3)" in proc.stdout


def test_eval_exact_large_n(capsys):
    code, out = run(capsys, "eval", "--jumps", "0,1,2", "--n", "100")
    assert code == 0
    assert out.strip() == "T(100) = 792070839848372253129"


def test_growth_value(capsys):
    code, out = run(capsys, "growth", "--jumps", "0,1,2")
    assert code == 0
    assert out == "1.6180339887\n"


def test_growth_prints_the_certified_digits_of_2_plus_sqrt5(capsys):
    # 2 + sqrt 5 = 4.2360679774997..., whose 9-place rounding is 4.236067977
    # and not the 4.236067978 that the float of a bracket midpoint printed
    argv = ["--jumps", "1,1n+0,2n+1", "--size", "3n+1"]
    code, out = run(capsys, "growth", *argv)
    assert code == 0
    assert out == "4.2360679775\n"
    code, out = run(capsys, "derive", *argv)
    assert code == 0
    assert "growth      T(n) ~ phi^n, phi = 4.2360679775\n" in out


@pytest.mark.parametrize("argv", [
    ["--jumps", "0,1,2"],
    ["--jumps", "0,1,4", "--weights", "-1,1/2,3"],
])
def test_growth_json_is_the_derive_growth_block(capsys, argv):
    _, out = run(capsys, "derive", *argv, "--out", "json")
    want = json.loads(out)["growth"]
    code, out = run(capsys, "growth", *argv, "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert {k: rep[k] for k in want} == want
    assert set(rep) == {"schema", "spec", *want}


def test_growth_json_prints_true_digits(capsys):
    code, out = run(capsys, "growth", "--jumps", "0,1,2", "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["dominant_root"] == rep["modulus"] == "1.6180339887"
    # the same root phi, 1.05e-13 below the rounding edge 1.61803398875
    code, out = run(capsys, "growth", "--jumps", "0,3,6", "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["dominant_root"] == rep["modulus"] == "1.6180339887"


LOWER_BOUND = "terms may be negative: largest |real root|, a lower bound on the dominant modulus"


@pytest.mark.parametrize("jumps, weights, root, modulus, note", [
    # a real root 0.7% below the dominant one once made term ratios miss it
    ("0,6,7", None, "1.3887275744", "1.3887275744", "largest-modulus real root"),
    ("0,1,3", "2,1/2,2", "2.1813212875", "2.1813212875", "largest-modulus real root"),
    # chi has the roots 1 and -1 and a non-real pair on the unit circle
    ("0,1,2", "1,1/2,-1", None, "1.0000000000", LOWER_BOUND),
], ids=["0,6,7", "0,1,3-weighted", "0,1,2-signed"])
def test_growth_block_claims_what_the_roots_prove(derived, jumps, weights,
                                                  root, modulus, note):
    g = growth_dict(derived(jumps, None, weights).growth)
    assert (g["dominant_root"], g["modulus"], g["note"]) == (root, modulus, note)


def test_moments_table_row(capsys):
    code, out = run(capsys, "moments", "--jumps", "-1,0,1", "--order", "1")
    assert code == 0
    assert "22, 42, 80, 149, 274" in out
    assert "order 5" in out


def test_hamiltonian_output(capsys):
    code, out = run(capsys, "hamiltonian", "--jumps", "1,2")
    assert code == 0
    assert "T(n) = T(n-2)" in out


def test_verify_ok_exit_zero(capsys):
    code, out = run(capsys, "verify", "--jumps", "1,2,3", "--n-max", "10")
    assert code == 0
    assert "MISMATCH" not in out


@pytest.mark.parametrize("jumps, size, first", [
    ("0,1n-1", "2n-2", 2),      # size 0 at n = 1, past the base n = 0 - 1
    ("0,1n+0", "2n", 1),        # size 0 at n = 0, the base
])
def test_verify_starts_at_the_first_index_with_a_matrix(capsys, jumps, size,
                                                        first):
    """verify and eval agree on a size-0 index: there is no matrix there."""
    code, out = run(capsys, "verify", "--jumps", jumps, "--size", size,
                    "--n-max", "5", "--out", "json")
    assert code == 0
    assert json.loads(out)["verification"][0]["n"] == first
    assert cli.main(["eval", "--jumps", jumps, "--size", size,
                     "--n", str(first - 1)]) == 3
    assert "size 0 is not positive" in capsys.readouterr().err


def test_exit_code_parse_error(capsys):
    assert cli.main(["derive", "--jumps", "0,0"]) == 3
    assert cli.main(["derive", "--jumps", "0,1n+0"]) == 3


def test_exit_code_budget(capsys):
    # pairing cap of 2 bits cannot hold the moment states
    assert cli.main(["moments", "--jumps", "-1,0,1", "--budget-bits", "2"]) == 2
    # oracle caps of 3 bits leave verify nothing to check
    assert cli.main(["verify", "--jumps", "0,1,2", "--n-max", "10",
                     "--budget-bits", "3"]) == 2


def _refusal(capsys, argv, seconds):
    """Exit code and stderr of a run that must end within `seconds`."""
    start = perf_counter()
    code = cli.main(argv)       # an escaping exception fails the test
    assert perf_counter() - start < seconds, argv
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    return code, captured.err


@pytest.mark.parametrize("command, jumps, w", [
    ("derive", "0,1,30", 30), ("derive", "0,99999999999", 99999999999),
    ("growth", "0,1,30", 30), ("moments", "0,1,600", 600),
    ("hamiltonian", "-600,1", 601),
])
def test_a_wide_transfer_is_refused_before_it_is_built(capsys, command,
                                                       jumps, w):
    # w = 30 would need 4^30 classes, and a base lattice of 1200 vertices
    # overran the seed enumeration's recursion: the cap is read from the
    # jumps alone
    code, err = _refusal(capsys, [command, "--jumps", jumps], 1)
    assert code == 2
    assert err == (f"budget exceeded: C_n^{{{jumps}}}: transfer width "
                   f"w = {w} exceeds cap 10\n")


def test_budget_bits_resize_the_transfer_width_cap(capsys):
    # 5 bits admit w = 2, 3 bits do not
    assert cli.main(["growth", "--jumps", "0,1,2", "--budget-bits", "5"]) == 0
    capsys.readouterr()
    code, err = _refusal(capsys, ["eval", "--jumps", "0,1,2", "--n", "9",
                                  "--budget-bits", "3"], 1)
    assert code == 2 and err.endswith("w = 2 exceeds cap 1\n")


def test_eval_refuses_an_n_past_the_value_budget(capsys):
    # |T(n)| <= 3^n here, about 1.6 * 10^20 bits: refused before any derive
    n = "99999999999999999999"
    code, err = _refusal(capsys, ["eval", "--jumps", "0,1,2", "--n", n], 1)
    assert code == 2
    assert err == (f"budget exceeded: T({n}) of C_n^{{0,1,2}} may have more "
                   f"than 4194304 bits: size {n} times 1.585 bits a row\n")


def test_moments_refuses_a_ratio_past_the_value_budget(capsys):
    # --budget-bits 6 caps a value at 64 bits; TC_0(n) <= 3^n has at most
    # 1.585 n, so n = 40 is read and n = 41 refused before any state is
    # built, but not at --order 0, where no ratio is read
    argv = ["moments", "--jumps", "0,1,2", "--budget-bits", "6"]
    assert cli.main(argv + ["--ratio-at", "40"]) == 0
    assert "E[#cycles]  at n = 40: 182367/15127" in capsys.readouterr().out
    code, err = _refusal(capsys, argv + ["--ratio-at", "41"], 1)
    assert code == 2
    assert err == ("budget exceeded: TC_0(41) of C_n^{0,1,2} may have more "
                   "than 64 bits: size 41 times 1.585 bits a row\n")
    assert cli.main(argv + ["--ratio-at", "41", "--order", "0"]) == 0


def test_moments_refuses_an_order_past_the_pairing_cap(capsys, monkeypatch):
    # order 5000 needs 5001 moments a state, above the cap of 4096, so no
    # state is built; the spec's own refusals and the ratio's come first
    def refuse(*args, **kwargs):
        raise AssertionError("a pairing state was built")
    monkeypatch.setattr(SignedModel, "seed_counts", refuse)
    argv = ["moments", "--jumps", "0,1", "--order", "5000"]
    code, err = _refusal(capsys, argv, 1)
    assert code == 2
    assert err == ("budget exceeded: moment order 5000 needs 5001 moments a "
                   "pairing state, above the augmented dimension cap 4096\n")
    code, err = _refusal(capsys, argv + ["--weights", "1,2"], 1)
    assert code == 3 and "defined for unweighted specs" in err
    code, err = _refusal(capsys, argv + ["--budget-bits", "6",
                                         "--ratio-at", "99"], 1)
    assert code == 2 and err.startswith("budget exceeded: TC_0(99)")


def test_a_huge_budget_still_answers_or_refuses(capsys):
    # the value cap is 2^min(bits, 62): a bits count this large must not
    # build a 2^bits integer
    bits = ["--budget-bits", "100000000000"]
    assert cli.main(["derive", "--jumps", "0,1", "--out", "json"] + bits) == 0
    assert cli.main(["eval", "--jumps", "0,1,2", "--n", "20"] + bits) == 0
    assert capsys.readouterr().out.endswith("T(20) = 15129\n")
    n = "99999999999999999999"
    code, err = _refusal(capsys, ["eval", "--jumps", "0,1,2", "--n", n] + bits, 1)
    assert code == 2
    assert err == (f"budget exceeded: T({n}) of C_n^{{0,1,2}} may have more "
                   f"than {1 << 62} bits: size {n} times 1.585 bits a row\n")


@pytest.mark.parametrize("jumps, size, weights, n, bits", [
    ("0,1,2", None, None, 1000000, 1584963),      # README's eval
    ("0,1,2", None, None, 38250, 60625),  # the largest n of bench eval-large-n
    ("0,1,4", None, None, 7650, 12125),
    ("0,1n+0,2n-1", "3n", None, 15300, 72750),
    ("0,1,2", None, "2,1,1", 15300, 30600),
    ("0,1,3", None, "1/2,3,-1", 3825, 15950),
])
def test_the_value_budget_admits_the_large_evals(jumps, size, weights, n,
                                                 bits):
    spec = parse_spec(jumps, size, weights)
    check_eval(spec, n)
    # the bound is size(n) log2(S L): one bit more and a cap refuses
    check_eval(spec, n, Budget(eval_max_bits=bits))
    with pytest.raises(SizeCapError, match=f"more than {bits - 1} bits"):
        check_eval(spec, n, Budget(eval_max_bits=bits - 1))


def test_hamiltonian_refuses_while_it_seeds(capsys):
    # the seeds are stepped vertex by vertex from the empty lattice and each
    # step holds only its pairings: L_n0 of {1..7} has 1.5 million legal
    # covers, yet the step past 4095 tour states refuses within a second,
    # and so does {1..10} at the width cap
    tours = "tour state count states+1 exceeds cap 4096: more than 4095"
    moments = "augmented dimension states*2 exceeds cap 4096: more than 2048"
    for argv, seconds, what in [
            (["hamiltonian", "--jumps", "1,2,3,4,5,6,7"], 15, tours),
            (["hamiltonian", "--jumps", "1,2,3,4,5,6,7,8,9,10"], 5, tours),
            (["moments", "--jumps", "1,2,3,4,5,6,7"], 5, moments)]:
        code, err = _refusal(capsys, argv, seconds)
        assert code == 2
        assert err == f"budget exceeded: {what} pairing states reachable\n"


@pytest.mark.parametrize("argv", [
    ["derive", "--jumps", "0,1,2"], ["growth", "--jumps", "0,1,2"],
    ["eval", "--jumps", "0,1,2", "--n", "9"],
    ["verify", "--jumps", "0,1,2", "--n-max", "8"],
    ["moments", "--jumps", "-1,0,1"], ["hamiltonian", "--jumps", "1,2"],
    ["--corpus"],
], ids=lambda argv: argv[0].strip("-"))
def test_budget_bits_zero_exits_3_on_every_subcommand(capsys, argv):
    code, err = _refusal(capsys, argv + ["--budget-bits", "0"], 5)
    assert code == 3
    assert err == "error: budget bits must be positive, got 0\n"


@pytest.mark.parametrize("bits, refusal", [
    ("10", ", n=11: Ryser dimension 11 exceeds cap 10"),
    ("3", ": no index up to 20 fits the oracle budget for this spec"),
])
def test_corpus_budget_refusal_names_the_check_and_spec(capsys, bits, refusal):
    assert cli.main(["--corpus", "--budget-bits", bits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: oracle equivalence 0,1,2 "
                            f"(C_n^{{0,1,2}}){refusal}\n")


def test_exit_code_verification_mismatch(capsys, monkeypatch):
    bad = [VerificationEntry(4, 4, 9, 10, None, False)]
    monkeypatch.setattr(cli, "verify", lambda *a, **k: bad)
    assert cli.main(["verify", "--jumps", "0,1,2", "--n-max", "5"]) == 1


def test_exit_code_internal_error(capsys, monkeypatch):
    from circperm.errors import AnnihilationError

    def boom(*a, **k):
        raise AnnihilationError("forced")

    monkeypatch.setattr(cli, "derive", boom)
    assert cli.main(["derive", "--jumps", "0,1,2"]) == 1


def test_failed_annihilation_check_names_the_block_and_spec(capsys, monkeypatch):
    from circperm import algebra

    # x^d + 1 kills none of the 0/1 blocks of {0,1,2}
    monkeypatch.setattr(algebra, "char_poly",
                        lambda b: [1] + [0] * (len(b) - 1) + [1])
    assert cli.main(["derive", "--jumps", "0,1,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == ("error: internal inconsistency: annihilation check: "
                            "the polynomial does not kill block B_0 "
                            "(dimension 1) of C_n^{0,1,2}\n")


def test_negative_jumps_survive_argument_parsing(capsys):
    code, out = run(capsys, "derive", "--jumps", "-1,0,1")
    assert code == 0
    assert "normalized" in out and "9, 13, 20" in out


def test_eval_refuses_undefined_sizes(capsys):
    # {0,1,2} collides mod 2 at n=2; sizes 0 and -3 have no matrix at all
    for n in ("2", "0", "-3"):
        assert cli.main(["eval", "--jumps", "0,1,2", "--n", n]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_eval_below_the_base_is_the_ryser_permanent(capsys):
    # the transfer base of {0,1,2} is n0 = 4; size 3 is the all-ones 3x3
    assert run(capsys, "eval", "--jumps", "0,1,2", "--n", "3") == (0, "T(3) = 6\n")
    # all-zero weights fit T(n) = 0*T(n-1), which cannot run backward
    assert run(capsys, "eval", "--jumps", "0,1,2", "--weights", "0,0,0",
               "--n", "3") == (0, "T(3) = 0\n")


@pytest.mark.parametrize("argv", [
    ["moments", "--jumps", "-1,0,1", "--order", "-1"],
    ["moments", "--jumps", "-1,0,1", "--ratio-at", "0"],
    ["verify", "--jumps", "0,1,2", "--n-max", "8", "--budget-bits", "0"],
    # below the transfer base there is nothing to verify; no budget is involved
    ["verify", "--jumps", "0,1,5", "--n-max", "9"],
    ["verify", "--jumps", "0,1,5", "--n-max", "-1"],
    ["verify", "--jumps", "0,1,2", "--n-max", "3"],
], ids=["moment-order-negative", "ratio-at-zero", "budget-bits-zero",
        "verify-below-base", "verify-n-max-negative",
        "verify-n-max-just-below-base"])
def test_bad_argument_exits_3_with_one_line(capsys, argv):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["derive"], "the following arguments are required: --jumps"),
    (["eval", "--jumps", "0,1", "--n", "abc"],
     "argument --n: invalid int value: 'abc'"),
    (["derive", "--jumps", "0,1", "--bogus"], "unrecognized arguments: --bogus"),
    (["frob"], "argument command: invalid choice: 'frob'"),
    (["derive", "--jumps", "0,1", "--out", "xml"],
     "argument --out: invalid choice: 'xml'"),
], ids=["missing-jumps", "n-not-int", "unknown-flag", "unknown-subcommand",
        "unknown-format"])
def test_usage_errors_exit_3_with_one_line(capsys, argv, message):
    """Usage errors are parse errors, not argparse's exit 2, which is the
    budget code."""
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message}")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive", "--help"])
    assert exc.value.code == 0 and "--jumps" in capsys.readouterr().out


@pytest.mark.parametrize("command, analysis", [
    ("moments", "cycle moments"),
    ("hamiltonian", "Hamiltonian cycle counts"),
])
def test_weighted_raw_jump_analysis_refusal_names_it(capsys, command, analysis):
    assert cli.main([command, "--jumps", "0,1,2", "--weights", "2,1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {analysis} are defined for unweighted specs\n"


def test_values_past_the_int_digit_limit_print(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "eval", "--jumps", "0,1,2", "--n", "25000",
                    "--out", "json")
    assert code == 0
    value = json.loads(out)["value"]
    assert len(value) > 4300
    code, out = run(capsys, "eval", "--jumps", "0,1,2", "--n", "25000")
    assert code == 0 and out == f"T(25000) = {value}\n"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("weights", ["0,1,1", "1,0,-1"])
def test_zero_weights_verify_against_ryser(capsys, weights):
    code, out = run(capsys, "verify", "--jumps", "0,1,2", "--weights", weights,
                    "--n-max", "12", "--out", "json")
    assert code == 0
    checked = [e for e in json.loads(out)["verification"] if "note" not in e]
    assert [e["n"] for e in checked] == list(range(4, 13))
    assert all(e["ok"] and e["recurrence"] == e["ryser"] for e in checked)


@pytest.mark.parametrize("argv", [
    ["--budget-bits", "3", "verify", "--jumps", "0,1,2", "--n-max", "10"],
    ["verify", "--jumps", "0,1,2", "--n-max", "10", "--budget-bits", "3"],
], ids=["before-subcommand", "after-subcommand"])
def test_budget_bits_reach_the_budget_from_either_place(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    assert cli._budget(args) == cli.Budget().with_bits(3)
    # 3-bit oracle caps leave verify nothing to check
    assert cli.main(argv) == 2


@pytest.mark.parametrize("argv, root", [
    (["--jumps", "0,1,4", "--weights", "-1,1/2,3"], "3"),
    (["--jumps", "0,1n+0,2n-1", "--size", "3n", "--weights", "-1,1/2,2"], "8"),
    (["--jumps", "0,1n+0,2n-1", "--size", "3n", "--weights", "1/2,2,-1"], "8.125"),
])
def test_simple_real_dominant_root_is_reported(capsys, argv, root):
    # sympy: each chi has this root once, and no root of larger modulus; a
    # negative weight leaves it a lower bound on the dominant modulus
    code, out = run(capsys, "derive", *argv, "--out", "json")
    assert code == 0
    g = json.loads(out)["growth"]
    assert g["note"] == LOWER_BOUND and g["dominant_root"] is None
    # every printed digit is true: 3.0000000000, 8.0000000000, 8.1250000000
    assert g["modulus"] == f"{float(root):.10f}"


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# cheap command lines for every path through the shared parser: the
# --budget-bits default on both levels, both formats, a usage error, a
# subcommand's --help and the bare top-level help
_REPLAYED = [
    (["--budget-bits", "3", "verify", "--jumps", "0,1,2", "--n-max", "10"], 2),
    (["verify", "--jumps", "0,1,2", "--n-max", "10", "--budget-bits", "3"], 2),
    (["verify", "--jumps", "0,1,2", "--n-max", "10"], 0),
    (["derive", "--jumps", "-1,0,1", "--out", "json"], 0),
    (["derive", "--jumps", "-1,0,1"], 0),
    (["derive", "--jumps", "0,1", "--out", "xml"], 3),
    (["derive", "--help"], "SystemExit(0)"),
    ([], 0),
]


def _replay(argv):
    """(exit code, stdout, stderr) of one in-process `main` call; --help
    leaves through argparse's SystemExit, recorded by its repr, and a JSON
    report is read without its wall-clock `timings`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    out = out.getvalue()
    if out.startswith("{"):
        out = json.loads(out)
        del out["timings"]
    return code, out, err.getvalue()


@pytest.fixture(scope="module")
def replayed():
    recorded = [_replay(argv) for argv, _ in _REPLAYED]
    assert [code for code, _, _ in recorded] == [c for _, c in _REPLAYED]
    assert recorded[-1][1].startswith("usage: circperm")
    assert recorded[6][1].startswith("usage: circperm derive")
    assert recorded[5][2].count("\n") == 1
    return recorded


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(st.permutations(range(len(_REPLAYED))))
def test_shared_parser_carries_nothing_between_calls(replayed, order):
    for i in order:
        assert _replay(_REPLAYED[i][0]) == replayed[i], _REPLAYED[i][0]
