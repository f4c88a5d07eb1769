"""CLI surface: flags, output formats, exit codes, JSON round-trip."""
import json
import sys

import pytest

from circperm import cli
from circperm.pipeline import VerificationEntry


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_table(capsys):
    code, out = run(capsys, "derive", "--jumps", "0,1,2")
    assert code == 0
    assert "T(n) = 2*T(n-1) -T(n-3)" in out
    assert "9, 13, 20" in out
    assert "1.618033989" in out


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


def test_eval_exact_large_n(capsys):
    code, out = run(capsys, "eval", "--jumps", "0,1,2", "--n", "100")
    assert code == 0
    assert out.strip() == "T(100) = 792070839848372253129"


def test_growth_value(capsys):
    code, out = run(capsys, "growth", "--jumps", "0,1,2")
    assert code == 0
    assert out.strip().startswith("1.618033989")


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


def test_exit_code_parse_error(capsys):
    assert cli.main(["derive", "--jumps", "0,0"]) == 3
    assert cli.main(["derive", "--jumps", "0,1n+0"]) == 3


def test_exit_code_budget(capsys):
    # pairing cap of 2 bits cannot hold the moment states
    assert cli.main(["moments", "--jumps", "-1,0,1", "--budget-bits", "2"]) == 2
    # oracle caps of 3 bits leave verify nothing to check
    assert cli.main(["verify", "--jumps", "0,1,2", "--n-max", "10",
                     "--budget-bits", "3"]) == 2


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
    monkeypatch.setattr(algebra, "char_poly", lambda b: algebra.Polynomial.from_list(
        [1] + [0] * (len(b) - 1) + [1]))
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


@pytest.mark.parametrize("argv,env", [
    (["moments", "--jumps", "-1,0,1", "--order", "-1"], None),
    (["moments", "--jumps", "-1,0,1", "--ratio-at", "0"], None),
    (["verify", "--jumps", "0,1,2", "--n-max", "8"], "abc"),
    (["verify", "--jumps", "0,1,2", "--n-max", "8", "--budget-bits", "0"], None),
], ids=["moment-order-negative", "ratio-at-zero", "budget-env-not-int",
        "budget-bits-zero"])
def test_bad_argument_exits_3_with_one_line(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("CIRCPERM_BUDGET", env)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert cli._budget(args) == cli.default_budget().with_bits(3)
    # 3-bit oracle caps leave verify nothing to check
    assert cli.main(argv) == 2


@pytest.mark.parametrize("argv, root", [
    (["--jumps", "0,1,4", "--weights", "-1,1/2,3"], "3"),
    (["--jumps", "0,1n+0,2n-1", "--size", "3n", "--weights", "-1,1/2,2"], "8"),
    (["--jumps", "0,1n+0,2n-1", "--size", "3n", "--weights", "1/2,2,-1"], "8.125"),
])
def test_simple_real_dominant_root_is_reported(capsys, argv, root):
    # sympy: each chi has this root once, and no root of larger modulus
    code, out = run(capsys, "derive", *argv, "--out", "json")
    assert code == 0
    g = json.loads(out)["growth"]
    assert g["note"] == "largest-modulus real root"
    assert f"{float(g['dominant_root']):.10g}" == root
    # every printed digit is true: 3.0000000000, 8.0000000000, 8.1250000000
    assert g["dominant_root"] == f"{float(root):.10f}"
