"""Property test over generated command lines: every input gets an answer or
a clean refusal.  Exit 0, 2 (budget) or 3 (parse/degenerate) only, never a
traceback, a refusal is one line on stderr, and no run takes longer than a
fixed wall bound.  A spec wider than the class-width cap is refused by the
width check, before anything of size 2^w is built."""
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

from circperm import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0"]
_WALL_S = 5.0
_WIDTH_REFUSAL = re.compile(r"transfer width w = (\d+) exceeds cap (\d+)$")


@st.composite
def argvs(draw):
    """A small argv for one subcommand: jumps in [-3, 3] of width <= 3,
    optional weights and --budget-bits, and the subcommand's own option."""
    lo = draw(st.integers(-3, 3))
    jumps = draw(st.lists(st.integers(lo, min(lo + 3, 3)), min_size=1,
                          max_size=4, unique=True))
    command = draw(st.sampled_from(
        ["derive", "eval", "growth", "verify", "moments", "hamiltonian"]))
    argv = [command, "--jumps", ",".join(map(str, jumps))]
    if draw(st.booleans()):
        argv += ["--weights",
                 ",".join(draw(st.sampled_from(_WEIGHTS)) for _ in jumps)]
    if draw(st.booleans()):
        argv += ["--budget-bits", str(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        argv += ["--out", "json"]
    if command == "eval":
        argv += ["--n", str(draw(st.integers(-2, 40)))]
    elif command == "verify":
        argv += ["--n-max", str(draw(st.integers(-2, 10)))]
    elif command == "moments":
        argv += ["--order", str(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            argv += ["--ratio-at", str(draw(st.integers(-2, 40)))]
    return argv


@st.composite
def linear_argvs(draw):
    """derive, growth, eval or verify on 2-3 linear jumps a*n + b, size
    p*n + s with p in {2, 3}, under a --budget-bits of at most 13, so the
    class-width cap is at most 6: the default cap of 10 admits specs of
    this range whose derive alone takes 15 s (w = 8)."""
    p = draw(st.sampled_from([2, 3]))
    jumps = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(-2, 3)),
                          min_size=2, max_size=3, unique=True))
    bits = draw(st.integers(1, 13))
    command = draw(st.sampled_from(["derive", "growth", "eval", "verify"]))
    argv = [command, "--jumps", ",".join(f"{a}n{b:+d}" if a else str(b)
                                         for a, b in jumps),
            "--size", f"{p}n{draw(st.integers(-1, 2)):+d}",
            "--budget-bits", str(bits), "--out", "json"]
    if command == "eval":
        argv += ["--n", str(draw(st.integers(-1, 30)))]
    elif command == "verify":
        argv += ["--n-max", str(draw(st.integers(0, 8)))]
    return argv, bits // 2


@st.composite
def wide_argvs(draw):
    """Any subcommand on constant jumps in [-40, 40] spread over 11 to 40,
    wider than the default class-width cap of 10, with or without a
    --budget-bits (cap bits // 2)."""
    lo = draw(st.integers(-40, 0))
    hi = lo + draw(st.integers(11, 40))
    jumps = draw(st.permutations(
        [lo, hi] + draw(st.lists(st.integers(lo + 1, hi - 1), max_size=2, unique=True))))
    command = draw(st.sampled_from(
        ["derive", "eval", "growth", "verify", "moments", "hamiltonian"]))
    argv = [command, "--jumps", ",".join(map(str, jumps))]
    cap = 10
    if draw(st.booleans()):
        bits = draw(st.integers(1, 21))
        argv += ["--budget-bits", str(bits)]
        cap = bits // 2
    if command == "eval":
        argv += ["--n", str(draw(st.integers(-2, 40)))]
    elif command == "verify":
        argv += ["--n-max", str(draw(st.integers(-2, 40)))]
    return argv, cap


def _run(argv):
    """(exit code, stdout, stderr) of one CLI run, checked to be clean and
    within the wall bound."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)       # an escaping exception fails the test
    elapsed = perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err
    if code:
        assert out == "" and err.count("\n") == 1, (argv, err)
    else:
        assert out and err == "", (argv, err)
    assert elapsed <= _WALL_S, (argv, elapsed)
    return code, out, err


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(linear_argvs())
def test_linear_specs_answer_or_refuse_by_width(case):
    argv, cap = case
    code, out, err = _run(argv)
    refusal = _WIDTH_REFUSAL.search(err.strip())
    if refusal:
        assert code == 2 and int(refusal[1]) > int(refusal[2]) == cap, (argv, err)
    elif code == 0 and argv[0] in ("derive", "verify"):
        assert json.loads(out)["transfer"]["slot_width"] <= cap, argv


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(wide_argvs())
def test_wide_specs_are_refused_by_the_width_check(case):
    argv, cap = case
    code, _, err = _run(argv)
    if code == 3:
        return          # refused as degenerate before its width is read
    refusal = _WIDTH_REFUSAL.search(err.strip())
    assert code == 2 and refusal, (argv, err)
    assert int(refusal[1]) > int(refusal[2]) == cap, (argv, err)


@hypothesis.settings(max_examples=1000, deadline=None, derandomize=True)
@hypothesis.given(argvs())
# E[#cycles] at an n past the value budget: refused, not evaluated
@hypothesis.example(["moments", "--jumps", "0,1,2",
                     "--ratio-at", "99999999999999999999"])
@hypothesis.example(["moments", "--jumps", "0,1,2", "--ratio-at", "3000000"])
def test_cli_answers_or_refuses_cleanly(argv):
    _run(argv)
