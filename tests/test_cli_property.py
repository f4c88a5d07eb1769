"""Property test over generated command lines: every input gets an answer or
a clean refusal.  Exit 0, 2 (budget) or 3 (parse/degenerate) only, never a
traceback, and a refusal is one line on stderr."""
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from circperm import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WEIGHTS = ["1", "2", "-1", "1/2", "0"]


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


@hypothesis.settings(max_examples=1000, deadline=None, derandomize=True)
@hypothesis.given(argvs())
def test_cli_answers_or_refuses_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)       # an escaping exception fails the test
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err
    if code:
        assert out == "" and err.count("\n") == 1, (argv, err)
    else:
        assert out and err == "", (argv, err)
