"""The bench tracer wraps circperm functions by name; a rename would turn
its layer into `tracing.untraced` without failing any run, and a changed
return shape would make its counters miscount.  This reads bench/tracing.py
(stdlib only) without writing anything under bench/."""
import importlib
from pathlib import Path
from types import ModuleType

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> ModuleType:
    mod = ModuleType("bench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_wrapped_name_resolves_in_circperm():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    missing = [f"{module}.{name}" for module, name, _, _ in wrapped
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert missing == []


def test_counters_count_a_weighted_derive(capsys):
    """The counters of a traced derive equal the values that a plain derive
    shows."""
    from circperm import cli
    from circperm.algebra import annihilator_from_blocks
    from circperm.circulant import parse_spec
    from circperm.pipeline import derive
    from circperm.transfer import sequence

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["derive", "--jumps", "0,1,4", "--weights", "1/2,3,-1",
                         "--out", "json"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    _, counts = tracer.take()
    assert tracer.untraced == []

    res = derive(parse_spec("0,1,4", weights="1/2,3,-1"))
    system = res.system
    chis = annihilator_from_blocks(system.blocks).chis
    assert counts["transfer.a_bar_nnz"] == sum(
        1 for row in system.a_bar for v in row if v)
    assert counts["transfer.states"] == len(system.beta)
    assert counts["transfer.terms"] == len(
        sequence(system, max(res.annihilator.degree, 1), chis))
    assert counts["algebra.annihilator.degree"] == res.annihilator.degree
