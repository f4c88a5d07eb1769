"""The bench tracer wraps circperm functions by name; a rename would turn
its layer into `tracing.untraced` without failing any run.  This reads
bench/tracing.py (stdlib only) without writing anything under bench/."""
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
