"""Every name a module imports is used in it.  `__init__.py` is skipped:
its imports are the package's re-exports."""
import ast
from pathlib import Path

import circperm

SOURCES = sorted(path for path in Path(circperm.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")

# (module, name) pairs imported on purpose without a use
ALLOWED = {
    # bench/tracing.py wraps this binding to count the Ryser calls that
    # reach the transfer build
    ("transfer.py", "ryser_permanent"),
}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported
            if name not in used and (path.name, name) not in ALLOWED]


def test_no_module_imports_a_name_it_never_uses():
    assert "cli.py" in {path.name for path in SOURCES}
    unused = [f"{path.name}: {name}" for path in SOURCES
              for name in _unused_imports(path)]
    assert unused == []
