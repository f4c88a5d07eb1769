"""The runtime is stdlib-only: every absolute import in the package names a
module of the standard library."""
import ast
import sys
from pathlib import Path

import circperm

SOURCES = sorted(Path(circperm.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_absolute_import_is_stdlib():
    assert "pipeline.py" in {path.name for path in SOURCES}
    outside = [f"{path.name}: {name}" for path in SOURCES
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
