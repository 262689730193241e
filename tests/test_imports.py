"""Import hygiene: every name a package module imports is read in it.

``__init__.py`` is skipped, since its imports are re-exports, and so are
``__future__`` imports.
"""

import ast
import pathlib

import pytest

import trd

MODULES = sorted(
    p for p in pathlib.Path(trd.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = [f"{name} (line {line})" for name, line in imported.items()
              if name not in read]
    assert not unused, f"{path.name} never reads {', '.join(unused)}"
