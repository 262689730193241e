"""Import hygiene: every name a package module imports is read in it
(``__future__`` imports aside), and importing a module loads only the
package modules it imports.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import trd

MODULES = sorted(pathlib.Path(trd.__file__).parent.glob("*.py"))


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


def test_import_loads_only_what_the_module_imports():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(trd.__file__).parents[1]))
    everything = {"cli", "criticality", "errors", "families", "graphs", "solver", "verify"}
    for module, loaded in [("trd", set()),
                           ("trd.graphs", {"errors", "graphs"}),
                           ("trd.solver", {"errors", "graphs", "solver"}),
                           ("trd.cli", everything)]:
        script = f"import sys, {module}; print(*(m for m in sys.modules if m.startswith('trd.')))"
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert set(out.split()) == {f"trd.{m}" for m in loaded}, module
