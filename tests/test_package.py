"""Package-wide guards: numpy is the only runtime dependency, and every
exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import entrate

MODULES = ["entrate"] + sorted(
    f"entrate.{p.stem}"
    for p in Path(entrate.__file__).parent.glob("*.py")
    if p.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_scipy_and_exports_resolve(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "scipy" not in {name.split(".")[0] for name in imported}
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
