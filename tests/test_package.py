"""Package-wide guards: numpy is the only runtime dependency, every
exported name exists, Hermiticity has one rule, no setting comes from
the environment, and README's code runs."""

import ast
import importlib
import re
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


def test_herm_tol_is_compared_only_in_the_hermiticity_rule():
    # qcore._check_hermitian is the one place a matrix is held to HERM_TOL,
    # so no second rule can drift from it.
    src = Path(entrate.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "HERM_TOL" in p.read_text())
    assert users == ["qcore.py"]
    tree = ast.parse((src / "qcore.py").read_text())
    readers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "HERM_TOL" for n in ast.walk(fn))
    }
    assert readers == {"_check_hermitian"}


def test_no_module_reads_the_environment():
    # Every setting is a flag of the command line or a constant: no module
    # reads os.environ or os.getenv.
    src = Path(entrate.__file__).parent
    readers = sorted(
        p.name
        for p in src.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and {alias.name for alias in node.names} & {"environ", "getenv"})
    )
    assert readers == []


def test_readme_python_blocks_run():
    # Every ```python block of README.md, in order, in one namespace: a later
    # block may use what an earlier one defined.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE))
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        # Padded so that a traceback names the block's line in README.md.
        source = "\n" * readme.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, "README.md", "exec"), namespace)
