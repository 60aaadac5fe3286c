"""Two lints on the library, since CI installs no linter. No library module
imports a name it does not use; the package's re-exports in __init__.py are
exempt. No library module defines a top-level function or class that
nothing reaches: its name must be read in the library or in perfbench, the
benchmark harness, outside its own definition."""

import ast
from pathlib import Path

import pytest

import cayleyheat

PACKAGE = Path(cayleyheat.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom .x import a, b as c\nprint(np, c)\n"
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _names_read(node: ast.AST) -> set[str]:
    """Names and attribute names read anywhere under node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def dead_names(library: dict[str, str], readers: list[str]) -> list[str]:
    """The top-level functions and classes of the library sources, as
    "module.name", whose name no other top-level statement of the library
    and no reader source reads."""
    read_by_readers = set().union(*(_names_read(ast.parse(s)) for s in readers))
    statements = [
        (module, node, _names_read(node))
        for module, source in library.items()
        for node in ast.parse(source).body
    ]
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, defined)
        and node.name not in read_by_readers
        and not any(node.name in read for _, other, read in statements if other is not node)
    )


def test_finds_a_dead_name():
    library = {
        "a": "def used(): pass\ndef recursive(n):\n    return recursive(n - 1)\n"
        "class Dead: pass\ndef _helper(): pass\nX = _helper()\n",
        "b": "from .a import used\ndef caller():\n    return used()\n",
        "c": "import a\nclass Benched: pass\na.attr_read()\ndef attr_read(): pass\n",
    }
    reader = "from cayleyheat.c import Benched\nBenched(), caller()\n"
    assert dead_names(library, [reader]) == ["a.Dead", "a.recursive"]


def test_no_dead_names():
    readers = sorted(PERFBENCH.glob("*.py"))
    assert readers, f"no perfbench sources under {PERFBENCH}"
    library = {Path(m).stem: (PACKAGE / m).read_text() for m in MODULES}
    assert dead_names(library, [p.read_text() for p in readers]) == []
