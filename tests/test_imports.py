"""No library module imports a name it does not use. CI installs no linter,
so this is the check; the package's re-exports in __init__.py are exempt."""

import ast
from pathlib import Path

import pytest

import cayleyheat

PACKAGE = Path(cayleyheat.__file__).resolve().parent


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


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
