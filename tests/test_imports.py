"""Three checks on the library, since CI installs no linter and no coverage
tool.  No library module imports a name it does not use.  Every parameter
of every function and lambda is read in its body, but for the commented
entries of UNREAD.  And the library keeps only what a command runs: in a
fresh interpreter, under a profile hook, importing the CLI and running the
README's commands, an S2 sphere-check and one refused command calls every
function the library defines, methods, properties and nested functions
included, but for the commented entries of UNREACHED."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cayleyheat

PACKAGE = Path(cayleyheat.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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


def defs(source: str, module: str) -> dict[int, str]:
    """Every function the source defines, methods, properties and nested
    functions included (lambdas not), as {first line: "module.name"}, the
    name qualified by its enclosing classes and functions.  The first line is
    the first decorator's, as a code object's co_firstlineno gives it."""
    out = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
            scope = isinstance(child, (*functions, ast.ClassDef))
            visit(child, f"{prefix}{child.name}." if scope else prefix)

    visit(ast.parse(source), f"{module}.")
    return out


def test_lists_every_def():
    source = (
        "def f():\n    def inner():\n        pass\n"
        "class A:\n    @property\n    @staticmethod\n    def p():\n        pass\n"
        "    def m(self):\n        return lambda: 0\n"
    )
    assert defs(source, "a") == {1: "a.f", 2: "a.f.inner", 5: "a.A.p", 9: "a.A.m"}


def unread_parameters(source: str, module: str) -> set[tuple[str, str]]:
    """(function, parameter) for each parameter of a def or lambda that its
    body never reads as a name; parameters named with a leading underscore
    are exempt.  Functions are named as ``defs`` names them, a lambda as
    "<lambda>" in its enclosing scope.  A read in a nested function or
    lambda counts, as its closure reads the parameter."""
    out = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions):
                a = child.args
                params = [
                    p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p
                ]
                body = child.body if isinstance(child, ast.Lambda) else ast.Module(child.body, [])
                read = {
                    n.id
                    for n in ast.walk(body)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                name = prefix + getattr(child, "name", "<lambda>")
                out.update((name, p) for p in params if not p.startswith("_") and p not in read)
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{prefix}{child.name}." if scope else prefix)

    visit(ast.parse(source), f"{module}.")
    return out


def test_finds_an_unread_parameter():
    source = (
        "def f(a, b, *args, c=1, _d=2, **kw):\n    return a + kw['x']\n"
        "class A:\n    def m(self, x):\n        return lambda y, z: x + z\n"
        "def g(p, q):\n    def inner(r=p):\n        q = 1\n        return r\n"
    )
    assert unread_parameters(source, "a") == {
        ("a.f", "b"), ("a.f", "args"), ("a.f", "c"), ("a.A.m", "self"),
        ("a.A.m.<lambda>", "y"), ("a.g", "q"),
    }


# Parameters that are accepted and not read, each with its reason.
UNREAD = {
    # mean_gradient_l1 shares rsd_gradient_l1's signature (x, y, s, d, c),
    # and the mean margin's gradient in s and d is constant
    ("checks.mean_gradient_l1", "s"),
    ("checks.mean_gradient_l1", "d"),
    # perfbench's workloads pass it; ROADMAP item 7 (a) removes it there,
    # and then here
    ("lattices._enumeration_box", "point_cap"),
}


def test_every_parameter_is_read():
    """The ROADMAP rule "no flag may be accepted and then ignored", for
    every function of the library: each parameter is read in its body."""
    unread = set()
    for module in MODULES:
        unread |= unread_parameters((PACKAGE / module).read_text(), Path(module).stem)
    assert unread == UNREAD


# Functions that no command runs, each with its reason.
UNREACHED = {
    # only the benchmark's pair_sweep calls it; ROADMAP item 12 (b) plans its
    # command, check-monotone's report of the convolution-lemma links
    "checks.check_convolve_even",
    # the series' array API, which perfbench's oracle test and the tier-1
    # tests call; the sphere checks hand their five cosines to the series
    # as Python floats, through _series_heat
    "continuum.sphere_heat",
    "continuum.rp2_heat",
}

# Run under the hook: the README's CLI block adds these.  The README runs
# sphere-check on RP2 only, so the S2 run is the one that reaches
# sphere_heat, and the refused command reaches the CLI's failure path.
EXTRA_COMMANDS = ["cayleyheat sphere-check --trials 1", "cayleyheat h3-violation --d1 0"]

# The child records each code object a call starts; it must be a fresh
# interpreter, as the library's lru_caches hide the bodies that earlier
# tests have warmed.
CHILD = """
import contextlib, io, json, shlex, sys
codes = set()
def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(hook)
from cayleyheat import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exits = [cli.main(shlex.split(line)[1:]) for line in sys.argv[1:]]
sys.setprofile(None)
print(json.dumps({"exits": exits, "calls": [[c.co_filename, c.co_firstlineno] for c in codes]}))
"""


def test_every_def_runs(tmp_path):
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.strip().splitlines() + EXTRA_COMMANDS
    # the weights file test_readme_examples_pass writes for check-monotone
    (tmp_path / "w.json").write_text(
        json.dumps({"group": "Z12", "weights": {"1": 2.0, "3": 1.0}})
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *lines],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    result = json.loads(out)
    assert result["exits"] == [0] * (len(lines) - 1) + [2]
    called = {
        (Path(f).name, line) for f, line in result["calls"] if Path(f).resolve().parent == PACKAGE
    }
    unreached = {
        name
        for module in MODULES
        for line, name in defs((PACKAGE / module).read_text(), Path(module).stem).items()
        if (module, line) not in called
    }
    assert unreached == UNREACHED
