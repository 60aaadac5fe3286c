import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_lists_every_module_and_the_total(capsys):
    package = ROOT / "src" / "cayleyheat"
    assert code_lines.main([str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    *rows, total = [re.fullmatch(r"(\S+) (\d+)", s).groups() for s in lines]
    assert [Path(p) for p, _ in rows] == sorted(package.rglob("*.py"))
    assert total == ("total", str(sum(int(n) for _, n in rows)))


def test_skips_blank_comment_and_docstring_lines():
    source = (
        '"""Module\ndocstring."""\n\n# a comment\n'
        'def f(x):\n    """Doc."""\n    return (x +\n            1)  # trailing\n'
    )
    assert code_lines.code_lines(source) == 3
