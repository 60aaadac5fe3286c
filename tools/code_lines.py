"""Count the code lines of each Python module under a directory.

Run from the repository root:

    python3 tools/code_lines.py src/cayleyheat

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of module, class and function docstrings (as the
AST finds them) are not counted.  A statement split over several lines counts
each of its lines.  It prints one line per module, "<path> <count>", in path
order, then "total <count>".
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that make no line code on their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path, help="directory searched for *.py files")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
