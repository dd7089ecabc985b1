"""Print the number of code lines in ``src/matchlab``.

A code line holds a token that is not a comment and is not part of a
module, class or function docstring.  Blank lines and comment-only lines
do not count.

Usage::

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(source: str) -> set[int]:
    """The lines that hold a token other than a comment or layout."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def code_lines(root: Path) -> int:
    total = 0
    for path in root.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        total += len(token_lines(source) - docstring_lines(source))
    return total


if __name__ == "__main__":
    print(code_lines(Path(__file__).resolve().parent.parent / "src" / "matchlab"))
