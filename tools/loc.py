"""Code-line count of each ``src/lprime`` module, and the total.

    python3 tools/loc.py

A code line is a line that holds a token other than a comment, a
newline, an indent or dedent and the end marker, outside the docstrings
of modules, classes and functions; a token over several lines counts on
each of them.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lprime"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12} {count:6,}")
    print(f"{'total':12} {total:6,}")


if __name__ == "__main__":
    main()
