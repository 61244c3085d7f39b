"""Count the code lines of Python source files.

A line counts when it holds a token other than a comment, a newline or
indentation, and lies outside every docstring. A docstring is the first
string statement of a module, class or function, or any bare string
statement in a module or class body (an attribute docstring). A token that
spans lines, such as a triple-quoted string, puts each of its lines in.

Usage: python tools/code_lines.py FILE...

Prints each file's count and then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _is_string(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` cover."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            strings = [stmt for stmt in node.body if _is_string(stmt)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            strings = node.body[:1] if _is_string(node.body[0]) else []
        else:
            continue
        for stmt in strings:
            lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` count as code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    if not paths:
        sys.stderr.write("usage: python tools/code_lines.py FILE...\n")
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
