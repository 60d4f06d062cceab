#!/usr/bin/env python3
"""Code lines per module of ``src/defreg``: the lines of each module that
are not blank, comment or docstring, and their total.

A line counts if it holds a token other than a comment, a newline or an
indent; a docstring, the string that opens a module, class or function
(found by the AST), is not code, whatever lines it spans.

Example:
    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "defreg"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, comment or docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    counts = [(f.name, code_lines(f.read_text())) for f in sorted(PACKAGE.glob("*.py"))]
    width = max(len("total"), *(len(name) for name, _ in counts))
    print(f"# code lines of src/defreg's {len(counts)} modules: not blank, comment or docstring")
    print(f"{'module':{width}s}  lines")
    for name, n in counts:
        print(f"{name:{width}s}  {n:5d}")
    print(f"{'total':{width}s}  {sum(n for _, n in counts):5d}")


if __name__ == "__main__":
    main()
