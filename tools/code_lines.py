"""Count the code lines of each ``src/ncsym`` module and their total.

A code line is a physical line that holds part of a statement: blank lines,
comment-only lines and the lines of docstrings (the string literal that opens
a module, class or function body) are not counted.  Every line that a
multi-line statement spans counts, its continuation lines included.

Usage: ``python tools/code_lines.py``.  Prints one ``<lines>  <module>`` row
per module, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source):
    """Number of code lines in the Python ``source`` text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main():
    root = Path(__file__).resolve().parent.parent / "src" / "ncsym"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
