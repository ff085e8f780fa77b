"""``tools/code_lines.py`` counts code lines by the ROADMAP's measure."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line a code line


# a comment line
def f(x):
    """Function docstring."""
    total = (
        x
        + 1
    )
    return total


class C:
    """Class docstring
    spanning lines."""

    y = """a string
    that is no docstring"""
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, def, the four lines of the multi-line assignment, return,
    # class, and the two lines of the string assigned to y.
    assert code_lines.count_code_lines(SOURCE) == 10
