"""tools/src_size.py counts wc -l lines and code lines: no blank, comment-only
or docstring line is code, and a statement's continuation lines are."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment-only line
def f(x):
    """Docstring."""
    text = """not a docstring,
    but a string over two lines"""
    return (x +
            1)


class C:
    """Docstring."""

    value = "a string expression that is not the first statement"
'''


def test_counts_lines_and_code_lines():
    # Code: import, def, two lines of text, two of return, class, value.
    assert src_size.count(SOURCE) == (SOURCE.count("\n"), 8)


def test_counts_every_module_of_the_package(capsys):
    assert src_size.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    package = TOOL.parent.parent / "src" / "depthpocs"
    assert [row.split()[0] for row in rows[1:-1]] == sorted(p.name for p in package.glob("*.py"))
    lines, code = map(int, rows[-1].split()[1:])
    assert lines == sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
    assert 0 < code < lines
