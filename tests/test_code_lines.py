"""tools/code_lines.py, the counter that every code-line figure quotes, on small sources.

A line counts when a token other than a comment, a newline or an
indentation change lies on it and no docstring covers it.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def _count(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return code_lines.code_lines(path)


@pytest.mark.parametrize("source, want", [
    ("", 0),
    # blank and comment-only lines
    ("\n   \n# a comment\n    # an indented one\n", 0),
    ("x = 1  # a comment after code\n", 1),
    # docstrings of a module, a class, a function and an async function, one line or more
    ('"""A module docstring,\non two lines."""\n', 0),
    ('class A:\n    """A class docstring."""\n', 1),
    ('def f():\n    """A function docstring,\n    on three\n    lines."""\n    return 1\n', 2),
    ('async def g():\n    """An async docstring."""\n    return 1\n', 2),
    # strings that are no docstring: assigned, or not the first statement
    ('text = """a string\nover three\nlines"""\n', 3),
    ('x = 1\n"""an expression after the first statement"""\n', 2),
    ('def f():\n    x = 1\n    """not a docstring,\n    two lines"""\n    return x\n', 5),
    # continuation lines, in brackets or after a backslash
    ("total = (1 +\n         2)\n", 2),
    ("total = 1 + \\\n    2\n", 2),
    ("call(\n    1,\n    2,\n)\n", 4),
])
def test_the_rules(tmp_path, source, want):
    assert _count(tmp_path, source) == want


def test_a_whole_module(tmp_path):
    source = '''"""Module docstring,
over two lines."""

# a comment

import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring
        on two lines.
        """
        text = """not a docstring,
        three lines
        of it"""
        total = (1 +
                 2)
        return math.floor(total) \\
            + len(text)
'''
    # import, class, def, the string's three lines, and two lines each for total and return
    assert _count(tmp_path, source) == 10


def test_main_prints_each_file_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "pkg" / "b.py").write_text("y = (1,\n     2)\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path / "pkg")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "pkg" / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["3", "total"],
    ]
