"""``tools/code_lines.py`` counts the lines that hold code: no docstring,
comment or blank line, and every line of any other string."""

import importlib.util
import runpy
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module
docstring."""

import os  # a comment
# a comment


class A:
    """Class docstring."""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return """not a
        docstring"""
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, def and the two lines of the returned string
    assert code_lines.code_lines(_SOURCE) == 5


def test_prints_each_module_and_the_total(capsys):
    runpy.run_path(str(_PATH), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in rows] == [*sorted(p.name for p in code_lines.SRC.glob("*.py")),
                                          "total"]
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
