"""The source-size script tests/code_lines.py: what it counts as a code line, and its report."""

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).parent / "code_lines.py"

_SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """A function docstring."""
    y = (x +
         1)
    return y


def g(): """A docstring on its def line."""


class C:
    """A class docstring,

    with a blank line inside."""

    s = """an assigned string
    is code"""
    """a string that is not the first statement is code"""
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def f, the two lines of y, return, def g, class C, the two lines of s, and the string after them
    assert _script().code_lines(_SNIPPET) == 10
    assert _script().code_lines("") == 0


def test_the_report_gives_wc_and_code_lines_per_file_and_their_total(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)
    assert _script().main([str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    wc = _SNIPPET.count("\n")
    assert rows == [["wc", "-l", "code", "module"], [str(wc), "10", "snippet.py"], [str(wc), "10", "total"]]
