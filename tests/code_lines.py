"""Source size: `wc -l` and code lines per module of src/tadic, and their totals.

A code line holds a token that is not a comment, not part of a docstring
and not layout (a newline, an indent or a dedent): blank lines, comment
lines and docstring lines do not count.  Tokens come from `tokenize`, and
the docstrings, the first string statement of a module, class or
function, from `ast`.  Run from anywhere, with only the standard library:

    python tests/code_lines.py [FILE ...]

With no file it reports every module of src/tadic.
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of `source` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and not (tok.type == tokenize.STRING and tok.start[0] in docs):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    paths = [pathlib.Path(p) for p in (sys.argv[1:] if argv is None else argv)] or sorted((ROOT / "src" / "tadic").glob("*.py"))
    total_wc = total_code = 0
    print("%6s %6s  %s" % ("wc -l", "code", "module"))
    for path in paths:
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print("%6d %6d  %s" % (wc, code, path.name))
    print("%6d %6d  total" % (total_wc, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
