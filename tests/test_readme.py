"""README's library example runs as printed: each line it prints is the `#` comment on its print line."""

import contextlib
import io
import pathlib

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading):
    """The first ```python block after the heading line."""
    text = _README.read_text(encoding="utf-8").split("\n## %s\n" % heading, 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_prints_what_its_comments_say():
    code = _block("Library in five lines")
    # a comment gives the printed line, or the printed line, a colon and a gloss
    wanted = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(_README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(wanted) == 3
    for got, comment in zip(printed, wanted):
        assert comment == got or comment.startswith(got + ": ")
