"""The layers the benchmark calls, and the spans that time them.

`Api` exposes, for each tadic module, exactly the names in its `__all__`
(minus `CarlitzContext`, which the library is due to drop), and the CLI
as `python -m tadic` with the checkout's `src` on `PYTHONPATH`.  Given a
`Tracer`, every function call through it becomes a span named
`<module>.<function>` (or `cli.<command>`), kept in memory and tagged with
the id of the op that made it.  Spans are recorded at the benchmark's
side of each boundary; calls the library makes internally are not split.
"""

import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("gf2ps", "dynamics", "vanderput", "carlitz", "cyclegen", "z2compare")
HIDDEN = frozenset({"CarlitzContext"})
CLI_TIMEOUT_S = 120


class SourceMissing(Exception):
    """The checkout holds no tadic sources to benchmark."""


class CliCrash(Exception):
    """A CLI run broke its contract: an exit code outside {0, 1}, or a traceback."""


def use_checkout_source():
    """Put the checkout's `src` first on sys.path and import tadic from it."""
    if not (SRC / "tadic" / "__init__.py").is_file():
        raise SourceMissing("no tadic package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    tadic = importlib.import_module("tadic")
    if SRC not in Path(tadic.__file__).resolve().parents:
        raise SourceMissing("tadic was imported from %s, not from %s" % (tadic.__file__, SRC))
    return tadic


def cli_env():
    """Environment for CLI children: the checkout's sources first on the path."""
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def run_cli(argv, env):
    """Run `python -m tadic argv` to completion; return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "tadic", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
        raise CliCrash("tadic %s exited %d: %s" % (" ".join(argv), proc.returncode, proc.stderr.strip()[-300:]))
    return proc.returncode, proc.stdout


class Tracer:
    """Spans kept in memory as (name, start, end, op id, raised)."""

    def __init__(self):
        self.spans = []
        self.op_id = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            self.spans.append((name, start, perf_counter(), self.op_id, raised))


class Api:
    """Public surface of every tadic module, plus the CLI, optionally traced.

    `bytes_in` and `bytes_out` count the JSON file bytes CLI runs read
    (`--table` and `--coeffs` arguments) and the stdout bytes they write.
    Given a `gauge` (a function that times the reference loop), each CLI
    run is also appended to `cli_runs` as (wall time, gauge reading before,
    gauge reading after); consecutive runs share the reading between them.
    """

    def __init__(self, tracer=None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge
        self.cli_runs = []
        self.bytes_in = self.bytes_out = 0
        self._env = cli_env()
        for mod_name in MODULES:
            module = importlib.import_module("tadic." + mod_name)
            names = {}
            for name in module.__all__:
                if name in HIDDEN:
                    continue
                obj = getattr(module, name)
                if tracer is not None and inspect.isfunction(obj):
                    obj = functools.partial(tracer.call, "%s.%s" % (mod_name, name), obj)
                names[name] = obj
            setattr(self, mod_name, SimpleNamespace(**names))

    def cli(self, command, *argv):
        """Run one CLI command; `command` names its span.  Returns (exit code, stdout)."""
        self.bytes_in += sum(os.path.getsize(argv[i + 1]) for i, a in enumerate(argv) if a in ("--table", "--coeffs"))
        if self.gauge is not None:
            before = self.cli_runs[-1][2] if self.cli_runs else self.gauge()
        start = perf_counter()
        try:
            if self.tracer is None:
                code, out = run_cli(argv, self._env)
            else:
                code, out = self.tracer.call("cli." + command, run_cli, argv, self._env)
        finally:
            if self.gauge is not None:
                self.cli_runs.append((perf_counter() - start, before, self.gauge()))
        self.bytes_out += len(out)
        return code, out
