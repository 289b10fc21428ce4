"""Mutation checks: each mutant breaks one line of src/ in a copy of the tree, and the tests named for it must fail.

A mutant is a file under src/, a snippet that occurs in it exactly once,
its replacement, and the tests that kill it.  A mutant that no test can
kill, because it changes no verdict, is listed with `equivalent`, the
argument for it, and is not run.  Run from anywhere, with only the
standard library and pytest:

    python tests/mutants/run.py [--workdir DIR]

The tree (src/, tests/, pyproject.toml) is copied into a new directory
under --workdir (the system's temporary directory by default), and the
tests run there with that copy's src/ first on the path; the checkout is
never written.  The named tests are first run on the unmutated copy, and
must pass there.  Exit status: 0 when every mutant is killed, 1 when one
survives or a snippet does not occur exactly once, 2 when the copy does
not import its own src/ or the unmutated tests fail.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
# seconds allowed to one pytest run: the longest, the unmutated run of every named test, takes about 10 s
_TIMEOUT = 300

Mutant = namedtuple("Mutant", "name file snippet replacement tests equivalent", defaults=(None,))

_VDP = "src/tadic/vanderput.py"
_DYN = "src/tadic/dynamics.py"
_CLAUSES = "tests/test_dynamics.py::test_each_type_states_the_same_clauses_on_both_bodies"
_SMALL = "tests/test_dynamics.py::test_the_sparse_scan_equals_the_table_oracles_on_every_small_set"

MUTANTS = [
    # van der Put's clauses
    Mutant("vdp-unit-compare", _VDP, "return band(d) & mask == mask", "return band(d) & mask != 0",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    Mutant("vdp-lift-m2-bit", _VDP, "return bool(low & 2)", "return bool(low & 1)",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    Mutant("vdp-lift-m3-target", _VDP, "(2 if m == 3 else self.lift)", "(0 if m == 3 else self.lift)",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    Mutant("vdp-band-sum-cut", _VDP,
           "fold(band(m - 2), 1 << (m - 2), width, add, tile((1 << k) - 1, 1 << (m - 3), width))",
           "fold(band(m - 2), 1 << (m - 2), width, add)",
           [_CLAUSES + "[Z2VdpCoefficients]"]),
    Mutant("vdp-start-swap", _VDP, "return (bool(low & 1), bool(slot(0) & 1)), unit, lift",
           "return (bool(slot(0) & 1), bool(low & 1)), unit, lift",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    # Carlitz's and Mahler's clauses, the default
    Mutant("default-lift-digit", _DYN, "slot((1 << (m - 1)) - 1) >> (m - 1) & 1 == self.lift",
           "slot((1 << (m - 1)) - 1) >> m & 1 == self.lift",
           [_SMALL + "[CarlitzCoefficients-carlitz_table]"]),
    Mutant("default-unit-bit", _DYN, "lambda d: not ors.get(d, 0) >> d & 1", "lambda d: not ors.get(d, 0) >> (d + 1) & 1",
           [_SMALL + "[MahlerCoefficients-mahler_table]"]),
    Mutant("default-start-swap", _DYN, "return ((bool(slot(1) & 1), bool(slot(0) & 1)),",
           "return ((bool(slot(0) & 1), bool(slot(1) & 1)),",
           [_SMALL + "[CarlitzCoefficients-carlitz_table]"]),
]


def snippet_counts(root=ROOT):
    """{mutant name: occurrences of its snippet in its file}; each must be 1."""
    return {m.name: (root / m.file).read_text().count(m.snippet) for m in MUTANTS}


def _env(tree):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))


def _pytest(tree, tests):
    """Run pytest on `tests` in the copied tree, that tree's src/ first on the path: (exit code, seconds)."""
    env, start = _env(tree), time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="where to copy the tree (default: the system's temporary directory)")
    args = parser.parse_args(argv)

    bad = {name: n for name, n in snippet_counts().items() if n != 1}
    for name, n in bad.items():
        print("%s: snippet occurs %d times, not once" % (name, n))
    if bad:
        return 1

    tree = pathlib.Path(tempfile.mkdtemp(prefix="tadic-mutants-", dir=args.workdir))
    try:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        # the copy, not an installed tadic, is what the tests import
        where = subprocess.run([sys.executable, "-c", "import tadic; print(tadic.__file__)"], cwd=tree, env=_env(tree),
                               capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(tree / "src")):
            print("the copy's tests import tadic from %r" % where)
            return 2
        code, took = _pytest(tree, sorted({t for m in MUTANTS for t in m.tests}))
        print("unmutated: exit %s in %.1f s" % (code, took))
        if code != 0:
            return 2
        survivors = []
        for m in MUTANTS:
            if m.equivalent:
                print("%s: equivalent, not run: %s" % (m.name, m.equivalent))
                continue
            path = tree / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            try:
                code, took = _pytest(tree, m.tests)
            finally:
                path.write_text(original)
            # pytest exits 1 when a test fails; a timeout, an error or a pass lets the mutant survive
            killed = code == 1
            print("%s: %s (exit %s in %.1f s)" % (m.name, "killed" if killed else "SURVIVED", code, took))
            if not killed:
                survivors.append(m.name)
        return 1 if survivors else 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
