"""Public surface: every name a module exports resolves, each is imported from its own module and not from the package,
the Z2 aliases stay in z2compare, and each CLI run loads only the modules its command uses."""

import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import tadic
from helpers import reference_coefficients
from tadic.cyclegen import gen_cycle, random_data
from tadic.vanderput import to_vdp
from tadic.z2compare import MahlerCoefficients, Z2FunctionTable

MODULES = ["tadic", "tadic.gf2ps", "tadic.dynamics", "tadic.vanderput", "tadic.carlitz", "tadic.mahler",
           "tadic.cyclegen", "tadic.z2compare", "tadic.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_package_exports_nothing():
    # each name is declared once, in its own module's __all__, and is imported from there
    assert tadic.__all__ == []
    assert not {"__getattr__", "__dir__", "_EXPORTS", "_HOME", "importlib"} & set(vars(tadic))


# an import from the package itself, by its name or, inside it, relative, and the names it takes, parenthesised or not
_PACKAGE_IMPORT = re.compile(r"\bfrom\s+(?:tadic|\.)\s+import\s+(\([^)]*\)|[^\n;\"]*)")
_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _sources():
    """Every Python file of the library, the tests and the benchmark, the README and the CI workflows."""
    for part in ("src", "tests", "perfbench"):
        yield from sorted((_ROOT / part).rglob("*.py"))
    yield _ROOT / "README.md"
    yield from sorted((_ROOT / ".github").rglob("*.yml"))


def test_nothing_imports_a_name_from_the_package_but_a_submodule():
    submodules = {m.name for m in pkgutil.iter_modules(tadic.__path__)}
    found = {}
    for path in _sources():
        for names in _PACKAGE_IMPORT.findall(path.read_text(encoding="utf-8")):
            for name in names.strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name and name not in submodules:
                    found.setdefault(str(path.relative_to(_ROOT)), []).append(name)
    assert found == {}


# the per-basis names that the gate and the benchmark import: (module, name, the criterion of every basis it is)
BASIS_NAMES = [
    ("vanderput", "check_lipschitz_vdp", "check_lipschitz"),
    ("vanderput", "check_mp_vdp", "check_mp"),
    ("vanderput", "check_ergodic_vdp", "check_ergodic"),
    ("carlitz", "check_lipschitz_carlitz", "check_lipschitz"),
    ("carlitz", "check_ergodic_carlitz", "check_ergodic"),
    ("z2compare", "check_ergodic_z2", "check_ergodic"),
]


@pytest.mark.parametrize("module, name, criterion", BASIS_NAMES, ids=[n for _, n, _ in BASIS_NAMES])
def test_each_basis_name_is_the_criterion_of_every_basis(module, name, criterion):
    # one body per criterion: a per-basis name is the dynamics function itself, not a second path
    home = importlib.import_module("tadic." + module)
    assert name in home.__all__
    assert getattr(home, name) is getattr(importlib.import_module("tadic.dynamics"), criterion)


def _python(*argv):
    """Run the interpreter on the tier-1 path: this checkout's sources first."""
    src = os.path.dirname(os.path.dirname(tadic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    got = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    return got.stdout


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # `python -m tadic` pays for every module that importing the CLI loads;
    # the value types need neither dataclasses (which loads inspect) nor fractions
    probe = "import sys; import tadic.cli; print(' '.join(sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules))))"
    assert _python("-c", probe).split() == []


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, tadic; print(' '.join(sorted(m for m in sys.modules if m.startswith('tadic.') or m == '__future__')))"
    assert _python("-c", probe).split() == []


# `python -m tadic ARGS` in one process, then the exit code, the tadic modules it left loaded and its stderr, as JSON
# on stdout
_FOOTPRINT = """
import io, json, os, runpy, sys
sys.argv, code = ["tadic", *sys.argv[1:]], None
sys.stdout, sys.stderr = open(os.devnull, "w"), io.StringIO()
try:
    runpy.run_module("tadic", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
err, sys.stdout, sys.stderr = sys.stderr.getvalue(), sys.__stdout__, sys.__stderr__
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tadic")), err]))
"""
_BASE = {"tadic", "tadic.cli", "tadic.gf2ps", "tadic.dynamics"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("footprint")
    _, t = gen_cycle(random_data(3, 3))
    z2 = Z2FunctionTable(4, tuple((5 * x + 3) & 15 for x in range(16)))
    docs = {
        "table": t.json_dict(),
        "z2table": z2.json_dict(),
        "vdp": to_vdp(t).json_dict(),
        "z2vdp": to_vdp(z2).json_dict(),
        "carlitz": reference_coefficients(4).json_dict(),
        "mahler": MahlerCoefficients(4, {0: 1, 1: 1}).json_dict(),
    }
    for name, doc in docs.items():
        (tmp / (name + ".json")).write_text(json.dumps(doc))
    return tmp


# every command form of the cli-batch benchmark job, two more cells of the (basis, check) matrix, a Carlitz expansion
# of a Z2 table, and the runs that stop at argparse: (argv, exit, modules past _BASE)
FOOTPRINTS = [
    ("gen-cycle --n 3 --seed 7", 0, {"cyclegen"}),
    ("verify --exhaustive --table {table}", 0, set()),
    ("expand --basis vdp --table {table}", 0, {"vanderput"}),
    ("expand --basis carlitz --table {z2table}", 0, {"carlitz"}),
    ("verify --ring f2t --basis vdp --check ergodic --coeffs {vdp}", 0, {"vanderput"}),
    ("verify --ring z2 --basis vdp --check ergodic --coeffs {z2vdp}", 0, {"vanderput"}),
    ("verify --ring f2t --basis carlitz --check ergodic --coeffs {carlitz}", 0, {"carlitz"}),
    ("verify --ring z2 --basis mahler --check ergodic --coeffs {mahler}", 0, {"mahler"}),
    ("verify --ring f2t --basis carlitz --check mp --coeffs {carlitz}", 0, {"carlitz"}),
    ("verify --ring z2 --basis mahler --check lipschitz --coeffs {mahler}", 0, {"mahler"}),
    ("convert --from carlitz --to vdp --coeffs {carlitz}", 0, {"carlitz", "vanderput"}),
    ("eval --coeffs {carlitz} --x 0x5", 0, {"carlitz"}),
    ("eval --coeffs {vdp} --x 0x5", 0, {"vanderput"}),
    ("keystream --coeffs {vdp} --x0 0x0 --steps 16", 0, {"vanderput"}),
    ("--help", 0, set()),
    ("verify --help", 0, set()),
    ("eval --x 0x1", 2, set()),
    ("frobnicate", 2, set()),
]


@pytest.mark.parametrize("argv, code, extra", FOOTPRINTS, ids=[f[0] for f in FOOTPRINTS])
def test_each_cli_run_loads_only_the_modules_its_command_uses(cli_files, argv, code, extra):
    args = argv.format(**{p.stem: str(p) for p in cli_files.iterdir()}).split()
    got_code, modules, _ = json.loads(_python("-c", _FOOTPRINT, *args))
    assert got_code == code
    assert set(modules) == _BASE | {"tadic." + m for m in extra}


@pytest.mark.parametrize("basis", ["cli", "__main__", "dynamics", "gf2ps", "cyclegen"])
def test_a_basis_tag_is_checked_before_any_import(tmp_path, basis):
    # a tag that names a module but no basis is refused as it stands, with no module imported on its word
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps({"ring": "F2T", "basis": basis, "precision": 2, "coeffs": {"0": "0x1"}}))
    got_code, modules, err = json.loads(_python("-c", _FOOTPRINT, "eval", "--coeffs", str(path), "--x", "0x1"))
    assert got_code == 2
    assert err == "error: unsupported ring/basis ('F2T', %r) in %s\n" % (basis, path)
    assert set(modules) == _BASE


# the Z2 names of generic jobs; the ring travels with the argument, so only z2compare binds them
Z2_ALIASES = ("check_ergodic_z2", "check_mp_z2", "is_transitive_mod_z2", "to_vdp_z2", "vdp_table_z2")


def test_z2_aliases_live_only_in_z2compare():
    z2compare = importlib.import_module("tadic.z2compare")
    assert set(Z2_ALIASES) <= set(z2compare.__all__)
    assert not set(Z2_ALIASES) & set(tadic.__all__)
    for path in pathlib.Path(tadic.__file__).parent.glob("*.py"):
        if path.name != "z2compare.py":
            text = path.read_text()
            assert [n for n in Z2_ALIASES if n in text] == [], path.name
