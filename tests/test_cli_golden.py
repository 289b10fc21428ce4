"""Golden CLI transcript: exit code, stdout and stderr of fixed commands stay byte-identical.

Each case runs in-process through `cli.run` from a temporary working
directory, with relative file names, so that no message holds an absolute
path.  Input files are written first from the plain documents below; a
case with an `out` name saves its stdout as the input of later cases, as a
shell pipeline would.  The cases cover every command, both rings, every
basis, k = 3..5, `--prec`, `--bit`, `--quiet`, `--data` and malformed
inputs.  Argument-parser wording for bad choices differs across Python
versions, so no case depends on it.

Rewrite `tests/data/cli_golden.json` from the code on the path with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from tadic.cli import run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _table(ring, k, f):
    return {"ring": ring, "precision": k, "table": [hex(f(x) & ((1 << k) - 1)) for x in range(1 << k)]}


def _random_table(ring, k, seed):
    rng = random.Random(seed)
    return _table(ring, k, lambda x: rng.getrandbits(k))


def _coeffs(ring, basis, k, coeffs):
    return {"ring": ring, "basis": basis, "precision": k, "coeffs": coeffs}


FILES = {
    # Z2: 5x + 3 is a single cycle at every level; random tables are not even compatible
    **{"z2_affine%d.json" % k: _table("Z2", k, lambda x: 5 * x + 3) for k in (3, 4, 5)},
    "z2_rand4.json": _random_table("Z2", 4, 4),
    "f2t_flip3.json": _table("F2T", 3, lambda x: x ^ 1),
    "f2t_rand4.json": _random_table("F2T", 4, 5),
    # Z2 van der Put: one coefficient below its floor (B_2 odd), and b_0 + b_1 even
    "z2vdp_off.json": _coeffs("Z2", "vanderput", 4, {"0": "0x1", "1": "0x2", "2": "0x1"}),
    "z2vdp_even.json": _coeffs("Z2", "vanderput", 4, {"0": "0x1", "1": "0x1", "2": "0x2", "3": "0x2"}),
    "f2tvdp_off.json": _coeffs("F2T", "vanderput", 3, {"0": "0x1", "1": "0x3", "3": "0x1"}),
    "car_readme.json": _coeffs("F2T", "carlitz", 4, {"0": "0x1", "1": "0x3", "3": "0x4", "7": "0x8"}),
    "car_deep.json": _coeffs("F2T", "carlitz", 3, {"0": "0x1", "9": "0x0"}),
    "car_wide.json": _coeffs("F2T", "carlitz", 40, {"0": "0x1", "1": "0x3", "3": "0x4"}),
    "mahler_ok4.json": _coeffs("Z2", "mahler", 4, {"0": "0x1", "1": "0x5", "4": "0x8"}),
    "mahler_bad4.json": _coeffs("Z2", "mahler", 4, {"0": "0x1", "1": "0x1", "2": "0x2"}),
    "mahler5.json": _coeffs("Z2", "mahler", 5, {"0": "0x3", "1": "0x9", "3": "0x10", "6": "0x8"}),
    "steer.json": {"n": 2, "levels": {"1": "01", "2": "0110"}},
    # malformed documents
    "array.json": [1, 2],
    "wrong_ring.json": _coeffs("Q", "vanderput", 3, {}),
    "str_prec.json": {"ring": "F2T", "basis": "carlitz", "precision": "12", "coeffs": {}},
    "vdp_cap.json": _coeffs("F2T", "vanderput", 25, {}),
    "vdp_index.json": _coeffs("Z2", "vanderput", 4, {"16": "0x0"}),
    "lead_zero.json": _coeffs("F2T", "carlitz", 3, {"03": "0x1"}),
    "signed_hex.json": _coeffs("Z2", "mahler", 3, {"0": "+f"}),
    "short_table.json": {"ring": "F2T", "precision": 3, "table": ["0x1", "0x0"]},
    "bad_bits.json": {"n": 1, "levels": {"1": "02"}},
}
TEXT_FILES = {
    "broken.json": "{not json",
    "dup.json": '{"ring": "F2T", "ring": "Z2", "precision": 3, "table": []}',
}

V = ["verify", "--ring"]
CASES = [
    # gen-cycle builds the F2T tables that later cases expand
    {"argv": ["gen-cycle", "--n", "2", "--seed", "1"], "out": "cyc3.json"},
    {"argv": ["gen-cycle", "--n", "3", "--seed", "2"], "out": "cyc4.json"},
    {"argv": ["gen-cycle", "--n", "4", "--seed", "3"], "out": "cyc5.json"},
    {"argv": ["gen-cycle", "--n", "0"]},
    {"argv": ["gen-cycle", "--n", "4", "--quiet"]},
    {"argv": ["gen-cycle", "--data", "steer.json"]},
    {"argv": ["gen-cycle", "--data", "steer.json", "--n", "3"]},
    {"argv": ["gen-cycle"]},
    {"argv": ["gen-cycle", "--n", "40"]},
    {"argv": ["gen-cycle", "--n", "-1"]},
    {"argv": ["gen-cycle", "--data", "bad_bits.json"]},
    # brute force, both rings
    *({"argv": ["verify", "--exhaustive", "--table", name]} for name in (
        "cyc3.json", "cyc4.json", "cyc5.json", "z2_affine3.json", "z2_affine4.json", "z2_affine5.json",
        "f2t_flip3.json", "f2t_rand4.json", "z2_rand4.json")),
    {"argv": ["verify", "--exhaustive", "--table", "cyc4.json", "--quiet"]},
    {"argv": ["verify", "--exhaustive"]},
    # expansions
    *({"argv": ["expand", "--basis", "vdp", "--table", "cyc%d.json" % k], "out": "vdp%d.json" % k} for k in (3, 4, 5)),
    *({"argv": ["expand", "--basis", "carlitz", "--table", "cyc%d.json" % k], "out": "car%d.json" % k} for k in (3, 4, 5)),
    *({"argv": ["expand", "--basis", "vdp", "--table", "z2_affine%d.json" % k], "out": "z2vdp%d.json" % k}
      for k in (3, 4, 5)),
    {"argv": ["expand", "--basis", "vdp", "--table", "z2_rand4.json"], "out": "z2vdp_rand4.json"},
    {"argv": ["expand", "--basis", "vdp", "--table", "f2t_rand4.json"], "out": "vdp_rand4.json"},
    {"argv": ["expand", "--basis", "carlitz", "--table", "z2_affine3.json"]},
    # coefficient criteria: F2T van der Put and Carlitz
    *({"argv": V + ["f2t", "--basis", "vdp", "--check", check, "--coeffs", name]}
      for name in ("vdp3.json", "vdp4.json", "vdp5.json", "vdp_rand4.json", "f2tvdp_off.json")
      for check in ("lipschitz", "mp", "ergodic")),
    *({"argv": V + ["f2t", "--basis", "carlitz", "--check", check, "--coeffs", name]}
      for name in ("car3.json", "car5.json", "car_readme.json", "car_deep.json", "car_wide.json")
      for check in ("lipschitz", "ergodic")),
    {"argv": V + ["f2t", "--basis", "carlitz", "--check", "mp", "--coeffs", "car4.json"]},
    {"argv": V + ["f2t", "--basis", "vdp", "--check", "ergodic", "--coeffs", "vdp4.json", "--quiet"]},
    # coefficient criteria: Z2 van der Put and Mahler
    *({"argv": V + ["z2", "--basis", "vdp", "--check", check, "--coeffs", name]}
      for name in ("z2vdp3.json", "z2vdp4.json", "z2vdp5.json", "z2vdp_rand4.json", "z2vdp_off.json",
                   "z2vdp_even.json")
      for check in ("lipschitz", "mp", "ergodic")),
    *({"argv": V + ["z2", "--basis", "mahler", "--check", "ergodic", "--coeffs", name]}
      for name in ("mahler_ok4.json", "mahler_bad4.json", "mahler5.json")),
    {"argv": V + ["z2", "--basis", "mahler", "--check", "mp", "--coeffs", "mahler5.json"]},
    {"argv": V + ["z2", "--basis", "vdp", "--check", "mp", "--coeffs", "vdp4.json"]},
    {"argv": V + ["f2t", "--basis", "vdp", "--check", "mp"]},
    # evaluation
    {"argv": ["eval", "--coeffs", "vdp4.json", "--x", "0x5"]},
    {"argv": ["eval", "--coeffs", "vdp5.json", "--x", "0x1f", "--prec", "3"]},
    {"argv": ["eval", "--coeffs", "vdp5.json", "--x", "0x6", "--prec", "3"]},
    {"argv": ["eval", "--coeffs", "car4.json", "--x", "0xa"]},
    {"argv": ["eval", "--coeffs", "car5.json", "--x", "3", "--prec", "2"]},
    {"argv": ["eval", "--coeffs", "car_wide.json", "--x", "0xfedcba9876"]},
    {"argv": ["eval", "--coeffs", "z2vdp4.json", "--x", "0X7"]},
    {"argv": ["eval", "--coeffs", "mahler5.json", "--x", "0x1b"]},
    {"argv": ["eval", "--coeffs", "mahler5.json", "--x", "0xb", "--prec", "4", "--quiet"]},
    {"argv": ["eval", "--coeffs", "vdp4.json", "--x", "0x10"]},
    {"argv": ["eval", "--coeffs", "vdp4.json", "--x", "0x1", "--prec", "0"]},
    {"argv": ["eval", "--coeffs", "car4.json", "--x", "+f"]},
    # conversion
    {"argv": ["convert", "--from", "carlitz", "--to", "vdp", "--coeffs", "car4.json"]},
    {"argv": ["convert", "--from", "vdp", "--to", "carlitz", "--coeffs", "vdp5.json"]},
    {"argv": ["convert", "--from", "vdp", "--to", "vdp", "--coeffs", "vdp5.json"]},
    {"argv": ["convert", "--from", "vdp", "--to", "carlitz", "--coeffs", "z2vdp4.json"]},
    {"argv": ["convert", "--from", "carlitz", "--to", "vdp", "--coeffs", "car_wide.json"]},
    # keystreams
    {"argv": ["keystream", "--coeffs", "vdp3.json", "--x0", "0x0", "--steps", "10"]},
    {"argv": ["keystream", "--coeffs", "car4.json", "--x0", "0x1", "--steps", "20", "--bit", "0"]},
    {"argv": ["keystream", "--coeffs", "z2vdp4.json", "--x0", "0x3", "--steps", "16", "--bit", "3"]},
    {"argv": ["keystream", "--coeffs", "mahler5.json", "--x0", "0x2", "--steps", "8"]},
    {"argv": ["keystream", "--coeffs", "car5.json", "--x0", "0x1", "--steps", "6", "--prec", "2"]},
    {"argv": ["keystream", "--coeffs", "car_wide.json", "--x0", "0x1", "--steps", "5", "--prec", "4"]},
    {"argv": ["keystream", "--coeffs", "vdp5.json", "--x0", "0x0", "--steps", "50", "--quiet"]},
    {"argv": ["keystream", "--coeffs", "vdp3.json", "--x0", "0x0", "--steps", "0"]},
    {"argv": ["keystream", "--coeffs", "vdp3.json", "--x0", "0x0", "--steps", "4", "--bit", "3"]},
    {"argv": ["keystream", "--coeffs", "vdp3.json", "--x0", "0x8", "--steps", "4"]},
    {"argv": ["keystream", "--coeffs", "car_wide.json", "--x0", "0x1", "--steps", "4"]},
    # malformed files and usage
    {"argv": ["verify", "--exhaustive", "--table", "missing.json"]},
    {"argv": ["verify", "--exhaustive", "--table", "broken.json"]},
    {"argv": ["verify", "--exhaustive", "--table", "dup.json"]},
    {"argv": ["verify", "--exhaustive", "--table", "array.json"]},
    {"argv": ["verify", "--exhaustive", "--table", "short_table.json"]},
    {"argv": ["eval", "--coeffs", "wrong_ring.json", "--x", "0x1"]},
    {"argv": ["eval", "--coeffs", "str_prec.json", "--x", "0x1"]},
    {"argv": ["eval", "--coeffs", "vdp_cap.json", "--x", "0x1"]},
    {"argv": ["eval", "--coeffs", "vdp_index.json", "--x", "0x1"]},
    {"argv": ["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic", "--coeffs", "lead_zero.json"]},
    {"argv": ["eval", "--coeffs", "signed_hex.json", "--x", "0x1"]},
    {"argv": ["expand", "--basis", "vdp"]},
    {"argv": ["eval", "--coeffs", "vdp4.json", "--x", "0x1", "--bit", "2"]},
    {"argv": []},
]


def transcript():
    """Run every case from a fresh temporary directory; one {argv, exit, stdout, stderr} per case."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in FILES.items():
                Path(name).write_text(json.dumps(doc))
            for name, text in TEXT_FILES.items():
                Path(name).write_text(text)
            for case in CASES:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = run(list(case["argv"]))
                if "out" in case:
                    Path(case["out"]).write_text(stdout.getvalue())
                out.append({"argv": case["argv"], "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
        finally:
            os.chdir(cwd)
    return out


@pytest.fixture(scope="module")
def runs():
    return transcript()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_holds_every_case(golden):
    assert [g["argv"] for g in golden] == [c["argv"] for c in CASES]


@pytest.mark.parametrize("i", range(len(CASES)), ids=[" ".join(c["argv"]) or "no-args" for c in CASES])
def test_cli_output_matches_golden(runs, golden, i):
    assert runs[i] == golden[i]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcript(), indent=1) + "\n")
    sys.stdout.write("wrote %d cases to %s\n" % (len(CASES), GOLDEN))
