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
# seconds allowed to one pytest run: the longest, the unmutated run of every named test, takes about 15 s
_TIMEOUT = 300

Mutant = namedtuple("Mutant", "name file snippet replacement tests equivalent", defaults=(None,))

_VDP = "src/tadic/vanderput.py"
_DYN = "src/tadic/dynamics.py"
_CYC = "src/tadic/cyclegen.py"
_CAR = "src/tadic/carlitz.py"
_MAH = "src/tadic/mahler.py"
_GF2 = "src/tadic/gf2ps.py"
_SMALL = "tests/test_dynamics.py::test_the_sparse_scan_equals_the_table_oracles_on_every_small_set"
_ENTRY = "tests/test_dynamics.py::test_bijectivity_and_transitivity_equal_the_entry_oracles_on_samples"

MUTANTS = [
    # van der Put's clauses
    Mutant("vdp-unit-compare", _VDP, "return band(d) & mask == mask", "return band(d) & mask != 0",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    Mutant("vdp-lift-m2-bit", _VDP, "return bool(low & 2)", "return bool(low & 1)",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
    Mutant("vdp-lift-m3-target", _VDP, "(2 if m == 3 else self.lift)", "(0 if m == 3 else self.lift)",
           [_SMALL + "[VdpCoefficients-vdp_table]"]),
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
    # Z2's arithmetic, declared once on its table type
    Mutant("z2-table-add-xor", _DYN, '"Z2", operator.add, operator.sub', '"Z2", operator.xor, operator.sub',
           ["tests/test_z2compare.py::test_from_vdp_z2_adds_with_carries", _SMALL + "[Z2VdpCoefficients-vdp_table]"]),
    Mutant("z2-table-sub-add", _DYN, '"Z2", operator.add, operator.sub', '"Z2", operator.add, operator.add',
           ["tests/test_z2compare.py::test_to_vdp_z2_affine_and_identity",
            "tests/test_z2compare.py::test_vdp_z2_roundtrip_on_random_compatible_sets"]),
    # a lift clause broken only from level 15 up: the relations kill it with no second implementation
    Mutant("vdp-lift-from-15", _VDP, "return total >> (m - 2) & 3 == (2 if m == 3 else self.lift)",
           "return m < 15 and total >> (m - 2) & 3 == (2 if m == 3 else self.lift)",
           ["tests/test_relations.py::test_the_inverse_and_conjugates_of_a_cycle_are_ergodic_at_every_level"]),
    # the kernels: the van der Put sweep both ways, the Carlitz butterfly's spill mask, the table oracles, and
    # the Mahler running sum
    Mutant("vdp-sweep-synthesis-sub", _VDP, "w = table.add(w, (w & ((1 << cut) - 1)) << cut) & full",
           "w = table.sub(w, (w & ((1 << cut) - 1)) << cut) & full",
           ["tests/test_z2compare.py::test_vdp_z2_roundtrip_on_random_compatible_sets"]),
    Mutant("vdp-sweep-expansion-unbiased", _VDP, "w = table.sub(w | tile(n, n, width), s) & full",
           "w = table.sub(w, s) & full",
           ["tests/test_z2compare.py::test_to_vdp_z2_affine_and_identity",
            "tests/test_z2compare.py::test_vdp_z2_roundtrip_on_random_compatible_sets"]),
    Mutant("carlitz-spill-unmasked", _CAR, "upper ^= (u & keep) >> d", "upper ^= u >> d",
           ["tests/test_carlitz.py::test_packed_butterfly_equals_products_on_all_ones_slots"]),
    # the builder's one held entry: read whatever the key, and never dropped
    Mutant("carlitz-held-stale", _CAR, "held = _HELD.get((k, size))", "held = next(iter(_HELD.values()), None)",
           ["tests/test_carlitz.py::test_round_trips_at_alternating_precisions_equal_products"]),
    Mutant("carlitz-held-never-cleared", _CAR, "        _HELD.clear()\n", "",
           ["tests/test_carlitz.py::test_the_butterfly_holds_the_masks_of_one_precision"]),
    Mutant("compatible-band-alone", _DYN, "seen |= fold(band ^ lower, 1 << d, width, operator.or_)",
           "seen = fold(band ^ lower, 1 << d, width, operator.or_)",
           ["tests/test_dynamics.py::test_one_pass_compatibility_equals_the_definition_on_random_tables"]),
    Mutant("first-return-any-return", _DYN, "return p[m] & mask == 0 < p[m - 1] & mask", "return p[m] & mask == 0",
           [_ENTRY]),
    Mutant("bijective-onto-always", _DYN, "onto = onto or ok", "onto = True", [_ENTRY]),
    Mutant("mahler-running-sum-short", _MAH, "for j in range(k):", "for j in range(k - 1):",
           ["tests/test_z2compare.py::test_mahler_table_equals_exact_binomials_on_every_small_set"]),
    # the Carlitz point evaluator, E's guard digits, and the spill rule of `_constants`, the butterfly's one builder
    Mutant("carlitz-eval-or", _CAR, "acc ^= v", "acc |= v",
           ["tests/test_carlitz.py::test_from_carlitz_equals_the_exact_sum_at_word_precision"]),
    # E_0 has k - 1 guard digits: at k = 1 one fewer cuts its only digit; from k = 2 up it changes no value
    Mutant("carlitz-E-guard-short", _CAR, "p = 2 * k - 1", "p = 2 * k - 2",
           ["tests/test_carlitz.py::test_dense_and_sparse_table_paths_agree"]),
    Mutant("carlitz-spill-late", _CAR, "first = (size << 3) - k + 1", "first = (size << 3) - k + 2",
           ["tests/test_carlitz.py::test_packed_butterfly_equals_products_on_all_ones_slots"]),
    # masking one shift that fits as well leaves every value right, since what it cuts lands at T^k or above; the
    # level-shift test kills it, because it reads the held levels and pins `first` as the least shift that would spill
    Mutant("carlitz-spill-early", _CAR, "first = (size << 3) - k + 1", "first = (size << 3) - k",
           ["tests/test_carlitz.py::test_level_shifts_are_the_set_bits_of_the_exact_E_values"]),
    # a spill mask one bit wide leaves every value right too: the extra kept bit, k - s, lands at T^k after the shift
    # up by s, still below bit W >= k + 1 of its slot, and the final cut removes it, since each factor takes only the
    # low k bits; the level-shift test kills it, because it pins each held mask as the low k - s bits of every slot
    Mutant("carlitz-spill-keep-wide", _CAR, "keep = {s: tile((1 << (k - s)) - 1, 1 << k, size)",
           "keep = {s: tile((1 << (k - s + 1)) - 1, 1 << k, size)",
           ["tests/test_carlitz.py::test_level_shifts_are_the_set_bits_of_the_exact_E_values"]),
    # the Mahler columns
    Mutant("mahler-column-carries", _MAH, "repeat(i.bit_count())", "repeat(i.bit_count() + 1)",
           ["tests/test_z2compare.py::test_mahler_table_cost_follows_the_stored_indices_near_the_top"]),
    # the cycle generator: the steering bits, the lifted half and random_data's bit order
    Mutant("gen-cycle-steer-low", _CYC, "w ^= pack(level, bits)[0] << k", "w ^= pack(level, bits)[0] << (k - 1)",
           ["tests/test_cyclegen.py::test_packed_recurrence_equals_the_entry_oracle_on_every_small_steering_set"]),
    Mutant("gen-cycle-lift-unflipped", _CYC, "w |= (w ^ tile(half, half, width))", "w |= w",
           ["tests/test_cyclegen.py::test_packed_recurrence_equals_the_entry_oracle_on_every_small_steering_set"]),
    Mutant("random-data-unreversed", _CYC, '"0%db" % (1 << k))[::-1]', '"0%db" % (1 << k))',
           ["tests/test_cyclegen.py::test_random_data_matches_the_shift_oracle"]),
    # the budget
    Mutant("gen-cycle-budget", _CYC, "    check_budget(bits)\n", "",
           ["tests/test_dynamics.py::test_a_table_past_the_budget_is_refused_before_it_is_allocated"]),
    Mutant("budget-off", _DYN, "if k > TABLE_BUDGET:", "if False:",
           ["tests/test_dynamics.py::test_a_table_past_the_budget_is_refused_before_it_is_allocated"]),
    # the integer rule, which every size and point goes through: a float within the range, an integer at its top,
    # and a bool kept as it came
    Mutant("integer-rule-any-number", _GF2, 'if not (hasattr(x, "__index__") and lo <= x <= hi):',
           "if not lo <= x <= hi:",
           ["tests/test_packed_records.py::test_a_non_integer_precision_or_depth_is_refused"]),
    Mutant("integer-rule-top-exclusive", _GF2, "lo <= x <= hi)", "lo <= x < hi)",
           ["tests/test_packed_records.py::test_a_bool_precision_or_depth_is_still_an_integer"]),
    Mutant("integer-rule-keeps-the-raw-value", _GF2, "return x.__index__()", "return x",
           ["tests/test_packed_records.py::test_a_bool_size_is_kept_as_the_int_and_its_file_reads_back"]),
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
