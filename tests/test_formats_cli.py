"""Front end: flag handling, file formats, verdict plumbing, exit codes."""

import argparse
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

from helpers import (
    NON_CANONICAL_HEX,
    binom_mod2,
    break_floor,
    random_ergodic_vdp,
    random_mahler_ergodic,
    random_z2_ergodic,
    reference_coefficients,
    reference_table,
)
from tadic import cli, dynamics
from tadic.cli import run
from tadic.carlitz import CarlitzCoefficients, from_carlitz, to_carlitz
from tadic.cyclegen import CycleData, gen_cycle, random_data
from tadic.dynamics import Coefficients, FunctionTable, check_ergodic, check_lipschitz, check_mp, restrict, trajectory
from tadic.vanderput import VdpCoefficients, check_mp_vdp, to_vdp, vdp_table
from tadic.z2compare import MahlerCoefficients, Z2FunctionTable, Z2VdpCoefficients, check_mp_z2, to_vdp_z2


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    ref4 = reference_table(4)
    z2_plus_one = Z2FunctionTable(4, tuple((x + 1) & 15 for x in range(16)))
    return {
        "car4": _write(tmp_path, "car4.json", reference_coefficients(4).json_dict()),
        "vdp4": _write(tmp_path, "vdp4.json", to_vdp(ref4).json_dict()),
        "table3": _write(tmp_path, "table3.json", reference_table(3).json_dict()),
        "ident3": _write(tmp_path, "ident3.json", FunctionTable(3, tuple(range(8))).json_dict()),
        "z2table": _write(tmp_path, "z2table.json", z2_plus_one.json_dict()),
        "z2vdp": _write(tmp_path, "z2vdp.json", to_vdp_z2(z2_plus_one).json_dict()),
        "mahler_ok": _write(tmp_path, "mahler_ok.json", {
            "ring": "Z2", "basis": "mahler", "precision": 4, "coeffs": {"0": "0x1", "1": "0x1"}}),
        "mahler_bad": _write(tmp_path, "mahler_bad.json", {
            "ring": "Z2", "basis": "mahler", "precision": 4, "coeffs": {"0": "0x1", "1": "0x1", "2": "0x2"}}),
        "tmp": tmp_path,
    }


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_the_formats_are_the_four_coefficient_types():
    assert dynamics.FORMATS == {("F2T", "vanderput"): VdpCoefficients, ("Z2", "vanderput"): Z2VdpCoefficients,
                                ("F2T", "carlitz"): CarlitzCoefficients, ("Z2", "mahler"): MahlerCoefficients}


@pytest.mark.parametrize("key", sorted(dynamics.FORMATS), ids="/".join)
def test_every_format_row_resolves_to_its_type_and_functions(key):
    # a missing kernel tag fails here, not only in the commands that use the row
    cls = dynamics.FORMATS[key]
    assert (cls.ring, cls.basis) == key and cli._format(*key) is cls
    # every basis tag names the module of its type and kernels
    assert cls.__module__ == "tadic." + key[1]
    kernels = (cls.expand, cls.evaluate, cls.synthesize)
    assert [f is None for f in kernels] == [key == ("Z2", "mahler"), False, False]
    assert all(callable(f) and f.__module__ == cls.__module__ for f in kernels if f is not None)


@pytest.mark.parametrize("key", sorted(dynamics.FORMATS), ids="/".join)
def test_every_format_reads_its_table_type_and_arithmetic_off_its_ring(key):
    # a ring's table type and its addition are declared once, on the table type: no coefficient type declares them
    cls = dynamics.FORMATS[key]
    assert cls.table_type is dynamics.TABLES[cls.ring]
    assert type(cls.synthesize(cls(3, {0: 1, 1: 3, 5: 6}))) is cls.table_type
    assert not {"add", "sub", "table_type"} & vars(cls).keys()


def test_expand_and_convert_offer_exactly_the_bases_with_an_expansion():
    # the three basis modules are imported above, so FORMATS holds every type; one that gains an `expand` tag gains
    # its flags in expand and convert too
    flags = {cli._FLAG_OF[basis] for (_, basis), cls in dynamics.FORMATS.items() if cls.expand is not None}
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {(name, option): action.choices for name in ("expand", "convert") for action in commands[name]._actions
               for option in action.option_strings if option in ("--basis", "--from", "--to")}
    assert options.keys() == {("expand", "--basis"), ("convert", "--from"), ("convert", "--to")}
    for choices in options.values():
        assert len(choices) == len(flags) and set(choices) == flags

def test_only_a_subclass_that_declares_a_tag_is_filed():
    before = dict(dynamics.FORMATS)

    class Untagged(CarlitzCoefficients):
        pass

    assert dynamics.FORMATS == before and dynamics.FORMATS[("F2T", "carlitz")] is CarlitzCoefficients
    try:
        class Probe(CarlitzCoefficients):
            basis = "probe"

        assert dynamics.FORMATS[("F2T", "probe")] is Probe
        # a known ring with an unknown basis tag is still no file format: the basis is checked before FORMATS
        assert cli._format("F2T", "probe") is None
    finally:
        dynamics.FORMATS.pop(("F2T", "probe"), None)
    assert dynamics.FORMATS == before


@pytest.mark.parametrize("base, tags", [(VdpCoefficients, {"ring": "F2T"}), (VdpCoefficients, {"ring": "Z2"}),
                                        (CarlitzCoefficients, {"basis": "carlitz"}),
                                        (Z2VdpCoefficients, {"ring": "Z2", "basis": "mahler"})])
def test_a_second_type_for_a_filed_format_is_refused(base, tags):
    # re-declaring a filed (ring, basis), even with the same values, would take over every file and to_vdp of it
    before = dict(dynamics.FORMATS)
    owner = before[tags.get("ring", base.ring), tags.get("basis", base.basis)]
    with pytest.raises(TypeError, match="is %s's format" % owner.__name__):
        type("Hijack", (base,), tags)
    assert dynamics.FORMATS == before
    assert type(to_vdp(reference_table(3))) is VdpCoefficients


def test_verify_exhaustive_accepts_the_reference_table(files, capsys):
    assert run(["verify", "--exhaustive", "--table", files["table3"]]) == 0
    report = _json_out(capsys)
    assert report["verdict"] is True
    assert report["transitive"] == {"1": True, "2": True, "3": True}


def test_verify_exhaustive_rejects_the_identity_table(files, capsys):
    assert run(["verify", "--exhaustive", "--table", files["ident3"]]) == 1
    assert _json_out(capsys)["verdict"] is False


def test_verify_exhaustive_works_on_the_2adic_ring(files, capsys):
    assert run(["verify", "--exhaustive", "--table", files["z2table"]]) == 0
    assert _json_out(capsys)["ring"] == "z2"


def test_verify_ergodic_coefficients(files, capsys):
    assert run(["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic",
                "--coeffs", files["car4"]]) == 0
    report = _json_out(capsys)
    assert report["verdict"] is True
    assert report["levels"] == {"1": True, "2": True, "3": True, "4": None}
    assert run(["verify", "--ring", "f2t", "--basis", "vdp", "--check", "ergodic",
                "--coeffs", files["vdp4"], "--quiet"]) == 0


def test_verify_ergodic_rejects_the_identity(files, capsys):
    ident = _write(files["tmp"], "ident_car.json",
                   CarlitzCoefficients(3, {1: 1}).json_dict())
    assert run(["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic",
                "--coeffs", ident]) == 1
    assert _json_out(capsys)["verdict"] is False


def test_verify_mp_and_lipschitz_combos(files, capsys):
    assert run(["verify", "--ring", "f2t", "--basis", "vdp", "--check", "mp",
                "--coeffs", files["vdp4"], "--quiet"]) == 0
    assert run(["verify", "--ring", "f2t", "--basis", "vdp", "--check", "lipschitz",
                "--coeffs", files["vdp4"], "--quiet"]) == 0
    assert run(["verify", "--ring", "z2", "--basis", "vdp", "--check", "mp",
                "--coeffs", files["z2vdp"], "--quiet"]) == 0
    assert run(["verify", "--ring", "z2", "--basis", "vdp", "--check", "ergodic",
                "--coeffs", files["z2vdp"], "--quiet"]) == 0
    assert run(["verify", "--ring", "z2", "--basis", "mahler", "--check", "ergodic",
                "--coeffs", files["mahler_ok"], "--quiet"]) == 0
    assert run(["verify", "--ring", "z2", "--basis", "mahler", "--check", "ergodic",
                "--coeffs", files["mahler_bad"], "--quiet"]) == 1
    capsys.readouterr()


def test_z2_vdp_files_take_the_lipschitz_check(files, capsys):
    argv = ["verify", "--ring", "z2", "--basis", "vdp", "--check", "lipschitz", "--coeffs"]
    assert run(argv + [files["z2vdp"]]) == 0
    assert _json_out(capsys)["verdict"] is True
    # x + 1 has B_m = 2^deg m; halving B_5 puts one coefficient below its floor 2^2
    B = list(to_vdp_z2(Z2FunctionTable(4, tuple((x + 1) & 15 for x in range(16)))).B)
    B[5] = 2
    off = _write(files["tmp"], "z2off.json", Z2VdpCoefficients(4, B).json_dict())
    assert run(argv + [off]) == 1
    assert _json_out(capsys)["verdict"] is False


def test_z2_mp_reports_carry_the_levels(files, capsys):
    sets = [to_vdp_z2(Z2FunctionTable(4, tuple((x + 1) & 15 for x in range(16)))),
            Z2VdpCoefficients(4, (1, 1) + (2, 2) + (4,) * 4 + (8,) * 8),
            Z2VdpCoefficients(4, (1, 2) + (2, 6) + (4, 12, 4, 8) + (8,) * 8)]
    for i, c in enumerate(sets):
        path = _write(files["tmp"], "z2mp%d.json" % i, c.json_dict())
        code = run(["verify", "--ring", "z2", "--basis", "vdp", "--check", "mp", "--coeffs", path])
        report = _json_out(capsys)
        assert report["levels"] == check_mp_vdp(c).json_dict()
        assert code == (0 if check_mp_z2(c) else 1)
        assert report["verdict"] is check_mp_z2(c)
    assert [check_mp_z2(c) for c in sets] == [True, False, False]


@pytest.mark.parametrize("ring, basis", [("f2t", "vdp"), ("z2", "vdp"), ("f2t", "carlitz"), ("z2", "mahler")])
def test_well_formed_files_get_a_verdict_on_or_off_their_floor(files, capsys, ring, basis):
    """Every row takes every --check: exit 0 or 1 on a well-formed file, 1-Lipschitz or not; 2 is for malformed input."""
    rng = random.Random(17)
    build = random_z2_ergodic if ring == "z2" else random_ergodic_vdp
    off, seen = 0, set()
    for k in range(2, 7):
        for flips in (0, 1, 1, 3):
            if basis == "mahler":
                # a set that passes every Mahler clause, then `flips` indices i >= 2 pushed below ord floor(log2 i)
                a = dict(random_mahler_ergodic(rng, k, (1 << k) - 1).a)
                for _ in range(flips):
                    i = rng.randrange(2, 1 << k)
                    a[i] = a.get(i, 0) | 1 << rng.randrange(i.bit_length() - 1)
                c = MahlerCoefficients(k, a)
            else:
                c = break_floor(rng, build(rng, k), flips)
            if basis == "carlitz":
                c = to_carlitz(vdp_table(c))
            path = _write(files["tmp"], "floor.json", c.json_dict())
            off += not check_lipschitz(c)
            for check, criterion in (("lipschitz", check_lipschitz), ("mp", check_mp), ("ergodic", check_ergodic)):
                code = run(["verify", "--ring", ring, "--basis", basis, "--check", check, "--coeffs", path])
                out, err = capsys.readouterr()
                assert code in (0, 1) and err == ""
                report = json.loads(out)
                assert report["verdict"] is (code == 0)
                seen.add((check, code))
                if check == "lipschitz":
                    assert report["verdict"] is criterion(c) and "levels" not in report
                else:
                    assert report["levels"] == criterion(c).json_dict()
                    if not check_lipschitz(c):
                        assert code == 1
    assert off >= 10
    assert seen == {(check, code) for check in ("lipschitz", "mp", "ergodic") for code in (0, 1)}


def test_verify_ignores_stored_zeros_past_the_table(files, capsys):
    # a_9 = 0 with 9 >= 2^3 refutes nothing, so the file is 1-Lipschitz and the report names no index
    path = _write(files["tmp"], "deep.json", {
        "ring": "F2T", "basis": "carlitz", "precision": 3,
        "coeffs": {"0": "0x1", "9": "0x0"}})
    assert run(["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "lipschitz",
                "--coeffs", path]) == 0
    report = _json_out(capsys)
    assert report["verdict"] is True
    assert "undetermined_indices" not in report


def test_verify_usage_errors(files, capsys):
    assert run(["verify", "--exhaustive"]) == 2
    assert run(["verify", "--ring", "f2t", "--basis", "vdp", "--check", "mp"]) == 2
    assert run(["verify", "--ring", "f2t", "--basis", "vdp", "--check", "mp",
                "--coeffs", files["car4"]]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_data_errors_exit_two(files, capsys):
    missing = str(files["tmp"] / "nope.json")
    assert run(["verify", "--exhaustive", "--table", missing]) == 2
    broken = files["tmp"] / "broken.json"
    broken.write_text("{not json")
    assert run(["verify", "--exhaustive", "--table", str(broken)]) == 2
    for line in capsys.readouterr().err.strip().splitlines():
        assert line.startswith("error:")


def test_unknown_flags_and_commands_exit_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["verify", "--nonsense"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_expand_emits_loadable_coefficients(files, capsys):
    assert run(["expand", "--basis", "vdp", "--table", files["table3"]]) == 0
    got = VdpCoefficients.from_json_dict(_json_out(capsys))
    assert got == to_vdp(reference_table(3))
    assert run(["expand", "--basis", "carlitz", "--table", files["table3"]]) == 0
    got = CarlitzCoefficients.from_json_dict(_json_out(capsys))
    assert got == reference_coefficients(3)
    assert run(["expand", "--basis", "vdp", "--table", files["z2table"]]) == 0
    assert _json_out(capsys)["ring"] == "Z2"
    # a Carlitz expansion reads a Z2 table as its bit map, and is F2T
    assert run(["expand", "--basis", "carlitz", "--table", files["z2table"]]) == 0
    got = CarlitzCoefficients.from_json_dict(_json_out(capsys))
    assert got == to_carlitz(FunctionTable(4, tuple((x + 1) & 15 for x in range(16))))


def test_eval_reads_any_coefficient_kind(files, capsys):
    assert run(["eval", "--coeffs", files["car4"], "--x", "0x2"]) == 0
    assert _json_out(capsys)["value"] == "0xf"
    assert run(["eval", "--coeffs", files["vdp4"], "--x", "0x2"]) == 0
    assert _json_out(capsys)["value"] == "0xf"
    assert run(["eval", "--coeffs", files["z2vdp"], "--x", "0x7"]) == 0
    assert _json_out(capsys)["value"] == "0x8"
    assert run(["eval", "--coeffs", files["mahler_ok"], "--x", "0x3"]) == 0
    assert _json_out(capsys)["value"] == "0x4"


def test_eval_honors_prec_restriction(files, capsys):
    assert run(["eval", "--coeffs", files["car4"], "--x", "0x2", "--prec", "2"]) == 0
    report = _json_out(capsys)
    assert report["precision"] == 2
    assert report["value"] == "0x3"
    assert run(["eval", "--coeffs", files["car4"], "--x", "0x10"]) == 2
    assert run(["eval", "--coeffs", files["car4"], "--x", "0x1", "--prec", "9"]) == 2
    capsys.readouterr()


def test_convert_roundtrips_between_bases(files, capsys):
    assert run(["convert", "--from", "vdp", "--to", "carlitz", "--coeffs", files["vdp4"]]) == 0
    got = CarlitzCoefficients.from_json_dict(_json_out(capsys))
    assert got == reference_coefficients(4)
    assert run(["convert", "--from", "carlitz", "--to", "vdp", "--coeffs", files["car4"]]) == 0
    got = VdpCoefficients.from_json_dict(_json_out(capsys))
    assert got == to_vdp(reference_table(4))
    assert run(["convert", "--from", "vdp", "--to", "vdp", "--coeffs", files["vdp4"]]) == 2
    assert run(["convert", "--from", "carlitz", "--to", "vdp", "--coeffs", files["vdp4"]]) == 2
    capsys.readouterr()


# Z2 tables of every kind of verdict: single cycles, an mp map with no cycle (5x + 2 fixes 0 mod 2), a steered
# ergodic set's table, that set pushed off its floor, and a random table
_Z2_TABLES = {
    "affine-cycle": lambda rng: Z2FunctionTable(5, tuple((5 * x + 3) & 31 for x in range(32))),
    "affine-mp": lambda rng: Z2FunctionTable(5, tuple((5 * x + 2) & 31 for x in range(32))),
    "steered": lambda rng: vdp_table(random_z2_ergodic(rng, 6)),
    "off-floor": lambda rng: vdp_table(break_floor(rng, random_z2_ergodic(rng, 6))),
    "random": lambda rng: Z2FunctionTable(4, tuple(rng.randrange(16) for _ in range(16))),
}


def _exhaustive_levels(report):
    """The mp and ergodic levels a `verify --exhaustive` report gives: compatible at every level up to m, then
    bijective or transitive at m; a criterion leaves the top ergodic level undecided unless it fails."""
    through = list(itertools.accumulate(report["compatible"].values(), lambda a, b: a and b))
    mp, ergodic = ({m: c and v for (m, v), c in zip(report[key].items(), through)} for key in ("bijective", "transitive"))
    top = str(len(through))
    return mp, {**ergodic, top: None if ergodic[top] else False}


@pytest.mark.parametrize("route", ["expand", "convert"])
@pytest.mark.parametrize("name", sorted(_Z2_TABLES))
def test_a_z2_table_gives_an_f2t_carlitz_set_with_its_exhaustive_levels(files, capsys, name, route):
    table = _write(files["tmp"], "z2.json", _Z2_TABLES[name](random.Random(name)).json_dict())
    assert run(["verify", "--exhaustive", "--table", table]) in (0, 1)
    want = dict(zip(("mp", "ergodic"), _exhaustive_levels(_json_out(capsys))))
    if route == "expand":
        assert run(["expand", "--basis", "carlitz", "--table", table]) == 0
    else:
        assert run(["expand", "--basis", "vdp", "--table", table]) == 0
        vdp = _write(files["tmp"], "z2vdp_out.json", _json_out(capsys))
        assert run(["convert", "--from", "vdp", "--to", "carlitz", "--coeffs", vdp]) == 0
    out = _json_out(capsys)
    assert (out["ring"], out["basis"]) == ("F2T", "carlitz")
    path = _write(files["tmp"], "z2car.json", out)
    for check, levels in want.items():
        code = run(["verify", "--ring", "f2t", "--basis", "carlitz", "--check", check, "--coeffs", path])
        report = _json_out(capsys)
        assert report["levels"] == levels
        assert code == (1 if False in levels.values() else 0)


def test_gen_cycle_matches_the_library(files, capsys):
    assert run(["gen-cycle", "--n", "2", "--seed", "5"]) == 0
    report = _json_out(capsys)
    seq, table = gen_cycle(random_data(5, 2))
    assert FunctionTable.from_json_dict(report) == table
    assert report["sequence"] == [hex(x) for x in seq]
    data_path = _write(files["tmp"], "data.json", report["data"])
    assert run(["gen-cycle", "--data", data_path]) == 0
    assert FunctionTable.from_json_dict(_json_out(capsys)) == table
    assert run(["gen-cycle", "--data", data_path, "--n", "3"]) == 2
    assert run(["gen-cycle"]) == 2
    assert run(["gen-cycle", "--n", "-1"]) == 2
    capsys.readouterr()


def test_gen_cycle_quiet_builds_no_report(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("--quiet built a report")

    monkeypatch.setattr(FunctionTable, "json_dict", refuse)
    assert run(["gen-cycle", "--n", "12", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


def test_keystream_emits_the_orbit(files, capsys):
    assert run(["keystream", "--coeffs", files["car4"], "--x0", "0x0",
                "--prec", "2", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["0x0", "0x1", "0x2", "0x3", "0x0"]


def test_keystream_bit_extraction(files, capsys):
    assert run(["keystream", "--coeffs", files["car4"], "--x0", "0x0",
                "--prec", "2", "--steps", "4", "--bit", "0"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "0", "1"]


def test_keystream_works_from_any_basis(files, capsys):
    assert run(["keystream", "--coeffs", files["vdp4"], "--x0", "0x0", "--steps", "3"]) == 0
    assert capsys.readouterr().out.split() == ["0x0", "0x1", "0x2"]
    assert run(["keystream", "--coeffs", files["z2vdp"], "--x0", "0x0", "--steps", "3"]) == 0
    assert capsys.readouterr().out.split() == ["0x0", "0x1", "0x2"]
    assert run(["keystream", "--coeffs", files["mahler_ok"], "--x0", "0x0", "--steps", "3"]) == 0
    assert capsys.readouterr().out.split() == ["0x0", "0x1", "0x2"]


@pytest.fixture
def cycle12(files):
    """A single-cycle table at k = 12 and its van der Put file."""
    _, t = gen_cycle(random_data(5, 11))
    return t, _write(files["tmp"], "cycle12.json", to_vdp(t).json_dict())


def _orbit_lines(t, x0, steps, bit=None):
    """The keystream output of the orbit, one residue (or bit) per line, from dynamics.trajectory."""
    out = []
    for x in itertools.islice(trajectory(t, x0), steps):
        out.append("%d\n" % ((x >> bit) & 1) if bit is not None else hex(x) + "\n")
    return "".join(out)


# one block less one, one block, one block and one line, and several blocks past the period
@pytest.mark.parametrize("steps", [1, 4095, 4096, 4097, 10000])
def test_keystream_writes_the_orbit_in_blocks_byte_for_byte(cycle12, capsys, steps):
    t, path = cycle12
    assert run(["keystream", "--coeffs", path, "--x0", "0x5a3", "--steps", str(steps)]) == 0
    assert capsys.readouterr() == (_orbit_lines(t, 0x5A3, steps), "")


@pytest.mark.parametrize("bit", [0, 7, 11])
def test_keystream_blocks_of_one_bit_match_the_orbit(cycle12, capsys, bit):
    t, path = cycle12
    assert run(["keystream", "--coeffs", path, "--x0", "0x0", "--steps", "4097", "--bit", str(bit)]) == 0
    assert capsys.readouterr() == (_orbit_lines(t, 0, 4097, bit), "")


def test_keystream_blocks_at_a_lower_precision(cycle12, capsys):
    t, path = cycle12
    low = vdp_table(restrict(to_vdp(t), 9))
    assert run(["keystream", "--coeffs", path, "--x0", "0x1f", "--prec", "9", "--steps", "5000"]) == 0
    assert capsys.readouterr() == (_orbit_lines(low, 0x1F, 5000), "")


def test_keystream_quiet_walks_the_whole_orbit_and_writes_nothing(cycle12, capsys, monkeypatch):
    walked = []

    def counted(t, x0):
        for x in trajectory(t, x0):
            walked.append(x)
            yield x

    monkeypatch.setattr("tadic.dynamics.trajectory", counted)
    assert run(["keystream", "--coeffs", cycle12[1], "--x0", "0x0", "--steps", "10000", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    assert len(walked) == 10000


def test_keystream_memory_is_bounded_by_the_block(cycle12, capsys):
    peaks = []
    for steps in (1 << 13, 1 << 16):
        tracemalloc.start()
        try:
            assert run(["keystream", "--coeffs", cycle12[1], "--x0", "0x0", "--steps", str(steps)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        peaks.append(peak)
    # eight times the orbit, not eight times the memory
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("value", NON_CANONICAL_HEX)
def test_point_flags_refuse_non_canonical_hex(files, capsys, value):
    for argv in (["eval", "--x", value], ["keystream", "--x0", value, "--steps", "1"]):
        assert run(argv + ["--coeffs", files["car4"]]) == 2
        assert _one_error_line(capsys)


def test_keystream_flag_validation(files, capsys):
    assert run(["keystream", "--coeffs", files["car4"], "--x0", "0x0", "--steps", "0"]) == 2
    assert run(["keystream", "--coeffs", files["car4"], "--x0", "0x99", "--steps", "1"]) == 2
    assert run(["keystream", "--coeffs", files["car4"], "--x0", "0x0",
                "--prec", "2", "--steps", "1", "--bit", "2"]) == 2
    capsys.readouterr()


def test_quiet_suppresses_stdout(files, capsys):
    assert run(["verify", "--exhaustive", "--table", files["table3"], "--quiet"]) == 0
    out, _ = capsys.readouterr()
    assert out == ""


def test_installed_entry_points(files):
    cmd = [sys.executable, "-m", "tadic", "verify", "--exhaustive",
           "--table", files["table3"], "--quiet"]
    assert subprocess.run(cmd).returncode == 0
    script = shutil.which("tadic")
    if script:
        got = subprocess.run([script, "keystream", "--coeffs", files["car4"],
                              "--x0", "0x0", "--prec", "2", "--steps", "5"],
                             capture_output=True, text=True)
        assert got.returncode == 0
        assert got.stdout.split() == ["0x0", "0x1", "0x2", "0x3", "0x0"]


def _one_error_line(capsys):
    out, err = capsys.readouterr()
    return out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("ring", ["F2T", "Z2"])
@pytest.mark.parametrize("key", ["-1", "4", "9"])
@pytest.mark.parametrize("command", [
    ["eval", "--x", "0x3"],
    ["keystream", "--x0", "0x0", "--steps", "2"],
    ["verify", "--basis", "vdp", "--check", "ergodic"],
])
def test_vdp_keys_outside_the_precision_exit_two(files, capsys, ring, key, command):
    path = _write(files["tmp"], "keys.json", {
        "ring": ring, "basis": "vanderput", "precision": 2, "coeffs": {key: "0x1"}})
    if command[0] == "verify":
        command = command + ["--ring", ring.lower()]
    assert run(command + ["--coeffs", path]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--exhaustive", "--table"],
    ["expand", "--basis", "vdp", "--table"],
    ["eval", "--x", "0x0", "--coeffs"],
    ["keystream", "--x0", "0x0", "--steps", "1", "--coeffs"],
    ["verify", "--ring", "z2", "--basis", "vdp", "--check", "mp", "--coeffs"],
    ["convert", "--from", "vdp", "--to", "carlitz", "--coeffs"],
    ["gen-cycle", "--data"],
])
def test_top_level_json_list_exits_two(files, capsys, argv):
    path = _write(files["tmp"], "list.json", [{"ring": "F2T"}, 1])
    assert run(argv + [path]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("ring, basis", [("F2T", "vanderput"), ("F2T", "carlitz"), ("Z2", "vanderput"), ("Z2", "mahler")])
def test_coeffs_that_are_not_an_object_exit_two(files, capsys, ring, basis):
    path = _write(files["tmp"], "coeffs_list.json", {"ring": ring, "basis": basis, "precision": 2, "coeffs": ["0x1"]})
    assert run(["eval", "--x", "0x1", "--coeffs", path]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("tag", [["F2T"], {"F2T": "carlitz"}], ids=["list", "object"])
@pytest.mark.parametrize("field, argv", [
    ("ring", ["eval", "--x", "0x1", "--coeffs"]),
    ("basis", ["eval", "--x", "0x1", "--coeffs"]),
    ("ring", ["verify", "--exhaustive", "--table"]),
], ids=["coeffs-ring", "coeffs-basis", "table-ring"])
def test_tags_that_are_not_strings_exit_two_naming_the_file(files, capsys, tag, field, argv):
    # an unhashable tag once reached the kind lookup and exited with only "unhashable type: 'list'"
    if argv[0] == "eval":
        doc = {"ring": "F2T", "basis": "carlitz", "precision": 2, "coeffs": {"0": "0x1"}}
    else:
        doc = FunctionTable(2, (1, 2, 3, 0)).json_dict()
    doc[field] = tag
    path = _write(files["tmp"], "tag.json", doc)
    assert run(argv + [path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unsupported ring") and err.count("\n") == 1
    assert path in err and "Traceback" not in err


def _deep_files(tmp):
    # precision-40 files: a Carlitz set needs no table, a vdp set is one
    return {
        "carlitz": _write(tmp, "deep_car.json", reference_coefficients(40).json_dict()),
        "vdp": _write(tmp, "deep_vdp.json", {"ring": "F2T", "basis": "vanderput", "precision": 40, "coeffs": {"0": "0x1"}}),
    }


@pytest.mark.parametrize("basis, argv", [
    ("carlitz", ["keystream", "--x0", "0x0", "--steps", "2"]),
    ("carlitz", ["convert", "--from", "carlitz", "--to", "vdp"]),
    ("vdp", ["eval", "--x", "0x3"]),
    ("vdp", ["keystream", "--x0", "0x0", "--steps", "2", "--prec", "4"]),
    ("vdp", ["verify", "--ring", "f2t", "--basis", "vdp", "--check", "ergodic"]),
    ("vdp", ["convert", "--from", "vdp", "--to", "carlitz"]),
])
def test_tables_over_the_size_budget_exit_two(files, capsys, basis, argv):
    path = _deep_files(files["tmp"])[basis]
    assert run(argv + ["--coeffs", path]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("k", [40, 64])
def test_table_free_commands_have_no_size_budget(files, capsys, k):
    c = reference_coefficients(k)
    path = _write(files["tmp"], "car%d.json" % k, c.json_dict())
    x = (1 << k) - 3
    assert run(["eval", "--coeffs", path, "--x", hex(x)]) == 0
    assert _json_out(capsys)["value"] == hex(from_carlitz(c, x))
    assert run(["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic", "--coeffs", path]) == 0
    assert _json_out(capsys)["levels"][str(k)] is None
    assert run(["keystream", "--coeffs", path, "--x0", "0x0", "--prec", "2", "--steps", "5"]) == 0
    assert capsys.readouterr().out.split() == ["0x0", "0x1", "0x2", "0x3", "0x0"]


def test_malformed_input_prints_no_traceback(files):
    path = _write(files["tmp"], "neg.json", {
        "ring": "Z2", "basis": "vanderput", "precision": 2, "coeffs": {"-1": "0x1"}})
    deep = _deep_files(files["tmp"])
    nested = files["tmp"] / "nested.json"
    nested.write_text("[" * 200000)
    infinite = files["tmp"] / "infinite.json"
    infinite.write_text('{"ring": "F2T", "basis": "carlitz", "precision": Infinity, "coeffs": {}}')
    for argv in (["eval", "--x", "0x3", "--coeffs", path],
                 ["eval", "--x", "0x3", "--coeffs", deep["vdp"]],
                 ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs", deep["carlitz"]],
                 ["convert", "--from", "carlitz", "--to", "vdp", "--coeffs", deep["carlitz"]],
                 ["verify", "--exhaustive", "--table", str(nested)],
                 ["eval", "--x", "0x0", "--coeffs", str(infinite)]):
        got = subprocess.run([sys.executable, "-m", "tadic", *argv], capture_output=True, text=True)
        assert got.returncode == 2
        assert got.stdout == ""
        assert got.stderr.startswith("error:") and got.stderr.count("\n") == 1


def test_a_reader_that_closes_the_pipe_early_gets_one_error_line(cycle12):
    # each output is far past a pipe's buffer, so the command is still writing when the reader leaves after one
    # line; unbuffered, each of keystream's blocks is one write
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    for argv in (["gen-cycle", "--n", "12"], ["keystream", "--coeffs", cycle12[1], "--x0", "0x0", "--steps", "262144"]):
        proc = subprocess.Popen([sys.executable, "-m", "tadic", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        assert proc.stdout.readline() in (b"{\n", b"0x0\n")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


# JSON texts that are not integers: +-Infinity and 1e400 read as floats, the rest as a float, a bool, a string
_NOT_INTEGERS = ["Infinity", "-Infinity", "1e400", "3.7", "true", '"12"']
_HEADERS = {
    "table": '{"ring": "F2T", "precision": %s, "table": ["0x1", "0x0"]}',
    "z2table": '{"ring": "Z2", "precision": %s, "table": ["0x1", "0x0"]}',
    "vdp": '{"ring": "F2T", "basis": "vanderput", "precision": %s, "coeffs": {"0": "0x1", "1": "0x0"}}',
    "z2vdp": '{"ring": "Z2", "basis": "vanderput", "precision": %s, "coeffs": {"0": "0x1", "1": "0x0"}}',
    "carlitz": '{"ring": "F2T", "basis": "carlitz", "precision": %s, "coeffs": {"0": "0x1", "1": "0x1"}}',
    "mahler": '{"ring": "Z2", "basis": "mahler", "precision": %s, "coeffs": {"0": "0x1", "1": "0x1"}}',
    "data": '{"n": %s, "levels": {"1": "01"}}',
}
_READERS = {
    "table": FunctionTable, "z2table": Z2FunctionTable, "vdp": VdpCoefficients, "z2vdp": Z2VdpCoefficients,
    "carlitz": CarlitzCoefficients, "mahler": MahlerCoefficients, "data": CycleData,
}
# every command that reads each kind of file, with the file's flag last
_READING_COMMANDS = {
    "table": [["verify", "--exhaustive", "--table"], ["expand", "--basis", "vdp", "--table"]],
    "z2table": [["verify", "--exhaustive", "--table"], ["expand", "--basis", "vdp", "--table"]],
    "vdp": [["eval", "--x", "0x0", "--coeffs"], ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs"],
            ["verify", "--ring", "f2t", "--basis", "vdp", "--check", "mp", "--coeffs"],
            ["convert", "--from", "vdp", "--to", "carlitz", "--coeffs"]],
    "z2vdp": [["eval", "--x", "0x0", "--coeffs"], ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs"],
              ["verify", "--ring", "z2", "--basis", "vdp", "--check", "mp", "--coeffs"]],
    "carlitz": [["eval", "--x", "0x0", "--coeffs"], ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs"],
                ["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic", "--coeffs"],
                ["convert", "--from", "carlitz", "--to", "vdp", "--coeffs"]],
    "mahler": [["eval", "--x", "0x0", "--coeffs"], ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs"],
               ["verify", "--ring", "z2", "--basis", "mahler", "--check", "ergodic", "--coeffs"]],
    "data": [["gen-cycle", "--data"]],
}


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize("kind", sorted(_HEADERS))
def test_readers_take_only_json_integer_precisions(kind, value):
    with pytest.raises(ValueError, match="must be a JSON integer"):
        _READERS[kind].from_json_dict(json.loads(_HEADERS[kind] % value))


@pytest.mark.parametrize("value", _NOT_INTEGERS)
@pytest.mark.parametrize("kind", sorted(_HEADERS))
def test_commands_refuse_non_integer_precisions(files, capsys, kind, value):
    path = files["tmp"] / (kind + ".json")
    for argv in _READING_COMMANDS[kind]:
        path.write_text(_HEADERS[kind] % "1")
        assert run(argv + [str(path), "--quiet"]) in (0, 1)  # the same file with "1" is well formed
        path.write_text(_HEADERS[kind] % value)
        assert run(argv + [str(path)]) == 2
        assert _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic"],
    ["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "lipschitz"],
    ["eval", "--x", "0x1"],
])
def test_table_free_commands_cap_the_precision(files, capsys, argv):
    coeffs = {"0": "0x1", "1": "0x3", "3": "0x4", "7": "0x8"}
    path = _write(files["tmp"], "huge.json", {"ring": "F2T", "basis": "carlitz", "precision": 200000000, "coeffs": coeffs})
    start = time.perf_counter()
    assert run(argv + ["--coeffs", path]) == 2
    assert time.perf_counter() - start < 1
    assert _one_error_line(capsys)
    for k, codes in ((1024, (0, 1)), (1025, (2,))):
        path = _write(files["tmp"], "edge.json", {"ring": "F2T", "basis": "carlitz", "precision": k, "coeffs": coeffs})
        assert run(argv + ["--coeffs", path, "--quiet"]) in codes
    capsys.readouterr()


def test_gen_cycle_checks_the_table_budget(files, capsys):
    assert run(["gen-cycle", "--n", "40"]) == 2
    assert _one_error_line(capsys)
    path = _write(files["tmp"], "data40.json", {"n": 40, "levels": {}})
    assert run(["gen-cycle", "--data", path]) == 2
    assert _one_error_line(capsys)
    assert run(["gen-cycle", "--n", "3", "--quiet"]) == 0


def test_keystream_streams_its_output(files):
    # the orbit is printed as it is walked, so memory does not grow with --steps
    argv = ["keystream", "--coeffs", files["car4"], "--x0", "0x0", "--steps", "1000000", "--quiet"]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mahler_eval_decides_at_points_past_exact_binomials(files, capsys):
    """f = 1 + C(x, 2^100) at precision 1024: C(2^101, 2^100) has no exact int to build, and is checked by Pascal's rule."""
    def value(path, x):
        assert run(["eval", "--coeffs", path, "--x", hex(x)]) == 0
        return int(_json_out(capsys)["value"], 16)

    def mahler_file(name, i):
        return _write(files["tmp"], name, {
            "ring": "Z2", "basis": "mahler", "precision": 1024, "coeffs": {"0": "0x1", str(i): "0x1"}})

    i, x = 2**100, 2**101
    path, below = mahler_file("mahler_huge.json", i), mahler_file("mahler_below.json", i - 1)
    got = value(path, x) - 1
    assert got == (value(path, x - 1) - 1 + value(below, x - 1) - 1) % (1 << 1024)
    # Lucas: C(x, i) mod 2 is 1 iff the bits of i are among the bits of x
    assert got & 1 == binom_mod2(x, i) == 0
    assert value(path, x - 1) - 1 & 1 == binom_mod2(x - 1, i) == 1
    assert run(["eval", "--coeffs", path, "--x", hex(2**99)]) == 0
    assert _json_out(capsys)["value"] == "0x1"


def test_mahler_eval_cost_follows_the_precision_not_the_point(files, capsys):
    # C(2^23, 2^22) has about 8.4 million bits, which take minutes to compute exactly
    path = _write(files["tmp"], "mahler_deep.json", {
        "ring": "Z2", "basis": "mahler", "precision": 1024, "coeffs": {"0": "0x1", str(2**22): "0x1"}})
    start = time.perf_counter()
    assert run(["eval", "--coeffs", path, "--x", hex(2**23)]) == 0
    assert time.perf_counter() - start < 2
    # C(2^23, 2^22) = 2 mod 4: one carry when adding 2^22 to itself, times an odd part
    assert int(_json_out(capsys)["value"], 16) & 3 == 3


# Each format's reader owns its document rules: one well-formed document per
# reader, and the name of the body it reads
_DOCS = {
    "table": ({"ring": "F2T", "precision": 2, "table": ["0x1", "0x2", "0x3", "0x0"]}, "table"),
    "z2table": ({"ring": "Z2", "precision": 2, "table": ["0x1", "0x2", "0x3", "0x0"]}, "table"),
    "vdp": ({"ring": "F2T", "basis": "vanderput", "precision": 2, "coeffs": {"0": "0x1", "1": "0x2", "3": "0x2"}}, "coeffs"),
    "z2vdp": ({"ring": "Z2", "basis": "vanderput", "precision": 2, "coeffs": {"0": "0x1", "1": "0x2", "3": "0x2"}}, "coeffs"),
    "carlitz": ({"ring": "F2T", "basis": "carlitz", "precision": 2, "coeffs": {"0": "0x1", "1": "0x1", "3": "0x2"}}, "coeffs"),
    "mahler": ({"ring": "Z2", "basis": "mahler", "precision": 2, "coeffs": {"0": "0x1", "1": "0x1", "3": "0x2"}}, "coeffs"),
    "data": ({"n": 2, "levels": {"1": "01", "2": "0110"}}, "levels"),
}
_KEYED = sorted(kind for kind, (_, body) in _DOCS.items() if body != "table")
# bodies of the wrong JSON type: a table must be a list, the keyed bodies objects
_WRONG_BODIES = {
    "table": ["1230", {"0": "0x1", "1": "0x2", "2": "0x3", "3": "0x0"}, 3, None],
    "coeffs": [["0x1"], "0x1", 3, None],
    "levels": [["01", "0110"], "01", 3, None],
}
# other spellings of the last index of each keyed body; only the canonical decimal is an index
_KEY_FORMS = [
    lambda n: "0" + n, lambda n: " +" + n, lambda n: "+" + n, lambda n: n + " ", lambda n: n + ".0",
    lambda n: n.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")), lambda n: "",
]


def _malformed(kind, body=None, key_form=None):
    doc, name = _DOCS[kind]
    doc = json.loads(json.dumps(doc))
    if key_form is not None:
        last = max(doc[name], key=int)
        doc[name][key_form(last)] = doc[name].pop(last)
    else:
        doc[name] = body
    return doc


def _wrong_shapes():
    for kind, (_, name) in sorted(_DOCS.items()):
        for i, body in enumerate(_WRONG_BODIES[name]):
            yield pytest.param(kind, _malformed(kind, body), id="%s-%s-%d" % (kind, name, i))
        if name != "table":
            for i, form in enumerate(_KEY_FORMS):
                yield pytest.param(kind, _malformed(kind, key_form=form), id="%s-key-%d" % (kind, i))
    bad_levels = [{"1": [0, 1], "2": "0110"}, {"1": "01", "2": "0120"}, {"1": 1, "2": "0110"}, {"1": "0 1", "2": "0110"},
                  {"2": "0110"}, {"1": "01", "2": "0110", "3": "01101001"}, {"1": "01", "3": "0110"}]
    for i, levels in enumerate(bad_levels):
        yield pytest.param("data", {"n": 2, "levels": levels}, id="data-levels-%d" % i)
    for kind in ("table", "vdp", "carlitz"):  # a value that is not a hex string
        doc, name = _DOCS[kind]
        body = [1, 2, 3, 0] if name == "table" else {"0": 1}
        yield pytest.param(kind, {**doc, name: body}, id="%s-value" % kind)
    for kind in ("table", "carlitz"):  # a table entry and a coefficient value that int(s, 16) reads
        doc, name = _DOCS[kind]
        for i, value in enumerate(NON_CANONICAL_HEX):
            body = doc[name][:-1] + [value] if name == "table" else {**doc[name], "0": value}
            yield pytest.param(kind, {**doc, name: body}, id="%s-hex-%d" % (kind, i))


@pytest.mark.parametrize("kind, argv", [
    ("carlitz", ["eval", "--x", "0x1", "--coeffs"]),
    ("carlitz", ["verify", "--ring", "f2t", "--basis", "carlitz", "--check", "ergodic", "--coeffs"]),
    ("carlitz", ["convert", "--from", "carlitz", "--to", "vdp", "--coeffs"]),
    ("data", ["gen-cycle", "--data"]),
], ids=["eval", "verify", "convert", "gen-cycle"])
def test_index_keys_past_the_int_string_limit_exit_two_naming_the_body(files, capsys, kind, argv):
    # a 5000-digit key once exited with int()'s "Exceeds the limit (4300 digits)", naming neither body nor key
    doc, name = _DOCS[kind]
    doc = {**doc, name: {**doc[name], "9" * 5000: doc[name]["1"]}}
    assert run(argv + [_write(files["tmp"], "long_key.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: %s key '999" % name) and err.count("\n") == 1
    assert err.rstrip().endswith("is not a canonical decimal index") and "Traceback" not in err


@pytest.mark.parametrize("kind, argv", [
    ("carlitz", ["eval", "--x", "0x1", "--coeffs"]),
    ("data", ["gen-cycle", "--data"]),
], ids=["eval", "gen-cycle"])
def test_a_long_bad_key_gives_one_short_error_line(files, capsys, kind, argv):
    # the whole key was once printed: "0" and 100,000 ones gave 100,055 bytes of stderr
    doc, name = _DOCS[kind]
    doc = {**doc, name: {**doc[name], "0" + "1" * 100_000: doc[name]["1"]}}
    assert run(argv + [_write(files["tmp"], "long_bad_key.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: %s key '0111" % name) and err.count("\n") == 1
    assert len(err.encode()) < 200 and "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(_DOCS))
def test_well_formed_documents_read_back(kind):
    doc, _ = _DOCS[kind]
    assert _READERS[kind].from_json_dict(doc).json_dict() == doc


@pytest.mark.parametrize("kind", ["vdp", "z2vdp", "carlitz", "mahler"])
def test_coefficient_files_share_one_codec(kind):
    # the one record's reader and writer serve every basis: a file is read as a map of its stored values, each type
    # holding files to its own precision cap
    doc, _ = _DOCS[kind]
    cls = _READERS[kind]
    assert (cls.ring, cls.basis) == (doc["ring"], doc["basis"])
    assert cls.json_dict is Coefficients.json_dict and cls.from_json_dict.__func__ is Coefficients.from_json_dict.__func__
    stored = {int(n): int(v, 16) for n, v in doc["coeffs"].items()}
    c = cls.from_json_dict(doc)
    assert (c.precision, c.a) == (2, stored) and "packed" not in vars(c)
    with pytest.raises(ValueError, match="over the limit of %d" % cls.cap):
        cls.from_json_dict({**doc, "precision": cls.cap + 1})
    assert c.json_dict() == doc and cls(2, c.B).json_dict() == doc


@pytest.mark.parametrize("kind, doc", _wrong_shapes())
def test_readers_refuse_malformed_bodies(kind, doc):
    with pytest.raises(ValueError):
        _READERS[kind].from_json_dict(doc)


@pytest.mark.parametrize("kind, doc", _wrong_shapes())
def test_commands_refuse_malformed_bodies(files, capsys, kind, doc):
    path = _write(files["tmp"], "shape.json", doc)
    for argv in _READING_COMMANDS[kind]:
        assert run(argv + [path]) == 2
        assert _one_error_line(capsys)


def test_a_string_table_is_not_a_table(files, capsys):
    # "1230" once read as the precision-2 table 1, 2, 3, 0: ergodic at every level
    doc = {"ring": "F2T", "precision": 2, "table": "1230"}
    with pytest.raises(ValueError, match="table must be a JSON list"):
        FunctionTable.from_json_dict(doc)
    path = _write(files["tmp"], "string_table.json", doc)
    for argv in (["verify", "--exhaustive", "--table", path], ["expand", "--basis", "carlitz", "--table", path]):
        assert run(argv) == 2
        assert _one_error_line(capsys)


@pytest.mark.parametrize("kind", _KEYED)
def test_one_index_has_one_key(kind):
    doc, name = _DOCS[kind]
    last = max(doc[name], key=int)
    spellings = {last: doc[name][last], "0" + last: doc[name][last], " +" + last: doc[name][last]}
    with pytest.raises(ValueError, match="canonical decimal"):
        _READERS[kind].from_json_dict({**doc, name: {**doc[name], **spellings}})


@pytest.mark.parametrize("kind, text", [
    ("carlitz", '{"ring": "F2T", "basis": "carlitz", "precision": 3, "precision": 40, "coeffs": {}}'),
    ("carlitz", '{"ring": "F2T", "basis": "carlitz", "precision": 3, "coeffs": {"1": "0x1", "1": "0x3"}}'),
    ("table", '{"ring": "F2T", "ring": "F2T", "precision": 1, "table": ["0x1", "0x0"]}'),
    ("data", '{"n": 1, "levels": {"1": "01"}, "n": 0}'),
])
def test_duplicate_keys_exit_two(files, capsys, kind, text):
    # json.load keeps the last of a repeated key, so "precision": 3, "precision": 40 read as 40
    path = files["tmp"] / "dup.json"
    path.write_text(text)
    for argv in _READING_COMMANDS[kind]:
        assert run(argv + [str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "duplicate key" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind, key, cap", [
    ("table", "precision", 24), ("z2table", "precision", 24), ("vdp", "precision", 24), ("z2vdp", "precision", 24),
    ("carlitz", "precision", 1024), ("mahler", "precision", 1024), ("data", "n", 23),
])
def test_each_reader_caps_its_own_precision(kind, key, cap):
    # the table formats hold 2^24 entries at most (cycle data: a table of precision n + 1)
    doc, _ = _DOCS[kind]
    with pytest.raises(ValueError, match="over the limit of %d" % cap):
        _READERS[kind].from_json_dict({**doc, key: cap + 1})


def test_malformed_bodies_print_no_traceback(files):
    shapes = [_malformed("table", "1230"), _malformed("carlitz", ["0x1"]), _malformed("mahler", key_form=lambda n: "0" + n),
              _malformed("vdp", key_form=lambda n: " +" + n), {"n": 1, "levels": {"1": [0, 1]}}]
    argvs = [["verify", "--exhaustive", "--table"], ["eval", "--x", "0x1", "--coeffs"], ["eval", "--x", "0x1", "--coeffs"],
             ["keystream", "--x0", "0x0", "--steps", "2", "--coeffs"], ["gen-cycle", "--data"]]
    for i, (doc, argv) in enumerate(zip(shapes, argvs)):
        path = _write(files["tmp"], "shape%d.json" % i, doc)
        got = subprocess.run([sys.executable, "-m", "tadic", *argv, path], capture_output=True, text=True)
        assert got.returncode == 2
        assert got.stdout == ""
        assert got.stderr.startswith("error:") and got.stderr.count("\n") == 1
