"""Series core: exact polynomial ops, truncated products, ring laws, and the record base of every value type."""

import copy
import functools
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NON_CANONICAL_HEX, degree, exact_div, invert_unit, ord_abs, pdivmod
from tadic.carlitz import CarlitzCoefficients
from tadic.cyclegen import random_data
from tadic.dynamics import FunctionTable, LevelVerdicts, Z2FunctionTable
from tadic.gf2ps import (
    check_residues,
    clmul,
    clmul_trunc,
    fold,
    order,
    pack,
    pack_residues,
    parse_hex,
    read_header,
    read_indexed,
    repack,
    split_bands,
    tile,
    to_hex,
    trunc,
    unpack,
)
from tadic.vanderput import to_vdp
from tadic.z2compare import MahlerCoefficients

polys = st.integers(min_value=0, max_value=(1 << 64) - 1)
small_k = st.integers(min_value=1, max_value=16)


def test_clmul_trunc_truncates_to_the_working_precision():
    assert clmul_trunc(0x3, 0x3, 4) == 0x5
    assert clmul_trunc(0x6, 0x2, 4) == 0xC
    assert clmul_trunc(0x3, 0x3, 2) == 0x1


def test_degree_and_order_edge_values():
    assert degree(0) == -math.inf
    assert degree(1) == 0
    assert degree(0x6) == 2
    assert order(0) == math.inf
    assert order(0x6) == 1


def test_ord_abs_values():
    assert ord_abs(0x2) == (1, Fraction(1, 2))
    assert ord_abs(0x1) == (0, Fraction(1))
    assert ord_abs(0) == (math.inf, Fraction(0))
    assert ord_abs(0x4) == (2, Fraction(1, 4))


def test_invert_unit_known_value():
    assert invert_unit(0x3, prec=3) == 0x7
    assert invert_unit(0xB, 3) == 0x7  # only the unit mod T^3 counts


def test_invert_unit_rejects_non_units():
    with pytest.raises(ValueError, match="not a unit"):
        invert_unit(0x2, prec=3)
    with pytest.raises(TypeError):
        invert_unit(0x3)  # the precision is required


def test_exact_div_known_values():
    assert exact_div(0x6, 0x2) == 0x3
    assert exact_div(0x14, 0x6) == 0x6
    with pytest.raises(ValueError, match="inexact division"):
        exact_div(0x6, 0x4)


def test_pdivmod_division_identity():
    q, r = pdivmod(0x17, 0x6)
    assert clmul(q, 0x6) ^ r == 0x17
    assert degree(r) < degree(0x6)
    with pytest.raises(ZeroDivisionError):
        pdivmod(0x3, 0)


def test_hex_codec():
    assert to_hex(0xF) == "0xf"
    assert parse_hex("0xF") == 15
    assert parse_hex("f") == 15
    assert parse_hex("0X1a") == 26
    for s in ("-0x1", "zz", *NON_CANONICAL_HEX):
        with pytest.raises(ValueError, match="not a hex value"):
            parse_hex(s)


def test_check_residues_is_the_precision_and_range_rule():
    check_residues(3, (0, 7))
    check_residues(1, ())
    with pytest.raises(ValueError, match="positive"):
        check_residues(0)
    with pytest.raises(ValueError, match="entry out of range for precision 3"):
        check_residues(3, [1, 8], "entry")
    with pytest.raises(ValueError, match="out of range"):
        check_residues(3, {-1: 0}.keys())


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), 1e400, 3.7, 3.0, True, False, "12", None, [3]])
def test_read_header_takes_only_json_integers(value):
    obj = {"ring": "F2T", "precision": value}
    with pytest.raises(ValueError, match="JSON integer"):
        read_header(obj, ring="F2T")


def test_read_header_checks_tags_and_limit():
    obj = {"ring": "Z2", "basis": "mahler", "precision": 12, "n": 0}
    assert read_header(obj, ring="Z2", basis="mahler") == 12
    assert read_header(obj, most=12) == 12
    assert read_header(obj, "n", most=0) == 0
    with pytest.raises(ValueError, match="over the limit"):
        read_header(obj, most=11)
    with pytest.raises(ValueError, match="expected basis carlitz"):
        read_header(obj, ring="Z2", basis="carlitz")


def test_read_header_needs_an_object():
    with pytest.raises(ValueError, match="expected a JSON object, got list"):
        read_header([{"precision": 3}])


def test_read_indexed_takes_canonical_decimal_keys():
    obj = {"coeffs": {"0": "0x1", "10": "0x2", str(2**70): "0x3"}}
    assert read_indexed(obj, "coeffs", parse_hex) == {0: 1, 10: 2, 2**70: 3}
    assert read_indexed({}, "coeffs", parse_hex) == {}
    for key in ["03", "00", " 3", "3 ", "+3", "-3", "3.0", "0x3", "", "٣", "３", "²"]:
        with pytest.raises(ValueError, match="canonical decimal"):
            read_indexed({"coeffs": {key: "0x1"}}, "coeffs", parse_hex)
    for body in (["0x1"], "0x1", 3, None):
        with pytest.raises(ValueError, match="levels must be a JSON object"):
            read_indexed({"levels": body}, "levels", str)


def test_parse_hex_takes_only_strings():
    assert parse_hex("0x1F") == parse_hex("1f") == 31
    for value in (31, None, ["0x1"], 1.5):
        with pytest.raises(ValueError, match="hex string"):
            parse_hex(value)


@given(polys, polys, polys)
def test_clmul_ring_laws(a, b, c):
    assert clmul(a, b) == clmul(b, a)
    assert clmul(clmul(a, b), c) == clmul(a, clmul(b, c))
    assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)
    assert clmul(a, 1) == a


@given(polys, polys, small_k)
def test_truncation_consistency(a, b, k):
    # the low k bits of a product only see the low k bits of the factors
    assert clmul_trunc(a, b, k) == trunc(clmul(a, b), k)
    assert clmul_trunc(a, b, k) == clmul_trunc(trunc(a, k), trunc(b, k), k)


@given(polys.filter(bool), polys.filter(bool))
def test_order_is_additive(a, b):
    assert order(clmul(a, b)) == order(a) + order(b)
    assert degree(clmul(a, b)) == degree(a) + degree(b)


@given(polys, st.integers(min_value=1, max_value=64))
@settings(max_examples=200)
def test_unit_inversion_property(a, k):
    a |= 1
    inv = invert_unit(a, prec=k)
    assert clmul_trunc(a, inv, k) == 1


@pytest.mark.parametrize("bits, width", [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8)])
def test_pack_lays_slots_out_little_endian_and_unpack_inverts_it(bits, width):
    # slot i holds value i at bit 8 * width * i, whatever the host's byte order
    top = (1 << bits) - 1
    values = (top, 0, 1, top >> 1, 5 & top, top)
    w, got = pack(values, bits)
    assert got == width
    assert w == sum(v << (8 * width * i) for i, v in enumerate(values))
    assert unpack(w, len(values), width) == values
    # a packed int is little-endian in its bytes: value i starts at byte width * i
    assert w.to_bytes(len(values) * width, "little")[width : 2 * width] == bytes(width)


@given(st.integers(min_value=1, max_value=64), st.lists(st.integers(min_value=0), max_size=40), polys)
def test_unpack_inverts_pack_and_tile_packs_one_value_everywhere(bits, raw, v):
    values = tuple(x & ((1 << bits) - 1) for x in raw)
    v &= (1 << bits) - 1
    w, width = pack(values, bits)
    assert unpack(w, len(values), width) == values
    assert tile(v, len(values), width) == pack((v,) * len(values), bits)[0]


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64),
       st.lists(st.integers(min_value=0), max_size=40))
def test_repack_equals_pack_at_the_new_width(bits, to, raw):
    values = tuple(x & ((1 << min(bits, to)) - 1) for x in raw)
    assert repack(pack(values, bits), len(values), to) == pack(values, to)


def test_pack_residues_is_the_range_rule_of_a_packed_table():
    assert pack_residues(3, (0, 7, 5, 1, 2, 3, 4, 6)) == pack((0, 7, 5, 1, 2, 3, 4, 6), 4)
    assert pack_residues(8, tuple(range(256)))[1] == 2
    for bad in (8, 16, 256, -1, 2**64, "7", 1.0, None):
        with pytest.raises(ValueError, match="entry out of range for precision 3"):
            pack_residues(3, (0, 1, 2, bad), "entry")


def test_tile_fold_and_split_bands_on_a_packed_table():
    values = tuple((37 * i + 11) % 256 for i in range(1 << 5))
    w, width = pack(values, 9)
    assert width == 2
    assert tile(0x1FF, 4, 2) == pack((0x1FF,) * 4, 9)[0]
    assert fold(w, 1 << 5, width, operator.or_) == functools.reduce(operator.or_, values)
    assert fold(w, 1 << 5, width, operator.add, tile(0xFF, 16, width)) == sum(values) & 0xFF
    bands = list(split_bands(w, 5, width))
    assert [d for d, _, _ in bands] == [4, 3, 2, 1]
    for d, band, lower in bands:
        assert unpack(band, 1 << d, width) == values[1 << d : 2 << d]
        assert unpack(lower, 1 << d, width) == values[: 1 << d]


@given(polys, polys.filter(bool))
def test_pdivmod_reconstructs(a, b):
    q, r = pdivmod(a, b)
    assert clmul(q, b) ^ r == a
    assert degree(r) < degree(b)


def _records():
    """One record of each kind the record tests round-trip, with a 2^8-entry body where it has one."""
    return [
        FunctionTable(8, tuple(range(1, 256)) + (0,)),
        Z2FunctionTable(8, tuple(range(256))),
        LevelVerdicts((True, None, False)),
        random_data(3, 7),
        CarlitzCoefficients(8, dict.fromkeys(range(0, 256, 3), 0x81)),
        MahlerCoefficients(8, dict.fromkeys(range(0, 256, 5), 0x3)),
        to_vdp(FunctionTable(8, tuple(range(1, 256)) + (0,))),
        to_vdp(Z2FunctionTable(8, tuple((x + 1) & 255 for x in range(256)))),
    ]


def test_records_take_positional_fields_and_run_their_check():
    t = FunctionTable(2, [1, 2, 3, 0])
    assert (t.precision, t.table) == (2, (1, 2, 3, 0))  # the check normalises the body to a tuple
    assert LevelVerdicts((True,)).levels == (True,)
    with pytest.raises(TypeError, match="precision, table"):
        FunctionTable(2)
    with pytest.raises(TypeError):
        FunctionTable(precision=2, table=(1, 2, 3, 0))
    with pytest.raises(TypeError, match="precision, a"):
        CarlitzCoefficients(2, {}, None)
    with pytest.raises(ValueError):
        FunctionTable(2, [1, 2, 3])


def test_records_compare_and_hash_by_exact_class_and_fields():
    t = FunctionTable(1, (1, 0))
    assert t == FunctionTable(1, [1, 0]) and hash(t) == hash(FunctionTable(1, [1, 0]))
    assert t != FunctionTable(1, (0, 1)) and t != (1, (1, 0))
    assert t != Z2FunctionTable(1, (1, 0)) and Z2FunctionTable(1, (1, 0)) != t
    assert len({t, FunctionTable(1, (1, 0)), Z2FunctionTable(1, (1, 0))}) == 2
    assert hash(LevelVerdicts((True, None))) == hash(LevelVerdicts((True, None)))
    assert hash(random_data(3, 7)) == hash(random_data(3, 7)) and random_data(3, 7) != random_data(4, 7)
    c = CarlitzCoefficients(3, {0: 1, 5: 2})
    assert c == CarlitzCoefficients(3, {5: 2, 0: 1, 6: 0}) and c != CarlitzCoefficients(4, {0: 1, 5: 2})
    assert c != MahlerCoefficients(3, {0: 1, 5: 2})


def test_records_refuse_assignment():
    for r in _records():
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_deepcopy(r):
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(twin) is type(r) and twin == r


def test_record_repr_shows_the_size_of_a_body_not_its_entries():
    assert repr(CarlitzCoefficients(3, {0: 1, 5: 2})) == "CarlitzCoefficients(precision=3, a=<2 entries>)"
    assert repr(LevelVerdicts((True, None))) == "LevelVerdicts(levels=(True, None))"
    assert repr(FunctionTable(8, tuple(range(256)))) == "FunctionTable(precision=8, table=<256 entries>)"
    assert repr(random_data(3, 7)) == "CycleData(n=7, bits=<7 entries>)"
    assert len(repr(CarlitzCoefficients(8, dict.fromkeys(range(256), 1)))) < 80
