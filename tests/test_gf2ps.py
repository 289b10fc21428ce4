"""Series core: exact polynomial ops, truncated residues, ring laws, and the record base of every value type."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NON_CANONICAL_HEX, exact_div, ord_abs, pdivmod
from tadic.carlitz import CarlitzCoefficients
from tadic.cyclegen import random_data
from tadic.dynamics import FunctionTable, LevelVerdicts, Z2FunctionTable
from tadic.gf2ps import (
    Residue,
    Z2Residue,
    add,
    check_residues,
    clmul,
    clmul_trunc,
    degree,
    invert_unit,
    mul,
    order,
    parse_hex,
    read_header,
    read_indexed,
    to_hex,
    trunc,
)

polys = st.integers(min_value=0, max_value=(1 << 64) - 1)
small_k = st.integers(min_value=1, max_value=16)


def test_add_is_xor():
    assert add(0x3, 0x2) == 0x1
    assert add(0, 0x7) == 0x7
    r = add(Residue(0x3, 2), Residue(0x2, 2))
    assert r == Residue(0x1, 2)


def test_add_rejects_mixed_kinds_and_precisions():
    with pytest.raises(TypeError):
        add(Residue(1, 2), 1)
    with pytest.raises(ValueError):
        add(Residue(1, 2), Residue(1, 3))


def test_mul_truncates_to_the_working_precision():
    assert mul(0x3, 0x3, 4) == Residue(0x5, 4)
    assert mul(0x6, 0x2, 4) == Residue(0xC, 4)
    assert mul(0x3, 0x3, 2) == Residue(0x1, 2)


def test_mul_on_residues_uses_their_precision():
    assert mul(Residue(0x3, 4), Residue(0x3, 4)) == Residue(0x5, 4)
    assert Residue(0x3, 2) * Residue(0x3, 2) == Residue(0x1, 2)
    with pytest.raises(ValueError):
        mul(Residue(1, 2), Residue(1, 3))
    with pytest.raises(ValueError):
        mul(0x3, 0x3)


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
    assert ord_abs(Residue(0x4, 3)) == (2, Fraction(1, 4))


def test_invert_unit_known_value():
    assert invert_unit(0x3, prec=3) == 0x7
    assert invert_unit(Residue(0x3, 3)) == Residue(0x7, 3)


def test_invert_unit_rejects_non_units():
    with pytest.raises(ValueError, match="not a unit"):
        invert_unit(0x2, prec=3)
    with pytest.raises(ValueError, match="not a unit"):
        invert_unit(Residue(0x2, 3))
    with pytest.raises(ValueError):
        invert_unit(0x3)  # exact operand without a precision


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


def test_residue_validation():
    with pytest.raises(ValueError):
        Residue(0, 0)
    with pytest.raises(ValueError):
        Residue(4, 2)
    with pytest.raises(ValueError):
        Residue(-1, 2)
    assert Residue(0xA, 4).hex == "0xa"


def test_z2_residue_is_a_residue_tagged_z2():
    z = Z2Residue(1, 2)
    assert isinstance(z, Residue)
    assert (Residue.ring, z.ring) == ("F2T", "Z2")
    assert Residue(1, 2) != z
    assert z == Z2Residue(1, 2) and z.hex == "0x1"
    for bad in ((0, 0), (4, 2), (-1, 2)):
        with pytest.raises(ValueError):
            Z2Residue(*bad)
    assert ord_abs(Z2Residue(4, 3)) == (2, Fraction(1, 4))


def test_z2_residues_have_no_f2t_arithmetic():
    z = Z2Residue(3, 2)
    for op in (lambda: z + z, lambda: z * z, lambda: Residue(1, 2) + z, lambda: z * Residue(1, 2),
               lambda: add(z, z), lambda: mul(z, z), lambda: mul(z, 3, 2), lambda: mul(3, z, 2),
               lambda: invert_unit(z), lambda: invert_unit(z, 2)):
        with pytest.raises(TypeError):
            op()


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
    assert mul(a, b, k) == mul(trunc(a, k), trunc(b, k), k)


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


@given(polys, polys.filter(bool))
def test_pdivmod_reconstructs(a, b):
    q, r = pdivmod(a, b)
    assert clmul(q, b) ^ r == a
    assert degree(r) < degree(b)


def _records():
    """One record of each kind the record tests round-trip, with a 2^8-entry body where it has one."""
    return [
        Residue(5, 3),
        Z2Residue(5, 3),
        FunctionTable(8, tuple(range(1, 256)) + (0,)),
        LevelVerdicts((True, None, False)),
        random_data(3, 7),
    ]


def test_records_take_positional_fields_and_run_their_check():
    t = FunctionTable(2, [1, 2, 3, 0])
    assert (t.precision, t.table) == (2, (1, 2, 3, 0))  # the check normalises the body to a tuple
    assert LevelVerdicts((True,)).levels == (True,)
    with pytest.raises(TypeError, match="value, precision"):
        Residue(1)
    with pytest.raises(TypeError):
        Residue(value=1, precision=2)
    with pytest.raises(ValueError):
        FunctionTable(2, [1, 2, 3])


def test_records_compare_and_hash_by_exact_class_and_fields():
    assert Residue(1, 2) == Residue(1, 2) and hash(Residue(1, 2)) == hash(Residue(1, 2))
    assert Residue(1, 2) != Residue(1, 3) and Residue(1, 2) != (1, 2)
    assert Residue(1, 2) != Z2Residue(1, 2) and Z2Residue(1, 2) != Residue(1, 2)
    assert len({Residue(1, 2), Residue(1, 2), Z2Residue(1, 2)}) == 2
    assert FunctionTable(1, (1, 0)) != Z2FunctionTable(1, (1, 0))
    assert hash(LevelVerdicts((True, None))) == hash(LevelVerdicts((True, None)))


def test_records_refuse_assignment():
    for r in _records():
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
    with pytest.raises(AttributeError):
        Residue(1, 2).__dict__


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_deepcopy(r):
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(twin) is type(r) and twin == r


def test_record_repr_shows_the_size_of_a_body_not_its_entries():
    assert repr(Residue(5, 3)) == "Residue(value=5, precision=3)"
    assert repr(Z2Residue(5, 3)) == "Z2Residue(value=5, precision=3)"
    assert repr(LevelVerdicts((True, None))) == "LevelVerdicts(levels=(True, None))"
    assert repr(FunctionTable(8, tuple(range(256)))) == "FunctionTable(precision=8, table=<256 entries>)"
    assert repr(random_data(3, 7)) == "CycleData(n=7, bits=<7 entries>)"
    assert len(repr(CarlitzCoefficients(8, dict.fromkeys(range(256), 1)))) < 80
