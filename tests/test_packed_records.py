"""Packed table records: every 2^k table and van der Put set is checked and packed once, when it is built.

`packed` is pack of the values in slots of k + 1 bits.  It is not a
field: pickling and copying go by the values, and repr shows only their
count.  Equality and hashing read (class, precision, packed), one pair
per table, so they agree with the values.  The residue rule's error is
the same whichever way a value breaks it.  The kernels (`to_vdp`,
`vdp_table`, `carlitz_table`, `mahler_table` and `to_carlitz`) build
their records through the private constructor that skips the check, and
those records equal the public constructor's.  The table kernels hand
their records only `packed`: `table` and `B` are unpacked on first read,
and the criteria, the compatibility oracle, repr, equality and hashing
never read them.  The
compatibility levels and walk checkpoints that the table oracles cache on
a table are no fields either, nor is the scan that the Carlitz, Mahler or
van der Put criteria cache on a coefficient set.  A sparse set's coefficients are
read-only, so no memo can go stale.
"""

import copy
import pickle
import random

import pytest

from helpers import (
    butterfly_by_products,
    dense_lipschitz_carlitz,
    random_lipschitz_vdp,
    random_mahler,
    random_table,
    random_z2_compatible,
    reference_coefficients,
    steered_sparse,
)
from tadic.carlitz import CarlitzCoefficients, carlitz_table, check_ergodic_carlitz, check_lipschitz_carlitz, to_carlitz
from tadic.cyclegen import gen_cycle, random_data
from tadic.dynamics import FunctionTable, Z2FunctionTable, is_bijective_mod, is_compatible, is_transitive_mod
from tadic.cyclegen import CycleData
from tadic.dynamics import LevelVerdicts, restrict
from tadic.gf2ps import pack, unpack
from tadic.vanderput import (
    VdpCoefficients,
    Z2VdpCoefficients,
    check_ergodic_vdp,
    check_lipschitz_vdp,
    check_mp_vdp,
    to_vdp,
    vdp_table,
)
from tadic.z2compare import MahlerCoefficients, check_ergodic_mahler_z2, mahler_table

TYPES = (FunctionTable, Z2FunctionTable, VdpCoefficients, Z2VdpCoefficients)


def _values(r):
    return r.B if isinstance(r, VdpCoefficients) else r.table


def _made_records():
    """One record of each table type from a tuple, and every kernel's output, at precisions across the slot widths."""
    rng = random.Random(15)
    out = []
    for k in (2, 4, 7, 8, 9):
        values = tuple(rng.randrange(1 << k) for _ in range(1 << k))
        out += [cls(k, values) for cls in TYPES]
        _, t = gen_cycle(random_data(rng.getrandbits(32), k - 1))
        z2 = random_z2_compatible(rng, k)
        out += [t, to_vdp(t), to_vdp(z2), vdp_table(random_lipschitz_vdp(rng, k)), vdp_table(to_vdp(z2))]
        out += [mahler_table(random_mahler(rng, k, 6)), carlitz_table(reference_coefficients(k))]
    return out


def test_every_table_record_keeps_its_values_packed_in_slots_of_k_plus_one_bits():
    records = _made_records()
    assert {type(r) for r in records} == set(TYPES)
    for r in records:
        assert r.packed == pack(_values(r), r.precision + 1)


def test_packed_is_not_a_field():
    for r in _made_records():
        assert "packed" not in r._fields
        twins = (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r), type(r)(r.precision, list(_values(r))))
        for twin in twins:
            assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)
            assert twin.packed == r.packed
        assert "packed" not in repr(r)
        assert r.__reduce__() == (type(r), (r.precision, _values(r)))
        with pytest.raises(AttributeError):
            r.packed = (0, 1)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("k", [7, 8, 15, 16])
def test_every_way_out_of_range_is_the_residue_rules_error(cls, k):
    # k = 7 and 15 fill their slots, k = 8 and 16 take the next width: 2^k is caught
    # inside the slot, 2^(8 width) and -1 by the packing, and so is a string
    width = pack((0,), k + 1)[1]
    values = list(range(1 << k))
    cls(k, values)
    for bad in (1 << k, -1, 1 << (8 * width), "1"):
        for at in (0, (1 << k) - 1):
            broken = values[:at] + [bad] + values[at + 1:]
            with pytest.raises(ValueError, match="out of range for precision %d" % k):
                cls(k, broken)


def _kernel_records():
    """Every record a kernel builds without the check, at precisions across the slot widths, in both rings."""
    rng = random.Random(16)
    out = []
    for k in (1, 2, 4, 7, 8, 9):
        t, z2 = random_table(rng, k), random_z2_compatible(rng, k)
        out += [to_vdp(t), to_vdp(z2), vdp_table(random_lipschitz_vdp(rng, k)), vdp_table(to_vdp(z2))]
        out += [carlitz_table(dense_lipschitz_carlitz(rng, k)), carlitz_table(CarlitzCoefficients(k, {}))]
        out += [mahler_table(random_mahler(rng, k, 15)), gen_cycle(random_data(rng.getrandbits(32), k - 1))[1]]
    return out


def test_kernel_records_equal_the_public_constructors_records():
    records = _kernel_records()
    assert {type(r) for r in records} == set(TYPES)
    for r in records:
        public = type(r)(r.precision, list(_values(r)))
        assert r._values() == public._values() and type(_values(r)) is tuple
        assert r == public and hash(r) == hash(public) and repr(r) == repr(public)
        assert pickle.loads(pickle.dumps(r)) == public and pickle.dumps(r) == pickle.dumps(public)
        assert r.packed == public.packed == pack(_values(r), r.precision + 1)
        assert type(r)._trusted(r.precision, packed=r.packed) == public


def test_to_carlitz_equals_the_public_constructors_set():
    # to_carlitz hands its set the butterfly's packed slots, zero values and all: the dense constructor's body; the
    # map of its nonzero values, as the sparse constructor keeps it, is an equal set
    rng = random.Random(17)
    for k in (1, 2, 4, 7, 8, 9):
        zero = FunctionTable(k, (0,) * (1 << k))
        for t in (random_table(rng, k), carlitz_table(dense_lipschitz_carlitz(rng, k)), zero):
            values = butterfly_by_products(t.table, k, synthesize=False)
            c, public, sparse = to_carlitz(t), CarlitzCoefficients(k, values), CarlitzCoefficients(k, dict(enumerate(values)))
            assert c == public == sparse and hash(c) == hash(sparse)
            assert pickle.loads(pickle.dumps(c)) == public and repr(c) == repr(public) and c.packed == public.packed
            assert c.a == {n: v for n, v in enumerate(values) if v} and c.json_dict() == sparse.json_dict()
        assert to_carlitz(zero).a == {}


def test_the_oracles_memo_is_not_a_field():
    rng = random.Random(18)
    for k in (1, 2, 4, 7, 8, 9):
        _, cycle = gen_cycle(random_data(rng.getrandbits(32), k - 1))
        for t in (cycle, random_table(rng, k), Z2FunctionTable(k, cycle.table), vdp_table(to_vdp(cycle))):
            trusted = type(t)._trusted(k, t.table, packed=t.packed)
            seen = (hash(t), repr(t), pickle.dumps(t))
            assert seen == (hash(trusted), repr(trusted), pickle.dumps(trusted))
            verdicts = [oracle(t) for oracle in (is_compatible, is_bijective_mod, is_transitive_mod)]
            assert {"_compatible", "_checkpoints"} <= set(vars(t))
            assert (hash(t), repr(t), pickle.dumps(t)) == seen
            assert t == trusted and t.__reduce__() == trusted.__reduce__()
            twin = pickle.loads(pickle.dumps(t))
            assert twin == t and "_checkpoints" not in vars(twin)
            assert [oracle(twin) for oracle in (is_transitive_mod, is_bijective_mod, is_compatible)] == verdicts[::-1]
            with pytest.raises(AttributeError):
                t._checkpoints = []


def _held(c):
    """The body a coefficient set holds: "packed" (kernels, 2^k values) or "a" (a map of the nonzero values)."""
    return "packed" if "packed" in vars(c) else "a"


# the criteria that read a sparse set's scan, per basis
SPARSE_CRITERIA = {
    CarlitzCoefficients: (check_lipschitz_carlitz, check_ergodic_carlitz),
    MahlerCoefficients: (check_ergodic_mahler_z2,),
}


def test_the_carlitz_scan_memo_is_not_a_field():
    # the scan is SparseCoefficients' memo, so the Mahler basis keeps it out of its fields too
    rng = random.Random(19)
    for k in (2, 3, 4, 9):
        sets = [dense_lipschitz_carlitz(rng, k), to_carlitz(random_table(rng, k)), reference_coefficients(k),
                random_mahler(rng, k, (1 << k) - 1), steered_sparse(rng, MahlerCoefficients, k)]
        sets += [cls(k, {0: 1, 1: 1, (1 << k) - 1: 1}) for cls in SPARSE_CRITERIA]  # off the floor
        for c in sets:
            criteria = SPARSE_CRITERIA[type(c)]
            # a twin of the same body: to_carlitz's sets are packed, the others maps
            trusted = type(c)._trusted(k, dict(c.a)) if _held(c) == "a" else type(c)._trusted(k, packed=c.packed)
            seen = (hash(c), repr(c), pickle.dumps(c), c.json_dict())
            verdicts = [check(c) for check in criteria]
            assert "_scanned" in vars(c)
            assert (hash(c), repr(c), pickle.dumps(c), c.json_dict()) == seen == (
                hash(trusted), repr(trusted), pickle.dumps(trusted), trusted.json_dict())
            assert c == trusted and c.__reduce__() == trusted.__reduce__()
            assert copy.copy(c) == c and "_scanned" not in vars(copy.copy(c))
            twin = pickle.loads(pickle.dumps(c))
            assert twin == c and "_scanned" not in vars(twin)
            assert [check(twin) for check in reversed(criteria)] == verdicts[::-1]
            with pytest.raises(AttributeError):
                c._scanned = (k, (), ())


def test_the_vdp_scan_memo_is_not_a_field():
    rng = random.Random(20)
    for k in (1, 2, 3, 4, 9):
        off_floor = VdpCoefficients(k, (1,) * (1 << k))
        for c in (to_vdp(random_table(rng, k)), random_lipschitz_vdp(rng, k), random_z2_compatible(rng, k), off_floor):
            trusted = type(c)._trusted(k, packed=c.packed)
            seen = (hash(c), repr(c), pickle.dumps(c), c.json_dict())
            verdicts = (check_lipschitz_vdp(c), check_mp_vdp(c), check_ergodic_vdp(c))
            assert "_scanned" in vars(c)
            assert (hash(c), repr(c), pickle.dumps(c), c.json_dict()) == seen
            assert c == trusted and c.__reduce__() == trusted.__reduce__() and copy.copy(c) == c
            twin = pickle.loads(pickle.dumps(c))
            assert twin == c and "_scanned" not in vars(twin)
            assert (check_ergodic_vdp(twin), check_mp_vdp(twin), check_lipschitz_vdp(twin)) == verdicts[::-1]
            with pytest.raises(AttributeError):
                c._scanned = (k, (), {})


def _sparse_sets():
    rng = random.Random(21)
    for k in (1, 2, 3, 9):
        yield dense_lipschitz_carlitz(rng, k)
        yield to_carlitz(random_table(rng, k))
        yield CarlitzCoefficients(k, {0: 1, 1: 1, (1 << k) - 1: 1, 5 << k: 1})
        yield random_mahler(rng, k, 15)
        yield MahlerCoefficients(k, {})


def test_sparse_sets_are_frozen():
    for c in _sparse_sets():
        for change in (lambda a: a.__setitem__(2, 1), lambda a: a.__delitem__(0), lambda a: a.clear()):
            with pytest.raises((TypeError, AttributeError)):
                change(c.a)
        with pytest.raises(AttributeError):
            c.a = {}


def test_equal_sparse_sets_hash_equal_and_survive_pickle_and_copy():
    for c in _sparse_sets():
        twin = type(c)(c.precision, {**c.a, 1 << 12: 0})
        assert c == twin and hash(c) == hash(twin) and c.a == dict(c.a) == twin.a
        assert len({c, twin}) == 1
        # a set pickles by the body it holds: a map as a dict, packed slots as the tuple of 2^k values
        assert c.__reduce__() == (type(c), (c.precision, dict(c.a) if _held(c) == "a" else c.B))
        for copied in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert copied == c and hash(copied) == hash(c) and repr(copied) == repr(c)
            assert copied.json_dict() == c.json_dict()
        if c.a:
            other = type(c)(c.precision, {**c.a, min(c.a): 0})
            assert other != c and other.a != c.a


def test_the_carlitz_scan_memo_cannot_be_fooled():
    # a set judged once keeps its verdict because its coefficients cannot change afterwards
    c = CarlitzCoefficients(3, {0: 1, 1: 1})
    assert check_lipschitz_carlitz(c)
    with pytest.raises(TypeError):
        c.a[2] = 1
    source = {0: 1, 1: 1}
    c = CarlitzCoefficients(3, source)
    assert check_lipschitz_carlitz(c)
    source[2] = 1  # the caller's dict is copied, not kept
    assert c.a == {0: 1, 1: 1} and check_lipschitz_carlitz(c) == check_lipschitz_carlitz(CarlitzCoefficients(3, c.a))
    assert not check_lipschitz_carlitz(CarlitzCoefficients(3, source))


def _lazy_records():
    """Records of every kernel that hands its record only `packed`, across the slot widths, in both rings."""
    rng = random.Random(25)
    for k in (1, 2, 4, 7, 8, 9, 15, 16):
        t, z2 = random_table(rng, k), random_z2_compatible(rng, k)
        yield to_vdp(t)
        yield to_vdp(z2)
        yield vdp_table(random_lipschitz_vdp(rng, k))
        yield vdp_table(z2)
        yield carlitz_table(dense_lipschitz_carlitz(rng, k))
        yield mahler_table(random_mahler(rng, k, 6))


def _body(r):
    return "B" if isinstance(r, VdpCoefficients) else "table"


def test_kernel_records_keep_only_their_packed_form_until_read():
    for r in _lazy_records():
        body, k = _body(r), r.precision
        assert body not in vars(r) and "packed" in vars(r)
        if isinstance(r, VdpCoefficients):
            check_lipschitz_vdp(r), check_mp_vdp(r), check_ergodic_vdp(r)
        else:
            is_compatible(r)
        seen = (repr(r), r == r, r == type(r)._trusted(k, packed=r.packed), hash(r))
        assert body not in vars(r) and seen[0] == "%s(precision=%d, %s=<%d entries>)" % (type(r).__name__, k, body, 1 << k)
        values = getattr(r, body)
        assert values == unpack(r.packed[0], 1 << k, r.packed[1]) and type(values) is tuple
        assert getattr(r, body) is values and vars(r)[body] is values
        assert (repr(r), r == r, hash(r)) == (seen[0], True, seen[3])


def test_kernel_records_and_their_public_twins_agree_on_bytes():
    for r in _lazy_records():
        body, k = _body(r), r.precision
        public = type(r)(k, list(unpack(r.packed[0], 1 << k, r.packed[1])))
        assert body not in vars(r) and body in vars(public)
        assert r == public and public == r and hash(r) == hash(public) and len({r, public}) == 1
        assert body not in vars(r)
        assert pickle.dumps(r) == pickle.dumps(public) and pickle.loads(pickle.dumps(r)) == public
        # another precision or another ring is another record, even with the same packed int
        assert r != type(r)._trusted(k + 1, packed=r.packed)
        other = {FunctionTable: Z2FunctionTable, Z2FunctionTable: FunctionTable,
                 VdpCoefficients: Z2VdpCoefficients, Z2VdpCoefficients: VdpCoefficients}[type(r)]
        assert r != other._trusted(k, packed=r.packed)


def test_equal_values_are_equal_records_and_one_value_apart_are_not():
    rng = random.Random(26)
    for cls in TYPES:
        for k in (1, 3, 8, 9):
            values = [rng.randrange(1 << k) for _ in range(1 << k)]
            r = cls(k, values)
            assert r == cls(k, tuple(values)) and hash(r) == hash(cls(k, tuple(values)))
            for at in (0, (1 << k) - 1):
                changed = cls(k, values[:at] + [values[at] ^ 1] + values[at + 1:])
                assert changed != r and changed.packed != r.packed


def test_trusted_refuses_a_field_the_class_does_not_derive():
    t = FunctionTable(3, range(8))
    # the table and van der Put types derive their body from `packed`
    assert FunctionTable._trusted(3, packed=t.packed) == t
    assert VdpCoefficients._trusted(3, packed=t.packed) == VdpCoefficients(3, range(8))
    refused = [
        lambda: FunctionTable._trusted(packed=t.packed),
        lambda: FunctionTable._trusted(3, t.table, 0, packed=t.packed),
        lambda: CarlitzCoefficients._trusted(3),
        lambda: MahlerCoefficients._trusted(3),
        lambda: LevelVerdicts._trusted(),
        lambda: CycleData._trusted(2),
    ]
    for make in refused:
        with pytest.raises(TypeError, match="_trusted takes the fields"):
            make()
    assert CarlitzCoefficients._trusted(3, {1: 1}) == CarlitzCoefficients(3, {1: 1})
    assert CycleData._trusted(1, ((0, 1),)).bits == ((0, 1),)


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients, CarlitzCoefficients, MahlerCoefficients],
                         ids=lambda c: c.__name__)
def test_a_coefficient_set_refuses_non_integers_in_either_body(cls):
    # a float or a string is refused as an index or a value, whether the set is given as a map or as 2^k values
    for a in ({0: 2.9}, {1.7: 2}, {"1": "3"}, {1: "3"}, {"1": 3}, {0: 1.0}):
        with pytest.raises(ValueError, match="must be integers"):
            cls(3, a)
    for values in ((1.5, 0, 0, 0), ("1", 0, 0, 0)):
        with pytest.raises(ValueError, match="out of range for precision 2"):
            cls(2, values)
    assert cls(3, {0: 2, 1: 0}).a == {0: 2} and cls(2, (2, 0, 0, 0)) == cls(2, {0: 2})


_NON_INTEGER_SIZES = {
    "carlitz-set": lambda k: CarlitzCoefficients(k, {}),
    "table": lambda k: FunctionTable(k, (0, 1, 2, 3)),
    "z2-table": lambda k: Z2FunctionTable(k, (0, 1, 2, 3)),
    "vdp-set": lambda k: VdpCoefficients(k, (0, 1, 2, 3)),
    "mahler-set": lambda k: MahlerCoefficients(k, {0: 1}),
    "restrict": lambda k: restrict(CarlitzCoefficients(3, {1: 1}), k),
    "cycle-data": lambda k: CycleData(k, ((0, 1), (0, 1, 0, 1))),
}


@pytest.mark.parametrize("make", _NON_INTEGER_SIZES.values(), ids=_NON_INTEGER_SIZES)
def test_a_non_integer_precision_or_depth_is_refused(make):
    # 2.0 equals the size each body fits, and 1.5 and 2.5 fall beside it: each is refused as a size, not used
    make(2)
    for bad in (2.0, 1.5, 2.5, "2"):
        with pytest.raises(ValueError, match="(precision|depth) must be"):
            make(bad)


def test_a_bool_precision_or_depth_is_still_an_integer():
    assert FunctionTable(True, (0, 1)) == FunctionTable(1, (0, 1)) and CycleData(True, ((0, 1),)).n == 1
    assert restrict(CarlitzCoefficients(3, {1: 7}), True) == CarlitzCoefficients(1, {1: 1})


def test_hashing_a_packed_set_builds_no_map():
    # the hash reads the type, the precision and slots 0 and 1 off the packed body, so the 2^16 values stay packed
    _, t = gen_cycle(random_data(7, 15))
    z2 = Z2FunctionTable(16, tuple((5 * x + 3) & 0xFFFF for x in range(1 << 16)))
    for c in (to_vdp(t), to_vdp(z2)):
        h = hash(c)
        assert "a" not in vars(c) and "B" not in vars(c)
        twin = type(c)(16, dict(c.a))
        assert twin == c and hash(twin) == h == hash(type(c)._trusted(16, packed=c.packed))
