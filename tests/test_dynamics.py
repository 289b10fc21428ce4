"""Table oracles: compatibility, bijectivity, transitivity, parity lift, orbits, and the point rule of every evaluator."""

import functools
import itertools
import operator
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from helpers import (
    REFERENCE_TABLE_K4,
    band_scans,
    bijective_by_sets,
    break_floor,
    brute_compatible,
    compatible_through,
    corrupt_vdp,
    corrupt_z2,
    ergodic_by_band_scan,
    mahler_ergodic_by_indices,
    random_ergodic_vdp,
    random_mahler,
    random_table,
    random_z2_ergodic,
    reference_coefficients,
    sparse_floor,
    steered_sparse,
    transitive_by_walks,
)
from tadic.carlitz import CarlitzCoefficients, carlitz_table, from_carlitz, to_carlitz
from tadic.cyclegen import gen_cycle, random_data
from tadic.dynamics import (
    FunctionTable,
    LevelVerdicts,
    Z2FunctionTable,
    is_bijective_mod,
    is_compatible,
    is_transitive_mod,
    orbit,
    parity_lift,
    trajectory,
)
from tadic import dynamics
from tadic.gf2ps import clmul_trunc, order, pack, unpack
from tadic.vanderput import VdpCoefficients, Z2VdpCoefficients, from_vdp, to_vdp, vdp_table
from tadic.z2compare import MahlerCoefficients, mahler_eval, mahler_table

CYCLE_K2 = FunctionTable(2, (1, 2, 3, 0))
XOR_ONE_K2 = FunctionTable(2, (1, 0, 3, 2))
IDENTITY_K3 = FunctionTable(3, tuple(range(8)))


def test_compatibility_catches_a_level_one_violation():
    # 0 and T agree mod T but their images 0 and 1 do not
    t = FunctionTable(2, (0, 1, 1, 3))
    assert is_compatible(t).levels == (False, True)


@pytest.mark.parametrize("cls", [FunctionTable, Z2FunctionTable], ids=["F2T", "Z2"])
def test_one_pass_compatibility_equals_the_definition_on_every_small_table(cls):
    tables = [cls(k, v) for k in (1, 2) for v in itertools.product(range(1 << k), repeat=1 << k)]
    assert len(tables) == 4 + 256
    for t in tables:
        assert is_compatible(t) == brute_compatible(t)


def test_one_pass_compatibility_equals_the_definition_on_random_tables():
    rng = random.Random(31)
    for k in range(1, 11):
        for _ in range(8):
            t = random_table(rng, k)
            assert is_compatible(t) == brute_compatible(t)
            z = Z2FunctionTable(k, t.table)
            assert is_compatible(z) == brute_compatible(z)


def test_one_pass_compatibility_equals_the_definition_on_cycles_and_their_corruptions():
    """Generated cycles are compatible; one flipped bit fails exactly the levels the definition fails."""
    rng = random.Random(32)
    for k in range(1, 11):
        for _ in range(4):
            _, t = gen_cycle(random_data(rng.getrandbits(32), k - 1))
            assert is_compatible(t) == brute_compatible(t)
            assert is_compatible(t).overall is True
            for _ in range(6):
                values = list(t.table)
                values[rng.randrange(1 << k)] ^= 1 << rng.randrange(k)
                for bad in (FunctionTable(k, values), Z2FunctionTable(k, values)):
                    assert is_compatible(bad) == brute_compatible(bad)


def test_single_cycle_table_passes_every_oracle():
    assert is_compatible(CYCLE_K2).levels == (True, True)
    assert is_bijective_mod(CYCLE_K2).levels == (True, True)
    assert is_transitive_mod(CYCLE_K2).levels == (True, True)


def test_xor_with_one_is_transitive_only_at_level_one():
    assert is_transitive_mod(XOR_ONE_K2).levels == (True, False)


def test_bijectivity_sees_collisions_per_level():
    t = FunctionTable(2, (0, 1, 2, 1))
    assert is_bijective_mod(t).level(1) is True
    assert is_bijective_mod(t).level(2) is False


def test_parity_lift_counts_the_next_coefficient():
    assert parity_lift(CYCLE_K2, 1) is True
    t4 = FunctionTable(4, REFERENCE_TABLE_K4)
    assert parity_lift(t4, 1) is True
    assert parity_lift(t4, 2) is True
    assert parity_lift(t4, 3) is True
    assert parity_lift(XOR_ONE_K2, 1) is False


def test_parity_lift_validates_its_preconditions():
    with pytest.raises(ValueError):
        parity_lift(CYCLE_K2, 0)
    with pytest.raises(ValueError):
        parity_lift(CYCLE_K2, 2)  # needs precision 3
    with pytest.raises(ValueError):
        parity_lift(IDENTITY_K3, 1)  # not transitive mod T


def test_orbit_walks_the_table():
    assert orbit(CYCLE_K2, 0, 5) == [0, 1, 2, 3, 0]
    assert orbit(IDENTITY_K3, 5, 3) == [5, 5, 5]
    assert orbit(FunctionTable(1, (1, 0)), 0, 4) == [0, 1, 0, 1]


def test_trajectory_is_the_endless_orbit():
    walk = trajectory(CYCLE_K2, 1)
    assert [next(walk) for _ in range(9)] == orbit(CYCLE_K2, 1, 9)
    # the start point is checked at the call, before any point is drawn
    for bad in (4, 7, -1):
        with pytest.raises(ValueError):
            trajectory(CYCLE_K2, bad)
        with pytest.raises(ValueError):
            orbit(CYCLE_K2, bad, 0)


# each evaluator as (x -> value, precision k, a point, its value); orbit and trajectory give the third point
EVALUATORS = {
    "from_vdp-F2T": (lambda x: from_vdp(to_vdp(FunctionTable(4, REFERENCE_TABLE_K4)), x), 4, 2, 0xF),
    "from_vdp-Z2": (lambda x: from_vdp(Z2VdpCoefficients(3, (3, 3, 2, 2, 0, 0, 0, 0)), x), 3, 3, 5),
    "from_carlitz": (lambda x: from_carlitz(reference_coefficients(4), x), 4, 2, 0xF),
    "mahler_eval": (lambda x: mahler_eval(MahlerCoefficients(3, {2: 1}), x), 3, 4, 6),
    "orbit": (lambda x: orbit(CYCLE_K2, x, 3)[-1], 2, 3, 1),
    "trajectory": (lambda x: list(itertools.islice(trajectory(CYCLE_K2, x), 3))[-1], 2, 3, 1),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_every_evaluator_checks_its_point_and_returns_an_int(name):
    evaluate, k, x, value = EVALUATORS[name]
    got = evaluate(x)
    assert type(got) is int and got == value
    for bad in (-1, 1 << k):
        with pytest.raises(ValueError, match="point out of range for precision %d" % k):
            evaluate(bad)


def test_level_verdicts_three_valued_overall():
    assert LevelVerdicts((True, True)).overall is True
    assert LevelVerdicts((True, None)).overall is None
    assert LevelVerdicts((False, None)).overall is False
    assert LevelVerdicts((True, False)).overall is False
    assert LevelVerdicts((True, None)).all_determined_true()
    assert not LevelVerdicts((None,)).all_determined_true()
    assert not LevelVerdicts((True, False)).all_determined_true()
    v = LevelVerdicts((True, False, None))
    assert v.level(2) is False
    assert v.precision == 3
    assert v.json_dict() == {"1": True, "2": False, "3": None}


def test_level_verdicts_refuse_levels_outside_the_precision():
    # level(0) once read entry -1, the top level's verdict
    v = LevelVerdicts((True, False))
    for m in (0, -1, 3):
        with pytest.raises(ValueError, match="between 1 and 2"):
            v.level(m)
    assert (v.level(1), v.level(2)) == (True, False)


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(0, ())
    with pytest.raises(ValueError):
        FunctionTable(2, (0, 1, 2))
    with pytest.raises(ValueError):
        FunctionTable(2, (0, 1, 2, 4))


def test_function_table_json_roundtrip():
    t = FunctionTable(2, (1, 2, 3, 0))
    obj = t.json_dict()
    assert obj["ring"] == "F2T"
    assert FunctionTable.from_json_dict(obj) == t
    with pytest.raises(ValueError):
        FunctionTable.from_json_dict({"ring": "Z2", "precision": 1, "table": ["0x0", "0x1"]})


def _fresh(t):
    """A copy of t through the kernels' constructor, with no oracle run on it yet."""
    return type(t)._trusted(t.precision, t.table, packed=t.packed)


def _agree_with_the_entry_oracles(t):
    """Both call orders, each on a fresh copy: whichever oracle runs first fills the table's memo for the other."""
    bij, trans = bijective_by_sets(t), transitive_by_walks(t.table, t.precision)
    first = _fresh(t)
    assert (is_bijective_mod(first), is_transitive_mod(first)) == (bij, trans)
    second = _fresh(t)
    assert (is_transitive_mod(second), is_bijective_mod(second)) == (trans, bij)


@pytest.mark.parametrize("cls", [FunctionTable, Z2FunctionTable], ids=["F2T", "Z2"])
def test_bijectivity_and_transitivity_equal_the_entry_oracles_on_every_small_table(cls):
    tables = [cls(k, v) for k in (1, 2) for v in itertools.product(range(1 << k), repeat=1 << k)]
    assert len(tables) == 4 + 256
    for t in tables:
        _agree_with_the_entry_oracles(t)


def _families(rng, k, ring):
    """Named value lists at precision k for both branches of each oracle.

    The one walk and the one set decide the compatible levels, and every
    other level is checked on its own, so the families mix compatible maps
    (transitive, with a short cycle through 0, onto or not) with maps that
    are compatible only from some level m up, or nowhere.
    """
    n, mask = 1 << k, (1 << k) - 1
    mul = (lambda a, x: clmul_trunc(a, x, k)) if ring == "F2T" else (lambda a, x: a * x & mask)
    add = operator.xor if ring == "F2T" else (lambda x, y: (x + y) & mask)
    cycle = list(gen_cycle(random_data(rng.getrandbits(32), k - 1))[1].table)
    flipped, swapped = list(cycle), list(cycle)
    flipped[rng.randrange(n)] ^= 1 << rng.randrange(k)
    a, b = rng.sample(range(n), 2)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    # only the low m bits move, by a map of the 2^m residues: compatible at m and above
    m = rng.randrange(2, k)
    low = rng.sample(range(1 << m), 1 << m), [rng.randrange(1 << m) for _ in range(1 << m)]
    # a single cycle of the low j bits, the high bits fixed: the cycle through 0 has length 2^j at every level >= j
    j = rng.randrange(1, k)
    short = gen_cycle(random_data(rng.getrandbits(32), j - 1))[1].table
    # compatible up to level m and random above: a level above, neither compatible nor onto, vouches for none below
    up_to_m = [mul(2, x) & ((1 << m) - 1) | rng.randrange(n) >> m << m for x in range(n)]
    # the identity on the first 2^j slots, random bits above m - 1 elsewhere: level j is onto but not compatible
    onto_at_j = [x if x >> j == 0 else x & ((1 << (m - 1)) - 1) | rng.randrange(n) >> (m - 1) << (m - 1)
                 for x in range(n)]
    return {
        "cycle": cycle,
        "flipped bit": flipped,
        "swapped entries": swapped,
        "random map": [rng.randrange(n) for _ in range(n)],
        "random permutation": rng.sample(range(n), n),
        "5x + 3": [add(mul(5, x), 3) for x in range(n)],
        "3x": [mul(3, x) for x in range(n)],
        "2x": [mul(2, x) for x in range(n)],
        "x mod T^(k-1)": [x & (mask >> 1) for x in range(n)],
        "compatible from m, onto": [x >> m << m | low[0][x & ((1 << m) - 1)] for x in range(n)],
        "compatible from m, into": [x >> m << m | low[1][x & ((1 << m) - 1)] for x in range(n)],
        "short cycle through 0": [x >> j << j | short[x & ((1 << j) - 1)] for x in range(n)],
        "transitive below k, not onto": [v & (mask >> 1) for v in cycle],
        "compatible up to m, random above": up_to_m,
        "onto at j, compatible up to m - 1": onto_at_j,
    }


def test_bijectivity_and_transitivity_equal_the_entry_oracles_on_samples():
    rng = random.Random(16)
    # (compatible, verdict) pairs per oracle: both branches must answer both ways
    seen = {"bijective": set(), "transitive": set()}
    for cls in (FunctionTable, Z2FunctionTable):
        for k in range(3, 13):
            for values in _families(rng, k, cls.ring).values():
                t = cls(k, values)
                _agree_with_the_entry_oracles(t)
                comp = is_compatible(t).levels
                seen["bijective"] |= set(zip(comp, is_bijective_mod(t).levels))
                seen["transitive"] |= set(zip(comp, is_transitive_mod(t).levels))
    assert seen == {key: {(True, True), (True, False), (False, True), (False, False)} for key in seen}


def test_bijectivity_equals_the_set_oracle_on_the_benchmark_samplers():
    rng = random.Random(20)
    for k in range(3, 13):
        for c in (random_ergodic_vdp(rng, k), random_z2_ergodic(rng, k)):
            corrupt = corrupt_vdp if c.ring == "F2T" else corrupt_z2
            for s in (c, corrupt(rng, c), corrupt(rng, c), break_floor(rng, c)):
                t = vdp_table(s)
                assert is_bijective_mod(_fresh(t)) == bijective_by_sets(t)


def test_a_walk_that_first_returns_at_level_k_minus_one_decides_every_level_with_no_set(monkeypatch):
    # x -> (x + 1) mod 2^(k-1) misses half the residues mod 2^k, and is one 2^m-cycle mod 2^m for every m < k
    k = 14
    t = Z2FunctionTable(k, tuple((x + 1) % (1 << (k - 1)) for x in range(1 << k)))
    unpacked = []
    monkeypatch.setattr(dynamics, "unpack", lambda *args: unpacked.append(args) or unpack(*args))
    assert is_bijective_mod(t).levels == (True,) * (k - 1) + (False,) == is_transitive_mod(t).levels
    assert unpacked == []
    assert is_bijective_mod(_fresh(t)) == bijective_by_sets(t)


def test_the_walk_oracle_reads_raw_value_lists_as_is_transitive_mod_reads_tables():
    for values, levels in (([1, 2, 3, 0], (True, True)), ([1, 0, 3, 2], (True, False))):
        assert transitive_by_walks(values, 2).levels == levels
        assert is_transitive_mod(FunctionTable(2, values)).levels == levels


def _returning_maps(k, ring):
    """Compatible maps at precision k whose walk from 0 mod T^m first returns at step 2^m, earlier, or never.

    For m >= 2, Z2 x -> 3x + 1 and F2T x -> x + 1 are back at 0 at step 2^m but first return at step 2^(m-1)
    and 2.  Above level j, x -> x + 2^j first returns at step 2^(m-j) in Z2 and 2 in F2T, where it is an
    involution; at and below level j it fixes 0.  3x and 2x fix 0; 2x + 1 never comes back to 0.
    """
    n, mask = 1 << k, (1 << k) - 1
    add = operator.xor if ring == "F2T" else (lambda x, y: (x + y) & mask)
    mul = (lambda a, x: clmul_trunc(a, x, k)) if ring == "F2T" else (lambda a, x: a * x & mask)
    maps = {"x + 2^%d" % j: [add(x, 1 << j) for x in range(n)] for j in range(k)}
    maps.update({
        "3x + 1": [add(mul(3, x), 1) for x in range(n)],
        "3x": [mul(3, x) for x in range(n)],
        "2x": [mul(2, x) for x in range(n)],
        "2x + 1": [add(mul(2, x), 1) for x in range(n)],
    })
    return maps


@pytest.mark.parametrize("cls", [FunctionTable, Z2FunctionTable], ids=["F2T", "Z2"])
def test_checkpoints_tell_a_short_first_return_from_a_full_one(cls):
    # (step 2^m == 0 mod T^m, step 2^(m-1) == 0 mod T^m, verdict) at every level: a walk back at 0 at step 2^m
    # holds only when it was not back at step 2^(m-1) already
    seen = set()
    for k in range(1, 13):
        for values in _returning_maps(k, cls.ring).values():
            t = cls(k, values)
            assert is_compatible(t).overall is True
            _agree_with_the_entry_oracles(t)
            p = t._checkpoints
            assert p == tuple(orbit(t, 0, (1 << j) + 1)[-1] for j in range(k + 1))
            for m, verdict in enumerate(is_transitive_mod(t).levels, start=1):
                mask = (1 << m) - 1
                seen.add((p[m] & mask == 0, p[m - 1] & mask == 0, verdict))
    assert seen == {(True, False, True), (True, True, False), (False, False, False)}


def test_transitivity_after_compatibility_takes_no_table_sized_memory():
    # the walk reads the table and keeps k + 1 points; the compatibility levels are already the table's
    _, t = gen_cycle(random_data(16, 15))
    assert is_compatible(t).overall is True
    tracemalloc.start()
    try:
        assert is_transitive_mod(t).overall is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_transitive_implies_bijective_on_random_tables():
    rng = random.Random(11)
    seen_transitive = 0
    for _ in range(300):
        t = random_table(rng, 3)
        trans = is_transitive_mod(t)
        bij = is_bijective_mod(t)
        for m in range(1, 4):
            if trans.level(m):
                seen_transitive += 1
                assert bij.level(m)
    assert seen_transitive  # the sample did hit transitive levels


def test_clause_levels_reads_a_clause_only_while_its_level_can_hold():
    asked = []

    def clause(name, holds):
        return lambda level: asked.append((name, level)) or holds(level)

    band, lift = clause("band", lambda d: d < 3), clause("lift", lambda m: m != 3)
    assert dynamics.clause_levels(6, 6, (True, True), band, lift) == ((True,) * 3 + (False,) * 3,
                                                                     (True,) * 2 + (False,) * 4)
    assert asked == [("band", 1), ("lift", 2), ("band", 2), ("lift", 3), ("band", 3)]
    # the floor cuts both kinds of level at top, and nothing is read past it
    asked.clear()
    always = clause("band", lambda d: True), clause("lift", lambda m: True)
    assert dynamics.clause_levels(4, 2, (True, True), *always) == ((True, True, False, False),) * 2
    assert asked == [("band", 1), ("lift", 2)]
    # the start clauses and a floor at 0 decide level 1, and a failed mp start fails ergodicity too
    asked.clear()
    assert dynamics.clause_levels(3, 0, (True, True), *always) == ((False,) * 3,) * 2
    assert dynamics.clause_levels(3, 3, (False, True), *always) == ((False,) * 3,) * 2
    assert asked == []
    assert dynamics.clause_levels(1, 1, (True, False), *always) == ((True,), (False,))


# every coefficient type and its table; each set goes through both bodies, a map and 2^k packed slots
SPARSE_BASES = [(VdpCoefficients, vdp_table), (Z2VdpCoefficients, vdp_table),
                (CarlitzCoefficients, carlitz_table), (MahlerCoefficients, mahler_table)]


def _bodies_scan_alike(c):
    """c as a map and as packed slots: equal scans, and the basis's coefficient oracles.

    Returns the scan.  The oracles read the coefficients one at a time:
    band_scans for van der Put, sparse_floor and ergodic_by_band_scan for
    Carlitz, sparse_floor and mahler_ergodic_by_indices for Mahler.
    """
    k = c.precision
    sparse, packed = type(c)(k, dict(c.a)), type(c)(k, c.B)
    assert "packed" not in vars(sparse) and "packed" in vars(packed) and sparse == packed == c
    assert sparse._scanned == packed._scanned
    top, mp, raw = packed._scanned
    if isinstance(c, VdpCoefficients):
        assert band_scans(c) == (top, LevelVerdicts(mp), LevelVerdicts.below_precision(raw))
    else:
        assert (top == k) == sparse_floor(c, k)
        if isinstance(c, CarlitzCoefficients):
            assert LevelVerdicts.below_precision(raw).levels == ergodic_by_band_scan(c)
        else:
            assert all(raw) == mahler_ergodic_by_indices(c)
    return packed._scanned


def _scan_equals_the_table_oracles(c, table):
    """The scan of c, held both ways, against the table oracles on table(c); returns the verdicts it saw.

    mp level m: compatible through m and bijective mod pi^m; ergodic below
    k: compatible through m and transitive; top == k: compatible at every
    level.
    """
    t, k = table(c), c.precision
    top, mp, raw = _bodies_scan_alike(c)
    assert mp == compatible_through(t, is_bijective_mod(t)).levels
    assert raw[:-1] == compatible_through(t, is_transitive_mod(t)).levels[:-1]
    assert (top == k) == all(brute_compatible(t).levels)
    return {("top", top == k), *(("mp", m, v) for m, v in enumerate(mp, start=1)),
            *(("ergodic", m, v) for m, v in enumerate(raw[:-1], start=1))}


def _both_verdicts_at_every_level(k):
    return {(kind, m, v) for kind, top in (("mp", k), ("ergodic", k - 1)) for m in range(1, top + 1)
            for v in (True, False)} | {("top", True), ("top", False)}


def _uniform(rng, cls, k):
    """A uniform set of cls below 2^k: Carlitz read off a random table, every other basis uniform values."""
    if cls is CarlitzCoefficients:
        return to_carlitz(random_table(rng, k))
    return cls(k, {n: rng.getrandbits(k) for n in range(1 << k)})


def _steered(rng, cls, k, keep=1.0):
    """A set of cls passing every clause, then broken at 0 to 2 of them; each index from 2 up kept with chance `keep`.

    A van der Put set missing an entry fails that band's unit clause.
    """
    if cls in (CarlitzCoefficients, MahlerCoefficients):
        return steered_sparse(rng, cls, k, keep)
    if k < 2:
        return _uniform(rng, cls, k)
    z2 = cls is Z2VdpCoefficients
    c = (random_z2_ergodic if z2 else random_ergodic_vdp)(rng, k)
    for _ in range(rng.choice((0, 0, 1, 2))):
        c = rng.choice((break_floor, corrupt_z2 if z2 else corrupt_vdp))(rng, c)
    return cls(k, {n: v for n, v in c.a.items() if n < 2 or rng.random() < keep})


@pytest.mark.parametrize("cls, table", SPARSE_BASES)
def test_the_sparse_scan_equals_the_table_oracles_in_both_bases(cls, table):
    # on steered sets and on uniform ones, in every basis
    rng = random.Random(22)
    seen = set()
    for k in range(1, 8):
        uniform = [_uniform(rng, cls, k) for _ in range(10)]
        steered = [_steered(rng, cls, k, keep=rng.choice((1.0, 0.7, 1.0 - 1 / k))) for _ in range(290)]
        for c in uniform + steered:
            seen |= _scan_equals_the_table_oracles(c, table)
    assert seen == _both_verdicts_at_every_level(7)


@pytest.mark.parametrize("cls, table", SPARSE_BASES)
def test_the_sparse_scan_equals_the_table_oracles_on_every_small_set(cls, table):
    # every set at k <= 2 with indices below 2^k, and every set on its floor at k = 3: a_n a multiple of
    # pi^floor(log2 n), 8 * 8 * 4^2 * 2^4 sets; each through both bodies
    seen = {1: set(), 2: set(), 3: set()}
    for k in (1, 2):
        for a in itertools.product(range(1 << k), repeat=1 << k):
            seen[k] |= _scan_equals_the_table_oracles(cls(k, dict(enumerate(a))), table)
    floors = [0, 0] + [n.bit_length() - 1 for n in range(2, 8)]
    count = 0
    for a in itertools.product(*(range(0, 8, 1 << d) for d in floors)):
        seen[3] |= _scan_equals_the_table_oracles(cls(3, dict(enumerate(a))), table)
        count += 1
    assert count == 16384
    # every set at k = 1, and every on-floor set at k = 3, is 1-Lipschitz
    assert seen == {k: _both_verdicts_at_every_level(k) - ({("top", False)} if k != 2 else set()) for k in (1, 2, 3)}


@pytest.mark.parametrize("cls, table", SPARSE_BASES)
def test_the_sparse_scan_equals_the_table_oracles_on_steered_sets_to_k10(cls, table):
    rng = random.Random(25)
    for k in (8, 9, 10):
        seen = set()
        for _ in range(20):
            seen |= _scan_equals_the_table_oracles(_steered(rng, cls, k, keep=rng.choice((1.0, 1.0, 0.3))), table)
        # steered sets pass every clause unless broken, so they reach level k
        assert ("mp", k, True) in seen and ("ergodic", k - 1, True) in seen


def _band_data(c):
    """The band data of c's values, read one at a time: (ors, bands) as _scan_data lays them out.

    ors holds the OR of each band d >= 1 holding a value, a map's indices from 2^k up included; bands holds, for
    d = 1..k-1, band d's values B[2^d:2^(d+1)] packed at k + 1 bits a slot.
    """
    k, B, ors = c.precision, c.B, {}
    for n, v in itertools.chain(enumerate(B), ((n, v) for n, v in c.a.items() if n >> k)):
        if n > 1 and v:
            ors[n.bit_length() - 1] = ors.get(n.bit_length() - 1, 0) | v
    return ors, [pack(B[1 << d:2 << d], k + 1)[0] for d in range(1, k)]


def _scan(c):
    """The held body's scan, (ors, band)."""
    return (dynamics._map_scan if c._sparse else dynamics._packed_scan)(c)


def _scan_data(c):
    """The held body's scan: its ors, and band(d) for d = 1..k-1."""
    ors, band = _scan(c)
    return ors, [band(d) for d in range(1, c.precision)]


def _band_sets(rng, cls):
    """Every set of cls at k <= 2, every set on its floor at k = 3, and uniform and steered sets for k = 4..10."""
    sets = [cls(k, dict(enumerate(a))) for k in (1, 2) for a in itertools.product(range(1 << k), repeat=1 << k)]
    floors = [0, 0] + [n.bit_length() - 1 for n in range(2, 8)]
    sets += [cls(3, dict(enumerate(a))) for a in itertools.product(*(range(0, 8, 1 << d) for d in floors))]
    sets += [_uniform(rng, cls, k) for k in range(4, 11) for _ in range(3)]
    return sets + [_steered(rng, cls, k, keep=rng.choice((1.0, 0.7))) for k in range(4, 11) for _ in range(6)]


def _bodies(c):
    """c as a map and as 2^k packed slots."""
    return type(c)(c.precision, dict(c.a)), type(c)(c.precision, c.B)


@pytest.mark.parametrize("cls", [cls for cls, _ in SPARSE_BASES], ids=lambda cls: cls.__name__)
def test_both_scans_return_the_band_data_of_the_values(cls):
    # each set as a map and as packed slots: the scan's per-band ORs and packed bands are those of the values
    for c in _band_sets(random.Random(29), cls):
        for body in _bodies(c):
            assert _scan_data(body) == _band_data(body)


def _clauses_by_values(c):
    """c's start pair, unit(d) for d = 1..k-1 and lift(m) for m = 2..k, read off its 2^k values one at a time.

    Van der Put: b_0 + b_1 and b_0 odd, bit d in every value of band d, and at m = 2 bit 1 of b_0 + b_1, beyond
    bits m - 2 and m - 1 of band m - 2's ring sum mod pi^k against 2 (m = 3) or the `lift` tag.  Carlitz and
    Mahler: c_1 and c_0 odd, bit d in no value of band d, and digit m - 1 of c_(2^(m-1)-1) equal to `lift`.
    """
    k, B = c.precision, c.B
    bands = {d: B[1 << d:2 << d] for d in range(1, k)}
    if isinstance(c, VdpCoefficients):
        low = c.table_type.add(B[0], B[1])
        sums = {d: functools.reduce(c.table_type.add, band) % (1 << k) for d, band in bands.items()}
        return ((low & 1 == 1, B[0] & 1 == 1), [all(v >> d & 1 for v in bands[d]) for d in range(1, k)],
                [low >> 1 & 1 == 1 if m == 2 else sums[m - 2] >> (m - 2) & 3 == (2 if m == 3 else c.lift)
                 for m in range(2, k + 1)])
    return ((B[1] & 1 == 1, B[0] & 1 == 1), [not any(v >> d & 1 for v in bands[d]) for d in range(1, k)],
            [B[(1 << (m - 1)) - 1] >> (m - 1) & 1 == c.lift for m in range(2, k + 1)])


def _lift_is_read(c, m):
    """Whether a level can read lift(m) of c as far as the floor goes: van der Put's needs band m - 2 on its floor."""
    return not isinstance(c, VdpCoefficients) or not any(v % (1 << (m - 2)) for v in c.B[1 << (m - 2):2 << (m - 2)])


@pytest.mark.parametrize("cls", [cls for cls, _ in SPARSE_BASES], ids=lambda cls: cls.__name__)
def test_each_type_states_the_same_clauses_on_both_bodies(cls):
    # clauses() reads single values off the held body and bands off its scan: the start pair, unit(d) for every
    # band d and lift(m) for every level m agree between a map and its packed slots on every set, also where the
    # floor or a lower level keeps the criteria from reading a clause.  They agree with the values read one at a
    # time too, lift(m) wherever a level can read it; more uniform sets at k = 6 and 7, whose one-byte slots a Z2
    # band sum runs past
    rng = random.Random(31)
    seen = set()
    for c in _band_sets(rng, cls) + [_uniform(rng, cls, k) for k in (6, 7) for _ in range(20)]:
        k = c.precision
        got = []
        for body in _bodies(c):
            start, unit, lift = body.clauses(*_scan(body))
            got.append((start, [unit(d) for d in range(1, k)], [lift(m) for m in range(2, k + 1)]))
        assert got[0] == got[1]
        (start, units, lifts), want = got[0], _clauses_by_values(c)
        read = [_lift_is_read(c, m) for m in range(2, k + 1)]
        assert (start, units) == want[:2]
        assert list(itertools.compress(lifts, read)) == list(itertools.compress(want[2], read))
        seen |= {("start", v) for v in start} | {("lift", v) for v in itertools.compress(lifts, read)}
        seen |= {("unit", d, v) for d, v in enumerate(units, start=1)}
    assert seen == {(clause, v) for clause in ("start", "lift") for v in (True, False)} | {
        ("unit", d, v) for d in range(1, 10) for v in (True, False)}


@pytest.mark.parametrize("cls", [CarlitzCoefficients, MahlerCoefficients])
def test_a_map_keeps_the_band_of_an_index_from_2_to_the_k_up(cls):
    # such an index vanishes at every canonical point, so the packed twin drops it, but its value is off its floor
    rng = random.Random(30)
    for k in (1, 2, 5, 9):
        for _ in range(10):
            base = steered_sparse(rng, cls, k)
            high = {(1 << d) + rng.randrange(1 << d): 1 + rng.getrandbits(k) % ((1 << k) - 1)
                    for d in rng.sample(range(k, 3 * k + 2), 2)}
            c, twin = cls(k, {**base.a, **high}), cls(k, base.B)
            ors = _scan_data(c)[0]
            assert ors == _band_data(c)[0] and ors.keys() - _scan_data(twin)[0].keys() == {
                n.bit_length() - 1 for n in high}
            assert c._scanned[0] == min(twin._scanned[0], *(order(v) for v in high.values())) < k


def _redrawn_cycle(rng, ring, k):
    """A generated single cycle at precision k in `ring`, its van der Put band k - 2 redrawn: level k's lift is a coin.

    Every redrawn coefficient keeps its unit clause (B_1 even beside an
    odd B_0 when k = 2), so the set stays compatible and transitive below k.
    """
    _, t = gen_cycle(random_data(rng.getrandbits(32), k - 1))
    c = to_vdp(Z2FunctionTable(k, t.table) if ring == "Z2" else t)
    B, d = list(c.B), k - 2
    for alpha in range(1 << d, 2 << d):
        B[alpha] = (rng.getrandbits(k) << 1 | (d > 0)) << d & ((1 << k) - 1)
    return type(c)(k, B)


def _flipped_chain(rng, k):
    """A steered Carlitz set with the lift digit that level k reads, digit k - 1 of a_{2^(k-1)-1}, flipped at random."""
    c = steered_sparse(rng, CarlitzCoefficients, k)
    n = (1 << (k - 1)) - 1
    return CarlitzCoefficients(k, {**c.a, n: c.a.get(n, 0) ^ rng.getrandbits(1) << (k - 1)})


@pytest.mark.parametrize("build, table", [
    (lambda rng, k: _redrawn_cycle(rng, "F2T", k), vdp_table),
    (lambda rng, k: _redrawn_cycle(rng, "Z2", k), vdp_table),
    (_flipped_chain, carlitz_table),
], ids=["vdp-f2t", "vdp-z2", "carlitz"])
def test_the_raw_level_k_clause_decides_transitivity_at_level_k(build, table):
    # on a set compatible and transitive below k the driver's raw level-k ergodic clause is is_transitive_mod at
    # level k, although the criteria report that level as None
    rng = random.Random(23)
    seen = set()
    for k in range(2, 11):
        for _ in range(30):
            c = build(rng, k)
            t = table(c)
            if not (all(is_compatible(t).levels) and all(is_transitive_mod(t).levels[:-1])):
                continue
            raw = c._scanned[2][-1]
            assert raw == is_transitive_mod(t).level(k)
            assert dynamics.check_ergodic(c).level(k) is (None if raw else False)
            seen.add((k, raw))
    assert seen == {(k, v) for k in range(2, 11) for v in (True, False)}


@pytest.mark.parametrize("first", ["lipschitz", "mp", "ergodic"])
@pytest.mark.parametrize("cls", [CarlitzCoefficients, MahlerCoefficients])
def test_the_first_criterion_on_a_sparse_set_scans_it_once(monkeypatch, cls, first):
    # whichever criterion comes first runs the level loop once, on one pass over a map or one split of the packed
    # bands, and leaves the scan as the set's one memo; the later criteria read it and run neither
    criteria = {"lipschitz": dynamics.check_lipschitz, "mp": dynamics.check_mp, "ergodic": dynamics.check_ergodic}
    loops, splits = [], []
    real_levels, real_split = dynamics.clause_levels, dynamics.split_bands
    monkeypatch.setattr(dynamics, "clause_levels", lambda k, *rest: loops.append(k) or real_levels(k, *rest))
    monkeypatch.setattr(dynamics, "split_bands", lambda w, k, width: splits.append(k) or real_split(w, k, width))
    rng = random.Random(24)
    # the chain a_{2^j-1} that passes every clause at precision 1024: digit j is the lift tag, digits below j are 0
    chain = {0: 1, 1: 1 | cls.lift << 1, **{(1 << j) - 1: (1 << j if cls.lift else 2 << j) & ((1 << 1024) - 1)
                                            for j in range(2, 1024)}}
    sets = [cls(1024, chain), cls(1024, {**chain, 5: 1})] + [steered_sparse(rng, cls, k) for k in (1, 3, 6, 6, 6)]

    class Passes(dict):
        """The stored a_n, counting the passes over them."""
        passes = 0

        def items(self):
            self.passes += 1
            return super().items()

    for c in sets:
        k = c.precision
        # the map, counting its passes, and for a set of table size its 2^k packed slots
        for body in (cls._trusted(k, Passes(c.a)), *([cls(k, c.B)] if k <= 6 else [])):
            verdict = criteria[first](body)
            memos = vars(body).keys() - {"precision", "a", "B", "packed"}
            assert loops == [k] and splits == ([] if body._sparse else [k]) and memos == {"_scanned"}
            verdicts = {name: check(body) for name, check in criteria.items()}
            assert loops == [k] and len(splits) <= 1 and verdicts[first] == verdict
            assert not body._sparse or body.a.passes == 1
            assert verdicts["lipschitz"] is (body._scanned[0] == k)
            loops.clear(), splits.clear()
    assert [dynamics.check_lipschitz(c) for c in sets[:2]] == [True, False]
    assert (dynamics.check_mp(sets[0]).overall, dynamics.check_ergodic(sets[0]).overall) == (True, None)


# five tables past the budget, asked for under a 1 GB address-space cap: the precision alone refuses each of them
_OVER_BUDGET = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from tadic.carlitz import CarlitzCoefficients, carlitz_table
from tadic.cyclegen import CycleData, gen_cycle, random_data
from tadic.mahler import MahlerCoefficients, mahler_table
for call in (lambda: carlitz_table(CarlitzCoefficients(40, {0: 1})), lambda: random_data(0, 40),
             lambda: CarlitzCoefficients(1024, {0: 1}).B, lambda: mahler_table(MahlerCoefficients(1024, {0: 1})),
             lambda: gen_cycle(CycleData._trusted(40, ()))):
    start = time.perf_counter()
    try:
        call()
    except ValueError as exc:
        print(exc, time.perf_counter() - start < 1)
"""


def test_a_table_past_the_budget_is_refused_before_it_is_allocated():
    src = os.path.dirname(os.path.dirname(dynamics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    got = subprocess.run([sys.executable, "-c", _OVER_BUDGET], env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    refusal = "precision %d needs a table of 2^%d entries, over the budget of 2^24 True"
    assert got.stdout.splitlines() == [refusal % (k, k) for k in (40, 41, 1024, 1024, 41)]
