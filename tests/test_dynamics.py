"""Table oracles: compatibility, bijectivity, transitivity, parity lift, orbits, and the point rule of every evaluator."""

import itertools
import operator
import random
import tracemalloc

import pytest

from helpers import (
    REFERENCE_TABLE_K4,
    bijective_by_sets,
    break_floor,
    brute_compatible,
    compatible_through,
    corrupt_vdp,
    corrupt_z2,
    random_ergodic_vdp,
    random_mahler,
    random_table,
    random_z2_ergodic,
    reference_coefficients,
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
from tadic.gf2ps import clmul_trunc, unpack
from tadic.vanderput import Z2VdpCoefficients, from_vdp, to_vdp, vdp_table
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


SPARSE_BASES = [(CarlitzCoefficients, carlitz_table), (MahlerCoefficients, mahler_table)]


def _scan_equals_the_table_oracles(c, table):
    """The sparse scan of c against the table oracles on table(c); returns the verdicts it saw.

    mp level m: compatible through m and bijective mod pi^m; ergodic below
    k: compatible through m and transitive; top == k: compatible at every
    level.
    """
    t, k = table(c), c.precision
    top, mp, raw = c._scanned
    assert mp == compatible_through(t, is_bijective_mod(t)).levels
    assert raw[:-1] == compatible_through(t, is_transitive_mod(t)).levels[:-1]
    assert (top == k) == all(brute_compatible(t).levels)
    return {("top", top == k), *(("mp", m, v) for m, v in enumerate(mp, start=1)),
            *(("ergodic", m, v) for m, v in enumerate(raw[:-1], start=1))}


def _both_verdicts_at_every_level(k):
    return {(kind, m, v) for kind, top in (("mp", k), ("ergodic", k - 1)) for m in range(1, top + 1)
            for v in (True, False)} | {("top", True), ("top", False)}


@pytest.mark.parametrize("cls, table", SPARSE_BASES)
def test_the_sparse_scan_equals_the_table_oracles_in_both_bases(cls, table):
    # on steered sets and on uniform ones
    rng = random.Random(22)
    seen = set()
    for k in range(1, 8):
        uniform = [to_carlitz(random_table(rng, k)) if cls is CarlitzCoefficients else
                   random_mahler(rng, k, (1 << k) - 1) for _ in range(10)]
        for c in uniform + [steered_sparse(rng, cls, k, keep=rng.choice((1.0, 0.7))) for _ in range(290)]:
            seen |= _scan_equals_the_table_oracles(c, table)
    assert seen == _both_verdicts_at_every_level(7)


@pytest.mark.parametrize("cls, table", SPARSE_BASES)
def test_the_sparse_scan_equals_the_table_oracles_on_every_small_set(cls, table):
    # every set at k <= 2 with indices below 2^k, and every set on its floor at k = 3: a_n a multiple of
    # pi^floor(log2 n), 8 * 8 * 4^2 * 2^4 sets
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
            seen |= _scan_equals_the_table_oracles(steered_sparse(rng, cls, k, keep=rng.choice((1.0, 0.3))), table)
        # steered sets pass every clause unless broken, so they reach level k
        assert ("mp", k, True) in seen and ("ergodic", k - 1, True) in seen


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
    return CarlitzCoefficients(k, {**c.a, n: c.coeff(n) ^ rng.getrandbits(1) << (k - 1)})


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


@pytest.mark.parametrize("cls", [CarlitzCoefficients, MahlerCoefficients])
def test_a_lipschitz_check_on_a_sparse_set_reads_only_its_floor(monkeypatch, cls):
    # check_lipschitz never runs the level loop; a later mp or ergodic check runs it once, on the same floor pass
    loops = []
    real = dynamics.clause_levels
    monkeypatch.setattr(dynamics, "clause_levels", lambda k, *rest: loops.append(k) or real(k, *rest))
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
        c = cls._trusted(k, Passes(c.a))
        lipschitz = dynamics.check_lipschitz(c)
        assert loops == [] and "_scanned" not in vars(c)
        dynamics.check_mp(c), dynamics.check_ergodic(c)
        assert loops == [k] and c.a.passes == 1
        assert lipschitz is (c._scanned[0] == k)
        loops.clear()
    assert [dynamics.check_lipschitz(c) for c in sets[:2]] == [True, False]
    assert (dynamics.check_mp(sets[0]).overall, dynamics.check_ergodic(sets[0]).overall) == (True, None)
