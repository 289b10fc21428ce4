"""Acceptance gate: one test per release-blocking criterion.

Each test name is the -v line for its criterion.  Library verdicts are
always bridged to an independent computation: exhaustive cycle walks,
permutation enumeration, exact polynomial identities, or a numpy replica
of the basis algebra sweeping every table at precision 3.
"""

import itertools
import random
import time
from collections import Counter

import numpy as np

from helpers import (
    binom_mod2,
    compatible_through,
    corrupt_vdp,
    corrupt_z2,
    eval_G,
    eval_Gprime,
    perturbed_reference,
    random_ergodic_vdp,
    random_lipschitz_vdp,
    random_mahler,
    random_mahler_ergodic,
    random_mp_vdp,
    random_table,
    random_z2_compatible,
    random_z2_ergodic,
    reference_coefficients,
    reference_table,
)
from tadic.carlitz import (
    carlitz_table,
    check_ergodic_carlitz,
    check_lipschitz_carlitz,
    to_carlitz,
)
from tadic.cyclegen import CycleData, gen_cycle, random_data
from tadic.dynamics import (
    FunctionTable,
    LevelVerdicts,
    is_bijective_mod,
    is_compatible,
    is_transitive_mod,
    orbit,
    parity_lift,
)
from tadic.gf2ps import clmul, clmul_trunc, trunc
from tadic.vanderput import (
    check_ergodic_vdp,
    check_lipschitz_vdp,
    check_mp_vdp,
    to_vdp,
    vdp_table,
)
from tadic.z2compare import (
    Z2FunctionTable,
    check_ergodic_mahler_z2,
    check_ergodic_z2,
    is_transitive_mod_z2,
    mahler_table,
    to_vdp_z2,
    vdp_table_z2,
)


def test_criterion_01_reference_function_certified_and_transitive_at_k12():
    start = time.monotonic()
    c = reference_coefficients(12)
    t = carlitz_table(c)
    assert is_transitive_mod(t).levels == (True,) * 12
    carl = check_ergodic_carlitz(c)
    assert carl.levels == (True,) * 11 + (None,)
    assert carl.all_determined_true()
    vdp = check_ergodic_vdp(to_vdp(t))
    assert vdp.levels == (True,) * 11 + (None,)
    assert vdp.all_determined_true()
    assert time.monotonic() - start <= 300.0


def test_criterion_02_mp_verdicts_equal_bijectivity_on_1000_random_lipschitz_sets():
    rng = random.Random(0xC2)
    all_true = 0
    for i in range(1000):
        c = random_mp_vdp(rng, 6) if i % 4 == 0 else random_lipschitz_vdp(rng, 6)
        got = check_mp_vdp(c)
        assert got.levels == is_bijective_mod(vdp_table(c)).levels
        if got.overall is True:
            all_true += 1
    assert all_true >= 250


def test_criterion_03_ergodic_verdicts_equal_transitivity_on_random_lipschitz_sets():
    rng = random.Random(0xC3)
    determined = 0
    for i in range(1200):
        steered = i % 12 == 0
        if steered:
            c = random_ergodic_vdp(rng, 6)
        elif i % 12 == 1:
            c = corrupt_vdp(rng, random_ergodic_vdp(rng, 6))
        elif i % 12 in (2, 3):
            c = random_mp_vdp(rng, 6)
        else:
            c = random_lipschitz_vdp(rng, 6)
        got = check_ergodic_vdp(c)
        want = is_transitive_mod(vdp_table(c))
        for m in range(1, 7):
            if got.level(m) is not None:
                assert got.level(m) == want.level(m)
                determined += 1
        if steered:
            assert got.all_determined_true()
            assert want.overall is True
    assert determined >= 1200


def test_criterion_04_vdp_and_carlitz_verdicts_agree_on_sampled_tables_to_k6():
    rng = random.Random(0xC4)
    lipschitz_cases = ergodic_true = 0
    for k in range(1, 7):
        pool = [random_table(rng, k) for _ in range(120)]
        if k >= 2:
            pool += [vdp_table(random_lipschitz_vdp(rng, k)) for _ in range(60)]
            pool += [vdp_table(random_mp_vdp(rng, k)) for _ in range(20)]
            pool += [vdp_table(random_ergodic_vdp(rng, k)) for _ in range(20)]
        for t in pool:
            cv = to_vdp(t)
            cc = to_carlitz(t)
            expect = all(v is True for v in is_compatible(t).levels)
            assert check_lipschitz_vdp(cv) == check_lipschitz_carlitz(cc) == expect
            if expect:
                lipschitz_cases += 1
                ev = check_ergodic_vdp(cv)
                ec = check_ergodic_carlitz(cc)
                assert ev.levels == ec.levels
                if ev.all_determined_true():
                    ergodic_true += 1
            else:
                # off the floor, both bases give the table oracle: compatible
                # at every level j <= m and transitive mod T^m
                oracle = LevelVerdicts.below_precision(compatible_through(t, is_transitive_mod(t)).levels)
                assert check_ergodic_vdp(cv) == check_ergodic_carlitz(cc) == oracle
    assert lipschitz_cases >= 500
    assert ergodic_true >= 100


def test_criterion_05_carlitz_lipschitz_verdict_equals_table_compatibility_at_k5():
    rng = random.Random(0xC5)
    seen = Counter()
    for i in range(550):
        if i % 11 < 4:
            t = random_table(rng, 5)
        else:
            t = vdp_table(random_lipschitz_vdp(rng, 5))
            if i % 11 >= 8:
                vals = list(t.table)
                vals[rng.randrange(32)] ^= 1 << rng.randrange(5)
                t = FunctionTable(5, tuple(vals))
        got = check_lipschitz_carlitz(to_carlitz(t))
        want = all(v is True for v in is_compatible(t).levels)
        assert got == want
        seen[want] += 1
    assert seen[True] >= 150 and seen[False] >= 150


def test_criterion_06_parity_lift_predicts_next_level_transitivity():
    rng = random.Random(0xC6)
    applicable = 0
    for k in (4, 6, 8):
        pool = [vdp_table(random_mp_vdp(rng, k)) for _ in range(40)]
        pool += [vdp_table(random_ergodic_vdp(rng, k)) for _ in range(25)]
        pool.append(reference_table(k))
        pool.append(gen_cycle(random_data(k, k - 1))[1])
        for t in pool:
            trans = is_transitive_mod(t)
            for n in range(1, k):
                if trans.level(n) is True:
                    assert parity_lift(t, n) == trans.level(n + 1)
                    applicable += 1
    assert applicable >= 350


def test_criterion_07_dual_basis_orthogonality_and_addition_formula_hold_exactly():
    start = time.monotonic()
    gmemo, pmemo = {}, {}

    def G(n, x):
        if (n, x) not in gmemo:
            gmemo[n, x] = eval_G(n, x)
        return gmemo[n, x]

    def Gp(s, x):
        if (s, x) not in pmemo:
            pmemo[s, x] = eval_Gprime(s, x)
        return pmemo[s, x]

    for m in range(1, 5):
        for s in range(1 << m):
            for l in range(32):
                total = 0
                for alpha in range(1 << m):
                    total ^= clmul(G(l, alpha), Gp(s, alpha))
                assert total == (1 if l + s == (1 << m) - 1 else 0)
    rng = random.Random(0xC7)
    for _ in range(100):
        t = rng.getrandbits(6)
        x = rng.getrandbits(6)
        for m in range(33):
            got = 0
            for j in range(m + 1):
                if binom_mod2(m, j):
                    got ^= clmul(G(j, t), G(m - j, x))
            assert got == G(m, t ^ x)
    assert time.monotonic() - start <= 60.0


def test_criterion_08_steering_data_always_generates_single_cycles_to_n14():
    rng = random.Random(0xC8)
    for n in range(14):
        for _ in range(50):
            _, t = gen_cycle(random_data(rng.getrandbits(32), n))
            assert sorted(t.table) == list(range(1 << (n + 1)))
            assert is_compatible(t).overall is True
            assert is_transitive_mod(t).overall is True
    start = time.monotonic()
    for _ in range(50):
        _, t = gen_cycle(random_data(rng.getrandbits(32), 14))
        assert sorted(t.table) == list(range(1 << 15))
        assert is_compatible(t).overall is True
        assert is_transitive_mod(t).overall is True
    assert time.monotonic() - start <= 60.0


def test_criterion_09_depth_two_generator_hits_every_admissible_permutation():
    oracle = set()
    for perm in itertools.permutations(range(8)):
        t = FunctionTable(3, perm)
        if is_compatible(t).overall is True and is_transitive_mod(t).overall is True:
            oracle.add(perm)
    counts = Counter()
    for b1 in itertools.product((0, 1), repeat=2):
        for b2 in itertools.product((0, 1), repeat=4):
            _, t = gen_cycle(CycleData(2, (b1, b2)))
            counts[t.table] += 1
    assert set(counts) == oracle
    assert len(counts) == 16
    assert all(v == 4 for v in counts.values())


def test_criterion_10_2adic_checkers_match_brute_force_transitivity():
    rng = random.Random(0xCA)
    certified = 0
    for k in (4, 6, 8, 10):
        for i in range(150):
            steered = i % 3 == 0
            if steered:
                c = random_z2_ergodic(rng, k)
            elif i % 3 == 1:
                c = corrupt_z2(rng, random_z2_ergodic(rng, k))
            else:
                c = random_z2_compatible(rng, k)
            got = check_ergodic_z2(c)
            want = is_transitive_mod_z2(vdp_table_z2(c))
            for m in range(1, k + 1):
                if got.level(m) is not None:
                    assert got.level(m) == want.level(m)
            if steered:
                assert got.all_determined_true()
                assert want.overall is True
                certified += 1
    assert certified == 200
    t14 = Z2FunctionTable(14, tuple((x + 1) & 0x3FFF for x in range(1 << 14)))
    got = check_ergodic_z2(to_vdp_z2(t14))
    assert got.levels == (True,) * 13 + (None,)
    assert got.all_determined_true()
    assert is_transitive_mod_z2(t14).overall is True
    true_cases = 0
    for k in range(3, 9):
        for i in range(100):
            nmax = rng.randrange(2, 16)
            c = random_mahler_ergodic(rng, k, nmax) if i % 2 else random_mahler(rng, k, nmax)
            got = check_ergodic_mahler_z2(c)
            t = mahler_table(c)
            want = is_compatible(t).overall is True and is_transitive_mod_z2(t).overall is True
            assert got == want
            true_cases += got
    assert true_cases >= 250


def test_criterion_11_basis_roundtrips_sampled_to_k8_and_exhaustive_to_k3():
    rng = random.Random(0xCB)
    # sampled identities, both directions of both expansions
    total = 0
    for k, cnt in {1: 150, 2: 150, 3: 150, 4: 300, 5: 250, 6: 150, 7: 100, 8: 50}.items():
        for _ in range(cnt):
            t = random_table(rng, k)
            assert vdp_table(to_vdp(t)).table == t.table
            assert carlitz_table(to_carlitz(t)).table == t.table
            total += 1
    assert total >= 1000
    # exhaustive at k = 1 and k = 2 straight through the library
    for k in (1, 2):
        size = 1 << k
        for packed in range(1 << (k * size)):
            vals = tuple((packed >> (k * e)) & (size - 1) for e in range(size))
            t = FunctionTable(k, vals)
            assert vdp_table(to_vdp(t)).table == vals
            assert carlitz_table(to_carlitz(t)).table == vals
    # k = 3: numpy replica of both expansions, swept over all 2^24 tables
    CL = np.zeros((8, 8), dtype=np.uint8)
    for g in range(8):
        for v in range(8):
            CL[g, v] = clmul_trunc(g, v, 3)
    GP = [[0] * 8 for _ in range(8)]
    for alpha in range(8):
        for n in range(8):
            GP[alpha][n] = trunc(eval_Gprime(7 ^ n, alpha), 3)
    GV = [[trunc(eval_G(n, x), 3) for x in range(8)] for n in range(8)]
    parent = [0, 1] + [m ^ (1 << (m.bit_length() - 1)) for m in range(2, 8)]
    balls = [[x & 1] + [x & ((2 << d) - 1) for d in (1, 2) if (x >> d) & 1]
             for x in range(8)]
    # pin the replica to the library on probe tables before trusting the sweep
    probes = [tuple(rng.randrange(8) for _ in range(8)) for _ in range(300)]
    probes += [tuple(range(8)), (1, 2, 7, 0, 5, 6, 3, 4), (0,) * 8, (7,) * 8]
    for vals in probes:
        t = FunctionTable(3, vals)
        B = [vals[0], vals[1]] + [vals[m] ^ vals[parent[m]] for m in range(2, 8)]
        assert tuple(B) == to_vdp(t).B
        a = []
        for n in range(8):
            acc = 0
            for alpha in range(8):
                acc ^= clmul_trunc(GP[alpha][n], vals[alpha], 3)
            a.append(acc)
        assert {n: v for n, v in enumerate(a) if v} == to_carlitz(t).a
        for x in range(8):
            back = 0
            for n in range(8):
                back ^= clmul_trunc(GV[n][x], a[n], 3)
            assert back == vals[x]
    swept = 0
    for base in range(0, 1 << 24, 1 << 20):
        idx = np.arange(base, base + (1 << 20), dtype=np.uint32)
        cols = [((idx >> (3 * e)) & 7).astype(np.uint8) for e in range(8)]
        B = [cols[0], cols[1]] + [cols[m] ^ cols[parent[m]] for m in range(2, 8)]
        for x in range(8):
            acc = B[balls[x][0]].copy()
            for e in balls[x][1:]:
                acc ^= B[e]
            assert np.array_equal(acc, cols[x])
        a = []
        for n in range(8):
            acc = np.zeros(1 << 20, dtype=np.uint8)
            for alpha in range(8):
                g = GP[alpha][n]
                if g:
                    acc ^= CL[g][cols[alpha]]
            a.append(acc)
        for x in range(8):
            acc = np.zeros(1 << 20, dtype=np.uint8)
            for n in range(8):
                g = GV[n][x]
                if g:
                    acc ^= CL[g][a[n]]
            assert np.array_equal(acc, cols[x])
        swept += 1 << 20
    assert swept == 1 << 24


def test_criterion_12_perturbed_reference_keystreams_have_full_period():
    rng = random.Random(0xCC)
    for i in range(20):
        c = perturbed_reference(rng, 12)
        assert check_ergodic_carlitz(c).all_determined_true()
        t = carlitz_table(c)
        # every level-m walk returns to its start first at step 2^m
        assert is_transitive_mod(t).levels == (True,) * 12
        if i == 0:
            xs = orbit(t, 0, (1 << 12) + 1)
            assert xs[1 << 12] == 0
            assert 0 not in xs[1 : 1 << 12]
            for m in range(1, 13):
                mask = (1 << m) - 1
                period = next(j for j in range(1, len(xs)) if not xs[j] & mask)
                assert period == 1 << m
