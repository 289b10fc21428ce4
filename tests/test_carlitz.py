"""Carlitz basis: constants, special polynomials, extraction, criteria."""

import itertools
import random
import time
import tracemalloc

import pytest

from helpers import (
    REFERENCE_TABLE_K4,
    binom_mod2,
    break_floor,
    brute_compatible,
    butterfly_by_products,
    carlitz_factorial,
    compatible_through,
    constants,
    dense_lipschitz_carlitz,
    digit_masks_by_bytes,
    dual_basis_coefficients,
    eval_E,
    eval_G,
    eval_Gprime,
    eval_H,
    ergodic_by_band_scan,
    eval_e,
    perturbed_reference,
    random_ergodic_vdp,
    random_table,
    reference_coefficients,
    sparse_floor,
)
from tadic import carlitz
from tadic.carlitz import (
    CarlitzCoefficients,
    carlitz_table,
    check_ergodic_carlitz,
    check_lipschitz_carlitz,
    from_carlitz,
    to_carlitz,
)
from tadic.dynamics import FunctionTable, LevelVerdicts, is_transitive_mod, restrict
from tadic.gf2ps import clmul, pack, trunc
from tadic.vanderput import check_ergodic_vdp, to_vdp, vdp_table


def test_constants_low_levels():
    one = constants(0)
    assert (one.L, one.D) == (1, 1)
    lvl1 = constants(1)
    assert (lvl1.bracket, lvl1.L, lvl1.D) == (0x6, 0x6, 0x6)
    lvl2 = constants(2)
    assert (lvl2.bracket, lvl2.L, lvl2.D) == (0x12, 0x6C, 0x168)
    with pytest.raises(ValueError):
        constants(-1)


def test_factorial_values_and_ladder():
    assert carlitz_factorial(0) == 1
    assert carlitz_factorial(3) == 0x6
    # climbing by one step multiplies by L at the carried level
    assert clmul(carlitz_factorial(1), constants(1).L) == carlitz_factorial(2)
    for n in range(1, 33):
        nu = (n & -n).bit_length() - 1
        assert clmul(carlitz_factorial(n - 1), constants(nu).L) == carlitz_factorial(n)


def test_binomials_mod_two():
    assert binom_mod2(3, 1) == 1
    assert binom_mod2(4, 2) == 0
    for n in range(0, 12):
        assert binom_mod2(n, 0) == 1


def test_defining_product_values():
    assert eval_e(0, 5) == 5
    assert eval_e(1, 2) == 0x6
    assert eval_E(2, 4) == 1
    assert eval_E(1, 2) == 1


def test_e_is_additive_on_exact_points():
    rng = random.Random(9)
    for d in range(7):
        for _ in range(20):
            x, y = rng.getrandbits(9), rng.getrandbits(9)
            assert eval_e(d, x) ^ eval_e(d, y) == eval_e(d, x ^ y)


def test_E_vanishes_below_its_level():
    for i in range(5):
        for x in range(1 << i):
            assert eval_E(i, x) == 0


def test_G_special_values():
    assert eval_G(2, 2) == 1
    assert eval_G(2, 3) == 1
    assert eval_G(3, 2) == 2
    assert eval_G(2, 4) == 0x6
    for n in range(2, 8):
        assert eval_G(n, 1) == 0
    for n in range(1, 8):
        assert eval_G(n, 0) == 0
    assert eval_G(1, 5) == 5


def test_Gprime_special_values():
    for alpha in range(8):
        assert eval_Gprime(0, alpha) == 1
    assert eval_Gprime(1, 0) == 1
    assert eval_Gprime(1, 1) == 0
    assert eval_Gprime(3, 2) == 0


def test_H_values_and_domain():
    assert eval_H(0, 1) == 1
    assert eval_H(0, 7) == 1
    assert eval_H(1, 2) == 0x3
    assert eval_H(1, 1) == 0
    with pytest.raises(ValueError, match="H undefined at 0"):
        eval_H(1, 0)


def test_H_is_a_polynomial_on_sampled_inputs():
    # the defining quotient divides exactly for every n and point tried
    for n in range(0, 9):
        for x in range(1, 16):
            eval_H(n, x)


def test_to_carlitz_identity_and_constant():
    assert to_carlitz(FunctionTable(3, tuple(range(8)))).a == {1: 1}
    assert to_carlitz(FunctionTable(3, (1,) * 8)).a == {0: 1}


def test_to_carlitz_reference_table():
    c = to_carlitz(FunctionTable(4, REFERENCE_TABLE_K4))
    assert c.a == {0: 1, 1: 3, 3: 4, 7: 8}


def test_from_carlitz_known_values():
    assert from_carlitz(CarlitzCoefficients(3, {1: 1}), 5) == 5
    assert from_carlitz(CarlitzCoefficients(3, {0: 1}), 6) == 1
    assert from_carlitz(reference_coefficients(4), 2) == 0xF


def test_to_carlitz_matches_the_dual_basis_oracle():
    rng = random.Random(12)
    for k in range(1, 8):
        for _ in range(4):
            t = random_table(rng, k)
            assert to_carlitz(t) == dual_basis_coefficients(t)


def test_dense_and_sparse_table_paths_agree():
    rng = random.Random(13)
    k = 4
    for _ in range(25):
        t = random_table(rng, k)
        c = to_carlitz(t)
        rebuilt = carlitz_table(c)
        pointwise = tuple(from_carlitz(c, x) for x in range(1 << k))
        assert rebuilt.table == pointwise
        assert rebuilt.table == t.table
    # sparse sets, with stored indices past 2^k that vanish at canonical points
    for k in range(1, 11):
        for _ in range(3):
            a = {rng.randrange(1 << (k + 2)): rng.getrandbits(k) for _ in range(rng.randrange(1, 2 * k + 2))}
            c = CarlitzCoefficients(k, a)
            assert carlitz_table(c).table == tuple(from_carlitz(c, x) for x in range(1 << k))


def _agree_pointwise(c, rng, samples):
    """carlitz_table(c) equals from_carlitz at 0, 2^k - 1 and sampled points, and its packed form is pack's own."""
    k = c.precision
    t = carlitz_table(c)
    assert t.packed == pack(t.table, k + 1)
    for x in [0, (1 << k) - 1] + [rng.randrange(1 << k) for _ in range(samples)]:
        assert t.table[x] == from_carlitz(c, x)
    return t


@pytest.mark.parametrize("k", [13, 17])
def test_sparse_sets_pack_straight_from_their_entries(k):
    rng = random.Random(k)
    _agree_pointwise(CarlitzCoefficients(k, {rng.randrange(1 << (k + 2)): rng.getrandbits(k) for _ in range(3 * k)}), rng, 498)


@pytest.mark.parametrize("fill", ["random", "all-ones", "odd-digit-table"])
@pytest.mark.parametrize("k", [9, 15, 17])
def test_dense_sets_pack_straight_from_their_entries(k, fill):
    # past k = 12, where a product per pair of points is too slow, the butterfly still masks the shifts that
    # would spill out of the table's slots: every top shift at k = 9 and most shifts at k = 15 (16-bit
    # slots), and the shifts by 16 at k = 17 (32-bit slots)
    rng = random.Random(k)
    ones, table = (1 << k) - 1, None
    if fill == "random":
        c = dense_lipschitz_carlitz(rng, k)
    elif fill == "all-ones":
        c = CarlitzCoefficients(k, {n: ones >> max(n.bit_length() - 1, 0) << max(n.bit_length() - 1, 0) for n in range(1 << k)})
    else:
        # all ones on the indices with an odd digit count: every factor multiplies k-bit values of all ones
        table = tuple(ones if n.bit_count() & 1 else 0 for n in range(1 << k))
        c = to_carlitz(FunctionTable(k, table))
    t = _agree_pointwise(c, rng, 1 << max(17 - k, 1))
    assert to_carlitz(t) == c
    assert table is None or t.table == table


def _agree_with_products(values, k):
    """Both packed transforms of one list of values equal the product-per-pair oracle, and they invert each other."""
    c = CarlitzCoefficients(k, dict(enumerate(values)))
    assert to_carlitz(FunctionTable(k, values)) == CarlitzCoefficients(k, dict(enumerate(butterfly_by_products(values, k, False))))
    assert carlitz_table(c).table == tuple(butterfly_by_products(values, k, True))
    assert to_carlitz(carlitz_table(c)) == c


def test_packed_butterfly_equals_products_on_every_table_to_k2():
    for k in (1, 2):
        for values in itertools.product(range(1 << k), repeat=1 << k):
            _agree_with_products(values, k)


@pytest.mark.parametrize("k", range(3, 13))
def test_packed_butterfly_equals_products_on_random_tables(k):
    # the table's slots widen from one byte to two at k = 8 (and from two to four at k = 16); the shifts that
    # would spill out of them are masked at k = 5..7 and 9..12
    rng = random.Random(k)
    for _ in range(3 if k < 10 else 1):
        _agree_with_products(tuple(rng.getrandbits(k) for _ in range(1 << k)), k)


@pytest.mark.parametrize("fill", ["every-slot", "odd-digit-count"])
@pytest.mark.parametrize("k", range(1, 13))
def test_packed_butterfly_equals_products_on_all_ones_slots(k, fill):
    # the most bits a product can push past T^k: they stay in the slot until the butterfly's one cut at the end,
    # except on the shifts that would carry them into the next slot, whose factor is masked first.  Equal
    # slots cancel in the first sum of each block; all ones on the indices with an odd digit count and zero
    # elsewhere make every first sum all ones, so each factor multiplies k-bit values of all ones.
    ones = (1 << k) - 1
    _agree_with_products(tuple(ones if fill == "every-slot" or n.bit_count() & 1 else 0 for n in range(1 << k)), k)


def test_level_shifts_are_the_set_bits_of_the_exact_E_values():
    # E_i(T^j) from the defining product over F2[T], not from the recurrence the library runs
    for k in range(1, 11):
        size = pack((), k + 1)[1]
        first, shifts = carlitz._level_shifts(k, size)
        assert [len(level) for level in shifts] == list(range(k))
        for j, level in enumerate(shifts):
            for i, (fits, spills) in enumerate(level):
                c, cut = trunc(eval_E(i, 1 << j), k), size << (i + 3)
                assert tuple(cut - d for d in fits) + tuple(s for _, s in spills) == tuple(s for s in range(k) if c >> s & 1)
                # a shift spills exactly when it would carry a k-bit value out of its slot
                assert all(k - 1 + cut - d < size << 3 for d in fits)
                assert all(d == cut - s and k - 1 + s >= size << 3 for d, s in spills)
        assert first == (size << 3) - k + 1
    # one shift and one XOR per set bit: 122 of each per direction at k = 9, 20 of them masked
    shifts = [pair for level in carlitz._level_shifts(9, 2)[1] for pair in level]
    assert sum(len(fits) + len(spills) for fits, spills in shifts) == 122
    assert sum(len(spills) for _, spills in shifts) == 20
    # the table's slots already hold every product at k = 8 and 16: no shift is masked there
    assert not any(spills for k in (8, 16) for level in carlitz._level_shifts(k, pack((), k + 1)[1])[1] for _, spills in level)


def test_digit_masks_derived_by_shifts_equal_the_byte_built_ones():
    # every slot width that holds k bits, not only the table's: 1, 2, 4 and 8 bytes up to k = 17
    for k in range(1, 18):
        for size in (1, 2, 4, 8):
            if k <= size << 3:
                assert carlitz._digit_masks(k, size) == digit_masks_by_bytes(k, size), (k, size)


def test_dense_round_trip_at_k16_stays_fast_and_small():
    # one truncated product per pair of points took about 7 s for this round trip on two vCPUs
    c = dense_lipschitz_carlitz(random.Random(16), 16)
    start = time.perf_counter()
    assert to_carlitz(carlitz_table(c)) == c
    assert time.perf_counter() - start < 3.0
    tracemalloc.start()
    try:
        carlitz_table(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a mask kept per pair of digits (i, j) peaks at about 40 MB here
    assert peak < 16e6


def _word_precision_set(rng, k):
    """A 1-Lipschitz set at precision k mixing low indices with indices up to 2^k."""
    a = dict(perturbed_reference(rng, 12).a)
    for _ in range(12):
        n = rng.randrange(2, 1 << rng.choice((5, 10, k)))
        bound = n.bit_length() - 1
        a[n] = rng.getrandbits(k - bound) << bound if bound < k else 0
    return CarlitzCoefficients(k, a)


@pytest.mark.parametrize("k", [32, 64])
def test_from_carlitz_equals_the_exact_sum_at_word_precision(k):
    rng = random.Random(k)
    c = _word_precision_set(rng, k)
    for x in [0, 1, 2, 0x155, 0x3FF] + [rng.randrange(1 << 10) for _ in range(3)]:
        exact = 0
        for n, v in c.a.items():
            exact ^= clmul(v, eval_G(n, x))
        assert from_carlitz(c, x) == trunc(exact, k)


@pytest.mark.parametrize("k", [40, 64])
def test_from_carlitz_commutes_with_restriction(k):
    rng = random.Random(k)
    # reduction mod T^24 is a ring map, so reducing the set or the value
    # must agree at full-degree points; too few guard digits break this
    c = CarlitzCoefficients(k, {n: rng.getrandbits(k) for n in [rng.randrange(1 << 24) for _ in range(30)]})
    cut = restrict(c, 24)
    for x in [(1 << 24) - 1] + [rng.getrandbits(24) | (1 << 23) for _ in range(10)]:
        assert from_carlitz(cut, x) == trunc(from_carlitz(c, x), 24)
    # a 1-Lipschitz set reads mod T^8 like its k = 8 table at x mod T^8
    c = _word_precision_set(rng, k)
    assert check_lipschitz_carlitz(c)
    low = carlitz_table(restrict(c, 8)).table
    for x in [rng.getrandbits(k) for _ in range(40)] + [(1 << k) - 1, 0xFF]:
        assert trunc(from_carlitz(c, x), 8) == low[x & 0xFF]


def test_lipschitz_criterion_known_values():
    assert check_lipschitz_carlitz(CarlitzCoefficients(3, {0: 1, 1: 1})) is True
    assert check_lipschitz_carlitz(CarlitzCoefficients(3, {2: 1})) is False
    assert check_lipschitz_carlitz(reference_coefficients(5)) is True
    # past 2^k a zero is not stored and refutes nothing; any stored value is off its floor
    zeros = CarlitzCoefficients(3, {0: 1, 9: 0, 20: 0})
    assert zeros.a == {0: 1} and check_lipschitz_carlitz(zeros) is True
    assert check_lipschitz_carlitz(CarlitzCoefficients(3, {0: 1, 9: 4})) is False


def test_ergodic_criterion_known_values():
    verdicts = check_ergodic_carlitz(reference_coefficients(4))
    assert verdicts.levels == (True, True, True, None)
    assert verdicts.all_determined_true()
    affine = check_ergodic_carlitz(CarlitzCoefficients(3, {0: 1, 1: 1}))
    assert affine.level(1) is True and affine.level(2) is False
    identity = check_ergodic_carlitz(CarlitzCoefficients(3, {1: 1}))
    assert identity.level(1) is False
    # a_2 = 1 sits below its floor T: not 1-Lipschitz even mod T
    assert check_ergodic_carlitz(CarlitzCoefficients(3, {2: 1})).levels == (False, False, False)


def test_the_floor_is_the_first_clause_of_every_level():
    # a_9 = 1 has order 0 under its floor T^3: not 1-Lipschitz even mod T
    c = CarlitzCoefficients(5, {9: 1, 0: 1, 1: 1, 5: 2, 4: 4})
    assert not check_lipschitz_carlitz(c)
    assert check_ergodic_carlitz(c).levels == (False,) * 5
    # the least order decides: a_9 = T^2 (order 2) leaves levels 1 and 2, adding a_5 = T (order 1) only level 1
    a = dict(reference_coefficients(5).a)
    assert check_ergodic_carlitz(CarlitzCoefficients(5, {**a, 9: 4})).levels == (True, True, False, False, False)
    assert check_ergodic_carlitz(CarlitzCoefficients(5, {**a, 9: 4, 5: 2})).levels == (True, False, False, False, False)
    # past the precision the floor refutes any nonzero a_n: a_9 = T at k = 3
    a = dict(reference_coefficients(3).a)
    assert check_ergodic_carlitz(CarlitzCoefficients(3, a)).levels == (True, True, None)
    assert check_ergodic_carlitz(CarlitzCoefficients(3, {**a, 9: 2})).levels == (True, False, False)


def test_ergodic_criterion_matches_a_band_scan_on_sparse_sets():
    rng = random.Random(21)
    falses = 0
    for k in range(2, 11):
        for _ in range(30):
            a = dict(perturbed_reference(rng, k).a)
            for _ in range(rng.randrange(3)):
                # a coefficient sitting exactly on its Lipschitz floor breaks its band
                n = rng.randrange(2, 1 << k)
                a[n] = 1 << (n.bit_length() - 1)
            if rng.random() < 0.3:
                a[1] = a.get(1, 0) ^ 2
            c = CarlitzCoefficients(k, a)
            got = check_ergodic_carlitz(c).levels
            assert got == ergodic_by_band_scan(c)
            falses += False in got
    assert 50 < falses < 250


def test_both_criteria_answer_alike_in_either_order_on_fresh_sets():
    # the two criteria share one cached scan per set, and whichever runs first fills it
    rng = random.Random(19)
    lipschitz = set()
    for k in range(2, 9):
        for _ in range(10):
            dense = dict(dense_lipschitz_carlitz(rng, k).a)
            n = rng.randrange(2, 1 << k)
            off = {**dense, n: dense.get(n, 0) | 1 << rng.randrange(n.bit_length() - 1)}
            sparse = {rng.randrange(1 << (k + 1)): rng.getrandbits(k) for _ in range(k)}
            for a in (dense, off, dict(perturbed_reference(rng, k).a), sparse):
                first, second = CarlitzCoefficients(k, a), CarlitzCoefficients(k, a)
                forward = check_lipschitz_carlitz(first), check_ergodic_carlitz(first).levels
                backward = check_ergodic_carlitz(second).levels, check_lipschitz_carlitz(second)
                assert forward == backward[::-1] == (sparse_floor(first, k), ergodic_by_band_scan(first))
                lipschitz.add(forward[0])
    assert lipschitz == {True, False}


def _agree_with_both_oracles(c):
    """The criterion equals the band scan and the table oracle; returns whether c is 1-Lipschitz."""
    t = carlitz_table(c)
    lipschitz = check_lipschitz_carlitz(c)
    assert lipschitz == sparse_floor(c, c.precision) == all(brute_compatible(t).levels)
    got = check_ergodic_carlitz(c)
    transitive = compatible_through(t, is_transitive_mod(t))
    assert got.levels == ergodic_by_band_scan(c) == LevelVerdicts.below_precision(transitive.levels).levels
    # the floor is the same level clause in both bases
    assert got == check_ergodic_vdp(to_vdp(t))
    return lipschitz


def test_ergodic_criterion_equals_both_oracles_on_every_set_to_k2():
    lipschitz = 0
    for k in (1, 2):
        for values in itertools.product(range(1 << k), repeat=1 << k):
            lipschitz += _agree_with_both_oracles(to_carlitz(FunctionTable(k, values)))
    assert lipschitz == 4 + 64


def test_ergodic_criterion_equals_both_oracles_on_broken_floors_to_k6():
    rng = random.Random(23)
    partly = 0
    for k in range(3, 7):
        for _ in range(40):
            # dense sets from van der Put sets pushed off their floor, and sparse ones
            dense = to_carlitz(vdp_table(break_floor(rng, random_ergodic_vdp(rng, k), flips=rng.randrange(1, 3))))
            a = dict(perturbed_reference(rng, k).a)
            n = rng.randrange(2, 1 << k)
            a[n] = a.get(n, 0) | 1 << rng.randrange(n.bit_length() - 1)
            for c in (dense, CarlitzCoefficients(k, a)):
                assert not _agree_with_both_oracles(c)
                partly += check_ergodic_carlitz(c).level(1) is True
    assert partly > 40


@pytest.mark.parametrize("k", [40, 64])
def test_ergodic_criterion_is_linear_in_the_stored_indices(k):
    start = time.monotonic()
    assert check_ergodic_carlitz(reference_coefficients(k)).levels == (True,) * (k - 1) + (None,)
    if k == 40:
        deep = dict(reference_coefficients(k).a)
        deep[(1 << 30) + 5] = 1 << 30
        c = CarlitzCoefficients(k, deep)
        assert check_lipschitz_carlitz(c)
        assert check_ergodic_carlitz(c).levels == (True,) * 30 + (False,) * 10
    assert time.monotonic() - start < 1.0


def test_restrict_drops_the_values_that_vanish():
    c = reference_coefficients(4)
    cut = restrict(c, 2)
    # a_3 = T^2 and a_7 = T^3 are 0 mod T^2, so they are not stored
    assert cut.a == {0: 1, 1: 3}
    assert restrict(CarlitzCoefficients(4, {9: 6, 20: 4}), 2).a == {9: 2}
    with pytest.raises(ValueError):
        restrict(c, 0)


def test_json_roundtrip():
    c = reference_coefficients(4)
    obj = c.json_dict()
    assert obj["ring"] == "F2T" and obj["basis"] == "carlitz"
    assert CarlitzCoefficients.from_json_dict(obj) == c
    with pytest.raises(ValueError):
        CarlitzCoefficients.from_json_dict({"ring": "F2T", "basis": "vanderput", "precision": 2, "coeffs": {}})


def test_coefficient_validation():
    with pytest.raises(ValueError):
        CarlitzCoefficients(0, {})
    with pytest.raises(ValueError):
        CarlitzCoefficients(2, {-1: 1})
    with pytest.raises(ValueError):
        CarlitzCoefficients(2, {0: 4})
    assert CarlitzCoefficients(2, {0: 0, 1: 2}).a == {1: 2}
