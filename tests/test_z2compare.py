"""2-adic reference side: expansion, criteria, Mahler basis, oracles."""

import itertools
import random
import time

import pytest

from helpers import (
    binom_mod2,
    brute_compatible,
    corrupt_z2,
    exact_mahler_eval,
    exact_mahler_table,
    mahler_ergodic_by_indices,
    random_mahler,
    random_mahler_ergodic,
    random_z2_compatible,
    random_z2_ergodic,
    random_z2_table,
    scaled_vdp,
    steered_sparse,
)
from tadic import z2compare
from tadic.dynamics import is_bijective_mod, is_compatible
from tadic.vanderput import check_lipschitz_vdp, check_mp_vdp, from_vdp, restrict, to_vdp, vdp_table
from tadic.z2compare import (
    MahlerCoefficients,
    Z2FunctionTable,
    Z2VdpCoefficients,
    check_ergodic_mahler_z2,
    check_ergodic_z2,
    check_mp_z2,
    is_transitive_mod_z2,
    mahler_eval,
    mahler_table,
    to_vdp_z2,
    vdp_table_z2,
)


def _table_of(k, fn):
    mask = (1 << k) - 1
    return Z2FunctionTable(k, tuple(fn(x) & mask for x in range(1 << k)))


def test_to_vdp_z2_affine_and_identity():
    c = to_vdp_z2(_table_of(4, lambda x: x + 1))
    assert c.B[0] == 1 and c.B[1] == 2
    for m in range(2, 16):
        assert c.B[m] == 1 << (m.bit_length() - 1)
        assert scaled_vdp(c, m) == 1
    ident = to_vdp_z2(_table_of(4, lambda x: x))
    assert ident.B[0] == 0 and ident.B[1] == 1
    assert all(scaled_vdp(ident, m) == 1 for m in range(2, 16))
    const = to_vdp_z2(_table_of(3, lambda x: 5))
    assert const.B[0] == const.B[1] == 5
    assert all(v == 0 for v in const.B[2:])


def test_vdp_z2_roundtrip_on_random_compatible_sets():
    rng = random.Random(21)
    for _ in range(50):
        c = random_z2_compatible(rng, 5)
        assert to_vdp_z2(vdp_table_z2(c)) == c
    t = random_z2_table(rng, 4)
    assert vdp_table_z2(to_vdp_z2(t)).table == t.table


def test_from_vdp_z2_adds_with_carries():
    c = Z2VdpCoefficients(3, (3, 3, 2, 2, 0, 0, 0, 0))
    # f(3) = B_1 + B_3 = 5, unlike the XOR sum 1
    assert from_vdp(c, 3) == 5


def test_scaled_accessor_requires_divisibility():
    c = Z2VdpCoefficients(3, (0, 0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="does not divide"):
        scaled_vdp(c, 2)


def test_mp_criterion_z2():
    assert check_mp_z2(to_vdp_z2(_table_of(4, lambda x: x))) is True
    assert check_mp_z2(to_vdp_z2(_table_of(4, lambda x: x + 1))) is True
    assert check_mp_z2(to_vdp_z2(_table_of(4, lambda x: 0))) is False


def test_ergodic_criterion_z2_known_values():
    plus_one = check_ergodic_z2(to_vdp_z2(_table_of(4, lambda x: x + 1)))
    assert plus_one.levels == (True, True, True, None)
    assert plus_one.all_determined_true()
    ident = check_ergodic_z2(to_vdp_z2(_table_of(4, lambda x: x)))
    assert ident.level(1) is False
    plus_two = check_ergodic_z2(to_vdp_z2(_table_of(4, lambda x: x + 2)))
    assert plus_two.level(1) is False


def test_ergodic_criterion_z2_answers_on_non_compatible_input():
    # B_2 = 1 sits below its floor 2, so the map is not compatible even mod 2
    c = Z2VdpCoefficients(3, (1, 2, 1, 2, 4, 4, 4, 4))
    assert check_ergodic_z2(c).levels == (False, False, False)
    assert check_mp_z2(c) is False
    # B_4 = 6 has order 1 under its floor 4: compatible through level 1 only, a single cycle there
    c = Z2VdpCoefficients(3, (1, 2, 2, 2, 6, 4, 4, 4))
    assert check_ergodic_z2(c).levels == (True, False, False)
    assert check_mp_z2(c) is False
    t = vdp_table_z2(c)
    assert is_transitive_mod_z2(t).level(1) and not is_compatible(t).level(2)


def test_mahler_eval_known_values():
    assert mahler_eval(MahlerCoefficients(3, {2: 1}), 3) == 3
    assert mahler_eval(MahlerCoefficients(3, {2: 1}), 4) == 6
    for x in range(8):
        assert mahler_eval(MahlerCoefficients(3, {1: 1}), x) == x


def test_mahler_ergodic_criterion_known_values():
    assert check_ergodic_mahler_z2(MahlerCoefficients(4, {0: 1, 1: 1})) is True
    assert check_ergodic_mahler_z2(MahlerCoefficients(4, {0: 1, 1: 1, 2: 2})) is False
    assert check_ergodic_mahler_z2(MahlerCoefficients(4, {0: 2, 1: 1})) is False


def test_mahler_criterion_equals_the_index_oracle_on_every_small_set():
    trues = count = 0
    for k, stored in ((1, 4), (2, 6), (3, 5)):
        for values in itertools.product(range(1 << k), repeat=stored):
            c = MahlerCoefficients(k, dict(enumerate(values)))
            got = check_ergodic_mahler_z2(c)
            assert got is mahler_ergodic_by_indices(c)
            trues += got
            count += 1
    assert count == 36880 and trues == 1 + 2 + 16


def test_mahler_criterion_equals_the_index_oracle_on_samples():
    rng = random.Random(22)
    trues = 0
    for k in range(1, 11):
        for _ in range(40):
            sets = [random_mahler(rng, k, (1 << k) + 3), steered_sparse(rng, MahlerCoefficients, k, keep=rng.random())]
            # an index from 2^k up is off the floor in both forms
            past = {**sets[1].a, rng.randrange(1 << k, (1 << k) + 4): rng.getrandbits(k)}
            for c in sets + [MahlerCoefficients(k, past)]:
                got = check_ergodic_mahler_z2(c)
                assert got is mahler_ergodic_by_indices(c)
                trues += got
    assert 40 < trues < 300


def test_transitivity_oracle_z2():
    assert is_transitive_mod_z2(_table_of(4, lambda x: x + 1)).overall is True
    assert is_transitive_mod_z2(_table_of(4, lambda x: x)).overall is False
    assert is_transitive_mod_z2(_table_of(4, lambda x: x + 2)).level(1) is False


def test_bit_identical_tables_share_bijectivity_verdicts():
    rng = random.Random(22)
    from tadic.dynamics import FunctionTable

    for _ in range(40):
        zt = random_z2_table(rng, 4)
        ft = FunctionTable(4, zt.table)
        series_verdicts = is_bijective_mod(ft).levels
        adic_verdicts = []
        for m in range(1, 5):
            size = 1 << m
            mask = size - 1
            adic_verdicts.append(len({v & mask for v in zt.table[:size]}) == size)
        assert series_verdicts == tuple(adic_verdicts)


def test_restrictions_truncate_consistently():
    rng = random.Random(23)
    c = random_z2_compatible(rng, 5)
    cut = restrict(c, 3)
    assert cut.precision == 3
    assert cut.B == tuple(v & 7 for v in c.B[:8])
    m = MahlerCoefficients(5, {0: 9, 1: 17, 3: 8})
    mcut = restrict(m, 3)
    assert mcut.a == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        restrict(c, 0)
    with pytest.raises(ValueError):
        restrict(m, 6)


def test_json_roundtrips():
    t = _table_of(3, lambda x: x + 3)
    assert Z2FunctionTable.from_json_dict(t.json_dict()) == t
    c = to_vdp_z2(t)
    obj = c.json_dict()
    assert obj["ring"] == "Z2" and obj["basis"] == "vanderput"
    assert Z2VdpCoefficients.from_json_dict(obj) == c
    m = MahlerCoefficients(4, {0: 1, 2: 8})
    assert MahlerCoefficients.from_json_dict(m.json_dict()) == m
    with pytest.raises(ValueError):
        Z2FunctionTable.from_json_dict({"ring": "F2T", "precision": 1, "table": ["0x0", "0x1"]})
    with pytest.raises(ValueError):
        MahlerCoefficients.from_json_dict({"ring": "Z2", "basis": "vanderput", "precision": 1, "coeffs": {}})


def test_table_and_coefficient_validation():
    with pytest.raises(ValueError):
        Z2FunctionTable(2, (0, 1, 2))
    with pytest.raises(ValueError):
        MahlerCoefficients(2, {0: 4})
    assert MahlerCoefficients(2, {0: 0, 5: 1}).a == {5: 1}


def test_mahler_table_matches_pointwise_evaluation():
    """Dense and sparse sets, indices from 2^k up, explicit zeros and the empty set, to k = 8."""
    rng = random.Random(24)
    for k in range(1, 9):
        size = 1 << k
        sets = [MahlerCoefficients(k, {}), MahlerCoefficients(k, {size: 0, 3 * size + 1: 0})]
        sets.append(MahlerCoefficients(k, {i: rng.getrandbits(k) for i in range(6)}))
        for _ in range(4):
            a = {rng.randrange(size): rng.getrandbits(k) for _ in range(rng.randrange(1, 6))}
            sets.append(MahlerCoefficients(k, a))
            deep = {rng.randrange(size, 4 * size): rng.getrandbits(k) for _ in range(3)}
            zeros = {rng.randrange(size, 4 * size): 0 for _ in range(2)}
            sets.append(MahlerCoefficients(k, {**a, **deep, **zeros}))
        # a few high indices take columns of their own, beside running sums or alone
        sets.append(MahlerCoefficients(k, {0: 1, 1: size - 1, size - 1: rng.getrandbits(k), size // 2: 1}))
        sets.append(MahlerCoefficients(k, {size - 1 - j: rng.getrandbits(k) for j in range(min(3, size))}))
        for c in sets:
            assert mahler_table(c).table == exact_mahler_table(c).table == tuple(mahler_eval(c, x) for x in range(size))
    assert mahler_table(MahlerCoefficients(3, {})).table == (0,) * 8


@pytest.fixture(params=[None, (0, 0), (1 << 40, 1 << 40)], ids=["chosen", "all columns", "all sums"])
def split(request, monkeypatch):
    """mahler_table's own split of the stored indices, or (column, factorial) costs that make every one a column or a sum."""
    if request.param:
        monkeypatch.setattr(z2compare, "_COLUMN_PASSES", request.param[0])
        monkeypatch.setattr(z2compare, "_FACTORIAL_PASSES", request.param[1])


def _agrees_with_exact_binomials(c):
    t, exact = mahler_table(c), exact_mahler_table(c)
    assert t.table == exact.table and t.packed == exact.packed


def test_mahler_table_equals_exact_binomials_on_every_small_set(split):
    """Every value at every index up to 2^k for k <= 2; at k = 3 every subset of the indices up to 2^k, two value rules."""
    for k in (1, 2):
        size = 1 << k
        for values in itertools.product(range(size), repeat=size + 1):
            _agrees_with_exact_binomials(MahlerCoefficients(k, dict(enumerate(values))))
    for mask in range(1 << 9):
        indices = [i for i in range(9) if mask >> i & 1]
        _agrees_with_exact_binomials(MahlerCoefficients(3, {i: 7 for i in indices}))
        _agrees_with_exact_binomials(MahlerCoefficients(3, {i: (5 * i + 3) & 7 for i in indices}))


def test_mahler_table_equals_exact_binomials_on_samples(split):
    """Sparse, dense, near-the-top and past-the-top indices up to k = 10, with the column path on its own and mixed."""
    rng = random.Random(20)
    for k in range(4, 11):
        size = 1 << k
        sets = [random_mahler(rng, k, 15), random_mahler_ergodic(rng, k, 15)]
        sets.append(MahlerCoefficients(k, {rng.randrange(2 * size): rng.getrandbits(k) for _ in range(6)}))
        sets.append(MahlerCoefficients(k, {size - 1 - rng.randrange(size >> 2): rng.getrandbits(k) for _ in range(4)}))
        sets.append(MahlerCoefficients(k, {0: 1, 1: 5, 40: 3, size - 2: rng.getrandbits(k), size + 3: 1}))
        if k <= 8:
            sets.append(MahlerCoefficients(k, {i: rng.getrandbits(k) for i in range(size) if rng.random() < 0.5}))
        for c in sets:
            _agrees_with_exact_binomials(c)


def test_mahler_table_cost_follows_the_stored_indices_near_the_top():
    """Indices near 2^k take short columns, not 2^k running sums each; checked against exact binomials at k = 16."""
    c = MahlerCoefficients(16, {0: 1, 1: 3, 2: 4, 65000: 8, 65533: 5})
    start = time.perf_counter()
    table = mahler_table(c).table
    assert time.perf_counter() - start < 2
    assert table == exact_mahler_table(c).table


def test_mahler_table_matches_exact_binomials_on_benchmark_shaped_sets():
    """200 sets at k = 12 on indices 0..nmax, nmax < 16, half of them with the criterion's 2-power decay."""
    rng = random.Random(27)
    for n in range(200):
        sample = random_mahler_ergodic if n % 2 else random_mahler
        c = sample(rng, 12, rng.randrange(2, 16))
        assert mahler_table(c).table == exact_mahler_table(c).table


def test_mahler_eval_matches_exact_binomials_exhaustively():
    """Every point below 2^k against every single index up to 2^(k+1), for k <= 8, and explicit zeros past 2^k."""
    for k in range(1, 9):
        size = 1 << k
        for i in range(2 * size + 1):
            c = MahlerCoefficients(k, {i: 1})
            assert [mahler_eval(c, x) for x in range(size)] == [exact_mahler_eval(c, x) for x in range(size)]
        c = MahlerCoefficients(k, {0: 1, size: 0, 2 * size + 1: 0})
        assert all(mahler_eval(c, x) == exact_mahler_eval(c, x) == 1 for x in range(size))


def _binom(k, x, i):
    return mahler_eval(MahlerCoefficients(k, {i: 1}), x)


@pytest.mark.parametrize("k", [64, 256, 1024])
def test_mahler_eval_binomial_identities_at_large_precision(k):
    """Pascal's rule, symmetry and Lucas parity of C(x, i) mod 2^k at points too large for exact binomials."""
    rng = random.Random(k)
    mask = (1 << k) - 1
    for _ in range(4):
        x = rng.getrandbits(min(k, 96)) | 2
        i = rng.randrange(1, x)
        assert _binom(k, x, i) == (_binom(k, x - 1, i) + _binom(k, x - 1, i - 1)) & mask
        assert _binom(k, x, i) == _binom(k, x, x - i)
        assert _binom(k, x, i) & 1 == binom_mod2(x, i)
    assert _binom(k, mask, 1) == mask and _binom(k, mask, mask) == 1 and _binom(k, 3, 7) == 0


def test_check_mp_z2_is_the_vdp_bit_test_and_matches_bijectivity():
    rng = random.Random(25)
    for k in range(1, 8):
        for i in range(120):
            if k >= 2 and i % 3 == 0:
                c = random_z2_ergodic(rng, k)
            elif k >= 2 and i % 3 == 1:
                c = corrupt_z2(rng, random_z2_ergodic(rng, k))
            else:
                c = random_z2_compatible(rng, k)
            got = check_mp_z2(c)
            assert got == (check_mp_vdp(c).overall is True)
            assert got == (is_bijective_mod(vdp_table_z2(c)).overall is True)


def _lipschitz_matches_compatibility(t):
    got = check_lipschitz_vdp(to_vdp(t))
    assert got == all(brute_compatible(t).levels) == (is_compatible(t).overall is True)
    return got


def test_z2_lipschitz_criterion_is_table_compatibility():
    """Every Z2 table at k = 2, then random and compatible-by-construction tables at k = 3..6."""
    tables = [Z2FunctionTable(2, v) for v in itertools.product(range(4), repeat=4)]
    assert sum(map(_lipschitz_matches_compatibility, tables)) > 0
    rng = random.Random(26)
    compatible = 0
    for k in range(3, 7):
        for i in range(300):
            t = random_z2_table(rng, k) if i % 2 else vdp_table(random_z2_compatible(rng, k))
            compatible += _lipschitz_matches_compatibility(t)
    assert 600 <= compatible < 1200
