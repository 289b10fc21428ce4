"""Constructive single-cycle generator: recurrence, data plumbing, invariants."""

import random

import pytest

from helpers import gen_cycle_by_entries, random_data_by_shifts
from tadic.cyclegen import CycleData, gen_cycle, random_data
from tadic.dynamics import is_compatible, is_transitive_mod


def test_depth_one_worked_examples():
    seq, t = gen_cycle(CycleData(1, ((0, 0),)))
    assert seq == (0x0, 0x1, 0x2, 0x3)
    assert t.table == (1, 2, 3, 0)
    seq, t = gen_cycle(CycleData(1, ((1, 0),)))
    assert seq == (0x2, 0x1, 0x0, 0x3)
    seq2, t2 = gen_cycle(CycleData(1, ((0, 1),)))
    assert seq2 == (0x0, 0x3, 0x2, 0x1)
    # the two single-flip data sets are full-level flips of each other,
    # so they reach the same successor permutation from different anchors
    assert t.table == t2.table


def test_depth_zero_is_the_swap():
    seq, t = gen_cycle(CycleData(0, ()))
    assert seq == (0, 1)
    assert t.precision == 1 and t.table == (1, 0)


def test_output_is_a_transitive_permutation():
    for seed in range(12):
        d = random_data(seed, 5)
        seq, t = gen_cycle(d)
        assert sorted(seq) == list(range(1 << 6))
        assert is_compatible(t).overall is True
        assert is_transitive_mod(t).overall is True


def test_sequence_entries_are_stable_modulo_lower_levels():
    d = random_data(3, 6)
    seq, _ = gen_cycle(d)
    for k in range(1, 8):
        mask = (1 << k) - 1
        period = 1 << k
        for j, x in enumerate(seq):
            assert x & mask == seq[j % period] & mask


def test_flipping_the_final_level_relabels_the_same_cycle():
    # flipping every top-level bit rotates the walk by half a turn, so the
    # sequence starts elsewhere but the successor table is identical
    for n in range(1, 6):
        base = random_data(4, n)
        seq_base, t_base = gen_cycle(base)
        bits = list(base.bits)
        bits[n - 1] = tuple(b ^ 1 for b in bits[n - 1])
        seq_flip, t_flip = gen_cycle(CycleData(n, tuple(bits)))
        assert t_flip.table == t_base.table
        half = 1 << n
        assert seq_flip == seq_base[half:] + seq_base[:half]


def test_random_data_is_deterministic():
    a = random_data(1, 2)
    b = random_data(1, 2)
    assert a == b
    other = random_data(2, 2)
    assert other.n == 2 and len(other.bits[1]) == 4
    assert random_data(7, 0) == CycleData(0, ())


def test_random_data_matches_the_shift_oracle():
    for seed in (*range(10), 801, 2**70 + 5):
        for n in range(13):
            assert random_data(seed, n) == random_data_by_shifts(seed, n)


def test_packed_recurrence_equals_the_entry_oracle_on_every_small_steering_set():
    for n in range(4):
        for word in range(1 << ((2 << n) - 2)):
            levels, at = [], 0
            for k in range(1, n + 1):
                levels.append(tuple((word >> (at + j)) & 1 for j in range(1 << k)))
                at += 1 << k
            d = CycleData(n, tuple(levels))
            assert gen_cycle(d) == gen_cycle_by_entries(d)


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_packed_recurrence_equals_the_entry_oracle_where_the_slot_widens(n):
    # the sequence needs n + 1 bits a slot: one byte up to n = 7, two up to n = 15, four from n = 16
    for seed in range(3 if n < 10 else 1):
        d = random_data(seed + 100 * n, n)
        seq, t = gen_cycle(d)
        assert (seq, t) == gen_cycle_by_entries(d)
        assert sorted(seq) == list(range(1 << (n + 1)))


def test_random_data_reads_each_word_once_at_depth_20():
    # 2^21 - 2 bits; the shift oracle is quadratic here, so check each
    # level against its word as a whole and on sampled bits
    d = random_data(11, 20)
    rng = random.Random(11)
    for k, level in enumerate(d.bits, start=1):
        word = rng.getrandbits(1 << k)
        assert len(level) == 1 << k
        assert int("".join(map(str, reversed(level))), 2) == word
        for j in (0, 1, (1 << k) - 1, (1 << k) // 3):
            assert level[j] == (word >> j) & 1


def test_data_validation():
    with pytest.raises(ValueError):
        CycleData(-1, ())
    with pytest.raises(ValueError):
        CycleData(1, ())
    with pytest.raises(ValueError):
        CycleData(1, ((0, 1, 0),))
    with pytest.raises(ValueError):
        CycleData(1, ((0, 2),))


def test_gen_cycle_keeps_a_range_guard_for_unchecked_steering_bits():
    # a bit of 2 at level 1 lifts an entry to 2^2 and above: caught before the unchecked table is built
    with pytest.raises(ValueError, match="0 or 1"):
        gen_cycle(CycleData._trusted(1, ((0, 2),)))


def test_data_json_roundtrip():
    d = random_data(5, 3)
    obj = d.json_dict()
    assert obj["n"] == 3
    assert [len(obj["levels"][str(k)]) for k in (1, 2, 3)] == [2, 4, 8]
    assert CycleData.from_json_dict(obj) == d


def test_data_to_table_map_is_two_power_to_one():
    # at depth 2 the 64 data values land on 16 tables, four each
    hits = {}
    for word in range(64):
        lvl1 = tuple((word >> j) & 1 for j in range(2))
        lvl2 = tuple((word >> (2 + j)) & 1 for j in range(4))
        _, t = gen_cycle(CycleData(2, (lvl1, lvl2)))
        hits[t.table] = hits.get(t.table, 0) + 1
    assert len(hits) == 16
    assert set(hits.values()) == {4}
