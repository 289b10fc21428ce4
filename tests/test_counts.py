"""Exact counts that need no second implementation: how many maps mod pi^k are compatible, mp and ergodic.

Each van der Put clause fixes one bit, of one coefficient or of one band
sum, so mod pi^k, in both rings, there are 2^(2^(k+1) - 2) compatible
maps, 2^(2^k - 1) measure-preserving ones and 2^(2^k - k - 1) ergodic
ones.  Every basis describes the same maps, so its criteria must count
the sets on their floor alike; the table oracles must count every table
alike; and `gen_cycle`, which hits every ergodic table of precision n + 1
equally often over its 2^(2^(n+1) - 2) steering words, is a uniform
sampler of the ergodic maps.
"""

import collections
import itertools

import pytest

import tadic.carlitz  # noqa: F401 - files the Carlitz format
import tadic.mahler  # noqa: F401 - files the Mahler format
import tadic.vanderput  # noqa: F401 - files both van der Put formats
from tadic import dynamics
from tadic.cyclegen import CycleData, gen_cycle
from tadic.dynamics import FORMATS, FunctionTable, Z2FunctionTable, is_bijective_mod, is_compatible, is_transitive_mod


def _counts(k):
    """(compatible, mp, ergodic) maps mod pi^k."""
    return 2 ** (2 ** (k + 1) - 2), 2 ** (2 ** k - 1), 2 ** (2 ** k - k - 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cls", sorted(FORMATS.values(), key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_the_criteria_count_the_sets_on_their_floor(cls, k):
    # every set with c_n a multiple of pi^floor(log2 n), n < 2^k: 16,384 sets at k = 3, 128 mp and 16 ergodic;
    # ergodic counts the raw levels, level k included
    floors = [max(n.bit_length() - 1, 0) for n in range(1 << k)]
    counts = collections.Counter()
    for a in itertools.product(*(range(0, 1 << k, 1 << f) for f in floors)):
        c = cls(k, dict(enumerate(a)))
        counts["compatible"] += dynamics.check_lipschitz(c)
        counts["mp"] += dynamics.check_mp(c).overall is True
        counts["ergodic"] += all(c._scanned[2])
    assert (counts["compatible"], counts["mp"], counts["ergodic"]) == _counts(k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("table_type", [FunctionTable, Z2FunctionTable], ids=lambda t: t.ring)
def test_the_table_oracles_count_every_table(table_type, k):
    # every table of precision k: compatible at every level, and bijective or transitive at every level too
    counts = collections.Counter()
    for values in itertools.product(range(1 << k), repeat=1 << k):
        t = table_type(k, values)
        if all(is_compatible(t).levels):
            counts["compatible"] += 1
            counts["mp"] += all(is_bijective_mod(t).levels)
            counts["ergodic"] += all(is_transitive_mod(t).levels)
    assert (counts["compatible"], counts["mp"], counts["ergodic"]) == _counts(k)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_gen_cycle_hits_every_ergodic_table_equally_often(n):
    # every steering word at depth n: 2^(2^(n+1) - 2) words land on the 2^(2^(n+1) - n - 2) ergodic tables of
    # precision n + 1, 2^n each (2,048 tables, 8 words each, at n = 3)
    sizes = [1 << j for j in range(1, n + 1)]
    hits = collections.Counter()
    for word in itertools.product((0, 1), repeat=(2 << n) - 2):
        # level j holds the 2^j bits from bit 2^j - 2 of the word
        hits[gen_cycle(CycleData(n, tuple(word[s - 2:2 * s - 2] for s in sizes)))[1]] += 1
    assert len(hits) == _counts(n + 1)[2] and set(hits.values()) == {1 << n}
    assert all(all(is_compatible(t).levels) and all(is_transitive_mod(t).levels) for t in hits)
