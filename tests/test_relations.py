"""Relations that predict a verdict with no second implementation: the inverse, conjugates and square of a cycle.

Let f be compatible and ergodic, and g compatible and bijective at every
level.  Then f^-1 and g f g^-1 are compatible and transitive at every
level, and f f is bijective at every level and transitive at none (mod
pi^m it is two cycles of length 2^(m-1)).  f comes from `gen_cycle`, g is
x -> 5x + 2 mod 2^k, which is no cycle, or a second generated cycle.  The
table oracles, the van der Put criteria in both rings and, at k <= 12, the
Carlitz criteria must all read these verdicts, the ergodicity criteria
below level k.  Conjugation by a map that is not a cycle gives ergodic maps
that `gen_cycle` does not build in its own shape, a new input family for
every criterion.

The levels read only the low m bits of x and f(x), so one table is one
bit map in both rings: read as an F2T table and as a Z2 table, it gets
one set of levels from the table oracles, from van der Put in each ring,
from Carlitz, and, for a table built by `mahler_table`, from its Mahler
set.  A basis whose clauses drift from the others fails that agreement.
"""

import itertools
import operator
import random

import pytest

from helpers import (
    break_floor,
    compose,
    corrupt_vdp,
    dense_lipschitz_carlitz,
    invert,
    random_ergodic_vdp,
    random_mahler,
    random_mahler_ergodic,
    random_mp_vdp,
    random_z2_ergodic,
)
from tadic import dynamics
from tadic.carlitz import carlitz_table, to_carlitz
from tadic.cyclegen import gen_cycle, random_data
from tadic.dynamics import TABLES, LevelVerdicts, is_bijective_mod, is_compatible, is_transitive_mod
from tadic.mahler import MahlerCoefficients, mahler_table
from tadic.vanderput import to_vdp, vdp_table


def _cycle(seed, ring, k):
    """A generated single cycle at precision k, as a table of `ring`: transitivity does not depend on the ring."""
    return TABLES[ring](k, gen_cycle(random_data(seed, k - 1))[1].table)


def _conjugators(seed, ring, k):
    """g: x -> 5x + 2 mod 2^k, and a second generated cycle."""
    return {"affine": TABLES[ring](k, tuple((5 * x + 2) % (1 << k) for x in range(1 << k))),
            "cycle": _cycle(seed + 1, ring, k)}


def _criteria(t):
    """Each basis's (lipschitz, mp levels, ergodic levels) of t: van der Put in both rings, Carlitz in F2T to k = 12."""
    sets = [to_vdp(t)] + ([to_carlitz(t)] if t.ring == "F2T" and t.precision <= 12 else [])
    return [(dynamics.check_lipschitz(c), dynamics.check_mp(c).levels, dynamics.check_ergodic(c).levels)
            for c in sets]


_SAMPLES = [(ring, k) for ring in TABLES for k in range(8, 19)]


@pytest.mark.parametrize("ring, k", _SAMPLES, ids=["%s-%d" % s for s in _SAMPLES])
def test_the_inverse_and_conjugates_of_a_cycle_are_ergodic_at_every_level(ring, k):
    f = _cycle(k, ring, k)
    maps = {"inverse": invert(f)}
    for name, g in _conjugators(k, ring, k).items():
        maps[name] = compose(compose(g, f), invert(g))
    for name, h in maps.items():
        assert all(is_compatible(h).levels) and all(is_transitive_mod(h).levels), name
        for criteria in _criteria(h):
            assert criteria == (True, (True,) * k, (True,) * (k - 1) + (None,)), name


@pytest.mark.parametrize("ring, k", _SAMPLES, ids=["%s-%d" % s for s in _SAMPLES])
def test_the_square_of_a_cycle_is_mp_and_transitive_at_no_level(ring, k):
    f = _cycle(k, ring, k)
    square = compose(f, f)
    assert all(is_compatible(square).levels) and all(is_bijective_mod(square).levels)
    assert not any(is_transitive_mod(square).levels)
    for criteria in _criteria(square):
        assert criteria == (True, (True,) * k, (False,) * k)


def _bit_maps(rng, k):
    """(family, table, its Mahler set or None) at precision k: random, steered by each basis, and generated tables."""
    yield "random", TABLES["F2T"](k, tuple(rng.getrandbits(k) for _ in range(1 << k))), None
    yield "gen-cycle", gen_cycle(random_data(rng.getrandbits(32), k - 1))[1], None
    yield "dense-carlitz", carlitz_table(dense_lipschitz_carlitz(rng, k)), None
    yield "mp-vdp", vdp_table(random_mp_vdp(rng, k)), None
    if k >= 2:
        yield "ergodic-vdp", vdp_table(random_ergodic_vdp(rng, k)), None
        yield "ergodic-z2-vdp", vdp_table(random_z2_ergodic(rng, k)), None
        yield "off-floor", vdp_table(break_floor(rng, random_ergodic_vdp(rng, k))), None
        yield "corrupted", vdp_table(corrupt_vdp(rng, random_ergodic_vdp(rng, k))), None
    # Mahler sets store indices below 2^k only: a nonzero a_n with n >= 2^k vanishes on the table's points but
    # not on Z2, where it breaks compatibility mod 2^k, which the Mahler criteria read and the table cannot
    top = (1 << k) - 1
    ergodic = random_mahler_ergodic(rng, k, min(40, top))
    # a_0 even fixes 0 mod 2: mp at every level and ergodic at none
    for c in (ergodic, MahlerCoefficients(k, {**ergodic.a, 0: ergodic.a[0] ^ 1}), random_mahler(rng, k, min(6, top))):
        yield "mahler", mahler_table(c), c


def _oracle_levels(t):
    """The mp and ergodic levels of the table oracles: compatible at every level up to m, then bijective or
    transitive mod pi^m; the top ergodic level stays undecided unless it fails, as the criteria leave it."""
    through = tuple(itertools.accumulate(is_compatible(t).levels, operator.and_))
    mp, ergodic = (tuple(map(operator.and_, through, oracle(t).levels))
                   for oracle in (is_bijective_mod, is_transitive_mod))
    return mp, LevelVerdicts.below_precision(ergodic).levels


@pytest.mark.parametrize("k", range(1, 13))
def test_one_bit_map_reads_one_set_of_levels_in_every_basis_of_both_rings(k):
    rng = random.Random(k)
    seen = set()
    for family, t, mahler in itertools.chain.from_iterable(_bit_maps(rng, k) for _ in range(4)):
        tables = [TABLES[ring](k, t.table) for ring in TABLES]
        # the oracles read bits alone, so both readings of the table give one set of levels
        (want,) = {_oracle_levels(u) for u in tables}
        sets = [f(u) for u in tables for f in (to_vdp, to_carlitz)] + ([mahler] if mahler else [])
        for c in sets:
            assert (dynamics.check_mp(c).levels, dynamics.check_ergodic(c).levels) == want, (family, c.ring, c.basis)
        seen.update(want[0] + want[1])
    # both verdicts are read at this precision, and at k >= 2 an undecided top level too
    assert {True, False} <= seen and (k < 2 or None in seen)
