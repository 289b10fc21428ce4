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
"""

import pytest

from helpers import compose, invert
from tadic import dynamics
from tadic.carlitz import to_carlitz
from tadic.cyclegen import gen_cycle, random_data
from tadic.dynamics import TABLES, is_bijective_mod, is_compatible, is_transitive_mod
from tadic.vanderput import to_vdp


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
