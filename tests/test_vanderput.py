"""Ball-indicator basis: expansion, evaluation, and the per-level criteria."""

import itertools
import random

import pytest

from helpers import (
    REFERENCE_TABLE_K4,
    all_lipschitz_vdp,
    break_floor,
    brute_ergodic_vdp,
    brute_mp_vdp,
    brute_off_floor,
    chi,
    corrupt_vdp,
    corrupt_z2,
    random_ergodic_vdp,
    random_lipschitz_vdp,
    random_mp_vdp,
    random_table,
    random_z2_compatible,
    random_z2_ergodic,
    reference_table,
)
from tadic.dynamics import FunctionTable, is_bijective_mod, is_transitive_mod
from tadic.gf2ps import Residue
from tadic.vanderput import (
    VdpCoefficients,
    Z2VdpCoefficients,
    check_ergodic_vdp,
    check_lipschitz_vdp,
    check_mp_vdp,
    from_vdp,
    restrict,
    to_vdp,
    vdp_table,
)

IDENTITY_K3 = FunctionTable(3, tuple(range(8)))


def test_chi_ball_membership():
    assert chi(0, Residue(2, 2)) == 1
    assert chi(0, Residue(1, 2)) == 0
    assert chi(2, Residue(6, 3)) == 1
    assert chi(1, Residue(3, 2)) == 1
    assert chi(2, Residue(4, 3)) == 0


def test_chi_requires_enough_precision():
    with pytest.raises(ValueError, match="insufficient precision"):
        chi(2, Residue(1, 1))
    with pytest.raises(ValueError, match="insufficient precision"):
        chi(4, 6, prec=2)
    assert chi(4, 6, prec=4) == 0


def test_to_vdp_identity_table():
    c = to_vdp(IDENTITY_K3)
    assert c.B[0] == 0 and c.B[1] == 1
    for m in range(2, 8):
        assert c.B[m] == 1 << (m.bit_length() - 1)


def test_to_vdp_constant_table():
    c = to_vdp(FunctionTable(3, (5,) * 8))
    assert c.B[0] == c.B[1] == 5
    assert all(v == 0 for v in c.B[2:])


def test_to_vdp_reference_table_low_coefficients():
    c = to_vdp(FunctionTable(4, REFERENCE_TABLE_K4))
    assert (c.B[0], c.B[1], c.B[2], c.B[3]) == (0x1, 0x2, 0xE, 0xA)
    assert c.b(2) == 0x7 and c.b(3) == 0x5


def test_from_vdp_single_ball():
    c = VdpCoefficients(2, (1, 0, 0, 0))
    assert from_vdp(c, 2) == 1
    assert from_vdp(c, Residue(1, 2)) == Residue(0, 2)


def test_from_vdp_reference_value():
    c = to_vdp(FunctionTable(4, REFERENCE_TABLE_K4))
    assert from_vdp(c, 2) == 0xF


def test_roundtrip_on_random_tables():
    rng = random.Random(5)
    for _ in range(100):
        t = random_table(rng, 6)
        assert vdp_table(to_vdp(t)).table == t.table


def test_expansion_matches_the_brute_force_chi_sum():
    rng = random.Random(6)
    k = 4
    for _ in range(50):
        t = random_table(rng, k)
        c = to_vdp(t)
        for x in range(1 << k):
            acc = 0
            terms = 0
            for alpha in range(1 << k):
                if chi(alpha, x, prec=k):
                    acc ^= c.B[alpha]
                    terms += 1
            assert terms <= k
            assert acc & ((1 << k) - 1) == t.table[x]


def test_scaled_accessor_requires_divisibility():
    c = VdpCoefficients(3, (0, 0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="does not divide"):
        c.b(2)
    assert VdpCoefficients(3, (5, 3, 2, 0, 4, 0, 0, 0)).b(4) == 1


def test_lipschitz_criterion():
    assert check_lipschitz_vdp(to_vdp(IDENTITY_K3)) is True
    assert check_lipschitz_vdp(VdpCoefficients(3, (0, 1, 1, 0, 0, 0, 0, 0))) is False
    assert check_lipschitz_vdp(to_vdp(FunctionTable(4, REFERENCE_TABLE_K4))) is True


def test_mp_criterion_known_values():
    assert check_mp_vdp(to_vdp(IDENTITY_K3)).levels == (True, True, True)
    constant = to_vdp(FunctionTable(3, (1,) * 8))
    assert check_mp_vdp(constant).level(1) is False
    reference = to_vdp(FunctionTable(4, REFERENCE_TABLE_K4))
    assert check_mp_vdp(reference).levels == (True, True, True, True)


def test_ergodic_criterion_known_values():
    reference = to_vdp(FunctionTable(4, REFERENCE_TABLE_K4))
    verdicts = check_ergodic_vdp(reference)
    assert verdicts.levels == (True, True, True, None)
    assert verdicts.all_determined_true()
    assert check_ergodic_vdp(to_vdp(IDENTITY_K3)).level(1) is False
    xor_one = to_vdp(FunctionTable(3, (1, 0, 3, 2, 5, 4, 7, 6)))
    got = check_ergodic_vdp(xor_one)
    assert got.level(1) is True and got.level(2) is False


def test_criteria_reject_non_lipschitz_input():
    bad = VdpCoefficients(3, (0, 1, 1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="not 1-Lipschitz"):
        check_mp_vdp(bad)
    with pytest.raises(ValueError, match="not 1-Lipschitz"):
        check_ergodic_vdp(bad)


@pytest.mark.parametrize("cls, pi", [(VdpCoefficients, "T"), (Z2VdpCoefficients, "2")])
def test_lipschitz_guard_names_the_smallest_offending_index(cls, pi):
    # B_5 = 2 and B_6 = 1 are both off their floor pi^2; B_4 = 4 is not
    bad = cls(3, (1, 1, 0, 0, 4, 2, 1, 0))
    for check in (check_mp_vdp, check_ergodic_vdp):
        with pytest.raises(ValueError, match=r"^coefficients are not 1-Lipschitz: %s\^2 does not divide B_5$" % pi):
            check(bad)


def test_restrict_commutes_with_table_truncation():
    rng = random.Random(7)
    for _ in range(30):
        t = random_table(rng, 5)
        c = to_vdp(t)
        for m in (1, 2, 3, 4):
            cut = FunctionTable(m, tuple(v & ((1 << m) - 1) for v in t.table[: 1 << m]))
            assert restrict(c, m) == to_vdp(cut)
    with pytest.raises(ValueError):
        restrict(c, 6)
    with pytest.raises(ValueError):
        restrict(c, 0)


def test_json_roundtrip_omits_zero_entries():
    c = to_vdp(FunctionTable(3, (0, 1, 2, 3, 4, 5, 6, 7)))
    obj = c.json_dict()
    assert obj["ring"] == "F2T" and obj["basis"] == "vanderput"
    assert "0" not in obj["coeffs"]
    assert VdpCoefficients.from_json_dict(obj) == c
    with pytest.raises(ValueError):
        VdpCoefficients.from_json_dict({"ring": "F2T", "basis": "carlitz", "precision": 1, "coeffs": {}})


def test_exhaustive_level_bridges_at_k3():
    """Every Lipschitz set at k=3: criteria equal the brute-force oracles."""
    checked = 0
    for c in all_lipschitz_vdp(3):
        t = vdp_table(c)
        assert to_vdp(t) == c
        assert check_mp_vdp(c).levels == is_bijective_mod(t).levels
        trans = is_transitive_mod(t)
        for m, verdict in enumerate(check_ergodic_vdp(c).levels, start=1):
            if verdict is not None:
                assert verdict == trans.level(m)
        checked += 1
    assert checked == 16384


def test_reference_table_is_pinned():
    assert reference_table(4).table == REFERENCE_TABLE_K4


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients], ids=["F2T", "Z2"])
def test_block_synthesis_matches_pointwise_evaluation_in_both_rings(cls):
    """vdp_table equals per-point from_vdp, and to_vdp inverts it keeping the ring."""
    sets = [cls(2, B) for B in itertools.product(range(4), repeat=4)]
    rng = random.Random(8)
    sets += [cls(k, tuple(rng.getrandbits(k) for _ in range(1 << k))) for k in range(1, 9) for _ in range(6)]
    for c in sets:
        t = vdp_table(c)
        assert t.ring == c.ring
        assert t.table == tuple(from_vdp(c, x) for x in range(1 << c.precision))
        back = to_vdp(t)
        assert type(back) is cls and back == c
    assert len(sets) == 256 + 48


def _agree_with_the_coefficient_scans(c):
    """The band kernels give the per-coefficient verdicts, or name the first off-floor index."""
    off = brute_off_floor(c)
    assert check_lipschitz_vdp(c) is not off
    if off:
        m = off[0]
        pi = "T" if c.ring == "F2T" else "2"
        want = r"^coefficients are not 1-Lipschitz: %s\^%d does not divide B_%d$" % (pi, m.bit_length() - 1, m)
        for check in (check_mp_vdp, check_ergodic_vdp):
            with pytest.raises(ValueError, match=want):
                check(c)
    else:
        assert check_mp_vdp(c) == brute_mp_vdp(c)
        assert check_ergodic_vdp(c) == brute_ergodic_vdp(c)
    return bool(off)


def test_band_kernels_equal_the_coefficient_scans_on_every_lipschitz_set_to_k3():
    count = 0
    for k in (1, 2, 3):
        for c in all_lipschitz_vdp(k):
            for d in (c, Z2VdpCoefficients(k, c.B)):
                assert not _agree_with_the_coefficient_scans(d)
            count += 1
    assert count == 4 + 64 + 16384


@pytest.mark.parametrize("ring", ["F2T", "Z2"])
def test_band_kernels_equal_the_coefficient_scans_on_random_sets(ring):
    rng = random.Random(41)
    if ring == "F2T":
        builders = (random_lipschitz_vdp, random_mp_vdp, random_ergodic_vdp)
        corrupt, cls = corrupt_vdp, VdpCoefficients
    else:
        builders = (random_z2_compatible, random_z2_ergodic)
        corrupt, cls = corrupt_z2, Z2VdpCoefficients
    verdicts = set()
    for k in range(2, 11):
        for _ in range(6):
            sets = [cls(k, tuple(rng.getrandbits(k) for _ in range(1 << k)))]
            for build in builders:
                c = build(rng, k)
                sets += [c, corrupt(rng, c), break_floor(rng, c), break_floor(rng, c, flips=3)]
            for c in sets:
                if _agree_with_the_coefficient_scans(c):
                    verdicts.add("not Lipschitz")
                else:
                    verdicts.add((check_mp_vdp(c).overall, check_ergodic_vdp(c).overall))
    # every kind of answer came up: not Lipschitz; not measure-preserving;
    # measure-preserving but not ergodic; certified below the top level
    assert verdicts == {"not Lipschitz", (False, False), (True, False), (True, None)}
