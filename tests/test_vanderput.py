"""Ball-indicator basis: expansion, evaluation, and the per-level criteria."""

import itertools
import json
import random
import tracemalloc

import pytest

from helpers import (
    REFERENCE_TABLE_K4,
    all_lipschitz_vdp,
    band_scans,
    break_floor,
    brute_compatible,
    brute_ergodic_vdp,
    brute_floor,
    brute_mp_vdp,
    chi,
    compatible_through,
    corrupt_vdp,
    corrupt_z2,
    random_ergodic_vdp,
    random_lipschitz_vdp,
    random_mp_vdp,
    random_table,
    random_z2_compatible,
    random_z2_ergodic,
    reference_table,
    scaled_vdp,
    sweep_by_bands,
)
from tadic.dynamics import (
    FunctionTable,
    LevelVerdicts,
    Z2FunctionTable,
    is_bijective_mod,
    is_compatible,
    is_transitive_mod,
    restrict,
)
from tadic import dynamics
from tadic.cli import run
from tadic.vanderput import (
    VdpCoefficients,
    Z2VdpCoefficients,
    check_ergodic_vdp,
    check_lipschitz_vdp,
    check_mp_vdp,
    from_vdp,
    to_vdp,
    vdp_table,
)

IDENTITY_K3 = FunctionTable(3, tuple(range(8)))


def test_chi_ball_membership():
    assert chi(0, 2, prec=2) == 1
    assert chi(0, 1, prec=2) == 0
    assert chi(2, 6, prec=3) == 1
    assert chi(1, 3, prec=2) == 1
    assert chi(2, 4, prec=3) == 0


def test_chi_requires_enough_precision():
    with pytest.raises(ValueError, match="insufficient precision"):
        chi(2, 1, prec=1)
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
    assert scaled_vdp(c, 2) == 0x7 and scaled_vdp(c, 3) == 0x5


def test_from_vdp_single_ball():
    c = VdpCoefficients(2, (1, 0, 0, 0))
    assert from_vdp(c, 2) == 1
    assert from_vdp(c, 1) == 0


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
        scaled_vdp(c, 2)
    assert scaled_vdp(VdpCoefficients(3, (5, 3, 2, 0, 4, 0, 0, 0)), 4) == 1


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


def test_criteria_answer_on_non_lipschitz_input():
    # B_2 = 1 sits below its floor T, so the set is not 1-Lipschitz even mod T
    bad = VdpCoefficients(3, (0, 1, 1, 0, 0, 0, 0, 0))
    assert check_mp_vdp(bad).levels == (False, False, False)
    assert check_ergodic_vdp(bad).levels == (False, False, False)


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients], ids=["F2T", "Z2"])
def test_the_floor_is_the_first_clause_of_every_level(cls):
    # the identity: B_alpha = pi^{deg alpha}, measure-preserving at every level
    assert check_mp_vdp(cls(3, (0, 1, 2, 2, 4, 4, 4, 4))).levels == (True, True, True)
    # B_5 = 6 has order 1 under its floor pi^2: 1-Lipschitz through level 1 only
    off = cls(3, (0, 1, 2, 2, 4, 6, 4, 4))
    assert not check_lipschitz_vdp(off)
    assert check_mp_vdp(off).levels == (True, False, False)
    # the least order decides, not the least index: B_5 = 2 (order 1), B_6 = 1 (order 0)
    assert check_mp_vdp(cls(3, (1, 0, 2, 2, 4, 2, 1, 4))).levels == (False, False, False)
    # a single cycle at k = 4 (the reference map, or x + 1 in Z2) with B_8 off its floor pi^3 at order 2
    if cls is VdpCoefficients:
        t = FunctionTable(4, REFERENCE_TABLE_K4)
    else:
        t = Z2FunctionTable(4, tuple((x + 1) % 16 for x in range(16)))
    B = list(to_vdp(t).B)
    assert check_ergodic_vdp(cls(4, B)).levels == (True, True, True, None)
    B[8] ^= 4
    off = cls(4, B)
    assert check_ergodic_vdp(off).levels == (True, True, False, False)
    assert check_mp_vdp(off).levels == (True, True, False, False)


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


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients], ids=["F2T", "Z2"])
def test_a_sparse_van_der_put_file_stays_sparse(cls, capsys, tmp_path):
    # two entries at the file cap: the set stays a map through the reader, a point evaluation and the three criteria
    doc = {"ring": cls.ring, "basis": "vanderput", "precision": 24, "coeffs": {"0": "0x1", "6": "0x4"}}
    c = cls.from_json_dict(doc)
    # x = 6 mod T^3 lies in the balls of B_0 and B_6, and in no other stored one
    x = 0xABCDEE
    assert from_vdp(c, x) == 5 and from_vdp(c, x ^ 4) == 1 and from_vdp(c, 1) == 0
    assert check_lipschitz_vdp(c) and check_mp_vdp(c).levels == (True,) + (False,) * 23
    assert check_ergodic_vdp(c).levels == (True,) + (False,) * 23
    assert "B" not in vars(c) and "packed" not in vars(c)
    assert c == cls(24, {0: 1, 6: 4}) and c.json_dict() == doc
    # the CLI decides both commands on the same file without a 2^24 table
    path = tmp_path / "vdp24.json"
    path.write_text(json.dumps(doc))
    ring = cls.ring.lower()
    assert run(["eval", "--coeffs", str(path), "--x", hex(x)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == hex(from_vdp(c, x))
    assert run(["verify", "--ring", ring, "--basis", "vdp", "--check", "ergodic", "--coeffs", str(path), "--quiet"]) == 1
    # an index is a residue mod pi^k: the file refuses one from 2^k up, and a truncation drops it
    with pytest.raises(ValueError, match="coefficient index out of range for precision 3"):
        cls.from_json_dict({**doc, "precision": 3, "coeffs": {"8": "0x1"}})
    assert restrict(cls(4, {0: 1, 9: 3, 3: 2}), 3).a == {0: 1, 3: 2}


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


def _agree_with_the_band_oracles(c, brute=True):
    """The packed layer on c.B, both as coefficients and as a table, equals the list sweep and the per-band scans.

    With `brute`, the criteria and compatibility are also checked against
    the per-coefficient and per-level definitions.
    """
    cls, k = type(c), c.precision
    t = cls.table_type(k, c.B)
    assert to_vdp(t).B == sweep_by_bands(c.B, k, cls.table_type.sub, synthesize=False)
    synthesized = vdp_table(c)
    assert synthesized.table == sweep_by_bands(c.B, k, cls.table_type.add, synthesize=True)
    top, mp, ergodic = band_scans(c)
    assert check_lipschitz_vdp(c) == (top == k)
    assert check_mp_vdp(c) == mp
    assert check_ergodic_vdp(c) == ergodic
    if brute:
        assert mp == brute_mp_vdp(c) and ergodic == brute_ergodic_vdp(c)
        assert is_compatible(t) == brute_compatible(t)
        assert is_compatible(synthesized) == brute_compatible(synthesized)


def _agree_with_the_coefficient_scans(c):
    """The band kernels give the per-coefficient verdicts on any set; returns whether c is 1-Lipschitz."""
    lipschitz = brute_floor(c, c.precision)
    assert check_lipschitz_vdp(c) == lipschitz
    assert check_mp_vdp(c) == brute_mp_vdp(c)
    assert check_ergodic_vdp(c) == brute_ergodic_vdp(c)
    return lipschitz


def _agree_with_both_oracles(c):
    """The coefficient scans, and the table oracle: compatible through level m, bijective or transitive mod pi^m.

    The packed layer also equals its list sweep and per-band scans on c.
    """
    _agree_with_the_band_oracles(c, brute=False)
    t = vdp_table(c)
    lipschitz = _agree_with_the_coefficient_scans(c)
    assert lipschitz == all(brute_compatible(t).levels)
    assert check_mp_vdp(c) == compatible_through(t, is_bijective_mod(t))
    transitive = compatible_through(t, is_transitive_mod(t))
    assert check_ergodic_vdp(c) == LevelVerdicts.below_precision(transitive.levels)
    return lipschitz


def test_band_kernels_equal_the_coefficient_scans_on_every_lipschitz_set_to_k3():
    count = 0
    for k in (1, 2, 3):
        for c in all_lipschitz_vdp(k):
            for d in (c, Z2VdpCoefficients(k, c.B)):
                assert _agree_with_the_coefficient_scans(d)
            count += 1
    assert count == 4 + 64 + 16384


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients], ids=["F2T", "Z2"])
def test_criteria_equal_both_oracles_on_every_set_to_k2(cls):
    lipschitz = 0
    for k in (1, 2):
        for B in itertools.product(range(1 << k), repeat=1 << k):
            lipschitz += _agree_with_both_oracles(cls(k, B))
    # all 4 sets at k = 1; at k = 2 the floor halves the choices of B_2 and B_3
    assert lipschitz == 4 + 64


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
    partly = 0
    for k in range(2, 11):
        for _ in range(6):
            sets = [cls(k, tuple(rng.getrandbits(k) for _ in range(1 << k)))]
            for build in builders:
                c = build(rng, k)
                sets += [c, corrupt(rng, c), break_floor(rng, c), break_floor(rng, c, flips=3)]
            for c in sets:
                lipschitz = _agree_with_both_oracles(c)
                verdicts.add((lipschitz, check_mp_vdp(c).overall, check_ergodic_vdp(c).overall))
                partly += not lipschitz and True in check_mp_vdp(c).levels
    # every kind of answer came up: not Lipschitz; not measure-preserving;
    # measure-preserving but not ergodic; certified below the top level
    assert verdicts == {(False, False, False), (True, False, False), (True, True, False), (True, True, None)}
    # and sets off their floor still hold at the levels below the first broken one
    assert partly > 20


def _sampled_sets(rng, k):
    """Random, floor-broken, corrupted and steered sets at precision k in both rings."""
    sets = []
    for cls, builders, corrupt in (
        (VdpCoefficients, (random_lipschitz_vdp, random_mp_vdp, random_ergodic_vdp), corrupt_vdp),
        (Z2VdpCoefficients, (random_z2_compatible, random_z2_ergodic), corrupt_z2),
    ):
        sets.append(cls(k, tuple(rng.getrandbits(k) for _ in range(1 << k))))
        for build in builders:
            c = build(rng, k)
            sets += [c, corrupt(rng, c), break_floor(rng, c), break_floor(rng, c, flips=3)]
    return sets


def test_the_three_criteria_agree_in_any_call_order_on_fresh_sets():
    # whichever criterion runs first fills the set's scan memo for the other two
    rng = random.Random(20)
    criteria = {"lipschitz": check_lipschitz_vdp, "mp": check_mp_vdp, "ergodic": check_ergodic_vdp}
    for k in (1, 2, 3, 5, 8):
        sets = [random_lipschitz_vdp(rng, k), random_z2_compatible(rng, k), to_vdp(random_table(rng, k))]
        if k >= 2:
            sets += [random_ergodic_vdp(rng, k), random_z2_ergodic(rng, k)]
            sets += [corrupt_vdp(rng, sets[-2]), corrupt_z2(rng, sets[-1]), break_floor(rng, sets[-2])]
        for c in sets:
            top, mp, ergodic = band_scans(c)
            want = {"lipschitz": top == k, "mp": mp, "ergodic": ergodic}
            for order in itertools.permutations(criteria):
                fresh = type(c)(k, c.B)
                assert {name: criteria[name](fresh) for name in order} == want


@pytest.mark.parametrize("k", [2, 3, 7, 8, 12, 16])
def test_the_floor_memo_is_the_band_scans_top_on_sampled_sets(k):
    # the least order below a floor, not only whether there is one: break_floor pushes digits below it
    rng = random.Random(300 + k)
    tops = set()
    for _ in range(3 if k < 12 else 1):
        for c in _sampled_sets(rng, k):
            assert c._scanned[0] == band_scans(c)[0] == type(c)(k, c.B)._scanned[0]
            tops.add(c._scanned[0])
    assert k in tops and len(tops) > 1


@pytest.mark.parametrize("first", ["lipschitz", "mp", "ergodic"])
def test_the_first_criterion_on_a_van_der_put_set_scans_it_once(monkeypatch, first):
    # whichever criterion comes first splits the packed bands and runs the level loop once, and leaves the scan as
    # the set's one memo; the later criteria read it and run neither
    criteria = {"lipschitz": check_lipschitz_vdp, "mp": check_mp_vdp, "ergodic": check_ergodic_vdp}
    loops, splits = [], []
    real_levels, real_split = dynamics.clause_levels, dynamics.split_bands
    monkeypatch.setattr(dynamics, "clause_levels", lambda k, *rest: loops.append(k) or real_levels(k, *rest))
    monkeypatch.setattr(dynamics, "split_bands", lambda w, k, width: splits.append(k) or real_split(w, k, width))
    rng = random.Random(21)
    for k in (2, 9, 14):
        for c in _sampled_sets(rng, k):
            # the 2^k packed slots, and the map, which no split reads
            for fresh in (type(c)(k, c.B), type(c)(k, dict(c.a))):
                verdict = criteria[first](fresh)
                memos = vars(fresh).keys() - {"precision", "a", "B", "packed"}
                assert loops == [k] and splits == ([] if fresh._sparse else [k]) and memos == {"_scanned"}
                verdicts = {name: check(fresh) for name, check in criteria.items()}
                assert loops == [k] and len(splits) <= 1 and verdicts[first] == verdict
                assert verdicts["lipschitz"] is (band_scans(c)[0] == k)
                loops.clear(), splits.clear()


@pytest.mark.parametrize("k", range(3, 13))
def test_packed_layer_equals_the_band_oracles_on_sampled_sets(k):
    # the k + 1 bit slots widen from one byte to two at k = 8
    rng = random.Random(100 + k)
    verdicts = set()
    for c in _sampled_sets(rng, k):
        _agree_with_the_band_oracles(c)
        verdicts.add((check_lipschitz_vdp(c), check_mp_vdp(c).overall, check_ergodic_vdp(c).overall))
    # every kind of answer came up at this k, certified sets included
    assert verdicts == {(False, False, False), (True, False, False), (True, True, False), (True, True, None)}


@pytest.mark.parametrize("k", [15, 16, 17])
def test_packed_layer_equals_the_band_oracles_where_the_slots_widen(k):
    # the k + 1 bit slots of the sweep and the criteria go from two bytes to
    # four at k = 16, the k bit slots of compatibility at k = 17
    rng = random.Random(200 + k)
    for c in (VdpCoefficients(k, tuple(rng.getrandbits(k) for _ in range(1 << k))), random_ergodic_vdp(rng, k),
              random_z2_ergodic(rng, k), corrupt_z2(rng, random_z2_ergodic(rng, k))):
        _agree_with_the_band_oracles(c, brute=False)
    t = vdp_table(random_z2_ergodic(rng, k))
    assert is_compatible(t) == brute_compatible(t) == LevelVerdicts((True,) * k)
    # one flipped digit T^(k-2) in the last entry breaks level k - 1 only: level k always holds
    bad = Z2FunctionTable(k, t.table[:-1] + (t.table[-1] ^ 1 << (k - 2),))
    assert is_compatible(bad) == brute_compatible(bad) == LevelVerdicts((True,) * (k - 2) + (False, True))


@pytest.mark.parametrize("k", [1, 2, 7, 8, 15, 16, 17])
def test_packed_layer_at_the_extremes_of_a_slot(k):
    """Every value 2^k - 1 (each Z2 sum carries out of k bits), and a Z2 table whose every difference underflows."""
    top = (1 << k) - 1
    for cls in (VdpCoefficients, Z2VdpCoefficients):
        _agree_with_the_band_oracles(cls(k, (top,) * (1 << k)), brute=k < 10)
    # f(m) = 2^k - 1 - m: each f(m) - f(m - 2^deg m) is -2^deg m, so every band underflows
    falling = Z2FunctionTable(k, tuple(top - m for m in range(1 << k)))
    c = to_vdp(falling)
    assert c.B[2:] == tuple((1 << k) - (1 << (m.bit_length() - 1)) for m in range(2, 1 << k))
    assert vdp_table(c) == falling
    _agree_with_the_band_oracles(c, brute=k < 10)


def _peak(job):
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cls", [VdpCoefficients, Z2VdpCoefficients], ids=["F2T", "Z2"])
def test_packed_transforms_peak_below_the_list_sweep_at_k16(cls):
    # measured about 0.65 of the list sweep in both directions and rings, at k = 16 and k = 20
    k = 16
    rng = random.Random(16)
    values = tuple(rng.getrandbits(k) for _ in range(1 << k))
    t, c = cls.table_type(k, values), cls(k, values)
    assert _peak(lambda: to_vdp(t)) < _peak(lambda: cls(k, sweep_by_bands(values, k, cls.table_type.sub, False)))
    assert _peak(lambda: vdp_table(c)) < _peak(lambda: cls.table_type(k, sweep_by_bands(values, k, cls.table_type.add, True)))
