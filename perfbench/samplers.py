"""Seeded coefficient samplers for the benchmark inputs.

Uniform random coefficient sets almost never pass the deeper criteria, so
each sampler that matters comes in a steered form (built to satisfy every
clause decidable below the precision) and a corrupted or random form, and
both verdict directions occur.  They follow the samplers of the test
suite, but live here so that the benchmark never imports from `tests/`.
Each takes a `random.Random` and returns plain data: the coefficient
tuple of a van der Put set, or the index-to-coefficient dict of a Mahler or
Carlitz set, for the caller to wrap in the library's coefficient class.
"""


def _unit(rng, width):
    """An odd value of the given bit width."""
    return 1 | (rng.getrandbits(width - 1) << 1) if width > 1 else 1


def ergodic_vdp(rng, k):
    """F2T van der Put coefficients passing every single-cycle clause below k."""
    B = [0] * (1 << k)
    B[0] = _unit(rng, k)
    B[1] = B[0] ^ 3 ^ (rng.getrandbits(k - 2) << 2)
    for d in range(1, k):
        lo = 1 << d
        for a in range(lo, 2 * lo):
            B[a] = _unit(rng, k - d) << d
        if d <= k - 2:
            s = 0
            for a in range(lo, 2 * lo):
                s ^= B[a]
            # the band XOR has bit d clear (an even count of units);
            # setting bit d+1 makes the scaled sum T mod T^2
            if not (s >> (d + 1)) & 1:
                B[lo] ^= 1 << (d + 1)
    return tuple(B)


def corrupt_vdp(rng, coeffs):
    """Flip one coefficient bit above its divisibility floor (stays 1-Lipschitz)."""
    B = list(coeffs)
    k = len(B).bit_length() - 1
    m = rng.randrange(1 << k)
    d = max(m.bit_length() - 1, 0)
    B[m] ^= 1 << rng.randrange(d, k)
    return tuple(B)


def ergodic_z2(rng, k):
    """Z2 van der Put coefficients passing every 2-adic single-cycle clause below k."""
    mask = (1 << k) - 1
    B = [0] * (1 << k)
    B[0] = _unit(rng, k)
    B[1] = (3 - B[0] + (rng.getrandbits(k - 2) << 2)) & mask
    for w in range(1, k):
        lo = 1 << w
        width = k - w
        bs = [_unit(rng, width) for _ in range(lo)]
        if w <= k - 2:
            # 2^w odd values sum to an even defect; adding it to one
            # scaled coefficient keeps every one of them odd
            bs[0] = (bs[0] + ((2 if w == 1 else 0) - sum(bs)) % 4) % (1 << width)
        for j, b in enumerate(bs):
            B[lo + j] = b << w
    return tuple(B)


def corrupt_z2(rng, coeffs):
    """Add one power of 2 above the divisibility floor of one coefficient."""
    B = list(coeffs)
    k = len(B).bit_length() - 1
    m = rng.randrange(1 << k)
    w = max(m.bit_length() - 1, 0)
    B[m] = (B[m] + (1 << rng.randrange(w, k))) & ((1 << k) - 1)
    return tuple(B)


def lipschitz_vdp(rng, k):
    """Uniform over F2T van der Put coefficients with ord(B_alpha) >= deg alpha."""
    B = [rng.getrandbits(k), rng.getrandbits(k)]
    B += [rng.getrandbits(k - (m.bit_length() - 1)) << (m.bit_length() - 1) for m in range(2, 1 << k)]
    return tuple(B)


def mahler(rng, k, steered):
    """Sparse Mahler set on indices 0..nmax, nmax < 16.

    The steered form has a_0 odd, a_1 = 1 mod 4 and the fast 2-power decay
    the criterion asks for; the other form is uniform.
    """
    nmax = rng.randrange(2, 16)
    if not steered:
        return {i: rng.getrandbits(k) for i in range(nmax + 1)}
    a = {0: rng.getrandbits(k) | 1, 1: ((rng.getrandbits(k) & ~3) | 1) & ((1 << k) - 1)}
    for i in range(2, nmax + 1):
        w = min((i + 1).bit_length(), k)
        a[i] = (rng.getrandbits(k) >> w) << w
    return a


def dense_carlitz(rng, k, steered):
    """Carlitz set drawing every index below 2^k, 1-Lipschitz by construction.

    The random form draws each a_n uniformly above its Lipschitz floor
    floor(log2 n).  The steered form lifts every band one digit higher and
    sets the chain digit T^(m-1) of a_(2^(m-1)-1), so every clause of the
    single-cycle criterion below k holds.
    """
    a = {}
    for n in range(1 << k):
        floor = n.bit_length() - 1 if n >= 2 else 0
        if steered and n >= 1:
            floor = n.bit_length()
        a[n] = (rng.getrandbits(k - floor) << floor) if floor < k else 0
    if steered:
        a[0] |= 1
        a[1] |= 3
        for m in range(3, k + 1):
            a[(1 << (m - 1)) - 1] = (a[(1 << (m - 1)) - 1] & ~((2 << (m - 1)) - 1)) | (1 << (m - 1))
    return a


def perturbed_reference(rng, k):
    """Sparse ergodic Carlitz set keeping the chain a_(2^j-1) = T^j mod T^(j+1)."""
    a = {0: _unit(rng, k), 1: 3 ^ (rng.getrandbits(k - 2) << 2)}
    for j in range(2, k):
        hi = (rng.getrandbits(k - j - 1) << (j + 1)) if j + 1 < k else 0
        a[(1 << j) - 1] = (1 << j) | hi
    for _ in range(3):
        n = rng.randrange(2, 1 << k)
        bound = n.bit_length() - 1
        if (n + 1) & n and bound + 1 < k:
            a[n] = rng.getrandbits(k - bound - 1) << (bound + 1)
    return a
