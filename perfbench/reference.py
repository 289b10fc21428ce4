"""A fixed pure-Python loop that gauges the host's speed beside each measurement.

The host's speed changes by up to 1.7x, in blocks from a few seconds to
whole minutes, and it slows a fixed CPU loop as much as it slows tadic.
The runner times this loop right before and right after every op and
every set-up sample, and scales each of those wall times by
NOMINAL_S over the loop's mean time beside it: the time the measurement
would have taken on a host that runs this loop in NOMINAL_S.  The loop
is the benchmark's own code, so a change to tadic cannot move it.  A
timing is the least of BURSTS short runs of the loop, so that one stall
of the process (a preemption, a child being reaped) does not pass for a
slow host.
"""

from time import perf_counter

NOMINAL_S = 0.004
ROUNDS = 28
BURSTS = 3
_XS = list(range(1024))


def _loop():
    acc = 0
    table = [0] * 256
    for _ in range(ROUNDS):
        for i in _XS:
            acc = (acc * 5 + i) & 0xFFFFFFFF
            table[acc & 255] ^= i
    return acc


def measure():
    """Wall time of one run of the loop, in seconds: the least of BURSTS runs."""
    best = float("inf")
    for _ in range(BURSTS):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def scale(before, after):
    """The factor that turns a wall time taken between two loop timings into reference seconds."""
    return 2 * NOMINAL_S / (before + after)
