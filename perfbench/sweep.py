"""Report-only precision sweep of the table-sized layers, run with the traced run.

Each cell times one function at one precision k.  Before a cell runs, its
cost is extrapolated from the previous k of the same function; a cell
whose extrapolated cost exceeds CELL_BUDGET_S is skipped and recorded
with that estimate, and so are the larger k of that function.
"""

import random
import statistics
from time import perf_counter

import samplers

KS = (8, 10, 12, 14, 16)
CELL_BUDGET_S = 5.0
# until two cells give a measured growth, assume the cost grows as 4^k
FIRST_GROWTH = 16.0
# the cells that run at the parent commit; skipped cells go to the record file only
REPORTED = tuple(
    ["sweep.%s.k%d_ms" % (fn, k) for fn in ("carlitz_table", "to_carlitz") for k in (8, 10)]
    + ["sweep.%s.k%d_ms" % (fn, k) for fn in ("vdp_table", "to_vdp", "is_transitive_mod") for k in KS]
)


def _random_table(api, rng, k):
    return api.dynamics.FunctionTable(k, tuple(rng.getrandbits(k) for _ in range(1 << k)))


def _cases(api, rng):
    """function name -> (callable, input maker for precision k)."""
    return {
        "carlitz_table": (
            api.carlitz.carlitz_table,
            lambda k: api.carlitz.CarlitzCoefficients(k, samplers.dense_carlitz(rng, k, False)),
        ),
        "to_carlitz": (api.carlitz.to_carlitz, lambda k: _random_table(api, rng, k)),
        "vdp_table": (
            api.vanderput.vdp_table,
            lambda k: api.vanderput.VdpCoefficients(k, samplers.lipschitz_vdp(rng, k)),
        ),
        "to_vdp": (api.vanderput.to_vdp, lambda k: _random_table(api, rng, k)),
        "is_transitive_mod": (
            api.dynamics.is_transitive_mod,
            lambda k: api.cyclegen.gen_cycle(api.cyclegen.random_data(rng.getrandbits(32), k - 1))[1],
        ),
    }


def _time_cell(fn, arg):
    """Median of up to five calls, stopping once 0.2 s has been spent."""
    times = []
    while len(times) < 5 and sum(times) < 0.2:
        start = perf_counter()
        fn(arg)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(api, seed):
    """Returns (measured ms by metric name, skipped cells with their estimate in ms)."""
    rng = random.Random("sweep:%d" % seed)
    measured, skipped = {}, {}
    for name, (fn, make) in _cases(api, rng).items():
        history = []
        for k in KS:
            cell = "sweep.%s.k%d_ms" % (name, k)
            if history:
                growth = max(history[-1] / history[-2], 4.0) if len(history) > 1 else FIRST_GROWTH
                estimate = history[-1] * growth
                if estimate > CELL_BUDGET_S:
                    for later in KS[KS.index(k):]:
                        skipped["sweep.%s.k%d_ms" % (name, later)] = None
                    skipped[cell] = estimate * 1e3
                    break
            history.append(_time_cell(fn, make(k)))
            measured[cell] = history[-1] * 1e3
    return measured, skipped
