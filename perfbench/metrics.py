"""End-to-end and per-layer metrics, computed from op records and spans.

An op record is `Op(index, start, end, fails, scale, scaled)`; `start` is
None when the input could not be made, `scale` is the host scale beside
the op, and `scaled` is its time in reference seconds (see reference.py).  Spans are the `layers.Tracer`
tuples (name, start, end, op id, raised).

The gated timings are in reference seconds, so that a slow spell of the
host does not read as a slower program; the plain wall-time figures are
reported beside them, ungated.  Per-layer busy times are wall times.
"""

import statistics
from collections import defaultdict
from dataclasses import dataclass

import sweep

LAYER_FUNCTIONS = {
    "carlitz": ("carlitz_table", "to_carlitz", "check_lipschitz_carlitz", "check_ergodic_carlitz"),
    "vanderput": ("to_vdp", "vdp_table", "check_lipschitz_vdp", "check_mp_vdp", "check_ergodic_vdp"),
    "dynamics": ("is_compatible", "is_bijective_mod", "is_transitive_mod"),
    "cyclegen": ("random_data", "gen_cycle"),
    "z2compare": ("vdp_table_z2", "to_vdp_z2", "check_mp_z2", "check_ergodic_z2", "is_transitive_mod_z2",
                  "mahler_table", "check_ergodic_mahler_z2"),
}
P50_SPANS = ("carlitz.carlitz_table", "carlitz.to_carlitz")
CLI_COMMANDS = ("gen-cycle", "verify-exhaustive", "expand", "verify", "keystream", "convert", "eval")
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
REPORTED_UNITS = {
    "wall_setup_s": "s",
    "wall_ops_per_s": "1/s",
    "wall_op_p50_ms": "ms",
    "wall_op_tail_ms": "ms",
    "host_scale": "ratio",
    "failed_frac": "ratio",
}


@dataclass
class Op:
    index: int
    start: float
    end: float
    fails: list
    scale: float = 1.0
    scaled: float = None

    @property
    def wall(self):
        return self.end - self.start


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            units["%s.%s.calls" % (module, fn)] = "count"
            units["%s.%s.busy_s" % (module, fn)] = "s"
    for name in P50_SPANS:
        units[name + ".p50_ms"] = "ms"
    for module in (*LAYER_FUNCTIONS, "cli"):
        units[module + ".share"] = "ratio"
        units[module + ".failed"] = "count"
    for command in CLI_COMMANDS:
        units["cli.%s.p50_ms" % command] = "ms"
    units["cli.startup_ms"] = "ms"
    units["cli.bytes_in"] = "bytes"
    units["cli.bytes_out"] = "bytes"
    units["bench.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    for name in sweep.REPORTED:
        units[name] = "ms"
    return units


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples it
    falls back to the maximum, with 0 beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def timed(ops):
    return [op for op in ops if op.start is not None]


def ops_per_s(ops, time=lambda op: op.scaled):
    """Ops that passed their checks over the summed op time (reference seconds by default)."""
    busy = sum(time(op) for op in timed(ops))
    return sum(not op.fails for op in ops) / busy if busy else 0.0


def end_to_end(ops, setup_scaled, setup_wall, peak_rss_mb):
    """The gated end-to-end values, and the ungated wall-time figures beside them."""
    scaled = [op.scaled for op in timed(ops)] or [0.0]
    wall = [op.wall for op in timed(ops)] or [0.0]
    tail_s, pct, beyond = tail(scaled)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": ops_per_s(ops),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_setup_s": statistics.median(setup_wall),
        "wall_ops_per_s": ops_per_s(ops, lambda op: op.wall),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_tail_ms": tail(wall)[0] * 1e3,
        "host_scale": statistics.median(op.scale for op in timed(ops)) if timed(ops) else 1.0,
        "failed_frac": sum(bool(op.fails) for op in ops) / len(ops),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(scaled),
        "setup_samples": len(setup_scaled),
    }
    return values, notes


def _module(span_name):
    return span_name.split(".", 1)[0]


def per_layer(traced_ops, spans, plain_ops, cli_startup_ms, cli_bytes, sweep_ms):
    """Per-layer values from the traced loop's spans, plus per-op accounting.

    Returns (values, accounting): accounting lists, for each op, its wall
    time, the busy time of each layer inside it, and the remainder
    (`self_s`), which is time spent in the benchmark's own code.
    """
    ops = timed(traced_ops)
    op_time = sum(op.wall for op in ops)
    durations = defaultdict(list)
    raised = defaultdict(int)
    per_op = defaultdict(lambda: defaultdict(float))
    for name, start, end, op_id, failed in spans:
        durations[name].append(end - start)
        raised[_module(name)] += failed
        per_op[op_id][_module(name)] += end - start

    values = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            d = durations.get("%s.%s" % (module, fn), [])
            values["%s.%s.calls" % (module, fn)] = len(d)
            values["%s.%s.busy_s" % (module, fn)] = sum(d)
    for name in P50_SPANS:
        values[name + ".p50_ms"] = statistics.median(durations[name]) * 1e3 if durations.get(name) else 0.0
    module_busy = defaultdict(float)
    for name, d in durations.items():
        module_busy[_module(name)] += sum(d)
    for module in (*LAYER_FUNCTIONS, "cli"):
        values[module + ".share"] = module_busy[module] / op_time if op_time else 0.0
        values[module + ".failed"] = raised[module]
    for command in CLI_COMMANDS:
        d = durations.get("cli." + command)
        values["cli.%s.p50_ms" % command] = statistics.median(d) * 1e3 if d else 0.0
    values["cli.startup_ms"] = cli_startup_ms
    values["cli.bytes_in"] = cli_bytes[0] / len(ops) if ops else 0.0
    values["cli.bytes_out"] = cli_bytes[1] / len(ops) if ops else 0.0
    values["bench.self_s"] = op_time - sum(module_busy.values())
    traced = ops_per_s(traced_ops)
    values["trace.overhead_frac"] = ops_per_s(plain_ops) / traced - 1.0 if traced else 0.0
    for name in sweep.REPORTED:
        values[name] = sweep_ms.get(name, 0.0)

    accounting = []
    for op in ops:
        busy = dict(per_op.get(op.index, {}))
        accounting.append({"op": op.index, "wall_s": op.wall, "busy_s": busy, "self_s": op.wall - sum(busy.values())})
    return values, accounting
