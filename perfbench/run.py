#!/usr/bin/env python3
"""Seeded benchmark for tadic: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload vdp-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs one op at a time for --seconds.  Every op checks its own
output.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it spends half the time untraced and half traced, runs the
precision sweep, and reports the per-layer metrics.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it are a readable summary.  A full record of the run
(provenance, raw samples, spans) is written to .bench_out/ in the
checkout.  Exit codes: 0 every op passed, 1 an op or the set-up failed,
2 the checkout holds no tadic sources.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import metrics
import reference
import sweep

HERE = Path(__file__).resolve().parent
OUT = layers.ROOT / ".bench_out"
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("vdp-certify", "carlitz-dense", "cli-batch")


class SetupFailed(Exception):
    """Set-up or the warm-up op did not complete cleanly."""


class SetupSampler:
    """Set-up samples taken at evenly spaced times through the timed loop.

    The host's speed changes in blocks of seconds to minutes, so each
    sample is scaled to reference seconds by the reference loop timed
    beside it, and the samples are spread over the loop rather than taken
    back to back.  The loop calls `due` between ops and `take` when it says
    so, and leaves the time `take` spends out of its clock.
    """

    def __init__(self, w, seed, env, seconds):
        self.w, self.seed, self.env, self.seconds = w, seed, env, seconds
        self.wall = []
        self.scaled = []

    def due(self, loop_elapsed):
        if len(self.wall) >= SETUP_SAMPLES:
            return False
        return len(self.wall) <= loop_elapsed / self.seconds * SETUP_SAMPLES if self.seconds else True

    def take(self):
        """Time one fresh set-up; returns the seconds spent, reference loops included.

        In-process workloads: a new interpreter imports tadic and runs one
        warm-up op (setup_probe.py), timed to its "ready" line.  cli-batch:
        one no-op CLI process, which every command pays.
        """
        w = self.w
        begin = perf_counter()
        before = reference.measure()
        start = perf_counter()
        if w.in_process:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), w.name, str(self.seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=layers.ROOT,
            )
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            elapsed = perf_counter() - start
            if not line:
                proc.kill()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            if line.strip() != "ready" or proc.returncode:
                raise SetupFailed("set-up probe for %s failed: %s" % (w.name, err.strip()[-500:]))
        else:
            code, _ = layers.run_cli(["gen-cycle", "--n", "0", "--quiet"], self.env)
            elapsed = perf_counter() - start
            if code:
                raise SetupFailed("no-op CLI run exited %d" % code)
        self.wall.append(elapsed)
        self.scaled.append(elapsed * reference.scale(before, reference.measure()))
        return perf_counter() - begin

    def finish(self):
        while len(self.wall) < SETUP_SAMPLES:
            self.take()


def timed_loop(w, api, plain_api, seed, seconds, workdir, first, tracer=None, setup=None):
    """Closed loop: make an input (untimed), run its op (timed), repeat until `seconds` of ops have run.

    The reference loop is timed before the first op and after every op,
    and each op's time is scaled by the two timings beside it.  An op made
    of CLI runs through a gauged `api` is instead timed as the sum of its
    runs, each scaled by the timings beside it: a job lasts seconds, long
    enough for the host's speed to change inside it.  `setup`, if given, is
    sampled between ops.
    """
    ops = []
    index = first
    paused = 0.0
    begin = perf_counter()
    ref = reference.measure()
    while not ops or perf_counter() - paused < begin + seconds:
        if setup is not None and setup.due(perf_counter() - paused - begin):
            paused += setup.take()
        try:
            inp = w.prepare(plain_api, seed, index, workdir)
        except Exception as exc:  # counted as a failed op, and the loop goes on
            ops.append(metrics.Op(index, None, None, ["input: %s: %s" % (type(exc).__name__, exc)]))
            index += 1
            continue
        if tracer is not None:
            tracer.op_id = index
        api.cli_runs = []
        start = perf_counter()
        try:
            fails = w.op(api, inp)
        except Exception as exc:  # a call raised: the op failed, the loop goes on
            fails = ["%s: %s" % (type(exc).__name__, exc)]
        end = perf_counter()
        after = reference.measure()
        scale = reference.scale(ref, after)
        if api.cli_runs:
            scaled = sum(wall * reference.scale(before, after_run) for wall, before, after_run in api.cli_runs)
        else:
            scaled = (end - start) * scale
        ops.append(metrics.Op(index, start, end, fails, scale, scaled))
        ref = after
        index += 1
    return ops


def peak_rss_mb(in_process):
    """High-water RSS in MiB: this process, or the largest child it waited for."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = layers.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    """Digest of every file under src/, so a record names its code without git."""
    digest = hashlib.sha256()
    for path in sorted(p for p in layers.SRC.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(layers.SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(w, args, workdir):
    """Run one workload; returns (metric values, units, op records, record for the file)."""
    api = layers.Api(gauge=reference.measure)
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup = SetupSampler(w, args.seed, layers.cli_env(), seconds)
    setup.take()
    warm = w.op(api, w.prepare(api, args.seed, -1, workdir))
    if warm:
        raise SetupFailed("warm-up op failed: %s" % "; ".join(warm))
    plain = timed_loop(w, api, api, args.seed, seconds, workdir, 0, setup=setup)
    setup.finish()
    record = {"provenance": provenance(args), "setup_wall_s": setup.wall, "setup_scaled_s": setup.scaled}
    if not args.trace:
        values, notes = metrics.end_to_end(plain, setup.scaled, setup.wall, peak_rss_mb(w.in_process))
        record["notes"] = notes
        return values, metrics.END_TO_END_UNITS, plain, record

    tracer = layers.Tracer()
    traced_api = layers.Api(tracer, reference.measure)
    traced = timed_loop(w, traced_api, api, args.seed, seconds, workdir, plain[-1].index + 1, tracer)
    sweep_ms, skipped = sweep.run(api, args.seed)
    startup_ms = 0.0 if w.in_process else statistics.median(setup.scaled) * 1e3
    values, accounting = metrics.per_layer(
        traced, tracer.spans, plain, startup_ms, (traced_api.bytes_in, traced_api.bytes_out), sweep_ms,
    )
    origin = traced[0].start if traced[0].start is not None else 0.0
    record.update(
        spans=[
            {"name": n, "start": s - origin, "end": e - origin, "op": i, "raised": r}
            for n, s, e, i, r in tracer.spans
        ],
        accounting=accounting,
        sweep={"measured_ms": sweep_ms, "skipped_estimate_ms": skipped, "cell_budget_s": sweep.CELL_BUDGET_S},
    )
    # spans are disjoint and lie inside their op, so layer busy time can never exceed the op's wall time
    overcounted = {row["op"] for row in accounting if row["self_s"] < -1e-6}
    for op in traced:
        if op.index in overcounted:
            op.fails.append("span accounting: layer busy time exceeds the op's wall time")
    return values, metrics.per_layer_units(), plain + traced, record


def summary_lines(name, args, values, units, ops, record):
    failed = sum(bool(op.fails) for op in ops)
    beside = {}
    notes = record.get("notes")
    if notes:
        beside["setup_s"] = "median of %d set-ups" % notes["setup_samples"]
        beside["op_tail_ms"] = "p%.1f, %d of %d samples beyond" % (
            notes["op_tail_percentile"], notes["op_tail_samples_beyond"], notes["op_samples"])
        beside["failed_frac"] = "%d of %d ops" % (failed, len(ops))
    lines = ["== %s  seed %d  %ds  trace %d ==" % (name, args.seed, args.seconds, args.trace)]
    for metric, value in values.items():
        lines.append("%-36s %14.6g %-6s %s" % (metric, value, units[metric], beside.get(metric, "")))
    if notes:
        lines.append("-- reported, not gated --")
        for metric, unit in metrics.REPORTED_UNITS.items():
            lines.append("%-36s %14.6g %-6s %s" % (metric, notes[metric], unit, beside.get(metric, "")))
    else:
        for cell, estimate in record["sweep"]["skipped_estimate_ms"].items():
            why = "estimate %.0f ms" % estimate if estimate else "a smaller k was skipped"
            lines.append("%-36s skipped: %s; cell budget %.0f s" % (cell, why, sweep.CELL_BUDGET_S))
    for op in ops:
        if op.fails:
            lines.append("FAILED op %d: %s" % (op.index, "; ".join(op.fails)))
    return lines


def run_one(args):
    import workloads  # needs the checkout's sources on the path

    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("job-%d" % os.getpid())
    workdir.mkdir(exist_ok=True)
    try:
        values, units, ops, record = run_workload(w, args, workdir)
    except SetupFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(bool(op.fails) for op in ops)
    record.update(
        values=values,
        ops=[
            {"op": op.index, "wall_s": op.wall if op.start is not None else None, "scaled_s": op.scaled,
             "scale": op.scale, "fails": op.fails}
            for op in ops
        ],
    )
    out_file = OUT / ("%s-seed%d-trace%d.json" % (w.name, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1))
    print("\n".join(summary_lines(w.name, args, values, units, ops, record)))
    print("record: %s" % out_file.relative_to(layers.ROOT))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so each peak RSS is its own; then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=layers.ROOT, timeout=args.seconds + 600)
        sys.stdout.write(proc.stdout)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, default=30, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    try:
        layers.use_checkout_source()
    except layers.SourceMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
