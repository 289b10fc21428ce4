"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

They check that a wrong result is counted as a failed op, that the gated
timings are scaled by the reference loop (per CLI run for a cli-batch
job), that set-up samples are spread
over the loop, that the benchmark refuses to run without tadic sources,
and that the metric names the harness prints are the ones BENCHMARK.json
declares.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

layers.use_checkout_source()

import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = layers.ROOT / ".bench_out" / "test"


@pytest.fixture
def workdir():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_names_match_benchmark_json():
    spec = json.loads((layers.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()


def test_same_seed_and_index_give_the_same_input():
    w = workloads.WORKLOADS["carlitz-dense"]
    api = layers.Api()
    assert w.prepare(api, 5, 3, None) == w.prepare(api, 5, 3, None)
    assert w.prepare(api, 5, 3, None) != w.prepare(api, 6, 3, None)


def test_wrong_expected_exit_code_fails_the_cli_job(workdir):
    w = workloads.WORKLOADS["cli-batch"]
    api = layers.Api()
    inp = w.prepare(api, 7, 1, workdir)
    assert w.op(api, inp) == []
    inp.z2_exit = 1 - inp.z2_exit
    fails = w.op(api, inp)
    assert len(fails) == 1 and "expected %d" % inp.z2_exit in fails[0]


def test_wrong_expectation_counts_in_failed_frac(workdir):
    w = workloads.WORKLOADS["carlitz-dense"]

    def claims_every_set_is_steered(api, rng, index, wd):
        inp = w.make_input(api, rng, index, wd)
        inp.steered = True  # wrong for the random sets at odd indices
        return inp

    wrong = dataclasses.replace(w, make_input=claims_every_set_is_steered)
    api = layers.Api()
    ops = run.timed_loop(wrong, api, api, 0, 0, workdir, first=1)
    assert len(ops) == 1 and ops[0].fails == ["steered set not certified"]
    values, notes = metrics.end_to_end(ops, [0.1], [0.1], 1.0)
    assert notes["failed_frac"] == 1.0 and values["ops_per_s"] == 0.0


def test_gated_timings_are_scaled_to_reference_seconds():
    ops = [
        metrics.Op(0, 0.0, 0.2, [], 0.5, 0.1),
        metrics.Op(1, 0.2, 0.3, [], 1.0, 0.1),
        metrics.Op(2, 0.3, 0.7, [], 0.5, 0.2),
    ]
    values, notes = metrics.end_to_end(ops, [0.3, 0.1, 0.2], [0.6, 0.2, 0.4], 1.0)
    assert values["setup_s"] == 0.2 and notes["wall_setup_s"] == 0.4
    assert values["op_p50_ms"] == pytest.approx(100.0) and notes["wall_op_p50_ms"] == pytest.approx(200.0)
    assert values["ops_per_s"] == pytest.approx(3 / 0.4) and notes["wall_ops_per_s"] == pytest.approx(3 / 0.7)
    assert reference.scale(0.02, 0.02) == pytest.approx(reference.NOMINAL_S / 0.02)


def test_cli_job_time_is_the_sum_of_its_scaled_runs(workdir):
    w = workloads.WORKLOADS["cli-batch"]
    api = layers.Api(gauge=lambda: 2 * reference.NOMINAL_S)
    ops = run.timed_loop(w, api, api, 7, 0, workdir, 0)
    assert not ops[0].fails and len(api.cli_runs) == 11
    assert ops[0].scaled == pytest.approx(sum(wall for wall, _, _ in api.cli_runs) / 2)
    assert ops[0].scaled < ops[0].wall / 2


def test_set_up_samples_are_spread_over_the_loop():
    sampler = run.SetupSampler(None, 0, {}, 9.0)
    sampler.wall = [0.1]
    assert not sampler.due(0.5) and sampler.due(1.0)
    sampler.wall = [0.1] * run.SETUP_SAMPLES
    assert not sampler.due(9.0)


def test_traced_op_spans_account_for_its_wall_time():
    w = workloads.WORKLOADS["vdp-certify"]
    tracer = layers.Tracer()
    api = layers.Api(tracer)
    ops = run.timed_loop(w, api, layers.Api(), 0, 0, None, 0, tracer)
    values, accounting = metrics.per_layer(ops, tracer.spans, ops, 0.0, (0, 0), {})
    assert values["trace.overhead_frac"] == 0.0
    assert not ops[0].fails
    assert values["vanderput.vdp_table.calls"] == 2 and values["carlitz.to_carlitz.calls"] == 0
    row = accounting[0]
    assert 0 <= row["self_s"] < 0.1 * row["wall_s"]
    assert abs(sum(row["busy_s"].values()) + row["self_s"] - row["wall_s"]) < 1e-9


def test_refuses_to_run_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(layers.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vdp-certify", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "no tadic package" in proc.stderr
