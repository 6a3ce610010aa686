"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

For each workload, one untraced round and its traced replay: every layer
predicted busy is called and every other traced layer is not, every
listed caller-side name is reached, the replay's outputs equal the
untraced ones bit for bit, and warm-up and rounds leave the loaded
parameters untouched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bootstrap

bootstrap.import_graphflow()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

# names that callers import by name: patching only the defining module
# would miss these calls
CALLER_SIDE_NAMES = {
    "sampler.check_valency": "generate",
    "sampler.node_conditional": "generate",
    "sampler.edge_conditional": "generate",
    "rl.sample_molecule": "finetune",
    "rl.adam_step": "finetune",
    "flow.dequantize": "train",
    "metrics.valency_ok": "generate",
}


def snapshot(params) -> dict:
    out = {name: t.data.copy() for name, t in params.named_tensors().items()}
    out.update({name: np.array(b, copy=True) for name, b in params.named_buffers().items()})
    return out


def assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def replay(request):
    workload = workloads.WORKLOADS[request.param](seed=3)
    workload.load()
    loaded = snapshot(workload.params) if workload.uses_checkpoint else None
    workload.warm_up()
    untraced = workload.run_round(0)
    after_round = snapshot(workload.params) if workload.uses_checkpoint else None
    tracer, load_calls, _, traced = tracing.trace_replay(workload, 1)
    return workload, loaded, after_round, untraced, tracer, load_calls, traced[0]


def test_predicted_layers_hold(replay):
    workload, _, _, _, tracer, load_calls, _ = replay
    assert tracing.prediction_problems(workload, tracer, load_calls) == []


def test_busy_layers_report_work(replay):
    workload, _, _, _, tracer, _, _ = replay
    values = tracer.layer_metrics()
    for metric in values:
        layer, _, field = metric.rpartition(".")
        if field == "calls" and layer in workload.busy_layers:
            assert values[metric]["value"] > 0, metric
    assert values["autodiff.tensors"]["value"] > 0


def test_every_layer_is_busy_somewhere():
    busy = set().union(*(w.busy_layers for w in workloads.WORKLOADS.values()))
    assert tracing.SPANS <= busy | {"checkpoint.load_checkpoint"}


def test_caller_side_names_are_predicted_reached():
    for name, workload in CALLER_SIDE_NAMES.items():
        assert name in workloads.WORKLOADS[workload].reached_names, name


def test_traced_replay_matches_untraced_bit_for_bit(replay):
    _, _, _, untraced, _, _, traced = replay
    assert traced.output == untraced.output
    assert not untraced.problems and not traced.problems


def test_warm_up_and_rounds_leave_loaded_parameters_untouched(replay):
    workload, loaded, after_round, _, _, _, _ = replay
    if loaded is None:
        pytest.skip("trains fresh parameters every round")
    assert_same(loaded, after_round)


def test_wrappers_are_removed_after_replay(replay):
    from graphflow import autodiff, rl, sampler
    from graphflow import graph as G

    assert sampler.check_valency is G.check_valency
    assert not hasattr(sampler.check_valency, "__wrapped__")
    assert not hasattr(rl.sample_molecule, "__wrapped__")
    assert not hasattr(autodiff.Tape.backward, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_mode(tmp_path, trace, section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "train", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if section == "end_to_end":
            assert result["metrics"][m["name"]]["value"] > 0
