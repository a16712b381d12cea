"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.add_source_path()

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.nn import pointnet2  # noqa: E402
from repro.observability.tracing import find_orphans  # noqa: E402


@pytest.fixture(scope="module")
def edgepc_output():
    pipe = workloads.build_pipeline("pn2-seg-edgepc")
    cloud = workloads.bank("pn2-seg-edgepc")[3]
    return pipe.infer(cloud).logits[0]


def test_unchanged_output_matches_reference(edgepc_output):
    assert reference.load("pn2-seg-edgepc").matches(3, edgepc_output)


@pytest.mark.parametrize("perturb", ["flip_label", "sampled_row", "shift"])
def test_perturbed_output_is_caught(edgepc_output, perturb):
    refs = reference.load("pn2-seg-edgepc")
    logits = edgepc_output.copy()
    if perturb == "flip_label":
        # A row between the sampled ones, pushed to another class.
        row = 1
        logits[row, (logits[row].argmax() + 1) % logits.shape[1]] += 1e3
    elif perturb == "sampled_row":
        logits[0, 0] += 1e-3
    else:
        logits += 1e-4
    assert not refs.matches(3, logits)


def test_classifier_reference_rejects_other_cloud():
    refs = reference.load("dgcnn-serve")
    pipe = workloads.build_pipeline("dgcnn-serve")
    logits = pipe.infer(workloads.bank("dgcnn-serve")[5]).logits[0]
    assert refs.matches(5, logits)
    assert not refs.matches(6, logits)


def test_self_time_subtracts_children():
    records = [
        {"id": 1, "parent": None, "duration_s": 1.0},
        {"id": 2, "parent": 1, "duration_s": 0.25},
        {"id": 3, "parent": 1, "duration_s": 0.5},
        {"id": 4, "parent": 3, "duration_s": 0.125},
    ]
    assert spans.self_times(records) == {
        1: 0.25, 2: 0.25, 3: 0.375, 4: 0.125,
    }


def test_layer_tracer_spans_and_restores():
    original = pointnet2.ball_query_batch
    pipe = workloads.build_pipeline("pn2-seg-edgepc")
    layer_tracer = spans.LayerTracer()
    layer_tracer.install()
    try:
        pipe.infer(workloads.bank("pn2-seg-edgepc")[:1])
    finally:
        layer_tracer.uninstall()
    assert pointnet2.ball_query_batch is original
    records = layer_tracer.records()
    assert find_orphans(records) == []
    names = {row["name"] for row in records}
    assert {"pipeline.infer", "nn.sa0", "nn.fp3", "nn.mlp",
            "core.morton_sample", "neighbors.ball_query"} <= names
    metrics = spans.layer_metrics(records)
    assert metrics["nn.mlp_ms"] > 0
    assert metrics["neighbors.knn_ms"] == 0
    # Self times partition the forward: stages plus the layers outside
    # them add up to the pipeline.infer span.
    profile = spans.forward_profiles(records)[0]
    assert sum(profile["self"].values()) == pytest.approx(
        profile["total"]["pipeline.infer"]
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("pn2-seg-edgepc", False), ("dgcnn-serve", True)],
)
def test_measure_reports_declared_metrics(workload, trace):
    result = run.measure(workload, seed=0, seconds=1.0, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(run.declared_metrics(section))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(run.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dgcnn-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS
    )
    for name, size in workloads.BANK_SIZE.items():
        assert len(reference.load(name)) == size
