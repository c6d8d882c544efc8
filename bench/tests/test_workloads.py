"""Each workload runs to its end at a tiny size, traced and untraced, and
the command refuses to run without the package sources."""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import run as bench_run
import tracing
import workloads
from compset import protocol

BENCH = Path(__file__).resolve().parents[1]
PER_LAYER = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_tiny(name, tmp_path):
    result = workloads.run(name, 4, 0.0, tmp_path, tiny=True)
    assert result.correct, result.problems
    assert result.failed == 0 and result.rounds == 1
    spec = workloads.spec_of(name, 4, tiny=True)
    assert result.attempted == workloads.SETUP_REPS * workloads.setup_ops(spec) + workloads.round_ops(spec)
    assert set(result.metrics) | {"peak_rss_mb"} == set(bench_run.END_TO_END_UNITS)
    assert all(v > 0 for v in result.metrics.values())
    again = workloads.run(name, 4, 0.0, tmp_path, tiny=True)
    assert again.digest == result.digest


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_yields_every_layer_metric(name, tmp_path):
    tracemalloc.start()
    tracer = tracing.Tracer()
    tracer.wrap_package()
    try:
        result = workloads.run(name, 4, 0.0, tmp_path, tracer, tiny=True)
    finally:
        tracer.unwrap()
        tracemalloc.stop()
    assert result.correct, result.problems
    assert protocol.score_matrix.__module__ == "compset.protocol"  # unwrapped again
    assert set(tracing.layer_metrics(tracer.spans)) == PER_LAYER


def test_self_time_and_peaks():
    tracemalloc.start()
    try:
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                block = bytearray(8 * 2**20)
            del block
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    assert inner["peak_mb"] >= 8.0 and outer["peak_mb"] >= 8.0
    index = tracing.SpanIndex(tracer.spans)
    gap = (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    assert index.self_time(outer) == pytest.approx(gap)


def test_missing_wrapped_name_leaves_metric_absent():
    class Fake:
        __name__ = "compset.protocol"

    tracer = tracing.Tracer()
    tracer.wrap(Fake, "hard_nearest_replace")
    assert tracer._patched == []
    assert "primitives.hard_nearest_replace.s" not in tracing.layer_metrics(tracer.spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
