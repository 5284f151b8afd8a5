"""The benchmark's own tests, at toy shapes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import FPDTModelRunner  # noqa: E402
from repro.obs import orphan_spans  # noqa: E402
from repro.obs.span import span_from_dict  # noqa: E402
from repro.runtime.executor import RankExecutor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _cli("--workload", workload, "--seed", "3", "--seconds", "0.4",
                "--trace", str(trace), "--size", "tiny", cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:  # printed by name with its unit, too
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("error_rate") for line in lines)


def test_traced_training_reports_its_layers_and_parents_worker_spans():
    rank_map = RankExecutor.rank_map
    result = workloads.run_workload("train_fpdt_long", 5, 0.4, True, "tiny")
    assert RankExecutor.rank_map is rank_map  # wrappers removed again
    # Every other step is traced, and each traced step roots one trace.
    steps, traced = result.facts["steps"], result.facts["traced_steps"]
    assert traced >= 1 and steps - traced in (0, 1)
    roots = [s for s in result.spans if s["parent_id"] is None]
    assert [s["name"] for s in roots] == ["train_step"] * traced
    assert all(span_from_dict(s).to_dict() == s for s in result.spans)
    m = {k: v for k, (v, _) in result.layer_metrics.items()}
    for name in ("core.block_fwd_ms_per_step", "core.recompute_ms_per_step",
                 "core.offload_ms_per_step", "models.attn_kernel_ms_per_step",
                 "collectives.calls_per_step", "executor.sections_per_step",
                 "training.optimizer_ms_per_step", "models.reference_step_ms"):
        assert m[name] > 0, name
    assert m["parallel.block_fwd_ms_per_step"] == 0
    assert orphan_spans(result.spans) == []
    step = next(s["trace_id"] for s in result.spans if s["parent_id"] is None)
    assert step.startswith("step-")
    by_id = {s["span_id"]: s for s in result.spans if s["trace_id"] == step}
    workers = [s for s in by_id.values() if s["attrs"]["thread"] != "MainThread"]
    assert workers
    for span in workers:  # worker spans hang off their fork-join section
        parent = by_id[span["parent_id"]]
        while parent["attrs"]["thread"] != "MainThread":
            parent = by_id[parent["parent_id"]]
        assert parent["name"] == layers.SECTION


def test_traced_serving_reports_its_layers():
    result = workloads.run_workload("serve_closed_16", 5, 0.4, True, "tiny")
    m = {k: v for k, (v, _) in result.layer_metrics.items()}
    for name in ("serving.tick_ms_p50", "serving.decode_batch_size_mean",
                 "serving.kvstore_ms_per_step", "serving.kv_h2d_bytes_per_token",
                 "models.decode_forward_ms_p50", "models.prefill_ms_per_token"):
        assert m[name] > 0, name
    assert m["collectives.calls_per_step"] == 0
    assert orphan_spans(result.spans) == []


@pytest.mark.parametrize("corrupt", ["scale", "nan"])
def test_a_corrupted_loss_counts_as_failed(monkeypatch, corrupt):
    original = FPDTModelRunner.forward_backward
    calls = []

    def forward_backward(self, tokens, labels):
        loss, grads = original(self, tokens, labels)
        calls.append(loss)
        if corrupt == "scale":
            return loss * (1 + 1e-6), grads
        return (float("nan") if len(calls) == 5 else loss), grads

    monkeypatch.setattr(FPDTModelRunner, "forward_backward", forward_backward)
    result = workloads.run_workload("train_fpdt_long", 1, 0.2, False, "tiny")
    assert result.failed >= 1 and result.attempted > result.failed


def test_a_corrupted_token_counts_as_failed(monkeypatch):
    import repro.serving.engine as engine

    original = engine.sample_token
    monkeypatch.setattr(
        engine, "sample_token",
        lambda row, temperature, rng: (original(row, temperature, rng) + 1) % row.shape[0],
    )
    result = workloads.run_workload("serve_closed_16", 1, 0.2, False, "tiny")
    spec = workloads.SPECS["tiny"]["serve_closed_16"]
    assert result.failed == spec.verify_sample
    assert result.attempted > result.failed


def test_an_exception_counts_as_failed(monkeypatch):
    def boom(self, tokens, labels):
        raise RuntimeError("injected")

    result = workloads.RunResult()
    trainer = workloads._build_trainer(workloads.SPECS["tiny"]["train_fpdt_long"], 1)
    monkeypatch.setattr(FPDTModelRunner, "forward_backward", boom)
    spec = workloads.SPECS["tiny"]["train_fpdt_long"]
    assert workloads._train_window(trainer, spec, 0.1, result) == ([], [])
    assert result.failed == 1 and result.attempted == 1


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_the_seed_fixes_the_inputs(size):
    train = workloads.SPECS[size]["train_fpdt_long"]
    serve = workloads.SPECS[size]["serve_closed_16"]
    a, b, c = (workloads.first_batch(train, s) for s in (7, 7, 8))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    mixes = [workloads.mix_digest(workloads.request_mix(serve, s, 200))
             for s in (7, 7, 8)]
    assert mixes[0] == mixes[1] != mixes[2]


def test_recorder_keeps_every_span_and_count_under_thread_contention():
    recorder = layers.SpanRecorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        section = recorder.open(layers.SECTION, {"world": 8, "remote": False})
        recorder.section = section

        def work():
            for _ in range(2000):
                rec = recorder.open("work")
                recorder.count("calls")
                recorder.close(rec)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        recorder.section = None
        recorder.close(section)
    finally:
        sys.setswitchinterval(interval)
    assert recorder.counts["calls"] == 16000
    spans = [s for s in recorder.tracer.spans if s.name == "work"]
    assert len(spans) == 16000
    assert all(s.parent_id == section.span_id for s in spans)
    assert len({s.span_id for s in spans}) == 16000


def test_rss_counts_a_pooled_worker_process():
    # A fresh interpreter: RUSAGE_CHILDREN is process-wide.
    script = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import workloads
from repro.runtime.executor import RankExecutor, set_executor

set_executor(RankExecutor("process-pool", workers=2))

def touch(r):
    import numpy
    return float(numpy.ones(96 << 17).sum())  # 96 MiB in each worker

workloads.get_executor().rank_map(touch, 2)
own = workloads.resource.getrusage(workloads.resource.RUSAGE_SELF).ru_maxrss
print(workloads.rss_peak_mib() - own / 1024.0)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, BENCH, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) >= 96


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(100))
    value, pct = workloads.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert workloads.tail([5.0])[0] == 5.0
    short = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert workloads.tail(short)[0] >= np.median(short)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "train_ulysses_wide", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
