"""Bitwise executor-on/off equivalence across every strategy.

The rank executor's whole contract is that parallelism is **invisible**:
with ``workers=4`` each strategy must produce the same loss bytes, the
same gradient bytes, the same trace-event stream (ids included) and the
same pool peaks as the serial loop — not merely "close".  These tests
run every strategy both ways and compare at the byte level, then check
that repeated parallel runs are self-identical (no run-to-run thread
nondeterminism) — the receipts behind the "bitwise identity" acceptance
bar.

The matrix covers both parallel backends: ``threads`` (shared address
space) and ``process`` (fork-join workers talking through pickled
descriptors and shared-memory segments).  The process backend has far
more machinery that could diverge — journal replay for pool accounting,
tensor shipping, staged result arrays — so the same byte-level bar
applies to it unchanged.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.parallel import (
    MegatronModelRunner,
    RingModelRunner,
    UlyssesModelRunner,
    USPModelRunner,
    ZeroAdam,
)
from repro.runtime import VirtualCluster
from repro.runtime.executor import executor, reset_executor

from .helpers import rng

WORLD = 4
SEQ = 32

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process backend needs os.fork"
)


@pytest.fixture(autouse=True)
def _clean_global_executor():
    reset_executor()
    yield
    reset_executor()


def _llama():
    return tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=2, num_layers=2)


def _data(cfg, seed=0):
    g = rng(seed)
    return (
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
        g.integers(0, cfg.vocab_size, size=(1, SEQ)),
    )


def _cluster_signature(cluster):
    """Everything the runtime observed: the full trace-event stream and
    the per-pool peak bytes (memory-accounting invariance)."""
    events = [
        (e.event_id, e.kind, e.label, e.rank, e.stream, e.nbytes, e.flops)
        for e in cluster.trace.events
    ]
    peaks = [d.hbm.peak for d in cluster.devices] + [cluster.host.pool.peak]
    return events, peaks


# One factory per strategy; each builds a *fresh* model+cluster so the
# two runs share no state.  (Megatron's TP needs kv heads divisible by
# the world size, so it gets its own configs.)
STRATEGIES = {
    "ulysses": (_llama, lambda m, c: UlyssesModelRunner(m, c)),
    "megatron_gpt": (
        lambda: tiny_gpt(hidden_size=32, num_heads=4, num_layers=2),
        lambda m, c: MegatronModelRunner(m, c),
    ),
    "megatron_llama": (
        lambda: tiny_llama(hidden_size=32, num_heads=4, num_kv_heads=4, num_layers=2),
        lambda m, c: MegatronModelRunner(m, c),
    ),
    "ring": (_llama, lambda m, c: RingModelRunner(m, c)),
    "fpdt": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=False),
    ),
    "fpdt_offload": (
        _llama,
        lambda m, c: FPDTModelRunner(m, c, num_chunks=2, offload=True),
    ),
    "usp_2x2": (
        _llama,
        lambda m, c: USPModelRunner(m, c, seq_parallel=(2, 2)),
    ),
}


def _run_strategy(name: str, workers: int, backend: str | None = None):
    cfg_factory, make_runner = STRATEGIES[name]
    cfg = cfg_factory()
    tokens, labels = _data(cfg)
    model = GPTModel(cfg, seed=7)
    cluster = VirtualCluster(WORLD)
    runner = make_runner(model, cluster)
    with executor(workers=workers, backend=backend):
        loss, grads = runner.forward_backward(tokens, labels)
    events, peaks = _cluster_signature(cluster)
    cluster.check_no_leaks()
    return loss, grads, events, peaks


def _assert_matches_serial(name: str, backend: str):
    loss1, grads1, events1, peaks1 = _run_strategy(name, workers=1)
    loss4, grads4, events4, peaks4 = _run_strategy(name, workers=4, backend=backend)
    assert loss1 == loss4  # exact float equality, not approx
    assert set(grads1) == set(grads4)
    for key in grads1:
        assert grads1[key].tobytes() == grads4[key].tobytes(), key
    assert events1 == events4
    assert peaks1 == peaks4


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_workers4_bitwise_identical_to_serial(name):
    _assert_matches_serial(name, backend="threads")


@needs_fork
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_process4_bitwise_identical_to_serial(name):
    """The fork-join worker backend must be byte-invisible too: pool
    peaks rebuilt through journal replay, gradients shipped through the
    descriptor pipe, trace streams merged at the join — all identical."""
    _assert_matches_serial(name, backend="process")


@needs_fork
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_process_pool4_bitwise_identical_to_serial(name):
    """The persistent-pool backend reuses resident workers across
    sections instead of re-forking, so every section's task ships
    through the codec and the per-worker alloc maps must stay coherent
    *across* sections — yet the join is held to the same byte-level bar
    as a fresh fork every time."""
    _assert_matches_serial(name, backend="process-pool")


def test_reference_model_unaffected_by_executor():
    """The single-device path has no rank loop; the executor must leave
    it bit-for-bit alone."""
    cfg = _llama()
    tokens, labels = _data(cfg)

    def run(workers):
        model = GPTModel(cfg, seed=3)
        with executor(workers=workers):
            loss = model.forward_loss(tokens, labels)
            model.backward_loss()
            grads = model.all_grads()
        return loss, grads

    loss1, grads1 = run(1)
    loss4, grads4 = run(4)
    assert loss1 == loss4
    for key in grads1:
        assert grads1[key].tobytes() == grads4[key].tobytes(), key


@pytest.mark.parametrize(
    "stage,backend",
    [(s, b) for s in (1, 2, 3) for b in ("threads", "process", "process-pool")],
    ids=lambda v: str(v),
)
def test_zero_adam_bitwise_identical(stage, backend):
    """ZeRO's flatten + per-shard Adam runs under rank_map; two steps at
    workers=4 must reproduce the serial parameter bytes and trace.  The
    process backends are the hard case: ``adam_step`` rebinds the moment
    arrays on the optimizer state, so the state must travel back through
    the result pipe or step 2 silently diverges."""
    if backend.startswith("process") and not hasattr(os, "fork"):
        pytest.skip("process backends need os.fork")
    cfg = _llama()
    model = GPTModel(cfg, seed=1)
    params = model.all_params()
    g = rng(11)
    grad_steps = [
        {k: g.normal(size=v.shape) for k, v in params.items()} for _ in range(2)
    ]

    def run(workers, run_backend=None):
        cluster = VirtualCluster(WORLD)
        zopt = ZeroAdam(cluster, params, stage=stage, lr=1e-2)
        with executor(workers=workers, backend=run_backend):
            for grads in grad_steps:
                new = zopt.step([grads] * WORLD)
        return new, _cluster_signature(cluster)

    new1, sig1 = run(1)
    new4, sig4 = run(4, backend)
    for key in new1:
        assert new1[key].tobytes() == new4[key].tobytes(), key
    assert sig1 == sig4


def test_five_runs_at_workers4_are_self_identical():
    """Run-to-run determinism: five parallel FPDT-with-offload steps
    produce one unique byte signature, not five."""
    signatures = set()
    for _ in range(5):
        loss, grads, events, peaks = _run_strategy("fpdt_offload", workers=4)
        blob = (
            np.float64(loss).tobytes()
            + b"".join(grads[k].tobytes() for k in sorted(grads))
            + repr(events).encode()
            + repr(peaks).encode()
        )
        signatures.add(blob)
    assert len(signatures) == 1


@needs_fork
def test_three_process_runs_are_self_identical():
    """Same determinism bar for fork-join workers: repeated process-mode
    FPDT-with-offload steps produce one unique byte signature."""
    signatures = set()
    for _ in range(3):
        loss, grads, events, peaks = _run_strategy(
            "fpdt_offload", workers=4, backend="process"
        )
        blob = (
            np.float64(loss).tobytes()
            + b"".join(grads[k].tobytes() for k in sorted(grads))
            + repr(events).encode()
            + repr(peaks).encode()
        )
        signatures.add(blob)
    assert len(signatures) == 1


@needs_fork
def test_three_pool_runs_are_self_identical():
    """Pool-mode determinism: the resident workers carry state between
    runs (alloc maps, stage segments, BLAS clamps), so repeated
    pool-mode FPDT-with-offload steps must still land on one unique
    byte signature."""
    signatures = set()
    for _ in range(3):
        loss, grads, events, peaks = _run_strategy(
            "fpdt_offload", workers=4, backend="process-pool"
        )
        blob = (
            np.float64(loss).tobytes()
            + b"".join(grads[k].tobytes() for k in sorted(grads))
            + repr(events).encode()
            + repr(peaks).encode()
        )
        signatures.add(blob)
    assert len(signatures) == 1


@needs_fork
def test_process_and_threads_agree_with_each_other():
    """Transitivity receipt: the parallel backends, run back to back,
    land on the same bytes (not just each on serial's)."""
    t = _run_strategy("ulysses", workers=4, backend="threads")
    p = _run_strategy("ulysses", workers=4, backend="process")
    pool = _run_strategy("ulysses", workers=4, backend="process-pool")
    assert t[0] == p[0] == pool[0]
    for key in t[1]:
        assert t[1][key].tobytes() == p[1][key].tobytes(), key
        assert t[1][key].tobytes() == pool[1][key].tobytes(), key
    assert t[2] == p[2] == pool[2] and t[3] == p[3] == pool[3]


# ---------------------------------------------------------------------------
# Serving on the parallel backends: continuous batching stays bitwise
# ---------------------------------------------------------------------------

SERVING_BACKENDS = [
    pytest.param("threads", id="threads"),
    pytest.param("process-pool", id="process-pool", marks=needs_fork),
]


def _run_serving(workers: int, backend: str | None, offload: bool):
    """One serving episode: five staggered requests, prefill each, then
    continuous-batching decode ticks until all complete.  Staggered
    ``max_new_tokens`` means the live batch shrinks tick by tick — the
    membership-shifting regime the decode batcher must survive."""
    from repro.serving.engine import EngineConfig, ServingEngine
    from repro.serving.request import Request, RequestState

    cfg = _llama()
    model = GPTModel(cfg, seed=5)
    cluster = VirtualCluster(1)
    engine = ServingEngine(
        model, config=EngineConfig(offload=offload), cluster=cluster
    )
    g = rng(23)
    prompts = [g.integers(0, cfg.vocab_size, size=8 + i) for i in range(5)]
    with executor(workers=workers, backend=backend):
        states = [
            engine.start(
                Request(
                    rid=f"r{i}",
                    prompt=prompts[i],
                    max_new_tokens=3 + i,
                    seed=i,
                )
            )
            for i in range(5)
        ]
        for state in states:
            while not engine.prefill_step(state):
                pass
        while True:
            live = [s for s in states if s.state is RequestState.DECODE]
            if not live:
                break
            engine.decode_batch(live)
        outputs = {s.rid: list(s.new_tokens) for s in states}
        for state in states:
            engine.finish(state)
    events, peaks = _cluster_signature(cluster)
    cluster.check_no_leaks()
    return outputs, events, peaks


@pytest.mark.parametrize(
    "backend,offload",
    [
        pytest.param("process-pool", False, id="inline-kv", marks=needs_fork),
        pytest.param("process-pool", True, id="offload-kv", marks=needs_fork),
        pytest.param("threads", False, id="threads-inline-kv"),
        pytest.param("threads", True, id="threads-offload-kv"),
    ],
)
def test_serving_decode_on_the_pool_matches_serial(backend, offload):
    """The decode batcher at four workers must produce the serial
    engine's exact tokens, trace stream, and pool peaks — for both
    KV-offload modes."""
    serial = _run_serving(workers=1, backend=None, offload=offload)
    parallel = _run_serving(workers=4, backend=backend, offload=offload)
    assert parallel[0] == serial[0]
    assert parallel[1] == serial[1]
    assert parallel[2] == serial[2]


def _run_scheduler(workers: int, backend: str | None):
    """A scheduler episode whose ticks mix every kind of engine work:
    prompts spanning several chunks, several chunks per tick, requests
    that finish prefill and decode in the same tick, and a decode cap
    that holds some first tokens back."""
    from repro.serving import (
        EngineConfig, Request, Scheduler, SchedulerConfig, ServingEngine,
    )

    cfg = _llama()
    model = GPTModel(cfg, seed=7)
    cluster = VirtualCluster(1)
    engine = ServingEngine(
        model, config=EngineConfig(prefill_chunk=4), cluster=cluster
    )
    scheduler = Scheduler(
        engine,
        config=SchedulerConfig(
            max_live=5, prefill_chunks_per_tick=5, decode_batch=3
        ),
    )
    g = rng(31)
    with executor(workers=workers, backend=backend):
        for i in range(9):
            scheduler.submit(Request(
                rid=f"r{i}",
                prompt=g.integers(0, cfg.vocab_size, size=int(g.integers(3, 15))),
                max_new_tokens=int(g.integers(1, 5)),
                priority=i % 3,
                seed=i,
            ))
        scheduler.run_until_idle()
    events, peaks = _cluster_signature(cluster)
    cluster.check_no_leaks()
    outputs = {rid: list(s.new_tokens) for rid, s in scheduler.completed.items()}
    return scheduler, outputs, events, peaks


@pytest.mark.parametrize("backend", SERVING_BACKENDS)
def test_serving_scheduler_ticks_match_serial(backend):
    """Whole ticks — planned prefill chunks and decode tokens in one
    fork-join — give the serial schedule, tokens, trace stream and pool
    peaks."""
    serial = _run_scheduler(1, None)
    parallel = _run_scheduler(4, backend)
    states = serial[0].completed.values()
    # The episode exercises what it claims to: multi-chunk prompts that
    # take several chunks in one tick, prefill and first token in one
    # tick, and first tokens the decode cap defers.
    chunks = {}
    for tick, event, rid in serial[0].log:
        if event == "prefill":
            chunks[tick, rid] = chunks.get((tick, rid), 0) + 1
    assert max(chunks.values()) > 1
    assert any(s.first_token_tick == s.prefill_done_tick for s in states)
    assert any(s.first_token_tick > s.prefill_done_tick for s in states)
    assert parallel[0].log == serial[0].log
    assert parallel[1:] == serial[1:]


@pytest.mark.parametrize("backend", SERVING_BACKENDS)
def test_serving_loadgen_on_the_pool_matches_serial(backend):
    """The full scheduler/load-generator path (admission, chunked
    prefill, decode batches reshuffling over many ticks) must replay the
    serial schedule with the same KV traffic and pool peaks.  Under the
    process pool this once drove alloc-id ranges far enough that
    parent-born cache allocations collided with stale per-worker
    alloc-map keys."""
    from repro.serving.loadgen import LoadGenConfig, run_load, synthesize_requests

    def run(workers, backend=None):
        cfg = tiny_llama(
            hidden_size=32, num_layers=2, num_heads=2, num_kv_heads=1
        )
        model = GPTModel(cfg, seed=0)
        requests = synthesize_requests(
            LoadGenConfig(num_requests=32), cfg.vocab_size
        )
        with executor(workers=workers, backend=backend):
            report = run_load(model, requests, verify="all")
        assert report.dropped == 0 and report.mismatched == 0
        return report

    serial = run(1)
    parallel = run(4, backend)
    assert parallel.completed == serial.completed == 32
    assert parallel.schedule_digest == serial.schedule_digest
    assert (parallel.h2d_bytes, parallel.d2h_bytes) == (
        serial.h2d_bytes, serial.d2h_bytes
    )
    assert (parallel.peak_hbm_bytes, parallel.peak_host_bytes) == (
        serial.peak_hbm_bytes, serial.peak_host_bytes
    )
