"""Continuous-batching scheduler: determinism, admission control,
tenant quotas, priority aging, and bitwise-exact completions."""

import threading

import numpy as np
import pytest

from repro.models import GPTModel, tiny_gpt
from repro.models.generate import generate
from repro.serving import (
    EngineConfig,
    Request,
    Scheduler,
    SchedulerConfig,
    ServingEngine,
)
from repro.runtime.executor import executor
from repro.runtime.memory import MemoryPool
from repro.runtime.trace import Trace
from repro.telemetry.metrics import MetricsRegistry

from .helpers import rng


def _model():
    return GPTModel(
        tiny_gpt(hidden_size=32, num_heads=4, num_layers=1, vocab_size=32),
        seed=0,
    )


def _mix(n, *, tenants=2, seed=0):
    r = rng(seed)
    return [
        Request(
            rid=f"r{i}",
            prompt=r.integers(0, 32, size=int(r.integers(2, 9))),
            max_new_tokens=int(r.integers(1, 5)),
            tenant=f"t{i % tenants}",
            priority=int(r.integers(0, 3)),
            arrival_tick=int(i // 3),
            seed=i,
        )
        for i in range(n)
    ]


def _run(model, requests, scheduler_config=None, registry=None):
    engine = ServingEngine(
        model, config=EngineConfig(prefill_chunk=4), registry=registry
    )
    scheduler = Scheduler(engine, config=scheduler_config, registry=registry)
    pending = sorted(requests, key=lambda r: (r.arrival_tick, r.rid))
    i = 0
    while i < len(pending) or scheduler.outstanding:
        while i < len(pending) and pending[i].arrival_tick <= scheduler.tick_index:
            scheduler.submit(pending[i])
            i += 1
        scheduler.tick()
    return scheduler


class TestSchedulerDeterminism:
    def test_same_mix_same_schedule(self):
        """Same seed + same mix => identical event log and identical
        outputs, tick for tick."""
        model = _model()
        cfg = SchedulerConfig(max_live=3, tenant_quota=2)
        a = _run(model, _mix(12, seed=3), cfg)
        b = _run(model, _mix(12, seed=3), cfg)
        assert a.log == b.log
        assert sorted(a.completed) == sorted(b.completed)
        for rid in a.completed:
            np.testing.assert_array_equal(
                a.completed[rid].output(), b.completed[rid].output()
            )

    def test_different_policy_different_schedule(self):
        model = _model()
        a = _run(model, _mix(12, seed=3), SchedulerConfig(max_live=1))
        b = _run(model, _mix(12, seed=3), SchedulerConfig(max_live=6))
        assert a.log != b.log  # policy shapes the schedule...
        for rid in a.completed:  # ...but never the tokens
            np.testing.assert_array_equal(
                a.completed[rid].output(), b.completed[rid].output()
            )


class TestSchedulerPolicy:
    def test_completions_match_generate(self):
        model = _model()
        requests = _mix(10, seed=4)
        scheduler = _run(model, requests, SchedulerConfig(max_live=4))
        assert len(scheduler.completed) == len(requests)
        for request in requests:
            np.testing.assert_array_equal(
                scheduler.completed[request.rid].output(),
                generate(
                    model, request.prompt,
                    max_new_tokens=request.max_new_tokens, seed=request.seed,
                ),
            )

    def test_max_live_respected(self):
        model = _model()
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=4))
        scheduler = Scheduler(engine, config=SchedulerConfig(max_live=2))
        for request in _mix(8, seed=5):
            scheduler.submit(request)
        live_high_water = 0
        while scheduler.outstanding:
            scheduler.tick()
            live_high_water = max(live_high_water, len(scheduler._live))
        assert live_high_water <= 2

    def test_tenant_quota_respected(self):
        """With a quota of 1, a tenant never holds two live slots even
        while the other tenant's queue drains."""
        model = _model()
        engine = ServingEngine(model, config=EngineConfig(prefill_chunk=4))
        scheduler = Scheduler(
            engine, config=SchedulerConfig(max_live=4, tenant_quota=1)
        )
        for request in _mix(8, tenants=2, seed=6):
            scheduler.submit(request)
        while scheduler.outstanding:
            scheduler.tick()
            counts = {}
            for state, _ in scheduler._live.values():
                tenant = state.request.tenant
                counts[tenant] = counts.get(tenant, 0) + 1
            assert all(n <= 1 for n in counts.values())
        assert len(scheduler.completed) == 8

    def test_priority_admitted_first(self):
        """Among same-tick arrivals, higher priority is admitted first."""
        model = _model()
        engine = ServingEngine(model)
        scheduler = Scheduler(engine, config=SchedulerConfig(max_live=1))
        low = Request(rid="low", prompt=np.array([1, 2]), max_new_tokens=1,
                      priority=0)
        high = Request(rid="high", prompt=np.array([3, 4]), max_new_tokens=1,
                       priority=5)
        scheduler.submit(low)
        scheduler.submit(high)
        scheduler.tick()
        admits = [rid for _, ev, rid in scheduler.log if ev == "admit"]
        assert admits == ["high"]

    def test_priority_aging_prevents_starvation(self):
        """A low-priority request eventually outranks a steady stream of
        fresh high-priority arrivals."""
        cfg = SchedulerConfig(aging=1.0)
        scheduler = Scheduler(ServingEngine(_model()), config=cfg)
        old = Request(rid="old", prompt=np.array([1]), max_new_tokens=1,
                      priority=0, arrival_tick=0)
        fresh = Request(rid="fresh", prompt=np.array([2]), max_new_tokens=1,
                        priority=2, arrival_tick=5)
        scheduler.tick_index = 5  # old has waited 5 ticks
        assert scheduler._effective_priority(old) > scheduler._effective_priority(fresh)

    def test_admission_control_rejects_when_queue_full(self):
        model = _model()
        engine = ServingEngine(model)
        scheduler = Scheduler(
            engine, config=SchedulerConfig(max_live=1, max_queue=2)
        )
        requests = _mix(5, seed=7)
        accepted = [scheduler.submit(r) for r in requests]
        assert accepted == [True, True, False, False, False]
        assert len(scheduler.rejected) == 3
        while scheduler.outstanding:
            scheduler.tick()
        assert len(scheduler.completed) == 2

    def test_unbounded_queue_never_drops(self):
        scheduler = _run(_model(), _mix(20, seed=8), SchedulerConfig(max_live=2))
        assert scheduler.rejected == []
        assert len(scheduler.completed) == 20


class TestSchedulerTelemetry:
    def test_instruments_recorded(self):
        registry = MetricsRegistry()
        model = _model()
        engine = ServingEngine(model, registry=registry)
        scheduler = Scheduler(
            engine, config=SchedulerConfig(max_live=2), registry=registry
        )
        for request in _mix(6, seed=9):
            scheduler.submit(request)
        while scheduler.outstanding:
            scheduler.tick()
        snap = registry.snapshot()
        assert snap["serving_requests_submitted"] == 6
        assert snap["serving_requests_completed"] == 6
        assert snap["serving_requests_rejected"] == 0
        assert snap["serving_ttft_ticks"]["count"] == 6
        assert snap["serving_latency_ticks"]["count"] == 6
        assert snap["serving_latency_ticks"]["p99"] >= snap["serving_ttft_ticks"]["p50"]
        assert snap["serving_decode_tokens"] > 0
        assert snap["serving_prefill_tokens"] > 0
        assert snap["serving_queue_depth"] == 0
        assert snap["serving_live_requests"] == 0

    def test_counters_exact_under_threads(self):
        """The serving counters move on the calling thread after each
        tick's fork-join, so no increment is lost to a racing worker."""
        registry = MetricsRegistry()
        requests = _mix(24, seed=5)
        with executor(workers=4, backend="threads"):
            _run(_model(), requests, SchedulerConfig(max_live=8), registry)
        snap = registry.snapshot()
        assert snap["serving_prefill_tokens"] == sum(r.prompt_len for r in requests)
        assert snap["serving_decode_tokens"] == sum(
            r.max_new_tokens for r in requests
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_live=0)
        with pytest.raises(ValueError):
            SchedulerConfig(tenant_quota=0)
        with pytest.raises(ValueError):
            SchedulerConfig(prefill_chunks_per_tick=0)
        with pytest.raises(ValueError):
            SchedulerConfig(aging=-0.1)


class TestTickThreading:
    def test_pool_and_trace_traffic_stays_on_the_calling_thread(
        self, monkeypatch
    ):
        """A tick's tasks run on rank threads, but every pool alloc/free
        and trace record — KV checkout and checkin — happens on the
        thread that called ``tick()``, in plan order.  That is what makes
        pool peaks independent of how the threads interleave."""
        seen: list[tuple[str, int]] = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                seen.append((name, threading.get_ident()))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for cls, name in ((MemoryPool, "alloc"), (MemoryPool, "free"),
                          (Trace, "record")):
            spy(cls, name)
        with executor(workers=4, backend="threads"):
            scheduler = _run(_model(), _mix(12, seed=4), SchedulerConfig(max_live=6))
        assert len(scheduler.completed) == 12
        assert {name for name, _ in seen} == {"alloc", "free", "record"}
        assert {ident for _, ident in seen} == {threading.get_ident()}
