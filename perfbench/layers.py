"""Traced run: spans around the program's layer boundaries.

A ``--trace 1`` run alternates untraced and traced steps; only a traced
step has these wrappers installed (:class:`Tracing`).  Each wrapper
records a span in a :class:`repro.obs.SpanTracer`, stamped in wall-clock
milliseconds since the recorder started, with the thread and pid in its
attrs.  The spans are written with ``SpanTracer.to_dicts``, so
``repro obs spans`` / ``repro obs export`` read the file.

Parenting: a span's parent is the innermost open span on its thread.  A
rank-executor worker thread has no open span of its own, so its spans
hang off the fork-join *section* span the wrapped ``RankExecutor.rank_map``
opened.  Sections whose closures run in other processes (the process
backends) leave no spans behind; their wall time is reported as
``executor.other_process_ms_per_step`` rather than dropped.

A span's self time is its duration minus the part of it covered by its
children; section spans are looked through, so a layer's children
include the spans its rank closures opened on worker threads.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.core.checkpoint import CheckpointedFPDTStack
from repro.core.offload import ChunkCache
from repro.obs.span import Span, SpanTracer
from repro.runtime.executor import RankExecutor, executor_stats
from repro.runtime.trace_analysis import summarize
from repro.serving.engine import ServingEngine
from repro.serving.kvstore import RequestKVStore
from repro.training.optimizer import Adam

SECTION = "executor.section"

#: (span name, module, function) — module-level functions, rebound in
#: every ``repro`` module that imported them by name.
FUNCTIONS = [
    ("core.block_fwd", "repro.core.fpdt_block", "fpdt_block_forward"),
    ("core.block_bwd", "repro.core.fpdt_block", "fpdt_block_backward"),
    ("core.attn_fwd", "repro.core.fpdt_attention", "fpdt_attention_forward"),
    ("core.attn_bwd", "repro.core.fpdt_attention", "fpdt_attention_backward"),
    ("parallel.block_fwd", "repro.parallel.ulysses", "ulysses_block_forward"),
    ("parallel.block_bwd", "repro.parallel.ulysses", "ulysses_block_backward"),
    ("models.attn_kernel", "repro.models.attention", "online_block_update"),
    ("models.attn_kernel", "repro.models.attention", "attention_block_backward"),
    ("models.attn_kernel", "repro.models.attention", "online_attention_forward"),
    ("models.attn_kernel", "repro.models.attention", "online_attention_backward"),
    ("models.lm_head", "repro.models.loss", "chunked_lm_head_forward"),
    ("models.lm_head", "repro.models.loss", "chunked_lm_head_backward"),
    ("models.forward_cached", "repro.models.generate", "forward_cached"),
] + [
    ("collectives." + op, "repro.runtime.collectives", op)
    for op in ("all_to_all", "all_gather", "reduce_scatter", "all_reduce",
               "broadcast", "hierarchical_all_to_all", "ring_shift")
]

#: (span name, class, method).
METHODS = [
    ("training.optimizer", Adam, "step"),
    ("core.ckpt_bwd", CheckpointedFPDTStack, "backward"),
    ("core.offload", ChunkCache, "store"),
    ("core.offload", ChunkCache, "fetch"),
    ("core.offload", ChunkCache, "put_host"),
    ("core.offload", ChunkCache, "update_host"),
    ("serving.engine.start", ServingEngine, "start"),
    ("serving.engine.prefill_step", ServingEngine, "prefill_step"),
    ("serving.engine.decode_batch", ServingEngine, "decode_batch"),
    ("serving.engine.finish", ServingEngine, "finish"),
    ("serving.kvstore", RequestKVStore, "save"),
    ("serving.kvstore", RequestKVStore, "load"),
    ("serving.kvstore", RequestKVStore, "evict"),
]


class SpanRecorder:
    """A :class:`repro.obs.SpanTracer` fed wall-clock stamps, with
    per-thread stacks and the section fallback for worker threads."""

    def __init__(self) -> None:
        self.tracer = SpanTracer()
        self.section: Span | None = None  # the open fork-join section span
        #: Call counts of the counted (not spanned) functions.
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._epoch = time.perf_counter_ns()
        self._pid = os.getpid()

    def now(self) -> float:
        """Wall-clock milliseconds since the recorder started."""
        return (time.perf_counter_ns() - self._epoch) / 1e6

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None, trace_id=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.section
        attrs = dict(attrs or {}, thread=threading.current_thread().name,
                     pid=self._pid, clock="wall_ms")
        span = self.tracer.start_span(
            name, parent=parent,
            trace_id=None if parent is not None else trace_id or "bench",
            kind=name.split(".")[0], start=self.now(), attrs=attrs,
        )
        stack.append(span)
        return span

    def count(self, name: str) -> None:
        with self._lock:  # rank closures call counted functions concurrently
            self.counts[name] = self.counts.get(name, 0) + 1

    def close(self, span: Span) -> None:
        self.tracer.end_span(span, end=self.now())
        self._stack().pop()

    @contextmanager
    def root(self, name: str, trace_id: str):
        """A step or tick: the root of one trace."""
        span = self.open(name, trace_id=trace_id)
        try:
            yield span
        finally:
            self.close(span)


def _span_wrapper(recorder: SpanRecorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = recorder.open(name, attrs(args, kwargs) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(rec)

    return wrapper


def _counting_wrapper(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _section_wrapper(recorder: SpanRecorder, fn):
    @functools.wraps(fn)
    def rank_map(self, fn_r, world, *, trace=None, force_serial=False,
                 shared_state=False):
        if recorder.section is not None:  # nested: runs inline in a rank
            return fn(self, fn_r, world, trace=trace, force_serial=force_serial,
                      shared_state=shared_state)
        remote = (self.parallel and world > 1 and not force_serial
                  and not shared_state
                  and self.backend in ("process", "process-pool"))
        rec = recorder.open(SECTION, {"world": world, "remote": remote})
        recorder.section = rec
        try:
            return fn(self, fn_r, world, trace=trace, force_serial=force_serial,
                      shared_state=shared_state)
        finally:
            recorder.section = None
            recorder.close(rec)

    return rank_map


def _attrs_for(name: str):
    if name == "models.forward_cached":
        return lambda args, kwargs: {"tokens": int(np.shape(args[1])[1])}
    if name == "serving.engine.decode_batch":
        return lambda args, kwargs: {"batch": len(args[1])}
    return None


def _wrapper_plan(recorder: SpanRecorder, batch_owner=None) -> list:
    """``(owner, attribute, original, wrapper)`` for every wrapper.
    Module-level functions are rebound in every ``repro`` module that
    imported them by name.  ``batch_owner`` is a ``Trainer`` whose
    ``batch_fn`` is wrapped as the data layer."""
    plan = []
    modules = [m for n, m in list(sys.modules.items())
               if n.startswith("repro") and m is not None]

    def everywhere(original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    plan.append((module, key, original, wrapper))

    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        everywhere(original,
                   _span_wrapper(recorder, name, original, _attrs_for(name)))
    for name, cls, attr in METHODS:
        original = getattr(cls, attr)
        plan.append((cls, attr, original,
                     _span_wrapper(recorder, name, original, _attrs_for(name))))
    plan.append((RankExecutor, "rank_map", RankExecutor.rank_map,
                 _section_wrapper(recorder, RankExecutor.rank_map)))
    einsum = sys.modules["repro.common.einsum_cache"]
    for attr in ("cached_einsum", "einsum_path"):
        original = getattr(einsum, attr)
        everywhere(original, _counting_wrapper(recorder, attr, original))
    if batch_owner is not None:
        plan.append((batch_owner, "batch_fn", batch_owner.batch_fn,
                     _span_wrapper(recorder, "training.data", batch_owner.batch_fn)))
    return plan


class Tracing:
    """The traced steps of a ``--trace 1`` run.

    The run alternates untraced and traced steps (or ticks), so drift of
    the host's load falls on both alike.  :meth:`step` traces one step:
    it installs the wrappers, roots the step's trace, and removes the
    wrappers again; the counters are read around it and summed over the
    traced steps only."""

    def __init__(self, cluster, *, batch_owner=None):
        self.cluster = cluster
        self.recorder = SpanRecorder()
        self.totals: dict = {}
        self.steps = 0
        self._plan = _wrapper_plan(self.recorder, batch_owner)

    def _read(self) -> dict:
        from repro.common.einsum_cache import path_cache_stats

        pools = [dev.hbm for dev in self.cluster.devices] + [self.cluster.host.pool]
        ex = executor_stats()
        return {
            "sections": ex["fork_joins"], "tasks": ex["tasks"],
            "busy_s": ex["busy_seconds"], "wall_s": ex["wall_seconds"],
            "fallback_forks": ex["fallback_forks"],
            "pool_restarts": ex["pool_restarts"],
            "allocs": sum(p.stats()["n_allocs"] for p in pools),
            "arena_hits": sum(p.stats()["arena"]["hits"] for p in pools),
            "arena_misses": sum(p.stats()["arena"]["misses"] for p in pools),
            "einsum_entries": path_cache_stats()["entries"],
        }

    @contextmanager
    def step(self, name: str, trace_id: str):
        before = self._read()
        mark = len(self.cluster.trace.events)
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        try:
            with self.recorder.root(name, trace_id):
                yield
        finally:
            for owner, attr, original, _ in reversed(self._plan):
                setattr(owner, attr, original)
            after = self._read()
            moved = summarize(self.cluster.trace, start=mark)
            delta = {k: after[k] - before[k] for k in after}
            delta.update(
                h2d_bytes=moved.h2d_bytes, d2h_bytes=moved.d2h_bytes,
                transfers=moved.h2d_count + moved.d2h_count,
                collective_calls=sum(moved.collective_count.values()),
                collective_bytes=moved.total_collective_bytes,
            )
            for k, v in delta.items():
                self.totals[k] = self.totals.get(k, 0) + v
            self.steps += 1


# -- span analysis ------------------------------------------------------------


class SpanIndex:
    """Durations, ancestry and self times over a tracer's spans."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s.end is not None]
        self.by_id = {(s.trace_id, s.span_id): s for s in self.spans}
        self.children: dict[tuple, list] = {}
        for s in self.spans:
            if s.parent_id is not None:
                self.children.setdefault((s.trace_id, s.parent_id), []).append(s)

    @staticmethod
    def ms(span) -> float:
        return span.duration

    def named(self, prefix: str) -> list:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def under(self, span, prefix: str) -> bool:
        parent = self.by_id.get((span.trace_id, span.parent_id))
        while parent is not None:
            if parent.name.startswith(prefix):
                return True
            parent = self.by_id.get((parent.trace_id, parent.parent_id))
        return False

    def outermost_ms(self, prefix: str) -> tuple[float, int]:
        """Summed duration and count of ``prefix`` spans not nested in
        another ``prefix`` span (nested calls are not double counted)."""
        spans = [s for s in self.named(prefix) if not self.under(s, prefix)]
        return sum(self.ms(s) for s in spans), len(spans)

    def _effective_children(self, span) -> list:
        out = []
        for child in self.children.get((span.trace_id, span.span_id), []):
            if child.name == SECTION:
                out.extend(self._effective_children(child))
            else:
                out.append(child)
        return out

    def self_ms(self, span) -> float:
        """Duration minus the union of the children's intervals."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self._effective_children(span)
        )
        covered, cur_start, cur_end = 0.0, None, None
        for lo, hi in intervals:
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.duration - covered


def _common(index: SpanIndex, tracing: Tracing, workers: int,
            overhead: float) -> dict:
    """Layer metrics every workload reports (0 where a layer is idle)."""
    d = tracing.totals
    per = 1.0 / max(tracing.steps, 1)
    recorder = tracing.recorder
    kernel_ms, kernel_calls = index.outermost_ms("models.attn_kernel")
    coll_ms, _ = index.outermost_ms("collectives.")
    sections = index.named(SECTION)
    section_ms = sum(index.ms(s) for s in sections)
    remote_ms = sum(index.ms(s) for s in sections if s.attrs["remote"])
    idle_s = d["wall_s"] * workers - d["busy_s"]
    lookups = recorder.counts.get("einsum_path", 0)
    arena = d["arena_hits"] + d["arena_misses"]
    fwd = [s for s in index.named("core.block_fwd")
           if not index.under(s, "core.ckpt_bwd")]
    recompute = [s for s in index.named("core.block_fwd")
                 if index.under(s, "core.ckpt_bwd")]
    return {
        "training.data_ms_per_step": index.outermost_ms("training.data")[0] * per,
        "training.optimizer_ms_per_step":
            index.outermost_ms("training.optimizer")[0] * per,
        "core.block_fwd_ms_per_step": sum(map(index.ms, fwd)) * per,
        "core.block_bwd_ms_per_step": index.outermost_ms("core.block_bwd")[0] * per,
        "core.attn_fwd_ms_per_step":
            sum(map(index.self_ms, index.named("core.attn_fwd"))) * per,
        "core.attn_bwd_ms_per_step":
            sum(map(index.self_ms, index.named("core.attn_bwd"))) * per,
        "core.recompute_ms_per_step": sum(map(index.ms, recompute)) * per,
        "core.offload_ms_per_step": index.outermost_ms("core.offload")[0] * per,
        "core.h2d_bytes_per_step": d["h2d_bytes"] * per,
        "core.d2h_bytes_per_step": d["d2h_bytes"] * per,
        "core.transfers_per_step": d["transfers"] * per,
        "parallel.block_fwd_ms_per_step":
            index.outermost_ms("parallel.block_fwd")[0] * per,
        "parallel.block_bwd_ms_per_step":
            index.outermost_ms("parallel.block_bwd")[0] * per,
        "models.attn_kernel_ms_per_step": kernel_ms * per,
        "models.attn_kernel_calls_per_step": kernel_calls * per,
        "models.lm_head_ms_per_step": index.outermost_ms("models.lm_head")[0] * per,
        "collectives.calls_per_step": d["collective_calls"] * per,
        "collectives.bytes_per_step": d["collective_bytes"] * per,
        "collectives.ms_per_step": coll_ms * per,
        "executor.sections_per_step": d["sections"] * per,
        "executor.tasks_per_step": d["tasks"] * per,
        "executor.section_ms_per_step": section_ms * per,
        "executor.idle_worker_ms_per_step": idle_s * 1e3 * per,
        "executor.busy_fraction":
            d["busy_s"] / (d["wall_s"] * workers) if d["wall_s"] else 0.0,
        "executor.other_process_ms_per_step": remote_ms * per,
        "executor.fallback_forks": d["fallback_forks"],
        "executor.pool_restarts": d["pool_restarts"],
        "memory.allocs_per_step": d["allocs"] * per,
        "memory.arena_hit_ratio": d["arena_hits"] / arena if arena else 0.0,
        "memory.peak_host_bytes": tracing.cluster.memory_stats()["host"]["peak"],
        "einsum.calls_per_step": recorder.counts.get("cached_einsum", 0) * per,
        "einsum.path_lookups_per_step": lookups * per,
        "einsum.path_hit_ratio":
            1.0 - d["einsum_entries"] / lookups if lookups else 0.0,
        "trace.overhead_frac": overhead,
        "trace.spans_per_step": len(recorder.tracer.spans) * per,
    }


#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "training.data_ms_per_step": "ms",
    "training.optimizer_ms_per_step": "ms",
    "core.block_fwd_ms_per_step": "ms",
    "core.block_bwd_ms_per_step": "ms",
    "core.attn_fwd_ms_per_step": "ms",
    "core.attn_bwd_ms_per_step": "ms",
    "core.recompute_ms_per_step": "ms",
    "core.offload_ms_per_step": "ms",
    "core.h2d_bytes_per_step": "bytes",
    "core.d2h_bytes_per_step": "bytes",
    "core.transfers_per_step": "count",
    "parallel.block_fwd_ms_per_step": "ms",
    "parallel.block_bwd_ms_per_step": "ms",
    "models.attn_kernel_ms_per_step": "ms",
    "models.attn_kernel_calls_per_step": "count",
    "models.lm_head_ms_per_step": "ms",
    "models.prefill_ms_per_token": "ms",
    "models.decode_forward_ms_p50": "ms",
    "models.reference_step_ms": "ms",
    "collectives.calls_per_step": "count",
    "collectives.bytes_per_step": "bytes",
    "collectives.ms_per_step": "ms",
    "executor.sections_per_step": "count",
    "executor.tasks_per_step": "count",
    "executor.section_ms_per_step": "ms",
    "executor.idle_worker_ms_per_step": "ms",
    "executor.busy_fraction": "ratio",
    "executor.other_process_ms_per_step": "ms",
    "executor.fallback_forks": "count",
    "executor.pool_restarts": "count",
    "memory.allocs_per_step": "count",
    "memory.arena_hit_ratio": "ratio",
    "memory.peak_host_bytes": "bytes",
    "einsum.calls_per_step": "count",
    "einsum.path_lookups_per_step": "count",
    "einsum.path_hit_ratio": "ratio",
    "serving.tick_ms_p50": "ms",
    "serving.tick_ms_p99": "ms",
    "serving.scheduler_self_ms_per_step": "ms",
    "serving.prefill_step_ms_p50": "ms",
    "serving.decode_batch_ms_p50": "ms",
    "serving.decode_batch_size_mean": "count",
    "serving.kvstore_ms_per_step": "ms",
    "serving.kv_h2d_bytes_per_token": "bytes",
    "serving.kv_d2h_bytes_per_token": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.spans_per_step": "count",
}


def _with_units(metrics: dict) -> dict:
    """Every metric of :data:`PER_LAYER`, in its order, 0 where the
    workload does not run the layer."""
    return {k: (float(metrics.get(k, 0.0)), unit) for k, unit in PER_LAYER.items()}


def overhead(traced_ms, untraced_ms) -> float:
    """Traced over untraced median step time, minus 1."""
    if not len(traced_ms) or not len(untraced_ms):
        return 0.0
    return float(np.median(traced_ms) / np.median(untraced_ms) - 1)


def training_metrics(tracing: Tracing, traced_ms, untraced_ms) -> dict:
    index = SpanIndex(tracing.recorder.tracer.spans)
    workers = executor_stats()["workers"]
    return _with_units(_common(index, tracing, workers,
                               overhead(traced_ms, untraced_ms)))


def serving_metrics(tracing: Tracing, traced_ms, untraced_ms) -> dict:
    """``serving.tick_ms_*`` come from the untraced ticks; everything
    else per step from the traced ones."""
    index = SpanIndex(tracing.recorder.tracer.spans)
    workers = executor_stats()["workers"]
    m = _common(index, tracing, workers, overhead(traced_ms, untraced_ms))
    per = 1.0 / max(tracing.steps, 1)
    forwards = index.named("models.forward_cached")
    prefill = [s for s in forwards if index.under(s, "serving.engine.prefill_step")]
    decode = [s for s in forwards if not index.under(s, "serving.engine.prefill_step")]
    prefill_tokens = sum(s.attrs["tokens"] for s in prefill)
    tokens = prefill_tokens + len(decode)
    roots = index.named("tick")
    batches = index.named("serving.engine.decode_batch")
    d = tracing.totals
    m.update({
        "models.prefill_ms_per_token":
            sum(map(index.ms, prefill)) / prefill_tokens if prefill_tokens else 0.0,
        "models.decode_forward_ms_p50":
            float(np.median([index.ms(s) for s in decode])) if decode else 0.0,
        "serving.tick_ms_p50":
            float(np.median(untraced_ms)) if len(untraced_ms) else 0.0,
        "serving.tick_ms_p99":
            float(np.percentile(untraced_ms, 99)) if len(untraced_ms) else 0.0,
        "serving.scheduler_self_ms_per_step": sum(map(index.self_ms, roots)) * per,
        "serving.prefill_step_ms_p50": float(np.median(
            [index.ms(s) for s in index.named("serving.engine.prefill_step")] or [0])),
        "serving.decode_batch_ms_p50":
            float(np.median([index.ms(s) for s in batches] or [0])),
        "serving.decode_batch_size_mean":
            float(np.mean([s.attrs["batch"] for s in batches] or [0])),
        "serving.kvstore_ms_per_step": index.outermost_ms("serving.kvstore")[0] * per,
        "serving.kv_h2d_bytes_per_token": d["h2d_bytes"] / tokens if tokens else 0.0,
        "serving.kv_d2h_bytes_per_token": d["d2h_bytes"] / tokens if tokens else 0.0,
    })
    return _with_units(m)
