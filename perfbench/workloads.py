"""The benchmark's three workloads, driven only through public APIs.

Each workload builds its inputs from the run seed, sets itself up
``SETUP_REPEATS`` times (``setup_s`` is their median; the last set-up
runs the window), measures for the requested wall-clock window and then
checks its outputs outside that window:

* ``train_fpdt_long``    — ``Trainer`` + ``FPDTModelRunner`` (AC + offload)
  at the longest sequence a small host affords;
* ``train_ulysses_wide`` — ``Trainer`` + ``UlyssesModelRunner`` at world 8
  with tiny per-rank work, so fork-joins and all-to-alls dominate;
* ``serve_closed_16``    — a closed loop of 16 clients over
  ``Scheduler``/``ServingEngine`` with chunked prefill and KV offload.

With ``trace=True`` every other step (or tick) of the window runs under
the layer wrappers of :mod:`layers`.  The per-layer metrics come from the
traced steps, and ``trace.overhead_frac`` compares them with the
untraced steps in between.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core import FPDTModelRunner
from repro.models import GPTModel, tiny_gpt, tiny_llama
from repro.models.generate import generate
from repro.parallel import UlyssesModelRunner
from repro.runtime.device import VirtualCluster
from repro.runtime.executor import get_executor
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.loadgen import LoadGenConfig, synthesize_requests
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.training.data import SyntheticCorpus, make_batch
from repro.training.trainer import Trainer

import layers

#: A run's timing figures are medians over this many windows, each of
#: at least ``MIN_WINDOW`` samples (fewer windows for short runs).
WINDOWS = 5
MIN_WINDOW = 40
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed steps run even when the window is shorter than one step.
MIN_STEPS = 3
#: Step losses folded into the printed loss digest (a fixed prefix, so
#: runs of different length stay comparable).
DIGEST_STEPS = 8
#: The first-step loss must match the single-device reference this
#: closely (the bound ``tests/test_training.py`` uses).
LOSS_RTOL = 1e-8
#: Completed requests re-decoded with ``generate()`` per serving run.
VERIFY_SAMPLE = 128
#: Closed-loop clients and the request pool they draw from in order.
CLIENTS = 16
REQUEST_POOL = 4000
#: Seed of the request mix's shape (lengths, budgets, tenants).
MIX_SHAPE_SEED = 0


@dataclass(frozen=True)
class TrainSpec:
    runner: str  # "fpdt" | "ulysses"
    world: int
    seq_len: int
    hidden: int
    heads: int
    kv_heads: int
    vocab: int
    num_chunks: int = 1
    batch: int = 1
    layers: int = 2


@dataclass(frozen=True)
class ServeSpec:
    hidden: int
    vocab: int
    clients: int
    prompt_log_mean: float
    max_prompt: int
    max_new_tokens: int
    prefill_chunk: int
    prefill_chunks_per_tick: int
    pool: int
    verify_sample: int
    layers: int = 2


SPECS = {
    "full": {
        "train_fpdt_long": TrainSpec(
            "fpdt", world=4, seq_len=2048, hidden=128, heads=4, kv_heads=2,
            vocab=512, num_chunks=4,
        ),
        "train_ulysses_wide": TrainSpec(
            "ulysses", world=8, seq_len=512, hidden=64, heads=8, kv_heads=4,
            vocab=512,
        ),
        "serve_closed_16": ServeSpec(
            hidden=256, vocab=512, clients=CLIENTS, prompt_log_mean=4.0,
            max_prompt=448, max_new_tokens=24, prefill_chunk=32,
            prefill_chunks_per_tick=8, pool=REQUEST_POOL,
            verify_sample=VERIFY_SAMPLE,
        ),
    },
    # Same code paths at toy shapes: the benchmark's own tests.
    "tiny": {
        "train_fpdt_long": TrainSpec(
            "fpdt", world=2, seq_len=64, hidden=32, heads=4, kv_heads=2,
            vocab=64, num_chunks=2,
        ),
        "train_ulysses_wide": TrainSpec(
            "ulysses", world=4, seq_len=32, hidden=16, heads=4, kv_heads=2,
            vocab=64,
        ),
        "serve_closed_16": ServeSpec(
            hidden=16, vocab=64, clients=4, prompt_log_mean=2.0,
            max_prompt=40, max_new_tokens=6, prefill_chunk=8,
            prefill_chunks_per_tick=4, pool=1000, verify_sample=8,
        ),
    },
}

WORKLOADS = tuple(SPECS["full"])

#: End-to-end metrics, reported by every workload.  Training: one step
#: is one request of a closed loop with one client, so ``requests_per_s``
#: counts steps and the latencies are step times.  Serving: a step is one
#: scheduler tick and ``tokens_per_s`` counts decoded tokens.
END_TO_END = {
    "tokens_per_s": "tok/s",
    "requests_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_hbm_bytes": "bytes",
    "rss_peak_mib": "MiB",
    "setup_s": "s",
}


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (untraced): name -> (value, unit).
    metrics: dict = dataclasses.field(default_factory=dict)
    #: Per-layer metrics (traced run only).
    layer_metrics: dict = dataclasses.field(default_factory=dict)
    #: Sample counts, digests and other facts printed with the result.
    facts: dict = dataclasses.field(default_factory=dict)
    errors: list = dataclasses.field(default_factory=list)
    spans: list = dataclasses.field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(what)


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples, and at least a
    tenth of them, beyond it, as ``(value, percentile)``: p90 from 100
    samples on.  Short series keep half their samples beyond it, so the
    tail never drops below the median.  (Ten samples alone put the tail
    of a long run on the few steps a noisy neighbour on the host slowed.)"""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    beyond = min(max(10, n // 10), (n - 1) // 2)
    rank = n - 1 - beyond
    pct = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return float(ordered[rank]), pct


def _windows(values) -> list:
    """Up to ``WINDOWS`` consecutive stretches of ``values``, each at
    least ``MIN_WINDOW`` long (one stretch for short runs)."""
    n = max(1, min(WINDOWS, len(values) // MIN_WINDOW))
    return np.array_split(np.asarray(values, dtype=float), n)


def windowed(values, stat) -> float:
    """``stat`` of each window of ``values``, median across them.  A
    stretch in which the host stalls the process then moves one window,
    not the reported figure."""
    if not len(values):
        return 0.0
    return float(np.median([stat(w) for w in _windows(values)]))


def windowed_rate(work, gaps_ms) -> float:
    """Work per second over consecutive steps, windowed: ``work[i]`` was
    done in the ``gaps_ms[i]`` milliseconds of step ``i``."""
    if not len(gaps_ms):
        return 0.0
    pairs = np.stack([np.asarray(work, float), np.asarray(gaps_ms, float)], 1)
    return windowed(pairs, lambda w: w[:, 0].sum() / (w[:, 1].sum() / 1e3))


def tail_value(values) -> float:
    return tail(values)[0]


def window_tail_pct(values) -> float:
    """The percentile :func:`tail` takes within one window."""
    return tail(_windows(values)[0])[1] if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def rss_peak_mib() -> float:
    """Peak resident set of this process plus that of its largest
    executor worker process, in MiB.  ``RUSAGE_CHILDREN`` only covers
    reaped children, so the executor is shut down first: pooled worker
    processes exit and count.  (A later section starts a new pool.)"""
    get_executor().shutdown()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_seeds(seed: int, n: int) -> list[int]:
    """Independent integer seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _end_to_end(values: dict) -> dict:
    return {k: (float(values[k]), unit) for k, unit in END_TO_END.items()}


# -- training -----------------------------------------------------------------


def _train_config(spec: TrainSpec):
    return tiny_llama(
        hidden_size=spec.hidden, num_layers=spec.layers, num_heads=spec.heads,
        num_kv_heads=spec.kv_heads, vocab_size=spec.vocab,
    )


def _build_trainer(spec: TrainSpec, seed: int):
    model_seed, corpus_seed = child_seeds(seed, 2)
    model = GPTModel(_train_config(spec), seed=model_seed)
    corpus = SyntheticCorpus(spec.vocab, seed=corpus_seed)
    cluster = VirtualCluster(spec.world)
    if spec.runner == "fpdt":
        runner = FPDTModelRunner(
            model, cluster, num_chunks=spec.num_chunks, offload=True,
            activation_checkpoint=True,
        )
    else:
        runner = UlyssesModelRunner(model, cluster)

    def batch_fn(batch_size, seq_len):
        return make_batch(corpus, batch_size, seq_len)

    return Trainer(model, corpus, runner=runner, batch_fn=batch_fn)


def first_batch(spec, seed: int):
    """The first batch a trainer built from ``seed`` draws."""
    _, corpus_seed = child_seeds(seed, 2)
    return make_batch(SyntheticCorpus(spec.vocab, seed=corpus_seed),
                      spec.batch, spec.seq_len)


def _train_window(trainer, spec, seconds, result, tracing=None):
    """Step until ``seconds`` have passed (at least ``MIN_STEPS``).
    With ``tracing``, every other step is traced.  Returns the wall times
    in ms of the untraced and of the traced steps."""
    times, traced = [], []
    start = time.perf_counter()
    while (len(times) + len(traced) < MIN_STEPS
           or time.perf_counter() - start < seconds):
        step_no = trainer.global_step
        result.attempted += 1
        traces = tracing is not None and (len(times) + len(traced)) % 2 == 1
        scope = (tracing.step("train_step", f"step-{step_no}") if traces
                 else nullcontext())
        try:
            with scope:
                t0 = time.perf_counter()
                loss = trainer.step(spec.batch, spec.seq_len)
                step_ms = (time.perf_counter() - t0) * 1e3
        except Exception as exc:  # a failed step fails the run's remainder
            result.fail(f"step {step_no}: {type(exc).__name__}: {exc}")
            break
        (traced if traces else times).append(step_ms)
        if not np.isfinite(loss):
            result.fail(f"step {step_no}: non-finite loss {loss!r}")
    return times, traced


def run_training(spec: TrainSpec, seed, seconds, trace) -> RunResult:
    result = RunResult()
    setup_times, first_losses = [], []
    for _ in range(SETUP_REPEATS):
        trainer = None  # let the previous set-up go before building anew
        t0 = time.perf_counter()
        trainer = _build_trainer(spec, seed)
        result.attempted += 1
        try:
            first_losses.append(trainer.step(spec.batch, spec.seq_len))
        except Exception as exc:
            result.fail(f"warm-up step: {type(exc).__name__}: {exc}")
            return result
        setup_times.append(time.perf_counter() - t0)

    cluster = trainer.runner.cluster
    if trace:
        tracing = layers.Tracing(cluster, batch_owner=trainer)
        times, traced = _train_window(trainer, spec, seconds, result, tracing)
        result.layer_metrics = layers.training_metrics(tracing, traced, times)
        result.spans = tracing.recorder.tracer.to_dicts()
        result.facts.update(steps=len(times), traced_steps=len(traced))
        _check_training(spec, seed, trainer, first_losses, result)
        return result

    times, _ = _train_window(trainer, spec, seconds, result)
    rss = rss_peak_mib()
    per_s = windowed_rate(np.ones(len(times)), times)
    step_p50 = windowed(times, np.median)
    step_tail = windowed(times, tail_value)
    result.metrics = _end_to_end({
        "tokens_per_s": per_s * spec.batch * spec.seq_len,
        "requests_per_s": per_s,
        "step_ms_p50": step_p50,
        "step_ms_tail": step_tail,
        "latency_ms_p50": step_p50,
        "latency_ms_tail": step_tail,
        "peak_hbm_bytes": float(cluster.peak_hbm()),
        "rss_peak_mib": rss,
        "setup_s": median(setup_times),
    })
    result.facts.update({
        "steps": len(times),
        "setups": len(setup_times),
        "tail_percentile": round(window_tail_pct(times), 2),
        "peak_host_bytes": cluster.memory_stats()["host"]["peak"],
    })
    _check_training(spec, seed, trainer, first_losses, result)
    return result


def _check_training(spec, seed, trainer, first_losses, result) -> None:
    """Each set-up's first-step loss vs the single-device reference, and
    the digest of the loss prefix (finiteness is checked as steps run)."""
    losses = trainer.result.losses
    model_seed, _ = child_seeds(seed, 2)
    reference = GPTModel(_train_config(spec), seed=model_seed)
    tokens, labels = first_batch(spec, seed)
    t0 = time.perf_counter()
    ref_loss = reference.forward_loss(tokens, labels)
    reference.backward_loss()
    ref_ms = (time.perf_counter() - t0) * 1e3
    for i, loss in enumerate(first_losses):
        if not np.isclose(loss, ref_loss, rtol=LOSS_RTOL, atol=0.0):
            result.fail(
                f"set-up {i}: first-step loss {loss!r} != reference {ref_loss!r}"
            )
    if result.layer_metrics:
        result.layer_metrics["models.reference_step_ms"] = (ref_ms, "ms")
    result.facts.update({
        "reference_loss": ref_loss,
        "loss_digest": _digest(np.asarray(losses[:DIGEST_STEPS], np.float64)),
        "loss_digest_steps": min(len(losses), DIGEST_STEPS),
        "input_digest": _digest(tokens, labels),
    })


# -- serving ------------------------------------------------------------------


def _serve_config(spec: ServeSpec):
    return tiny_gpt(hidden_size=spec.hidden, num_layers=spec.layers,
                    vocab_size=spec.vocab)


def request_mix(spec: ServeSpec, seed: int, n: int | None = None, *, salt=0):
    """The request pool (``salt=1``: the warm-up mix).  Prompt lengths,
    decode budgets, tenants and priorities come from
    ``synthesize_requests`` under a fixed shape seed: like a training
    run's sequence length, they are part of the workload.  The run seed
    draws the prompt tokens.  (With lengths drawn from the run seed, ten
    seeds ran at 18.5 to 25.4 requests/s: a few 448-token prompts more or
    fewer change a run's work.)"""
    cfg = _serve_config(spec)
    shapes = synthesize_requests(
        LoadGenConfig(
            num_requests=n or spec.pool, seed=MIX_SHAPE_SEED + salt,
            prompt_log_mean=spec.prompt_log_mean, max_prompt=spec.max_prompt,
            max_new_tokens=spec.max_new_tokens,
        ),
        cfg.vocab_size,
        position_budget=cfg.max_position_embeddings,
    )
    rng = np.random.default_rng(child_seeds(seed, 3)[1 + salt])
    return [
        dataclasses.replace(
            r, prompt=rng.integers(cfg.vocab_size, size=r.prompt_len, dtype=np.int64))
        for r in shapes
    ]


def mix_digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(r.prompt.tobytes())
        h.update(f"{r.max_new_tokens}:{r.tenant}:{r.priority};".encode())
    return h.hexdigest()[:16]


class ClosedLoop:
    """``clients`` callers, each sending its next request when its
    previous one completes.  Wall time is stamped at the end of every
    tick; TTFT and latency run from a request's send to the end of the
    tick that produced its first or last token."""

    def __init__(self, scheduler, cluster, requests, clients, *, prefix=""):
        self.scheduler = scheduler
        self.cluster = cluster
        self.requests = iter(requests)
        self.clients = clients
        self.prefix = prefix
        self.sent: dict[str, float] = {}
        self.tick_end: dict[int, float] = {}
        #: Wall times in ms of the untraced and of the traced ticks.
        self.tick_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.done: list[str] = []

    def _send(self, result) -> None:
        request = next(self.requests, None)
        if request is None:
            return
        request = dataclasses.replace(
            request, rid=self.prefix + request.rid,
            arrival_tick=self.scheduler.tick_index,
        )
        result.attempted += 1
        self.sent[request.rid] = time.perf_counter()
        if not self.scheduler.submit(request):
            result.fail(f"{request.rid}: rejected at admission")

    def run(self, seconds, result, tracing=None) -> None:
        """Serve until ``seconds`` have passed, then drain; ``start``
        stamps the first send.  With ``tracing``, every other tick is
        traced."""
        sch = self.scheduler
        start = time.perf_counter()
        for _ in range(self.clients):
            self._send(result)
        seen = len(sch.completed)
        self.start = start
        while sch.outstanding:
            traces = tracing is not None and sch.tick_index % 2 == 1
            scope = (tracing.step("tick", f"tick-{sch.tick_index + 1}") if traces
                     else nullcontext())
            try:
                with scope:
                    t0 = time.perf_counter()
                    sch.tick()
                    end = time.perf_counter()
            except Exception as exc:
                result.fail(f"tick {sch.tick_index}: {type(exc).__name__}: {exc}",
                            sch.outstanding)
                break
            self.tick_end[sch.tick_index] = end
            (self.traced_ms if traces else self.tick_ms).append((end - t0) * 1e3)
            self.cluster.trace.clear()
            finished = list(sch.completed)[seen:]
            seen += len(finished)
            for rid in finished:
                self.done.append(rid)
                if end - start < seconds:
                    self._send(result)

    def per_tick(self, seconds):
        """Per tick that ended within ``seconds`` of the start, in order:
        the wall ms since the previous tick ended (the first: since the
        start), the tokens decoded and the requests completed in it.  A
        request's tokens are spread over its ticks from first token to
        last, one per tick."""
        ticks = sorted(self.tick_end)
        index = {t: i for i, t in enumerate(ticks)}
        tokens, done = np.zeros(len(ticks)), np.zeros(len(ticks))
        for rid in self.done:
            state = self.scheduler.completed[rid]
            first, last = index[state.first_token_tick], index[state.done_tick]
            tokens[first:last + 1] += len(state.new_tokens) / (last - first + 1)
            done[last] += 1
        ends = np.array([self.tick_end[t] for t in ticks])
        n = max(1, int(np.sum(ends - self.start <= seconds)))
        gaps = np.diff(ends, prepend=self.start) * 1e3
        return gaps[:n], tokens[:n], done[:n]

    def latencies(self):
        """Per completed request: (ttft_ms, latency_ms)."""
        out = []
        for rid in self.done:
            state = self.scheduler.completed[rid]
            sent = self.sent[rid]
            out.append((
                (self.tick_end[state.first_token_tick] - sent) * 1e3,
                (self.tick_end[state.done_tick] - sent) * 1e3,
            ))
        return out


def _build_server(spec: ServeSpec, seed: int):
    model = GPTModel(_serve_config(spec), seed=child_seeds(seed, 3)[0])
    cluster = VirtualCluster(1)
    engine = ServingEngine(
        model, config=EngineConfig(prefill_chunk=spec.prefill_chunk, offload=True),
        cluster=cluster,
    )
    scheduler = Scheduler(engine, config=SchedulerConfig(
        max_live=spec.clients,
        prefill_chunks_per_tick=spec.prefill_chunks_per_tick,
    ))
    return model, cluster, scheduler


def run_serving(spec: ServeSpec, seed, seconds, trace) -> RunResult:
    result = RunResult()
    mix = request_mix(spec, seed)
    warm_mix = request_mix(spec, seed, spec.clients, salt=1)
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model, cluster, scheduler = _build_server(spec, seed)
        warm = RunResult()
        ClosedLoop(scheduler, cluster, warm_mix, spec.clients,
                   prefix=f"warm{i}-").run(0.0, warm)
        if warm.failed:
            result.fail(f"warm-up: {warm.errors[0]}", warm.failed)
            return result
        setup_times.append(time.perf_counter() - t0)

    loop = ClosedLoop(scheduler, cluster, mix, spec.clients)
    if trace:
        tracing = layers.Tracing(cluster)
        loop.run(seconds, result, tracing)
        result.layer_metrics = layers.serving_metrics(
            tracing, loop.traced_ms, loop.tick_ms)
        result.spans = tracing.recorder.tracer.to_dicts()
        result.facts.update(ticks=len(loop.tick_ms),
                            traced_ticks=len(loop.traced_ms))
        _check_serving(spec, seed, model, scheduler, loop.done, result)
        return result

    loop.run(seconds, result)
    rss = rss_peak_mib()
    stats = loop.latencies()
    ttft = [s[0] for s in stats]
    latency = [s[1] for s in stats]
    gaps, tokens, done = loop.per_tick(seconds)
    result.metrics = _end_to_end({
        "tokens_per_s": windowed_rate(tokens, gaps),
        "requests_per_s": windowed_rate(done, gaps),
        "step_ms_p50": windowed(loop.tick_ms, np.median),
        "step_ms_tail": windowed(loop.tick_ms, tail_value),
        "latency_ms_p50": windowed(latency, np.median),
        "latency_ms_tail": windowed(latency, tail_value),
        "peak_hbm_bytes": float(cluster.peak_hbm()),
        "rss_peak_mib": rss,
        "setup_s": median(setup_times),
    })
    result.facts.update({
        "requests_completed": len(stats),
        "ticks": len(loop.tick_ms),
        "setups": len(setup_times),
        "tick_tail_percentile": round(window_tail_pct(loop.tick_ms), 2),
        "latency_tail_percentile": round(window_tail_pct(latency), 2),
        "ttft_ms_p50": median(ttft),
        "ttft_ms_p99": percentile(ttft, 99),
        "latency_ms_p99": percentile(latency, 99),
        "decode_tokens_per_s": result.metrics["tokens_per_s"][0],
        "peak_host_bytes": cluster.memory_stats()["host"]["peak"],
        "input_digest": mix_digest(mix),
    })
    _check_serving(spec, seed, model, scheduler, loop.done, result)
    return result


def _check_serving(spec, seed, model, scheduler, done, result) -> None:
    """Re-decode a seeded sample of completed requests with
    ``generate()`` and compare bitwise."""
    rng = np.random.default_rng(child_seeds(seed, 3)[2])
    n = min(spec.verify_sample, len(done))
    sample = sorted(rng.choice(len(done), size=n, replace=False)) if n else []
    ref_ms = []
    for i in sample:
        state = scheduler.completed[done[i]]
        req = state.request
        t0 = time.perf_counter()
        reference = generate(model, req.prompt, max_new_tokens=req.max_new_tokens,
                             temperature=req.temperature, seed=req.seed)
        ref_ms.append((time.perf_counter() - t0) * 1e3)
        if not np.array_equal(state.output(), reference):
            result.fail(f"{req.rid}: output differs from generate()")
    if result.layer_metrics:
        result.layer_metrics["models.reference_step_ms"] = (median(ref_ms), "ms")
    result.facts["verified"] = n


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> RunResult:
    spec = SPECS[size][name]
    if isinstance(spec, TrainSpec):
        return run_training(spec, seed, seconds, trace)
    return run_serving(spec, seed, seconds, trace)
