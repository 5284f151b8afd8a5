"""Fork-join rank executor: run per-rank closures on real threads.

Every strategy in :mod:`repro.parallel` and :mod:`repro.core` is SPMD
by loop — a ``for r in range(world)`` between collectives.  On a
multi-core host that serializes work the simulated devices would run
concurrently, so a world-8 step costs ~8x what the hardware allows.
:func:`rank_map` is the fork-join primitive that fixes it: dispatch one
closure per rank onto a persistent thread pool (NumPy/BLAS releases the
GIL, so the ranks genuinely overlap), join in rank order.

Determinism contract (what makes executor-on bitwise identical to
executor-off):

* closures only touch **rank-local** state plus the thread-safe runtime
  (pools and arenas lock their counters; see
  :mod:`repro.runtime.memory` / :mod:`repro.runtime.arena`);
* any **cross-rank accumulation** happens at the join, in rank order,
  on the values the closures return — never inside the closures — so
  float reduction order matches the serial loop exactly;
* trace events recorded inside a closure go to a per-rank buffer and
  are merged in (rank, sequence) order at the join
  (:meth:`repro.runtime.trace.Trace.buffered`), so the merged log is
  byte-identical to the serial loop's.

Executions that need a *global* interleaving order stay serial: memory
timelines (``record_timeline=True`` stamps samples with the live trace
position) and fault injection (per-op fault draws are an ordered
sequence).  ``VirtualCluster.rank_map`` applies both guards.

The **process** backend runs the same fork-join on worker *processes*
(``os.fork`` per section, rank ``r`` on worker ``r % n``), sidestepping
the GIL entirely on the small-op-dense FPDT schedule where thread
workers serialize on Python bookkeeping.  Side effects cross the fork
through :mod:`repro.runtime.shuttle`: pool/cache mutations are
journaled in the children and replayed in rank order at the join (so
byte accounting is identical to serial by construction), results
travel as shared-segment descriptors or staged copies, and trace/span
buffers merge exactly as the thread backend's do — the determinism
contract above holds bitwise for all three backends.  Closures that
must mutate shared Python state in place (serving's tick tasks) pass
``shared_state=True`` and fall back to the thread pool.

The **process-pool** backend keeps the process backend's join and
shuttle protocol but forks the workers once per executor lifetime:
sections are *shipped* to the resident workers as pickled task blobs
over a shared-memory task board plus a length-prefixed pipe rendezvous
(:func:`repro.runtime.shuttle.encode_task`), amortizing the per-section
fork+teardown that dominates small steps.
Closures the task codec cannot ship fall back to the per-section fork
(counted in ``fallback_forks``), so the pool is never less correct than
``process`` — only faster when shipping succeeds.

Selection: ``executor(workers=N)`` context manager, the
``REPRO_EXECUTOR`` env var (``serial`` | ``threads`` | ``threads:N`` |
``process`` | ``process:N`` | ``process-pool`` | ``process-pool:N``),
or the ``--workers``/``--executor`` CLI flags.  The threads backend is the default; ``workers`` defaults to
the CPU count, so a single-core host degrades to the serial path
automatically.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import struct
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Sequence

__all__ = [
    "RankExecutor",
    "executor",
    "executor_stats",
    "get_executor",
    "rank_map",
    "reset_executor",
    "set_executor",
    "clamp_blas_threads",
]


# --------------------------------------------------------------------------
# BLAS oversubscription guard
# --------------------------------------------------------------------------

#: Env vars that mean the user already pinned BLAS threading; the guard
#: never overrides an explicit choice.
_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-num-threads entry points across OpenBLAS builds (the scipy
#: wheels prefix and suffix the symbol).
_BLAS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads_64_",
)

_blas_lock = threading.Lock()
_blas_setters: list | None = None  # resolved once, None = not yet probed


def _find_blas_setters() -> list:
    """Locate ``*_set_num_threads`` in the BLAS shared objects NumPy
    ships with.  Best effort: no threadpoolctl dependency, and a build
    we can't introspect just means the guard is a no-op."""
    import ctypes
    import glob

    import numpy

    setters = []
    root = os.path.dirname(os.path.dirname(numpy.__file__))
    patterns = (
        os.path.join(root, "numpy.libs", "*openblas*"),
        os.path.join(root, "numpy", ".dylibs", "*openblas*"),
        os.path.join(root, "scipy_openblas64", "lib", "*.so*"),
        os.path.join(root, "scipy_openblas32", "lib", "*.so*"),
    )
    for pattern in patterns:
        for path in glob.glob(pattern):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # pragma: no cover - unloadable stray file
                continue
            for symbol in _BLAS_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes = [ctypes.c_int]
                    fn.restype = None
                    setters.append(fn)
                    break
    return setters


def clamp_blas_threads(n: int) -> bool:
    """Pin the BLAS pool to ``n`` threads per call site.

    Called by the executor before going parallel so ``workers`` rank
    threads times ``cores`` BLAS threads doesn't oversubscribe the
    machine (on small shapes that is a slowdown, not a speedup).
    Returns ``True`` when a BLAS library accepted the setting; ``False``
    when the user pinned threading via env (respected as-is) or no
    known entry point exists.
    """
    if any(os.environ.get(var) for var in _BLAS_ENV_VARS):
        return False
    global _blas_setters
    with _blas_lock:
        if _blas_setters is None:
            _blas_setters = _find_blas_setters()
        for setter in _blas_setters:
            setter(int(max(1, n)))
    return bool(_blas_setters)


def _blas_threads_for(workers: int) -> int:
    """BLAS threads per rank worker: an even split of the cores, floored
    at 1 so ``workers > cores`` never rounds the clamp down to zero."""
    return max(1, (os.cpu_count() or 1) // max(1, workers))


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------

_TLS = threading.local()  # .active is True inside a rank closure


def _in_rank_closure() -> bool:
    return getattr(_TLS, "active", False)


def _write_frame(fd: int, payload: bytes) -> None:
    """Length-prefixed write; loops because pipes take partial writes."""
    view = memoryview(struct.pack("<Q", len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            return None  # EOF before the frame completed: worker died
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int) -> bytes | None:
    header = _read_exact(fd, 8)
    if header is None:
        return None
    return _read_exact(fd, struct.unpack("<Q", header)[0])


class RankExecutor:
    """Process-wide fork-join dispatcher for per-rank closures.

    Parameters
    ----------
    backend:
        ``"threads"`` (default) or ``"serial"``.  Serial preserves
        today's exact control flow — ``rank_map`` is then a plain
        ``for r in range(world)`` loop.
    workers:
        Thread-pool size for the threads backend; defaults to the CPU
        count.  ``workers <= 1`` is equivalent to serial.

    Utilization counters (cumulative, read via :meth:`stats`):
    ``fork_joins`` parallel fork-join sections executed, ``tasks`` rank
    closures dispatched to the pool, ``busy_seconds`` summed in-closure
    time, ``wall_seconds`` summed fork-join wall time.  The busy
    fraction ``busy / (wall * workers)`` is the utilization telemetry
    surfaces per step.
    """

    def __init__(self, backend: str = "threads", workers: int | None = None):
        if backend not in ("threads", "serial", "process", "process-pool"):
            raise ValueError(f"unknown executor backend {backend!r}")
        if backend in ("process", "process-pool") and not hasattr(os, "fork"):
            raise ValueError(f"the {backend} backend requires os.fork (POSIX)")
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.workers = workers
        self.fork_joins = 0
        self.tasks = 0
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        #: Process backends only: worker processes forked, and IPC
        #: descriptors (tensor refs, shared-segment views, staged
        #: arrays) decoded at joins — telemetry surfaces both per step.
        self.forks = 0
        self.ipc_descriptors = 0
        #: Persistent pool only: sections served by already-forked
        #: workers, sections that fell back to a per-section fork
        #: (unshippable closure), and pool restarts (tasks referencing
        #: runtime objects born after the fork).
        self.pool_reuses = 0
        self.fallback_forks = 0
        self.pool_restarts = 0
        self._pool: ThreadPoolExecutor | None = None
        self._fork_ready = False
        self._lock = threading.Lock()
        # Persistent worker-pool state (process-pool backend).
        self._pool_procs: list[tuple[int, int, int]] | None = None  # (pid, w, r)
        self._pool_maps: list[tuple[dict, set]] = []
        self._pool_board = None  # parent-side task StageBuffer
        self._pool_ipc_mark = -1
        self._pool_atexit = False

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether this executor dispatches rank closures at all."""
        return (
            self.backend in ("threads", "process", "process-pool")
            and self.workers > 1
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                # One BLAS thread per rank thread: the executor owns the
                # core-level parallelism while a fork-join is running.
                clamp_blas_threads(_blas_threads_for(self.workers))
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="rank"
                )
            return self._pool

    def rank_map(
        self,
        fn: Callable[[int], Any],
        world: int,
        *,
        trace=None,
        force_serial: bool = False,
        shared_state: bool = False,
    ) -> list:
        """Run ``fn(r)`` for every rank; return results in rank order.

        ``trace`` is the cluster trace to buffer per rank and merge at
        the join.  ``force_serial`` pins this call to the serial path
        (timeline recording, fault injection).  ``shared_state`` marks
        closures that mutate shared Python objects in place (serving's
        decode states): the process backend cannot see such mutations
        across the fork, so it routes the call to its thread pool
        instead.  Nested calls — a rank closure invoking ``rank_map`` —
        run inline serially, so events stay on the outer rank's buffer
        in their serial order.

        Exceptions: every rank runs to completion (or failure); the
        lowest-rank exception is re-raised after the trace buffers of
        all ranks are merged, mirroring where a serial loop leaves the
        shared state for that rank.
        """
        if (
            world <= 1
            or force_serial
            or not self.parallel
            or _in_rank_closure()
        ):
            return [fn(r) for r in range(world)]
        if self.backend in ("process", "process-pool") and not shared_state:
            if self.backend == "process-pool":
                return self._rank_map_pool(fn, world, trace)
            return self._rank_map_process(fn, world, trace)
        return self._rank_map_threads(fn, world, trace)

    # -- threads backend ----------------------------------------------------

    def _rank_map_threads(self, fn: Callable[[int], Any], world: int, trace) -> list:
        pool = self._ensure_pool()
        buffers: list[list | None] = [None] * world
        # Spans completed inside rank closures mirror the trace-event
        # contract: per-rank buffers, merged in rank order at the join,
        # so the completed-span log matches the serial loop's.
        tracer = getattr(trace, "tracer", None) if trace is not None else None
        span_buffers: list[list | None] = [None] * world
        durations = [0.0] * world

        def task(r: int):
            _TLS.active = True
            try:
                start = time.perf_counter()
                if trace is not None:
                    with trace.buffered() as buffer:
                        buffers[r] = buffer
                        if tracer is not None:
                            with tracer.buffered() as span_buffer:
                                span_buffers[r] = span_buffer
                                out = fn(r)
                        else:
                            out = fn(r)
                else:
                    out = fn(r)
                durations[r] = time.perf_counter() - start
                return out
            finally:
                _TLS.active = False

        wall_start = time.perf_counter()
        futures = [pool.submit(task, r) for r in range(world)]
        results: list = []
        errors: list[tuple[int, BaseException]] = []
        for r, future in enumerate(futures):
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append((r, exc))
                results.append(None)
        if trace is not None:
            trace.merge(b for b in buffers if b is not None)
        if tracer is not None:
            tracer.merge(b for b in span_buffers if b is not None)
        wall = time.perf_counter() - wall_start
        with self._lock:
            self.fork_joins += 1
            self.tasks += world
            self.busy_seconds += sum(durations)
            self.wall_seconds += wall
        if errors:
            raise errors[0][1]
        return results

    # -- process backend ----------------------------------------------------

    def _prepare_fork(self) -> None:
        """One-time parent-side setup before the first fork.

        The resource tracker must exist *before* forking: children
        inherit its pipe, so a staging segment registered in a child is
        tracked by the parent's tracker (a child-spawned tracker would
        unlink staging at child exit, racing the parent's adopt).  BLAS
        setters are resolved now so children clamp without dlopen'ing.
        """
        if self._fork_ready:
            return
        from multiprocessing import resource_tracker

        from repro.runtime.arena import shared_segments

        resource_tracker.ensure_running()
        shared_segments()  # create the segment manager pre-fork
        global _blas_setters
        with _blas_lock:
            if _blas_setters is None:
                _blas_setters = _find_blas_setters()
        self._fork_ready = True

    def _run_rank_child(self, fn, r: int, trace, tracer, stage_writer=None) -> dict:
        """Child side: run one rank closure and encode its frame."""
        from repro.runtime import shuttle

        shuttle.rank_begin()
        _TLS.active = True
        ok = True
        trace_buffer: list = []
        span_buffer: list = []
        start = time.perf_counter()
        try:
            if trace is not None:
                with trace.buffered() as buffer:
                    trace_buffer = buffer
                    if tracer is not None:
                        with tracer.buffered() as spans:
                            span_buffer = spans
                            value = fn(r)
                    else:
                        value = fn(r)
            else:
                value = fn(r)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            ok = False
            value = exc
        finally:
            _TLS.active = False
        duration = time.perf_counter() - start
        return shuttle.encode_frame(
            r, ok, value, trace_buffer, span_buffer, shuttle.rank_end(), duration,
            stage_writer=stage_writer,
        )

    def _rank_map_process(self, fn: Callable[[int], Any], world: int, trace) -> list:
        """Fork-join over worker processes.

        One ``os.fork`` per worker per section — closures are never
        pickled, the fork's copy-on-write image ships them.  Worker
        ``w`` runs ranks ``w, w+n, ...`` serially (same per-rank order
        as the serial loop) and streams the encoded frames back over a
        pipe; the parent replays the journals in global rank order, then
        decodes the bodies, then merges trace/span buffers — the same
        join the threads backend performs.
        """
        from repro.runtime import shuttle
        from repro.runtime.arena import shared_segments

        self._prepare_fork()
        n = max(1, min(self.workers, world))
        tracer = getattr(trace, "tracer", None) if trace is not None else None
        blas_each = _blas_threads_for(n)
        wall_start = time.perf_counter()
        procs: list[tuple[int, int]] = []  # (read_fd, pid)
        for w in range(n):
            r_fd, w_fd = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r_fd)
                    for fd, _ in procs:
                        os.close(fd)
                    clamp_blas_threads(blas_each)
                    shuttle.child_begin()
                    frames = [
                        self._run_rank_child(fn, r, trace, tracer)
                        for r in range(w, world, n)
                    ]
                    _write_frame(
                        w_fd, pickle.dumps(frames, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    status = 0
                except BaseException:  # noqa: BLE001 - last-resort child report
                    traceback.print_exc()
                finally:
                    try:
                        os.close(w_fd)
                    except OSError:
                        pass
                    sys.stderr.flush()
                    os._exit(status)
            os.close(w_fd)
            procs.append((r_fd, pid))

        frames_by_rank: dict[int, dict] = {}
        dead: RuntimeError | None = None
        for w, (r_fd, pid) in enumerate(procs):
            try:
                payload = _read_frame(r_fd)
            finally:
                os.close(r_fd)
            _, wait_status = os.waitpid(pid, 0)
            if payload is None:
                if dead is None:
                    dead = RuntimeError(
                        f"process executor worker {w} (pid {pid}) died "
                        f"without a result (wait status {wait_status})"
                    )
                continue
            for frame in pickle.loads(payload):
                frames_by_rank[frame["rank"]] = frame
        if dead is not None:
            segs = shared_segments(create=False)
            if segs is not None:
                segs.sweep_orphans()
            raise dead

        # Maps are per *worker* — child alloc ids restart from the same
        # watermark in every child, so they collide across workers but
        # are unique within one.  Per-section forks use fresh maps; the
        # persistent pool passes its long-lived ones into _join_frames.
        maps: list[tuple[dict, set]] = [({}, set()) for _ in range(n)]
        results, errors, busy, descriptors = self._join_frames(
            frames_by_rank, world, n, maps, trace, tracer
        )
        wall = time.perf_counter() - wall_start
        with self._lock:
            self.fork_joins += 1
            self.tasks += world
            self.busy_seconds += busy
            self.wall_seconds += wall
            self.forks += n
            self.ipc_descriptors += descriptors
        segs = shared_segments(create=False)
        if segs is not None:
            segs.prune()
        if errors:
            raise errors[0][1]
        return results

    def _join_frames(self, frames_by_rank, world, n, maps, trace, tracer):
        """Parent-side join, shared by both process backends: replay
        every journal in global rank order first (the pool accounting
        trajectory must match the serial loop, and the bodies'
        child-born tensors resolve against the replayed alloc maps),
        then decode bodies, then merge trace/span buffers."""
        from repro.runtime import shuttle

        stages: dict[int, list] = {}
        journals: dict[int, list] = {}
        for r in range(world):
            frame = frames_by_rank[r]
            stages[r] = shuttle.attach_stage(frame["stage"])
            journals[r] = shuttle.decode_journal(frame["journal"], stages[r])
        for r in range(world):
            alloc_map, child_born = maps[r % n]
            shuttle.replay_journal(journals[r], alloc_map, child_born)

        results: list = [None] * world
        errors: list[tuple[int, BaseException]] = []
        buffers: list[list] = []
        span_buffers: list[list] = []
        busy = 0.0
        descriptors = 0
        for r in range(world):
            frame = frames_by_rank[r]
            ok, value, trace_buffer, span_buffer = shuttle.decode_body(
                frame["body"], stages[r], maps[r % n][0]
            )
            busy += frame["duration"]
            descriptors += frame["descriptors"]
            buffers.append(trace_buffer)
            span_buffers.append(span_buffer)
            if ok:
                results[r] = value
            else:
                errors.append((r, value))
        if trace is not None:
            if trace.observer is not None:
                # The threads backend fires the observer at record time
                # on the recording thread; child-recorded events replay
                # it here, in the same (rank, seq) order the merge uses.
                for buffer in buffers:
                    for event in buffer:
                        trace.observer(event)
            trace.merge(buffers)
        if tracer is not None:
            total = sum(len(b) for b in span_buffers)
            tracer.merge(span_buffers)
            if total:
                # end_span() bumped `emitted` in the child, invisible
                # through the fork; restore the serial count, then fire
                # listeners now that merge assigned each span's seq.
                with tracer._lock:
                    tracer.emitted += total
                for span_buffer in span_buffers:
                    for span in span_buffer:
                        for listener in list(tracer.listeners):
                            listener(span)
        return results, errors, busy, descriptors

    # -- persistent worker pool (process-pool backend) ----------------------

    def _ensure_pool_workers(self) -> bool:
        """Fork the persistent workers if absent; True when forked now.

        Workers are forked once per executor lifetime (re-forked only
        after a restart or a mid-task death), clamp BLAS once at birth,
        and then loop on the task pipe: attach the task-board segment,
        decode the task blob, run their ranks, stage results into their
        own reusable segment, and stream the frames back.
        """
        if self._pool_procs is not None:
            return False
        from repro.runtime import shuttle
        from repro.runtime.arena import StageBuffer, shared_segments

        self._prepare_fork()
        segs = shared_segments()
        segs.persist_names = True
        if self._pool_board is None:
            self._pool_board = StageBuffer()
        n = self.workers
        blas_each = _blas_threads_for(n)
        procs: list[tuple[int, int, int]] = []
        for w in range(n):
            task_r, task_w = os.pipe()
            res_r, res_w = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(task_w)
                    os.close(res_r)
                    for _pid, other_w, other_r in procs:
                        os.close(other_w)
                        os.close(other_r)
                    clamp_blas_threads(blas_each)
                    shuttle.child_begin()
                    self._pool_worker_main(w, n, task_r, res_w)
                except BaseException:  # noqa: BLE001 - last-resort report
                    traceback.print_exc()
                    sys.stderr.flush()
                    os._exit(1)
                os._exit(0)
            os.close(task_r)
            os.close(res_w)
            procs.append((pid, task_w, res_r))
        self._pool_procs = procs
        self._pool_maps = [({}, set()) for _ in range(n)]
        self._pool_ipc_mark = shuttle.ipc_watermark()
        with self._lock:
            self.forks += n
        if not self._pool_atexit:
            atexit.register(self._shutdown_pool)
            self._pool_atexit = True
        return True

    def _pool_worker_main(self, w: int, n: int, recv_fd: int, send_fd: int) -> None:
        """Worker loop: one persistent process serving ranks w, w+n, ...
        of every section until told to quit (or the parent vanishes —
        pipe EOF)."""
        from repro.runtime import shuttle
        from repro.runtime.arena import StageBuffer, shared_segments

        stage = StageBuffer()
        segs = shared_segments()
        while True:
            payload = _read_frame(recv_fd)
            if payload is None:
                break  # parent died: exit quietly, it can't hear us
            msg = pickle.loads(payload)
            if msg[0] == "quit":
                break
            _, name, offset, length, world = msg
            stage.begin_section()
            try:
                board = segs.attach(name)
                fn, trace, tracer, installed = shuttle.decode_task(
                    board[offset : offset + length].tobytes()
                )
            except BaseException as exc:  # noqa: BLE001 - shipped as taskerr
                _write_frame(
                    send_fd,
                    pickle.dumps(
                        ("taskerr", "decode", repr(exc), traceback.format_exc())
                    ),
                )
                continue
            try:
                frames = [
                    self._run_rank_child(fn, r, trace, tracer, stage_writer=stage)
                    for r in range(w, world, n)
                ]
                shuttle.uninstall_allocations(installed)
                out = pickle.dumps(
                    ("frames", frames), protocol=pickle.HIGHEST_PROTOCOL
                )
            except BaseException as exc:  # noqa: BLE001 - shipped as taskerr
                out = pickle.dumps(
                    ("taskerr", "run", repr(exc), traceback.format_exc())
                )
            _write_frame(send_fd, out)
        stage.close()

    def _rank_map_pool(self, fn: Callable[[int], Any], world: int, trace) -> list:
        """Fork-join over the persistent worker pool.

        No per-section fork: the section's closure is encoded once
        (:func:`repro.runtime.shuttle.encode_task`), written to the
        shared task board, and announced to each worker over its pipe.
        Workers reply with the same frames the per-section-fork backend
        produces, and the join is byte-for-byte the same replay/merge —
        with the per-worker alloc maps kept *across* sections, because a
        later section may free a tensor an earlier one allocated.

        Fallbacks keep the contract absolute: an unshippable closure
        (encode or worker-side decode failure) re-runs the section under
        the per-section fork; a task naming runtime objects born after
        the pool forked restarts the pool first (fresh copy-on-write
        image == parent's canonical heap); a worker death tears the pool
        down and raises.
        """
        from repro.runtime import shuttle
        from repro.runtime.arena import shared_segments

        self._prepare_fork()
        tracer = getattr(trace, "tracer", None) if trace is not None else None
        try:
            blob, max_ipc = shuttle.encode_task(fn, trace, tracer)
        except Exception:
            with self._lock:
                self.fallback_forks += 1
            return self._rank_map_process(fn, world, trace)
        wall_start = time.perf_counter()
        forked = self._ensure_pool_workers()
        if not forked and max_ipc >= self._pool_ipc_mark:
            self._restart_pool()
            self._ensure_pool_workers()
            forked = True
        if not forked:
            with self._lock:
                self.pool_reuses += 1
        n = max(1, min(self.workers, world))
        self._pool_board.begin_section()
        name, offset, length = self._pool_board.place_blob(blob)
        procs = self._pool_procs
        header = pickle.dumps(("task", name, offset, length, world))
        for w in range(n):
            _write_frame(procs[w][1], header)
        frames_by_rank: dict[int, dict] = {}
        taskerr = None
        dead: tuple[int, int] | None = None
        for w in range(n):
            pid, _task_fd, res_fd = procs[w]
            payload = _read_frame(res_fd)
            if payload is None:
                dead = (w, pid)
                break
            msg = pickle.loads(payload)
            if msg[0] == "taskerr":
                taskerr = msg
                continue
            for frame in msg[1]:
                frames_by_rank[frame["rank"]] = frame
        if dead is not None:
            self._teardown_pool(kill=True)
            segs = shared_segments(create=False)
            if segs is not None:
                segs.sweep_orphans()
            raise RuntimeError(
                f"process-pool worker {dead[0]} (pid {dead[1]}) died "
                "mid-task; the pool was torn down (it re-forks on the "
                "next parallel section)"
            )
        if taskerr is not None:
            _, phase, desc, _tb = taskerr
            if phase == "run":
                # Closures may have partially executed: the worker heaps
                # are no longer a faithful image of any parent state, so
                # refork before anything else runs on them.  No frame
                # was replayed, so the parent state is untouched either
                # way and the per-section fork below reruns cleanly.
                self._restart_pool()
            with self._lock:
                self.fallback_forks += 1
            return self._rank_map_process(fn, world, trace)
        results, errors, busy, descriptors = self._join_frames(
            frames_by_rank, world, n, self._pool_maps, trace, tracer
        )
        wall = time.perf_counter() - wall_start
        with self._lock:
            self.fork_joins += 1
            self.tasks += world
            self.busy_seconds += busy
            self.wall_seconds += wall
            self.ipc_descriptors += descriptors
        segs = shared_segments(create=False)
        if segs is not None:
            segs.prune()
        if errors:
            raise errors[0][1]
        return results

    def _restart_pool(self) -> None:
        self._teardown_pool(kill=False)
        with self._lock:
            self.pool_restarts += 1

    def _teardown_pool(self, *, kill: bool) -> None:
        """Quit (or kill) and reap the pool workers; the pool re-forks
        lazily on the next pooled section."""
        procs, self._pool_procs = self._pool_procs, None
        self._pool_maps = []
        if not procs:
            return
        for pid, task_fd, res_fd in procs:
            if kill:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            else:
                try:
                    _write_frame(task_fd, pickle.dumps(("quit",)))
                except OSError:
                    pass
            for fd in (task_fd, res_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for pid, _task_fd, _res_fd in procs:
            while True:
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if done:
                    break
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:
                        pass
                    break
                time.sleep(0.002)

    def _shutdown_pool(self) -> None:
        """Full pool teardown: reap workers, drop the task board, unlink
        every named segment.  Runs from :meth:`shutdown` and (as a
        backstop) atexit — after this, ``/dev/shm`` holds nothing of
        ours."""
        if self._pool_procs is None and self._pool_board is None:
            return
        self._teardown_pool(kill=False)
        if self._pool_board is not None:
            self._pool_board.close()
            self._pool_board = None
        from repro.runtime.arena import shared_segments

        segs = shared_segments(create=False)
        if segs is not None:
            segs.persist_names = False
            segs.unlink_named()
            segs.sweep_orphans()
            segs.prune()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of the utilization counters (telemetry reads this)."""
        with self._lock:
            denom = self.wall_seconds * self.workers
            return {
                "backend": self.backend,
                "workers": self.workers,
                "parallel": self.parallel,
                "fork_joins": self.fork_joins,
                "tasks": self.tasks,
                "busy_seconds": self.busy_seconds,
                "wall_seconds": self.wall_seconds,
                "busy_fraction": self.busy_seconds / denom if denom > 0 else 0.0,
                "forks": self.forks,
                "ipc_descriptors": self.ipc_descriptors,
                "pool_reuses": self.pool_reuses,
                "fallback_forks": self.fallback_forks,
                "pool_restarts": self.pool_restarts,
            }

    def shutdown(self) -> None:
        # Pool teardown takes self._lock itself (counter updates), so it
        # runs outside the critical section.
        self._shutdown_pool()
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankExecutor({self.backend}, workers={self.workers})"


# --------------------------------------------------------------------------
# Process-wide selection
# --------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_executor: RankExecutor | None = None


def _from_env() -> RankExecutor:
    """Build the default executor from ``REPRO_EXECUTOR``.

    Accepted values: ``serial``, ``threads``, ``threads:N``,
    ``process``, ``process:N``, ``process-pool``, ``process-pool:N``, or
    a bare integer ``N`` (shorthand for ``threads:N``).  Unset or empty
    means threads at CPU count — on by default.
    """
    value = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    if not value or value == "threads":
        return RankExecutor("threads")
    if value == "serial":
        return RankExecutor("serial", workers=1)
    if value in ("process", "process-pool"):
        return RankExecutor(value)
    backend = "threads"
    spec = value
    # "process-pool:" must be tried before its "process:" prefix.
    for prefix in ("threads:", "process-pool:", "process:"):
        if value.startswith(prefix):
            backend = prefix[:-1]
            spec = value[len(prefix):]
            break
    try:
        workers = int(spec)
    except ValueError:
        raise ValueError(
            f"REPRO_EXECUTOR={value!r}: expected 'serial', 'threads[:N]', "
            "'process[:N]' or 'process-pool[:N]'"
        ) from None
    return RankExecutor(backend, workers=workers)


def get_executor() -> RankExecutor:
    """The process-wide executor, created from the env on first use."""
    global _global_executor
    with _global_lock:
        if _global_executor is None:
            _global_executor = _from_env()
        return _global_executor


def set_executor(ex: RankExecutor | None) -> RankExecutor | None:
    """Install ``ex`` as the process-wide executor; returns the previous
    one, or ``None`` if none had been created yet (the previous executor
    keeps its thread pool — callers that own it shut it down)."""
    global _global_executor
    with _global_lock:
        previous = _global_executor
        _global_executor = ex
    return previous


def reset_executor() -> None:
    """Drop the process-wide executor so the next :func:`get_executor`
    re-reads ``REPRO_EXECUTOR`` (tests that mutate the env use this).
    Shared segments backing arena storage are pruned so no ``/dev/shm``
    bytes outlive the executor that rented them."""
    global _global_executor
    with _global_lock:
        if _global_executor is not None:
            _global_executor.shutdown()
        _global_executor = None
    from repro.runtime.arena import shared_segments

    segs = shared_segments(create=False)
    if segs is not None:
        segs.prune()


@contextmanager
def executor(workers: int | None = None, backend: str | None = None):
    """Scoped executor override.

    ``executor(workers=4)`` runs the body with a 4-thread fork-join
    pool; ``executor(backend="serial")`` (or ``workers=1``) pins the
    serial path.  The previous executor is restored on exit.
    """
    if backend is None:
        backend = "serial" if workers is not None and workers <= 1 else "threads"
    scoped = RankExecutor(backend, workers=workers)
    previous = set_executor(scoped)
    try:
        yield scoped
    finally:
        set_executor(previous)
        scoped.shutdown()


def rank_map(
    fn: Callable[[int], Any],
    world: int,
    *,
    trace=None,
    force_serial: bool = False,
    shared_state: bool = False,
) -> list:
    """Module-level convenience over :func:`get_executor`."""
    return get_executor().rank_map(
        fn, world, trace=trace, force_serial=force_serial, shared_state=shared_state
    )


def executor_stats() -> dict:
    """Utilization snapshot of the process-wide executor."""
    return get_executor().stats()


def fold(
    into: dict,
    contributions: Sequence[dict | None],
    accumulate: Callable[[dict, dict], None],
) -> dict:
    """Join-phase gradient fold: apply ``accumulate(into, contrib)`` in
    rank order.  Exists to keep call sites honest about the determinism
    rule — accumulation happens here, after the join, never inside rank
    closures."""
    for contrib in contributions:
        if contrib:
            accumulate(into, contrib)
    return into
