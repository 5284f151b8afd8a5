"""Cross-process shuttle for the rank executor's ``process`` backend.

The process backend forks one worker per rank group, runs the rank
closures in the children, and merges their effects back in the parent
at the join (:mod:`repro.runtime.executor`).  Fork gives the children a
copy-on-write view of the entire parent heap — closures read parent
state for free — but every *side effect* a closure has on the runtime
(pool accounting, cache entries, tensors it created) dies with the
child unless it is shipped home.  This module is that shipping layer:

* **Journal** — while a rank closure runs in a child, every
  :class:`~repro.runtime.memory.MemoryPool` alloc/free and every
  :class:`~repro.core.offload.ChunkCache` mutation appends one op to a
  per-rank journal.  The parent replays the journals in rank order at
  the join, so the pool accounting *trajectory* (in_use, peaks, tags,
  allocation ids) is identical to the serial loop's by construction.
* **Descriptors** — rank results are pickled with a
  ``persistent_id`` hook that never inlines shared storage:
  arrays backed by a :class:`~repro.runtime.arena.SharedArena` segment
  travel as ``(segment, offset, shape, dtype)`` descriptors, large
  child-born arrays are copied once into a per-rank *staging* segment
  and travel as ``(stage, index)`` descriptors, and
  :class:`~repro.runtime.tensor.DeviceTensor` results travel as
  references (parent-born) or ``(pool, alloc)`` revival records
  (child-born, resolved against the replayed journal).
* **IPC identity** — pools and caches register themselves in a
  process-wide table at construction (:func:`register_ipc`); journal
  ops and descriptors name them by that id, which is stable across the
  fork because children inherit the table.

Pickling rules for rank closures (see INTERNALS for the contract):
closures themselves are **never** pickled — fork ships them by memory
image — but their *return values* are.  Returned NumPy arrays and
device tensors of any size are fine; arbitrary objects must pickle.
A tensor that was alive before the fork resolves back to the parent's
own object; mutations a child makes to *private* parent memory are
invisible and must be returned as values (shared-segment memory is
seen by both sides).
"""

from __future__ import annotations

import io
import marshal
import pickle
import sys
import threading
import types
import weakref
from typing import Any

import numpy as np

__all__ = [
    "ShuttleError",
    "register_ipc",
    "ipc_object",
    "ipc_watermark",
    "journal_op",
    "journal_active",
    "child_begin",
    "in_child",
    "rank_begin",
    "rank_end",
    "encode_frame",
    "decode_journal",
    "decode_body",
    "replay_journal",
    "attach_stage",
    "encode_task",
    "decode_task",
    "uninstall_allocations",
]


class ShuttleError(RuntimeError):
    """A rank result or journal could not be shipped across the fork."""


# --------------------------------------------------------------------------
# IPC identity registry
# --------------------------------------------------------------------------

_ipc_lock = threading.Lock()
_ipc_next = 0
_IPC_OBJECTS: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()


def register_ipc(obj) -> int:
    """Assign ``obj`` a process-wide IPC id (pools and caches call this
    at construction).  Children inherit the table across the fork, so an
    id journaled in a child resolves to the same object in the parent."""
    global _ipc_next
    with _ipc_lock:
        ipc_id = _ipc_next
        _ipc_next += 1
        _IPC_OBJECTS[ipc_id] = obj
    return ipc_id


def ipc_object(ipc_id: int):
    """Resolve an IPC id back to its registered object (parent side)."""
    obj = _IPC_OBJECTS.get(ipc_id)
    if obj is None:
        raise ShuttleError(
            f"IPC id {ipc_id} does not resolve in the parent — the object "
            "was created inside a rank closure or has been collected"
        )
    return obj


def ipc_watermark() -> int:
    """The next IPC id to be assigned.  The persistent worker pool records
    this at fork time: a later task referencing an id at or above the
    recorded mark names an object the workers' copy-on-write heap has
    never seen, so the pool must restart (re-fork) before dispatching."""
    with _ipc_lock:
        return _ipc_next


# --------------------------------------------------------------------------
# Child-side journal
# --------------------------------------------------------------------------

_CHILD = False
#: The active rank's journal; ``None`` outside a child rank section.
#: Pools/caches append ops directly (hot path: one attribute read).
_JOURNAL: list | None = None
#: Per-pool alloc-id fork watermarks: ids below the watermark are
#: parent-born, at or above are child-born.
_WATERMARKS: dict[int, int] = {}


def in_child() -> bool:
    """Whether this process is a forked executor worker."""
    return _CHILD


def journal_active() -> bool:
    """Whether a rank journal is currently recording (child side)."""
    return _JOURNAL is not None


def journal_op(op: tuple) -> None:
    """Append ``op`` to the active rank journal, if any."""
    if _JOURNAL is not None:
        _JOURNAL.append(op)


def child_begin() -> None:
    """Called in a freshly forked worker, before any rank closure runs:
    flips child mode and snapshots every pool's alloc-id watermark."""
    global _CHILD
    _CHILD = True
    with _ipc_lock:
        for ipc_id, obj in list(_IPC_OBJECTS.items()):
            next_id = getattr(obj, "_next_id", None)
            if next_id is not None:
                _WATERMARKS[ipc_id] = next_id


def rank_begin() -> None:
    """Open a fresh journal for the rank closure about to run."""
    global _JOURNAL
    _JOURNAL = []


def rank_end() -> list:
    """Close and return the active rank journal."""
    global _JOURNAL
    journal, _JOURNAL = _JOURNAL, None
    return journal if journal is not None else []


# --------------------------------------------------------------------------
# Payload codec
# --------------------------------------------------------------------------

#: Arrays at or above this size are staged into a shared segment instead
#: of being inlined into the pipe (tests lower it to exercise staging).
STAGE_MIN_BYTES = 1 << 16


class _FramePickler(pickle.Pickler):
    """Pickler with shared-storage descriptors.

    ``staged`` accumulates child-born arrays to be copied into the
    rank's staging segment after pickling (one segment per rank, built
    lazily); the journal and body streams of one rank share it so an
    array appearing in both travels once.
    """

    def __init__(self, file, staged: list, stage_index: dict, *, tensors: bool):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.staged = staged
        self.stage_index = stage_index
        self.tensors = tensors
        self.descriptors = 0

    def persistent_id(self, obj):
        from repro.runtime.tensor import DeviceTensor

        if isinstance(obj, DeviceTensor):
            if not self.tensors:
                raise ShuttleError("DeviceTensor in a journal stream")
            self.descriptors += 1
            return self._tensor_pid(obj)
        if type(obj) is np.ndarray:
            return self._array_pid(obj)
        return None

    def _tensor_pid(self, t):
        pool_ipc = getattr(t.pool, "_ipc_id", None)
        if pool_ipc is None:
            raise ShuttleError(f"tensor {t.tag!r} has an unregistered pool")
        if t._alloc is not None:
            alloc_id = t._alloc.alloc_id
            if alloc_id < _WATERMARKS.get(pool_ipc, 0):
                # Parent-born and still live: resolves to the parent's
                # own object — data is NOT shipped (see module docstring).
                return ("tref", pool_ipc, alloc_id)
            return ("tnew", pool_ipc, alloc_id, t.dtype, t.tag, t.data)
        # Freed (value possibly still in use) or released (data None).
        return ("tdead", pool_ipc, t.dtype, t.tag, t.data)

    def _array_pid(self, a: np.ndarray):
        if a.dtype.hasobject or not a.flags.c_contiguous:
            return None
        desc = _shared_block_descriptor(a)
        if desc is not None:
            self.descriptors += 1
            return desc
        if _CHILD and a.nbytes >= STAGE_MIN_BYTES:
            idx = self.stage_index.get(id(a))
            if idx is None:
                idx = len(self.staged)
                self.staged.append(a)
                self.stage_index[id(a)] = idx
            self.descriptors += 1
            return ("stage", idx)
        return None


def _shared_block_descriptor(a: np.ndarray):
    """``("shm", name, offset, shape, dtype)`` when ``a``'s storage lives
    inside a registered shared segment, else ``None``."""
    from repro.runtime.arena import shared_segments

    segs = shared_segments(create=False)
    if segs is None:
        return None
    located = segs.locate(a.__array_interface__["data"][0], a.nbytes)
    if located is None:
        return None
    name, offset = located
    return ("shm", name, offset, a.shape, a.dtype.str)


class _FrameUnpickler(pickle.Unpickler):
    def __init__(self, file, stage_arrays, alloc_map, tensor_memo):
        super().__init__(file)
        self.stage_arrays = stage_arrays
        self.alloc_map = alloc_map
        self.tensor_memo = tensor_memo

    def persistent_load(self, pid):
        from repro.runtime.arena import shared_segments
        from repro.runtime.tensor import DeviceTensor

        kind = pid[0]
        if kind == "stage":
            return self.stage_arrays[pid[1]]
        if kind == "shm":
            _, name, offset, shape, dtype = pid
            return shared_segments().view(name, offset, shape, dtype)
        if kind == "tref":
            _, pool_ipc, alloc_id = pid
            tensor = ipc_object(pool_ipc).tensor_for(alloc_id)
            if tensor is None:
                raise ShuttleError(
                    f"rank result references parent tensor alloc {alloc_id} "
                    "which is no longer registered"
                )
            return tensor
        if kind == "tnew":
            _, pool_ipc, alloc_id, dtype, tag, data = pid
            key = (pool_ipc, alloc_id)
            tensor = self.tensor_memo.get(key)
            if tensor is None:
                if self.alloc_map is None:
                    raise ShuttleError("tensor revival outside a body stream")
                alloc = self.alloc_map.get(key)
                if alloc is None:
                    raise ShuttleError(
                        f"child-born tensor {tag!r} has no journaled allocation"
                    )
                tensor = DeviceTensor._revive(
                    data, dtype, ipc_object(pool_ipc), tag, alloc
                )
                self.tensor_memo[key] = tensor
            return tensor
        if kind == "tdead":
            _, pool_ipc, dtype, tag, data = pid
            return DeviceTensor._revive(data, dtype, ipc_object(pool_ipc), tag, None)
        raise ShuttleError(f"unknown descriptor kind {kind!r}")


def _dumps(obj, staged, stage_index, *, tensors):
    buf = io.BytesIO()
    pickler = _FramePickler(buf, staged, stage_index, tensors=tensors)
    pickler.dump(obj)
    return buf.getvalue(), pickler.descriptors


def _loads(data: bytes, stage_arrays, alloc_map, tensor_memo=None):
    return _FrameUnpickler(
        io.BytesIO(data), stage_arrays, alloc_map,
        tensor_memo if tensor_memo is not None else {},
    ).load()


def encode_frame(
    rank, ok, value, trace_buffer, span_buffer, journal, duration, *, stage_writer=None
):
    """Child side: one rank's complete result frame.

    Two pickle streams per rank — the journal first (arrays only), then
    the body — because the parent must replay the journal to build the
    alloc map *before* it can revive the body's child-born tensors.

    ``stage_writer`` (a persistent-pool worker's
    :class:`~repro.runtime.arena.StageBuffer`) redirects staging into a
    reusable named segment instead of a fresh adopt-and-unlink one.
    """
    staged: list[np.ndarray] = []
    stage_index: dict[int, int] = {}
    jbytes, jdesc = _dumps(journal, staged, stage_index, tensors=False)
    journal_stage_len = len(staged)
    body = (ok, value, trace_buffer, span_buffer)
    try:
        bbytes, bdesc = _dumps(body, staged, stage_index, tensors=True)
    except Exception as exc:  # unpicklable result: ship the failure
        del staged[journal_stage_len:]
        stage_index.clear()
        body = (
            False,
            ShuttleError(f"rank {rank} result is not picklable: {exc!r}"),
            trace_buffer,
            span_buffer,
        )
        bbytes, bdesc = _dumps(body, staged, stage_index, tensors=True)
    if stage_writer is not None:
        stage = stage_writer.place(staged)
    else:
        stage = _build_stage(staged)
    return {
        "rank": rank,
        "journal": jbytes,
        "body": bbytes,
        "stage": stage,
        "duration": duration,
        "descriptors": jdesc + bdesc,
    }


def _build_stage(staged: list[np.ndarray]):
    """Copy the staged arrays into one fresh shared segment (created in
    the child *without* unlinking — the parent adopts it by name at the
    join and unlinks it then)."""
    if not staged:
        return None
    from repro.runtime.arena import shared_segments

    align = 64
    offsets = []
    total = 0
    for a in staged:
        offsets.append(total)
        total += -(-a.nbytes // align) * align
    name, base = shared_segments().create(total, unlink=False)
    layout = []
    for a, offset in zip(staged, offsets):
        flat = np.frombuffer(base, dtype=a.dtype, count=a.size, offset=offset)
        np.copyto(flat, a.reshape(-1))
        layout.append((offset, a.shape, a.dtype.str))
    return (name, layout)


def attach_stage(stage):
    """Parent side: materialize a rank's staged arrays.

    Two stage forms exist.  ``(name, layout)`` is a one-shot segment a
    per-section fork child built: the parent adopts it (attach + unlink)
    and returns zero-copy views — the segment is dedicated to this rank
    and dies with its views.  ``("persist", name, layout)`` is a
    persistent pool worker's reusable segment: the parent attaches
    *without* unlinking and **copies** the arrays out, because the
    worker resets and overwrites the segment on its next task — a
    retained view would be silently corrupted."""
    if stage is None:
        return []
    from repro.runtime.arena import shared_segments

    segs = shared_segments()
    if stage[0] == "persist":
        _, name, layout = stage
        base = segs.attach(name)
        copy = True
    else:
        name, layout = stage
        base = segs.adopt(name)
        copy = False
    arrays = []
    for offset, shape, dtype in layout:
        count = int(np.prod(shape, dtype=np.int64))
        view = np.frombuffer(
            base, dtype=np.dtype(dtype), count=count, offset=offset
        ).reshape(shape)
        arrays.append(view.copy() if copy else view)
    return arrays


def decode_journal(data: bytes, stage_arrays) -> list:
    """Parent side: unpickle one rank's journal stream."""
    return _loads(data, stage_arrays, None)


def decode_body(data: bytes, stage_arrays, alloc_map):
    """Parent side: unpickle one rank's ``(ok, value, trace, spans)``
    body, reviving child-born tensors against the replayed journal."""
    return _loads(data, stage_arrays, alloc_map)


# --------------------------------------------------------------------------
# Task codec (parent -> persistent pool worker)
# --------------------------------------------------------------------------
#
# The persistent pool cannot ship closures by copy-on-write (workers
# forked once, sections keep coming), so tasks travel as pickles with
# their own descriptor protocol — the *task direction* mirror of the
# result-frame codec above:
#
# * ``("ipc", id)``   — a registered runtime object (pool, cache, trace,
#   tracer, cluster, engine) travels **by reference**: the worker
#   resolves its own fork-inherited copy.  Safe because everything such
#   objects accumulate across sections is either journaled home and
#   rank-partitioned (caches) or re-shipped per task (watermarks).
# * ``("ttask", ...)`` — a DeviceTensor travels **by value** (its pool
#   by reference).  If the allocation is missing from the worker's
#   pool — born in the parent after the fork — it is silently installed
#   so capacity math and later journaled frees stay exact, and
#   uninstalled after the task if the closure did not free it.
# * ``("fn", ...)``   — a nested/local/lambda function travels as
#   marshaled code plus recursively-encoded cells and defaults, rebuilt
#   worker-side against the (fork-shared) module globals.  Everything a
#   cell holds goes through this same codec, so closures over models,
#   tensors and runtime objects ship with the right semantics each.
# * ``("shm", ...)``  — arrays living in shared segments travel as the
#   usual zero-copy descriptors; pool workers attach by name, so
#   in-place writes to collective buffers stay visible both ways.
# * ``("dup", key)``  — later references to an already-encoded tensor
#   or function resolve to the same worker-side object (aliasing is
#   preserved; recursive closures terminate).
#
# Anything the codec cannot express raises at encode time and the
# executor falls back to a per-section fork for that section (counted
# in ``fallback_forks``) — wrong answers are impossible, only slower.


class _TaskState:
    """Shared encode-side state across a task's nested pickle streams."""

    def __init__(self):
        self._keys: dict[int, int] = {}
        self._keep: list = []  # pins ids alive while encoding
        self.max_ipc = -1  # highest by-reference IPC id the task names

    def key_for(self, obj) -> tuple[int, bool]:
        key = self._keys.get(id(obj))
        if key is None:
            key = len(self._keep)
            self._keys[id(obj)] = key
            self._keep.append(obj)
            return key, True
        return key, False


class _TaskPickler(pickle.Pickler):
    def __init__(self, file, state: _TaskState):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.state = state

    def persistent_id(self, obj):
        from repro.runtime.tensor import DeviceTensor

        if type(obj) is np.ndarray:
            if obj.dtype.hasobject or not obj.flags.c_contiguous:
                return None
            return _shared_block_descriptor(obj)  # else inline by value
        if isinstance(obj, DeviceTensor):
            return self._tensor_pid(obj)
        if isinstance(obj, types.FunctionType):
            if (
                "<locals>" in obj.__qualname__
                or obj.__closure__
                or obj.__name__ == "<lambda>"
            ):
                return self._function_pid(obj)
            return None  # top-level function: plain pickle by reference
        ipc_id = getattr(obj, "_ipc_id", None)
        if ipc_id is not None and _IPC_OBJECTS.get(ipc_id) is obj:
            self.state.max_ipc = max(self.state.max_ipc, ipc_id)
            return ("ipc", ipc_id)
        return None

    def _tensor_pid(self, t):
        key, first = self.state.key_for(t)
        if not first:
            return ("dup", key)
        pool_ipc = getattr(t.pool, "_ipc_id", None)
        if pool_ipc is None:
            raise ShuttleError(f"tensor {t.tag!r} has an unregistered pool")
        self.state.max_ipc = max(self.state.max_ipc, pool_ipc)
        # Always by value, even for pre-fork allocations: the *bytes*
        # may have changed parent-side since the fork, and a stale
        # worker copy would silently diverge.  (Shared-segment storage
        # still rides the zero-copy "shm" path via the nested array.)
        return ("ttask", key, pool_ipc, t._alloc, t.dtype, t.tag, t.data)

    def _function_pid(self, fn):
        key, first = self.state.key_for(fn)
        if not first:
            return ("dup", key)
        cells = []
        for cell in fn.__closure__ or ():
            try:
                cells.append((True, cell.cell_contents))
            except ValueError:  # empty cell (not yet assigned)
                cells.append((False, None))
        extras = (fn.__defaults__, fn.__kwdefaults__, cells, fn.__dict__ or None)
        # The extras ride in their own sub-stream (same shared state):
        # the worker can then register the rebuilt function *before*
        # decoding its cells, so recursive closures resolve to it.
        return (
            "fn",
            key,
            marshal.dumps(fn.__code__),
            fn.__module__,
            fn.__name__,
            _task_dumps(extras, self.state),
        )


def _task_dumps(obj, state: _TaskState) -> bytes:
    buf = io.BytesIO()
    _TaskPickler(buf, state).dump(obj)
    return buf.getvalue()


class _TaskLoadState:
    def __init__(self):
        self.loaded: dict[int, Any] = {}
        self.installed: list = []  # (pool, Allocation) silently installed


class _TaskUnpickler(pickle.Unpickler):
    def __init__(self, file, state: _TaskLoadState):
        super().__init__(file)
        self.state = state

    def persistent_load(self, pid):
        from repro.runtime.arena import shared_segments
        from repro.runtime.tensor import DeviceTensor

        kind = pid[0]
        if kind == "dup":
            return self.state.loaded[pid[1]]
        if kind == "shm":
            _, name, offset, shape, dtype = pid
            return shared_segments().view(name, offset, shape, dtype)
        if kind == "ipc":
            return ipc_object(pid[1])
        if kind == "ttask":
            _, key, pool_ipc, alloc, dtype, tag, data = pid
            pool = ipc_object(pool_ipc)
            if alloc is not None and _install_allocation(pool, alloc):
                self.state.installed.append((pool, alloc))
            tensor = DeviceTensor._revive(data, dtype, pool, tag, alloc)
            self.state.loaded[key] = tensor
            return tensor
        if kind == "fn":
            _, key, code_bytes, module, name, extras_blob = pid
            code = marshal.loads(code_bytes)
            mod = sys.modules.get(module)
            globs = mod.__dict__ if mod is not None else {"__builtins__": __builtins__}
            fn = types.FunctionType(
                code,
                globs,
                name,
                None,
                tuple(types.CellType() for _ in range(len(code.co_freevars))),
            )
            self.state.loaded[key] = fn
            defaults, kwdefaults, cells, fdict = _task_loads(extras_blob, self.state)
            fn.__defaults__ = defaults
            fn.__kwdefaults__ = kwdefaults
            if fdict:
                fn.__dict__.update(fdict)
            for cell, (has_value, value) in zip(fn.__closure__ or (), cells):
                if has_value:
                    cell.cell_contents = value
            return fn
        raise ShuttleError(f"unknown task descriptor kind {kind!r}")


def _task_loads(blob: bytes, state: _TaskLoadState):
    return _TaskUnpickler(io.BytesIO(blob), state).load()


#: Worker side: parent-born allocations adopted by this process, keyed
#: by object identity.  A persistent pool worker's own stale alloc ids
#: (from earlier tasks) can numerically collide with parent ids shipped
#: in a later task, so journaled frees must say *which* id space the
#: freed record belongs to — and only the object's identity knows.
_INSTALLED: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()


def installed_allocation(alloc) -> bool:
    """True when ``alloc`` is a parent-born record this worker adopted
    (its id resolves in the *parent's* pool, never the alloc map)."""
    return _INSTALLED.get(id(alloc)) is alloc


def _install_allocation(pool, alloc) -> bool:
    """Worker side: adopt a parent-born allocation the fork image missed
    so capacity math and journaled frees resolve.  No peak/counter
    bumps — the parent did the real accounting when it allocated."""
    _INSTALLED[id(alloc)] = alloc
    with pool._lock:
        if alloc.alloc_id in pool._live:
            return False
        pool._live[alloc.alloc_id] = alloc
        pool.in_use += alloc.nbytes
        pool._usage_by_tag[alloc.tag] = (
            pool._usage_by_tag.get(alloc.tag, 0) + alloc.nbytes
        )
        return True


def uninstall_allocations(installed: list) -> None:
    """Worker side, after a task: reverse :func:`_install_allocation` for
    allocations the closures did not free, so a long-lived worker's local
    ``in_use`` does not drift upward section over section."""
    for pool, alloc in installed:
        with pool._lock:
            if pool._live.get(alloc.alloc_id) is not alloc:
                continue  # the closure freed it (journaled home)
            del pool._live[alloc.alloc_id]
            pool.in_use -= alloc.nbytes
            remaining = pool._usage_by_tag.get(alloc.tag, 0) - alloc.nbytes
            if remaining > 0:
                pool._usage_by_tag[alloc.tag] = remaining
            else:
                pool._usage_by_tag.pop(alloc.tag, None)


def pool_watermarks() -> dict:
    """Parent side, per task: every registered pool's ``(next_id,
    in_use)``.  Shipping these keeps long-lived workers honest: the id
    watermark stops child-born ids colliding with parent allocations the
    worker never saw, and the absolute ``in_use`` pins capacity checks
    to the parent's (serial-identical) trajectory."""
    with _ipc_lock:
        objs = list(_IPC_OBJECTS.items())
    marks = {}
    for ipc_id, obj in objs:
        next_id = getattr(obj, "_next_id", None)
        if next_id is not None:
            marks[ipc_id] = (next_id, getattr(obj, "in_use", 0))
    return marks


def sync_watermarks(marks: dict) -> None:
    """Worker side, per task: fast-forward pool id watermarks and pin
    ``in_use`` to the parent's value (see :func:`pool_watermarks`).
    Ids unknown to this worker (post-fork objects not referenced by the
    task) are skipped — they are unreachable here by construction."""
    for ipc_id, (next_id, in_use) in marks.items():
        obj = _IPC_OBJECTS.get(ipc_id)
        if obj is None:
            continue
        with obj._lock:
            if getattr(obj, "_next_id", 0) < next_id:
                obj._next_id = next_id
            obj.in_use = in_use
        _WATERMARKS[ipc_id] = next_id


def encode_task(fn, trace, tracer) -> tuple[bytes, int]:
    """Parent side: one parallel section as a self-contained task blob.

    Returns ``(blob, max_ipc)`` — the highest by-reference IPC id the
    task names, which the executor compares against the pool's fork
    watermark to decide whether the workers must be re-forked first.
    Raises (``ShuttleError`` or any pickling error) when the closure
    cannot be expressed; the executor then falls back to a per-section
    fork, where copy-on-write ships anything.
    """
    state = _TaskState()
    blob = _task_dumps((fn, trace, tracer, pool_watermarks()), state)
    return blob, state.max_ipc


def decode_task(blob: bytes):
    """Worker side: rebuild ``(fn, trace, tracer)`` and apply watermark
    sync.  Returns ``(fn, trace, tracer, installed)`` where ``installed``
    must be handed to :func:`uninstall_allocations` after the task."""
    state = _TaskLoadState()
    fn, trace, tracer, marks = _task_loads(blob, state)
    sync_watermarks(marks)
    return fn, trace, tracer, state.installed


# --------------------------------------------------------------------------
# Parent-side journal replay
# --------------------------------------------------------------------------


def replay_journal(journal: list, alloc_map: dict, child_born: set) -> None:
    """Apply one rank's journal to the parent's pools and caches.

    Called at the join in rank order, so the accounting trajectory
    (in_use walk, peaks, per-tag usage, allocation ids) matches the
    serial loop op for op.  ``alloc_map``/``child_born`` are shared by
    all ranks of one worker — child alloc ids are unique within a
    worker, not across workers.
    """
    for op in journal:
        kind = op[0]
        if kind == "alloc":
            _, pool_ipc, child_id, nbytes, tag = op
            key = (pool_ipc, child_id)
            alloc_map[key] = ipc_object(pool_ipc).alloc(nbytes, tag)
            child_born.add(key)
        elif kind == "free":
            _, pool_ipc, child_id, parent_born = op
            pool = ipc_object(pool_ipc)
            # A worker-flagged parent-born free must NOT consult the
            # alloc map: under a persistent pool the map carries stale
            # child ids from earlier sections, and a parent id can
            # numerically collide with one of them.
            alloc = (
                None if parent_born else alloc_map.pop((pool_ipc, child_id), None)
            )
            if alloc is None:
                # Parent-born allocation freed in the child: free the
                # parent's record and mark any registered tensor freed,
                # the state free() leaves behind in the serial loop.
                alloc = pool.allocation(child_id)
                tensor = pool.tensor_for(child_id)
                if tensor is not None:
                    tensor._alloc = None
                    tensor._arena = None
            pool.free(alloc)
        elif kind == "released":
            _, pool_ipc, child_id = op
            if (pool_ipc, child_id) in child_born:
                continue  # never shipped live; its "free" op did the accounting
            tensor = ipc_object(pool_ipc).tensor_for(child_id)
            if tensor is not None:
                # Match release() semantics minus the arena giveback: the
                # child recycled (and may have re-rented) the storage on
                # its side, so handing the parent's copy back to the
                # arena could alias a live revived buffer.
                tensor._arena = None
                tensor.data = None
        elif kind == "cache_set":
            _, cache_ipc, key, array, dtype, pool_ipc, alloc_id, parent_born = op
            # Same id-space discrimination as "free": a parent-born
            # entry (update_host on an adopted allocation) must resolve
            # in the parent's pool, never through stale map keys.
            alloc = (
                None if parent_born else alloc_map.get((pool_ipc, alloc_id))
            )
            if alloc is None:
                alloc = ipc_object(pool_ipc).allocation(alloc_id)
            ipc_object(cache_ipc)._store[key] = (array, dtype, alloc)
        elif kind == "cache_del":
            _, cache_ipc, key = op
            ipc_object(cache_ipc)._store.pop(key, None)
        else:
            raise ShuttleError(f"unknown journal op {kind!r}")
