"""Zero-copy shared-memory transport for pool chunk arguments.

Every parallel fan-out used to pickle its big immutable operands — the
``DiGraph`` CSR above all — into each worker, so worker start-up cost
scaled with graph size times worker count and each worker held a private
copy.  This module publishes those arrays once into named
``multiprocessing.shared_memory`` segments and ships only :class:`ShmRef`
descriptors; workers attach by name and wrap the segment in a read-only
numpy view, so the per-worker payload is O(1) in graph size and the pages
are shared, not copied.

Transport contract (the pool calls :func:`export_shared` /
:func:`worker_shared`; everything else is plumbing):

* **Encoding** — each top-level item of the shared tuple is encoded on
  its own: a ``DiGraph`` (the one composite any fan-out ships) becomes
  its node count plus its seven CSR arrays and is reassembled on the
  worker without recomputation; an ndarray at least
  :data:`INLINE_BYTES` big becomes a :class:`ShmRef`; anything else
  (scalars, small arrays, enums, seed lists) stays inline — a segment
  per tiny array costs more than it saves.
* **Fallback** — when shm is disabled (``REPRO_SHM_DISABLE``), the
  eligible payload is below ``REPRO_SHM_MIN_BYTES`` (default 1 MiB), or
  segment creation fails (``OSError``: no ``/dev/shm``, rlimits), the
  original objects are returned untouched and ride ordinary pickle —
  still hoisted to once-per-worker by the pool's initializer, never
  per-chunk.
* **Lifecycle** — the parent's :class:`ShmArena` owns every segment it
  published and unlinks them in ``close()`` (idempotent; invoked from
  the pool's ``finally`` so interrupts unlink too, and backstopped by
  ``atexit``).  Workers only ever attach; the kernel refcounts the
  mappings, so a parent-side unlink while workers still hold views is
  safe — the pages persist until the last map drops.  Under the fork
  start method all processes share one ``resource_tracker``, whose
  per-name registry collapses the workers' duplicate registrations, so
  the single parent unlink leaves neither leaked segments nor tracker
  warnings.
* **Attach accounting** — each worker process attaches a segment at most
  once (per-process cache) and counts it; the pool ships the per-chunk
  delta back and folds it into the parent's telemetry as ``shm.attach``.
  A respawned worker starts with a cold cache, so re-attaches after a
  crash are visible in the counter — the chaos suite asserts workers
  re-attach rather than re-copy.
"""

from __future__ import annotations

import atexit
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..graph.digraph import DiGraph
from . import telemetry as _telemetry

__all__ = [
    "ShmRef",
    "ShmArena",
    "shm_enabled",
    "shm_min_bytes",
    "export_shared",
    "resolve_shared",
    "attached_segments",
    "detach_stale",
    "detach_all",
    "SEGMENT_PREFIX",
    "INLINE_BYTES",
]

#: Segment names start with this (plus pid), so tests can assert that
#: ``/dev/shm`` holds no ``repro_shm_*`` leftovers after any code path.
SEGMENT_PREFIX = "repro_shm"

#: Arrays smaller than this stay inline in the pickled payload.
INLINE_BYTES = 4096

_DEFAULT_MIN_BYTES = 1 << 20


def shm_enabled() -> bool:
    """Shared-memory transport is available and not disabled via env."""
    flag = os.environ.get("REPRO_SHM_DISABLE", "")
    return not (flag and flag != "0")


def shm_min_bytes() -> int:
    """Minimum total eligible bytes before the arena is worth opening."""
    raw = os.environ.get("REPRO_SHM_MIN_BYTES", "")
    try:
        return int(raw) if raw else _DEFAULT_MIN_BYTES
    except ValueError:
        return _DEFAULT_MIN_BYTES


# ----------------------------------------------------------------------
# Descriptors

@dataclass(frozen=True)
class ShmRef:
    """A named shared-memory segment holding one C-contiguous ndarray."""

    segment: str
    descr: Any  # np.lib.format dtype descriptor (str or list)
    shape: tuple[int, ...]
    nbytes: int


@dataclass(frozen=True)
class _GraphRef:
    """A ``DiGraph`` as its node count and seven CSR arrays (each an
    inline ndarray or a :class:`ShmRef`)."""

    n: int
    arrays: tuple[Any, ...]


def _graph_arrays(graph: DiGraph) -> tuple[np.ndarray, ...]:
    return (graph.out_ptr, graph.out_dst, graph.out_w,
            graph.in_ptr, graph.in_src, graph.in_w, graph._in_perm)


# ----------------------------------------------------------------------
# The arena (parent side)

#: Arenas not yet closed, for the atexit backstop.  Weak so a collected
#: arena (which unlinks in __del__ via close) drops out on its own.
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()
_ATEXIT_INSTALLED = False
_NAME_COUNTER = 0


def _next_segment_name() -> str:
    global _NAME_COUNTER
    _NAME_COUNTER += 1
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{_NAME_COUNTER}"


def _cleanup_live_arenas() -> None:  # pragma: no cover - interpreter exit
    for arena in list(_LIVE_ARENAS):
        arena.close()


class ShmArena:
    """Owns the shared-memory segments published for one pool run.

    ``close()`` unlinks everything and is idempotent; the pool calls it
    from a ``finally`` so every exit path — completion, quarantine,
    ``KeyboardInterrupt``, serial downgrade — tears the arena down.  The
    kernel keeps the pages alive for workers still holding mappings.
    """

    def __init__(self, label: str = "pool") -> None:
        global _ATEXIT_INSTALLED
        self.label = label
        self._segments: list[shared_memory.SharedMemory] = []
        self.nbytes = 0
        _LIVE_ARENAS.add(self)
        if not _ATEXIT_INSTALLED:
            _ATEXIT_INSTALLED = True
            atexit.register(_cleanup_live_arenas)

    def __len__(self) -> int:
        return len(self._segments)

    def publish(self, array: np.ndarray) -> ShmRef:
        """Copy ``array`` into a fresh named segment; returns its ref."""
        arr = np.asarray(array)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        seg = shared_memory.SharedMemory(
            name=_next_segment_name(), create=True, size=max(1, arr.nbytes)
        )
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        self._segments.append(seg)
        self.nbytes += arr.nbytes
        return ShmRef(
            seg.name,
            np.lib.format.dtype_to_descr(arr.dtype),
            tuple(int(s) for s in arr.shape),
            int(arr.nbytes),
        )

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - already closed
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except Exception:  # pragma: no cover - platform quirks
                pass
        _LIVE_ARENAS.discard(self)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.close()


# ----------------------------------------------------------------------
# Encoding (parent side)

def _eligible_bytes(item: Any) -> int:
    arrays = _graph_arrays(item) if isinstance(item, DiGraph) else (item,)
    return sum(
        a.nbytes for a in arrays
        if isinstance(a, np.ndarray) and a.nbytes >= INLINE_BYTES
    )


def _publish(item: Any, arena: ShmArena) -> Any:
    if isinstance(item, DiGraph):
        return _GraphRef(
            item.n, tuple(_publish(a, arena) for a in _graph_arrays(item))
        )
    if isinstance(item, np.ndarray) and item.nbytes >= INLINE_BYTES:
        return arena.publish(item)
    return item


def export_shared(
    shared: tuple, label: str = "pool"
) -> tuple[Any, ShmArena | None]:
    """Encode a shared-args tuple for worker transport.

    Returns ``(payload, arena)``.  With the arena path taken, ``payload``
    is the encoded tuple (graphs as CSR descriptors, big arrays as
    :class:`ShmRef`) and ``arena`` owns the segments — the caller must
    ``close()`` it after the last worker is done.  On any fallback the
    original tuple comes back with ``arena=None`` and travels by pickle.
    """
    tele = _telemetry.current()
    if not shared:
        return shared, None
    if shm_enabled():
        if sum(_eligible_bytes(item) for item in shared) >= shm_min_bytes():
            arena = ShmArena(label=label)
            try:
                payload = tuple(_publish(item, arena) for item in shared)
            except OSError:
                # No usable /dev/shm (or rlimit hit): pickle still works.
                arena.close()
                tele.count("shm.fallbacks")
            else:
                tele.count("pool.transport_shm")
                tele.count("shm.publish_segments", len(arena))
                tele.count("shm.publish_bytes", arena.nbytes)
                if tele.enabled:
                    tele.count("shm.payload_bytes", len(pickle.dumps(
                        payload, protocol=pickle.HIGHEST_PROTOCOL)))
                return payload, arena
    tele.count("pool.transport_pickle")
    if tele.enabled:
        tele.count("pool.shared_pickle_bytes", len(pickle.dumps(
            shared, protocol=pickle.HIGHEST_PROTOCOL)))
    return shared, None


# ----------------------------------------------------------------------
# Resolution (worker side)

#: Per-process attach cache: segment name -> (SharedMemory, view).  The
#: SharedMemory handle must stay referenced as long as its views live.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_ATTACH_TOTAL = 0
_ATTACH_REPORTED = 0


def _attach(ref: ShmRef) -> np.ndarray:
    """Attach (or reuse) the segment behind ``ref`` as a read-only view."""
    global _ATTACH_TOTAL
    cached = _ATTACHED.get(ref.segment)
    if cached is None:
        seg = shared_memory.SharedMemory(name=ref.segment)
        dtype = np.lib.format.descr_to_dtype(ref.descr)
        view = np.ndarray(ref.shape, dtype=dtype, buffer=seg.buf)
        view.flags.writeable = False
        _ATTACHED[ref.segment] = cached = (seg, view)
        _ATTACH_TOTAL += 1
    return cached[1]


def _resolve(item: Any) -> Any:
    if isinstance(item, ShmRef):
        return _attach(item)
    if isinstance(item, _GraphRef):
        return DiGraph(item.n, *(_resolve(a) for a in item.arrays))
    return item


def resolve_shared(payload: Any) -> Any:
    """Rebuild the original shared-args tuple (or one encoded item)."""
    if isinstance(payload, tuple):
        return tuple(_resolve(item) for item in payload)
    return _resolve(payload)


def attached_segments() -> tuple[str, ...]:
    """Names currently held in this process's attach cache."""
    return tuple(_ATTACHED)


def _segment_exists(name: str) -> bool:
    """Whether the named segment is still linked in the filesystem."""
    if os.path.isdir("/dev/shm"):
        return os.path.exists(os.path.join("/dev/shm", name))
    try:  # pragma: no cover - non-tmpfs platforms
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:  # pragma: no cover
        return False
    probe.close()  # pragma: no cover
    return True  # pragma: no cover


def _drop_attached(name: str) -> None:
    seg, view = _ATTACHED.pop(name)
    del view
    try:
        seg.close()
    except BufferError:
        # Some consumer still holds the view (e.g. a graph attached in a
        # previous generation): the mapping stays alive until that
        # reference dies; dropping the cache entry is what stops the
        # unbounded growth.
        pass


def detach_stale() -> int:
    """Evict attach-cache entries whose segment has been unlinked.

    The cache exists so one worker process attaches each segment once —
    but a process that outlives many arenas (the serving pattern, and any
    reused pool worker) would otherwise accumulate ``SharedMemory``
    handles and page mappings for segments the parent unlinked long ago.
    Called between fan-out generations (worker initializer, parent-side
    pool teardown); returns the number of entries dropped.
    """
    stale = [name for name in _ATTACHED if not _segment_exists(name)]
    for name in stale:
        _drop_attached(name)
    if stale:
        _telemetry.current().count("shm.detach_stale", len(stale))
    return len(stale)


def detach_all() -> int:
    """Drop every cached attachment (e.g. at server shutdown)."""
    names = list(_ATTACHED)
    for name in names:
        _drop_attached(name)
    return len(names)


def attach_meta() -> dict[str, int] | None:
    """Attach-counter delta since last call (``None`` when nothing new)."""
    global _ATTACH_REPORTED
    delta = _ATTACH_TOTAL - _ATTACH_REPORTED
    _ATTACH_REPORTED = _ATTACH_TOTAL
    return {"shm.attach": delta} if delta else None


# -- worker initializer -------------------------------------------------

_WORKER_PAYLOAD: Any = None
_WORKER_RESOLVED: Any = None
_WORKER_ARMED = False


def _worker_init(payload: Any) -> None:
    """Executor initializer: stash the encoded payload, resolve lazily.

    Pickled once per worker process (via ``initargs``) — for the arena
    path that is a handful of :class:`ShmRef` descriptors; for the pickle
    fallback it is the original objects, but still once per worker rather
    than once per chunk.  Resolution (attach) is deferred to the first
    chunk so a worker that never runs one never maps the segments.
    """
    global _WORKER_PAYLOAD, _WORKER_RESOLVED, _WORKER_ARMED
    # A new payload generation begins: anything attached for a previous
    # (now unlinked) arena in this process is dead weight — sweep it so a
    # long-lived worker's attach cache tracks live segments only.
    detach_stale()
    _WORKER_PAYLOAD = payload
    _WORKER_RESOLVED = None
    _WORKER_ARMED = True


def worker_shared() -> tuple:
    """The resolved shared-args tuple inside a pool worker."""
    global _WORKER_RESOLVED
    if not _WORKER_ARMED:
        raise RuntimeError(
            "worker_shared() called without a shared payload: the pool "
            "must pass shared args through the executor initializer"
        )
    if _WORKER_RESOLVED is None:
        _WORKER_RESOLVED = resolve_shared(_WORKER_PAYLOAD)
    return _WORKER_RESOLVED
