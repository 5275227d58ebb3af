"""Fault-tolerant process fan-out: one resilient worker pool for every engine.

The parallel kernels of the three engines (RR sampling, Monte-Carlo
cascades, path-structure builds) all fan work out over process pools, and
a bare ``ProcessPoolExecutor`` makes that fan-out fragile: one worker
OOM-killed or segfaulted raises ``BrokenProcessPool`` and vaporizes the
whole cell — including every chunk that had already finished.  The
benchmarking paper's testbed assumes long unattended sweeps under
resource pressure; this module is the substrate that survives them.

Every unit of work is a **self-describing deterministic chunk**: a
module-level function plus positional arguments that embed any randomness
as a ``SeedSequence`` spawn-key state.  Re-executing a chunk therefore
reproduces its output byte-for-byte, which is what lets the pool recover
instead of restart:

* **Worker death** (``BrokenProcessPool``, at a result or at submit) —
  salvage every chunk result already delivered, respawn the executor, and
  re-execute only the lost chunks.  ``pool.worker_restarts`` /
  ``pool.chunks_salvaged`` count it.
* **Hung workers** — an optional stall deadline (no chunk completes for
  ``stall_timeout_seconds``) hard-kills the executor and takes the same
  respawn path, so a wedged worker costs one window, not the sweep.
  A caller's ``tick`` (its budget check) also runs while the pool waits,
  so a cooperative time limit preempts hung workers too.
* **Chunk failures** (an exception out of the chunk fn, or a corrupt
  result detected by checksum under fault injection) — bounded retry with
  exponential backoff.  A retry replays the same (fn, args) pair, so it
  runs on the same randomness with no RNG bookkeeping: the spawn key *is*
  the seed.  Cells follow the same replay rule
  (:func:`~repro.framework.isolation.execute_cell`).  ``pool.chunk_retries``.
* **Poison chunks** — after ``retries`` attributable failures the chunk
  is quarantined: :class:`ChunkQuarantined` propagates with structured
  ``details`` that :func:`~repro.framework.metrics.run_with_budget` maps
  into the ``FAILED`` cell taxonomy instead of a raw traceback.
* **Repeated pool collapse** — after ``max_restarts`` executor respawns
  the pool degrades to in-process serial execution of the remaining
  chunks (``pool.serial_downgrades``), trading parallelism for a
  finished, still byte-identical cell.

Because chunk results are committed in chunk-index order regardless of
completion or recovery order, a run under any fault schedule produces
output byte-identical to the fault-free run — asserted end-to-end by
``tests/test_pool_faults.py`` (chaos suite) and property-tested in
``tests/test_pool_replay.py``.

**Shared-args transport.**  Chunks often share big immutable operands —
the graph CSR above all.  ``run_chunks(..., shared=(graph, ...))``
hoists them out of the per-chunk tuples: serial paths call
``fn(*shared, *args)`` on the original objects, and parallel paths ship
the shared tuple once per worker through the executor initializer —
zero-copy via :mod:`repro.framework.shm` when the payload is big enough
(named shared-memory segments, workers attach by handle), ordinary
pickle otherwise.  Either way the per-chunk dispatch payload is O(1) in
graph size.  The arena is torn down in a ``finally`` so every exit path
— completion, quarantine, interrupt, serial downgrade — unlinks its
segments.

:class:`Fault` is the test harness for both process boundaries of a
cell: pool workers here and the isolated cell's child
(:mod:`repro.framework.isolation`).  It is armed through ``REPRO_FAULT_*``
environment variables, so it reaches a worker in any process, and it
fires only in child processes: serial, nested-serial and downgraded
chunks never inject.  Fault draws are a deterministic hash of
``(seed, index, attempt)`` — reproducible, and a retry draws afresh so
injected faults are transient by construction.  When no fault is armed
the worker wrapper adds no checksum, no hash draw, and no extra pickling
to the hot path.

This module deliberately imports only the standard library and
:mod:`repro.framework.telemetry` so the diffusion engines can reach it
lazily without import cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import telemetry as _telemetry

__all__ = [
    "PoolConfig",
    "PoolError",
    "ChunkQuarantined",
    "ResilientPool",
    "run_chunks",
    "Fault",
    "armed_fault",
]


# ----------------------------------------------------------------------
# Configuration

#: Base of the exponential per-retry backoff (seconds).
_BACKOFF_SECONDS = 0.05
#: Seconds a terminated (or finished) child gets to exit before SIGKILL.
_GRACE_SECONDS = 1.0
#: While a caller's ``tick`` is set, the pool wakes this often to run it
#: even when no chunk completes (a hung worker must not outlive a budget).
#: Well above a healthy first completion (~15 ms), so a fast fan-out
#: still ticks once per chunk.
_TICK_SECONDS = 0.25


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class PoolConfig:
    """Resilience knobs for one :class:`ResilientPool` run.

    Defaults come from the environment, read each time a pool is built
    (in whichever process builds it), so a long sweep can be tuned
    without threading a config through every engine constructor:

    * ``REPRO_BENCH_POOL_RETRIES`` → :attr:`retries`
    * ``REPRO_POOL_MAX_RESTARTS``  → :attr:`max_restarts`
    * ``REPRO_POOL_STALL_TIMEOUT`` → :attr:`stall_timeout_seconds`
    """

    #: Attributable failures (chunk exception, corrupt result) tolerated
    #: per chunk before quarantine.
    retries: int = 4
    #: Executor respawns tolerated before degrading to serial execution.
    max_restarts: int = 4
    #: Collapse the pool when no chunk completes within this window
    #: (``None`` disables stall detection — a healthy-but-slow chunk is
    #: indistinguishable from a hang without a caller-chosen deadline).
    stall_timeout_seconds: float | None = None

    @classmethod
    def from_env(cls) -> "PoolConfig":
        return cls(
            retries=max(1, _env_int("REPRO_BENCH_POOL_RETRIES", cls.retries)),
            max_restarts=max(0, _env_int("REPRO_POOL_MAX_RESTARTS", cls.max_restarts)),
            stall_timeout_seconds=_env_float("REPRO_POOL_STALL_TIMEOUT", None),
        )


# ----------------------------------------------------------------------
# Failure taxonomy

class PoolError(RuntimeError):
    """A pool-level failure with structured ``details`` for RunRecords."""

    def __init__(self, message: str, details: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


class ChunkQuarantined(PoolError):
    """A chunk kept failing attributably and was marked poison."""


# ----------------------------------------------------------------------
# Fault injection

FAULT_MODES = ("raise", "hang", "kill", "oom", "corrupt")
_FAULT_EXIT_CODE = 113
_OOM_STEP_MB = 16
_OOM_CAP_MB = 256
#: ``Fault`` field → the environment variable that arms it.
_FAULT_ENV = {
    "mode": "REPRO_FAULT_MODE",
    "rate": "REPRO_FAULT_RATE",
    "seed": "REPRO_FAULT_SEED",
    "hang_seconds": "REPRO_FAULT_HANG_SECONDS",
}


@dataclass
class Fault:
    """A rate-controlled fault fired at a cell's process boundaries.

    ``with Fault(...):`` arms it for the block by setting (and on exit
    restoring) the ``REPRO_FAULT_*`` variables, so it reaches every
    process — the CI chaos job arms the same variables externally::

        with Fault("kill", rate=0.2, seed=7):
            pool.extend(graph, dynamics, 4000, rng, workers=4)

    It fires only in a child process: a pool worker draws
    :meth:`fires` per ``(chunk, attempt)``, an isolated cell's child per
    ``(0, attempt)``.  In-process cells and serial or downgraded chunks
    never inject — a ``kill`` fired there would take the parent down.

    Modes: ``raise`` (a ``RuntimeError`` → ``FAILED`` cell or chunk
    retry), ``hang`` (sleep ``hang_seconds`` without any budget check →
    preemptive ``DNF``, or a stall reclaim in a pool with
    ``stall_timeout_seconds``), ``kill`` (``os._exit(113)`` → ``KILLED``
    cell or ``BrokenProcessPool``), ``oom`` (allocate 16 MB blocks up to
    256 MB, then ``MemoryError`` → ``CRASHED``), ``corrupt`` (the pool
    perturbs the chunk result after checksumming, so the parent detects
    and retries it; nothing at a cell).
    """

    mode: str
    rate: float = 1.0
    seed: int = 0
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; options: {', '.join(FAULT_MODES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def fires(self, index: int, attempt: int) -> bool:
        """Deterministic rate draw for ``(index, attempt)``.

        A hash draw instead of an RNG stream: reproducible across
        processes, independent of draw order, and varying with
        ``attempt`` so a retry is not doomed to refire the same fault.
        """
        token = f"{self.seed}:{index}:{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return draw < self.rate

    def fire(self) -> None:
        """Act out the fault in this process (``corrupt`` is the pool's)."""
        if self.mode == "kill":
            os._exit(_FAULT_EXIT_CODE)
        if self.mode == "raise":
            raise RuntimeError("injected fault")
        if self.mode == "hang":
            deadline = time.perf_counter() + self.hang_seconds
            while time.perf_counter() < deadline:
                time.sleep(0.02)
        if self.mode == "oom":
            blocks = []
            while len(blocks) * _OOM_STEP_MB < _OOM_CAP_MB:
                blocks.append(bytearray(_OOM_STEP_MB << 20))
            raise MemoryError(f"injected over-allocation capped at {_OOM_CAP_MB} MB")

    def __enter__(self) -> "Fault":
        self._saved = {name: os.environ.get(name) for name in _FAULT_ENV.values()}
        for field, name in _FAULT_ENV.items():
            os.environ[name] = str(getattr(self, field))
        return self

    def __exit__(self, *exc) -> bool:
        for name, previous in self._saved.items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous
        return False


def armed_fault() -> Fault | None:
    """The fault armed through ``REPRO_FAULT_*``, or ``None``.

    Armed when ``REPRO_FAULT_RATE`` is set and positive; the mode
    defaults to ``kill``.  A malformed variable raises a ``ValueError``
    naming it instead of silently disarming the chaos run.
    """
    if not os.environ.get("REPRO_FAULT_RATE"):
        return None
    fault = Fault("kill")
    for field, name in _FAULT_ENV.items():
        raw = os.environ.get(name)
        if not raw:
            continue
        try:
            value = type(getattr(fault, field))(raw)  # the default's type
            fault = dataclasses.replace(fault, **{field: value})
        except ValueError as exc:
            raise ValueError(f"{name}={raw!r}: {exc}") from None
    return fault if fault.rate > 0.0 else None


def _result_digest(value: Any) -> int:
    """Integrity checksum over the pickled result (fault runs only)."""
    return zlib.crc32(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _execute_chunk(
    fn: Callable[..., Any],
    args: tuple,
    index: int,
    attempt: int,
    fault: Fault | None,
    has_shared: bool = False,
) -> tuple[int, int | None, Any, dict[str, int] | None]:
    """Worker-side wrapper: run one chunk, firing any armed fault.

    Returns ``(index, digest, value, meta)``; ``digest`` is ``None`` (and
    no extra pickling happens) when no fault is armed.  ``meta``
    carries worker-side counter deltas (shared-memory attaches) for the
    parent to fold into its telemetry — ``None`` when there are none.
    """
    fired = fault is not None and fault.fires(index, attempt)
    if fired:
        fault.fire()
    meta = None
    if has_shared:
        from . import shm as _shm  # lazy: pickle-only pools skip numpy

        value = fn(*_shm.worker_shared(), *args)
        meta = _shm.attach_meta()
    else:
        value = fn(*args)
    if fault is None:
        return index, None, value, meta
    digest = _result_digest(value)
    if fired and fault.mode == "corrupt":
        value = ("__corrupt__", value)
    return index, digest, value, meta


def reap(procs: Sequence[Any], force: bool) -> None:
    """Leave none of ``procs`` running: terminate → grace → kill.

    ``force`` sends SIGTERM first; either way every process gets
    ``_GRACE_SECONDS`` (one shared deadline) to exit before SIGKILL.
    Shared by the pool's executor teardown and the isolated cell's child.
    """
    if force:
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - already reaped
                continue
    deadline = time.monotonic() + _GRACE_SECONDS
    for proc in procs:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(_GRACE_SECONDS)
        except (OSError, ValueError):  # pragma: no cover - already reaped
            continue


# ----------------------------------------------------------------------
# The pool

_UNSET = object()


class ResilientPool:
    """Deterministic chunk fan-out that survives worker loss.

    One instance is cheap and stateless between :meth:`run` calls; the
    module-level :func:`run_chunks` is the one-shot convenience the
    engines use.  See the module docstring for the recovery ladder.
    """

    def __init__(
        self,
        config: PoolConfig | None = None,
        label: str | None = None,
    ) -> None:
        self.config = config or PoolConfig.from_env()
        self.label = label or "pool"

    # -- public API -----------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        *,
        workers: int | None = None,
        tick: Callable[[], None] | None = None,
        shared: Sequence[Any] | None = None,
    ) -> list[Any]:
        """Execute every chunk and return results in chunk-index order.

        ``fn`` must be a module-level (picklable) function and each args
        tuple fully determines its chunk's output — randomness goes in as
        a ``SeedSequence`` spawn-key state, never as live RNG objects
        shared between chunks.  ``tick`` runs in the parent after each
        chunk commits (budget checks).  ``workers`` defaults to one per
        chunk, matching the engines' historical fan-out shape.

        ``shared`` holds big immutable operands common to every chunk;
        workers receive them prepended — ``fn(*shared, *args)`` — but
        they travel once per worker (shared-memory arena or pickled
        initializer payload), never once per chunk.  Serial paths use
        the original objects directly, so results are transport-
        independent.
        """
        n = len(arg_tuples)
        if n == 0:
            return []
        shared = tuple(shared) if shared else ()
        workers = n if workers is None else max(1, min(int(workers), n))
        if workers == 1 or n == 1:
            return self._run_serial(
                fn, arg_tuples, range(n), tick, downgrade=False, shared=shared
            )
        if multiprocessing.current_process().daemon:
            # Daemonic processes (e.g. the isolated-executor worker) may
            # not spawn children, so a nested fan-out runs the same
            # chunks serially — byte-identical, just not parallel.
            _telemetry.current().count("pool.nested_serial")
            return self._run_serial(
                fn, arg_tuples, range(n), tick, downgrade=False, shared=shared
            )

        cfg = self.config
        tele = _telemetry.current()
        fault = armed_fault()
        tele.count("pool.chunks", n)
        payload, arena = shared, None
        if shared:
            from . import shm as _shm  # lazy: pickle-only pools skip numpy

            payload, arena = _shm.export_shared(shared, label=self.label)
        results: list[Any] = [_UNSET] * n
        attempts = [0] * n  # total executions started (varies fault draws)
        failures = [0] * n  # attributable failures (counts toward quarantine)
        restarts = 0
        remaining = set(range(n))
        try:
            while remaining:
                if restarts > cfg.max_restarts:
                    tele.count("pool.serial_downgrades")
                    serial = self._run_serial(
                        fn, arg_tuples, sorted(remaining), tick,
                        downgrade=True, shared=shared,
                    )
                    for i, value in zip(sorted(remaining), serial):
                        results[i] = value
                    break
                executor = self._spawn_executor(
                    min(workers, len(remaining)), shared, payload
                )
                try:
                    collapsed = self._drain(
                        executor, fn, arg_tuples, fault,
                        results, attempts, failures, remaining, tick,
                        has_shared=bool(shared),
                    )
                except BaseException:
                    self._shutdown(executor, force=True)
                    raise
                self._shutdown(executor, force=collapsed)
                if collapsed and remaining:
                    restarts += 1
                    tele.count("pool.worker_restarts")
                    tele.count("pool.chunks_salvaged", n - len(remaining))
        finally:
            if arena is not None:
                # Unlink on every exit path (interrupt included); workers
                # still holding mappings keep the pages via the kernel
                # refcount until they terminate.
                arena.close()
            if shared:
                from . import shm as _shm

                # The parent attaches too when chunks resolve in-process
                # (nested-serial, downgrade); sweep so a resident process
                # running many fan-outs holds no dead mappings.
                _shm.detach_stale()
        return results

    def _spawn_executor(
        self, max_workers: int, shared: tuple, payload: Any
    ) -> ProcessPoolExecutor:
        """One executor generation, with the shared payload installed.

        The initializer ships ``payload`` exactly once per worker — for
        the arena path that is O(1) descriptors; for the pickle fallback
        it is the one serialization of the shared objects that the
        per-chunk tuples no longer carry.
        """
        if not shared:
            return ProcessPoolExecutor(max_workers=max_workers)
        from . import shm as _shm  # lazy: pickle-only pools skip numpy

        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_shm._worker_init,
            initargs=(payload,),
        )

    # -- internals ------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        indexes,
        tick: Callable[[], None] | None,
        downgrade: bool,
        shared: tuple = (),
    ) -> list[Any]:
        """In-process execution: the no-fan-out path and the last resort.

        Faults are never injected here — serial execution is the
        correctness backstop, and a ``kill`` fired in-process would take
        the parent down with it.  ``shared`` objects are used directly
        (no transport at all), so a serial downgrade is byte-identical
        to the arena path it replaces.
        """
        out: list[Any] = []
        for i in indexes:
            try:
                out.append(fn(*shared, *arg_tuples[i]))
            except Exception as exc:
                if not downgrade:
                    raise
                raise ChunkQuarantined(
                    f"{self.label}: chunk {i} failed during serial downgrade",
                    details={
                        "label": self.label,
                        "chunk": int(i),
                        "phase": "serial_downgrade",
                        "last_error": repr(exc),
                    },
                ) from exc
            if tick is not None:
                tick()
        return out

    def _drain(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        fault: Fault | None,
        results: list[Any],
        attempts: list[int],
        failures: list[int],
        remaining: set[int],
        tick: Callable[[], None] | None,
        has_shared: bool = False,
    ) -> bool:
        """One executor generation; returns True when it collapsed."""
        cfg = self.config
        tele = _telemetry.current()
        futures: dict[Future, int] = {}

        def submit(index: int) -> Future | None:
            try:
                future = executor.submit(
                    _execute_chunk, fn, arg_tuples[index], index,
                    attempts[index], fault, has_shared,
                )
            except (BrokenProcessPool, RuntimeError):
                # A worker died and the executor refuses new work (even
                # before the fan-out is fully submitted): a collapse.  The
                # chunk is still in ``remaining`` and replays after respawn.
                return None
            attempts[index] += 1
            futures[future] = index
            return future

        if any(submit(i) is None for i in sorted(remaining)):
            return True
        pending = set(futures)
        stall = cfg.stall_timeout_seconds
        quiet_since = time.monotonic()
        while pending:
            windows = [_TICK_SECONDS] if tick is not None else []
            if stall is not None:
                windows.append(max(0.0, quiet_since + stall - time.monotonic()))
            done, pending = wait(
                pending, timeout=min(windows, default=None),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                if stall is not None and time.monotonic() - quiet_since >= stall:
                    # Stall: nothing finished inside the window — treat
                    # the executor as wedged and reclaim its workers.
                    return True
                if tick is not None:
                    tick()  # the budget still runs while workers hang
                continue
            collapsed = False
            for future in done:
                index = futures[future]
                if future.cancelled():
                    collapsed = True
                    continue
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    collapsed = True
                    continue
                if error is None:
                    __, digest, value, meta = future.result()
                    if meta:
                        # Worker-side counter deltas (shm attaches) fold
                        # into the parent's telemetry stream.
                        for key, delta in meta.items():
                            tele.count(key, delta)
                    if digest is not None and digest != _result_digest(value):
                        tele.count("pool.corrupt_results")
                        error = PoolError(
                            f"{self.label}: chunk {index} returned a corrupt "
                            "result (checksum mismatch)"
                        )
                    else:
                        results[index] = value
                        remaining.discard(index)
                        if tick is not None:
                            tick()
                        continue
                # Attributable chunk failure: bounded retry with backoff.
                failures[index] += 1
                if failures[index] >= cfg.retries:
                    raise ChunkQuarantined(
                        f"{self.label}: chunk {index} quarantined after "
                        f"{failures[index]} failed attempts: {error}",
                        details={
                            "label": self.label,
                            "chunk": int(index),
                            "failed_attempts": failures[index],
                            "last_error": repr(error),
                        },
                    ) from error
                tele.count("pool.chunk_retries")
                time.sleep(_BACKOFF_SECONDS * 2.0 ** (failures[index] - 1))
                retry = submit(index)
                if retry is None:
                    collapsed = True
                else:
                    pending.add(retry)
            if collapsed:
                return True
            quiet_since = time.monotonic()
        return False

    def _shutdown(self, executor: ProcessPoolExecutor, force: bool) -> None:
        """Dismantle one executor generation, leaving no orphan workers.

        ``force`` hard-terminates workers still running (collapse, stall,
        ``KeyboardInterrupt``, any exception mid-iteration); the clean
        path still cancels queued work so an early return cannot leave
        chunks running behind the caller's back.
        """
        procs = list(getattr(executor, "_processes", {}).values() or [])
        try:
            executor.shutdown(wait=not force, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass
        if force:
            reap(procs, force=True)


def run_chunks(
    fn: Callable[..., Any],
    arg_tuples: Sequence[tuple],
    *,
    workers: int | None = None,
    label: str | None = None,
    tick: Callable[[], None] | None = None,
    config: PoolConfig | None = None,
    shared: Sequence[Any] | None = None,
) -> list[Any]:
    """Run deterministic chunks through a :class:`ResilientPool`.

    The single entry point every engine fans out through — no ad-hoc
    ``ProcessPoolExecutor`` call sites remain outside this module.
    ``shared`` carries the chunk-invariant operands (graph CSR, masks)
    once per worker instead of once per chunk; see :meth:`ResilientPool.run`.
    """
    return ResilientPool(config=config, label=label).run(
        fn, arg_tuples, workers=workers, tick=tick, shared=shared
    )
