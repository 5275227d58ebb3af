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

* **Worker death** (``BrokenProcessPool``) — salvage every chunk result
  already delivered, respawn the executor, and re-execute only the lost
  chunks.  ``pool.worker_restarts`` / ``pool.chunks_salvaged`` count it.
* **Hung workers** — an optional stall deadline (no chunk completes for
  ``stall_timeout_seconds``) hard-kills the executor and takes the same
  respawn path, so a wedged worker costs one window, not the sweep.
* **Chunk failures** (an exception out of the chunk fn, or a corrupt
  result detected by checksum under fault injection) — bounded retry with
  exponential backoff.  Retries re-run the same (fn, args) pair, so the
  deterministic-reseed semantics of
  :class:`~repro.framework.isolation.RetryPolicy` hold with no RNG
  bookkeeping: the spawn key *is* the seed.  ``pool.chunk_retries``.
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

:class:`ChunkFaultInjector` is the test harness: rate-controlled
kill / hang / corrupt / raise faults, armed through ``REPRO_FAULT_*``
environment variables so they reach the worker wrapper in any process.
Fault draws are a deterministic hash of ``(seed, chunk index, attempt)``
— reproducible, and a retried chunk draws afresh so injected faults are
transient by construction.  When no injector is armed the wrapper adds
no checksum, no hash draw, and no extra pickling to the hot path.

This module deliberately imports only the standard library and
:mod:`repro.framework.telemetry` so the diffusion engines can reach it
lazily without import cycles.
"""

from __future__ import annotations

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
    "InjectedChunkFault",
    "ResilientPool",
    "run_chunks",
    "ChunkFaultInjector",
    "FaultSpec",
]


# ----------------------------------------------------------------------
# Configuration

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
    * ``REPRO_POOL_BACKOFF``       → :attr:`backoff_seconds`
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
    #: Base of the exponential per-retry backoff (seconds).
    backoff_seconds: float = 0.05
    #: Seconds to wait for a terminated worker before SIGKILL.
    grace_seconds: float = 1.0

    @classmethod
    def from_env(cls) -> "PoolConfig":
        return cls(
            retries=max(1, _env_int("REPRO_BENCH_POOL_RETRIES", cls.retries)),
            max_restarts=max(0, _env_int("REPRO_POOL_MAX_RESTARTS", cls.max_restarts)),
            stall_timeout_seconds=_env_float("REPRO_POOL_STALL_TIMEOUT", None),
            backoff_seconds=_env_float("REPRO_POOL_BACKOFF", cls.backoff_seconds)
            or cls.backoff_seconds,
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


class InjectedChunkFault(RuntimeError):
    """Raised inside a worker by the ``raise`` fault mode."""


# ----------------------------------------------------------------------
# Fault injection

FAULT_MODES = ("kill", "hang", "corrupt", "raise")
_FAULT_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultSpec:
    """An armed fault: mode, rate, and the deterministic draw seed."""

    mode: str
    rate: float
    seed: int = 0
    hang_seconds: float = 30.0


def active_fault_spec() -> FaultSpec | None:
    """The injector armed via ``REPRO_FAULT_*``, or ``None``."""
    rate = _env_float("REPRO_FAULT_RATE", None)
    if rate is None or rate <= 0.0:
        return None
    mode = os.environ.get("REPRO_FAULT_MODE", "kill")
    if mode not in FAULT_MODES:
        return None
    return FaultSpec(
        mode=mode,
        rate=min(1.0, rate),
        seed=_env_int("REPRO_FAULT_SEED", 0),
        hang_seconds=_env_float("REPRO_FAULT_HANG_SECONDS", 30.0) or 30.0,
    )


def fault_fires(spec: FaultSpec, index: int, attempt: int) -> bool:
    """Deterministic rate draw for ``(chunk, attempt)``.

    A hash draw instead of an RNG stream: reproducible across processes,
    independent of draw order, and varying with ``attempt`` so a retried
    chunk is not doomed to refire the same fault forever.
    """
    token = f"{spec.seed}:{index}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    draw = int.from_bytes(digest[:8], "big") / 2.0**64
    return draw < spec.rate


class ChunkFaultInjector:
    """Arm rate-controlled chunk faults for the enclosed block.

    Context manager used by the chaos suite (and the CI chaos job, which
    arms the same variables externally)::

        with ChunkFaultInjector(mode="kill", rate=0.2, seed=7):
            pool.extend(graph, dynamics, 4000, rng, workers=4)

    Modes: ``kill`` (``os._exit`` → ``BrokenProcessPool``), ``hang``
    (sleep ``hang_seconds`` before computing — pair with
    ``stall_timeout`` so the parent reclaims the worker), ``corrupt``
    (perturb the result after checksumming, so the parent detects and
    retries), ``raise`` (an exception out of the chunk fn).  Serial
    downgrade never injects: it is the last-resort correctness path.
    """

    _KEYS = (
        "REPRO_FAULT_RATE",
        "REPRO_FAULT_MODE",
        "REPRO_FAULT_SEED",
        "REPRO_FAULT_HANG_SECONDS",
        "REPRO_POOL_STALL_TIMEOUT",
    )

    def __init__(
        self,
        mode: str = "kill",
        rate: float = 0.2,
        seed: int = 0,
        hang_seconds: float = 2.0,
        stall_timeout: float | None = None,
    ) -> None:
        if mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {mode!r}; options: {', '.join(FAULT_MODES)}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.mode = mode
        self.rate = rate
        self.seed = seed
        self.hang_seconds = hang_seconds
        self.stall_timeout = stall_timeout
        self._saved: dict[str, str | None] = {}

    def __enter__(self) -> "ChunkFaultInjector":
        values = {
            "REPRO_FAULT_RATE": str(self.rate),
            "REPRO_FAULT_MODE": self.mode,
            "REPRO_FAULT_SEED": str(self.seed),
            "REPRO_FAULT_HANG_SECONDS": str(self.hang_seconds),
            "REPRO_POOL_STALL_TIMEOUT": (
                str(self.stall_timeout) if self.stall_timeout is not None else None
            ),
        }
        for key in self._KEYS:
            self._saved[key] = os.environ.get(key)
            value = values[key]
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        return self

    def __exit__(self, *exc) -> bool:
        for key, previous in self._saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous
        self._saved.clear()
        return False


def _result_digest(value: Any) -> int:
    """Integrity checksum over the pickled result (fault runs only)."""
    return zlib.crc32(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _execute_chunk(
    fn: Callable[..., Any],
    args: tuple,
    index: int,
    attempt: int,
    spec: FaultSpec | None,
    has_shared: bool = False,
) -> tuple[int, int | None, Any, dict[str, int] | None]:
    """Worker-side wrapper: run one chunk, applying any armed fault.

    Returns ``(index, digest, value, meta)``; ``digest`` is ``None`` (and
    no extra pickling happens) when no injector is armed.  ``meta``
    carries worker-side counter deltas (shared-memory attaches) for the
    parent to fold into its telemetry — ``None`` when there are none.
    """
    fired = spec is not None and fault_fires(spec, index, attempt)
    if fired:
        if spec.mode == "kill":
            os._exit(_FAULT_EXIT_CODE)
        if spec.mode == "raise":
            raise InjectedChunkFault(
                f"injected failure in chunk {index} (attempt {attempt})"
            )
        if spec.mode == "hang":
            deadline = time.perf_counter() + spec.hang_seconds
            while time.perf_counter() < deadline:
                time.sleep(0.02)
    meta = None
    if has_shared:
        from . import shm as _shm  # lazy: pickle-only pools skip numpy

        value = fn(*_shm.worker_shared(), *args)
        meta = _shm.attach_meta()
    else:
        value = fn(*args)
    if spec is None:
        return index, None, value, meta
    digest = _result_digest(value)
    if fired and spec.mode == "corrupt":
        value = ("__corrupt__", value)
    return index, digest, value, meta


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
        spec = active_fault_spec()
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
                        executor, fn, arg_tuples, spec,
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

    def _submit(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        spec: FaultSpec | None,
        attempts: list[int],
        index: int,
        has_shared: bool = False,
    ) -> Future:
        future = executor.submit(
            _execute_chunk, fn, arg_tuples[index], index, attempts[index], spec,
            has_shared,
        )
        attempts[index] += 1
        return future

    def _drain(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        spec: FaultSpec | None,
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
        futures: dict[Future, int] = {
            self._submit(executor, fn, arg_tuples, spec, attempts, i,
                         has_shared): i
            for i in sorted(remaining)
        }
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=cfg.stall_timeout_seconds,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Stall: nothing finished inside the window — treat the
                # executor as wedged and reclaim its workers.
                return True
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
                time.sleep(cfg.backoff_seconds * 2.0 ** (failures[index] - 1))
                try:
                    retry = self._submit(
                        executor, fn, arg_tuples, spec, attempts, index,
                        has_shared,
                    )
                except (BrokenProcessPool, RuntimeError):
                    # The executor died under us mid-retry; the chunk is
                    # still in ``remaining`` and replays after respawn.
                    collapsed = True
                    continue
                futures[retry] = index
                pending.add(retry)
            if collapsed:
                return True
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
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # pragma: no cover - already reaped
                    continue
            deadline = time.perf_counter() + self.config.grace_seconds
            for proc in procs:
                try:
                    proc.join(max(0.0, deadline - time.perf_counter()))
                    if proc.is_alive():
                        proc.kill()
                        proc.join(self.config.grace_seconds)
                except Exception:  # pragma: no cover - already reaped
                    continue


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
