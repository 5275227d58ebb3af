"""Hardened execution: process isolation, preemptive budgets, fault injection.

The cooperative budget of :mod:`repro.framework.metrics` reproduces the
paper's DNF/Crashed vocabulary (Table 3) only for algorithms that politely
poll ``budget.check()`` from their inner loops.  A hung loop, a deep
recursion (SimPath's known failure mode, Table 4), or a single unguarded
allocation can still take down a multi-hour sweep.  This module closes
that gap:

* :class:`IsolatedExecutor` runs one seed-selection call in a spawned
  subprocess.  The parent enforces a *preemptive* wall-clock deadline —
  the child is killed and the cell recorded as ``DNF`` whether or not it
  ever checked its budget — and the child installs an address-space
  ceiling via ``resource.setrlimit(RLIMIT_AS)`` where the platform allows
  it, so an over-allocation surfaces as ``MemoryError`` → ``CRASHED``
  instead of taking the machine down.  Results travel back over a pipe as
  plain-dict :class:`~repro.framework.metrics.RunRecord` payloads.  With
  ``enabled=False`` (or on platforms without ``multiprocessing``) the
  executor falls back to the cooperative in-process path.
* A widened failure taxonomy — ``FAILED`` (unexpected exception, full
  traceback captured in ``extras["failure"]``) and ``KILLED`` (the worker
  died without reporting: hard kill, segfault, OOM-killer) — so one bad
  cell never aborts a sweep.
* :class:`RetryPolicy` re-runs transient failures a bounded number of
  times, each attempt on a deterministically derived child RNG
  (:func:`derive_rng`), so retried cells stay reproducible.
* :class:`FaultInjector` wraps any :class:`~repro.algorithms.base.IMAlgorithm`
  and injects hangs, OOM-style allocations, raises, or hard exits — the
  test harness that proves every enforcement path end-to-end.

Checkpoint/resume for sweeps lives in :mod:`repro.framework.results`
(:class:`~repro.framework.results.CheckpointJournal`); the runner and the
benchmark helpers consult it so a killed sweep re-runs only missing cells.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from ..algorithms.base import Budget, IMAlgorithm, SeedSelectionResult
from ..diffusion.models import PropagationModel
from ..graph.digraph import DiGraph
from .metrics import (
    STATUS_CRASHED,
    STATUS_DNF,
    STATUS_FAILED,
    STATUS_KILLED,
    RunRecord,
    run_with_budget,
)
from .results import _jsonable
from .telemetry import Telemetry

__all__ = [
    "IsolationConfig",
    "IsolatedExecutor",
    "RetryPolicy",
    "FaultInjector",
    "execute_cell",
    "derive_rng",
    "isolation_supported",
]


# ----------------------------------------------------------------------
# Deterministic RNG derivation

def derive_rng(rng: np.random.Generator, salt: int) -> np.random.Generator:
    """Child generator derived from ``rng``'s seed sequence and ``salt``.

    Salting the spawn key (instead of calling ``rng.spawn``) keeps the
    derivation stateless: the same (parent, salt) pair always yields the
    same child, no matter how many children were derived before — the
    property retry-with-reseed and per-pass spectrum RNGs rely on.
    Parent state is never consumed unless the generator carries no seed
    sequence (exotic bit generators), where we fall back to drawing one
    integer from the parent.
    """
    bitgen = getattr(rng, "bit_generator", None)
    seed_seq = getattr(bitgen, "seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        child = np.random.SeedSequence(
            entropy=seed_seq.entropy,
            spawn_key=(*seed_seq.spawn_key, int(salt)),
        )
        return np.random.default_rng(child)
    return np.random.default_rng(int(rng.integers(0, 2**63)))


# ----------------------------------------------------------------------
# Configuration

def isolation_supported(start_method: str | None = None) -> bool:
    """Whether subprocess isolation can run here (and via ``start_method``)."""
    try:
        methods = mp.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False
    if start_method is not None:
        return start_method in methods
    return bool(methods)


def _default_start_method() -> str:
    methods = mp.get_all_start_methods()
    # fork is strongly preferred: the child inherits graph/model/algorithm
    # objects without pickling (closures and lambda weight schemes included).
    return "fork" if "fork" in methods else methods[0]


@dataclass(frozen=True)
class IsolationConfig:
    """How one cell is executed.

    ``enabled=False`` keeps the cooperative in-process path (same limits,
    tracemalloc-based memory ceiling); ``enabled=True`` adds the
    preemptive parent-side deadline and the child-side rlimit ceiling.
    """

    enabled: bool = True
    time_limit_seconds: float | None = None
    memory_limit_mb: float | None = None
    track_memory: bool = False
    #: Collect per-phase spans and counters into ``extras["telemetry"]``.
    #: Under isolation the *child* owns the collecting handle and its
    #: snapshot rides home inside the plain-dict record payload, so spans
    #: survive the subprocess boundary with no extra IPC.
    telemetry: bool = False
    #: Seconds to wait after SIGTERM before escalating to SIGKILL, and for
    #: a reporting child to exit after delivering its payload.
    grace_seconds: float = 2.0
    #: multiprocessing start method; None picks fork where available.
    start_method: str | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution of transiently failed cells.

    Only ``FAILED``/``KILLED`` are retried by default: ``DNF``/``CRASHED``
    are resource verdicts that a re-run under the same budget would simply
    reproduce.  With ``reseed=True`` every attempt runs on an
    independently derived child RNG (see :func:`derive_rng`) so a retry of
    a stochastic technique explores a fresh sample path deterministically.
    """

    max_attempts: int = 1
    reseed: bool = True
    retry_statuses: tuple[str, ...] = (STATUS_FAILED, STATUS_KILLED)

    def should_retry(self, status: str, attempt: int) -> bool:
        return status in self.retry_statuses and attempt + 1 < max(1, self.max_attempts)


# ----------------------------------------------------------------------
# Child-side memory ceiling

def _current_vm_bytes() -> int | None:
    """Current virtual-memory size (Linux /proc); None where unreadable."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def _set_memory_rlimit(memory_limit_mb: float | None) -> str | None:
    """Install an RLIMIT_AS ceiling of current-VM + limit; name on success.

    Returns ``"rlimit"`` when the hard ceiling is active, ``None`` when
    the platform cannot enforce it (the cooperative tracemalloc ceiling
    inside :func:`run_with_budget` remains as the fallback).
    """
    if memory_limit_mb is None:
        return None
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    base = _current_vm_bytes()
    if base is None:
        return None
    limit = base + int(memory_limit_mb * 1e6)
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limit = min(limit, soft)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - locked-down hosts
        return None
    return "rlimit"


# ----------------------------------------------------------------------
# Worker (module-level so the spawn start method can pickle it)

def _fallback_payload(
    algorithm: IMAlgorithm,
    model: PropagationModel,
    k: int,
    status: str,
    extras: dict[str, Any],
) -> dict[str, Any]:
    record = RunRecord(
        algorithm=algorithm.name, model=model.name, k=k, status=status, extras=extras
    )
    return {"record": _jsonable(asdict(record)), "result": None}


def _isolated_worker(
    conn,
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator,
    time_limit_seconds: float | None,
    memory_limit_mb: float | None,
    track_memory: bool,
    telemetry: bool = False,
) -> None:
    """Run one cell in the child and ship a plain-dict payload back."""
    try:
        enforcement = _set_memory_rlimit(memory_limit_mb)
        record, result = run_with_budget(
            algorithm,
            graph,
            k,
            model,
            rng=rng,
            time_limit_seconds=time_limit_seconds,
            memory_limit_mb=memory_limit_mb,
            track_memory=track_memory or memory_limit_mb is not None,
            telemetry=Telemetry(label=algorithm.name) if telemetry else None,
        )
        if memory_limit_mb is not None:
            record.extras["memory_enforcement"] = enforcement or "tracemalloc"
        payload = {
            "record": _jsonable(asdict(record)),
            "result": result.to_payload() if result is not None else None,
        }
    except MemoryError:
        payload = _fallback_payload(
            algorithm, model, k, STATUS_CRASHED,
            {"budget_detail": "MemoryError outside the measured block"},
        )
    except BaseException:
        exc_type, exc, _ = sys.exc_info()
        payload = _fallback_payload(
            algorithm, model, k, STATUS_FAILED,
            {"failure": {
                "type": exc_type.__name__ if exc_type else "BaseException",
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }},
        )
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent already gone
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side executor

class IsolatedExecutor:
    """Run seed-selection cells in killable subprocesses.

    The parent never trusts the child to terminate: on deadline it sends
    SIGTERM, waits ``grace_seconds``, then SIGKILLs.  A child that dies
    without delivering a payload (segfault, ``os._exit``, kernel OOM kill)
    is recorded as ``KILLED`` with its exit code.
    """

    def __init__(self, config: IsolationConfig | None = None) -> None:
        self.config = config or IsolationConfig()

    def run(
        self,
        algorithm: IMAlgorithm,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator | None = None,
    ) -> tuple[RunRecord, SeedSelectionResult | None]:
        rng = np.random.default_rng() if rng is None else rng
        cfg = self.config
        if not cfg.enabled or not isolation_supported(cfg.start_method):
            return run_with_budget(
                algorithm,
                graph,
                k,
                model,
                rng=rng,
                time_limit_seconds=cfg.time_limit_seconds,
                memory_limit_mb=cfg.memory_limit_mb,
                track_memory=cfg.track_memory or cfg.memory_limit_mb is not None,
                telemetry=Telemetry(label=algorithm.name) if cfg.telemetry else None,
            )
        ctx = mp.get_context(cfg.start_method or _default_start_method())
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_isolated_worker,
            args=(
                send_conn, algorithm, graph, k, model, rng,
                cfg.time_limit_seconds, cfg.memory_limit_mb, cfg.track_memory,
                cfg.telemetry,
            ),
            daemon=True,
        )
        started = time.perf_counter()
        try:
            proc.start()
        except Exception as exc:  # unpicklable payload under spawn, fork failure
            recv_conn.close()
            send_conn.close()
            record = RunRecord(
                algorithm=algorithm.name, model=model.name, k=k,
                status=STATUS_FAILED,
                extras={"failure": {
                    "type": type(exc).__name__,
                    "message": f"subprocess start failed: {exc}",
                    "traceback": traceback.format_exc(),
                }},
            )
            return record, None
        send_conn.close()
        payload = None
        timed_out = False
        try:
            if recv_conn.poll(cfg.time_limit_seconds):
                payload = recv_conn.recv()
            else:
                timed_out = True
        except (EOFError, OSError):
            payload = None
        finally:
            elapsed = time.perf_counter() - started
            recv_conn.close()
        if timed_out:
            self._reap(proc, force=True)
            record = RunRecord(
                algorithm=algorithm.name, model=model.name, k=k,
                status=STATUS_DNF,
                elapsed_seconds=elapsed,
                extras={
                    "budget_detail": (
                        "killed at preemptive wall-clock deadline of "
                        f"{cfg.time_limit_seconds:.1f}s"
                    ),
                    "enforcement": "preemptive-kill",
                },
            )
            return record, None
        self._reap(proc, force=False)
        if payload is None:
            record = RunRecord(
                algorithm=algorithm.name, model=model.name, k=k,
                status=STATUS_KILLED,
                elapsed_seconds=elapsed,
                extras={"failure": {
                    "type": "ProcessDied",
                    "message": (
                        "worker exited without reporting a result "
                        f"(exitcode {proc.exitcode})"
                    ),
                    "exitcode": proc.exitcode,
                }},
            )
            return record, None
        record = RunRecord(**payload["record"])
        result_payload = payload.get("result")
        result = (
            SeedSelectionResult.from_payload(result_payload)
            if result_payload is not None
            else None
        )
        return record, result

    def _reap(self, proc, force: bool) -> None:
        grace = self.config.grace_seconds
        if force and proc.is_alive():
            proc.terminate()
        proc.join(grace)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join(grace)


def execute_cell(
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator | None = None,
    config: IsolationConfig | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[RunRecord, SeedSelectionResult | None]:
    """One sweep cell under isolation (optional) and a bounded retry policy.

    The returned record's ``extras`` carry ``attempts`` (total runs) and,
    when any retry happened, ``attempt_history`` (statuses of the
    discarded attempts).
    """
    rng = np.random.default_rng() if rng is None else rng
    executor = IsolatedExecutor(config or IsolationConfig(enabled=False))
    retry = retry or RetryPolicy()
    history: list[str] = []
    record: RunRecord
    result: SeedSelectionResult | None = None
    for attempt in range(max(1, retry.max_attempts)):
        attempt_rng = derive_rng(rng, attempt) if retry.reseed else rng
        record, result = executor.run(algorithm, graph, k, model, rng=attempt_rng)
        if not retry.should_retry(record.status, attempt):
            break
        history.append(record.status)
    record.extras["attempts"] = len(history) + 1
    if history:
        record.extras["attempt_history"] = history
    return record, result


# ----------------------------------------------------------------------
# Fault injection

class FaultInjector(IMAlgorithm):
    """Wrap a technique and inject failures before delegating to it.

    Faults (``fault=``):

    * ``"none"``  — transparent passthrough.
    * ``"raise"`` — raise ``exception`` (default ``RuntimeError``): the
      ``FAILED`` path.
    * ``"hang"``  — busy-wait up to ``hang_seconds`` without ever touching
      ``budget.check()``: the preemptive-``DNF`` path.  The cap means a
      broken deadline surfaces as a spurious ``OK`` instead of a wedged
      test suite.
    * ``"oom"``   — allocate ``alloc_step_mb`` blocks up to
      ``alloc_cap_mb``, then raise ``MemoryError`` if the platform ceiling
      never fired: the ``CRASHED`` path, bounded either way.
    * ``"exit"``  — ``os._exit(exit_code)``: the ``KILLED`` path (only
      meaningful under isolation).

    ``fail_times=n`` makes the fault transient: it fires on the first
    ``n`` invocations and then passes through — counted in-memory, or via
    ``state_file`` so the count survives subprocess re-execution.
    """

    def __init__(
        self,
        inner: IMAlgorithm,
        fault: str = "none",
        fail_times: int | None = None,
        state_file: str | os.PathLike | None = None,
        hang_seconds: float = 30.0,
        alloc_step_mb: int = 16,
        alloc_cap_mb: int = 256,
        exception: BaseException | None = None,
        exit_code: int = 13,
    ) -> None:
        faults = ("none", "raise", "hang", "oom", "exit")
        if fault not in faults:
            raise ValueError(f"unknown fault {fault!r}; options: {', '.join(faults)}")
        self.inner = inner
        self.fault = fault
        self.fail_times = fail_times
        self.state_file = os.fspath(state_file) if state_file is not None else None
        self.hang_seconds = hang_seconds
        self.alloc_step_mb = alloc_step_mb
        self.alloc_cap_mb = alloc_cap_mb
        self.exception = exception
        self.exit_code = exit_code
        self._calls = 0
        # Records keep the wrapped technique's identity.
        self.name = inner.name
        self.supported = inner.supported
        self.external_parameter = inner.external_parameter

    def _invocation_index(self) -> int:
        if self.state_file is None:
            index = self._calls
            self._calls += 1
            return index
        try:
            with open(self.state_file) as handle:
                index = int(handle.read().strip() or 0)
        except (OSError, ValueError):
            index = 0
        with open(self.state_file, "w") as handle:
            handle.write(str(index + 1))
        return index

    def _armed(self) -> bool:
        index = self._invocation_index()
        if self.fault == "none":
            return False
        return self.fail_times is None or index < self.fail_times

    def _fire(self) -> None:
        if self.fault == "raise":
            raise self.exception if self.exception is not None else RuntimeError(
                "injected fault"
            )
        if self.fault == "hang":
            deadline = time.perf_counter() + self.hang_seconds
            while time.perf_counter() < deadline:
                time.sleep(0.02)
            return
        if self.fault == "oom":
            blocks: list[bytearray] = []
            while len(blocks) * self.alloc_step_mb < self.alloc_cap_mb:
                blocks.append(bytearray(self.alloc_step_mb << 20))
            raise MemoryError(
                f"injected over-allocation capped at {self.alloc_cap_mb} MB"
            )
        if self.fault == "exit":
            os._exit(self.exit_code)

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        if self._armed():
            self._fire()
        return self.inner._select(graph, k, model, rng, budget)
