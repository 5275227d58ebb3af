"""Hardened execution: process isolation, preemptive budgets, cell replay.

The cooperative budget of :mod:`repro.framework.metrics` reproduces the
paper's DNF/Crashed vocabulary (Table 3) only for algorithms that politely
poll ``budget.check()`` from their inner loops.  A hung loop, a deep
recursion (SimPath's known failure mode, Table 4), or a single unguarded
allocation can still take down a multi-hour sweep.  This module closes
that gap:

* :func:`execute_cell` with ``IsolationConfig(enabled=True)`` runs one
  seed-selection call in a forked subprocess.  The parent enforces a
  *preemptive* wall-clock deadline — the child is killed and the cell
  recorded as ``DNF`` whether or not it ever checked its budget — and the
  child installs an address-space ceiling via
  ``resource.setrlimit(RLIMIT_AS)`` where the platform allows it, so an
  over-allocation surfaces as ``MemoryError`` → ``CRASHED`` instead of
  taking the machine down.  Results travel back over a pipe as plain-dict
  :class:`~repro.framework.metrics.RunRecord` payloads.  With
  ``enabled=False`` (or on platforms without ``multiprocessing``) the
  cell runs on the cooperative in-process path.
* A widened failure taxonomy — ``FAILED`` (unexpected exception, full
  traceback captured in ``extras["failure"]``) and ``KILLED`` (the worker
  died without reporting: hard kill, segfault, OOM-killer) — so one bad
  cell never aborts a sweep.
* ``attempts=n`` retries ``FAILED``/``KILLED`` cells.  A retry *replays*
  the cell on the same randomness, as the worker pool replays a lost
  chunk from its spawn key, so a recovered fault never shows in results.
* The isolated child is the cell's process boundary for
  :class:`~repro.framework.pool.Fault`: an armed fault fires there
  (inside the measured block) on attempts its draw selects — the test
  harness that proves every enforcement path end-to-end.

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

from ..algorithms.base import IMAlgorithm, SeedSelectionResult, _plain
from ..diffusion.models import PropagationModel
from ..graph.digraph import DiGraph
from .metrics import (
    FAILURE_STATUSES,
    STATUS_CRASHED,
    STATUS_DNF,
    STATUS_FAILED,
    STATUS_KILLED,
    RunRecord,
    run_with_budget,
)
from .pool import Fault, armed_fault, reap
from .telemetry import Telemetry

__all__ = [
    "IsolationConfig",
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
    property cell replay and per-pass spectrum RNGs rely on.
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

def isolation_supported() -> bool:
    """Whether subprocess isolation can run here."""
    try:
        return bool(mp.get_all_start_methods())
    except Exception:  # pragma: no cover - exotic platforms
        return False


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


def _run_budgeted(
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator,
    config: IsolationConfig,
    fault: Fault | None = None,
) -> tuple[RunRecord, SeedSelectionResult | None]:
    return run_with_budget(
        algorithm,
        graph,
        k,
        model,
        rng=rng,
        time_limit_seconds=config.time_limit_seconds,
        memory_limit_mb=config.memory_limit_mb,
        track_memory=config.track_memory or config.memory_limit_mb is not None,
        telemetry=Telemetry(label=algorithm.name) if config.telemetry else None,
        fault=fault,
    )


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
# Worker (module-level so any start method can pickle it)

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
    return {"record": _plain(asdict(record)), "result": None}


def _isolated_worker(
    conn,
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator,
    config: IsolationConfig,
    fault: Fault | None,
) -> None:
    """Run one cell in the child and ship a plain-dict payload back."""
    try:
        enforcement = _set_memory_rlimit(config.memory_limit_mb)
        record, result = _run_budgeted(
            algorithm, graph, k, model, rng, config, fault
        )
        if config.memory_limit_mb is not None:
            record.extras["memory_enforcement"] = enforcement or "tracemalloc"
        payload = {
            "record": _plain(asdict(record)),
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
# Parent side

def _run_isolated(
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator,
    config: IsolationConfig,
    fault: Fault | None,
) -> tuple[RunRecord, SeedSelectionResult | None]:
    """Run one cell in a killable subprocess.

    The parent never trusts the child to terminate: on deadline it sends
    SIGTERM, waits a short grace period, then SIGKILLs (the pool's
    :func:`~repro.framework.pool.reap`).  A child that dies without delivering a payload (segfault,
    ``os._exit``, kernel OOM kill) is recorded as ``KILLED`` with its
    exit code.  fork is preferred where available: the child inherits
    graph/model/algorithm objects without pickling (closures and lambda
    weight schemes included).
    """
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_isolated_worker,
        args=(send_conn, algorithm, graph, k, model, rng, config, fault),
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
        if recv_conn.poll(config.time_limit_seconds):
            payload = recv_conn.recv()
        else:
            timed_out = True
    except (EOFError, OSError):
        payload = None
    finally:
        elapsed = time.perf_counter() - started
        recv_conn.close()
    reap([proc], force=timed_out)
    if timed_out:
        record = RunRecord(
            algorithm=algorithm.name, model=model.name, k=k,
            status=STATUS_DNF,
            elapsed_seconds=elapsed,
            extras={
                "budget_detail": (
                    "killed at preemptive wall-clock deadline of "
                    f"{config.time_limit_seconds:.1f}s"
                ),
                "enforcement": "preemptive-kill",
            },
        )
        return record, None
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


def execute_cell(
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator | None = None,
    config: IsolationConfig | None = None,
    attempts: int = 1,
) -> tuple[RunRecord, SeedSelectionResult | None]:
    """One sweep cell, optionally isolated, with up to ``attempts`` runs.

    Only ``FAILED``/``KILLED`` (``FAILURE_STATUSES``) are retried:
    ``DNF``/``CRASHED`` are resource verdicts that a re-run under the
    same budget would reproduce.  Every attempt runs on a fresh
    ``derive_rng(rng, 0)``, so a retry replays the first attempt's
    randomness and a cell recovered from a fault reports the fault-free
    seeds; a deterministic exception fails every attempt.

    Under isolation an armed :class:`~repro.framework.pool.Fault` fires in
    the child on the attempts its ``fires(0, attempt)`` draw selects; an
    in-process cell never injects (its pools still may).

    The returned record's ``extras`` carry ``attempts`` (total runs) and,
    when any retry happened, ``attempt_history`` (statuses of the
    discarded attempts).
    """
    rng = np.random.default_rng() if rng is None else rng
    config = config or IsolationConfig(enabled=False)
    isolated = config.enabled and isolation_supported()
    fault = armed_fault() if isolated else None
    history: list[str] = []
    for attempt in range(max(1, attempts)):
        attempt_rng = derive_rng(rng, 0)
        if isolated:
            fires = fault is not None and fault.fires(0, attempt)
            record, result = _run_isolated(
                algorithm, graph, k, model, attempt_rng, config,
                fault if fires else None,
            )
        else:
            record, result = _run_budgeted(
                algorithm, graph, k, model, attempt_rng, config
            )
        if record.status not in FAILURE_STATUSES or attempt + 1 >= attempts:
            break
        history.append(record.status)
    record.extras["attempts"] = len(history) + 1
    if history:
        record.extras["attempt_history"] = history
    return record, result
