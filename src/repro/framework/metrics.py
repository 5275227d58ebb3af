"""Resource measurement and budget enforcement.

The paper's testbed policies — "DNF indicates that the algorithm did not
terminate even after 40 hours", "Crashed indicates that the algorithm
crashed due to running out of memory" (Table 3) — are reproduced here as
a :class:`ResourceBudget` that selection code checkpoints against, plus a
:func:`run_with_budget` harness that converts budget violations into
statuses instead of exceptions.

Memory is tracked with :mod:`tracemalloc` (peak traced allocation), which
slows Python by a small constant factor; it is optional for pure-runtime
benches.
"""

from __future__ import annotations

import time
import traceback
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..algorithms.base import BudgetExceeded, IMAlgorithm, SeedSelectionResult
from ..diffusion.models import PropagationModel
from ..graph.digraph import DiGraph
from . import telemetry as _telemetry
from .pool import Fault, PoolError

__all__ = [
    "ResourceBudget",
    "Measurement",
    "measure",
    "RunRecord",
    "run_with_budget",
    "STATUS_OK",
    "STATUS_DNF",
    "STATUS_CRASHED",
    "STATUS_FAILED",
    "STATUS_KILLED",
    "BUDGET_STATUSES",
    "FAILURE_STATUSES",
]

STATUS_OK = "OK"
STATUS_DNF = "DNF"
STATUS_CRASHED = "CRASHED"
#: Unexpected exception during selection; traceback in ``extras["failure"]``.
STATUS_FAILED = "FAILED"
#: The isolated worker died without reporting (hard kill, segfault, OOM kill).
STATUS_KILLED = "KILLED"

#: Resource verdicts — deterministic under a fixed budget, never retried,
#: and propagated to larger k by the sweep drivers (the paper's concession
#: for CELF/SIMPATH).
BUDGET_STATUSES = (STATUS_DNF, STATUS_CRASHED)
#: Possibly-transient verdicts: the statuses ``execute_cell(attempts=n)``
#: retries, each retry replaying the cell on the same randomness.
FAILURE_STATUSES = (STATUS_FAILED, STATUS_KILLED)


class ResourceBudget:
    """Time and memory ceilings checked cooperatively from inner loops."""

    def __init__(
        self,
        time_limit_seconds: float | None = None,
        memory_limit_mb: float | None = None,
    ) -> None:
        self.time_limit_seconds = time_limit_seconds
        self.memory_limit_mb = memory_limit_mb
        self._started_at: float | None = None

    def start(self) -> None:
        self._started_at = time.perf_counter()

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if either ceiling is breached."""
        if self.time_limit_seconds is not None and self._started_at is not None:
            if self.elapsed() > self.time_limit_seconds:
                raise BudgetExceeded(
                    STATUS_DNF,
                    f"exceeded time limit of {self.time_limit_seconds:.1f}s",
                )
        if self.memory_limit_mb is not None and tracemalloc.is_tracing():
            __, peak = tracemalloc.get_traced_memory()
            if peak / 1e6 > self.memory_limit_mb:
                raise BudgetExceeded(
                    STATUS_CRASHED,
                    f"exceeded memory limit of {self.memory_limit_mb:.0f} MB",
                )


@dataclass(frozen=True)
class Measurement:
    """Wall time and peak traced memory of a measured block."""

    elapsed_seconds: float
    peak_memory_mb: float | None


#: Active tracking ``measure()`` frames, innermost last.  tracemalloc has a
#: single process-wide peak, so a nested block's ``reset_peak()`` would
#: erase everything the enclosing block had accumulated; each frame records
#: the peak it clobbered (``outer_peak``) and the nested peaks reported to
#: it (``inner_peak``) so every level still reports its true maximum.
_MEASURE_FRAMES: list[dict[str, int]] = []


@contextmanager
def measure(track_memory: bool = True) -> Iterator[list[Measurement]]:
    """Context manager appending one :class:`Measurement` to the yielded list.

    Nesting is supported: an inner ``measure()`` restores the peak it
    stole from the enclosing block, so the outer measurement reports
    ``max`` over its whole window, not just the tail after the inner
    block's ``reset_peak()``.
    """
    sink: list[Measurement] = []
    was_tracing = tracemalloc.is_tracing()
    if track_memory and not was_tracing:
        tracemalloc.start()
    tracking = track_memory and tracemalloc.is_tracing()
    frame = {"outer_peak": 0, "inner_peak": 0}
    if tracking:
        __, frame["outer_peak"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _MEASURE_FRAMES.append(frame)
    started = time.perf_counter()
    try:
        yield sink
    finally:
        elapsed = time.perf_counter() - started
        peak_mb: float | None = None
        if tracking:
            _MEASURE_FRAMES.pop()
            __, peak = tracemalloc.get_traced_memory()
            peak = max(peak, frame["inner_peak"])
            peak_mb = peak / 1e6
            if not was_tracing:
                tracemalloc.stop()
            elif _MEASURE_FRAMES:
                # Hand the enclosing frame everything its window actually
                # saw: its pre-reset peak plus this whole nested episode.
                parent = _MEASURE_FRAMES[-1]
                parent["inner_peak"] = max(
                    parent["inner_peak"], peak, frame["outer_peak"]
                )
        sink.append(Measurement(elapsed, peak_mb))


@dataclass
class RunRecord:
    """One (algorithm, dataset, model, k) cell of the paper's tables."""

    algorithm: str
    model: str
    k: int
    status: str
    seeds: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    peak_memory_mb: float | None = None
    spread: float | None = None
    spread_std: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def rr_pool_mb(self) -> float | None:
        """RR-pool CSR footprint in MB, when the technique reported one.

        tracemalloc peaks underestimate a pool that is populated and
        freed in phases; the flat engine reports the arrays' true size in
        ``extras["rr_pool_bytes"]``, surfaced here for memory benchmarks.
        """
        raw = self.extras.get("rr_pool_bytes")
        if raw is None:
            return None
        return float(raw) / 1e6

    def cell(self) -> str:
        """Table-3-style cell: spread/time/memory or DNF/Crashed."""
        if not self.ok:
            return self.status
        mem = f"{self.peak_memory_mb:.0f}MB" if self.peak_memory_mb is not None else "-"
        spread = f"{self.spread:.1f}" if self.spread is not None else "-"
        return f"{spread} / {self.elapsed_seconds:.2f}s / {mem}"


def run_with_budget(
    algorithm: IMAlgorithm,
    graph: DiGraph,
    k: int,
    model: PropagationModel,
    rng: np.random.Generator | None = None,
    time_limit_seconds: float | None = None,
    memory_limit_mb: float | None = None,
    track_memory: bool = True,
    telemetry: "_telemetry.Telemetry | None" = None,
    fault: Fault | None = None,
) -> tuple[RunRecord, SeedSelectionResult | None]:
    """Run seed selection under a budget, mapping violations to statuses.

    Nothing an algorithm raises escapes as an exception: budget violations
    become ``DNF``/``CRASHED``, ``MemoryError`` becomes ``CRASHED``, and
    any other exception becomes ``FAILED`` with the traceback captured in
    ``extras["failure"]`` — one bad cell never aborts a sweep.

    ``telemetry`` activates a collecting handle around the selection call
    (root span ``select:<name>``) and stores its snapshot in
    ``extras["telemetry"]`` — even for failed cells, where the partial
    span tree shows which phase died.  ``None`` inherits whatever handle
    is already ambient (usually :data:`repro.framework.telemetry.NULL`),
    leaving records untouched.

    ``fault`` is fired inside the measured block and the ``select:``
    span, just before selection; only the isolated cell's child passes
    one (see :func:`~repro.framework.isolation.execute_cell`), so an
    injected fault maps to a status exactly like a real one.
    """
    if memory_limit_mb is not None and not track_memory:
        raise ValueError(
            "memory_limit_mb requires track_memory=True: the cooperative "
            "ceiling is enforced via tracemalloc, so with tracking off it "
            "would silently never fire"
        )
    rng = np.random.default_rng() if rng is None else rng
    budget = ResourceBudget(time_limit_seconds, memory_limit_mb)
    budget.start()
    result: SeedSelectionResult | None = None
    status = STATUS_OK
    detail: dict[str, Any] = {}
    activation = (
        _telemetry.activate(telemetry)
        if telemetry is not None
        else nullcontext(_telemetry.current())
    )
    with measure(track_memory=track_memory) as sink, activation as tele:
        try:
            with tele.span(f"select:{algorithm.name}"):
                if fault is not None:
                    fault.fire()
                result = algorithm.select(graph, k, model, rng=rng, budget=budget)
        except BudgetExceeded as exc:
            status = exc.status
            detail["budget_detail"] = exc.detail
        except MemoryError:
            status = STATUS_CRASHED
            detail["budget_detail"] = "MemoryError"
        except Exception as exc:
            status = STATUS_FAILED
            detail["failure"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            if isinstance(exc, PoolError):
                # Inner worker-pool failures (quarantined chunk, collapse
                # during serial downgrade) keep their structured detail so
                # a FAILED cell says *which* chunk poisoned it.
                detail["failure"]["pool"] = exc.details
    if telemetry is not None:
        detail["telemetry"] = telemetry.snapshot()
    m = sink[0]
    record = RunRecord(
        algorithm=algorithm.name,
        model=model.name,
        k=k,
        status=status,
        seeds=result.seeds if result else [],
        elapsed_seconds=m.elapsed_seconds,
        peak_memory_mb=m.peak_memory_mb,
        extras={**(result.extras if result else {}), **detail},
    )
    return record, result
