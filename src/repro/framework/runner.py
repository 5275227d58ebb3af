"""IMFramework — the generalized IM module of Alg. 3.

The paper's central methodological move: *decouple* seed selection from
spread computation so every technique is judged by the same unbiased MC
estimate (Sec. 5.1, "Computing expected spread"), and sweep each
technique's external parameter spectrum from most to least accurate,
stopping at the cheapest setting whose spread has not degraded
(Sec. 3.1.3).

Execution is hardened (see :mod:`repro.framework.isolation`): each pass
can run process-isolated under preemptive budgets, transient failures can
be retried (a retry replays the pass on the same randomness), and
completed cells can be journaled so a killed spectrum walk resumes
without re-running finished work.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..algorithms import registry
from ..algorithms.base import IMAlgorithm
from ..diffusion.models import PropagationModel
from ..diffusion.simulation import SpreadEstimate, monte_carlo_spread
from ..graph.digraph import DiGraph
from . import telemetry as _telemetry
from .convergence import converged
from .isolation import IsolationConfig, derive_rng, execute_cell
from .metrics import RunRecord
from .results import CheckpointJournal, cell_key

__all__ = ["FrameworkTrace", "IMFramework"]


@dataclass
class FrameworkTrace:
    """Everything observed across the parameter spectrum of one run.

    ``chosen_index`` stays ``-1`` when no configuration completed OK; the
    ``chosen*`` accessors then raise :class:`LookupError` instead of
    silently reporting a failed run as the chosen configuration — inspect
    :attr:`failure` (or :attr:`records`) for what went wrong.
    """

    algorithm: str
    model: str
    k: int
    records: list[RunRecord] = field(default_factory=list)
    estimates: list[SpreadEstimate] = field(default_factory=list)
    parameters: list[dict[str, Any]] = field(default_factory=list)
    chosen_index: int = -1

    def _require_chosen(self) -> int:
        if self.chosen_index < 0:
            statuses = [r.status for r in self.records]
            raise LookupError(
                f"no configuration of {self.algorithm} completed OK "
                f"(statuses: {statuses}); inspect trace.records or trace.failure"
            )
        return self.chosen_index

    @property
    def chosen(self) -> RunRecord:
        return self.records[self._require_chosen()]

    @property
    def chosen_estimate(self) -> SpreadEstimate:
        return self.estimates[self._require_chosen()]

    @property
    def chosen_parameters(self) -> dict[str, Any]:
        return self.parameters[self._require_chosen()]

    @property
    def failure(self) -> RunRecord | None:
        """First non-OK record of the walk, or None if everything ran."""
        for record in self.records:
            if not record.ok:
                return record
        return None


class IMFramework:
    """Alg. 3: seed selection + decoupled spread computation + convergence.

    Parameters
    ----------
    graph:
        Weighted graph (already carrying the model's edge weights).
    model:
        The propagation model the weights correspond to.
    mc_simulations:
        ``r`` of Alg. 3 — simulations for the decoupled spread estimate.
    tolerance_std:
        Convergence band width in standard deviations (Sec. 5.1.1 uses 1).
    isolation:
        Optional :class:`IsolationConfig`; when given it governs how each
        selection pass executes (subprocess + preemptive budgets).  When
        omitted, passes run cooperatively in-process under the framework's
        ``time_limit_seconds``/``memory_limit_mb``.
    retries:
        Attempts per selection pass for transient ``FAILED``/``KILLED``
        statuses (1 = no retry); each retry replays the pass on the same
        randomness.
    journal:
        Optional :class:`CheckpointJournal` (or a path) — completed cells
        are appended and a rerun skips them.  ``journal_scope`` (e.g. a
        dataset name) widens the cell keys when one journal spans sweeps.
    mc_workers:
        Processes for the decoupled spread estimate (Sec. 5.1's
        10K-simulation protocol).  It shapes the scoring pass only; a
        technique's own engine knobs
        (``rr_workers``, ``mc_workers``, ``spread_oracle``,
        ``path_workers``, ...) are constructor parameters and travel in
        the spectrum's parameter dicts, so they are part of each journal
        cell key.
    telemetry:
        Optional :class:`~repro.framework.telemetry.Telemetry` session
        handle.  When given, every selection pass collects per-phase
        spans and counters into ``RunRecord.extras["telemetry"]`` (also
        across the isolation subprocess boundary), each cell's snapshot
        is absorbed into this handle, and the decoupled MC scoring runs
        under a ``score`` span.  ``None`` (the default) keeps the no-op
        fast path: seed sets and timings are byte-identical to a build
        without telemetry.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: PropagationModel,
        mc_simulations: int = 10_000,
        tolerance_std: float = 1.0,
        time_limit_seconds: float | None = None,
        memory_limit_mb: float | None = None,
        track_memory: bool = False,
        isolation: IsolationConfig | None = None,
        retries: int = 1,
        journal: CheckpointJournal | str | os.PathLike | None = None,
        journal_scope: str | None = None,
        mc_workers: int | None = None,
        telemetry: "_telemetry.Telemetry | None" = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.mc_simulations = mc_simulations
        self.tolerance_std = tolerance_std
        self.time_limit_seconds = time_limit_seconds
        self.memory_limit_mb = memory_limit_mb
        # The cooperative memory ceiling is tracemalloc-based; a limit
        # without tracking would silently never fire (run_with_budget
        # rejects that combination outright).
        self.track_memory = track_memory or memory_limit_mb is not None
        self.isolation = isolation
        self.retries = retries
        if journal is not None and not isinstance(journal, CheckpointJournal):
            journal = CheckpointJournal(journal)
        self.journal = journal
        self.journal_scope = journal_scope
        self.mc_workers = mc_workers
        self.telemetry = telemetry

    # ------------------------------------------------------------------

    def _isolation_config(self) -> IsolationConfig:
        collect = self.telemetry is not None
        if self.isolation is not None:
            if collect and not self.isolation.telemetry:
                return dataclasses.replace(self.isolation, telemetry=True)
            return self.isolation
        return IsolationConfig(
            enabled=False,
            time_limit_seconds=self.time_limit_seconds,
            memory_limit_mb=self.memory_limit_mb,
            track_memory=self.track_memory,
            telemetry=collect,
        )

    def evaluate(
        self,
        algorithm: IMAlgorithm,
        k: int,
        rng: np.random.Generator | None = None,
    ) -> RunRecord:
        """One Alg.-3 inner pass: select seeds, then estimate σ(S) by MC.

        Selection and MC estimation run on independently derived child
        RNGs so the spread estimate is never correlated with the
        technique's own selection randomness.
        """
        rng = np.random.default_rng() if rng is None else rng
        select_rng = derive_rng(rng, 0)
        mc_rng = derive_rng(rng, 1)
        record, __ = execute_cell(
            algorithm,
            self.graph,
            k,
            self.model,
            rng=select_rng,
            config=self._isolation_config(),
            attempts=self.retries,
        )
        if self.telemetry is not None:
            self.telemetry.absorb(record.extras.get("telemetry"))
        if record.ok:
            activation = (
                _telemetry.activate(self.telemetry)
                if self.telemetry is not None
                else nullcontext(_telemetry.current())
            )
            with activation as tele, tele.span("score"):
                estimate = monte_carlo_spread(
                    self.graph, record.seeds, self.model, r=self.mc_simulations,
                    rng=mc_rng, workers=self.mc_workers,
                )
            record.spread = estimate.mean
            record.spread_std = estimate.std
        return record

    def run(
        self,
        algorithm_name: str,
        k: int,
        parameter_spectrum: Sequence[dict[str, Any]] | None = None,
        rng: np.random.Generator | None = None,
    ) -> FrameworkTrace:
        """Full Alg. 3: walk the spectrum until convergence fails.

        ``parameter_spectrum`` must be ordered from most to least accurate
        (α_1 first).  With ``None`` (parameter-free techniques) a single
        default-configured pass runs.  Each pass gets an independently
        derived child RNG, and journaled cells are reused instead of
        re-executed.
        """
        rng = np.random.default_rng() if rng is None else rng
        spectrum = list(parameter_spectrum) if parameter_spectrum else [{}]
        trace = FrameworkTrace(algorithm=algorithm_name, model=self.model.name, k=k)
        best_estimate: SpreadEstimate | None = None
        for i, params in enumerate(spectrum):
            key = cell_key(
                algorithm_name, params, k,
                model=self.model.name, scope=self.journal_scope,
            )
            if self.journal is not None and key in self.journal:
                record = self.journal.get(key)
            else:
                algorithm = registry.make(algorithm_name, **params)
                record = self.evaluate(algorithm, k, rng=derive_rng(rng, i))
                if self.journal is not None:
                    self.journal.record(key, record)
            estimate = SpreadEstimate(
                mean=record.spread if record.spread is not None else float("-inf"),
                std=record.spread_std or 0.0,
                simulations=self.mc_simulations,
            )
            trace.records.append(record)
            trace.estimates.append(estimate)
            trace.parameters.append(dict(params))
            if not record.ok:
                break
            if best_estimate is None:
                best_estimate = estimate
                trace.chosen_index = i
                continue
            if converged(best_estimate, estimate, self.tolerance_std):
                trace.chosen_index = i
            else:
                break
        return trace
