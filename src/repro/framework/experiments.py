"""Reusable experiment drivers — the programmable face of the platform.

The benchmarks under ``benchmarks/`` regenerate the paper's exact tables;
these drivers expose the same experiment *shapes* as library API so a
downstream user can run them on their own graphs:

* :func:`quality_sweep` — the Fig. 6/7 shape: roster x k-grid under a
  budget, with decoupled MC scoring and DNF-propagation to larger k.
* :func:`memory_sweep` — the Fig. 8 shape: one traced pass per technique.
* :func:`head_to_head` — repeated-run comparison of two techniques (the
  Fig. 9a-b shape behind myth M1).
* :func:`pillar_scores` — measure the (quality, time, memory) triple per
  technique, ready for :func:`repro.framework.skyline.classify_pillars`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..algorithms import registry
from ..diffusion.models import PropagationModel
from ..diffusion.simulation import monte_carlo_spread
from ..graph.digraph import DiGraph
from .isolation import IsolationConfig, execute_cell
from .metrics import BUDGET_STATUSES, RunRecord, run_with_budget
from .results import CheckpointJournal, cell_key
from .skyline import PillarScores
from .telemetry import Telemetry

__all__ = [
    "SweepConfig",
    "quality_sweep",
    "memory_sweep",
    "head_to_head",
    "pillar_scores",
]


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for the sweep drivers."""

    k_grid: tuple[int, ...] = (10, 25, 50)
    mc_simulations: int = 150
    time_limit_seconds: float | None = 15.0
    memory_limit_mb: float | None = None
    seed: int = 0
    #: Skip larger k once a technique violates its budget (cost grows
    #: with k) — the paper's own concession for CELF/SIMPATH.  Only the
    #: deterministic budget verdicts (DNF/Crashed) propagate; transient
    #: FAILED/KILLED cells do not poison larger k.
    propagate_failures: bool = True
    #: Run each selection in a killable subprocess with preemptive budgets.
    isolate: bool = False
    #: Attempts per cell for transient FAILED/KILLED statuses; a retry
    #: replays the cell on the same randomness.
    retries: int = 1
    #: Processes for the decoupled MC scoring pass.  Scoring only — a
    #: technique's own engine knobs (``rr_workers``, ``path_workers``,
    #: ...) go in its roster parameters.
    mc_workers: int | None = None
    #: Collect per-phase spans and engine counters into each cell's
    #: ``extras["telemetry"]`` (see :mod:`repro.framework.telemetry`).
    #: Off by default — the no-op path leaves results byte-identical.
    telemetry: bool = False


def _score(graph, record: RunRecord, model, config: SweepConfig) -> None:
    if record.ok:
        estimate = monte_carlo_spread(
            graph, record.seeds, model, r=config.mc_simulations,
            rng=np.random.default_rng(config.seed + 1),
            workers=config.mc_workers,
        )
        record.spread = estimate.mean
        record.spread_std = estimate.std


def quality_sweep(
    graph: DiGraph,
    model: PropagationModel,
    roster: Mapping[str, Mapping[str, Any]],
    config: SweepConfig = SweepConfig(),
    journal: CheckpointJournal | None = None,
    scope: str | None = None,
) -> dict[tuple[str, int], RunRecord]:
    """Roster x k-grid sweep: selection under budget + decoupled scoring.

    ``roster`` maps algorithm name -> constructor parameters.  Returns one
    :class:`RunRecord` per (name, k); spread/std populated for runs that
    finished.  With a ``journal``, completed cells (scored, so resume needs
    no re-simulation) are appended as they finish and a rerun of a killed
    sweep executes only the missing ones; ``scope`` (e.g. the dataset
    name) disambiguates cells when one journal spans several sweeps.
    """
    isolation = IsolationConfig(
        enabled=config.isolate,
        time_limit_seconds=config.time_limit_seconds,
        memory_limit_mb=config.memory_limit_mb,
        track_memory=config.memory_limit_mb is not None,
        telemetry=config.telemetry,
    )
    results: dict[tuple[str, int], RunRecord] = {}
    for name, params in roster.items():
        last_status = "OK"
        for k in config.k_grid:
            if config.propagate_failures and last_status in BUDGET_STATUSES:
                results[(name, k)] = RunRecord(name, model.name, k, last_status)
                continue
            key = cell_key(name, params, k, model=model.name, scope=scope)
            if journal is not None and key in journal:
                record = journal.get(key)
            else:
                record, __ = execute_cell(
                    registry.make(name, **params),
                    graph,
                    k,
                    model,
                    rng=np.random.default_rng(config.seed + k),
                    config=isolation,
                    attempts=config.retries,
                )
                _score(graph, record, model, config)
                if journal is not None:
                    journal.record(key, record)
            results[(name, k)] = record
            last_status = record.status
    return results


def memory_sweep(
    graph: DiGraph,
    model: PropagationModel,
    roster: Mapping[str, Mapping[str, Any]],
    k: int,
    config: SweepConfig = SweepConfig(),
) -> dict[str, RunRecord]:
    """One traced (tracemalloc) pass per technique at a single k."""
    results: dict[str, RunRecord] = {}
    for name, params in roster.items():
        record, __ = run_with_budget(
            registry.make(name, **params),
            graph,
            k,
            model,
            rng=np.random.default_rng(config.seed + k),
            time_limit_seconds=config.time_limit_seconds,
            memory_limit_mb=config.memory_limit_mb,
            track_memory=True,
            telemetry=Telemetry(label=name) if config.telemetry else None,
        )
        _score(graph, record, model, config)
        results[name] = record
    return results


def head_to_head(
    graph: DiGraph,
    model: PropagationModel,
    first: tuple[str, Mapping[str, Any]],
    second: tuple[str, Mapping[str, Any]],
    k: int,
    runs: int = 12,
    seed: int = 0,
) -> dict[str, list[RunRecord]]:
    """Repeated independent runs of two techniques (the M1 experiment)."""
    if runs < 1:
        raise ValueError("runs must be positive")
    outcomes: dict[str, list[RunRecord]] = {first[0]: [], second[0]: []}
    for run in range(runs):
        for name, params in (first, second):
            record, __ = run_with_budget(
                registry.make(name, **dict(params)),
                graph,
                k,
                model,
                rng=np.random.default_rng(seed + run),
                track_memory=False,
            )
            outcomes[name].append(record)
    return outcomes


def pillar_scores(
    graph: DiGraph,
    model: PropagationModel,
    roster: Mapping[str, Mapping[str, Any]],
    k: int,
    config: SweepConfig = SweepConfig(),
) -> list[PillarScores]:
    """Quality/time/memory triples per technique (Fig. 11a input)."""
    scores: list[PillarScores] = []
    for name, record in memory_sweep(graph, model, roster, k, config).items():
        if not record.ok or record.spread is None:
            continue
        scores.append(
            PillarScores(
                name=name,
                quality=record.spread,
                time_seconds=record.elapsed_seconds,
                memory_mb=record.peak_memory_mb or 0.0,
            )
        )
    return scores
