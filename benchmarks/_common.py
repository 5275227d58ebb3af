"""Shared infrastructure for the per-table/per-figure benchmarks.

Every bench regenerates one table or figure of the paper on the scaled
dataset analogues (see DESIGN.md §1 for the substitutions).  The rendered
rows/series are printed and also written to ``benchmarks/results/`` so the
paper-vs-measured comparison of EXPERIMENTS.md can be refreshed.

Scaling knobs used throughout (documented here once):

* ``MC_EVAL`` — simulations for the decoupled spread estimate (the paper
  uses 10K on C++; the Fig.-12 bench shows estimates at our graph sizes
  stabilize well below that).  Every estimate runs the batched cascade
  kernel of ``monte_carlo_spread``; ``REPRO_BENCH_MC_WORKERS`` (below)
  is its only execution knob.
* ``RR_SCALE`` — multiplier on TIM+/IMM sample-size bounds.  The bounds
  assume native-code throughput; the multiplier preserves their ε-shape
  (θ ∝ 1/ε²) at pure-Python cost.
* ``TIME_LIMIT`` / ``MEMORY_LIMIT`` — the proportional analogues of the
  paper's 40-hour wall and 256 GB RAM; violations render as DNF / Crashed
  exactly as in Table 3.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from repro.datasets import load
from repro.diffusion import monte_carlo_spread
from repro.diffusion.models import IC, LT, WC, PropagationModel
from repro.framework import (
    CheckpointJournal,
    IsolationConfig,
    cell_key,
    execute_cell,
    write_trace,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

MC_EVAL = 150
RR_SCALE = 0.01
TIME_LIMIT = 15.0
MEMORY_LIMIT_MB = 300.0

# Hardened-execution knobs, env-switchable so a long sweep can be run
# process-isolated and resumed after a kill without editing any bench:
#   REPRO_BENCH_ISOLATE=1     subprocess isolation + preemptive budgets
#   REPRO_BENCH_RETRIES=n     attempts for transient FAILED/KILLED cells;
#                             a retry replays the cell on the same
#                             randomness
#   REPRO_BENCH_RESUME=1      journal cells under results/journals/ and skip
#                             already-completed ones on rerun
#   REPRO_BENCH_MC_WORKERS=n  parallel Monte-Carlo simulation of the
#                             decoupled scoring estimate (evaluate_spread)
#   (A technique's engine knobs — rr_workers, mc_workers, spread_oracle,
#   path_workers — are constructor parameters and are never copied in
#   from these; bench_rr_engine.py and bench_path_engine.py read their own
#   REPRO_BENCH_RR_WORKERS / REPRO_BENCH_PATH_WORKERS.)
#   REPRO_BENCH_TRACE=path    collect per-cell telemetry (phase spans and
#                             engine counters) and append it as JSONL to
#                             the given file; summarize with
#                             ``python -m repro trace path``
#   REPRO_BENCH_POOL_RETRIES=n
#                             per-chunk retry budget of the resilient
#                             worker pool (repro.framework.pool) that all
#                             parallel engines fan out through; a chunk
#                             failing n times is quarantined -> cell FAILED
#                             (read by the pool itself in every process)
#   REPRO_SHM_MIN_BYTES=b     minimum total ndarray bytes in a pool call's
#                             shared args before they ship through the
#                             shared-memory arena instead of pickle
#                             (default 1 MiB; 0 = always use the arena)
#   REPRO_SHM_DISABLE=1       force the once-per-worker pickle transport
#                             for shared args (the arena is default-on)
#   REPRO_FAULT_RATE=r        arm the fault injector (repro.framework.Fault)
#                             at rate r (with REPRO_FAULT_MODE=kill|hang|
#                             raise|oom|corrupt, REPRO_FAULT_SEED) —
#                             chaos-testing knob.  It fires in pool workers
#                             and, with REPRO_BENCH_ISOLATE=1, in each
#                             isolated cell's child; results stay
#                             byte-identical when the fault is recovered,
#                             because lost chunks replay from their spawn
#                             keys and retried cells replay their RNG
BENCH_ISOLATE = os.environ.get("REPRO_BENCH_ISOLATE", "") == "1"
BENCH_RETRIES = int(os.environ.get("REPRO_BENCH_RETRIES", "1") or "1")
BENCH_RESUME = os.environ.get("REPRO_BENCH_RESUME", "") == "1"
BENCH_MC_WORKERS = int(os.environ.get("REPRO_BENCH_MC_WORKERS", "0") or "0")
BENCH_TRACE = os.environ.get("REPRO_BENCH_TRACE", "") or None
JOURNAL_DIR = RESULTS_DIR / "journals"

#: Per-algorithm constructor parameters scaled for pure Python.  epsilon /
#: snapshot counts follow Table 2; only the implementation-scale knobs
#: (rr_scale, MC counts) are reduced.
SCALED_PARAMS: dict[str, dict] = {
    "CELF": {"mc_simulations": 10},
    "CELF++": {"mc_simulations": 10},
    "GREEDY": {"mc_simulations": 10},
    "TIM+": {"rr_scale": RR_SCALE},
    "IMM": {"rr_scale": RR_SCALE},
    "StaticGreedy": {"num_snapshots": 50},
    "PMC": {"num_snapshots": 50},
    "EaSyIM": {"path_length": 3},
    "RIS": {"num_rr_sets": 2000},
}

_WEIGHTED_CACHE: dict[tuple[str, str], object] = {}


def weighted_dataset(name: str, model: PropagationModel):
    """Weighted analogue graph, cached across benches in one session."""
    key = (name, model.name)
    if key not in _WEIGHTED_CACHE:
        _WEIGHTED_CACHE[key] = model.weighted(
            load(name), np.random.default_rng(0)
        )
    return _WEIGHTED_CACHE[key]


def scaled_params(name: str, model: PropagationModel | None = None, **overrides):
    """Table-2 parameters merged with the Python-scale adjustments."""
    from repro.algorithms.registry import optimal_parameters

    params = {}
    if model is not None:
        params.update(optimal_parameters(name, model))
    params.update(SCALED_PARAMS.get(name, {}))
    params.update(overrides)
    return params


def evaluate_spread(
    graph,
    seeds,
    model,
    r: int = MC_EVAL,
    seed: int = 99,
    workers: int | None = None,
):
    """Decoupled σ(S) estimate (the Sec.-5.1 uniform comparison point)."""
    return monte_carlo_spread(
        graph, seeds, model, r=r, rng=np.random.default_rng(seed),
        workers=workers or (BENCH_MC_WORKERS if BENCH_MC_WORKERS > 1 else None),
    )


def bench_journal(name: str) -> CheckpointJournal | None:
    """Checkpoint journal for one bench, or None when resume is off."""
    if not BENCH_RESUME:
        return None
    JOURNAL_DIR.mkdir(parents=True, exist_ok=True)
    return CheckpointJournal(JOURNAL_DIR / f"{name}.jsonl")


def run_cell(
    algo,
    graph,
    k: int,
    model: PropagationModel,
    *,
    seed: int = 1,
    time_limit: float | None = TIME_LIMIT,
    memory_limit_mb: float | None = None,
    journal: CheckpointJournal | None = None,
    scope: str | None = None,
    params: dict | None = None,
    score=None,
):
    """One sweep cell under the hardened executor.

    Honours the env knobs above: isolation, bounded replaying retries, and
    journal skip/append when ``journal`` is given (``params``/``scope``
    identify the cell across reruns).  ``score`` is called on an OK record
    before journaling so resumed cells carry their spread estimate.
    """
    key = cell_key(algo.name, params or {}, k, model=model.name, scope=scope)
    if journal is not None and key in journal:
        return journal.get(key)
    record, __ = execute_cell(
        algo,
        graph,
        k,
        model,
        rng=np.random.default_rng(seed),
        config=IsolationConfig(
            enabled=BENCH_ISOLATE,
            time_limit_seconds=time_limit,
            memory_limit_mb=memory_limit_mb,
            track_memory=memory_limit_mb is not None,
            telemetry=BENCH_TRACE is not None,
        ),
        attempts=BENCH_RETRIES,
    )
    if score is not None and record.ok:
        score(record)
    if BENCH_TRACE is not None:
        write_trace(BENCH_TRACE, record.extras.get("telemetry"),
                    cell=key, record=record)
    if journal is not None:
        journal.record(key, record)
    return record


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print(f"\n=== {name} ===\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
