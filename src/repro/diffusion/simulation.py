"""Spread computation (Alg. 1) and Monte-Carlo estimation of σ(S).

``Γ(S)`` — the spread of one cascade realization — is the number of active
nodes when diffusion stops (Definition 6).  The quantity every IM algorithm
optimizes is the expectation σ(S) = E[Γ(S)], estimated by ``r`` independent
Monte-Carlo simulations; Kempe et al. recommend r = 10,000, which is the
library default.  Benchmarks use smaller ``r`` appropriate to the scaled
datasets (see the Fig. 12 convergence bench).

Cascades are batched (:func:`cascade_sizes`): ``max(1, MC_BATCH_CELLS //
n)`` cascades grow together over one ``(cascade, node)`` visited bitmap,
with one pass of numpy calls per BFS level instead of one Python BFS per
cascade.  The level loop is the RR sampler's
(:func:`repro.diffusion._frontier.grow_levels`), run on the out-CSR, with
levels cut into slices of at most ``MC_SLICE_EDGES`` out-edges.  Both
sizes are module constants, not options.  ``workers > 1`` fans the
cascades out over a ``SeedSequence``-spawned process pool; each worker
runs the same kernel on its chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.digraph import DiGraph
from ._frontier import grow_levels
from .models import Dynamics, PropagationModel

__all__ = [
    "DEFAULT_MC_SIMULATIONS",
    "MC_BATCH_CELLS",
    "MC_SLICE_EDGES",
    "SpreadEstimate",
    "cascade_sizes",
    "monte_carlo_spread",
]

DEFAULT_MC_SIMULATIONS = 10_000

#: Visited-bitmap cells of one cascade batch: a batch holds
#: ``max(1, MC_BATCH_CELLS // n)`` cascades.
MC_BATCH_CELLS = 2**16

#: Out-edges one level slice may examine (a node with more out-edges
#: forms its own slice).  It bounds the slice's transient arrays.
MC_SLICE_EDGES = 2**14

def _tele():
    # Lazy: a top-level framework import from diffusion would be circular
    # (framework → runner → algorithm registry → diffusion engines).
    from ..framework.telemetry import current

    return current()


@dataclass(frozen=True)
class SpreadEstimate:
    """σ(S) estimate: sample mean, standard deviation, and sample count."""

    mean: float
    std: float
    simulations: int

    @property
    def stderr(self) -> float:
        """Standard error of the mean (the Fig.-12 error bar)."""
        if self.simulations <= 0:
            return float("nan")
        return self.std / np.sqrt(self.simulations)


def cascade_sizes(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Γ(S) of ``count`` independent cascades, in cascade order (float64).

    Cascades run in batches; every cascade of a batch grows at once,
    keyed ``cascade * n + node`` in one visited bitmap, so cascades share
    no state.  Duplicate seeds count once.

    * IC: each newly active (cascade, node) has its out-edges tried
      exactly once in that cascade, one independent coin per edge.
    * LT: the live-edge form.  Each (cascade, node) draws once and keeps
      at most one in-edge: edge ``j`` with probability ``w_j``, or none.
      A frontier node activates an out-neighbour iff that neighbour's
      kept in-edge is the edge it arrives by, which has the law of the
      threshold model (Kempe et al.'s equivalence).  Like the RR
      sampler's LT walk, it assumes every node's in-weights sum to at
      most 1, which every scheme in :mod:`repro.graph.weights`
      guarantees.
    """
    n = graph.n
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size and (seeds[0] < 0 or seeds[-1] >= n):
        raise ValueError("seeds must be node ids of the graph")
    sizes = np.zeros(count, dtype=np.float64)
    if seeds.size == 0 or count <= 0:
        return sizes
    step = max(1, MC_BATCH_CELLS // n)
    visited = np.zeros(min(step, count) * n, dtype=bool)
    if dynamics is Dynamics.IC:
        out_w = graph.out_w

        def live(edge, row, frontier):
            return rng.random(edge.size) < out_w[edge]

    elif dynamics is Dynamics.LT:
        # A node's one uniform draw ``x`` keeps the in-edge whose interval
        # ``[lower, lower + w)`` holds it, the intervals tiling
        # ``[0, sum(w))`` in in-CSR order; past the last one it keeps none.
        lower = graph.in_w_before
        draws = np.empty(visited.size, dtype=np.float64)
        out_dst, out_w = graph.out_dst, graph.out_w

        def live(edge, row, frontier):
            tail = frontier[row]
            offset = draws[tail - tail % n + out_dst[edge]] - lower[edge]
            return (offset >= 0.0) & (offset < out_w[edge])

    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unsupported dynamics {dynamics!r}")
    for lo in range(0, count, step):
        batch = min(step, count - lo)
        if dynamics is Dynamics.LT:
            rng.random(out=draws[: batch * n])
        keys = (np.arange(batch, dtype=np.int64)[:, None] * n + seeds).ravel()
        members = grow_levels(
            graph.out_ptr, graph.out_dst, n, visited, keys, live, MC_SLICE_EDGES
        )
        sizes[lo : lo + batch] = np.bincount(members // n, minlength=batch)
        visited[members] = False  # clean bitmap for the next batch
    return sizes


def _simulate_chunk(
    graph: DiGraph,
    seeds: list[int],
    dynamics: "Dynamics",
    count: int,
    seed_sequence_state: dict,
) -> np.ndarray:
    """Worker for parallel MC: ``count`` independent cascades.

    Module-level so it pickles; the RNG is rebuilt from a spawned
    ``SeedSequence``, so the chunk's output is fixed by its spawn-key
    state and a lost chunk replays byte-identically.
    """
    rng = np.random.default_rng(np.random.SeedSequence(**seed_sequence_state))
    return cascade_sizes(graph, seeds, dynamics, count, rng)


def monte_carlo_spread(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    model: PropagationModel | Dynamics,
    r: int = DEFAULT_MC_SIMULATIONS,
    rng: np.random.Generator | None = None,
    return_samples: bool = False,
    workers: int | None = None,
) -> SpreadEstimate | tuple[SpreadEstimate, np.ndarray]:
    """Estimate σ(S) by ``r`` independent cascade simulations.

    Accepts either a full :class:`PropagationModel` (whose dynamics are
    used — the graph must already carry that model's weights) or bare
    :class:`Dynamics`.  ``return_samples`` also returns the per-cascade
    spreads, in cascade order.

    ``workers > 1`` fans the simulations out over a process pool — the
    paper's 10K-simulation evaluation protocol is embarrassingly parallel.
    Worker streams are spawned from one ``SeedSequence``, so results are
    reproducible for a fixed (r, workers) pair, though they differ from
    the serial draw order.
    """
    if r < 1:
        raise ValueError("r must be positive")
    dynamics = model.dynamics if isinstance(model, PropagationModel) else model
    rng = np.random.default_rng() if rng is None else rng
    tele = _tele()
    with tele.span("mc.spread"):
        if workers is not None and workers > 1:
            samples = _parallel_samples(graph, seeds, dynamics, r, rng, workers)
        else:
            samples = cascade_sizes(graph, seeds, dynamics, r, rng)
    tele.count("mc.simulations", r)
    estimate = SpreadEstimate(
        mean=float(samples.mean()),
        # ddof=1 on a single sample is 0/0 -> NaN; a lone draw carries no
        # dispersion information, so report 0 instead.
        std=float(samples.std(ddof=1)) if r > 1 else 0.0,
        simulations=r,
    )
    if return_samples:
        return estimate, samples
    return estimate


def _parallel_samples(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    dynamics: Dynamics,
    r: int,
    rng: np.random.Generator,
    workers: int,
) -> np.ndarray:
    """Fan ``r`` simulations out over the resilient worker pool."""
    # Lazy for the same circular-import reason as _tele.
    from ..framework.pool import run_chunks

    seed_list = [int(s) for s in np.asarray(seeds, dtype=np.int64)]
    base = int(rng.integers(0, 2**63 - 1))
    chunks = np.full(workers, r // workers, dtype=np.int64)
    chunks[: r % workers] += 1
    chunks = chunks[chunks > 0]
    states = [{"entropy": base, "spawn_key": (i,)} for i in range(len(chunks))]
    _tele().count("mc.worker_chunks", len(chunks))
    # Chunks draw from spawn-key-derived streams, so a lost chunk replays
    # byte-identically and the concatenation order is fixed by chunk index.
    # The graph, seed set and dynamics are chunk-invariant and travel via
    # the shared-args transport (shm arena / once-per-worker pickle).
    parts = run_chunks(
        _simulate_chunk,
        [(int(c), s) for c, s in zip(chunks, states)],
        workers=len(chunks),
        label="mc.spread",
        shared=(graph, seed_list, dynamics),
    )
    return np.concatenate(parts)
