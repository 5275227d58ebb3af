"""Independent Cascade dynamics (Definition 4).

Time unfolds in discrete steps; each newly activated node ``u`` gets one
independent attempt to activate each out-neighbour ``v`` with probability
``W(u, v)``.  The cascade ends when a step activates nobody (Alg. 1).
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import DiGraph
from ._frontier import expand_slices

__all__ = ["simulate_ic", "simulate_ic_times"]


def simulate_ic(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one IC cascade from ``seeds``; return the active-node mask Va.

    Each edge out of a newly active node is tried exactly once, so a node
    that fails to activate a neighbour never retries — per Definition 4.
    It is the set of nodes :func:`simulate_ic_times` gives a time, drawn
    on the same coins.
    """
    return simulate_ic_times(graph, seeds, rng) >= 0


def simulate_ic_times(
    graph: DiGraph,
    seeds: np.ndarray | list[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """One IC cascade recording *when* each node activated.

    Returns the activation time step per node (0 for seeds, -1 for nodes
    never activated).  Used by the influence-probability learning substrate
    (:mod:`repro.learning`), which needs temporally ordered action logs.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    times = np.full(graph.n, -1, dtype=np.int64)
    if seeds.size == 0:
        return times
    times[seeds] = 0
    frontier = np.unique(seeds)
    out_dst, out_w, out_ptr = graph.out_dst, graph.out_w, graph.out_ptr
    step = 0
    while frontier.size:
        step += 1
        eidx = expand_slices(out_ptr, frontier)
        if eidx.size == 0:
            break
        dst = out_dst[eidx]
        coins = rng.random(eidx.shape[0])
        hit = dst[(coins < out_w[eidx]) & (times[dst] < 0)]
        if hit.size == 0:
            break
        frontier = np.unique(hit)
        times[frontier] = step
    return times
