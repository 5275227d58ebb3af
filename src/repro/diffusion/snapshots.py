"""Live-edge snapshots (possible worlds) of a weighted graph.

The coin-flip technique of Sec. 4.3: a snapshot retains each edge with
probability equal to its weight.  Under IC, the nodes reachable from S in a
snapshot are distributed exactly like the nodes activated by a cascade from
S, so averaging reachability over R snapshots estimates σ(S) — the
machinery behind StaticGreedy and PMC.

:func:`reach_keys` grows reachability in many worlds at once, keyed
``world * n + node`` on the level loop the RR sampler and the
Monte-Carlo kernel share (:func:`repro.diffusion._frontier.grow_levels`),
with levels cut into slices of at most
:data:`repro.diffusion.simulation.MC_SLICE_EDGES` out-edges.

For LT the equivalent "possible world" keeps, per node, at most one
incoming edge chosen with probability proportional to its weight (Kempe et
al.'s live-edge construction); :func:`generate_lt_snapshot` implements it
and the property tests verify the distributional equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.digraph import DiGraph
from . import simulation
from ._frontier import grow_levels
from .models import Dynamics

__all__ = [
    "Snapshot",
    "generate_ic_snapshot",
    "generate_lt_snapshot",
    "reach_keys",
    "sample_live_masks",
    "strongly_connected_components",
]


@dataclass
class Snapshot:
    """One live-edge instantiation G_i of a weighted graph.

    ``live`` is a boolean mask over the graph's out-CSR edge order.
    """

    graph: DiGraph
    live: np.ndarray

    @property
    def num_live_edges(self) -> int:
        return int(self.live.sum())

    def reachable_from(self, sources: np.ndarray | list[int]) -> np.ndarray:
        """Mask of nodes reachable from ``sources`` along live edges."""
        reached = np.zeros(self.graph.n, dtype=bool)
        reach_keys(self.graph, self.live[None], sources, reached)
        return reached

    def reach_count(self, sources: np.ndarray | list[int]) -> int:
        """|R(sources)| in this snapshot."""
        return int(self.reachable_from(sources).sum())


def reach_keys(
    graph: DiGraph,
    live: np.ndarray,
    sources: np.ndarray | Sequence[int],
    visited: np.ndarray,
) -> np.ndarray:
    """Keys ``world * n + node`` newly reachable from ``sources``, per world.

    ``live`` is a ``worlds×m`` mask over the out-CSR edge order and
    ``visited`` a flat ``worlds*n`` bitmap; edge ``e`` fires in world
    ``w`` iff ``live[w, e]``.  Keys already set in ``visited`` neither
    count nor propagate: a node reachable only through one is itself
    already visited (reachability is transitive within a world), so
    stopping there is exact.  Marks the new keys in ``visited`` and
    returns them.
    """
    n, m = graph.n, graph.m
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources[0] < 0 or sources[-1] >= n):
        raise ValueError("sources must be node ids of the graph")
    keys = (np.arange(live.shape[0], dtype=np.int64)[:, None] * n + sources).ravel()
    flat = live.reshape(-1)

    def fires(edge, row, frontier):
        return flat[frontier[row] // n * m + edge]

    return grow_levels(
        graph.out_ptr, graph.out_dst, n, visited, keys[~visited[keys]], fires,
        simulation.MC_SLICE_EDGES,
    )


def generate_ic_snapshot(graph: DiGraph, rng: np.random.Generator) -> Snapshot:
    """Retain each edge independently with probability equal to its weight."""
    live = rng.random(graph.m) < graph.out_w
    return Snapshot(graph, live)


def generate_lt_snapshot(graph: DiGraph, rng: np.random.Generator) -> Snapshot:
    """Per node, keep at most one incoming edge, chosen w.p. its weight."""
    live_in = np.zeros(graph.m, dtype=bool)
    draws = rng.random(graph.n)
    in_ptr, in_w = graph.in_ptr, graph.in_w
    for v in range(graph.n):
        lo, hi = int(in_ptr[v]), int(in_ptr[v + 1])
        if lo == hi:
            continue
        cumulative = np.cumsum(in_w[lo:hi])
        j = int(np.searchsorted(cumulative, draws[v], side="right"))
        if j < hi - lo:
            live_in[lo + j] = True
    # Translate the in-CSR mask to the out-CSR edge order the Snapshot uses.
    live = np.zeros(graph.m, dtype=bool)
    live[graph._in_perm[np.nonzero(live_in)[0]]] = True
    return Snapshot(graph, live)


def sample_live_masks(
    graph: DiGraph,
    dynamics: Dynamics,
    count: int,
    rng: np.random.Generator,
    budget=None,
) -> np.ndarray:
    """Presample ``count`` live-edge worlds as one ``count×m`` boolean matrix.

    The single sampling point shared by PMC, SKIM and the snapshot spread
    oracle (which StaticGreedy runs on).  Worlds are drawn row by row (one
    ``rng`` draw per world), so the stream matches ``count`` sequential
    calls of the per-snapshot generators exactly — swapping a per-world
    loop for this helper cannot change a seeded run.  ``budget`` (anything with
    ``check()``) is ticked once per world, mirroring the cooperative
    budget convention of :meth:`FlatRRPool.extend`.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    masks = np.empty((count, graph.m), dtype=bool)
    for i in range(count):
        if budget is not None:
            budget.check()
        if dynamics is Dynamics.IC:
            masks[i] = rng.random(graph.m) < graph.out_w
        elif dynamics is Dynamics.LT:
            masks[i] = generate_lt_snapshot(graph, rng).live
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unsupported dynamics {dynamics!r}")
    return masks


def strongly_connected_components(snapshot: Snapshot) -> np.ndarray:
    """SCC ids of the snapshot's live subgraph (iterative Tarjan).

    Used by PMC: inside a live-edge world, all nodes of an SCC have
    identical reachability, so the world can be contracted to a DAG.
    Returns an array mapping node -> component id (0-based, in reverse
    topological discovery order).
    """
    graph = snapshot.graph
    n = graph.n
    out_ptr, out_dst = graph.out_ptr, graph.out_dst
    live = snapshot.live

    index = np.full(n, -1, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    next_comp = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # Each frame: (node, iterator position within its edge slice).
        work: list[list[int]] = [[root, int(out_ptr[root])]]
        index[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, eptr = work[-1]
            hi = int(out_ptr[v + 1])
            advanced = False
            while eptr < hi:
                e = eptr
                eptr += 1
                if not live[e]:
                    continue
                w = int(out_dst[e])
                if index[w] < 0:
                    work[-1][1] = eptr
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, int(out_ptr[w])])
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = next_comp
                    if w == v:
                        break
                next_comp += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comp
