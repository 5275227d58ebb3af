"""SKIM — Sketch-based Influence Maximization (Cohen, Delling, Pajor &
Werneck, CIKM'14).

The benchmarking paper leaves SKIM out because "TIM+ has been shown to
possess better quality while being similar in running times" (Sec. 4);
it is included here as the sketch-based representative so that claim can
be tested on the platform.

The idea: work over ℓ live-edge instances of the graph.  Each
(node, instance) pair draws a uniform rank; processing pairs in
increasing rank order, a reverse BFS from each pair increments a counter
(a *combined reachability sketch*) on every node that reaches it.  The
first node whose counter hits the sketch size ``sketch_k`` is — with
bottom-k-sketch guarantees — an (approximate) influence maximizer.  Its
covered (node, instance) pairs are removed (residual problem) and the
procedure repeats for the next seed.

This implementation keeps the algorithmic skeleton (rank-ordered pair
stream, counter threshold, residual coverage) and simplifies the
engineering: counters restart per seed selection instead of being patched
incrementally.  Behaviour — near-linear total work on sparse live-edge
worlds, quality slightly below the RR-set methods — matches the paper's
characterization.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.snapshots import reach_keys, sample_live_masks
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm

__all__ = ["SKIM"]


def _reverse_adjacency(graph: DiGraph, live: np.ndarray) -> list[np.ndarray]:
    """Per-node live *in*-neighbour arrays for one snapshot."""
    live_idx = np.nonzero(live)[0]
    src = graph.edge_src[live_idx]
    dst = graph.out_dst[live_idx]
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.zeros(graph.n, dtype=np.int64)
    np.add.at(counts, dst, 1)
    splits = np.cumsum(counts)[:-1]
    return np.split(src, splits)


class SKIM(IMAlgorithm):
    """Combined bottom-k reachability sketches over live-edge instances."""

    name = "SKIM"
    supported = (Dynamics.IC, Dynamics.LT)
    external_parameter = "#Instances"

    def __init__(self, num_instances: int = 32, sketch_k: int = 16) -> None:
        if num_instances < 1:
            raise ValueError("num_instances must be positive")
        if sketch_k < 1:
            raise ValueError("sketch_k must be positive")
        self.num_instances = num_instances
        self.sketch_k = sketch_k

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        n, ell = graph.n, self.num_instances
        masks = sample_live_masks(graph, model.dynamics, ell, rng, budget)
        backward: list[list[np.ndarray]] = []
        for live in masks:
            self._tick(budget)
            backward.append(_reverse_adjacency(graph, live))

        # One uniform rank per (node, instance) pair; the stream visits
        # pairs in increasing rank.
        ranks = rng.random(n * ell)
        stream = np.argsort(ranks)
        # Keys ``instance * n + node``, as ``reach_keys`` counts them.
        covered = np.zeros(n * ell, dtype=bool)

        seeds: list[int] = []
        in_seed = np.zeros(n, dtype=bool)
        total_covered = 0
        while len(seeds) < k:
            self._tick(budget)
            counter = np.zeros(n, dtype=np.int64)
            chosen = -1
            # Phase 1: stream pairs until some node's sketch fills up.
            for p in stream:
                if covered[p]:
                    continue
                instance, node = divmod(int(p), n)
                # Reverse BFS: every u reaching (node, instance) gets +1.
                seen = {node}
                queue: deque[int] = deque([node])
                while queue:
                    x = queue.popleft()
                    if not in_seed[x]:
                        counter[x] += 1
                        if counter[x] >= self.sketch_k:
                            chosen = x
                            break
                    for y in backward[instance][x]:
                        y = int(y)
                        if y not in seen:
                            seen.add(y)
                            queue.append(y)
                if chosen >= 0:
                    break
            if chosen < 0:
                # Sketches never filled: residual influence is tiny.
                # Fall back to the node covering the most remaining pairs.
                chosen = int(np.where(in_seed, -np.inf, counter).argmax())
                if in_seed[chosen]:
                    remaining = [u for u in range(n) if not in_seed[u]]
                    chosen = remaining[0]
            seeds.append(chosen)
            in_seed[chosen] = True
            # Phase 2: mark everything the new seed covers in every world.
            # ``covered`` is a union of whole reach sets, so stopping at
            # covered pairs is exact.
            total_covered += reach_keys(graph, masks, [chosen], covered).size
        return seeds, {
            "num_instances": ell,
            "sketch_k": self.sketch_k,
            "estimated_spread": total_covered / ell,
        }
