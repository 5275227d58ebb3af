"""IRIE — Influence Ranking + Influence Estimation (Jung et al., ICDM'12).

A global score-estimation technique for IC (Sec. 4.4).  Two interleaved
pieces:

* **IR** (influence ranking): the fixed-point system
  ``r(u) = 1 + α · Σ_{v ∈ Out(u)} W(u,v) · r(v)``, solved by a bounded
  number of damped iterations (α = 0.7, 20 rounds in the original).
  ``r(u)`` approximates the total influence of ``u`` via the expected
  number of weighted walks leaving it.
* **IE** (influence estimation): after each seed is chosen, the activation
  probability AP(u, S) of every node is re-estimated, and ranks are damped
  by (1 − AP) so already-covered regions stop attracting seeds.  AP is
  propagated from the new seed along maximum-probability paths above the
  PMIA-style threshold (1/320), the same machinery the original borrows.

IRIE has no external accuracy parameter in the benchmark (Sec. 5.1.1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..diffusion import paths
from ..diffusion.models import Dynamics, PropagationModel
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm

__all__ = ["IRIE"]


class IRIE(IMAlgorithm):
    """Iterative ranking with influence-estimation discounts."""

    name = "IRIE"
    supported = (Dynamics.IC,)
    external_parameter = None

    def __init__(
        self,
        alpha: float = 0.7,
        iterations: int = 20,
        ap_threshold: float = 1.0 / 320.0,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.iterations = iterations
        self.ap_threshold = ap_threshold

    def _rank(
        self,
        graph: DiGraph,
        ap: np.ndarray,
        edge_src: np.ndarray,
    ) -> np.ndarray:
        """Damped iteration of the IR fixed point, discounted by (1 - AP)."""
        not_covered = 1.0 - ap
        rank = np.ones(graph.n, dtype=np.float64)
        for __ in range(self.iterations):
            acc = np.zeros(graph.n, dtype=np.float64)
            np.add.at(acc, edge_src, graph.out_w * rank[graph.out_dst])
            rank = not_covered * (1.0 + self.alpha * acc)
        return rank

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        edge_src = graph.edge_src
        ap = np.zeros(graph.n, dtype=np.float64)
        seeds: list[int] = []
        in_seed = np.zeros(graph.n, dtype=bool)
        for __ in range(k):
            self._tick(budget)
            rank = self._rank(graph, ap, edge_src)
            # Deterministic tie-break: argmax over the masked ranks returns
            # the *first* maximal entry, i.e. the lowest node id on ties
            # (symmetric graphs produce exactly equal ranks).
            v = int(np.where(in_seed, -np.inf, rank).argmax())
            seeds.append(v)
            if len(seeds) == k:
                break  # nothing reads AP after the last pick
            in_seed[v] = True
            ap[v] = 1.0
            # IE step: fold the new seed's reach into AP along max-prob
            # paths (single-source, so the kernel never fans out).
            batch = paths.batched_max_prob_paths(
                graph, np.array([v], dtype=np.int64), self.ap_threshold
            )
            sl = batch.slice(0)
            nodes = batch.node[sl.start + 1:sl.stop]  # source excluded
            pps = batch.pp[sl.start + 1:sl.stop]
            keep = ~in_seed[nodes]
            u = nodes[keep]
            ap[u] = 1.0 - (1.0 - ap[u]) * (1.0 - pps[keep])
        return seeds, {}
