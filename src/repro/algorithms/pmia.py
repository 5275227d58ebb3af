"""PMIA — Prefix-excluding Maximum Influence Arborescence (Chen, Wang &
Wang, KDD'10).

The benchmarking paper excludes PMIA from its main roster because IRIE
dominates it ("we do not consider degree discount heuristics and PMIA as
IRIE outperforms them significantly", Sec. 4) — but it is the canonical
local score-estimation technique for IC and the conceptual parent of both
IRIE's influence-estimation step and LDAG, so the platform ships it for
completeness and for ablation against IRIE.

Machinery:

* ``MIIA(v, θ)`` — the maximum-influence in-arborescence of ``v``: the
  tree of best (max product-probability) paths into ``v``, pruned below
  θ (default 1/320).
* On a tree, IC activation probabilities are exact and linear-time:
  ``ap(x) = 1 − Π_{y: parent(y)=x} (1 − ap(y)·W(y,x))`` with seeds pinned
  at 1.
* The linear coefficient ``α(v,u) = ∂ap(v)/∂ap(u)`` follows the MIA
  recursion: α of the root is 1, and a child ``u`` of ``x`` receives
  ``α(v,x)·W(u,x)·Π_{siblings y}(1 − ap(y)·W(y,x))``, zero when ``x`` is a
  seed (its ap cannot change).
* Greedy selection maximizes ``IncInf(u) = Σ_v α(v,u)·(1 − ap_v(u))``.
  The *prefix-excluding* part: after a seed is chosen, the arborescences
  of affected roots are rebuilt with all seeds banned as interior nodes
  (their influence is already accounted for).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..diffusion import paths
from ..diffusion.models import Dynamics, PropagationModel
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm

__all__ = ["PMIA"]


class PMIA(IMAlgorithm):
    """Greedy over maximum-influence arborescences (IC model)."""

    name = "PMIA"
    supported = (Dynamics.IC,)
    external_parameter = None

    def __init__(
        self,
        theta: float = 1.0 / 320.0,
        path_workers: int | None = None,
    ) -> None:
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        self.theta = theta
        self.path_workers = path_workers

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        """Batched MIIA builds + vectorized tree DPs.

        The arborescences come from the path-proxy engine and each
        round's prefix-exclusion rebuild is one batched kernel call over
        the dirty roots (from the ``containing`` inverted index) where
        the new seed can push.  Float expressions and accumulation order
        match the per-root dict/heap loop in ``tests/reference``, so
        seeds are bit-identical to it.
        """
        def tick() -> None:
            self._tick(budget)

        in_seed = np.zeros(graph.n, dtype=bool)
        store = paths.build_tree_store(
            graph, self.theta, workers=self.path_workers, tick=tick
        )
        inc_inf = np.zeros(graph.n, dtype=np.float64)
        per_gain = store.gains(list(range(len(store))), in_seed)
        for nodes, g in per_gain:
            np.add.at(inc_inf, nodes, g)

        seeds: list[int] = []
        for __ in range(k):
            self._tick(budget)
            s = int(np.where(in_seed, -np.inf, inc_inf).argmax())
            seeds.append(s)
            if len(seeds) == k:
                break  # nothing reads the trees after the last pick
            in_seed[s] = True
            # Rebuild only the trees where s can push; every tree holding
            # s is re-swept, since ap(s) = 1 changes its DP.
            dirty = store.dirty(s)
            store.rebuild(store.pushing(dirty, s), in_seed, tick=tick)
            new_gains = store.gains(dirty, in_seed)
            # Swap contributions per structure in index order: subtract
            # the old gains, add the new ones.
            for idx, (nodes, g) in zip(dirty, new_gains):
                old_nodes, old_g = per_gain[idx]
                np.subtract.at(inc_inf, old_nodes, old_g)
                np.add.at(inc_inf, nodes, g)
                per_gain[idx] = (nodes, g)
        return seeds, {
            "theta": self.theta,
            "avg_arborescence_size": float(store.sizes().mean()),
        }
