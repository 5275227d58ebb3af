"""RIS — Reverse Influence Sampling (Borgs et al., SODA'14).

The progenitor of the RR-set family (Sec. 4.2).  The paper excludes RIS
from the main benchmark because TIM+ and IMM dominate it, but it is the
conceptual baseline both build on, so it is included here: sample a pool
of RR sets, then greedily max-cover it.

The original algorithm sets its sampling budget through a threshold on
total *width* (edges examined); this implementation exposes both knobs —
``num_rr_sets`` for a fixed pool size and ``width_budget`` for the
original stopping rule: keep every set up to the first one whose running
width reaches the budget.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..diffusion.rrpool import (
    FlatRRPool,
    greedy_max_cover,
    rr_batch_size,
    sample_rr_sets,
)
from ..graph.digraph import DiGraph
from .base import Budget, IMAlgorithm

__all__ = ["RIS", "log_comb"]


def log_comb(n: int, k: int) -> float:
    """log C(n, k) — shows up in every RR-set sample-size bound."""
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


class RIS(IMAlgorithm):
    """Fixed-budget reverse influence sampling.

    ``rr_workers > 1`` samples the pool across a process pool (flat-CSR
    engine); the width-budget stopping rule samples serially, one batch
    at a time, since the stop depends on the running width total.
    """

    name = "RIS"
    supported = (Dynamics.IC, Dynamics.LT)
    external_parameter = "#RR Sets"

    def __init__(
        self,
        num_rr_sets: int = 10_000,
        width_budget: int | None = None,
        rr_workers: int | None = None,
    ) -> None:
        if num_rr_sets < 1:
            raise ValueError("num_rr_sets must be positive")
        self.num_rr_sets = num_rr_sets
        self.width_budget = width_budget
        self.rr_workers = rr_workers

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        pool = FlatRRPool(graph.n)
        if self.width_budget is not None:
            batch = rr_batch_size(graph.n)
            while len(pool) < self.num_rr_sets:
                self._tick(budget)
                roots = rng.integers(
                    0, graph.n, size=min(batch, self.num_rr_sets - len(pool))
                )
                lengths, flat, widths = sample_rr_sets(
                    graph, model.dynamics, roots, rng, budget
                )
                # Keep sets up to the first whose running width reaches
                # the budget; the rest of the batch is dropped.
                running = pool.total_width + np.cumsum(widths)
                keep = int(np.searchsorted(running, self.width_budget)) + 1
                pool.append_chunk(
                    lengths[:keep], flat[: lengths[:keep].sum()], widths[:keep]
                )
                if keep <= widths.size:
                    break
        else:
            pool.extend(
                graph, model.dynamics, self.num_rr_sets, rng,
                workers=self.rr_workers, budget=budget,
            )
        seeds, coverage = greedy_max_cover(
            pool, k, pad_priority=graph.out_degree(), budget=budget
        )
        return seeds, {
            "num_rr_sets": len(pool),
            "total_width": pool.total_width,
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * graph.n,
            "rr_pool_bytes": pool.nbytes,
        }
