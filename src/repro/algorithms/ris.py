"""RIS — Reverse Influence Sampling (Borgs et al., SODA'14), and the
skeleton every RR-set technique shares.

The progenitor of the RR-set family (Sec. 4.2).  The paper excludes RIS
from the main benchmark because TIM+ and IMM dominate it, but it is the
conceptual baseline both build on, so it is included here: sample a pool
of RR sets, then greedily max-cover it.

The original algorithm sets its sampling budget through a threshold on
total *width* (edges examined); this implementation exposes both knobs —
``num_rr_sets`` for a fixed pool size and ``width_budget`` for the
original stopping rule: keep every set up to the first one whose running
width reaches the budget.  :meth:`RIS.sample_pool` is that sampling step
alone; the server's warm RIS pools are built by it.

The family differs only in how many RR sets it samples before the same
max-cover, so the shared parts live here: :func:`cover` is every RR
technique's max-cover, and :class:`EpsilonRR` holds the ε-bounded
techniques' knobs (TIM+, IMM, SSA/D-SSA), which keep only their own
sample-size rules.
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

__all__ = ["RIS", "EpsilonRR", "cover", "log_comb"]


def log_comb(n: int, k: int) -> float:
    """log C(n, k) — shows up in every RR-set sample-size bound."""
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def cover(
    pool: FlatRRPool, graph: DiGraph, k: int, budget: Budget | None = None
) -> tuple[list[int], float]:
    """Greedy max-cover of ``pool``: ``k`` seeds and the covered fraction.

    An exhausted pool is padded with ``graph``'s highest out-degree
    nodes, as the reference codes do.
    """
    return greedy_max_cover(
        pool, k, pad_priority=graph.out_degree(), budget=budget
    )


class EpsilonRR(IMAlgorithm):
    """An RR technique whose pool size follows an ε-bound (Tang et al.).

    ``epsilon`` and ``ell`` are the bound's accuracy and confidence
    (success w.p. 1 − 1/n^ℓ).  ``rr_scale`` scales every sample-size
    bound: the theoretical bounds assume C++-scale throughput, and on the
    scaled Python datasets a value well below 1 keeps the bounds' ε-shape
    (θ ∝ 1/ε²) at tractable cost.  ``max_rr_sets`` is a hard safety cap,
    and ``rr_workers > 1`` samples across a process pool.
    """

    supported = (Dynamics.IC, Dynamics.LT)
    external_parameter = "epsilon"
    #: Fewest RR sets a scaled bound rounds up to.
    min_rr_sets = 1

    def __init__(
        self,
        epsilon: float = 0.5,
        ell: float = 1.0,
        rr_scale: float = 1.0,
        max_rr_sets: int | None = 2_000_000,
        rr_workers: int | None = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.ell = ell
        self.rr_scale = rr_scale
        self.max_rr_sets = max_rr_sets
        self.rr_workers = rr_workers

    def _cap(self, count: float) -> int:
        """A sample-size bound, scaled and clipped to the pool limits."""
        count = int(math.ceil(count * self.rr_scale))
        if self.max_rr_sets is not None:
            count = min(count, self.max_rr_sets)
        return max(count, self.min_rr_sets)

    def _sample(
        self,
        graph: DiGraph,
        dynamics: Dynamics,
        target: int,
        rng: np.random.Generator,
        budget: Budget | None,
        pool: FlatRRPool | None = None,
    ) -> FlatRRPool:
        """Grow ``pool`` (a new one when omitted) to ``target`` sets."""
        if pool is None:
            pool = FlatRRPool(graph.n)
        pool.extend(
            graph, dynamics, target - len(pool), rng,
            workers=self.rr_workers, budget=budget,
        )
        return pool


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

    def sample_pool(
        self,
        graph: DiGraph,
        dynamics: Dynamics,
        rng: np.random.Generator,
        budget: Budget | None = None,
    ) -> FlatRRPool:
        """The RR pool this technique max-covers; it does not depend on k."""
        pool = FlatRRPool(graph.n)
        if self.width_budget is None:
            pool.extend(
                graph, dynamics, self.num_rr_sets, rng,
                workers=self.rr_workers, budget=budget,
            )
            return pool
        batch = rr_batch_size(graph.n)
        while len(pool) < self.num_rr_sets:
            self._tick(budget)
            roots = rng.integers(
                0, graph.n, size=min(batch, self.num_rr_sets - len(pool))
            )
            lengths, flat, widths = sample_rr_sets(
                graph, dynamics, roots, rng, budget
            )
            # Keep sets up to the first whose running width reaches the
            # budget; the rest of the batch is dropped.
            running = pool.total_width + np.cumsum(widths)
            keep = int(np.searchsorted(running, self.width_budget)) + 1
            pool.append_chunk(
                lengths[:keep], flat[: lengths[:keep].sum()], widths[:keep]
            )
            if keep <= widths.size:
                break
        return pool

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        pool = self.sample_pool(graph, model.dynamics, rng, budget)
        seeds, coverage = cover(pool, graph, k, budget)
        return seeds, {
            "num_rr_sets": len(pool),
            "total_width": pool.total_width,
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * graph.n,
            "rr_pool_bytes": pool.nbytes,
        }
