"""SSA / D-SSA — Stop-and-Stare (Nguyen, Thai & Dinh, SIGMOD'16).

The benchmarking paper singles this out as the "highly promising technique
... published in SIGMOD 2016. Unfortunately, we could not include the
technique in our study due to how recently it is published. Nonetheless,
our benchmarking study will also evolve with the inclusion of more recent
techniques" (Sec. 7).  This module is that evolution: the platform's
newest RR-set member, benchmarked against TIM+/IMM in
``benchmarks/bench_evolution_ssa.py``.

The stop-and-stare idea: instead of computing a worst-case pool size θ
up front (TIM+/IMM), repeatedly

1. *stop* — draw a pool Λ of RR sets and greedily max-cover it,
2. *stare* — draw an **independent** verification pool of equal size and
   re-estimate the candidate seed set's influence on it,
3. accept when the verification estimate is within (1 − ε₁) of the
   optimistic max-cover estimate (the coverage was not over-fit);
   otherwise double the pool and repeat.

``DSSA`` is the same loop with one step changed: on a failed check the
verification pool joins the selection pool, which is then re-covered and
verified against a fresh pool of its own size, so no sampling effort is
discarded (D-SSA's pool recycling; its acceptance test is SSA's).  Both
take :class:`~repro.algorithms.ris.EpsilonRR`'s knobs and scale their
pools with ``rr_scale`` like TIM+/IMM.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..diffusion.models import PropagationModel
from ..graph.digraph import DiGraph
from .base import Budget
from .ris import EpsilonRR, cover, log_comb

__all__ = ["SSA", "DSSA"]


class SSA(EpsilonRR):
    """Stop-and-Stare with independent verification pools."""

    name = "SSA"
    min_rr_sets = 8
    #: On a failed check, absorb the verification pool into the selection
    #: pool instead of redrawing both (D-SSA).
    recycle = False

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        if k == 0:
            return [], {"num_rr_sets": 0}
        n, dynamics = graph.n, model.dynamics
        # The paper splits eps into (eps1, eps2, eps3) with
        # (1+eps1)(1+eps2)(1+eps3) <= 1+eps; the reference code uses an
        # even three-way split.
        eps1 = eps3 = self.epsilon / 3.0
        initial = self._cap(
            (2.0 + 2.0 * eps3 / 3.0)
            * (log_comb(n, k) + self.ell * math.log(max(n, 2)) + math.log(2))
            / eps3**2
        )
        max_pool = self._cap(
            8.0 * n * (math.log(max(n, 2)) + log_comb(n, k)) / self.epsilon**2
        )
        selection = self._sample(graph, dynamics, initial, rng, budget)
        total_sampled = len(selection)
        iterations = 0
        while True:
            iterations += 1
            self._tick(budget)
            seeds, coverage = cover(selection, graph, k, budget)
            optimistic = coverage * n
            verification = self._sample(
                graph, dynamics, len(selection), rng, budget
            )
            total_sampled += len(verification)
            verified = verification.coverage_fraction(seeds) * n
            if verified >= (1.0 - eps1) * optimistic:
                break
            if len(selection) >= max_pool:
                break  # theoretical cap reached: accept the current answer
            if self.recycle:
                selection.absorb(verification)
            else:
                selection = self._sample(
                    graph, dynamics, min(2 * len(selection), max_pool), rng,
                    budget,
                )
                total_sampled += len(selection)
        return seeds, {
            "num_rr_sets": total_sampled,
            "stare_iterations": iterations,
            "coverage_fraction": coverage,
            "extrapolated_spread": coverage * n,
            "epsilon": self.epsilon,
            "rr_pool_bytes": selection.nbytes + verification.nbytes,
        }


class DSSA(SSA):
    """Dynamic Stop-and-Stare: verification pools are recycled."""

    name = "D-SSA"
    recycle = True
