"""StaticGreedy (Cheng et al., CIKM'13) — Sec. 4.3.

Generates R live-edge snapshots *once*, then runs lazy greedy where a
node's gain is its average marginal reachability across snapshots.  Reusing
the same snapshots for every iteration removes the sampling noise that
plagues per-iteration MC greedy ("solving the scalability-accuracy
dilemma"), but the reach computations are on the raw snapshot graphs —
no SCC contraction — which is why PMC overtakes it on large or dense
inputs (Sec. 5.5; the paper could not even run SG on its large datasets).

Because a covered node's reachable set is already fully covered, marginal
BFS stops at covered nodes — marginal gains shrink rapidly across
iterations, the property lazy evaluation feeds on.

That is exactly CELF over the snapshot spread oracle
(:class:`repro.diffusion.oracle.SnapshotOracle`, every world's reach
grown at once on the keyed ``world * n + node`` level loop), so
:class:`StaticGreedy` is ``CELF(mc_simulations=num_snapshots,
spread_oracle="snapshot")`` under its own name, parameter and IC-only
support.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..graph.digraph import DiGraph
from .base import Budget
from .celf import CELF

__all__ = ["StaticGreedy"]


class StaticGreedy(CELF):
    """Snapshot-averaged lazy greedy (the SG of the paper's figures)."""

    name = "StaticGreedy"
    supported = (Dynamics.IC,)
    external_parameter = "#Snapshots"

    def __init__(self, num_snapshots: int = 250) -> None:
        if num_snapshots < 1:
            raise ValueError("num_snapshots must be positive")
        super().__init__(mc_simulations=num_snapshots, spread_oracle="snapshot")
        self.num_snapshots = num_snapshots

    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        seeds, extras = super()._select(graph, k, model, rng, budget)
        return seeds, {"num_snapshots": self.num_snapshots, **extras}
