"""Reference implementations the vectorized engines are proven against.

Each module keeps an original loop that an engine in ``src/`` replaced:
the per-root dict/heap path-proxy techniques (PMIA, LDAG, IRIE), the
list-walking RR max-cover, the argsort inverted-index build, the per-set
RR sampler, the per-cascade Monte-Carlo loop (with the threshold-form
LT simulator) and the snapshot oracle's dense multi-world reach loop
(``dense_reach``).  They run only in the equivalence tests and the
speedup benches.  The engines reproduce the first three, and the reach
loop's counts, byte for byte; the batched RR sampler and the batched
cascade kernel draw their coins in another order, so ``random_rr_set``
and ``simulate_spread`` are distributional references, compared by KS,
chi-squared and exact-spread tests instead of equality.
"""

from .paths import (
    LegacyIRIE,
    LegacyLDAG,
    LegacyPMIA,
    build_ldag,
    build_miia,
    max_probability_paths,
)
from .mc import LoopMCOracle, simulate_lt, simulate_spread, spread_samples
from .rr import (
    RRCollection,
    argsort_node_index,
    greedy_max_cover_legacy,
    random_rr_set,
)
from .snapshot import dense_reach

__all__ = [
    "LegacyIRIE",
    "LegacyLDAG",
    "LegacyPMIA",
    "LoopMCOracle",
    "RRCollection",
    "argsort_node_index",
    "build_ldag",
    "build_miia",
    "dense_reach",
    "greedy_max_cover_legacy",
    "max_probability_paths",
    "random_rr_set",
    "simulate_lt",
    "simulate_spread",
    "spread_samples",
]
