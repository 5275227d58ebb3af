"""Reference implementations the vectorized engines are proven against.

Each module keeps an original loop that an engine in ``src/`` replaced:
the per-root dict/heap path-proxy techniques (PMIA, LDAG, IRIE), the
list-walking RR max-cover and the per-set RR sampler.  They run only in
the equivalence tests and the speedup benches.  The engines reproduce
the first two byte for byte; the batched RR sampler draws its coins in
another order, so ``random_rr_set`` is a distributional reference,
compared by KS and chi-squared tests instead of equality.
"""

from .paths import (
    LegacyIRIE,
    LegacyLDAG,
    LegacyPMIA,
    build_ldag,
    build_miia,
    max_probability_paths,
)
from .rr import RRCollection, greedy_max_cover_legacy, random_rr_set

__all__ = [
    "LegacyIRIE",
    "LegacyLDAG",
    "LegacyPMIA",
    "RRCollection",
    "build_ldag",
    "build_miia",
    "greedy_max_cover_legacy",
    "max_probability_paths",
    "random_rr_set",
]
