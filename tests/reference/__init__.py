"""Reference implementations the vectorized engines are proven against.

Each module keeps an original loop that an engine in ``src/`` replaced:
the per-root dict/heap path-proxy techniques (PMIA, LDAG, IRIE) and the
list-walking RR max-cover.  They run only in the equivalence tests and
the speedup benches, which assert the engines reproduce them bit for bit.
"""

from .paths import (
    LegacyIRIE,
    LegacyLDAG,
    LegacyPMIA,
    build_ldag,
    build_miia,
    max_probability_paths,
)
from .rr import RRCollection, greedy_max_cover_legacy

__all__ = [
    "LegacyIRIE",
    "LegacyLDAG",
    "LegacyPMIA",
    "RRCollection",
    "build_ldag",
    "build_miia",
    "greedy_max_cover_legacy",
    "max_probability_paths",
]
