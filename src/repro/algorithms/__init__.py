"""The IM algorithm zoo of Fig. 3: all benchmarked techniques + baselines."""

from .base import Budget, BudgetExceeded, IMAlgorithm, SeedSelectionResult
from .celf import CELF, CELFpp
from .easyim import EaSyIM
from .greedy import Greedy
from .heuristics import Degree, DegreeDiscount, PageRankHeuristic, SingleDiscount, pagerank
from .imm import IMM
from .imrank import IMRank
from .irie import IRIE
from .ldag import LDAG
from .pmc import PMC
from .pmia import PMIA
from .opinion_easyim import OpinionEaSyIM
from .ris import RIS
from .simpath import SIMPATH, simpath_spread
from .skim import SKIM
from .ssa import DSSA, SSA
from .static_greedy import StaticGreedy
from .tim import TIMPlus
from .registry import (
    ALGORITHMS,
    BENCHMARKED,
    OPTIMAL_PARAMETERS,
    make,
    make_tuned,
    optimal_parameters,
    support_matrix,
    supports,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "IMAlgorithm",
    "SeedSelectionResult",
    "CELF",
    "CELFpp",
    "EaSyIM",
    "Greedy",
    "Degree",
    "DegreeDiscount",
    "PageRankHeuristic",
    "SingleDiscount",
    "pagerank",
    "IMM",
    "IMRank",
    "IRIE",
    "LDAG",
    "PMC",
    "PMIA",
    "OpinionEaSyIM",
    "RIS",
    "SIMPATH",
    "simpath_spread",
    "SKIM",
    "SSA",
    "DSSA",
    "StaticGreedy",
    "TIMPlus",
    "ALGORITHMS",
    "BENCHMARKED",
    "OPTIMAL_PARAMETERS",
    "make",
    "make_tuned",
    "optimal_parameters",
    "support_matrix",
    "supports",
]
