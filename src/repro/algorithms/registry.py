"""Algorithm registry and the model-support matrix of Table 5.

Central place mapping the paper's algorithm names to classes, with
factories producing instances at the Table-2 optimal parameter values for
a given model.
"""

from __future__ import annotations

from typing import Callable

from ..diffusion.models import Dynamics, PropagationModel
from .base import IMAlgorithm
from .celf import CELF, CELFpp
from .easyim import EaSyIM
from .greedy import Greedy
from .heuristics import Degree, DegreeDiscount, PageRankHeuristic, SingleDiscount
from .imm import IMM
from .imrank import IMRank
from .irie import IRIE
from .ldag import LDAG
from .pmc import PMC
from .pmia import PMIA
from .ris import RIS
from .simpath import SIMPATH
from .skim import SKIM
from .ssa import DSSA, SSA
from .static_greedy import StaticGreedy
from .tim import TIMPlus

__all__ = [
    "ALGORITHMS",
    "BENCHMARKED",
    "OPTIMAL_PARAMETERS",
    "make",
    "make_tuned",
    "supports",
    "support_matrix",
    "optimal_parameters",
]

#: Name -> zero-argument factory with library defaults.
ALGORITHMS: dict[str, Callable[[], IMAlgorithm]] = {
    "GREEDY": Greedy,
    "CELF": CELF,
    "CELF++": CELFpp,
    "RIS": RIS,
    "TIM+": TIMPlus,
    "IMM": IMM,
    "StaticGreedy": StaticGreedy,
    "PMC": PMC,
    "LDAG": LDAG,
    "SIMPATH": SIMPATH,
    "IRIE": IRIE,
    "EaSyIM": EaSyIM,
    "IMRank1": lambda: IMRank(l=1),
    "IMRank2": lambda: IMRank(l=2),
    "PMIA": PMIA,
    "SKIM": SKIM,
    "SSA": SSA,
    "D-SSA": DSSA,
    "Degree": Degree,
    "SingleDiscount": SingleDiscount,
    "DegreeDiscount": DegreeDiscount,
    "PageRank": PageRankHeuristic,
}

#: The eleven techniques of the benchmarking study (Fig. 3), in the order
#: the paper lists them (IMRank counted once, run at l = 1 and l = 2).
BENCHMARKED: tuple[str, ...] = (
    "CELF",
    "CELF++",
    "TIM+",
    "IMM",
    "StaticGreedy",
    "PMC",
    "LDAG",
    "SIMPATH",
    "IRIE",
    "EaSyIM",
    "IMRank1",
    "IMRank2",
)

#: Table 2 — optimal external parameter values per model, as determined by
#: the paper's tuning procedure (re-derivable with repro.framework.tuning).
#: EaSyIM's knob here is the path length ℓ (see easyim.py's docstring).
OPTIMAL_PARAMETERS: dict[str, dict[str, dict[str, float]]] = {
    "CELF": {"IC": {"mc_simulations": 10000}, "WC": {"mc_simulations": 10000}, "LT": {"mc_simulations": 10000}},
    "CELF++": {"IC": {"mc_simulations": 7500}, "WC": {"mc_simulations": 7500}, "LT": {"mc_simulations": 10000}},
    "EaSyIM": {"IC": {"path_length": 4}, "WC": {"path_length": 4}, "LT": {"path_length": 3}},
    "IMRank1": {"IC": {"scoring_rounds": 10}, "WC": {"scoring_rounds": 10}},
    "IMRank2": {"IC": {"scoring_rounds": 10}, "WC": {"scoring_rounds": 10}},
    "PMC": {"IC": {"num_snapshots": 200}, "WC": {"num_snapshots": 250}},
    "StaticGreedy": {"IC": {"num_snapshots": 250}, "WC": {"num_snapshots": 250}},
    "TIM+": {"IC": {"epsilon": 0.05}, "WC": {"epsilon": 0.15}, "LT": {"epsilon": 0.35}},
    "IMM": {"IC": {"epsilon": 0.05}, "WC": {"epsilon": 0.1}, "LT": {"epsilon": 0.1}},
}


def make(name: str, **params) -> IMAlgorithm:
    """Instantiate an algorithm by paper name, overriding any parameters."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; options: {', '.join(ALGORITHMS)}"
        ) from None
    if isinstance(factory, type):
        return factory(**params)
    instance = factory()
    if params:
        if isinstance(instance, IMRank):
            # The IMRank1/IMRank2 factories carry a fixed l.
            merged: dict = {"l": instance.l}
            merged.update(params)
            return IMRank(**merged)
        return type(instance)(**params)
    return instance


def optimal_parameters(name: str, model: PropagationModel | str) -> dict[str, float]:
    """Table-2 parameter values for (algorithm, model); empty if none."""
    model_name = model if isinstance(model, str) else model.name
    return dict(OPTIMAL_PARAMETERS.get(name, {}).get(model_name, {}))


def make_tuned(name: str, model: PropagationModel | str, **overrides) -> IMAlgorithm:
    """Instantiate at the Table-2 optimal parameters for ``model``."""
    params = optimal_parameters(name, model)
    params.update(overrides)
    return make(name, **params)


def supports(name: str, model: PropagationModel | Dynamics) -> bool:
    """Whether ``name`` runs under ``model`` (Table 5)."""
    return make(name).supports(model)


def support_matrix(names: tuple[str, ...] = BENCHMARKED) -> str:
    """Render Table 5: diffusion models supported by each algorithm."""
    lines = [f"{'Algorithm':<14} {'Independent Cascade':<20} {'Linear Threshold':<16}"]
    lines.append("-" * len(lines[0]))
    for name in names:
        algo = make(name)
        ic = "yes" if Dynamics.IC in algo.supported else ""
        lt = "yes" if Dynamics.LT in algo.supported else ""
        lines.append(f"{name:<14} {ic:<20} {lt:<16}")
    return "\n".join(lines)
