"""Common interface for all influence-maximization algorithms.

Seed selection (Sec. 3.1.1) is the phase each technique implements; spread
computation and convergence checks are shared framework phases and live in
:mod:`repro.framework`.  ``select`` returns a :class:`SeedSelectionResult`
carrying the chosen seeds plus algorithm-specific counters used by the myth
experiments (node lookups for CELF/CELF++, extrapolated spreads for
TIM+/IMM, scoring-round traces for IMRank, ...).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from ..diffusion.models import Dynamics, PropagationModel
from ..graph.digraph import DiGraph

__all__ = [
    "Budget",
    "BudgetExceeded",
    "SeedSelectionResult",
    "IMAlgorithm",
    "SpreadOracleMixin",
]


class BudgetExceeded(RuntimeError):
    """Raised when a selection run exceeds its time or memory budget.

    ``status`` mirrors Table 3's vocabulary: ``"DNF"`` for a time-limit hit
    ("did not finish even after 40 hours") and ``"CRASHED"`` for a memory
    hit ("crashed due to running out of memory").
    """

    def __init__(self, status: str, detail: str) -> None:
        super().__init__(f"{status}: {detail}")
        self.status = status
        self.detail = detail


class Budget(Protocol):
    """Anything with a ``check()`` that raises :class:`BudgetExceeded`."""

    def check(self) -> None: ...  # pragma: no cover - protocol


def _plain(value):
    """Coerce numpy scalars/arrays to plain Python for pipe/JSON transport."""
    if hasattr(value, "item") and not isinstance(value, (list, dict, str)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class SeedSelectionResult:
    """Outcome of one seed-selection run."""

    algorithm: str
    model: str
    seeds: list[int]
    elapsed_seconds: float = 0.0
    #: Seed list prefixes are meaningful: ``seeds[:k']`` is the algorithm's
    #: answer for any smaller budget k' <= k (true for every greedy-style
    #: technique in the study).
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.seeds)

    def to_payload(self) -> dict[str, Any]:
        """Plain-types dict safe to ship across a process pipe or as JSON.

        The isolated executor uses this to return results from a worker
        subprocess without pickling algorithm-specific objects hiding in
        ``extras``.
        """
        return {
            "algorithm": self.algorithm,
            "model": self.model,
            "seeds": [int(s) for s in self.seeds],
            "elapsed_seconds": float(self.elapsed_seconds),
            "extras": _plain(self.extras),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SeedSelectionResult":
        """Inverse of :meth:`to_payload`."""
        return cls(**payload)


class IMAlgorithm(abc.ABC):
    """Base class: seed-selection phase of the generalized IM module.

    Subclasses set ``name``, ``supported`` dynamics, and the name of their
    external parameter (Table 2), and implement :meth:`_select`.
    """

    name: str = "abstract"
    supported: tuple[Dynamics, ...] = ()
    #: Human-readable name of the external accuracy parameter, or None for
    #: parameter-free techniques (LDAG, SIMPATH, IRIE) — Sec. 5.1.1.
    external_parameter: str | None = None

    def supports(self, model: PropagationModel | Dynamics) -> bool:
        """Whether this technique runs under the given dynamics (Table 5)."""
        dynamics = model.dynamics if isinstance(model, PropagationModel) else model
        return dynamics in self.supported

    def select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator | None = None,
        budget: Budget | None = None,
    ) -> SeedSelectionResult:
        """Pick ``k`` seeds on a graph already weighted for ``model``."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > graph.n:
            raise ValueError(f"k={k} exceeds the number of nodes ({graph.n})")
        if not self.supports(model):
            raise ValueError(f"{self.name} does not support the {model.name} model")
        rng = np.random.default_rng() if rng is None else rng
        started = time.perf_counter()
        seeds, extras = self._select(graph, k, model, rng, budget)
        elapsed = time.perf_counter() - started
        if len(seeds) != k:
            raise AssertionError(
                f"{self.name} returned {len(seeds)} seeds, expected {k}"
            )
        if len(set(seeds)) != len(seeds):
            raise AssertionError(f"{self.name} returned duplicate seeds")
        return SeedSelectionResult(
            algorithm=self.name,
            model=model.name,
            seeds=[int(s) for s in seeds],
            elapsed_seconds=elapsed,
            extras=extras,
        )

    @abc.abstractmethod
    def _select(
        self,
        graph: DiGraph,
        k: int,
        model: PropagationModel,
        rng: np.random.Generator,
        budget: Budget | None,
    ) -> tuple[list[int], dict[str, Any]]:
        """Algorithm-specific seed selection; returns (seeds, extras)."""

    @staticmethod
    def _tick(budget: Budget | None) -> None:
        """Cheap budget checkpoint for inner loops."""
        if budget is not None:
            budget.check()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SpreadOracleMixin:
    """Constructor plumbing shared by the oracle-backed greedy family.

    GREEDY/CELF/CELF++ all answer the same question — which σ(S) backend
    services their marginal-gain queries — so the knobs live here once.
    ``spread_oracle=None`` picks the serial backend, or the batched one
    when ``mc_workers > 1``.
    """

    def _init_oracle(
        self,
        mc_simulations: int,
        spread_oracle,
        mc_workers: int | None,
    ) -> None:
        if mc_simulations < 1:
            raise ValueError("mc_simulations must be positive")
        if mc_workers is not None and mc_workers < 1:
            raise ValueError("mc_workers must be positive")
        self.mc_simulations = mc_simulations
        self.spread_oracle = spread_oracle
        self.mc_workers = mc_workers

    def _build_oracle(self, graph, model, rng, budget):
        """Resolve the configured backend plus a gain memo for this run."""
        from ..diffusion.oracle import GainCache, make_oracle

        oracle = make_oracle(
            self.spread_oracle,
            graph,
            model,
            rng,
            mc_simulations=self.mc_simulations,
            mc_workers=self.mc_workers,
            budget=budget,
        )
        return oracle, GainCache()

    @staticmethod
    def _oracle_extras(oracle, cache) -> dict[str, Any]:
        return {
            "spread_oracle": oracle.name,
            "sigma_evaluations": oracle.evaluations,
            "gain_cache_hits": cache.hits,
            "gain_cache_misses": cache.misses,
        }
