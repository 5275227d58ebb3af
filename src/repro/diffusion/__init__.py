"""Diffusion substrate: models, cascade simulators, MC estimation, worlds."""

from .models import (
    IC,
    LT,
    LT_RANDOM,
    STANDARD_MODELS,
    TV,
    WC,
    Dynamics,
    PropagationModel,
    model_by_name,
    weighted_graph,
)
from .independent_cascade import simulate_ic, simulate_ic_times
from .linear_threshold import simulate_lt
from .batched import batched_cascades, simulate_ic_batch, simulate_lt_batch
from .simulation import (
    DEFAULT_MC_SIMULATIONS,
    SpreadEstimate,
    monte_carlo_spread,
    simulate_spread,
)
from .snapshots import (
    Snapshot,
    generate_ic_snapshot,
    generate_lt_snapshot,
    sample_live_masks,
    strongly_connected_components,
)
from .oracle import (
    ORACLE_BACKENDS,
    BatchedMCOracle,
    GainCache,
    SequentialMCOracle,
    SketchOracle,
    SnapshotOracle,
    SpreadOracle,
    make_oracle,
)
from .paths import (
    DagStore,
    LocalDag,
    LocalTree,
    PathBatch,
    TreeStore,
    batched_max_prob_paths,
    build_dag_store,
    build_tree_store,
)
from .opinion import (
    OpinionEstimate,
    assign_opinions,
    monte_carlo_opinion_spread,
    simulate_opinion_spread,
)
from .rrpool import FlatRRPool, greedy_max_cover, sample_rr_sets

__all__ = [
    "IC",
    "LT",
    "LT_RANDOM",
    "STANDARD_MODELS",
    "TV",
    "WC",
    "Dynamics",
    "PropagationModel",
    "model_by_name",
    "weighted_graph",
    "simulate_ic",
    "simulate_ic_times",
    "simulate_lt",
    "batched_cascades",
    "simulate_ic_batch",
    "simulate_lt_batch",
    "DEFAULT_MC_SIMULATIONS",
    "SpreadEstimate",
    "monte_carlo_spread",
    "simulate_spread",
    "Snapshot",
    "generate_ic_snapshot",
    "generate_lt_snapshot",
    "sample_live_masks",
    "strongly_connected_components",
    "ORACLE_BACKENDS",
    "BatchedMCOracle",
    "GainCache",
    "SequentialMCOracle",
    "SketchOracle",
    "SnapshotOracle",
    "SpreadOracle",
    "make_oracle",
    "OpinionEstimate",
    "assign_opinions",
    "monte_carlo_opinion_spread",
    "simulate_opinion_spread",
    "DagStore",
    "FlatRRPool",
    "LocalDag",
    "LocalTree",
    "PathBatch",
    "TreeStore",
    "batched_max_prob_paths",
    "build_dag_store",
    "build_tree_store",
    "greedy_max_cover",
    "sample_rr_sets",
]
