"""Golden seed sets for the path-proxy family, pinned on the engine and
on the reference loops in ``tests/reference``.

The reference graph is deterministic (fixed generator + weighting seeds),
and the four techniques are deterministic given the graph — so these
exact seed lists must survive any engine change.  A diff here means the
flat engine stopped being a bit-identical drop-in.
"""

import numpy as np
import pytest

from repro.algorithms.irie import IRIE
from repro.algorithms.ldag import LDAG
from repro.algorithms.pmia import PMIA
from repro.algorithms.simpath import SIMPATH
from repro.diffusion.models import IC, WC, LT
from repro.graph.digraph import DiGraph
from repro.graph.generators import preferential_attachment
from tests.reference import LegacyIRIE, LegacyLDAG, LegacyPMIA


@pytest.fixture(scope="module")
def ref_graphs():
    n, src, dst = preferential_attachment(120, 2, np.random.default_rng(99))
    topo = DiGraph.from_arrays(n, src, dst)
    return {m.name: m.weighted(topo, np.random.default_rng(0)) for m in (IC, WC, LT)}


GOLDEN = {
    "PMIA": ("WC", [5, 2, 1, 0, 22, 24, 4, 21, 23, 17]),
    "LDAG": ("LT", [5, 2, 0, 1, 22, 24, 21, 4, 18, 23]),
    "IRIE": ("WC", [5, 2, 1, 0, 22, 24, 21, 17, 74, 38]),
}

MODELS = {"WC": WC, "LT": LT}
CLASSES = {
    "flat": {"PMIA": PMIA, "LDAG": LDAG, "IRIE": IRIE},
    "legacy": {"PMIA": LegacyPMIA, "LDAG": LegacyLDAG, "IRIE": LegacyIRIE},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("engine", ["flat", "legacy"])
def test_golden_seeds_both_engines(name, engine, ref_graphs):
    model_name, expected = GOLDEN[name]
    model = MODELS[model_name]
    result = CLASSES[engine][name]().select(
        ref_graphs[model_name], 10, model, rng=np.random.default_rng(0)
    )
    assert result.seeds == expected


@pytest.mark.parametrize("vertex_cover", [False, True])
def test_golden_simpath_seeds(vertex_cover, ref_graphs):
    # The vertex-cover start-up is a documented approximation (η-pruning
    # from the covered side), yet on this graph the CELF rounds land on
    # the same seeds — pinned to catch silent drift in either mode.
    result = SIMPATH(vertex_cover=vertex_cover).select(
        ref_graphs["LT"], 10, LT, rng=np.random.default_rng(0)
    )
    assert result.seeds == [5, 2, 1, 0, 22, 24, 21, 4, 18, 17]
