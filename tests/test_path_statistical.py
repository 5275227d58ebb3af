"""Path-proxy engine equivalence on a real dataset (fixed seeds).

Marked ``statistical`` like the RR/spread suites: heavier than the unit
tier, run standalone with ``pytest -m statistical -k path``.  The flat
engine claims byte-identical seed sets, so every assertion is exact.
"""

import numpy as np
import pytest

from repro.algorithms.irie import IRIE
from repro.algorithms.ldag import LDAG
from repro.algorithms.pmia import PMIA
from repro.datasets import catalog
from repro.diffusion.models import IC, WC, LT
from tests.reference import LegacyIRIE, LegacyLDAG, LegacyPMIA

pytestmark = pytest.mark.statistical

GOLDEN_NETHEPT = {
    ("PMIA", "IC"): [5, 3, 1, 9, 12, 0, 11, 31, 4, 33],
    ("PMIA", "WC"): [5, 3, 12, 1, 9, 11, 4, 31, 0, 6],
    ("LDAG", "LT"): [5, 3, 12, 1, 9, 11, 4, 0, 31, 6],
    ("IRIE", "WC"): [5, 3, 12, 1, 9, 11, 31, 4, 0, 6],
}

# The perfbench ``cell-path`` graph at k = 4: from the second round on,
# picks read the membership that PMIA's filtered rebuilds maintain.
GOLDEN_LIVEJOURNAL = {
    ("PMIA", "WC"): ([3253, 2523, 1043, 3264], "avg_arborescence_size", 143.3364),
    ("LDAG", "LT"): ([3253, 2523, 3264, 1043], "total_dag_nodes", 746075),
}

MODELS = {"IC": IC, "WC": WC, "LT": LT}
CLASSES = {"PMIA": PMIA, "LDAG": LDAG, "IRIE": IRIE}
LEGACY = {"PMIA": LegacyPMIA, "LDAG": LegacyLDAG, "IRIE": LegacyIRIE}


@pytest.fixture(scope="module")
def nethept():
    return catalog.load("nethept")


def _weighted(nethept, model):
    return model.weighted(nethept, np.random.default_rng(0))


@pytest.mark.parametrize("name,model_name", sorted(GOLDEN_NETHEPT))
def test_path_engine_matches_legacy_on_nethept(name, model_name, nethept):
    model = MODELS[model_name]
    graph = _weighted(nethept, model)
    flat = CLASSES[name]().select(
        graph, 10, model, rng=np.random.default_rng(0)
    )
    legacy = LEGACY[name]().select(
        graph, 10, model, rng=np.random.default_rng(0)
    )
    assert flat.seeds == legacy.seeds
    assert flat.seeds == GOLDEN_NETHEPT[(name, model_name)]


def test_path_workers_do_not_change_seeds(nethept):
    graph = _weighted(nethept, WC)
    serial = PMIA().select(graph, 10, WC, rng=np.random.default_rng(0))
    fanned = PMIA(path_workers=2).select(graph, 10, WC, rng=np.random.default_rng(0))
    assert fanned.seeds == serial.seeds


@pytest.mark.parametrize("name,model_name", sorted(GOLDEN_LIVEJOURNAL))
def test_path_engine_golden_on_livejournal(name, model_name):
    model = MODELS[model_name]
    graph = model.weighted(catalog.load("livejournal"), np.random.default_rng(0))
    result = CLASSES[name]().select(graph, 4, model, rng=np.random.default_rng(0))
    seeds, extra, value = GOLDEN_LIVEJOURNAL[(name, model_name)]
    assert result.seeds == seeds
    assert result.extras[extra] == value
