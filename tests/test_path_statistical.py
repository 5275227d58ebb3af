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
