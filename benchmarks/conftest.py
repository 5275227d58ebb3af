"""Put the repository root on ``sys.path`` so benches can import the
reference implementations in ``tests/reference`` (the speedup baselines)
under a plain ``pytest benchmarks/`` run."""

import pathlib
import sys

_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
