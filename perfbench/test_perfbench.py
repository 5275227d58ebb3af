"""Self-tests of the benchmark: smoke-scale runs plus its own helpers.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at smoke scale.  The
untraced run must emit every end-to-end metric of ``BENCHMARK.json`` with
its unit and find no failed operation; the traced run must emit every
per-layer metric and show the idle layers the README predicts.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import serve  # noqa: E402
from common import ROOT, Tracer, percentile, supported_percentile  # noqa: E402

SMOKE_SECONDS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=run.WORKLOADS)
def smoke(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def _assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [entry["name"] for entry in declared]
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert isinstance(metrics[entry["name"]]["value"], float)


def test_untraced_run_emits_every_end_to_end_metric_and_no_error(smoke):
    __, line, __ = smoke
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    _assert_declared(line["metrics"], SPEC["end_to_end"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert line["metrics"]["ok_rate"]["value"] == 1.0
    for name, entry in line["metrics"].items():
        assert entry["value"] > 0, name


def test_traced_run_emits_every_layer_metric_and_idle_layers_read_zero(smoke):
    workload, __, line = smoke
    assert line["correct"] and line["failed"] == 0
    metrics = line["metrics"]
    _assert_declared(metrics, SPEC["per_layer"])
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["datasets.load_s"] > 0
    if workload != "cell-rr":
        assert value["pool.chunks"] == 0
    if workload != "cell-path":
        assert all(v == 0 for name, v in value.items() if name.startswith("paths."))
    if workload == "cell-rr":
        assert value["rrpool.sample_s"] > 0 and value["pool.chunks"] > 0
        assert value["shm.attach"] > 0 and value["pool.shared_pickle_bytes"] > 0
    if workload == "cell-path":
        assert value["rrpool.sample_s"] == 0
        assert value["paths.dijkstra_sources"] > 0 and value["paths.structures_rebuilt"] > 0
    if workload == "serve-mixed":
        assert value["mc.spread_s"] == 0
        assert value["serving.handler_ms"] > 0 and value["oracle.sigma_evaluations"] > 0
    else:
        assert value["mc.simulations"] > 0
        assert all(v == 0 for name, v in value.items() if name.startswith("serving."))


def test_bare_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "reference.json").write_text((HERE / "reference.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell-rr", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_schedule_is_a_function_of_the_seed():
    top = {pair: list(range(100, 150)) for pair in serve.PAIRS}
    pool = serve.hot_sets(random.Random(3), top)
    band = {"nethept": list(range(200, 300)), "dblp": list(range(300, 400))}
    first = serve.schedule(5, 10.0, pool, top, band)
    assert first == serve.schedule(5, 10.0, pool, top, band)
    assert first != serve.schedule(6, 10.0, pool, top, band)
    colds = [item for item in first if item["kind"].startswith("cold")]
    assert len(colds) == sum(n for __, __, n in serve.LADDER)
    offsets = [item["offset"] for item in first]
    assert offsets == sorted(offsets)


def test_counts_split_exactly():
    counts = dict(serve._counts(37, [(kind, share) for kind, share, __ in serve.MIX]))
    assert sum(counts.values()) == 37
    assert counts == {"sigma_hot": 12, "topk_ris": 10, "topk_selection": 5,
                      "sigma_fresh": 7, "gain": 3}


def test_percentiles():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4, 5], 95) == pytest.approx(4.8)
    assert supported_percentile(200) == 95.0
    assert supported_percentile(1000) == 99.0


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    outer = tracer.spans[0]
    inner = tracer.spans[1]
    assert inner["parent"] == outer["id"]
    assert totals["outer"]["self"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )


def test_result_line_rejects_a_unit_mismatch():
    outcome = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {e["name"]: {"value": 1.0, "unit": "furlong"} for e in SPEC["end_to_end"]}}
    with pytest.raises(RuntimeError):
        run.result_line(SPEC, outcome, trace=False)
