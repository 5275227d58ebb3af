"""Paper-cell workloads: load, weight, select, then decoupled MC score.

The parent side (:func:`run`) spawns fresh worker processes of this file.
A worker goes through the package API in the order ``repro select`` uses
— ``datasets.load``, ``PropagationModel.weighted``, ``execute_cell``
in-process, then ``monte_carlo_spread`` — and prints one JSON line with
everything it measured.  Set-up time is taken by the parent, from spawning
a worker to its ``ready`` line, so it includes interpreter start and
imports, as a fresh ``repro select`` process pays them.

``python3 perfbench/cells.py pin`` re-pins ``reference.json``: the
spread every cell's score is checked against.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    Tracer,
    child_env,
    engine_layers,
    median,
    metric,
    peak_rss_mb,
    percentile,
    shm_segments,
    span_totals,
    use_source_tree,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Each cell: (algorithm, dataset, model, k, algorithm params).  The
#: cell lists, k, r and worker counts are fixed here so that every run of
#: a workload does the same kind of work; only the RNG streams vary with
#: the workload seed.
WORKLOADS: dict[str, dict[str, Any]] = {
    # IMM at rr_scale=1.0 (the unscaled sample size its guarantee needs):
    # RR sampling is ~90% of selection.  nethept's graph is under the
    # 1 MiB shared-memory threshold and ships to the pool by pickle;
    # livejournal's goes through the shm arena.  IC vs WC varies RR-set
    # width.  The path engine is idle.
    "cell-rr": {
        "cells": [
            ("IMM", dataset, model, 50,
             {"epsilon": 0.5, "rr_scale": 1.0, "rr_workers": 2})
            for dataset in ("nethept", "livejournal")
            for model in ("IC", "WC")
        ],
        "mc_simulations": 1000,
        "mc_workers": 2,
    },
    # PMIA (WC) and LDAG (LT) on livejournal, serial: batched Dijkstra,
    # the DP sweeps and one dirty-set rebuild round do the work.  k=2
    # keeps one pass near 8 s; at k=10 PMIA alone takes about 17 s.
    # Serial LT/WC scoring bypasses the pool; RR sampling is idle.
    "cell-path": {
        "cells": [
            ("PMIA", "livejournal", "WC", 2, {}),
            ("LDAG", "livejournal", "LT", 2, {}),
        ],
        "mc_simulations": 200,
        "mc_workers": None,
    },
}

#: A score passes when it lies within this many standard deviations of
#: the pinned reference spread; the deviation combines the reference's
#: spread across pinning seeds with this estimate's own standard error.
TOLERANCE_SD = 4.0
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150.0


def cell_id(cell) -> str:
    algorithm, dataset, model, k, __ = cell
    return f"{algorithm}:{dataset}:{model}:k={k}"


def streams(seed: int, stream: int, index: int):
    """(selection RNG, scoring RNG) of one cell in one pass."""
    import numpy as np

    return (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index, 0))),
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index, 1))),
    )


# ----------------------------------------------------------------------
# Worker side

class CellWorker:
    """One fresh process: set up the graphs, then run passes over the cells."""

    def __init__(self, workload: str, seed: int, tracer: Tracer) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.graphs: dict[tuple[str, str], Any] = {}

    def setup(self) -> None:
        from repro import datasets
        from repro.diffusion import model_by_name
        import numpy as np

        with self.tracer.span("setup"):
            for __, dataset, model_name, __, __ in self.spec["cells"]:
                if (dataset, model_name) in self.graphs:
                    continue
                with self.tracer.span("datasets.load"):
                    base = datasets.load(dataset)
                model = model_by_name(model_name)
                with self.tracer.span("weights.apply"):
                    graph = model.weighted(base, np.random.default_rng(0))
                self.graphs[(dataset, model_name)] = graph

    def run_pass(self, stream: int, traced: bool, telemetry_sink) -> list[dict[str, Any]]:
        from repro import algorithms
        from repro.diffusion import model_by_name, monte_carlo_spread
        from repro.framework import IsolationConfig, Telemetry, activate, execute_cell

        out = []
        self.tracer.enabled = traced
        with self.tracer.span("pass", stream=stream):
            for index, cell in enumerate(self.spec["cells"]):
                algorithm, dataset, model_name, k, params = cell
                model = model_by_name(model_name)
                graph = self.graphs[(dataset, model_name)]
                select_rng, score_rng = streams(self.seed, stream, index)
                algo = algorithms.make(algorithm, **params)
                started = time.perf_counter()
                with self.tracer.span("IMAlgorithm.select"):
                    record, __ = execute_cell(
                        algo, graph, k, model, rng=select_rng,
                        config=IsolationConfig(enabled=False, telemetry=traced),
                    )
                select_s = time.perf_counter() - started
                entry = {
                    "cell": cell_id(cell),
                    "status": record.status,
                    "select_s": select_s,
                    "seeds": [int(s) for s in record.seeds],
                    "rr_pool_bytes": record.extras.get("rr_pool_bytes"),
                }
                if traced:
                    telemetry_sink.absorb(record.extras.get("telemetry"))
                if record.ok:
                    handle = Telemetry() if traced else None
                    started = time.perf_counter()
                    with self.tracer.span("monte_carlo_spread"), activate(handle):
                        estimate = monte_carlo_spread(
                            graph, record.seeds, model,
                            r=self.spec["mc_simulations"], rng=score_rng,
                            workers=self.spec["mc_workers"],
                        )
                    entry["score_s"] = time.perf_counter() - started
                    entry["spread"] = estimate.mean
                    entry["stderr"] = estimate.stderr
                    if handle is not None:
                        telemetry_sink.absorb(handle.snapshot())
                out.append(entry)
        return out


def _pass_time(entries) -> float:
    return sum(e["select_s"] + e.get("score_s", 0.0) for e in entries)


def worker_main(mode: str, workload: str, seed: int, seconds: float, trace: bool) -> int:
    use_source_tree()
    tracer = Tracer(enabled=trace)
    worker = CellWorker(workload, seed, tracer)
    worker.setup()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    from repro.framework import Telemetry
    import repro.framework.pool as pool_module

    session = Telemetry(label=workload)
    if trace:
        # Engines import run_chunks lazily from this module at call time.
        tracer.wrap(pool_module, "run_chunks", "pool.run")
    passes: list[list[dict]] = []
    untraced: list[list[dict]] = []
    started = time.perf_counter()
    stream = 0
    while not passes or time.perf_counter() - started < seconds:
        if trace:
            # Same stream untraced, then traced: identical work, so the
            # difference is the tracing overhead.
            untraced.append(worker.run_pass(stream, False, session))
        passes.append(worker.run_pass(stream, trace, session))
        stream += 1
    result = {
        "passes": passes,
        "untraced_passes": untraced,
        "peak_rss_mb": peak_rss_mb(),
        "telemetry": session.snapshot() if trace else None,
        "spans": tracer.totals() if trace else None,
    }
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"{workload}-{seed}-spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


# ----------------------------------------------------------------------
# Parent side

def _spawn(mode: str, workload: str, seed: int, seconds: float, trace: bool, stderr_path: Path):
    args = [
        sys.executable, str(Path(__file__).resolve()), mode, workload,
        str(seed), str(seconds), "1" if trace else "0",
    ]
    stderr = open(stderr_path, "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=stderr, text=True,
    )
    return proc, started, stderr


def _wait_ready(proc, started: float, stderr) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        stderr.close()
        raise RuntimeError(f"cell worker did not come up (got {line!r})")
    return time.perf_counter() - started


def _finish(proc, stderr, timeout: float) -> str:
    try:
        out, __ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"cell worker exited with code {proc.returncode}")
    return out


def load_reference() -> dict[str, Any]:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_spread(entry: dict[str, Any], reference: dict[str, Any]) -> dict[str, Any]:
    ref = reference[entry["cell"]]
    sd = math.sqrt(ref["sd"] ** 2 + entry["stderr"] ** 2)
    deviation = abs(entry["spread"] - ref["spread"])
    return {
        "cell": entry["cell"],
        "spread": entry["spread"],
        "reference": ref["spread"],
        "tolerance": TOLERANCE_SD * sd,
        "ok": deviation <= TOLERANCE_SD * sd,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up ``SETUP_REPEATS`` fresh workers, measure with the middle one."""
    spec = WORKLOADS[workload]
    reference = load_reference()
    OUT.mkdir(parents=True, exist_ok=True)
    stderr_path = OUT / f"{workload}-{seed}-worker.stderr"
    stderr_path.write_bytes(b"")
    setups = []

    def setup_only() -> None:
        proc, started, stderr = _spawn("setup", workload, seed, seconds, trace, stderr_path)
        setups.append(_wait_ready(proc, started, stderr))
        _finish(proc, stderr, WORKER_TIMEOUT_S)

    # Set-up samples are taken before and after the measuring worker, so
    # their median spans the run rather than one moment of it.
    before = (SETUP_REPEATS - 1) // 2
    for __ in range(before):
        setup_only()
    shm_before = shm_segments()
    proc, started, stderr = _spawn("run", workload, seed, seconds, trace, stderr_path)
    setups.append(_wait_ready(proc, started, stderr))
    result = json.loads(_finish(proc, stderr, WORKER_TIMEOUT_S).strip().splitlines()[-1])
    # Shared-memory segments are named for the process that published them.
    leftover = sorted(s for s in shm_segments() - shm_before if f"_{proc.pid}_" in s)
    for __ in range(SETUP_REPEATS - 1 - before):
        setup_only()

    passes = result["passes"]
    cells = [cell_id(c) for c in spec["cells"]]
    checks, failed = [], 0
    for entries in passes + result["untraced_passes"]:
        for entry in entries:
            if entry["status"] != "OK":
                failed += 1
                checks.append({"cell": entry["cell"], "ok": False, "status": entry["status"]})
                continue
            check = check_spread(entry, reference)
            checks.append(check)
            failed += 0 if check["ok"] else 1
    attempted = sum(len(p) for p in passes + result["untraced_passes"])
    failed += len(leftover)

    by_cell = {c: [e for p in passes for e in p if e["cell"] == c] for c in cells}
    select_ms = [1000 * median([e["select_s"] for e in by_cell[c]]) for c in cells]
    score_ms = [
        1000 * median([e["score_s"] for e in by_cell[c] if "score_s" in e])
        for c in cells if any("score_s" in e for e in by_cell[c])
    ] or [0.0]
    pass_s = median([_pass_time(p) for p in passes])
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "select_s": metric(median([sum(e["select_s"] for e in p) for p in passes]), "s"),
        "score_s": metric(median([sum(e.get("score_s", 0.0) for e in p) for p in passes]), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "ok_rate": metric(1.0 - failed / attempted, "fraction"),
        "warm_p50_ms": metric(median(score_ms), "ms"),
        "warm_p95_ms": metric(percentile(score_ms, 95), "ms"),
        "cold_p50_ms": metric(median(select_ms), "ms"),
        "max_rps": metric(len(cells) / pass_s, "req/s"),
    }
    samples = {
        "setup_s": len(setups),
        "select_s": len(passes),
        "score_s": len(passes),
        "peak_rss_mb": 1,
        "ok_rate": attempted,
        "warm_p50_ms": len(cells),
        "warm_p95_ms": len(cells),
        "cold_p50_ms": len(cells),
        "max_rps": len(passes),
    }
    layers = layer_metrics(result, passes) if trace else None
    return {
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "record": {
            "setup_s": setups,
            "passes": passes,
            "untraced_passes": result["untraced_passes"],
            "per_cell_select_ms": dict(zip(cells, select_ms)),
            "per_cell_score_ms": score_ms,
            "checks": checks,
            "mc_simulations": spec["mc_simulations"],
            "shm_leftover": leftover,
            "worker_stderr": stderr_path.read_text(errors="replace"),
        },
    }


def layer_metrics(result: dict[str, Any], passes) -> dict[str, Any]:
    """Per-layer metrics of a traced run, per traced pass."""
    tele = result["telemetry"] or {}
    own = result["spans"] or {}
    pool_bytes = [e["rr_pool_bytes"] or 0 for p in passes for e in p]
    untraced = [_pass_time(p) for p in result["untraced_passes"]]
    traced = [_pass_time(p) for p in passes]
    layers = engine_layers(
        span_totals(tele.get("spans") or {}), tele.get("counters") or {}, len(passes)
    )
    layers.update({
        "datasets.load_s": metric(own.get("datasets.load", {}).get("total", 0.0), "s"),
        "weights.apply_s": metric(own.get("weights.apply", {}).get("total", 0.0), "s"),
        "rrpool.pool_mb": metric(max(pool_bytes, default=0) / 1e6, "MB"),
        "pool.run_s": metric(own.get("pool.run", {}).get("total", 0.0) / len(passes), "s"),
        "telemetry.overhead_frac": metric(
            median([(t - u) / u for t, u in zip(traced, untraced)]), "fraction"
        ),
    })
    return layers


# ----------------------------------------------------------------------
# Reference pinning

PIN_SEEDS = range(100, 108)


def pin() -> None:
    """Score every cell on ``PIN_SEEDS`` and store mean and spread."""
    use_source_tree()
    reference: dict[str, Any] = {}
    for workload, spec in WORKLOADS.items():
        values: dict[str, list[float]] = {}
        worker = CellWorker(workload, 0, Tracer(enabled=False))
        worker.setup()
        for seed in PIN_SEEDS:
            worker.seed = seed
            for entry in worker.run_pass(0, False, None):
                if entry["status"] != "OK":
                    raise SystemExit(f"{entry['cell']} failed while pinning: {entry['status']}")
                values.setdefault(entry["cell"], []).append(entry["spread"])
        for cell, spreads in values.items():
            mean = sum(spreads) / len(spreads)
            sd = math.sqrt(sum((v - mean) ** 2 for v in spreads) / (len(spreads) - 1))
            reference[cell] = {
                "spread": mean,
                "sd": sd,
                "r": spec["mc_simulations"],
                "seeds": len(spreads),
            }
            print(f"{cell}: {mean:.2f} +/- {sd:.2f}")
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["pin"]:
        pin()
        sys.exit(0)
    mode, workload, seed, seconds, trace = sys.argv[1:6]
    sys.exit(worker_main(mode, workload, int(seed), float(seconds), trace == "1"))
