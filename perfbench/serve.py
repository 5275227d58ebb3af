"""Served-query workload: ``repro serve`` under an open loop of mixed queries.

One server process with its defaults (one executor worker, the snapshot
oracle, every bundled dataset) is launched, pre-built with the hot
artifacts, then driven by an open loop of Poisson arrivals over two
connections while the rate steps up a fixed ladder.  The open-loop
generator speaks the line-JSON protocol itself, since the package's
blocking client waits for each reply; pre-building and the other
closed-loop calls use that client.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import (
    OUT,
    ROOT,
    Tracer,
    child_env,
    engine_layers,
    median,
    metric,
    percentile,
    shm_segments,
    span_self_time,
    span_totals,
    supported_percentile,
    use_source_tree,
    vm_hwm_mb,
)

PAIRS = (("nethept", "IC"), ("nethept", "WC"), ("dblp", "IC"), ("dblp", "WC"))
K_MAX = 50
HOT_SEED = 0
RIS_PARAMS = {"num_rr_sets": 4000}
#: The cached selection behind prefix-hit ``topk`` requests, per model.
SELECTION = {"IC": ("IMM", {"epsilon": 0.5, "rr_scale": 0.1}), "WC": ("DegreeDiscount", {})}
#: The server's default ``--worlds``; the σ checks rebuild oracles with it.
WORLDS = 200
#: Hot σ seed sets per (dataset, model), evaluated while pre-building, so
#: a repeat is a σ-memo hit.
HOT_SETS = 4
#: Fresh σ sets and gains run the reach kernel on these pairs only; on
#: dblp under IC one reach costs 60-180 ms, which would make the tail a
#: few such requests and the queue behind them.
REACH_PAIRS = (("nethept", "IC"), ("nethept", "WC"), ("dblp", "WC"))
#: Fresh sets and gains draw their nodes from this out-degree rank band,
#: where a reach costs about the same for any node (dblp/WC: 25-32 ms,
#: nethept: 5-10 ms).
BAND = (150, 400)
#: (kind, percent of warm requests, pairs it is spread over).  Memo hits,
#: max-cover over a warm RR pool and selection prefix hits are cheap; the
#: fresh σ sets and gains on dblp/WC form one tight class of 9%, which the
#: 5% tail falls inside rather than on the edge between two classes.
MIX = (
    ("sigma_hot", 34, PAIRS),
    ("topk_ris", 26, PAIRS),
    ("topk_selection", 13, PAIRS),
    ("sigma_fresh", 18, REACH_PAIRS),
    ("gain", 9, REACH_PAIRS),
)
#: Cold requests, in a seeded order: fresh RR-pool seeds and fresh oracle
#: seeds, each building and caching a new artifact.  The RR builds are the
#: majority and all alike, so the cold median is one build's cost.
COLD = [("cold_topk", ("nethept", "WC"))] * 4 + [
    ("cold_sigma", ("dblp", "IC")), ("cold_sigma", ("dblp", "WC")),
]
#: (rate req/s, share of --seconds, cold requests in the step).  The
#: reference step comes first, right after pre-building, so it measures
#: warm reads with every hot artifact resident.  The cold builds then run
#: beside light warm traffic.  The knee lies between the last two steps,
#: which are far apart so that it does so on every run.
LADDER = ((20, 0.6, 0), (10, 0.2, 6), (60, 0.1, 0), (400, 0.1, 0))
REFERENCE_RATE = 20
#: A step meets the limit when its tail latency is within this bound and
#: its backlog at the step's end is no more than the limit's worth of
#: arrivals.
LIMIT_MS = 1000.0
TAIL = 95.0
CONNECTIONS = 2
PHASES = ("select_s", "score_s", "pool_s")
SETUP_REPEATS = 5
DRAIN_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Server lifecycle

class Server:
    """One ``repro serve`` subprocess with its stderr kept in a file."""

    def __init__(self, tag: str, trace_path: Path | None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.stderr_path = OUT / f"{tag}.stderr"
        if trace_path is not None and trace_path.exists():
            trace_path.unlink()
        args = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        self._stderr = open(self.stderr_path, "wb")
        self.shm_before = shm_segments()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        # The announcement, printed once listening, ends "... on HOST:PORT (...)".
        line = self.proc.stdout.readline()
        self.listen_s = time.perf_counter() - started
        self.host = "127.0.0.1"
        self.port = None
        if " on " in line:
            self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        else:
            self.stop()
            raise RuntimeError(f"server did not come up (got {line!r})")

    def stop(self) -> dict[str, Any]:
        """Ask for shutdown, wait for exit, and report what it left behind."""
        forced = False
        if self.proc.poll() is None and self.port is not None:
            try:
                with _client(self) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
        try:
            self.proc.wait(EXIT_TIMEOUT_S if self.port is not None else 0)
        except subprocess.TimeoutExpired:
            forced = True
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        stderr = self.stderr_path.read_text(errors="replace")
        marker = f"_{self.proc.pid}_"
        leftover = sorted(s for s in shm_segments() - self.shm_before if marker in s)
        return {
            "exit_code": self.proc.returncode,
            "forced_kill": forced,
            "shm_leftover": leftover,
            # A known defect: the server may print an uncaught
            # CancelledError from _on_client while connections close at
            # shutdown.  Recorded, not counted as a failed request.
            "cancelled_error_tracebacks": stderr.count("CancelledError"),
            "stderr": stderr,
        }


def _client(server: "Server"):
    from repro.serving import ServingClient

    return ServingClient(server.host, server.port)


# ----------------------------------------------------------------------
# Requests

def _topk(pair, algorithm, k, params, seed=HOT_SEED):
    return {"op": "topk", "dataset": pair[0], "model": pair[1],
            "algorithm": algorithm, "k": int(k), "params": params, "seed": int(seed)}


def _sigma(pair, seeds, seed=HOT_SEED):
    return {"op": "sigma", "dataset": pair[0], "model": pair[1],
            "seeds": [int(s) for s in seeds], "seed": int(seed)}


def _gain(pair, node, seeds):
    return {"op": "gain", "dataset": pair[0], "model": pair[1], "node": int(node),
            "seeds": [int(s) for s in seeds], "seed": HOT_SEED}


def selection_list() -> list[dict[str, Any]]:
    """The fixed top-k list every launch pre-builds (cold)."""
    out = []
    for pair in PAIRS:
        out.append(_topk(pair, "RIS", K_MAX, RIS_PARAMS))
        algorithm, params = SELECTION[pair[1]]
        out.append(_topk(pair, algorithm, K_MAX, params))
    return out


def hot_sets(rng: random.Random, top: dict[tuple, list[int]]) -> dict[tuple, list[list[int]]]:
    """Seeded σ pool: subsets of each pair's served top-k."""
    return {
        pair: [sorted(rng.sample(top[pair], rng.randint(1, 3))) for __ in range(HOT_SETS)]
        for pair in PAIRS
    }


def band_nodes() -> dict[str, list[int]]:
    """Per dataset, the nodes in the out-degree rank band ``BAND``."""
    from repro import datasets
    import numpy as np

    out = {}
    for dataset in sorted({d for d, __ in PAIRS}):
        order = np.argsort(-datasets.load(dataset).out_degree(), kind="stable")
        out[dataset] = [int(v) for v in order[BAND[0]:BAND[1]]]
    return out


def _counts(total: int, shares) -> list[tuple[str, int]]:
    """Largest-remainder split of ``total`` by percentage shares."""
    raw = [(name, total * share / 100.0) for name, share in shares]
    counts = {name: int(value) for name, value in raw}
    rest = total - sum(counts.values())
    for name, value in sorted(raw, key=lambda kv: kv[1] - int(kv[1]), reverse=True)[:rest]:
        counts[name] += 1
    return [(name, counts[name]) for name, __ in shares]


def schedule(seed: int, seconds: float, pool, top, band) -> list[dict[str, Any]]:
    """The open-loop arrival schedule: offset, step, kind and request.

    Within a step the request kinds have fixed counts and (dataset, model)
    pairs are balanced; the seed draws the warm arrival times (uniform
    order statistics: a Poisson process given its count), the order of the
    cold builds, and every node, k and seed set.
    """
    rng = random.Random(seed)
    colds = list(COLD)
    rng.shuffle(colds)
    out: list[dict[str, Any]] = []
    offset = 0.0
    fresh_seed = 1_000_000 + 1000 * seed
    for step, (rate, share, n_cold) in enumerate(LADDER):
        duration = seconds * share
        total = max(n_cold, round(rate * duration))
        kinds: list[tuple[str, Any]] = []
        for kind, count in _counts(total - n_cold, [(k, share) for k, share, __ in MIX]):
            allowed = next(pairs for k, __, pairs in MIX if k == kind)
            pairs = [allowed[i % len(allowed)] for i in range(count)]
            rng.shuffle(pairs)
            kinds += [(kind, pair) for pair in pairs]
        rng.shuffle(kinds)
        times = [rng.uniform(0.0, duration) for __ in kinds]
        # Cold builds are evenly spaced, so none waits behind another.
        kinds += [colds.pop(0) for __ in range(n_cold)]
        times += [(i + 0.5) * duration / n_cold for i in range(n_cold)]
        for at, (kind, pair) in sorted(zip(times, kinds), key=lambda item: item[0]):
            if kind == "sigma_hot":
                request = _sigma(pair, rng.choice(pool[pair]))
            elif kind == "sigma_fresh":
                request = _sigma(pair, rng.sample(band[pair[0]], 2))
            elif kind == "topk_ris":
                request = _topk(pair, "RIS", rng.randint(1, K_MAX), RIS_PARAMS)
            elif kind == "topk_selection":
                algorithm, params = SELECTION[pair[1]]
                request = _topk(pair, algorithm, rng.randint(1, K_MAX), params)
            elif kind == "gain":
                node, extra = rng.sample(band[pair[0]], 2)
                request = _gain(pair, node, [extra])
            elif kind == "cold_topk":
                fresh_seed += 1
                request = _topk(pair, "RIS", rng.randint(1, K_MAX), RIS_PARAMS, fresh_seed)
            else:  # cold_sigma: a fixed one-node set keeps the build cost steady
                fresh_seed += 1
                request = _sigma(pair, top[pair][:1], fresh_seed)
            out.append({"offset": offset + at, "step": step, "kind": kind, "request": request})
        offset += duration
    return out


# ----------------------------------------------------------------------
# Open-loop load generator

def step_ends(seconds: float) -> list[float]:
    """Offsets at which each ladder step ends."""
    ends, end = [], 0.0
    for __, share, __ in LADDER:
        end += seconds * share
        ends.append(end)
    return ends


async def _drive(host: str, port: int, plan, ends, tracer: Tracer) -> dict[str, Any]:
    conns = [await asyncio.open_connection(host, port) for __ in range(CONNECTIONS)]
    records = [dict(item, id=i) for i, item in enumerate(plan)]
    state = {"received": 0, "sent": 0}
    finished = asyncio.Event()

    async def reader(stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            record = records[message["id"]]
            record["recv"] = now
            record["ok"] = bool(message.get("ok"))
            record["result"] = message.get("result")
            record["error"] = message.get("error")
            state["received"] += 1
            if state["received"] == len(records):
                finished.set()

    readers = [asyncio.ensure_future(reader(r)) for r, __ in conns]
    backlog: list[int] = []
    t0 = time.perf_counter() + 0.05

    async def monitor() -> None:
        for end in ends:
            delay = t0 + end - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            backlog.append(state["sent"] - state["received"])

    watch = asyncio.ensure_future(monitor())
    for record in records:
        due = t0 + record["offset"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record["due"] = due
        record["sent"] = time.perf_counter()
        writer = conns[record["id"] % CONNECTIONS][1]
        writer.write((json.dumps(dict(record["request"], id=record["id"])) + "\n").encode())
        await writer.drain()
        state["sent"] += 1
    try:
        await asyncio.wait_for(finished.wait(), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    await watch
    # Drain: every response is in (or timed out) before the connections close.
    for __, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    return {"records": records, "backlog": backlog}


# ----------------------------------------------------------------------
# Pre-building and correctness

#: Prefix sizes of each pair's served RIS top-k whose σ the score phase
#: estimates: the served analogue of scoring a cell's selected seeds.
SCORE_PREFIXES = (1, 3, 10)


def prebuild(server: Server, rng_seed: int, tracer: Tracer) -> dict[str, Any]:
    """Pre-build the hot artifacts, timing each phase closed-loop.

    ``select``: the fixed top-k list (RR pools and cached selections).
    ``score``: σ of prefixes of the served RIS seeds (builds the oracles).
    ``pool``: σ of the seeded hot pool, so that repeats are memo hits.
    """
    from repro.serving import ServingError

    counts = {"attempted": 0, "failed": 0}
    phases = {}
    with _client(server) as client:
        def phase(name, requests):
            out = []
            started = time.perf_counter()
            with tracer.span("prebuild." + name):
                for request in requests:
                    counts["attempted"] += 1
                    try:
                        out.append(client.request_many([request])[0])
                    except ServingError:
                        counts["failed"] += 1
                        out.append(None)
            phases[name + "_s"] = time.perf_counter() - started
            return out

        selected = phase("select", selection_list())
        top = {
            (r["dataset"], r["model"]): result["seeds"]
            for r, result in zip(selection_list(), selected)
            if r["algorithm"] == "RIS" and result is not None
        }
        if len(top) != len(PAIRS):
            raise RuntimeError("pre-building the RR pools failed")
        phase("score", [_sigma(pair, top[pair][:n]) for pair in PAIRS for n in SCORE_PREFIXES])
        pool = hot_sets(random.Random(rng_seed), top)
        phase("pool", [_sigma(pair, seeds) for pair in PAIRS for seeds in pool[pair]])
    return {
        **phases,
        **counts,
        "pool": pool,
        "top": top,
    }


class Checker:
    """Recompute served answers in-process on the same pinned inputs."""

    def __init__(self, tracer: Tracer) -> None:
        from repro import datasets
        from repro.diffusion import model_by_name
        import numpy as np

        self.graphs = {}
        for dataset, model_name in PAIRS:
            with tracer.span("datasets.load"):
                base = datasets.load(dataset)
            model = model_by_name(model_name)
            with tracer.span("weights.apply"):
                # The serving catalog weights with default_rng(0).
                graph = model.weighted(base, np.random.default_rng(0))
            self.graphs[(dataset, model_name)] = (graph, model)
        self._oracles: dict[tuple, Any] = {}

    def oracle(self, pair, seed: int):
        from repro.diffusion.oracle import make_oracle
        import numpy as np

        key = (pair, seed)
        if key not in self._oracles:
            graph, model = self.graphs[pair]
            self._oracles[key] = make_oracle(
                "snapshot", graph, model, np.random.default_rng(seed),
                mc_simulations=WORLDS,
            )
        return self._oracles[key]

    def expected(self, request: dict[str, Any]):
        from repro import algorithms
        import numpy as np

        pair = (request["dataset"], request["model"])
        if request["op"] == "topk":
            graph, model = self.graphs[pair]
            algo = algorithms.make("RIS", **request["params"])
            result = algo.select(graph, request["k"], model,
                                 rng=np.random.default_rng(request["seed"]))
            return [int(s) for s in result.seeds]
        oracle = self.oracle(pair, request["seed"])
        if request["op"] == "sigma":
            return oracle.evaluate(request["seeds"])
        return oracle.gain(request["node"], extra=request["seeds"])

    @staticmethod
    def served(record: dict[str, Any]):
        result = record["result"]
        op = record["request"]["op"]
        if op == "topk":
            return [int(s) for s in result["seeds"]]
        return float(result["sigma" if op == "sigma" else "gain"])


def check_sample(records, seed: int, tracer: Tracer) -> list[dict[str, Any]]:
    """A seeded sample of served answers against direct calls."""
    rng = random.Random(seed + 7)
    answered = [r for r in records if r.get("ok")]
    pools = {
        "topk_ris": [r for r in answered if r["kind"] in ("topk_ris", "cold_topk")],
        "sigma": [r for r in answered if r["request"]["op"] == "sigma"],
        "gain": [r for r in answered if r["kind"] == "gain"],
    }
    sample = []
    for name, size in (("topk_ris", 4), ("sigma", 10), ("gain", 4)):
        candidates = pools[name]
        sample += rng.sample(candidates, min(size, len(candidates)))
    with tracer.span("checks"):
        checker = Checker(tracer)
        out = []
        for record in sample:
            expected = checker.expected(record["request"])
            served = Checker.served(record)
            record["correct"] = served == expected
            out.append({"id": record["id"], "kind": record["kind"], "ok": record["correct"],
                        "served": served, "expected": expected})
    return out


# ----------------------------------------------------------------------
# The run

def _overhead_probe(server: Server, pool, tracer: Tracer) -> list[tuple[float, float]]:
    """Closed-loop warm requests with the benchmark's spans off, then on."""
    requests = []
    for pair in PAIRS:
        algorithm, params = SELECTION[pair[1]]
        requests += [_sigma(pair, s) for s in pool[pair]]
        requests += [_topk(pair, "RIS", 10, RIS_PARAMS), _topk(pair, algorithm, 10, params)]
    pairs = []
    with _client(server) as client:
        for __ in range(3):
            times = []
            for enabled in (False, True):
                tracer.enabled = enabled
                started = time.perf_counter()
                for request in requests:
                    with tracer.span("probe." + request["op"]):
                        client.request_many([request])
                times.append(time.perf_counter() - started)
            pairs.append(tuple(times))
    tracer.enabled = True
    return pairs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    use_source_tree()
    tracer = Tracer(enabled=trace)
    launches, lifecycle = [], []
    attempted = failed = 0

    def setup_only(i: int) -> None:
        nonlocal attempted, failed
        with tracer.span("server.setup_only"):
            server = Server(f"{workload}-{seed}-setup{i}", None)
            try:
                built = prebuild(server, seed, tracer)
            finally:
                lifecycle.append(server.stop())
        launches.append({"listen_s": server.listen_s, **{k: built[k] for k in PHASES}})
        attempted += built["attempted"]
        failed += built["failed"]

    # Set-up samples are taken before and after the measured launch, so
    # their median spans the run rather than one moment of it.
    before = (SETUP_REPEATS - 1) // 2
    for i in range(before):
        setup_only(i)

    trace_path = OUT / f"{workload}-{seed}-server.trace.jsonl" if trace else None
    with tracer.span("server.measured"):
        server = Server(f"{workload}-{seed}-server", trace_path)
        try:
            built = prebuild(server, seed, tracer)
            measured = {"listen_s": server.listen_s, **{k: built[k] for k in PHASES}}
            launches.append(measured)
            attempted += built["attempted"]
            failed += built["failed"]
            plan = schedule(seed, seconds, built["pool"], built["top"], band_nodes())
            with tracer.span("load"):
                load = asyncio.run(
                    _drive(server.host, server.port, plan, step_ends(seconds), tracer)
                )
            probe = _overhead_probe(server, built["pool"], tracer) if trace else []
            with _client(server) as client:
                stats = client.stats()
            peak_rss = vm_hwm_mb(server.proc.pid)
        finally:
            lifecycle.append(server.stop())
    for i in range(before, SETUP_REPEATS - 1):
        setup_only(i)
    records = load["records"]
    for r in records:
        if "sent" in r:
            # One span per request, from send to response (or to the end of
            # the drain when it never came).
            tracer.add("request." + r["kind"], r["sent"], r.get("recv", time.perf_counter()))
    checks = check_sample(records, seed, tracer)

    for r in records:
        answered = r.get("ok") and "recv" in r
        # Timed from the due send time; a failed request counts as missing
        # the limit, with the drain timeout as its latency.
        r["latency_ms"] = (r["recv"] - r["due"]) * 1000 if answered else DRAIN_TIMEOUT_S * 1000
        if answered:
            r["warm"] = bool(r["result"].get("warm"))
    bad_ids = {r["id"] for r in records
               if not (r.get("ok") and "recv" in r) or r.get("correct") is False}
    attempted += len(records)
    failed += len(bad_ids)
    leftovers = [s for life in lifecycle for s in life["shm_leftover"]]
    failed += len(leftovers)

    steps = []
    for step, (rate, share, __) in enumerate(LADDER):
        in_step = [r for r in records if r["step"] == step]
        latencies = [r["latency_ms"] for r in in_step] or [DRAIN_TIMEOUT_S * 1000]
        late = [(r["sent"] - r["due"]) * 1000 for r in in_step if "sent" in r] or [0.0]
        tail = percentile(latencies, TAIL)
        backlog = load["backlog"][step]
        steps.append({
            "rate": rate,
            "seconds": seconds * share,
            "sent": len([r for r in in_step if "sent" in r]),
            "succeeded": len([r for r in in_step if r.get("ok")]),
            "failed": len([r for r in in_step if r["id"] in bad_ids]),
            "p50_ms": percentile(latencies, 50),
            f"p{TAIL:g}_ms": tail,
            "late_p99_ms": percentile(late, 99),
            "backlog_end": backlog,
            "meets_limit": tail <= LIMIT_MS and backlog <= rate * LIMIT_MS / 1000.0,
        })
    passing = [s["rate"] for s in steps if s["meets_limit"]]
    ref_step = next(i for i, (rate, __, __) in enumerate(LADDER) if rate == REFERENCE_RATE)
    warm_ref = [r["latency_ms"] for r in records
                if r["step"] == ref_step and r.get("warm") is not False
                and not r["kind"].startswith("cold")] or [DRAIN_TIMEOUT_S * 1000]
    colds = [r["latency_ms"] for r in records if r["kind"].startswith("cold")] or [DRAIN_TIMEOUT_S * 1000]
    setups = [sum(launch.values()) for launch in launches]
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "select_s": metric(median([l["select_s"] for l in launches]), "s"),
        "score_s": metric(median([l["score_s"] for l in launches]), "s"),
        "peak_rss_mb": metric(peak_rss or 0.0, "MB"),
        "ok_rate": metric(1.0 - failed / attempted, "fraction"),
        "warm_p50_ms": metric(percentile(warm_ref, 50), "ms"),
        "warm_p95_ms": metric(percentile(warm_ref, TAIL), "ms"),
        "cold_p50_ms": metric(median(colds), "ms"),
        "max_rps": metric(max(passing) if passing else 0.0, "req/s"),
    }
    samples = {
        "setup_s": len(setups),
        "select_s": len(launches),
        "score_s": len(launches),
        "peak_rss_mb": 1,
        "ok_rate": attempted,
        "warm_p50_ms": len(warm_ref),
        "warm_p95_ms": len(warm_ref),
        "cold_p50_ms": len(colds),
        "max_rps": len(steps),
    }
    layers = None
    if trace:
        layers = layer_metrics(records, load, stats, trace_path, measured, tracer, probe, ref_step)
        tracer.write(OUT / f"{workload}-{seed}-spans.jsonl")
    return {
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "record": {
            "launches": launches,
            "steps": steps,
            "warm_percentile_supported": supported_percentile(len(warm_ref)),
            "latency_limit_ms": LIMIT_MS,
            "tail_percentile": TAIL,
            "checks": checks,
            "server_stats": stats,
            "lifecycle": lifecycle,
            # Warm-intended requests the server answered cold (a hot
            # artifact rebuilt); expected to be 0.
            "unplanned_cold": len([r for r in records
                                   if r.get("warm") is False and not r["kind"].startswith("cold")]),
            "errors": [r.get("error") for r in records if r["id"] in bad_ids][:20],
            "requests": [
                {"step": r["step"], "kind": r["kind"], "dataset": r["request"]["dataset"],
                 "model": r["request"]["model"], "latency_ms": r["latency_ms"],
                 "late_ms": (r["sent"] - r["due"]) * 1000 if "sent" in r else None,
                 "warm": r.get("warm"), "ok": r["id"] not in bad_ids}
                for r in records
            ],
        },
    }


def layer_metrics(records, load, stats, trace_path, measured, tracer, probe, ref_step):
    """Per-layer metrics from the server's trace and stats, plus the client."""
    from repro.framework.telemetry import read_trace

    tree: dict[str, Any] = {}
    for event in read_trace(trace_path):
        if event.get("type") != "span":
            continue
        node = {"children": tree}
        for part in event["path"].split("/"):
            node = node["children"].setdefault(part, {"elapsed": 0.0, "children": {}})
        node["elapsed"] = float(event["elapsed"])
        node["calls"] = int(event.get("calls", 0))
    spans = span_totals(tree)
    counters = stats.get("counters", {})
    by_kind = stats.get("cache", {}).get("by_kind", {})
    handler_ops = [f"serving.{op}" for op in ("topk", "sigma", "gain")]
    handler_s = sum(tree.get(op, {}).get("elapsed", 0.0) for op in handler_ops)
    handler_calls = sum(tree.get(op, {}).get("calls", 0) for op in handler_ops)
    handler_ms = 1000 * handler_s / handler_calls if handler_calls else 0.0
    answered = [r for r in records if r.get("ok") and "recv" in r]
    client_ms = [(r["recv"] - r["sent"]) * 1000 for r in answered]
    late = [(r["sent"] - r["due"]) * 1000 for r in records if "sent" in r]
    sigma_requests = counters.get("serving.sigma_requests", 0)
    # Snapshot gains always evaluate; every other evaluation is a σ-memo miss.
    misses = counters.get("oracle.sigma_evaluations", 0) - counters.get("serving.gain_requests", 0)
    hits = counters.get("serving.artifact_hits", 0)
    lookups = hits + counters.get("serving.artifact_misses", 0)
    batches = counters.get("serving.coalesced_batches", 0)
    own = tracer.totals()
    layers = engine_layers(spans, counters, 1)
    layers.update({
        "datasets.load_s": metric(spans.get("serving.catalog_load", 0.0), "s"),
        "weights.apply_s": metric(own.get("weights.apply", {}).get("total", 0.0), "s"),
        "serving.catalog_load_s": metric(spans.get("serving.catalog_load", 0.0), "s"),
        "serving.warmup_s": metric(sum(measured[k] for k in PHASES), "s"),
        "rrpool.pool_mb": metric(by_kind.get("rrpool", {}).get("bytes", 0) / 1e6, "MB"),
        "oracle.memo_hit_ratio": metric(
            1.0 - misses / sigma_requests if sigma_requests else 0.0, "ratio"
        ),
        "oracle.mb": metric(by_kind.get("oracle", {}).get("bytes", 0) / 1e6, "MB"),
        "serving.handler_ms": metric(handler_ms, "ms"),
        "serving.wait_ms": metric(
            sum(client_ms) / len(client_ms) - handler_ms if client_ms else 0.0, "ms"
        ),
        "serving.executor_wait_s": metric(span_self_time(tree, (
            "serving.sigma_eval", "serving.max_cover", "serving.build", "serving.gain_eval",
        )), "s"),
        "serving.coalesce_size": metric(
            counters.get("serving.coalesced_requests", 0) / batches if batches else 0.0, "count"
        ),
        "serving.artifact_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "serving.artifact_evictions": metric(counters.get("serving.artifact_evictions", 0), "count"),
        "serving.build_s": metric(
            spans.get("serving.build", 0.0) + spans.get("serving.select", 0.0), "s"
        ),
        "loadgen.late_p99_ms": metric(percentile(late, 99) if late else 0.0, "ms"),
        "loadgen.backlog": metric(
            load["backlog"][ref_step] if ref_step < len(load["backlog"]) else 0, "count"
        ),
        "telemetry.overhead_frac": metric(
            median([(on - off) / off for off, on in probe]) if probe else 0.0, "fraction"
        ),
    })
    return layers
