"""Shared pieces of the benchmark: paths, statistics, spans, run records.

Nothing here imports ``repro``: the benchmark measures the program from
outside, and the parent process only needs ``repro`` for the serving
correctness checks (which import it themselves).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install step)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes that run the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Statistics

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of a non-empty list."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def supported_percentile(n: int, beyond: int = 10) -> float:
    """Highest percentile with at least ``beyond`` of ``n`` samples above it."""
    if n <= beyond:
        return 50.0
    return 100.0 * (1.0 - beyond / n)


# ----------------------------------------------------------------------
# Machine and process facts

def fingerprint() -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def commit() -> str | None:
    """The checkout's commit, or None outside a git work tree.

    Git is kept from looking above the checkout for a repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's, in MB.

    ``ru_maxrss`` is in KiB on Linux.  The children term is the largest
    single worker, which is how the pool's workers show up.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def vm_hwm_mb(pid: int) -> float | None:
    """Peak RSS (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Spans recorded by the benchmark around calls into the program

class Tracer:
    """In-memory span list: name, start, end and parent per span.

    Spans are kept in a list and written out once, when the run ends.
    ``enabled=False`` makes :meth:`span` a bare ``yield``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current parent."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": end,
            })

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` from now on."""
        inner = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return inner(*args, **kwargs)

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and calls.

        Self time is a span's duration minus the part of it that its
        child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            if record["end"] is None:
                continue
            agg = out.setdefault(record["name"], {"total": 0.0, "self": 0.0, "calls": 0})
            duration = record["end"] - record["start"]
            agg["total"] += duration
            agg["self"] += duration - child_time[record["id"]]
            agg["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Span trees recorded by the program's own telemetry

def span_totals(children: dict[str, Any], out: dict[str, float] | None = None) -> dict[str, float]:
    """Summed ``elapsed`` per span name over a telemetry span tree."""
    out = {} if out is None else out
    for name, node in children.items():
        out[name] = out.get(name, 0.0) + float(node["elapsed"])
        span_totals(node.get("children") or {}, out)
    return out


def span_self_time(children: dict[str, Any], names: tuple[str, ...]) -> float:
    """Summed self time (elapsed minus children) of every node named in ``names``."""
    total = 0.0
    for name, node in children.items():
        kids = node.get("children") or {}
        if name in names:
            total += float(node["elapsed"]) - sum(float(k["elapsed"]) for k in kids.values())
        total += span_self_time(kids, names)
    return total


def engine_layers(spans: dict[str, float], counters: dict[str, int], per: float) -> dict[str, Any]:
    """Engine-layer metrics from the program's own spans and counters.

    Times and counts are divided by ``per`` (traced passes for the cell
    workloads, 1 for the server's whole life); rates and ratios are
    ratios of totals.
    """
    def s(name):
        return metric(spans.get(name, 0.0) / per, "s")

    def c(name, unit="count"):
        return metric(counters.get(name, 0) / per, unit)

    def ratio(num, den, unit):
        return metric(num / den if den else 0.0, unit)

    chunks = counters.get("pool.chunks", 0)
    return {
        "rrpool.sample_s": s("rrpool.sample"),
        "rrpool.rr_sets": c("rrpool.rr_sets"),
        "rrpool.sets_per_s": ratio(
            counters.get("rrpool.rr_sets", 0), spans.get("rrpool.sample", 0.0), "1/s"
        ),
        "rrpool.invert_index_s": s("rrpool.invert_index"),
        "rrpool.max_cover_s": s("rrpool.max_cover"),
        "mc.spread_s": s("mc.spread"),
        "mc.simulations": c("mc.simulations"),
        "mc.sims_per_s": ratio(
            counters.get("mc.simulations", 0), spans.get("mc.spread", 0.0), "1/s"
        ),
        "paths.build_structures_s": s("paths.build_structures"),
        "paths.dijkstra_sources": c("paths.dijkstra_sources"),
        "paths.rebuild_s": s("paths.rebuild"),
        "paths.structures_rebuilt": c("paths.structures_rebuilt"),
        "paths.ap_sweep_s": s("paths.ap_sweep"),
        "oracle.build_s": s("oracle.snapshot_sample"),
        "oracle.sigma_batch_s": s("oracle.sigma_batch"),
        "oracle.sigma_evaluations": c("oracle.sigma_evaluations"),
        "pool.chunks": c("pool.chunks"),
        "pool.retry_ratio": ratio(counters.get("pool.chunk_retries", 0), chunks, "ratio"),
        "pool.serial_downgrades": c("pool.serial_downgrades"),
        "shm.publish_bytes": c("shm.publish_bytes", "bytes"),
        "shm.payload_bytes": c("shm.payload_bytes", "bytes"),
        "shm.attach": c("shm.attach"),
        "pool.shared_pickle_bytes": c("pool.shared_pickle_bytes", "bytes"),
    }


# ----------------------------------------------------------------------
# Output

def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def print_table(title: str, metrics: dict[str, dict[str, Any]], samples: dict[str, int]) -> None:
    print(title)
    width = max(len(name) for name in metrics) + 2
    for name, entry in metrics.items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name.ljust(width)}{entry['value']:>14.6g} {entry['unit']}{count}")


def write_record(record: dict[str, Any], stem: str) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{stem}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=float)
    return path
