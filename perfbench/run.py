"""One benchmark for paper cells and served queries.

    python3 perfbench/run.py --workload cell-rr --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seed

Each run sets up, measures for ``--seconds``, checks the program's outputs,
prints every metric with its unit and sample count, writes a run record
to ``perfbench/out/``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).  A run
whose outputs are wrong prints that line and exits with code 1.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, commit, fingerprint, metric, print_table, write_record  # noqa: E402

WORKLOADS = ("cell-rr", "cell-path", "serve-mixed")
DEFAULT_SEED = 0


def definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mixed":
        import serve as module
    else:
        import cells as module
    return module.run(workload, seed, seconds, trace)


def result_line(spec: dict, outcome: dict, trace: bool) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome["layers"] if trace else outcome["metrics"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        # A layer the workload does not exercise reads zero.
        value = measured.get(name, metric(0.0, unit)) if trace else measured[name]
        if value["unit"] != unit:
            raise RuntimeError(f"{name} measured in {value['unit']}, declared in {unit}")
        metrics[name] = value
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = definition()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    lines = {}
    for workload in workloads:
        outcome = run_workload(workload, args.seed, seconds, trace)
        line = result_line(spec, outcome, trace)
        shown = line["metrics"] if trace else outcome["metrics"]
        samples = {} if trace else outcome["samples"]
        print_table(
            f"{workload} (seed {args.seed}, {seconds:g} s, trace {args.trace}): "
            f"{line['failed']} of {line['attempted']} operations failed",
            shown, samples,
        )
        path = write_record({
            "workload": workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": trace,
            "commit": commit(),
            "machine": fingerprint(),
            "metrics": outcome["metrics"],
            "samples": outcome["samples"],
            "layers": outcome["layers"],
            "result": line,
            "detail": outcome["record"],
        }, f"{workload}-{args.seed}-trace{args.trace}")
        print(f"  run record: {path.relative_to(ROOT)}")
        lines[workload] = line
    if args.workload:
        final = lines[args.workload]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
