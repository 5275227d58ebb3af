"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``            the catalog with Table-1 statistics
``support-matrix``           Table 5 (models supported per algorithm)
``recommend``                the Fig.-11b decision tree
``select``                   run one technique on a dataset and score it
``tune``                     the Sec.-5.1.1 optimal-parameter procedure
``report``                   aggregate benchmarks/results into markdown
``serve``                    resident influence-query server (repro.serving)
``trace``                    summarize a JSONL telemetry trace

Examples::

    python -m repro select --dataset nethept --model WC \
        --algorithm IMM --k 20 --param epsilon=0.5 --param rr_scale=0.05
    python -m repro recommend --model LT
    python -m repro tune --dataset nethept --model WC --algorithm EaSyIM \
        --parameter path_length --spectrum 6,4,3,2,1 --k 10
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import algorithms, datasets, diffusion
from .framework import (
    CheckpointJournal,
    IsolationConfig,
    Telemetry,
    activate,
    cell_key,
    execute_cell,
    recommend,
    render_report,
    summarize_trace,
    tune_parameter,
    write_trace,
)
from .serving import DEFAULT_PORT, ServingConfig, run_server

__all__ = ["main", "build_parser"]


def _parse_value(text: str):
    """Best-effort literal: bool (``true``/``false``, any case), int,
    float, then raw string."""
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(items: list[str] | None) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        key, __, value = item.partition("=")
        params[key] = _parse_value(value)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Influence-maximization benchmarking platform"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="catalog with Table-1 statistics")
    sub.add_parser("support-matrix", help="Table 5: model support")

    rec = sub.add_parser("recommend", help="Fig.-11b decision tree")
    rec.add_argument("--model", required=True, choices=["IC", "WC", "LT", "TV"])
    rec.add_argument("--memory-constrained", action="store_true")

    sel = sub.add_parser("select", help="run one technique and score it")
    sel.add_argument("--dataset", required=True)
    sel.add_argument("--model", required=True, choices=["IC", "WC", "TV", "LT", "LT-random"])
    sel.add_argument("--algorithm", required=True)
    sel.add_argument("--k", type=int, required=True)
    sel.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="technique constructor parameter, repeatable; "
                          "engine knobs go here too, e.g. rr_workers=3, "
                          "spread_oracle=snapshot or path_workers=2")
    sel.add_argument("--mc", type=int, default=1000,
                     help="cascades of the scoring estimate of sigma(S), "
                          "grown in batches by one vectorized kernel")
    sel.add_argument("--mc-workers", type=int, default=None, metavar="N",
                     help="processes for the scoring estimate's Monte-Carlo "
                          "simulations; selection is unaffected")
    sel.add_argument("--seed", type=int, default=0, help="RNG seed")
    sel.add_argument("--time-limit", type=float, default=None)
    sel.add_argument("--memory-limit-mb", type=float, default=None)
    sel.add_argument("--isolate", action="store_true",
                     help="run selection in a killable subprocess: the time "
                          "limit becomes a preemptive deadline (DNF) and the "
                          "memory limit an rlimit ceiling (CRASHED)")
    sel.add_argument("--retries", type=int, default=1, metavar="N",
                     help="attempts for transient FAILED/KILLED cells; a "
                          "retry replays the cell on the same randomness "
                          "(default 1 = no retry)")
    sel.add_argument("--resume", default=None, metavar="JOURNAL",
                     help="JSONL checkpoint journal; a cell already recorded "
                          "there is not re-run")
    sel.add_argument("--trace", default=None, metavar="PATH",
                     help="append a JSONL telemetry trace (phase spans and "
                          "engine counters) for this cell; summarize with "
                          "'python -m repro trace PATH'")

    tune = sub.add_parser("tune", help="Sec.-5.1.1 parameter tuning")
    tune.add_argument("--dataset", required=True)
    tune.add_argument("--model", required=True, choices=["IC", "WC", "TV", "LT", "LT-random"])
    tune.add_argument("--algorithm", required=True)
    tune.add_argument("--parameter", required=True)
    tune.add_argument("--spectrum", required=True,
                      help="comma-separated values, most accurate first")
    tune.add_argument("--k", type=int, required=True)
    tune.add_argument("--mc", type=int, default=500)
    tune.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="aggregate bench results")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")

    serve = sub.add_parser(
        "serve", help="resident influence-query server (repro.serving)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)")
    serve.add_argument("--datasets", default=None, metavar="A,B,...",
                       help="restrict the bundled catalog (default: all)")
    serve.add_argument("--catalog-dir", default=None, metavar="DIR",
                       help="serve every *.npz graph in DIR (save_npz format), "
                            "named by file stem")
    serve.add_argument("--cache-mb", type=float, default=256.0, metavar="MB",
                       help="byte budget for warm artifacts (RR pools, "
                            "oracles, selections); 0 = unbounded")
    serve.add_argument("--coalesce-ms", type=float, default=2.0, metavar="MS",
                       help="window for batching concurrent sigma queries "
                            "into one oracle evaluation")
    serve.add_argument("--worlds", type=int, default=200, metavar="R",
                       help="default live-edge worlds per sigma oracle")
    serve.add_argument("--oracle", default="snapshot",
                       choices=["snapshot", "sketch", "batched"],
                       help="default sigma backend for sigma/gain queries")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="append serving.* telemetry as JSONL on shutdown "
                            "(inspect via 'repro trace PATH')")

    trace = sub.add_parser("trace", help="summarize a JSONL telemetry trace")
    trace.add_argument("path", help="trace file written via --trace or "
                                    "REPRO_BENCH_TRACE")
    return parser


def _cmd_list_datasets() -> int:
    print(datasets.table1_rows())
    return 0


def _cmd_support_matrix() -> int:
    print(algorithms.support_matrix())
    return 0


def _cmd_recommend(args) -> int:
    choice = recommend(args.model, memory_constrained=args.memory_constrained)
    constraint = "scarce" if args.memory_constrained else "ample"
    print(f"{args.model} with {constraint} memory -> {choice}")
    return 0


def _cmd_select(args) -> int:
    model = diffusion.model_by_name(args.model)
    graph = model.weighted(datasets.load(args.dataset), np.random.default_rng(0))
    params = _parse_params(args.param)
    algo = algorithms.make(args.algorithm, **params)
    journal = CheckpointJournal(args.resume) if args.resume else None
    key = cell_key(args.algorithm, params, args.k,
                   model=args.model, scope=args.dataset)
    tele = Telemetry(label=key) if args.trace else None
    if journal is not None and key in journal:
        record = journal.get(key)
        print(f"resumed   : cached {record.status} cell from {args.resume}")
    else:
        record, __ = execute_cell(
            algo,
            graph,
            args.k,
            model,
            rng=np.random.default_rng(args.seed),
            config=IsolationConfig(
                enabled=args.isolate,
                time_limit_seconds=args.time_limit,
                memory_limit_mb=args.memory_limit_mb,
                track_memory=args.memory_limit_mb is not None,
                telemetry=tele is not None,
            ),
            attempts=args.retries,
        )
        if journal is not None:
            journal.record(key, record)
    if tele is not None:
        # Selection phases were collected inside the (possibly isolated)
        # cell; fold its snapshot into this session's handle so scoring
        # spans land in the same trace.
        tele.absorb(record.extras.get("telemetry"))
    if not record.ok:
        line = f"{args.algorithm} on {args.dataset}/{args.model}: {record.status}"
        failure = record.extras.get("failure")
        if isinstance(failure, dict) and failure.get("type"):
            line += f" ({failure['type']})"
        print(line)
        if tele is not None:
            write_trace(args.trace, tele.snapshot(), cell=key, record=record)
            print(f"trace     : {args.trace}")
        return 1
    with activate(tele) as t, t.span("score"):
        estimate = diffusion.monte_carlo_spread(
            graph, record.seeds, model, r=args.mc,
            rng=np.random.default_rng(args.seed + 1),
            workers=args.mc_workers,
        )
    print(f"algorithm : {args.algorithm}")
    print(f"dataset   : {args.dataset} ({graph.n} nodes, {graph.m} arcs)")
    print(f"model     : {args.model}")
    print(f"seeds     : {record.seeds}")
    print(f"time      : {record.elapsed_seconds:.3f}s")
    print(f"spread    : {estimate.mean:.1f} +/- {estimate.stderr:.1f} "
          f"({args.mc} simulations)")
    if tele is not None:
        events = write_trace(args.trace, tele.snapshot(), cell=key, record=record)
        print(f"trace     : {args.trace} ({events} events)")
    return 0


def _cmd_tune(args) -> int:
    model = diffusion.model_by_name(args.model)
    graph = model.weighted(datasets.load(args.dataset), np.random.default_rng(0))
    spectrum = [_parse_value(v) for v in args.spectrum.split(",")]
    result = tune_parameter(
        args.algorithm,
        args.parameter,
        spectrum,
        graph,
        model,
        args.k,
        mc_simulations=args.mc,
        rng=np.random.default_rng(args.seed),
    )
    print(result.table())
    return 0


def _cmd_serve(args) -> int:
    datasets_opt = None
    if args.datasets:
        datasets_opt = tuple(
            name.strip() for name in args.datasets.split(",") if name.strip()
        )
    cache_bytes = None if args.cache_mb <= 0 else int(args.cache_mb * (1 << 20))
    config = ServingConfig(
        host=args.host,
        port=args.port,
        datasets=datasets_opt,
        catalog_dir=args.catalog_dir,
        cache_bytes=cache_bytes,
        coalesce_ms=args.coalesce_ms,
        default_worlds=args.worlds,
        default_oracle=args.oracle,
        trace=args.trace,
    )
    return run_server(config, announce=print)


def _cmd_trace(args) -> int:
    print(summarize_trace(args.path))
    return 0


def _cmd_report(args) -> int:
    text = render_report(args.results_dir)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-datasets": lambda: _cmd_list_datasets(),
        "support-matrix": lambda: _cmd_support_matrix(),
        "recommend": lambda: _cmd_recommend(args),
        "select": lambda: _cmd_select(args),
        "tune": lambda: _cmd_tune(args),
        "report": lambda: _cmd_report(args),
        "serve": lambda: _cmd_serve(args),
        "trace": lambda: _cmd_trace(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
