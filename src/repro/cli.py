"""Command-line interface for the reproduction.

Every experiment in DESIGN.md can be regenerated from the command line:

.. code-block:: console

    repro list-protocols
    repro run --protocol bfw --graph path --n 64 --seed 1
    repro table1 --seeds 10 --backend process:4
    repro scaling --mode uniform --diameters 8 16 32 64
    repro scaling --mode nonuniform --diameters 8 16 32 64 --replicas 32 --backend batched
    repro montecarlo --protocol emek-keren --graph cycle --n 64 --replicas 64
    repro lower-bound --diameters 8 16 32 64 --workers 4
    repro ablation --backend batched
    repro dynamic --families cycle --sizes 32 64 --churn-rates 0 1 2 4
    repro wave-demo --n 40
    repro serve --port 8123 --workers 4 --shard-size auto --heartbeat 64
    repro submit --url http://127.0.0.1:8123 --protocol bfw --graph cycle --n 64
    repro status SWEEP_ID --url http://127.0.0.1:8123
    repro tail SWEEP_ID --url http://127.0.0.1:8123 --follow
    repro top --url http://127.0.0.1:8123
    repro trace export spans.jsonl --out sweep.trace.json
    repro trace export SWEEP_ID --url http://127.0.0.1:8123

Every sweep-shaped experiment accepts ``--backend`` (``sequential``,
``batched``, ``process[:N]``, ``service:URL``) and ``--workers N``
(shorthand for ``--backend process:N``); the per-replica outcomes are
byte-identical on every backend under the same master seed — the batched,
process and service executors reproduce each seeded replica exactly, so
the choice is purely about wall-clock.  (``repro montecarlo`` additionally reports *how* it ran:
its engine row and elected-leader identities reflect the chosen backend,
because only batched executions record leader identities.)

The CLI is intentionally thin: each sub-command parses arguments, calls the
corresponding function in :mod:`repro.experiments`, and prints the rendered
report to stdout (optionally saving raw records as JSON/CSV).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro._version import __version__


def _add_backend_arguments(
    parser: argparse.ArgumentParser,
    default: str = "sequential",
) -> None:
    """Attach the shared execution-backend options to a sub-command."""
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "Execution backend: 'sequential', 'batched' (all replicas of a "
            "cell in one state array) or 'process[:N]' (cells sharded "
            f"across N worker processes).  Output is byte-identical on "
            f"every backend; default: {default}."
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="Worker processes for the process backend (implies --backend process:N).",
    )
    parser.add_argument(
        "--shard-size",
        default=None,
        metavar="N|auto",
        help=(
            "Split each cell's seed list into shards of at most N seeds "
            "('auto' = ceil(replicas / workers) per cell), so process:N "
            "parallelises within a cell.  Output stays byte-identical; "
            "default: whole cells."
        ),
    )
    parser.add_argument(
        "--heartbeat",
        type=int,
        default=None,
        metavar="K",
        help=(
            "Stream an in-flight heartbeat every K engine rounds while "
            "cells execute (watch it with --telemetry + 'repro tail'). "
            "0 disables; records stay byte-identical either way."
        ),
    )
    parser.add_argument(
        "--kernel",
        default=None,
        metavar="SPEC",
        help=(
            "Round kernel for the batched engine: 'auto' (numba when "
            "importable), 'numba', 'numpy' or 'python'. "
            "Records are byte-identical on every kernel; only the "
            "wall-clock changes."
        ),
    )


def _add_progress_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared progress/telemetry options to a sub-command."""
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="Suppress per-cell progress lines (telemetry still streams).",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help=(
            "Append one JSONL record per completed cell to PATH while the "
            "sweep runs; watch it live with 'repro tail PATH --follow'."
        ),
    )
    parser.add_argument(
        "--spans",
        default=None,
        metavar="PATH",
        help=(
            "Write the sweep's span tree (sweep → cell → shard → attempt, "
            "JSONL) to PATH when the sweep finishes; convert it with "
            "'repro trace export PATH' for Perfetto/chrome://tracing."
        ),
    )


def _progress_reporter_from_args(args: argparse.Namespace):
    """One ProgressReporter shared by progress lines and the JSONL stream."""
    from repro.telemetry.progress import ProgressReporter

    return ProgressReporter(
        quiet=getattr(args, "quiet", False),
        telemetry_path=getattr(args, "telemetry", None),
        prefix="  ",
        spans_path=getattr(args, "spans", None),
    )


def _backend_spec_from_args(args: argparse.Namespace) -> Optional[str]:
    """Combine --backend/--workers into one backend spec string.

    Returns ``None`` when nothing was requested, so each sub-command keeps
    its historical default.
    """
    from repro.errors import ConfigurationError

    backend: Optional[str] = args.backend
    workers: Optional[int] = args.workers
    if workers is not None:
        if backend is None or backend == "process":
            backend = f"process:{workers}"
        else:
            raise ConfigurationError(
                f"--workers only applies to the process backend; "
                f"got --workers {workers} with --backend {backend}"
            )
    return backend


def _shard_size_from_args(args: argparse.Namespace):
    """The ``--shard-size`` value in the form the entry points accept.

    ``None`` (flag absent) keeps whole cells; ``"auto"`` and integer strings
    pass through to :func:`repro.exec.resolve_shard_size`, which validates
    them when the backend resolves.
    """
    value = getattr(args, "shard_size", None)
    if value is None:
        return None
    return str(value).strip().lower()


def _heartbeat_interval_from_args(args: argparse.Namespace) -> Optional[int]:
    """The ``--heartbeat`` value (``None`` or ``0`` = heartbeats off)."""
    value = getattr(args, "heartbeat", None)
    if value is None or value == 0:
        return None
    return int(value)


def _kernel_from_args(args: argparse.Namespace) -> Optional[str]:
    """The ``--kernel`` spec (``None`` keeps the engine's ``"auto"``).

    Validation happens when the backend resolves
    (:func:`repro.batch.kernels.validate_kernel`), so unknown specs fail
    with the same :class:`~repro.errors.ConfigurationError` everywhere.
    """
    value = getattr(args, "kernel", None)
    if value is None:
        return None
    return str(value).strip().lower()


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Minimalist Leader Election Under Weak Communication' "
            "(BFW protocol, beeping model)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser(
        "list-protocols", help="List available protocols and baselines."
    )

    run_parser = subparsers.add_parser(
        "run", help="Run one protocol on one graph and print the outcome."
    )
    run_parser.add_argument("--protocol", default="bfw")
    run_parser.add_argument("--graph", default="path")
    run_parser.add_argument("--n", type=int, default=32)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--max-rounds", type=int, default=None)
    run_parser.add_argument(
        "--beep-probability", type=float, default=None,
        help="Override p for BFW-family protocols.",
    )

    table1_parser = subparsers.add_parser(
        "table1", help="Regenerate Table 1 (protocol comparison)."
    )
    table1_parser.add_argument("--seeds", type=int, default=10)
    table1_parser.add_argument("--master-seed", type=int, default=1)
    table1_parser.add_argument("--save-json", default=None)
    table1_parser.add_argument("--save-csv", default=None)
    _add_backend_arguments(table1_parser)
    _add_progress_arguments(table1_parser)

    scaling_parser = subparsers.add_parser(
        "scaling", help="Convergence-time scaling (Theorems 2 and 3)."
    )
    scaling_parser.add_argument(
        "--mode", choices=("uniform", "nonuniform"), default="uniform"
    )
    scaling_parser.add_argument("--family", choices=("path", "cycle"), default="path")
    scaling_parser.add_argument(
        "--diameters", type=int, nargs="+", default=[8, 16, 32, 64]
    )
    scaling_parser.add_argument("--seeds", type=int, default=10)
    scaling_parser.add_argument(
        "--replicas", type=int, default=None,
        help="Replicas per diameter (overrides --seeds).",
    )
    _add_backend_arguments(scaling_parser)
    scaling_parser.add_argument("--master-seed", type=int, default=2)

    montecarlo_parser = subparsers.add_parser(
        "montecarlo",
        help="Run R seeded replicas of one configuration with the batched engine.",
    )
    montecarlo_parser.add_argument("--protocol", default="bfw")
    montecarlo_parser.add_argument("--graph", default="cycle")
    montecarlo_parser.add_argument("--n", type=int, default=64)
    montecarlo_parser.add_argument("--replicas", type=int, default=32)
    montecarlo_parser.add_argument("--master-seed", type=int, default=None)
    montecarlo_parser.add_argument("--max-rounds", type=int, default=None)
    montecarlo_parser.add_argument(
        "--save-json", default=None,
        help="Write per-replica outcomes to this JSON file.",
    )
    _add_backend_arguments(montecarlo_parser, default="batched")

    crossover_parser = subparsers.add_parser(
        "crossover", help="Uniform vs non-uniform BFW speed-up factors."
    )
    crossover_parser.add_argument(
        "--diameters", type=int, nargs="+", default=[8, 16, 32]
    )
    crossover_parser.add_argument("--seeds", type=int, default=10)
    _add_backend_arguments(crossover_parser)

    lower_parser = subparsers.add_parser(
        "lower-bound", help="Section 5 lower-bound conjecture experiment."
    )
    lower_parser.add_argument(
        "--diameters", type=int, nargs="+", default=[8, 16, 32, 64]
    )
    lower_parser.add_argument("--seeds", type=int, default=20)
    _add_backend_arguments(lower_parser)

    ablation_parser = subparsers.add_parser(
        "ablation", help="Parameter sweep over p and structural ablations."
    )
    ablation_parser.add_argument("--diameter", type=int, default=24)
    ablation_parser.add_argument("--seeds", type=int, default=10)
    _add_backend_arguments(ablation_parser)

    dynamic_parser = subparsers.add_parser(
        "dynamic",
        help="BFW under edge churn: dynamic-graph sweep (churn rate × graph × n).",
    )
    dynamic_parser.add_argument("--protocol", default="bfw")
    dynamic_parser.add_argument(
        "--families", nargs="+", default=["cycle"], metavar="FAMILY",
        help="Graph families to sweep (default: cycle).",
    )
    dynamic_parser.add_argument(
        "--sizes", type=int, nargs="+", default=[32, 64], metavar="N"
    )
    dynamic_parser.add_argument(
        "--churn-rates", type=int, nargs="+", default=[0, 1, 2, 4], metavar="K",
        help="Edges churned per round; 0 runs the explicit static schedule.",
    )
    dynamic_parser.add_argument(
        "--schedule", choices=("edge-churn", "cut", "interpolate"),
        default="edge-churn",
        help="Schedule family the churn rate parameterises.",
    )
    dynamic_parser.add_argument("--seeds", type=int, default=10)
    dynamic_parser.add_argument("--master-seed", type=int, default=None)
    dynamic_parser.add_argument("--max-rounds", type=int, default=None)
    dynamic_parser.add_argument("--save-json", default=None)
    _add_backend_arguments(dynamic_parser, default="batched")
    _add_progress_arguments(dynamic_parser)

    extinction_parser = subparsers.add_parser(
        "extinction",
        help=(
            "Leader-extinction rate vs churn rate (E15): batched observers "
            "counting Lemma 9 violations per replica."
        ),
    )
    extinction_parser.add_argument("--protocol", default="bfw")
    extinction_parser.add_argument(
        "--families", nargs="+", default=["cycle"], metavar="FAMILY",
        help="Graph families to sweep (default: cycle).",
    )
    extinction_parser.add_argument(
        "--sizes", type=int, nargs="+", default=[16, 32], metavar="N"
    )
    extinction_parser.add_argument(
        "--churn-rates", type=int, nargs="+", default=[0, 1, 2, 4], metavar="K",
        help="Edges churned per round; 0 runs the explicit static schedule.",
    )
    extinction_parser.add_argument(
        "--schedule", choices=("edge-churn", "cut", "interpolate"),
        default="edge-churn",
        help="Schedule family the churn rate parameterises.",
    )
    extinction_parser.add_argument("--seeds", type=int, default=20)
    extinction_parser.add_argument("--master-seed", type=int, default=None)
    extinction_parser.add_argument(
        "--max-rounds", type=int, default=None,
        help="Round budget per replica (default: the capped dynamic budget).",
    )
    extinction_parser.add_argument("--save-json", default=None)
    _add_backend_arguments(extinction_parser, default="batched")
    _add_progress_arguments(extinction_parser)

    wave_parser = subparsers.add_parser(
        "wave-demo", help="Print a space-time diagram of beep waves on a path."
    )
    wave_parser.add_argument("--n", type=int, default=40)
    wave_parser.add_argument("--seed", type=int, default=0)
    wave_parser.add_argument("--max-rounds", type=int, default=200)

    tail_parser = subparsers.add_parser(
        "tail",
        help=(
            "Render a telemetry JSONL stream (from --telemetry), or a remote "
            "sweep's event stream (--url), as live status lines."
        ),
    )
    tail_parser.add_argument(
        "path",
        metavar="PATH|SWEEP_ID",
        help=(
            "Telemetry JSONL file to render — or, with --url, the id of a "
            "sweep on that service."
        ),
    )
    tail_parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help=(
            "Tail a sweep-service daemon instead of a file: stream "
            "GET /sweeps/{id}/events from this base URL."
        ),
    )
    tail_parser.add_argument(
        "--follow",
        action="store_true",
        help="Keep polling for new records until the sweep's summary arrives.",
    )
    tail_parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Poll interval in --follow mode (default: 0.5).",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "Run the sweep-service daemon: accept sweep submissions over "
            "HTTP, execute them on a worker pool, cache results by cell "
            "signature."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8123,
        help="Listen port (0 binds an ephemeral port; default: 8123).",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="Worker threads executing shard jobs (default: 2).",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="Re-queues allowed per shard before a sweep fails (default: 2).",
    )
    serve_parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "Re-queue a running shard attempt after this many seconds "
            "(default: no timeout)."
        ),
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "Persist the result cache here (default: a private temporary "
            "store that dies with the daemon)."
        ),
    )
    serve_parser.add_argument(
        "--shard-size", default=None, metavar="N|auto",
        help=(
            "Default seed-list shard size for submissions that do not "
            "specify one ('auto' = ceil(replicas / workers) per cell)."
        ),
    )
    serve_parser.add_argument(
        "--heartbeat", type=int, default=None, metavar="K",
        help=(
            "Default in-flight heartbeat interval (engine rounds between "
            "beats) for submitted sweeps; enables live per-shard progress "
            "in GET /sweeps/{id} and makes the --shard-timeout watchdog "
            "liveness-based (beating shards are never re-queued, only "
            "silent ones).  0 disables (the default)."
        ),
    )
    serve_parser.add_argument(
        "--kernel", default=None, metavar="SPEC",
        help=(
            "Default round kernel (repro.batch.kernels spec) stamped onto "
            "submitted cells that do not choose their own; resolved on the "
            "executing workers."
        ),
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help=(
            "Submit one montecarlo-style cell to a sweep service and print "
            "the sweep id."
        ),
    )
    submit_parser.add_argument(
        "--url", required=True, metavar="URL",
        help="Base URL of the sweep service (what 'repro serve' prints).",
    )
    submit_parser.add_argument("--protocol", default="bfw")
    submit_parser.add_argument("--graph", default="cycle")
    submit_parser.add_argument("--n", type=int, default=64)
    submit_parser.add_argument("--replicas", type=int, default=32)
    submit_parser.add_argument("--master-seed", type=int, default=None)
    submit_parser.add_argument("--max-rounds", type=int, default=None)
    submit_parser.add_argument(
        "--shard-size", default=None, metavar="N|auto",
        help="Shard the cell's seed list across the daemon's workers.",
    )
    submit_parser.add_argument(
        "--heartbeat", type=int, default=None, metavar="K",
        help=(
            "Per-sweep in-flight heartbeat interval (engine rounds between "
            "beats), overriding the daemon's --heartbeat default; 0 = off."
        ),
    )
    submit_parser.add_argument(
        "--kernel", default=None, metavar="SPEC",
        help=(
            "Round kernel (repro.batch.kernels spec) for this sweep's "
            "cells, overriding the daemon's --kernel default."
        ),
    )
    submit_parser.add_argument(
        "--follow",
        action="store_true",
        help="Tail the sweep's event stream until it completes.",
    )

    status_parser = subparsers.add_parser(
        "status", help="Print the status of a sweep on a sweep service."
    )
    status_parser.add_argument("sweep_id", metavar="SWEEP_ID")
    status_parser.add_argument("--url", required=True, metavar="URL")
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="Print the raw status JSON instead of the one-line summary.",
    )

    cancel_parser = subparsers.add_parser(
        "cancel", help="Cancel a running sweep on a sweep service."
    )
    cancel_parser.add_argument("sweep_id", metavar="SWEEP_ID")
    cancel_parser.add_argument("--url", required=True, metavar="URL")

    top_parser = subparsers.add_parser(
        "top",
        help=(
            "Polled status dashboard for a sweep service: sweeps, live "
            "per-shard progress, rounds/sec, cache hits, retries."
        ),
    )
    top_parser.add_argument("--url", required=True, metavar="URL")
    top_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="Refresh interval (default: 2.0).",
    )
    top_parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="Render N frames then exit (default: until Ctrl-C).",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="Render one frame without clearing the screen, then exit.",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help=(
            "Span-trace utilities: export a sweep's span tree as Chrome "
            "trace-event JSON (loadable in Perfetto / chrome://tracing)."
        ),
    )
    trace_parser.add_argument(
        "action", choices=("export",),
        help="'export': convert spans to Chrome trace-event JSON.",
    )
    trace_parser.add_argument(
        "source", metavar="PATH|SWEEP_ID",
        help=(
            "A span-JSONL file written by --spans — or, with --url, the id "
            "of a sweep on that service."
        ),
    )
    trace_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="Fetch the span tree from GET /sweeps/{id}/spans on this service.",
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="Output file (default: SOURCE with a .trace.json suffix).",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    handler = {
        "list-protocols": _cmd_list_protocols,
        "run": _cmd_run,
        "table1": _cmd_table1,
        "scaling": _cmd_scaling,
        "montecarlo": _cmd_montecarlo,
        "crossover": _cmd_crossover,
        "lower-bound": _cmd_lower_bound,
        "ablation": _cmd_ablation,
        "dynamic": _cmd_dynamic,
        "extinction": _cmd_extinction,
        "wave-demo": _cmd_wave_demo,
        "tail": _cmd_tail,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "top": _cmd_top,
        "trace": _cmd_trace,
    }[args.command]
    return handler(args)


# --------------------------------------------------------------------------- #
# Sub-command handlers
# --------------------------------------------------------------------------- #


def _cmd_list_protocols(args: argparse.Namespace) -> int:
    from repro.core.registry import available_protocols, get_protocol_spec
    from repro.experiments.runner import BASELINE_NAMES

    print("BFW-family protocols (constant-state):")
    for name in available_protocols():
        spec = get_protocol_spec(name)
        print(f"  {name:<24} {spec.description}")
    print("\nBaselines (Table 1):")
    for name in BASELINE_NAMES:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import instantiate_protocol, run_protocol_on
    from repro.experiments.seeds import rng_from
    from repro.graphs.generators import make_graph

    graph_rng = rng_from(args.seed, "cli-graph", args.graph, args.n)
    topology = make_graph(args.graph, args.n, rng=graph_rng)
    params = {}
    if args.beep_probability is not None:
        params["beep_probability"] = args.beep_probability
    protocol = instantiate_protocol(args.protocol, topology, params)
    result = run_protocol_on(
        topology, protocol, rng=args.seed, max_rounds=args.max_rounds
    )
    print(f"protocol:          {result.protocol_name}")
    print(f"graph:             {topology.name} (n={topology.n}, D={topology.diameter()})")
    print(f"converged:         {result.converged}")
    print(f"convergence round: {result.convergence_round}")
    print(f"rounds executed:   {result.rounds_executed}")
    print(f"final leaders:     {result.final_leader_count}")
    return 0 if result.converged else 2


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.io import save_records_csv, save_records_json
    from repro.experiments.tables import generate_table1

    with _progress_reporter_from_args(args) as reporter:
        result = generate_table1(
            num_seeds=args.seeds,
            master_seed=args.master_seed,
            progress=reporter,
            backend=_backend_spec_from_args(args),
            shard_size=_shard_size_from_args(args),
            heartbeat_interval=_heartbeat_interval_from_args(args),
            kernel=_kernel_from_args(args),
        )
    print(result.render())
    if args.save_json:
        save_records_json(result.records, args.save_json)
        print(f"\nraw records written to {args.save_json}")
    if args.save_csv:
        save_records_csv(result.records, args.save_csv)
        print(f"raw records written to {args.save_csv}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.figures import scaling_experiment

    result = scaling_experiment(
        mode=args.mode,
        family=args.family,
        diameters=args.diameters,
        num_seeds=args.replicas if args.replicas is not None else args.seeds,
        master_seed=args.master_seed,
        backend=_backend_spec_from_args(args),
        shard_size=_shard_size_from_args(args),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    print(result.render())
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.montecarlo import run_monte_carlo
    from repro.experiments.seeds import DEFAULT_MASTER_SEED

    report = run_monte_carlo(
        protocol=args.protocol,
        graph=args.graph,
        n=args.n,
        replicas=args.replicas,
        master_seed=(
            args.master_seed if args.master_seed is not None else DEFAULT_MASTER_SEED
        ),
        max_rounds=args.max_rounds,
        backend=_backend_spec_from_args(args),
        shard_size=_shard_size_from_args(args),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    print(report.render())
    if args.save_json:
        destination = Path(args.save_json)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            json.dumps(report.result.as_dicts(), indent=2), encoding="utf-8"
        )
        print(f"\nper-replica outcomes written to {args.save_json}")
    return 0 if report.convergence_rate == 1.0 else 2


def _cmd_crossover(args: argparse.Namespace) -> int:
    from repro.experiments.figures import crossover_experiment

    result = crossover_experiment(
        diameters=args.diameters,
        num_seeds=args.seeds,
        backend=_backend_spec_from_args(args),
        shard_size=_shard_size_from_args(args),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    print(result.uniform.render())
    print()
    print(result.nonuniform.render())
    print()
    print(result.render())
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.experiments.figures import lower_bound_experiment

    result = lower_bound_experiment(
        diameters=args.diameters,
        num_seeds=args.seeds,
        backend=_backend_spec_from_args(args),
        shard_size=_shard_size_from_args(args),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    print(result.render())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ablation_experiment

    result = ablation_experiment(
        diameter=args.diameter,
        num_seeds=args.seeds,
        backend=_backend_spec_from_args(args),
        shard_size=_shard_size_from_args(args),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    print(result.render())
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.experiments.dynamics import dynamic_experiment
    from repro.experiments.io import save_records_json
    from repro.experiments.seeds import DEFAULT_MASTER_SEED

    with _progress_reporter_from_args(args) as reporter:
        result = dynamic_experiment(
            protocol=args.protocol,
            families=args.families,
            sizes=args.sizes,
            churn_rates=args.churn_rates,
            schedule_kind=args.schedule,
            num_seeds=args.seeds,
            master_seed=(
                args.master_seed
                if args.master_seed is not None
                else DEFAULT_MASTER_SEED
            ),
            max_rounds=args.max_rounds,
            progress=reporter,
            backend=_backend_spec_from_args(args),
            shard_size=_shard_size_from_args(args),
            heartbeat_interval=_heartbeat_interval_from_args(args),
            kernel=_kernel_from_args(args),
        )
    print(result.render())
    if args.save_json:
        save_records_json(result.records, args.save_json)
        print(f"\nraw records written to {args.save_json}")
    return 0


def _cmd_extinction(args: argparse.Namespace) -> int:
    from repro.experiments.extinction import leader_extinction_experiment
    from repro.experiments.io import save_records_json
    from repro.experiments.seeds import DEFAULT_MASTER_SEED

    with _progress_reporter_from_args(args) as reporter:
        result = leader_extinction_experiment(
            protocol=args.protocol,
            families=args.families,
            sizes=args.sizes,
            churn_rates=args.churn_rates,
            schedule_kind=args.schedule,
            num_seeds=args.seeds,
            master_seed=(
                args.master_seed
                if args.master_seed is not None
                else DEFAULT_MASTER_SEED
            ),
            max_rounds=args.max_rounds,
            progress=reporter,
            backend=_backend_spec_from_args(args),
            shard_size=_shard_size_from_args(args),
            heartbeat_interval=_heartbeat_interval_from_args(args),
            kernel=_kernel_from_args(args),
        )
    print(result.render())
    if args.save_json:
        save_records_json(result.records, args.save_json)
        print(f"\nraw records written to {args.save_json}")
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    if args.url is not None:
        from repro.errors import ServiceError
        from repro.service.client import tail_service

        try:
            tail_service(
                args.url,
                args.path,
                follow=args.follow,
                interval=args.interval,
            )
        except ServiceError as error:
            print(str(error), file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            pass
        return 0
    from repro.telemetry.progress import tail_telemetry

    try:
        tail_telemetry(args.path, follow=args.follow, interval=args.interval)
    except FileNotFoundError:
        print(f"no telemetry stream at {args.path}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


# --------------------------------------------------------------------------- #
# Sweep-service verbs
# --------------------------------------------------------------------------- #


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.faults import ServiceFaultInjector
    from repro.service.server import SweepService

    service = SweepService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_retries=args.max_retries,
        shard_timeout=args.shard_timeout,
        cache_dir=args.cache_dir,
        default_shard_size=_shard_size_from_args(args),
        fault_injector=ServiceFaultInjector.from_env(),
        heartbeat_interval=_heartbeat_interval_from_args(args),
        kernel=_kernel_from_args(args),
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    # Signal handlers only install from the main thread; embedded callers
    # (tests driving main() from a worker thread) fall back to Ctrl-C.
    try:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    except ValueError:
        pass
    service.start()
    print(f"sweep service listening on {service.url}", flush=True)
    print(
        f"  workers={service.workers} max_retries={service.max_retries} "
        f"cache={service.cache.directory}",
        flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    print("draining: waiting for running sweeps, refusing new ones", flush=True)
    service.stop(drain=True)
    print("sweep service stopped", flush=True)
    return 0


def _submit_cell_from_args(args: argparse.Namespace):
    """The exact cell ``repro montecarlo`` would run for these arguments.

    Seed derivation matches :func:`repro.experiments.montecarlo.run_monte_carlo`,
    so a submitted sweep's records are byte-identical to the local command.
    """
    from repro.exec import ExecutionCell
    from repro.experiments.config import GraphSpec, ProtocolSpecConfig
    from repro.experiments.seeds import DEFAULT_MASTER_SEED, trial_seeds

    master_seed = (
        args.master_seed if args.master_seed is not None else DEFAULT_MASTER_SEED
    )
    return ExecutionCell(
        protocol=ProtocolSpecConfig(name=args.protocol),
        graph=GraphSpec(family=args.graph, n=args.n),
        seeds=trial_seeds(
            master_seed,
            f"montecarlo/{args.protocol}/{args.graph}/{args.n}",
            args.replicas,
        ),
        max_rounds=args.max_rounds,
        graph_rng_key=(master_seed, "montecarlo-graph", args.graph, args.n),
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient, tail_service

    client = ServiceClient(args.url)
    try:
        receipt = client.submit(
            [_submit_cell_from_args(args)],
            shard_size=_shard_size_from_args(args),
            heartbeat_interval=_heartbeat_interval_from_args(args),
            kernel=_kernel_from_args(args),
        )
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    sweep_id = receipt["id"]
    print(f"submitted sweep {sweep_id}: {receipt['cells']} cell(s), "
          f"{receipt['shards']} shard(s), {receipt['cached_cells']} cached")
    print(f"  repro status {sweep_id} --url {client.url}")
    print(f"  repro tail {sweep_id} --url {client.url} --follow")
    if args.follow:
        tail_service(client.url, str(sweep_id), follow=True)
        return _print_status(client, str(sweep_id), as_json=False)
    return 0


def _print_status(client, sweep_id: str, as_json: bool) -> int:
    import json

    status = client.status(sweep_id)
    if as_json:
        print(json.dumps(status, indent=2, default=str))
    else:
        line = (
            f"sweep {status['id']}: {status['state']} — "
            f"{status['completed_cells']}/{status['cells']} cells, "
            f"{status['completed_shards']}/{status['shards']} shards, "
            f"{status['retries']} retries, {status['cached_cells']} cached"
        )
        if status.get("error"):
            line += f" ({status['error']})"
        print(line)
    return 0 if status["state"] in ("running", "done") else 2


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    try:
        return _print_status(ServiceClient(args.url), args.sweep_id, args.json)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    try:
        status = ServiceClient(args.url).cancel(args.sweep_id)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(f"sweep {status['id']}: {status['state']}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.dashboard import top

    iterations = args.iterations
    clear = True
    if args.once:
        iterations = 1
        clear = False
    try:
        return top(
            args.url, interval=args.interval, iterations=iterations, clear=clear
        )
    except KeyboardInterrupt:
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.telemetry.spans import (
        load_spans_jsonl,
        spans_from_records,
        write_chrome_trace,
    )

    if args.url is not None:
        from repro.service.client import ServiceClient

        try:
            payload = ServiceClient(args.url).spans(args.source)
        except ServiceError as error:
            print(str(error), file=sys.stderr)
            return 1
        spans = spans_from_records(payload.get("spans") or ())
        default_out = f"{args.source}.trace.json"
    else:
        try:
            spans = load_spans_jsonl(args.source)
        except FileNotFoundError:
            print(f"no span file at {args.source}", file=sys.stderr)
            return 1
        default_out = f"{args.source.rsplit('.jsonl', 1)[0]}.trace.json"
    if not spans:
        print("no spans to export", file=sys.stderr)
        return 1
    out = args.out if args.out is not None else default_out
    write_chrome_trace(spans, out)
    print(
        f"wrote {len(spans)} spans to {out} "
        f"(load it at https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_wave_demo(args: argparse.Namespace) -> int:
    from repro.beeping.engine import run_bfw
    from repro.graphs.generators import path_graph
    from repro.viz.spacetime import leader_count_timeline, spacetime_diagram

    topology = path_graph(args.n)
    result = run_bfw(
        topology, rng=args.seed, max_rounds=args.max_rounds, record_trace=True
    )
    assert result.trace is not None
    print(spacetime_diagram(result.trace, max_rounds=args.max_rounds))
    print()
    print(leader_count_timeline(result.trace))
    if result.converged:
        print(f"\nconverged in round {result.convergence_round}")
    else:
        print(
            f"\nnot converged within {result.rounds_executed} rounds "
            f"({result.final_leader_count} leaders remain) — increase --max-rounds"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
