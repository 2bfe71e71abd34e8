"""Experiment E12 — batched Monte-Carlo engines vs looping single runs.

The batch subsystem exists for exactly one reason: a sweep's replicas share
the Python-level loop instead of paying it once per seed.  This benchmark
measures that claim in replica-rounds per second on the workloads the paper
experiments actually run, after first checking that the batched results are
replica-for-replica identical to the loop:

* the constant-state :class:`~repro.batch.engine.BatchedEngine` against a
  loop of :class:`~repro.beeping.engine.VectorizedEngine` runs (BFW on a
  200-node cycle, the scaling-experiment workload), asserting ≥ 3×;
* the :class:`~repro.batch.memory.BatchedMemoryEngine` against a loop of
  :class:`~repro.beeping.simulator.MemorySimulator` runs (the Emek–Keren
  epoch baseline, a Table-1 workload), asserting ≥ 2× at R = 32 — the
  single-seed simulator runs the same vectorised round as a one-replica
  batch, so the ratio is what sharing one round across replicas buys;
* the :class:`~repro.exec.ProcessBackend` against the single-process
  :class:`~repro.exec.BatchedBackend` on a multi-cell sweep (the Table-1 /
  scaling shape), asserting ≥ 1.5× with 2 workers — only on machines with
  at least 2 CPUs, since cell sharding cannot beat one process on one core.
  This case always writes its measurements to ``BENCH_exec.json`` so the
  execution-layer perf trajectory is machine-readable from PR to PR.
* the dynamic-graph churn sweep (E14): batched replica-rounds/sec as a
  function of the churn rate, plus the amortised-vs-naive rebuild ratio —
  one memoised schedule shared by all replicas against a fresh schedule per
  replica (the rebuild-per-round-per-replica strawman).  Writes
  ``BENCH_dynamics.json``.
* the batched observation layer (E15): the overhead of recording a full
  ``BatchTrace`` (plus an extinction observer) on a batched run against the
  untraced run, and the throughput of replaying the recorded trace through
  the streaming reducers (``trace.replay(StreamingFirstBeep())`` /
  ``StreamingConvergence()``) against the per-replica loop of the
  single-trace functions over ``trace.replica(r)``.  Writes
  ``BENCH_observers.json``.
* the streaming telemetry layer (E16): the overhead of folding the analysis
  reductions online (``Streaming*`` reducers) and of spilling the trace to
  windowed ``.npz`` segments, both against the untraced run and against the
  in-memory recorder — plus the peak-RAM proxy (largest resident spill
  window vs the full ``(T+1, R, n)`` history).  Writes
  ``BENCH_telemetry.json``.
* intra-cell sharding (E17): one large Monte-Carlo cell (BFW on a 200-node
  cycle, thousands of replicas) on ``process:2`` whole — the historical
  one-cell/one-core defect — against the same cell with
  ``shard_size="auto"``, asserting byte-identical outcomes and ≥ 1.5×
  with 2 workers on ≥ 2 CPUs.  Writes ``BENCH_shard.json``.
* in-flight observability (E18): the E17 single-cell workload through the
  :class:`~repro.exec.BatchedBackend` three ways — silent, with
  ``heartbeat_interval=32`` streaming :class:`~repro.exec.ShardProgress`
  events, and with heartbeats *plus* a full
  :class:`~repro.telemetry.progress.ProgressReporter` (telemetry JSONL +
  span tree) — asserting byte-identical records and bounding the
  heartbeat overhead at ≤ 5% of the silent run (process CPU time,
  best-of-N).  Writes ``BENCH_observability.json``.

* fused round kernels (E19): the interpreted numpy round loop against the
  fused kernel of :mod:`repro.batch.kernels` (numba-compiled when numba is
  importable, the same kernel body interpreted otherwise) on the two shapes
  ROADMAP item 2 names — a million-node cycle at small R and R = 4096 on a
  small cycle — asserting byte-identical batches first, then comparing
  replica-rounds/sec.  The ≥ 2× gate on the million-node shape is enforced
  only when numba is importable (the CI ``kernels`` job); without numba the
  pure-Python kernel is probed at reduced size, informationally.  Writes
  ``BENCH_kernel.json``.

* per-round cost of the interpreted loop (E20): fixed-horizon
  ``kernel="numpy"`` runs (``stop_at_single_leader=False``, so every round
  does the same work) at R = 1 on cycle(64) — per-call overhead — and at
  R = 256 on torus(32×32) — data volume — reported as wall and process
  CPU µs per round, best and median of several repetitions.  No gate;
  writes ``BENCH_round_ops.json``.

* stream reads (E21): converged BFW on torus(32×32) at R = 256 on the
  ``kernel="numpy"`` loop, the ``mc-torus`` shape, where a round reads a
  uniform only for the few nodes whose transition is random — wall and
  process CPU seconds, best and median of several repetitions, next to
  the uniforms read by random access, the replica-rounds of uniforms
  drawn whole and the blocks filled eagerly.  No gate.  Unlike the other
  cases it keeps a committed ledger, ``BENCH_streams.json`` at the repo
  root: one row per measured commit (``git describe --always --dirty`` of
  the tree the imported ``repro`` comes from), replaced when that commit
  is measured again.  Run this file against another tree's ``repro`` to
  add that tree's row.

Setting ``REPRO_BENCH_FAST=1`` shrinks every workload (small R and n) and
skips the speed-up assertions; CI uses it as a smoke mode so these scripts
cannot silently rot without turning CI red on timing noise.
"""

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

from repro.baselines import EmekKerenStyleElection
from repro.batch import BatchedEngine, BatchedMemoryEngine
from repro.beeping.engine import VectorizedEngine
from repro.beeping.simulator import MemorySimulator
from repro.core.bfw import BFWProtocol
from repro.exec import BatchedBackend, ProcessBackend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.runner import sweep_cells
from repro.graphs.generators import cycle_graph

MAX_ROUNDS = 400_000

#: Smoke mode: tiny workloads, no timing assertions (see module docstring).
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"

#: ``REPRO_BENCH_STRICT=0`` keeps the full workloads but skips the E13
#: speed-up assertion — CI uses it to measure a real BENCH_exec.json on
#: shared runners without going red on their timing noise.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") == "1"

#: The machine-readable result file of each case, in the working directory
#: (CI uploads them as artifacts).
BENCH_EXEC_JSON = "BENCH_exec.json"
BENCH_DYNAMICS_JSON = "BENCH_dynamics.json"
BENCH_OBSERVERS_JSON = "BENCH_observers.json"
BENCH_TELEMETRY_JSON = "BENCH_telemetry.json"
BENCH_SHARD_JSON = "BENCH_shard.json"
BENCH_OBSERVABILITY_JSON = "BENCH_observability.json"
BENCH_KERNEL_JSON = "BENCH_kernel.json"
BENCH_ROUND_OPS_JSON = "BENCH_round_ops.json"

#: E21's committed ledger, at the root of this file's tree.
BENCH_STREAMS_JSON = Path(__file__).resolve().parents[1] / "BENCH_streams.json"

#: Workers used by the process-backend sweep case.
PROCESS_WORKERS = 2


def _size(value, fast_value):
    return fast_value if FAST else value


def _write_bench_json(path, payload):
    """Write one case's results as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _timed(run):
    """``(process CPU s, wall s, value)`` of one call of ``run``.

    Process CPU time makes overhead ratios robust to co-tenant load on
    shared runners; wall time is reported alongside.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    value = run()
    return time.process_time() - cpu, time.perf_counter() - wall, value


def _best_of(run, repeats):
    """Best CPU and best wall seconds over ``repeats`` calls, and the last
    call's value."""
    best_cpu = best_wall = float("inf")
    value = None
    for _ in range(repeats):
        cpu, wall, value = _timed(run)
        best_cpu = min(best_cpu, cpu)
        best_wall = min(best_wall, wall)
    return best_cpu, best_wall, value


def _loop_replica_rounds(topology, protocol, seeds):
    engine = VectorizedEngine(topology, protocol)
    results = [engine.run(rng=seed, max_rounds=MAX_ROUNDS) for seed in seeds]
    return results, sum(result.rounds_executed for result in results)


def _assert_same_replicas(batch, singles):
    # identical replicas first — a fast wrong engine is worthless
    for index, single in enumerate(singles):
        replica = batch.replica(index)
        assert replica.converged == single.converged
        assert replica.convergence_round == single.convergence_round
        assert replica.rounds_executed == single.rounds_executed


@pytest.mark.experiment("E12")
def test_batched_engine_speedup_over_seed_loop(report):
    topology = cycle_graph(_size(200, 24))
    protocol = BFWProtocol()
    seeds = list(range(_size(32, 4)))

    start = time.perf_counter()
    singles, loop_rounds = _loop_replica_rounds(topology, protocol, seeds)
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = BatchedEngine(topology, protocol).run(
        seeds, max_rounds=MAX_ROUNDS, record_leader_counts=False
    )
    batch_seconds = time.perf_counter() - start

    _assert_same_replicas(batch, singles)
    assert batch.total_replica_rounds == loop_rounds

    loop_throughput = loop_rounds / loop_seconds
    batch_throughput = batch.total_replica_rounds / batch_seconds
    speedup = batch_throughput / loop_throughput
    report(
        f"E12 — batched engine vs seed loop "
        f"({len(seeds)} replicas, {topology.name})",
        f"loop:    {loop_throughput:12,.0f} replica-rounds/sec ({loop_seconds:.2f}s)\n"
        f"batched: {batch_throughput:12,.0f} replica-rounds/sec ({batch_seconds:.2f}s)\n"
        f"speedup: {speedup:.2f}x",
    )
    if not FAST:
        assert speedup >= 3.0, (
            f"batched engine must be >= 3x the seed loop; measured {speedup:.2f}x"
        )


@pytest.mark.experiment("E12")
def test_batched_memory_engine_speedup_over_seed_loop(report):
    topology = cycle_graph(_size(64, 12))
    diameter = topology.diameter()
    protocol = EmekKerenStyleElection(diameter=diameter)
    seeds = list(range(_size(32, 4)))

    start = time.perf_counter()
    simulator = MemorySimulator(topology, protocol)
    singles = [simulator.run(rng=seed, max_rounds=MAX_ROUNDS) for seed in seeds]
    loop_seconds = time.perf_counter() - start
    loop_rounds = sum(result.rounds_executed for result in singles)

    start = time.perf_counter()
    batch = BatchedMemoryEngine(topology, protocol).run(
        seeds, max_rounds=MAX_ROUNDS
    )
    batch_seconds = time.perf_counter() - start

    _assert_same_replicas(batch, singles)
    assert batch.total_replica_rounds == loop_rounds

    loop_throughput = loop_rounds / loop_seconds
    batch_throughput = batch.total_replica_rounds / batch_seconds
    speedup = batch_throughput / loop_throughput
    report(
        f"E12 — batched memory engine vs seed loop "
        f"({len(seeds)} replicas, emek-keren on {topology.name})",
        f"loop:    {loop_throughput:12,.0f} replica-rounds/sec ({loop_seconds:.2f}s)\n"
        f"batched: {batch_throughput:12,.0f} replica-rounds/sec ({batch_seconds:.2f}s)\n"
        f"speedup: {speedup:.2f}x",
    )
    if not FAST:
        assert speedup >= 2.0, (
            f"batched memory engine must be >= 2x the seed loop; "
            f"measured {speedup:.2f}x"
        )


@pytest.mark.experiment("E13")
def test_process_backend_sweep_speedup_over_batched(report):
    """Multi-cell sweep: cells sharded across 2 workers vs one process.

    The workload is the sweep shape the experiments actually run — one
    constant-state protocol across several cycle sizes, all replicas of a
    cell in one batched state array either way.  The records must match
    byte for byte; the wall-clock comparison (and the machine-readable
    ``BENCH_exec.json``) is the point of the case.
    """
    sweep = SweepConfig(
        name="bench-exec",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=tuple(
            GraphSpec(family="cycle", n=_size(200, 16) + _size(8, 2) * index)
            for index in range(_size(6, 2))
        ),
        num_seeds=_size(32, 3),
        master_seed=20250212,
    )
    cells = sweep_cells(sweep)

    start = time.perf_counter()
    batched_records = BatchedBackend().run_cells(cells)
    batched_seconds = time.perf_counter() - start

    process_backend = ProcessBackend(workers=PROCESS_WORKERS)
    start = time.perf_counter()
    process_records = process_backend.run_cells(cells)
    process_seconds = time.perf_counter() - start

    # identical records first — a fast wrong backend is worthless
    assert process_records == batched_records

    replica_rounds = sum(record.rounds_executed for record in batched_records)
    speedup = batched_seconds / process_seconds
    cpus = os.cpu_count() or 1
    payload = {
        "benchmark": "exec-backend-sweep",
        "fast_mode": FAST,
        "strict": STRICT,
        "cpu_count": cpus,
        "workload": {
            "protocol": "bfw",
            "graphs": [graph.label for graph in sweep.graphs],
            "replicas_per_cell": sweep.num_seeds,
            "cells": len(cells),
            "replica_rounds": replica_rounds,
        },
        "results": [
            {
                "backend": "batched",
                "wall_seconds": batched_seconds,
                "replica_rounds_per_sec": replica_rounds / max(batched_seconds, 1e-9),
            },
            {
                "backend": process_backend.name,
                "wall_seconds": process_seconds,
                "replica_rounds_per_sec": replica_rounds / max(process_seconds, 1e-9),
            },
        ],
        "speedup_process_vs_batched": speedup,
    }
    _write_bench_json(BENCH_EXEC_JSON, payload)

    report(
        f"E13 — process backend vs batched backend "
        f"({len(cells)} cells, R={sweep.num_seeds}, {PROCESS_WORKERS} workers, "
        f"{cpus} CPU(s))",
        f"batched:     {batched_seconds:8.2f}s\n"
        f"process:{PROCESS_WORKERS}:   {process_seconds:8.2f}s\n"
        f"speedup:     {speedup:.2f}x\n"
        f"json:        {BENCH_EXEC_JSON}",
    )
    if not FAST and STRICT and cpus >= PROCESS_WORKERS:
        assert speedup >= 1.5, (
            f"process backend must be >= 1.5x the batched backend on a "
            f"multi-cell sweep with {PROCESS_WORKERS} workers; "
            f"measured {speedup:.2f}x on {cpus} CPUs"
        )


@pytest.mark.experiment("E14")
def test_dynamic_churn_sweep(report):
    """Dynamic graphs: throughput vs churn rate, and amortised rebuilds.

    Two claims are measured:

    * the batched engine keeps its replica-rounds/sec profile when the
      adjacency is swapped between rounds (rate 0 is the explicit static
      schedule — the dynamic code path's identity element);
    * the schedule layer's memoisation is what makes sequential dynamic
      sweeps affordable: one schedule shared by all replicas pays one
      topology rebuild per round (the first replica's), every later replica
      replays dictionary hits — against the naive strawman of a fresh
      schedule per replica (one rebuild per round *per replica*).

    The churn cases run under a tighter round budget than the static case:
    churn can eliminate *every* leader (a state unreachable on a static
    graph, where at least one leader always survives), and such leaderless
    replicas never trigger the single-leader stop — they would burn the
    full 400k-round budget measuring nothing but stall throughput.
    """
    from repro.dynamics import ScheduleSpec, build_schedule

    topology = cycle_graph(_size(200, 16))
    protocol = BFWProtocol()
    seeds = list(range(_size(32, 3)))
    churn_rates = (0, 1, 2, 4) if not FAST else (0, 2)
    churn_budget = _size(20_000, 2_000)

    rate_results = []
    for rate in churn_rates:
        if rate == 0:
            spec = ScheduleSpec("static")
        else:
            spec = ScheduleSpec(
                "edge-churn",
                {"add_per_round": rate, "remove_per_round": rate, "seed": 11},
            )
        engine = BatchedEngine(
            topology, protocol, schedule=build_schedule(spec, topology)
        )
        start = time.perf_counter()
        batch = engine.run(
            seeds,
            max_rounds=MAX_ROUNDS if rate == 0 else churn_budget,
            record_leader_counts=False,
        )
        seconds = time.perf_counter() - start
        rate_results.append(
            {
                "churn_rate": rate,
                "schedule": spec.label,
                "wall_seconds": seconds,
                "replica_rounds": batch.total_replica_rounds,
                "replica_rounds_per_sec": batch.total_replica_rounds
                / max(seconds, 1e-9),
                "convergence_rate": batch.convergence_rate,
            }
        )

    # Amortised vs naive rebuild: sequential engine, fixed round horizon
    # (no early stopping), so both variants simulate exactly the same work
    # and differ only in how often the schedule rebuilds topologies.
    rebuild_seeds = seeds[: _size(8, 2)]
    horizon = _size(400, 40)
    churn_spec = ScheduleSpec(
        "edge-churn", {"add_per_round": 2, "remove_per_round": 2, "seed": 7}
    )

    shared_schedule = build_schedule(churn_spec, topology)
    shared_engine = VectorizedEngine(topology, protocol, schedule=shared_schedule)
    start = time.perf_counter()
    for seed in rebuild_seeds:
        shared_engine.run(rng=seed, max_rounds=horizon, stop_at_single_leader=False)
    amortised_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for seed in rebuild_seeds:
        fresh_engine = VectorizedEngine(
            topology, protocol, schedule=build_schedule(churn_spec, topology)
        )
        fresh_engine.run(rng=seed, max_rounds=horizon, stop_at_single_leader=False)
    naive_seconds = time.perf_counter() - start

    rebuild_ratio = naive_seconds / max(amortised_seconds, 1e-9)
    payload = {
        "benchmark": "dynamic-churn-sweep",
        "fast_mode": FAST,
        "strict": STRICT,
        "workload": {
            "protocol": "bfw",
            "graph": topology.name,
            "replicas": len(seeds),
            "churn_rates": list(churn_rates),
        },
        "results": rate_results,
        "rebuild": {
            "replicas": len(rebuild_seeds),
            "rounds_per_replica": horizon,
            "amortised_wall_seconds": amortised_seconds,
            "naive_wall_seconds": naive_seconds,
            "naive_over_amortised": rebuild_ratio,
        },
    }
    _write_bench_json(BENCH_DYNAMICS_JSON, payload)

    lines = [
        f"rate {entry['churn_rate']}: "
        f"{entry['replica_rounds_per_sec']:12,.0f} replica-rounds/sec "
        f"({entry['wall_seconds']:.2f}s, conv {entry['convergence_rate']:.2f})"
        for entry in rate_results
    ]
    lines.append(
        f"rebuilds:  amortised {amortised_seconds:.2f}s vs naive "
        f"{naive_seconds:.2f}s -> {rebuild_ratio:.2f}x"
    )
    lines.append(f"json:      {BENCH_DYNAMICS_JSON}")
    report(
        f"E14 — batched engine under edge churn "
        f"({len(seeds)} replicas, {topology.name})",
        "\n".join(lines),
    )
    if not FAST and STRICT:
        assert rebuild_ratio >= 1.3, (
            f"sharing one memoised schedule across replicas must beat "
            f"rebuilding it per replica; measured {rebuild_ratio:.2f}x"
        )


@pytest.mark.experiment("E15")
def test_observer_overhead(report):
    """Batched observation layer: trace overhead and analysis throughput.

    Two claims are measured:

    * attaching a full :class:`BatchTraceRecorder` (plus the
      leader-extinction observer) to a batched run costs a bounded multiple
      of the untraced run — the per-round price is one int8 copy of the
      ``(R, n)`` state block and two lookup-table gathers;
    * replaying the recorded ``(T+1, R, n)`` arrays through the streaming
      reducers (one pass for all replicas) beats the per-replica loop
      (rebuild ``trace.replica(r)``, then per-round Python passes) on
      wall-clock.

    The workload is a fixed-horizon run without early stopping — the shape
    trace analysis actually consumes (wave/flow studies and the Section 5
    leaderless demonstrations run all replicas over one shared horizon;
    early-stopped sweeps aggregate scalar outcomes, not traces).
    """
    from repro.analysis import first_beep_round, summarize_trace
    from repro.batch import BatchTraceRecorder, LeaderExtinctionObserver
    from repro.telemetry import StreamingConvergence, StreamingFirstBeep

    topology = cycle_graph(_size(200, 24))
    protocol = BFWProtocol()
    seeds = list(range(_size(32, 4)))
    horizon = _size(1500, 60)
    engine = BatchedEngine(topology, protocol)

    start = time.perf_counter()
    untraced = engine.run(
        seeds,
        max_rounds=horizon,
        stop_at_single_leader=False,
        record_leader_counts=False,
    )
    untraced_seconds = time.perf_counter() - start

    recorder = BatchTraceRecorder()
    extinction = LeaderExtinctionObserver()
    start = time.perf_counter()
    traced = engine.run(
        seeds,
        max_rounds=horizon,
        stop_at_single_leader=False,
        record_leader_counts=False,
        observers=[recorder, extinction],
    )
    traced_seconds = time.perf_counter() - start

    # identical replicas first — observation must never perturb execution
    _assert_same_replicas(traced, untraced.to_simulation_results())
    trace = recorder.trace()
    assert extinction.report().extinction_rate == 0.0

    overhead = traced_seconds / max(untraced_seconds, 1e-9)

    start = time.perf_counter()
    replay_firsts = trace.replay(StreamingFirstBeep())
    replay_summaries = trace.replay(StreamingConvergence())
    replay_analysis_seconds = time.perf_counter() - start

    import numpy as np

    start = time.perf_counter()
    loop_summaries = []
    for index in range(trace.num_replicas):
        replica = trace.replica(index)
        np.testing.assert_array_equal(replay_firsts[index], first_beep_round(replica))
        loop_summaries.append(summarize_trace(replica))
    loop_analysis_seconds = time.perf_counter() - start
    assert tuple(loop_summaries) == replay_summaries

    analysis_speedup = loop_analysis_seconds / max(replay_analysis_seconds, 1e-9)
    payload = {
        "benchmark": "batched-observers",
        "fast_mode": FAST,
        "strict": STRICT,
        "workload": {
            "protocol": "bfw",
            "graph": topology.name,
            "replicas": len(seeds),
            "trace_rounds": trace.num_rounds,
            "replica_rounds": int(traced.total_replica_rounds),
        },
        "results": {
            "untraced_wall_seconds": untraced_seconds,
            "traced_wall_seconds": traced_seconds,
            "trace_overhead": overhead,
            "replay_analysis_wall_seconds": replay_analysis_seconds,
            "per_replica_analysis_wall_seconds": loop_analysis_seconds,
            "analysis_speedup_replay_vs_loop": analysis_speedup,
        },
    }
    _write_bench_json(BENCH_OBSERVERS_JSON, payload)

    report(
        f"E15 — batched observation layer "
        f"({len(seeds)} replicas, {topology.name}, {trace.num_rounds} rounds)",
        f"untraced:       {untraced_seconds:8.2f}s\n"
        f"traced:         {traced_seconds:8.2f}s ({overhead:.2f}x)\n"
        f"analysis replay: {replay_analysis_seconds:7.3f}s\n"
        f"analysis loop:  {loop_analysis_seconds:8.3f}s "
        f"({analysis_speedup:.2f}x)\n"
        f"json:           {BENCH_OBSERVERS_JSON}",
    )
    if not FAST and STRICT:
        assert analysis_speedup >= 1.5, (
            f"replaying the trace must beat the per-replica loop; "
            f"measured {analysis_speedup:.2f}x"
        )
        assert overhead <= 10.0, (
            f"trace recording overhead must stay bounded; measured "
            f"{overhead:.2f}x the untraced run"
        )


@pytest.mark.experiment("E16")
def test_streaming_telemetry_overhead(report, tmp_path):
    """Streaming telemetry: online reducers and spilled traces vs the rest.

    Three claims are measured on the E15 fixed-horizon workload:

    * folding the analysis reductions online (first beep, invariants, beep
      totals, convergence — the ``O(R · n)``-accumulator reducers) costs at
      most a small multiple of the untraced run, *without* materialising the
      ``(T + 1, R, n)`` history at all;
    * spilling the trace as windowed ``.npz`` segments bounds trace RAM at
      the window size — the peak resident window is a small fraction of the
      in-memory ``BatchTrace`` — while replaying byte-identically;
    * both paths leave the physics untouched: replica results match the
      untraced run, streamed values equal the single-trace reference
      functions on every replica of the in-memory trace, and the spilled
      trace rehydrates to it exactly.
    """
    import numpy as np

    from repro.analysis import (
        beep_count_matrix,
        first_beep_round,
        summarize_trace,
    )
    from repro.batch import BatchBeepCountTracker, BatchTraceRecorder
    from repro.telemetry import (
        MetricsRegistry,
        SpillingTraceRecorder,
        StreamingConvergence,
        StreamingFirstBeep,
        StreamingInvariantChecker,
        use_metrics,
    )

    topology = cycle_graph(_size(600, 24))
    protocol = BFWProtocol()
    seeds = list(range(_size(32, 4)))
    horizon = _size(1500, 60)
    engine = BatchedEngine(topology, protocol)
    run_kwargs = dict(
        max_rounds=horizon,
        stop_at_single_leader=False,
        record_leader_counts=False,
    )
    repeats = 1 if FAST else 2

    engine.run(seeds, **run_kwargs)  # warmup: prime caches and lazy imports

    untraced_cpu, untraced_seconds, untraced = _best_of(
        lambda: engine.run(seeds, **run_kwargs), repeats
    )

    # Fresh reducers and registry per repeat (runs are deterministic, so the
    # last repeat's accumulators stand for any of them).
    observed = {}

    def _streamed_run():
        observed["streams"] = {
            "first-beep": StreamingFirstBeep(),
            "invariants": StreamingInvariantChecker(),
            "beep-totals": BatchBeepCountTracker(),
            "convergence": StreamingConvergence(),
        }
        observed["registry"] = MetricsRegistry()
        with use_metrics(observed["registry"]):
            return engine.run(
                seeds,
                observers=list(observed["streams"].values()),
                **run_kwargs,
            )

    streaming_cpu, streaming_seconds, streamed = _best_of(_streamed_run, repeats)
    streams = observed["streams"]
    registry = observed["registry"]

    spiller = SpillingTraceRecorder(
        directory=str(tmp_path), byte_budget=_size(1024 * 1024, 512)
    )
    spilling_cpu, spilling_seconds, _ = _timed(
        lambda: engine.run(seeds, observers=[spiller], **run_kwargs)
    )

    recorder = BatchTraceRecorder()
    inmemory_cpu, inmemory_seconds, _ = _timed(
        lambda: engine.run(seeds, observers=[recorder], **run_kwargs)
    )

    # identical physics first — telemetry must never perturb execution
    _assert_same_replicas(streamed, untraced.to_simulation_results())
    trace = recorder.trace()
    spilled = spiller.trace()
    assert spilled.load() == trace

    # streamed values == the single-trace references, replica by replica
    firsts = streams["first-beep"].result()
    summaries = streams["convergence"].result()
    totals = streams["beep-totals"].result()
    for index, replica in enumerate(trace.to_traces()):
        np.testing.assert_array_equal(firsts[index], first_beep_round(replica))
        assert summaries[index] == summarize_trace(replica)
        np.testing.assert_array_equal(
            totals[index], beep_count_matrix(replica)[-1]
        )
    assert streams["invariants"].result().ok

    # and the run metrics were sampled exactly once, with the right totals
    assert registry.counters["engine.runs"] == 1
    assert registry.counters["engine.rounds_advanced"] == int(
        streamed.total_replica_rounds
    )

    trace_bytes = int(trace.states.nbytes)
    peak_window = int(spilled.peak_window_bytes)
    streaming_overhead = streaming_cpu / max(untraced_cpu, 1e-9)
    spilling_overhead = spilling_cpu / max(untraced_cpu, 1e-9)
    inmemory_overhead = inmemory_cpu / max(untraced_cpu, 1e-9)
    payload = {
        "benchmark": "streaming-telemetry",
        "fast_mode": FAST,
        "strict": STRICT,
        "workload": {
            "protocol": "bfw",
            "graph": topology.name,
            "replicas": len(seeds),
            "trace_rounds": trace.num_rounds,
            "replica_rounds": int(untraced.total_replica_rounds),
            "timing_repeats": repeats,
        },
        "results": {
            "untraced_wall_seconds": untraced_seconds,
            "streaming_wall_seconds": streaming_seconds,
            "spilling_wall_seconds": spilling_seconds,
            "inmemory_wall_seconds": inmemory_seconds,
            "untraced_cpu_seconds": untraced_cpu,
            "streaming_cpu_seconds": streaming_cpu,
            "spilling_cpu_seconds": spilling_cpu,
            "inmemory_cpu_seconds": inmemory_cpu,
            "streaming_overhead": streaming_overhead,
            "spilling_overhead": spilling_overhead,
            "inmemory_overhead": inmemory_overhead,
            "trace_bytes": trace_bytes,
            "peak_window_bytes": peak_window,
            "peak_ram_fraction": peak_window / max(trace_bytes, 1),
        },
    }
    _write_bench_json(BENCH_TELEMETRY_JSON, payload)

    report(
        f"E16 — streaming telemetry "
        f"({len(seeds)} replicas, {topology.name}, {trace.num_rounds} rounds)",
        f"untraced:   {untraced_seconds:8.2f}s wall {untraced_cpu:8.2f}s cpu\n"
        f"streaming:  {streaming_seconds:8.2f}s wall ({streaming_overhead:.2f}x cpu)\n"
        f"spilling:   {spilling_seconds:8.2f}s wall ({spilling_overhead:.2f}x cpu)\n"
        f"in-memory:  {inmemory_seconds:8.2f}s wall ({inmemory_overhead:.2f}x cpu)\n"
        f"peak spill window: {peak_window:,} B of {trace_bytes:,} B trace "
        f"({peak_window / max(trace_bytes, 1):.3f})\n"
        f"json:       {BENCH_TELEMETRY_JSON}",
    )
    if not FAST and STRICT:
        assert streaming_overhead <= 1.3, (
            f"streaming reducers must stay within 1.3x of the untraced run; "
            f"measured {streaming_overhead:.2f}x"
        )
        assert peak_window * 4 <= trace_bytes, (
            f"the resident spill window must be a small fraction of the "
            f"full trace; peak {peak_window:,} B vs {trace_bytes:,} B"
        )


@pytest.mark.experiment("E17")
def test_intra_cell_sharding_speedup_on_single_cell(report):
    """One big Monte-Carlo cell: whole on ``process:2`` vs sharded.

    This is the workload the one-cell/one-core defect pinned to a single
    worker: a sweep of exactly one cell with thousands of replicas.  Whole,
    the process backend can schedule only one work unit (its pool clamps to
    1); with ``shard_size="auto"`` the seed list splits into one shard per
    worker.  The outcomes must be byte-identical — records, batch arrays,
    final states — before any timing counts.  A shared round budget keeps
    the per-replica workload uniform, so the case measures sharding, not
    tail-replica variance.
    """
    import numpy as np

    from repro.exec import ExecutionCell
    from repro.experiments.seeds import trial_seeds

    replicas = _size(4096, 8)
    n = _size(200, 16)
    max_rounds = _size(2000, 50)
    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=n),
        seeds=trial_seeds(20250808, f"bench-shard/bfw/cycle/{n}", replicas),
        max_rounds=max_rounds,
    )

    whole_backend = ProcessBackend(workers=PROCESS_WORKERS)
    start = time.perf_counter()
    whole = whole_backend.run_cell_outcomes((cell,))[0]
    whole_seconds = time.perf_counter() - start
    assert whole_backend.last_pool_size == 1  # the defect, measured

    sharded_backend = ProcessBackend(workers=PROCESS_WORKERS, shard_size="auto")
    start = time.perf_counter()
    sharded = sharded_backend.run_cell_outcomes((cell,))[0]
    sharded_seconds = time.perf_counter() - start
    assert sharded_backend.last_pool_size == PROCESS_WORKERS

    # identical outcomes first — a fast wrong merge is worthless
    assert sharded.to_records() == whole.to_records()
    for field in (
        "converged",
        "convergence_round",
        "rounds_executed",
        "final_leader_count",
        "leader_node",
    ):
        np.testing.assert_array_equal(
            getattr(sharded.batch, field), getattr(whole.batch, field)
        )
    assert sharded.batch.seeds == whole.batch.seeds
    np.testing.assert_array_equal(
        sharded.batch.final_states, whole.batch.final_states
    )

    replica_rounds = int(whole.batch.rounds_executed.sum())
    speedup = whole_seconds / sharded_seconds
    cpus = os.cpu_count() or 1
    payload = {
        "benchmark": "intra-cell-sharding",
        "fast_mode": FAST,
        "strict": STRICT,
        "cpu_count": cpus,
        "workload": {
            "protocol": "bfw",
            "graph": f"cycle({n})",
            "replicas": replicas,
            "max_rounds": max_rounds,
            "replica_rounds": replica_rounds,
        },
        "results": [
            {
                "configuration": "whole-cell",
                "pool_size": whole_backend.last_pool_size,
                "wall_seconds": whole_seconds,
                "replica_rounds_per_sec": replica_rounds / max(whole_seconds, 1e-9),
            },
            {
                "configuration": "shard-size-auto",
                "pool_size": sharded_backend.last_pool_size,
                "wall_seconds": sharded_seconds,
                "replica_rounds_per_sec": replica_rounds
                / max(sharded_seconds, 1e-9),
            },
        ],
        "speedup_sharded_vs_whole": speedup,
    }
    _write_bench_json(BENCH_SHARD_JSON, payload)

    report(
        f"E17 — intra-cell sharding on one Monte-Carlo cell "
        f"(R={replicas}, cycle({n}), {PROCESS_WORKERS} workers, {cpus} CPU(s))",
        f"whole cell:  {whole_seconds:8.2f}s (pool of 1 — the defect)\n"
        f"shard auto:  {sharded_seconds:8.2f}s (pool of {PROCESS_WORKERS})\n"
        f"speedup:     {speedup:.2f}x\n"
        f"json:        {BENCH_SHARD_JSON}",
    )
    if not FAST and STRICT and cpus >= PROCESS_WORKERS:
        assert speedup >= 1.5, (
            f"sharding one large cell across {PROCESS_WORKERS} workers must "
            f"be >= 1.5x the whole-cell run; measured {speedup:.2f}x on "
            f"{cpus} CPUs"
        )


@pytest.mark.experiment("E18")
def test_observability_overhead(report, tmp_path):
    """In-flight observability: heartbeats and span traces vs the silent run.

    The E17 single-cell workload runs through the batched backend three
    ways — untraced, with ``heartbeat_interval=32`` streaming in-flight
    :class:`~repro.exec.ShardProgress` events to a hook, and with
    heartbeats *plus* a full :class:`~repro.telemetry.progress.ProgressReporter`
    (telemetry JSONL stream and span tree) wired through
    ``cell_progress_adapter`` — exactly how ``repro ... --heartbeat K
    --telemetry --spans`` reaches the backend.

    Records must be byte-identical across all three before any timing
    counts: observability must never perturb the physics.  The overhead
    ratios use process CPU time (best-of-N) so co-tenant load on shared
    runners cannot fail the gate; the acceptance bar is heartbeats at
    ``K=32`` costing at most 5% over the silent run.
    """
    from repro.exec import ExecutionCell, ShardProgress
    from repro.experiments.runner import cell_progress_adapter
    from repro.experiments.seeds import trial_seeds
    from repro.telemetry.progress import ProgressReporter

    replicas = _size(4096, 8)
    n = _size(200, 16)
    max_rounds = _size(2000, 50)
    heartbeat_every = 32
    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=n),
        seeds=trial_seeds(
            20250808, f"bench-observability/bfw/cycle/{n}", replicas
        ),
        max_rounds=max_rounds,
    )
    cells = (cell,)
    repeats = 1 if FAST else 3

    silent_backend = BatchedBackend()
    silent_backend.run_cells(cells)  # warmup: prime caches and lazy imports
    untraced_cpu, untraced_seconds, reference = _best_of(
        lambda: silent_backend.run_cells(cells), repeats
    )

    beating_backend = BatchedBackend(heartbeat_interval=heartbeat_every)
    events = []

    def _beating_run():
        events.clear()
        return beating_backend.run_cells(cells, progress=events.append)

    heartbeat_cpu, heartbeat_seconds, beating = _best_of(_beating_run, repeats)
    beats = [event for event in events if isinstance(event, ShardProgress)]
    assert beating == reference  # identical physics first
    assert beats, "a heartbeat-enabled run must emit in-flight events"
    assert all(beat.heartbeat.engine for beat in beats)

    runs = {"count": 0}

    def _reported_run():
        runs["count"] += 1
        reporter = ProgressReporter(
            quiet=True,
            telemetry_path=str(tmp_path / f"telemetry-{runs['count']}.jsonl"),
            spans_path=str(tmp_path / f"spans-{runs['count']}.jsonl"),
        )
        try:
            return beating_backend.run_cells(
                cells, progress=cell_progress_adapter(reporter)
            )
        finally:
            reporter.close()

    spans_cpu, spans_seconds, reported = _best_of(_reported_run, repeats)
    assert reported == reference

    heartbeat_overhead = heartbeat_cpu / max(untraced_cpu, 1e-9)
    spans_overhead = spans_cpu / max(untraced_cpu, 1e-9)
    payload = {
        "benchmark": "observability-overhead",
        "fast_mode": FAST,
        "strict": STRICT,
        "workload": {
            "protocol": "bfw",
            "graph": f"cycle({n})",
            "replicas": replicas,
            "max_rounds": max_rounds,
            "heartbeat_interval": heartbeat_every,
            "beats_per_run": len(beats),
            "timing_repeats": repeats,
        },
        "results": {
            "untraced_wall_seconds": untraced_seconds,
            "heartbeat_wall_seconds": heartbeat_seconds,
            "spans_wall_seconds": spans_seconds,
            "untraced_cpu_seconds": untraced_cpu,
            "heartbeat_cpu_seconds": heartbeat_cpu,
            "spans_cpu_seconds": spans_cpu,
            "heartbeat_overhead": heartbeat_overhead,
            "spans_overhead": spans_overhead,
        },
    }
    _write_bench_json(BENCH_OBSERVABILITY_JSON, payload)

    report(
        f"E18 — in-flight observability "
        f"(R={replicas}, cycle({n}), heartbeat every {heartbeat_every} rounds)",
        f"untraced:   {untraced_seconds:8.2f}s wall {untraced_cpu:8.2f}s cpu\n"
        f"heartbeat:  {heartbeat_seconds:8.2f}s wall "
        f"({heartbeat_overhead:.3f}x cpu, {len(beats)} beats)\n"
        f"full spans: {spans_seconds:8.2f}s wall ({spans_overhead:.3f}x cpu)\n"
        f"json:       {BENCH_OBSERVABILITY_JSON}",
    )
    if not FAST and STRICT:
        assert heartbeat_overhead <= 1.05, (
            f"heartbeats at K={heartbeat_every} must cost at most 5% over "
            f"the silent run; measured {heartbeat_overhead:.3f}x"
        )
        assert spans_overhead <= 1.15, (
            f"the full reporter (telemetry + spans) must stay within 1.15x "
            f"of the silent run; measured {spans_overhead:.3f}x"
        )


@pytest.mark.experiment("E19")
def test_fused_kernel_rounds_per_sec(report):
    """Fused round kernels: the compiled loop vs the interpreted numpy loop.

    Two workload shapes, both BFW on a cycle over a fixed round horizon (no
    early stopping, so both kernels simulate exactly the same work):

    * ``wide`` — a million-node cycle at small R: the per-round cost is all
      array traffic, the regime where fusing the ~10 interpreter-dispatched
      ops per round into one native pass pays in memory locality;
    * ``tall`` — R = 4096 on a small cycle: the regime sweeps actually run,
      where the interpreter dispatch is amortised over many replicas and
      the fused kernel must still not lose.

    Batches must be byte-identical before any timing counts — the fused
    kernel consumes the same prefetched uniforms in the same order as the
    interpreted loop, and this case is where that claim meets a
    million-node CSR for real.  The ≥ 2× gate on the wide shape runs only
    when numba is importable (the CI ``kernels`` job installs the
    ``repro[kernels]`` extra); on numba-free machines the same kernel body
    runs interpreted at probe size, so the path cannot rot, but a
    pure-Python per-node loop at n = 10⁶ would measure nothing except
    interpreter overhead.
    """
    import numpy as np

    from repro.batch.kernels import numba_available

    fused_kernel = "numba" if numba_available() else "python"
    if FAST:
        workloads = [("wide", 2000, 2, 6), ("tall", 24, 32, 20)]
    elif numba_available():
        workloads = [("wide", 1_000_000, 4, 16), ("tall", 200, 4096, 256)]
    else:
        # Probe sizes: large enough to exercise the CSR path and the block
        # refill boundary, small enough for the interpreted kernel body.
        workloads = [("wide", 20_000, 4, 16), ("tall", 200, 256, 64)]

    compile_seconds = None
    results = []
    for shape, n, replicas, horizon in workloads:
        topology = cycle_graph(n)
        protocol = BFWProtocol()
        seeds = list(range(replicas))
        run_kwargs = dict(
            max_rounds=horizon,
            stop_at_single_leader=False,
            record_leader_counts=False,
        )

        numpy_engine = BatchedEngine(topology, protocol, kernel="numpy")
        start = time.perf_counter()
        reference = numpy_engine.run(seeds, **run_kwargs)
        numpy_seconds = time.perf_counter() - start

        fused_engine = BatchedEngine(topology, protocol, kernel=fused_kernel)
        fused_engine.run(seeds[:1], max_rounds=1)  # warmup: compile + caches
        start = time.perf_counter()
        fused = fused_engine.run(seeds, **run_kwargs)
        fused_seconds = time.perf_counter() - start

        # byte-identical batches first — a fast divergent kernel is worthless
        assert fused_engine.last_kernel["active"] == fused_kernel
        np.testing.assert_array_equal(fused.converged, reference.converged)
        np.testing.assert_array_equal(
            fused.rounds_executed, reference.rounds_executed
        )
        np.testing.assert_array_equal(
            fused.final_states, reference.final_states
        )
        compile_seconds = fused_engine.last_kernel["compile_seconds"]

        replica_rounds = int(reference.total_replica_rounds)
        results.append(
            {
                "shape": shape,
                "graph": f"cycle({n})",
                "replicas": replicas,
                "rounds": horizon,
                "replica_rounds": replica_rounds,
                "numpy_wall_seconds": numpy_seconds,
                "fused_wall_seconds": fused_seconds,
                "numpy_replica_rounds_per_sec": replica_rounds
                / max(numpy_seconds, 1e-9),
                "fused_replica_rounds_per_sec": replica_rounds
                / max(fused_seconds, 1e-9),
                "speedup_fused_vs_numpy": numpy_seconds
                / max(fused_seconds, 1e-9),
            }
        )

    payload = {
        "benchmark": "fused-round-kernels",
        "fast_mode": FAST,
        "strict": STRICT,
        "numba_available": numba_available(),
        "fused_kernel": fused_kernel,
        "compile_seconds": compile_seconds,
        "results": results,
    }
    _write_bench_json(BENCH_KERNEL_JSON, payload)

    lines = [
        f"{entry['shape']:5s} {entry['graph']:16s} R={entry['replicas']:<5d} "
        f"numpy {entry['numpy_replica_rounds_per_sec']:14,.0f} rr/s  "
        f"{fused_kernel} {entry['fused_replica_rounds_per_sec']:14,.0f} rr/s  "
        f"-> {entry['speedup_fused_vs_numpy']:.2f}x"
        for entry in results
    ]
    if compile_seconds is not None:
        lines.append(f"compile: {compile_seconds:.2f}s (once per process)")
    lines.append(f"json:    {BENCH_KERNEL_JSON}")
    report(
        f"E19 — fused round kernels (kernel={fused_kernel}, "
        f"numba={'yes' if numba_available() else 'no'})",
        "\n".join(lines),
    )
    if not FAST and STRICT and numba_available():
        wide = results[0]
        assert wide["speedup_fused_vs_numpy"] >= 2.0, (
            f"the compiled kernel must be >= 2x the interpreted numpy loop "
            f"on the million-node cycle; measured "
            f"{wide['speedup_fused_vs_numpy']:.2f}x"
        )


@pytest.mark.experiment("E20")
def test_interpreted_round_cost(report):
    """Wall and CPU µs per round of the interpreted (``numpy``) loop.

    Two shapes at the ends of the loop's range: one replica of cycle(64),
    where a round is a few dozen tiny array calls and per-call overhead is
    the cost, and 256 replicas of torus(32×32), where a round moves
    R·n = 262,144 states and data volume is the cost.  The horizon is fixed
    and replicas never retire, so every repetition runs the same rounds.
    """
    import numpy as np

    from repro.graphs.generators import torus_graph

    shapes = [
        ("cycle(64)", cycle_graph(64), 1, _size(2000, 200), 7),
        ("torus(32x32)", torus_graph(32, 32), 256, _size(100, 10), 5),
    ]
    results = []
    for graph, topology, replicas, rounds, repeats in shapes:
        engine = BatchedEngine(topology, BFWProtocol(), kernel="numpy")
        seeds = list(range(replicas))
        run_kwargs = dict(
            max_rounds=rounds,
            stop_at_single_leader=False,
            record_leader_counts=False,
        )
        engine.run(seeds, **run_kwargs)  # warm-up: caches and allocator
        walls, cpus = [], []
        for _ in range(repeats):
            wall, cpu = time.perf_counter(), time.process_time()
            batch = engine.run(seeds, **run_kwargs)
            walls.append((time.perf_counter() - wall) / rounds * 1e6)
            cpus.append((time.process_time() - cpu) / rounds * 1e6)
        assert engine.last_kernel["active"] == "numpy"
        assert int(batch.rounds_executed.min()) == rounds
        results.append(
            {
                "graph": graph,
                "replicas": replicas,
                "rounds": rounds,
                "repeats": repeats,
                "wall_us_per_round_best": min(walls),
                "wall_us_per_round_median": float(np.median(walls)),
                "cpu_us_per_round_best": min(cpus),
                "cpu_us_per_round_median": float(np.median(cpus)),
            }
        )

    payload = {
        "benchmark": "interpreted-round-cost",
        "fast_mode": FAST,
        "kernel": "numpy",
        "results": results,
    }
    _write_bench_json(BENCH_ROUND_OPS_JSON, payload)

    lines = [
        f"{entry['graph']:13s} R={entry['replicas']:<4d} "
        f"wall {entry['wall_us_per_round_best']:9.1f} µs/round best "
        f"({entry['wall_us_per_round_median']:.1f} median)  "
        f"cpu {entry['cpu_us_per_round_best']:9.1f} µs/round best"
        for entry in results
    ]
    lines.append(f"json: {BENCH_ROUND_OPS_JSON}")
    report("E20 — interpreted round cost (kernel=numpy)", "\n".join(lines))


@pytest.mark.experiment("E21")
def test_stream_reads(report):
    """Seconds and stream traffic of a converged ``mc-torus``-shaped run.

    Appends (or replaces) the measured tree's row of the committed
    ``BENCH_streams.json`` ledger.  The stream counters are ``None`` on
    trees whose :class:`~repro.batch.streams.ReplicaStreams` does not
    count them.
    """
    import numpy as np

    import repro
    from repro.batch.streams import ReplicaStreams
    from repro.graphs.generators import torus_graph

    side, replicas, repeats = _size(32, 8), _size(256, 16), _size(5, 1)
    engine = BatchedEngine(torus_graph(side, side), BFWProtocol(), kernel="numpy")
    seeds = list(range(replicas))
    engine.run(seeds)  # warm-up: caches, jump tables and allocator
    walls, cpus = [], []
    for _ in range(repeats):
        streams = ReplicaStreams(seeds)
        cpu, wall, batch = _timed(lambda: engine.run(streams))
        walls.append(wall)
        cpus.append(cpu)
    assert engine.last_kernel["active"] == "numpy"
    assert batch.converged.all()

    source = Path(repro.__file__).resolve().parent
    described = subprocess.run(
        ["git", "-C", str(source), "describe", "--always", "--dirty"],
        capture_output=True,
        text=True,
    )
    row = {
        "commit": described.stdout.strip() or "unknown",
        "fast_mode": FAST,
        "graph": f"torus({side}x{side})",
        "replicas": replicas,
        "repeats": repeats,
        "replica_rounds": int(batch.rounds_executed.sum()),
        "wall_s_best": min(walls),
        "wall_s_median": float(np.median(walls)),
        "cpu_s_best": min(cpus),
        "cpu_s_median": float(np.median(cpus)),
        "uniforms_read": getattr(streams, "uniforms_read", None),
        "rows_materialised": getattr(streams, "rows_materialised", None),
        "eager_blocks": getattr(streams, "eager_blocks", None),
    }
    rows = []
    if BENCH_STREAMS_JSON.exists():
        rows = json.loads(BENCH_STREAMS_JSON.read_text(encoding="utf-8"))["rows"]
    key = (row["commit"], FAST)
    rows = [old for old in rows if (old["commit"], old["fast_mode"]) != key]
    rows.append(row)
    _write_bench_json(
        BENCH_STREAMS_JSON,
        {"benchmark": "stream-reads", "kernel": "numpy", "rows": rows},
    )

    report(
        "E21 — stream reads (kernel=numpy)",
        "\n".join(
            [
                f"{row['commit']}: {row['graph']} R={replicas} "
                f"wall {row['wall_s_best']:.3f} s best "
                f"({row['wall_s_median']:.3f} median)  "
                f"cpu {row['cpu_s_best']:.3f} s best",
                f"uniforms read {row['uniforms_read']}, rows materialised "
                f"{row['rows_materialised']}, eager blocks {row['eager_blocks']}",
                f"json: {BENCH_STREAMS_JSON.name}",
            ]
        ),
    )


@pytest.mark.experiment("E12")
def test_batched_engine_throughput(benchmark):
    topology = cycle_graph(_size(200, 24))
    protocol = BFWProtocol()
    seeds = list(range(_size(64, 4)))
    engine = BatchedEngine(topology, protocol)

    def run():
        return engine.run(seeds, max_rounds=MAX_ROUNDS, record_leader_counts=False)

    result = benchmark(run)
    assert result.converged.all()


@pytest.mark.experiment("E12")
def test_batched_memory_engine_throughput(benchmark):
    topology = cycle_graph(_size(64, 12))
    protocol = EmekKerenStyleElection(diameter=topology.diameter())
    engine = BatchedMemoryEngine(topology, protocol)
    seeds = list(range(_size(64, 4)))

    def run():
        return engine.run(seeds, max_rounds=MAX_ROUNDS)

    result = benchmark(run)
    assert result.converged.all()


@pytest.mark.experiment("E12")
def test_seed_loop_throughput_baseline(benchmark):
    topology = cycle_graph(_size(200, 24))
    protocol = BFWProtocol()
    seeds = list(range(_size(8, 2)))  # smaller workload: this is the slow path

    def run():
        return _loop_replica_rounds(topology, protocol, seeds)[0]

    results = benchmark(run)
    assert all(result.converged for result in results)
