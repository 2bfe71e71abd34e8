"""Trial and sweep runners: dispatching protocols onto the right simulator.

Three kinds of protocol objects appear in the experiments:

* constant-state beeping protocols (BFW and its variants) — executed with
  the vectorised engine;
* memory protocols (ID broadcast, knockout, epoch baselines) — executed with
  the :class:`~repro.beeping.simulator.MemorySimulator`, which runs every
  baseline with a batch state as a one-replica
  :class:`~repro.batch.memory.BatchedMemoryEngine` batch (a whole seed batch
  runs in one such engine call, replica for replica identically);
* standalone runners (the pipelined O(D + log n) baseline) — executed through
  their own ``run(topology, rng, max_rounds)`` method.

:func:`run_protocol_on` hides that dispatch so that the sweep code, the
Table-1 generator, and the CLI all share one entry point.  *How* a sweep's
cells are executed — per-trial loop, batched state arrays, a process pool —
is delegated to the pluggable :mod:`repro.exec` backends:
:func:`run_sweep` accepts ``backend=`` (an
:class:`~repro.exec.ExecutionBackend` instance or a spec string such as
``"batched"`` or ``"process:4"``) and produces byte-identical records on
every backend under matched seeds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines import (
    EmekKerenStyleElection,
    GilbertNewportKnockout,
    IDBroadcastElection,
    PipelinedIDElection,
)
from repro.beeping.engine import VectorizedEngine
from repro.beeping.simulator import MemorySimulator, SimulationResult
from repro.core.protocol import BeepingProtocol, MemoryProtocol
from repro.core.registry import available_protocols, create_protocol
from repro.errors import ConfigurationError
from repro.exec import (
    BackendSpec,
    CellCompleted,
    ExecutionCell,
    ProgressHook,
    ShardProgress,
    ShardSize,
    resolve_backend,
)
from repro.experiments.config import SweepConfig, TrialConfig
from repro.experiments.results import TrialRecord
from repro.experiments.seeds import rng_from, trial_seeds
from repro.graphs.generators import make_graph
from repro.graphs.topology import Topology

RngLike = Union[int, np.random.Generator, None]

#: Names understood by :func:`instantiate_protocol` in addition to the BFW
#: registry: baseline identifiers mapped to factories that may need graph
#: knowledge.
BASELINE_NAMES: Tuple[str, ...] = (
    "id-broadcast",
    "id-broadcast-random",
    "pipelined-ids",
    "gilbert-newport",
    "emek-keren",
)


def instantiate_protocol(
    name: str,
    topology: Topology,
    params: Optional[Dict[str, object]] = None,
) -> object:
    """Build a protocol (BFW-family or baseline) for a given topology.

    Graph knowledge (``n``, ``D``) is injected automatically for protocols
    that require it, mirroring the "Knowledge" column of Table 1.
    """
    params = dict(params or {})
    diameter = max(1, topology.diameter())
    if name in available_protocols():
        return create_protocol(name, diameter=diameter, n=topology.n, **params)
    if name == "id-broadcast":
        params.setdefault("id_mode", "unique")
        return IDBroadcastElection(diameter=diameter, n=topology.n, **params)
    if name == "id-broadcast-random":
        params.pop("id_mode", None)
        return IDBroadcastElection(
            diameter=diameter, n=topology.n, id_mode="random", **params
        )
    if name == "pipelined-ids":
        return PipelinedIDElection(**params)
    if name == "gilbert-newport":
        return GilbertNewportKnockout(**params)
    if name == "emek-keren":
        return EmekKerenStyleElection(diameter=diameter, **params)
    raise ConfigurationError(
        f"unknown protocol {name!r}; BFW-family protocols: "
        f"{', '.join(available_protocols())}; baselines: {', '.join(BASELINE_NAMES)}"
    )


def run_protocol_on(
    topology: Topology,
    protocol: object,
    rng: RngLike = None,
    max_rounds: Optional[int] = None,
) -> SimulationResult:
    """Run any supported protocol object on ``topology`` and return the result."""
    if isinstance(protocol, BeepingProtocol):
        engine = VectorizedEngine(topology, protocol)
        return engine.run(max_rounds=max_rounds, rng=rng)
    if isinstance(protocol, MemoryProtocol):
        simulator = MemorySimulator(topology, protocol)
        return simulator.run(max_rounds=max_rounds, rng=rng)
    run = getattr(protocol, "run", None)
    if callable(run):
        return run(topology, rng=rng, max_rounds=max_rounds)
    raise ConfigurationError(
        f"object {protocol!r} is not a runnable protocol (expected a "
        "BeepingProtocol, a MemoryProtocol, or an object with a run() method)"
    )


def run_protocol_batch_on(
    topology: Topology,
    protocol: object,
    seeds: Sequence[RngLike],
    max_rounds: Optional[int] = None,
    schedule=None,
):
    """Run one seeded replica per entry of ``seeds`` and return a batch.

    Constant-state protocols advance together in a
    :class:`~repro.batch.engine.BatchedEngine`, batch-supported memory
    baselines in a :class:`~repro.batch.memory.BatchedMemoryEngine`, and
    standalone runners loop over :func:`run_protocol_on`.  Under matched
    seeds the outcome is replica-for-replica identical to that loop either
    way — see :class:`~repro.experiments.montecarlo.MonteCarloRunner`.
    ``schedule`` (a :class:`~repro.dynamics.schedules.TopologySchedule`)
    runs the batch on a time-varying topology and requires a constant-state
    protocol.

    Returns
    -------
    repro.batch.results.BatchResult
    """
    from repro.experiments.montecarlo import MonteCarloRunner

    return MonteCarloRunner(max_rounds=max_rounds).run(
        topology, protocol, list(seeds), schedule=schedule
    )


def run_trial(trial: TrialConfig) -> TrialRecord:
    """Execute one trial described by a :class:`TrialConfig`."""
    graph_rng = rng_from(trial.graph.seed, "graph", trial.graph.family, trial.graph.n)
    topology = make_graph(trial.graph.family, trial.graph.n, rng=graph_rng)
    protocol = instantiate_protocol(
        trial.protocol.name, topology, dict(trial.protocol.params)
    )
    result = run_protocol_on(
        topology, protocol, rng=trial.seed, max_rounds=trial.max_rounds
    )
    return TrialRecord(
        protocol=trial.protocol.label,
        graph=trial.graph.label,
        n=topology.n,
        diameter=topology.diameter(),
        seed=trial.seed,
        converged=result.converged,
        convergence_round=result.convergence_round,
        rounds_executed=result.rounds_executed,
    )


def sweep_cells(sweep: SweepConfig) -> Tuple[ExecutionCell, ...]:
    """The sweep's (protocol, graph) cells as backend-executable units.

    Seeds are derived per cell exactly as the historical per-trial loop
    derived them, so any :class:`~repro.exec.ExecutionBackend` fed these
    cells reproduces that loop record for record.
    """
    return tuple(
        ExecutionCell(
            protocol=protocol_spec,
            graph=graph_spec,
            seeds=trial_seeds(
                sweep.master_seed,
                f"{sweep.name}/{protocol_spec.label}/{graph_spec.label}",
                sweep.num_seeds,
            ),
            max_rounds=sweep.max_rounds,
        )
        for protocol_spec, graph_spec in sweep.cells()
    )


def cell_progress_adapter(
    progress: Optional[Callable[[str], None]],
) -> Optional[ProgressHook]:
    """Adapt a line-oriented progress callback to backend cell events.

    Each event carries only its own cell's outcome, so the per-cell mean is
    computed from that cell's records alone (the historical implementation
    re-filtered the whole accumulated record list after every cell, which
    made progress reporting quadratic in the number of cells).

    ``progress`` may be any ``Callable[[str], None]`` — including a
    :class:`~repro.telemetry.progress.ProgressReporter`, in which case each
    event is additionally recorded into the reporter's telemetry JSONL
    stream (that is how ``--telemetry`` reaches ``run_sweep``).
    """
    if progress is None:
        return None

    def on_cell(event: CellCompleted) -> None:
        if isinstance(event, ShardProgress):
            # In-flight heartbeat (backends with --heartbeat only): the
            # telemetry stream gets a "progress" record; the console stays
            # quiet — beats can arrive thousands per cell and the per-cell
            # lines below remain the human-readable summary.
            record_beat = getattr(progress, "shard_progress", None)
            if callable(record_beat):
                record_beat(event)
            return
        if event.shard_index is not None:
            # Per-shard sub-progress (sharding backends only): one short
            # console line, and the telemetry stream gets a "shard" record.
            line = (
                f"  shard {event.shard_index + 1}/{event.shard_count} of "
                f"{event.cell.label} "
                f"({event.cell.num_replicas} replicas)"
            )
            if event.wall_seconds is not None:
                line += f" [{event.wall_seconds:.3f}s]"
        else:
            line = (
                f"{event.cell.protocol.label:<28} {event.cell.graph.label:<18} "
                f"mean rounds: {event.mean_rounds:10.1f}"
            )
            if event.wall_seconds is not None:
                line += f"  [{event.wall_seconds:7.3f}s"
                if event.wall_seconds > 0:
                    rate = event.rounds_advanced / event.wall_seconds
                    line += f", {rate:,.0f} replica-rounds/s"
                line += "]"
        progress(line)
        record_event = getattr(progress, "cell_completed", None)
        if callable(record_event):
            record_event(event)

    return on_cell


def run_sweep(
    sweep: SweepConfig,
    progress: Optional[Callable[[str], None]] = None,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> Tuple[TrialRecord, ...]:
    """Run every (protocol, graph, seed) combination of a sweep.

    Parameters
    ----------
    sweep:
        The sweep description.
    progress:
        Optional callback invoked with a human-readable line after each cell
        (used by the CLI to report progress).
    backend:
        How the sweep's cells are executed: an
        :class:`~repro.exec.ExecutionBackend` instance or a spec string —
        ``"sequential"`` (the default; per-trial loop), ``"batched"`` (one
        state array per cell) or ``"process:N"`` (cells sharded across N
        worker processes).  Records are byte-identical on every backend
        under the same master seed; only the wall-clock changes.
    shard_size:
        Maximum seeds per work unit (``--shard-size``): a positive int or
        ``"auto"`` (``ceil(R / workers)`` per cell).  Lets ``process:N``
        parallelise within a cell; output stays byte-identical.  ``None``
        keeps whole cells.
    heartbeat_interval:
        Poll an in-flight heartbeat every K engine rounds (``--heartbeat``)
        and stream it to ``progress`` as ``ShardProgress`` events /
        ``"progress"`` telemetry records.  ``None`` keeps heartbeats off;
        records are byte-identical either way.
    kernel:
        Default round kernel for the batched engine (``--kernel``): a
        :mod:`repro.batch.kernels` spec stamped onto cells that do not
        choose their own.  Records are byte-identical on every kernel;
        only the wall-clock changes.
    """
    resolved = resolve_backend(
        backend,
        default="sequential",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    return resolved.run_cells(
        sweep_cells(sweep), progress=cell_progress_adapter(progress)
    )
