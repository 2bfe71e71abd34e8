"""Monte-Carlo replica runs: one batched execution per (protocol, graph) cell.

The sweeps behind every statistical claim of the paper run dozens of
independently seeded replicas per configuration.  :class:`MonteCarloRunner`
is the experiment-facing router for that workload:

* constant-state beeping protocols (BFW and the ablation variants) go
  through :class:`~repro.batch.engine.BatchedEngine`, which advances all
  replicas in one ``(R, n)`` state array and retires converged replicas in
  place;
* memory protocols with a registered batch implementation (the Table-1
  ID-broadcast, Emek–Keren-epoch and Gilbert–Newport baselines) go through
  :class:`~repro.batch.memory.BatchedMemoryEngine`, which does the same for
  their integer/boolean memory arrays;
* everything else (standalone baseline runners such as the pipelined-IDs
  election) keeps the per-seed path through
  :func:`~repro.experiments.runner.run_protocol_on`, and its results are
  assembled into the same :class:`~repro.batch.results.BatchResult` shape.

Because the batched engine is replica-for-replica identical to a loop of
single runs under matched seeds, routing through the runner never changes
experiment output — only how fast it arrives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.batch.engine import BatchedEngine
from repro.batch.memory import BatchedMemoryEngine, supports_batched_memory
from repro.batch.results import BatchResult
from repro.batch.streams import SeedLike
from repro.core.protocol import BeepingProtocol
from repro.core.rng import seed_provenance
from repro.errors import ConfigurationError
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.runner import run_protocol_on
from repro.experiments.seeds import DEFAULT_MASTER_SEED, trial_seeds
from repro.graphs.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a module cycle
    from repro.batch.observers import BatchObserver
    from repro.dynamics.schedules import TopologySchedule
    from repro.exec import BackendSpec, ShardSize
from repro.stats.summary import Summary, summarize_sample
from repro.viz.table_format import render_table


@dataclass(frozen=True)
class MonteCarloRunner:
    """Route replica batches to the fastest engine that preserves results.

    Parameters
    ----------
    max_rounds:
        Default round budget applied when ``run`` is not given one.
    record_leader_counts:
        Whether batched runs keep per-replica leader-count trajectories
        (off by default: sweeps only aggregate convergence rounds).
    """

    max_rounds: Optional[int] = None
    record_leader_counts: bool = False

    def run(
        self,
        topology: Topology,
        protocol: object,
        seeds: Sequence[SeedLike],
        max_rounds: Optional[int] = None,
        initial_states: Optional[np.ndarray] = None,
        schedule: Optional["TopologySchedule"] = None,
        observers: Sequence["BatchObserver"] = (),
        kernel: Optional[str] = None,
    ) -> BatchResult:
        """Run one replica per seed and return the batch outcome.

        Constant-state protocols and batch-supported memory baselines advance
        in a single batched state array; anything else falls back to a
        per-seed loop with identical results.  ``initial_states`` (an
        ``(n,)`` vector shared by all replicas, e.g. planted leaders) and
        ``schedule`` (a :class:`~repro.dynamics.schedules.TopologySchedule`
        swapping the adjacency between rounds) are only meaningful for
        constant-state protocols.  ``observers``
        (:class:`~repro.batch.observers.BatchObserver` instances) are
        attached to whichever batched engine runs the replicas; the per-seed
        fallback has no observation hooks and rejects them.  ``kernel``
        selects the batched engine's round kernel
        (:mod:`repro.batch.kernels`); engines without a kernel seam — the
        memory baselines and standalone runners — ignore it, since their
        records are kernel-invariant by definition.
        """
        if len(seeds) == 0:
            raise ConfigurationError("a Monte-Carlo run needs at least one seed")
        budget = max_rounds if max_rounds is not None else self.max_rounds
        if isinstance(protocol, BeepingProtocol):
            engine = BatchedEngine(
                topology, protocol, schedule=schedule, kernel=kernel
            )
            return engine.run(
                list(seeds),
                max_rounds=budget,
                initial_states=(
                    None if initial_states is None else np.asarray(initial_states)
                ),
                record_leader_counts=self.record_leader_counts,
                observers=observers,
            )
        if schedule is not None:
            raise ConfigurationError(
                "topology schedules require a constant-state beeping "
                f"protocol; got {type(protocol).__name__}"
            )
        if initial_states is not None:
            raise ConfigurationError(
                "initial_states requires a constant-state beeping protocol; "
                f"got {type(protocol).__name__}"
            )
        if supports_batched_memory(protocol):
            # Trajectories are always kept on this path: the per-seed loop it
            # replaces carried them too, and on baseline-sized graphs they
            # cost next to nothing.
            memory_engine = BatchedMemoryEngine(topology, protocol)
            return memory_engine.run(
                list(seeds), max_rounds=budget, observers=observers
            )
        if observers:
            raise ConfigurationError(
                "batch observers require a constant-state protocol or a "
                "batch-supported memory baseline; standalone runner "
                f"{type(protocol).__name__} has no observation hooks"
            )
        run_batch = getattr(protocol, "run_batch", None)
        if callable(run_batch):
            # Standalone runners with a batch entry point (the pipelined-IDs
            # election) advance all replicas together — replica-for-replica
            # identical to the per-seed loop under matched seeds, so the
            # cell shards like every other protocol.
            return run_batch(topology, list(seeds), max_rounds=budget)
        results = [
            run_protocol_on(topology, protocol, rng=seed, max_rounds=budget)
            for seed in seeds
        ]
        return BatchResult.from_simulation_results(
            results,
            seeds=[seed_provenance(seed) for seed in seeds],
        )


def runs_batched(protocol: object) -> bool:
    """Whether :class:`MonteCarloRunner` advances ``protocol`` batched.

    True for constant-state beeping protocols, for memory baselines with a
    registered batch implementation, and for standalone runners exposing a
    ``run_batch`` entry point (the pipelined-IDs election); False for
    runners that keep the per-seed loop.
    """
    return (
        isinstance(protocol, BeepingProtocol)
        or supports_batched_memory(protocol)
        or callable(getattr(protocol, "run_batch", None))
    )


@dataclass(frozen=True)
class MonteCarloReport:
    """Rendered summary of one ``repro montecarlo`` invocation."""

    protocol: str
    graph: str
    n: int
    diameter: int
    num_replicas: int
    batched: bool
    rounds: Summary
    convergence_rate: float
    #: Number of distinct elected nodes across converged replicas, or
    #: ``None`` when leader identities are unavailable (the per-seed loop
    #: path does not record them).
    distinct_leaders: Optional[int]
    total_replica_rounds: int
    elapsed_seconds: float
    result: BatchResult

    @property
    def replica_rounds_per_second(self) -> float:
        """Throughput in simulated replica-rounds per wall-clock second."""
        return self.total_replica_rounds / max(self.elapsed_seconds, 1e-9)

    def render(self) -> str:
        """Plain-text report table."""
        rows = [
            ("replicas", self.num_replicas),
            ("engine", "batched" if self.batched else "per-seed loop"),
            ("convergence rate", self.convergence_rate),
            ("mean rounds", self.rounds.mean),
            ("median rounds", self.rounds.median),
            ("q95 rounds", self.rounds.q95),
            (
                "distinct leaders",
                "unknown" if self.distinct_leaders is None else self.distinct_leaders,
            ),
            ("replica-rounds", self.total_replica_rounds),
            ("replica-rounds/sec", round(self.replica_rounds_per_second)),
        ]
        return render_table(
            ["metric", "value"],
            rows,
            title=(
                f"Monte Carlo — {self.protocol} on {self.graph} "
                f"(n={self.n}, D={self.diameter})"
            ),
        )


def run_monte_carlo(
    protocol: str = "bfw",
    graph: str = "cycle",
    n: int = 64,
    replicas: int = 32,
    master_seed: int = DEFAULT_MASTER_SEED,
    max_rounds: Optional[int] = None,
    params: Optional[dict] = None,
    backend: "BackendSpec" = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> MonteCarloReport:
    """Run ``replicas`` seeded executions of one configuration and summarise.

    The per-replica seeds come from :func:`trial_seeds` under the experiment
    key ``montecarlo/<protocol>/<graph>/<n>``, so the run is reproducible
    from ``master_seed`` alone.  On deterministic graph families (paths,
    cycles, grids, …) each replica can also be re-run in isolation with
    ``repro run --seed <seed>``; randomised families (geometric,
    Erdős–Rényi) are seeded from ``master_seed`` here but from ``--seed``
    by ``repro run``, so the standalone command rebuilds a different graph.

    ``backend`` selects the :mod:`repro.exec` execution backend and defaults
    to ``"batched"`` (the historical behaviour of this entry point); the
    per-replica outcomes are identical on every backend, but only batched
    executions record elected-node identities.  ``shard_size`` (int or
    ``"auto"`` = ``ceil(replicas / workers)``) splits the run's single cell
    into seed-list shards — the setting that lets ``process:N`` spread one
    large montecarlo cell across all workers, byte-identically.

    ``elapsed_seconds`` (and therefore the reported replica-rounds/sec)
    times the whole backend execution — graph rebuild and protocol
    instantiation included, and for ``"process:N"`` the worker-pool
    startup too.  It measures what the chosen backend costs end to end,
    not bare engine throughput; use
    ``benchmarks/bench_batched_engine.py`` for engine-only numbers.
    """
    from repro.exec import ExecutionCell, resolve_backend

    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1; got {replicas}")
    resolved = resolve_backend(
        backend,
        default="batched",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(name=protocol, params=dict(params or {})),
        graph=GraphSpec(family=graph, n=n),
        seeds=trial_seeds(master_seed, f"montecarlo/{protocol}/{graph}/{n}", replicas),
        max_rounds=max_rounds,
        graph_rng_key=(master_seed, "montecarlo-graph", graph, n),
    )
    start = time.perf_counter()
    outcome = resolved.run_cell_outcomes((cell,))[0]
    elapsed = time.perf_counter() - start

    batch = outcome.batch
    if batch is None:
        batch = BatchResult.from_simulation_results(
            outcome.results, seeds=list(cell.seeds)
        )
    # Leader identities exist on both batched paths; the per-seed fallback
    # assembles SimulationResults, which do not record the elected node.
    has_leader_identities = outcome.batched
    return MonteCarloReport(
        protocol=protocol,
        graph=outcome.topology_name,
        n=outcome.n,
        diameter=outcome.diameter,
        num_replicas=batch.num_replicas,
        batched=outcome.batched,
        rounds=summarize_sample([float(r) for r in batch.effective_rounds()]),
        convergence_rate=batch.convergence_rate,
        distinct_leaders=(
            int(np.unique(batch.leader_node[batch.converged]).size)
            if has_leader_identities
            else None
        ),
        total_replica_rounds=batch.total_replica_rounds,
        elapsed_seconds=elapsed,
        result=batch,
    )
