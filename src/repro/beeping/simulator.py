"""The reference simulator for the synchronous beeping model.

Two simulators are provided:

* :class:`Simulator` runs constant-state protocols
  (:class:`~repro.core.protocol.BeepingProtocol`, e.g. BFW) by literally
  applying the probabilistic transition kernels node by node.  It is the
  easy-to-audit reference implementation that the test suite checks the
  vectorised engine against.
* :class:`MemorySimulator` runs baseline algorithms with unbounded per-node
  memory (:class:`~repro.core.protocol.MemoryProtocol`).  Baselines with a
  registered batch state — all of Table 1 — run as a one-replica
  :class:`~repro.batch.memory.BatchedMemoryEngine` batch; the per-node loop
  lives on in :func:`run_memory_reference`, which serves every other memory
  protocol and is the oracle both memory engines are tested against.

Both enforce the paper's communication semantics: in each round every node
either beeps or listens, and a listening node hears a beep if and only if at
least one of its neighbours beeps (a beeping node is also treated as hearing
a beep, which is how the paper applies ``δ⊤`` to beeping states).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.observers import (
    BatchObserver,
    BatchRunInfo,
    ObserverPipeline,
)
from repro.batch.streams import ReplicaStreams
from repro.beeping.network import Configuration
from repro.beeping.observers import (
    LeaderCountTracker,
    Observer,
    RoundSnapshot,
    SingleLeaderStopper,
    TraceRecorder,
)
from repro.beeping.trace import ExecutionTrace
from repro.core.protocol import BeepingProtocol, MemoryProtocol
from repro.core.rng import RngLike, as_rng, seed_provenance
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.topology import Topology


def default_round_budget(topology: Topology, safety_factor: float = 64.0) -> int:
    """A generous default round budget of order ``D² log n``.

    Theorem 2 guarantees convergence within ``O(D² log n)`` rounds w.h.p.;
    the default budget multiplies that by a safety factor so that the budget
    is effectively never the binding constraint in experiments.
    """
    n = max(2, topology.n)
    diameter = max(1, topology.diameter())
    budget = safety_factor * diameter * diameter * (math.log2(n) + 1.0)
    return int(budget) + 256


@dataclass
class SimulationResult:
    """Outcome of a single simulated execution.

    Attributes
    ----------
    converged:
        Whether the execution reached a single-leader configuration within
        the round budget.
    convergence_round:
        First round from which exactly one leader remained, or ``None``.
    rounds_executed:
        Number of transition rounds that were simulated.
    final_leader_count:
        Number of leaders in the last simulated round.
    leader_counts:
        Leader count per recorded round (round 0 included).
    protocol_name, topology_name, seed:
        Provenance metadata.
    trace:
        Full execution trace, present only when trace recording was enabled.
    """

    converged: bool
    convergence_round: Optional[int]
    rounds_executed: int
    final_leader_count: int
    leader_counts: Tuple[int, ...] = ()
    protocol_name: str = ""
    topology_name: str = ""
    seed: Optional[int] = None
    trace: Optional[ExecutionTrace] = None

    def as_dict(self) -> dict:
        """Plain-dictionary view (without the trace) for serialisation."""
        return {
            "converged": self.converged,
            "convergence_round": self.convergence_round,
            "rounds_executed": self.rounds_executed,
            "final_leader_count": self.final_leader_count,
            "protocol_name": self.protocol_name,
            "topology_name": self.topology_name,
            "seed": self.seed,
        }


class Simulator:
    """Reference simulator for constant-state beeping protocols.

    Parameters
    ----------
    topology:
        The communication graph.
    protocol:
        The protocol to execute.
    """

    def __init__(self, topology: Topology, protocol: BeepingProtocol) -> None:
        protocol.validate()
        self._topology = topology
        self._protocol = protocol
        self._beeping_values = tuple(
            int(s) for s in protocol.states() if protocol.is_beeping(s)
        )
        self._leader_values = tuple(
            int(s) for s in protocol.states() if protocol.is_leader(s)
        )

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def protocol(self) -> BeepingProtocol:
        """The protocol being simulated."""
        return self._protocol

    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        initial_configuration: Optional[Configuration] = None,
        observers: Sequence[Observer] = (),
        record_trace: bool = False,
        stop_at_single_leader: bool = True,
    ) -> SimulationResult:
        """Execute the protocol and return a :class:`SimulationResult`.

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to :func:`default_round_budget`.
        rng:
            Seed or generator driving all probabilistic transitions.
        initial_configuration:
            Starting configuration; defaults to every node in the protocol's
            initial state (the paper's Eq. (2)).
        observers:
            Additional observers to attach.
        record_trace:
            Whether to record (and return) the full execution trace.
        stop_at_single_leader:
            Whether to stop as soon as a single leader remains.  For BFW this
            is sound because the leader count never increases.
        """
        seed_value = seed_provenance(rng)
        generator = as_rng(rng)
        if max_rounds is None:
            max_rounds = default_round_budget(self._topology)
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0; got {max_rounds}")

        configuration = initial_configuration or Configuration(
            self._topology, self._protocol
        )
        if configuration.topology is not self._topology:
            raise SimulationError(
                "initial configuration was built for a different topology"
            )

        tracker = LeaderCountTracker()
        all_observers: List[Observer] = [tracker]
        recorder: Optional[TraceRecorder] = None
        if record_trace:
            recorder = TraceRecorder(
                beeping_values=self._beeping_values,
                leader_values=self._leader_values,
                seed=seed_value,
            )
            all_observers.append(recorder)
        if stop_at_single_leader:
            all_observers.append(SingleLeaderStopper())
        all_observers.extend(observers)

        for observer in all_observers:
            observer.on_start(
                self._topology.n, self._protocol.name, self._topology.name
            )

        states = list(configuration.states())
        rounds_executed = 0
        snapshot = self._snapshot(0, states)
        stop = self._notify(all_observers, snapshot)

        while not stop and rounds_executed < max_rounds:
            states = self._step(states, snapshot.heard, generator)
            rounds_executed += 1
            snapshot = self._snapshot(rounds_executed, states)
            stop = self._notify(all_observers, snapshot)

        for observer in all_observers:
            observer.on_finish(snapshot)

        convergence_round = tracker.convergence_round
        return SimulationResult(
            converged=convergence_round is not None,
            convergence_round=convergence_round,
            rounds_executed=rounds_executed,
            final_leader_count=snapshot.leader_count,
            leader_counts=tuple(tracker.counts),
            protocol_name=self._protocol.name,
            topology_name=self._topology.name,
            seed=seed_value,
            trace=recorder.trace() if recorder is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _step(
        self,
        states: List[Hashable],
        heard: np.ndarray,
        rng: np.random.Generator,
    ) -> List[Hashable]:
        """Apply one synchronous transition to every node."""
        return [
            self._protocol.transition(state, bool(heard[node]), rng)
            for node, state in enumerate(states)
        ]

    def _snapshot(self, round_index: int, states: Sequence[Hashable]) -> RoundSnapshot:
        values = np.array([int(s) for s in states], dtype=np.int8)
        beeping = np.isin(values, self._beeping_values)
        leaders = np.isin(values, self._leader_values)
        if beeping.any():
            adjacency = self._topology.sparse_adjacency()
            heard = beeping | (adjacency.dot(beeping.astype(np.int32)) > 0)
        else:
            heard = beeping.copy()
        return RoundSnapshot(
            round_index=round_index,
            state_values=values,
            beeping=beeping,
            leaders=leaders,
            heard=heard,
        )

    @staticmethod
    def _notify(observers: Sequence[Observer], snapshot: RoundSnapshot) -> bool:
        stop = False
        for observer in observers:
            observer.on_round(snapshot)
            if observer.should_stop(snapshot):
                stop = True
        return stop


class MemorySimulator:
    """Simulator for beeping algorithms with unbounded per-node memory.

    The round structure is identical to :class:`Simulator`; only the state
    representation differs.  The result's "leader count" is the number of
    nodes whose memory currently marks them as (candidate) leader.

    A protocol with a registered batch state (see
    :func:`~repro.batch.memory.supports_batched_memory` — every Table-1
    baseline has one) runs as a one-replica
    :class:`~repro.batch.memory.BatchedMemoryEngine` batch, whose vectorised
    round is byte-identical to the per-node loop; any other memory protocol
    runs :func:`run_memory_reference`.  Either way the run reports
    ``engine="memory"`` to telemetry and heartbeats.
    """

    def __init__(self, topology: Topology, protocol: MemoryProtocol) -> None:
        # Imported here because repro.batch.memory imports this module.
        from repro.batch.memory import BatchedMemoryEngine, supports_batched_memory

        self._topology = topology
        self._protocol = protocol
        self._batch = (
            BatchedMemoryEngine(topology, protocol)
            if supports_batched_memory(protocol)
            else None
        )

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def protocol(self) -> MemoryProtocol:
        """The algorithm being simulated."""
        return self._protocol

    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_at_single_leader: bool = True,
        stability_window: int = 2,
        observers: Sequence[BatchObserver] = (),
    ) -> SimulationResult:
        """Execute the algorithm and return a :class:`SimulationResult`.

        The parameters are those of :func:`run_memory_reference`, and so is
        the result, field for field.  A caller's ``Generator`` is left in
        the state the reference loop would leave it in: the batch state
        draws exactly the randomness the per-node updates draw.  On the
        batch path observers also receive ``on_retire`` when the run stops
        before its budget, as on the batch engine.
        """
        if self._batch is None:
            return run_memory_reference(
                self._topology,
                self._protocol,
                max_rounds=max_rounds,
                rng=rng,
                stop_at_single_leader=stop_at_single_leader,
                stability_window=stability_window,
                observers=observers,
            )
        batch = self._batch._run(
            ReplicaStreams([rng]),
            max_rounds=max_rounds,
            record_leader_counts=True,
            stop_at_single_leader=stop_at_single_leader,
            stability_window=stability_window,
            observers=observers,
            engine="memory",
        )
        return batch.replica(0)


def run_memory_reference(
    topology: Topology,
    protocol: MemoryProtocol,
    max_rounds: Optional[int] = None,
    rng: RngLike = None,
    stop_at_single_leader: bool = True,
    stability_window: int = 2,
    observers: Sequence[BatchObserver] = (),
) -> SimulationResult:
    """Run a memory protocol with the per-node reference loop.

    Every round asks each node's memory whether it beeps, computes who
    hears, and calls ``protocol.update`` once per node, in node order — the
    literal reading of the model, kept as the oracle the batch states of
    :mod:`repro.batch.memory` are tested against, and the path of memory
    protocols that have no batch state.

    Parameters
    ----------
    max_rounds:
        Round budget; defaults to :func:`default_round_budget`.
    rng:
        Seed or generator for the algorithm's random choices.
    stop_at_single_leader:
        Stop once a single candidate leader has persisted for
        ``stability_window`` consecutive rounds, or as soon as every node
        reports termination.
    stability_window:
        Number of consecutive single-leader rounds required before
        stopping (baselines may transiently drop to one candidate).
    observers:
        :class:`~repro.batch.observers.BatchObserver` instances driven
        with one-replica round reports (``states``/``beeping`` are
        ``None`` — memory protocols have no state classes).  A retire
        request stops the run at that round, exactly as it retires the
        replica on :class:`~repro.batch.memory.BatchedMemoryEngine`.
    """
    run_started = time.perf_counter()
    seed_value = seed_provenance(rng)
    generator = as_rng(rng)
    if max_rounds is None:
        max_rounds = default_round_budget(topology)
    if max_rounds < 0:
        raise ConfigurationError(f"max_rounds must be >= 0; got {max_rounds}")

    n = topology.n
    adjacency = topology.sparse_adjacency()
    memories = [protocol.create_memory(node, n, generator) for node in range(n)]

    pipeline: Optional[ObserverPipeline] = None
    active_one = np.ones(1, dtype=bool)
    if observers:
        pipeline = ObserverPipeline(
            observers,
            BatchRunInfo(
                num_replicas=1,
                n=n,
                protocol_name=protocol.name,
                topology_name=topology.name,
                seeds=(seed_value,),
            ),
        )

    leader_counts: List[int] = []
    convergence_round: Optional[int] = None
    consecutive_single = 0
    rounds_executed = 0

    def leaders_now() -> Tuple[Optional[np.ndarray], int]:
        """One pass over the memories: (mask for observers, count)."""
        if pipeline is None:
            return None, sum(1 for memory in memories if protocol.is_leader(memory))
        mask = np.array([protocol.is_leader(memory) for memory in memories], dtype=bool)
        return mask, int(mask.sum())

    def observe(round_index: int, mask: Optional[np.ndarray]) -> bool:
        """Report one round to the pipeline; True = retire requested."""
        if pipeline is None:
            return False
        assert mask is not None
        requested = pipeline.observe_round(
            round_index, None, None, mask.reshape(1, -1), active_one
        )
        return bool(requested is not None and requested[0])

    mask, count = leaders_now()
    leader_counts.append(count)
    if count == 1:
        convergence_round = 0
        consecutive_single = 1
    stop_requested = observe(0, mask)

    # In-flight heartbeat: looked up once per run; None costs a single
    # is-not-None check per round, and beats never touch `generator`, so
    # records stay byte-identical with heartbeats on or off.
    from repro.telemetry.heartbeat import current_heartbeat

    heartbeat = current_heartbeat()

    for round_index in range(max_rounds):
        if stop_requested:
            break
        beeping = np.array(
            [protocol.wants_to_beep(memory, round_index) for memory in memories],
            dtype=bool,
        )
        if beeping.any():
            heard = beeping | (adjacency.dot(beeping.astype(np.int32)) > 0)
        else:
            heard = beeping
        memories = [
            protocol.update(memory, bool(heard[node]), round_index, generator)
            for node, memory in enumerate(memories)
        ]
        rounds_executed += 1

        mask, count = leaders_now()
        leader_counts.append(count)
        if count == 1:
            if convergence_round is None:
                convergence_round = rounds_executed
            consecutive_single += 1
        else:
            convergence_round = None
            consecutive_single = 0
        stop_requested = observe(rounds_executed, mask)
        if heartbeat is not None and heartbeat.due(rounds_executed):
            heartbeat.beat(
                engine="memory",
                round_index=rounds_executed,
                replicas=1,
                active=1,
                converged=int(count == 1),
                leaderless=int(count == 0),
                rounds_advanced=rounds_executed,
            )

        if all(protocol.has_terminated(memory) for memory in memories):
            break
        if stop_at_single_leader and consecutive_single >= max(1, stability_window):
            break

    if pipeline is not None:
        pipeline.finish(np.array([rounds_executed], dtype=np.int64))

    converged = convergence_round is not None and leader_counts[-1] == 1

    # One telemetry sample per run (a no-op unless a MetricsRegistry is
    # installed); imported lazily to keep the simulator importable without
    # pulling the telemetry stack.
    from repro.telemetry.metrics import sample_engine_run

    sample_engine_run(
        "memory",
        rounds_advanced=rounds_executed,
        replicas=1,
        wall_seconds=time.perf_counter() - run_started,
        replicas_converged=int(converged),
        replicas_leaderless=int(leader_counts[-1] == 0),
    )
    return SimulationResult(
        converged=converged,
        convergence_round=convergence_round if converged else None,
        rounds_executed=rounds_executed,
        final_leader_count=leader_counts[-1],
        leader_counts=tuple(leader_counts),
        protocol_name=protocol.name,
        topology_name=topology.name,
        seed=seed_value,
    )
