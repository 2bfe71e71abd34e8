"""A vectorised engine for constant-state beeping protocols.

The reference :class:`~repro.beeping.simulator.Simulator` applies transition
kernels node by node in Python, which is convenient for auditing but too slow
for the scaling experiments (paths with hundreds of nodes simulated for tens
of thousands of rounds, dozens of seeds).  This engine compiles a protocol's
transition table into dense numpy lookup arrays and advances all nodes of a
round with a handful of array operations:

* the beeping mask is a vectorised membership test on the state vector;
* "who hears a beep" is one sparse matrix–vector product with the adjacency
  matrix;
* the transition is two lookups in the compiled protocol's flat tables
  (:attr:`CompiledProtocol.prob_by_code`, then
  :attr:`CompiledProtocol.next_by_code`), with a single vector of uniform
  random numbers resolving every probabilistic transition of the round.

The engine supports any protocol whose states are integer-valued and whose
transition rows have at most two outcomes — which covers BFW, its ablation
variants, and any similar coin-toss protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.observers import (
    BatchBeepCountTracker,
    BatchObserver,
    BatchRunInfo,
    BatchTraceRecorder,
    ObserverPipeline,
)
from repro.beeping.simulator import SimulationResult, default_round_budget
from repro.beeping.trace import ExecutionTrace
from repro.core.protocol import BeepingProtocol
from repro.core.rng import RngLike, as_rng, seed_provenance
from repro.dynamics.schedules import TopologySchedule
from repro.errors import ConfigurationError, ProtocolError, SimulationError
from repro.graphs.topology import Topology


def check_schedule(
    topology: Topology, schedule: Optional[TopologySchedule]
) -> Optional[TopologySchedule]:
    """Validate a topology schedule against an engine's base graph.

    Shared by both engines: the schedule must be a
    :class:`~repro.dynamics.schedules.TopologySchedule` defined for the same
    node count (nodes are the protocol's agents — only edges may change).
    """
    if schedule is None:
        return None
    if not isinstance(schedule, TopologySchedule):
        raise ConfigurationError(
            f"schedule must be a TopologySchedule (see repro.dynamics); "
            f"got {type(schedule).__name__}"
        )
    if schedule.n != topology.n:
        raise ConfigurationError(
            f"schedule is defined for n={schedule.n} nodes but the engine's "
            f"graph {topology.name} has n={topology.n}"
        )
    return schedule


@dataclass(frozen=True)
class CompiledProtocol:
    """Dense lookup-table representation of a two-outcome beeping protocol.

    Attributes
    ----------
    num_states:
        Number of compiled state slots (``max state value + 1``).
    initial_state:
        Integer value of the initial state.
    is_beeping:
        Boolean array indexed by state value.
    is_leader:
        Boolean array indexed by state value.
    succ_primary, succ_secondary, primary_probability:
        Arrays of shape ``(num_states, 2)``; the second axis is indexed by the
        "heard a beep" flag (0 = silent / ``δ⊥``, 1 = heard / ``δ⊤``).  A
        transition goes to ``succ_primary`` with ``primary_probability`` and
        to ``succ_secondary`` otherwise.
    prob_by_code, next_by_code:
        The same tables flattened for one-lookup transitions: with
        ``code = 2 * state + heard``, ``prob_by_code[code]`` is the primary
        probability and ``next_by_code[2 * code + (u >= p)]`` the successor
        chosen by uniform ``u`` (``0`` = primary, ``1`` = secondary).
    """

    num_states: int
    initial_state: int
    is_beeping: np.ndarray
    is_leader: np.ndarray
    succ_primary: np.ndarray
    succ_secondary: np.ndarray
    primary_probability: np.ndarray
    prob_by_code: np.ndarray
    next_by_code: np.ndarray
    protocol_name: str = ""

    @property
    def beeping_values(self) -> Tuple[int, ...]:
        """Integer state values classified as beeping."""
        return tuple(int(v) for v in np.flatnonzero(self.is_beeping))

    @property
    def leader_values(self) -> Tuple[int, ...]:
        """Integer state values classified as leader states."""
        return tuple(int(v) for v in np.flatnonzero(self.is_leader))


def compile_protocol(protocol: BeepingProtocol) -> CompiledProtocol:
    """Compile ``protocol`` into dense lookup tables.

    Raises
    ------
    ProtocolError
        If the protocol's states are not integer-valued, or if some transition
        row has more than two outcomes (such protocols must use the reference
        simulator instead).
    """
    protocol.validate()
    states = list(protocol.states())
    try:
        values = [int(s) for s in states]
    except (TypeError, ValueError):
        raise ProtocolError(
            f"protocol {protocol.name!r} has non-integer states and cannot be "
            "compiled for the vectorised engine"
        ) from None
    if any(v < 0 for v in values):
        raise ProtocolError("state values must be non-negative for compilation")

    num_states = max(values) + 1
    is_beeping = np.zeros(num_states, dtype=bool)
    is_leader = np.zeros(num_states, dtype=bool)
    for state, value in zip(states, values):
        is_beeping[value] = protocol.is_beeping(state)
        is_leader[value] = protocol.is_leader(state)

    succ_primary = np.zeros((num_states, 2), dtype=np.int8)
    succ_secondary = np.zeros((num_states, 2), dtype=np.int8)
    primary_probability = np.ones((num_states, 2), dtype=float)
    # Unused slots self-loop, so a stray state value cannot escape its slot.
    for value in range(num_states):
        succ_primary[value, :] = value
        succ_secondary[value, :] = value

    table = protocol.transition_table()
    for heard_index, kernel in ((0, table.silent), (1, table.heard)):
        for state, distribution in kernel.items():
            value = int(state)
            outcomes = sorted(distribution.items(), key=lambda kv: -kv[1])
            if len(outcomes) > 2:
                raise ProtocolError(
                    f"state {state!r} of protocol {protocol.name!r} has "
                    f"{len(outcomes)} outcomes; the vectorised engine supports "
                    "at most two"
                )
            primary_state, primary_prob = outcomes[0]
            secondary_state = outcomes[1][0] if len(outcomes) == 2 else primary_state
            succ_primary[value, heard_index] = int(primary_state)
            succ_secondary[value, heard_index] = int(secondary_state)
            primary_probability[value, heard_index] = float(primary_prob)

    return CompiledProtocol(
        num_states=num_states,
        initial_state=int(protocol.initial_state),
        is_beeping=is_beeping,
        is_leader=is_leader,
        succ_primary=succ_primary,
        succ_secondary=succ_secondary,
        primary_probability=primary_probability,
        prob_by_code=primary_probability.reshape(-1).copy(),
        next_by_code=np.stack((succ_primary, succ_secondary), axis=-1).reshape(-1),
        protocol_name=protocol.name,
    )


class VectorizedEngine:
    """Fast simulator for compiled constant-state protocols.

    Parameters
    ----------
    topology:
        The communication graph (the initial graph when a schedule is set).
    protocol:
        The protocol to execute; compiled once at construction time.
    schedule:
        Optional :class:`~repro.dynamics.schedules.TopologySchedule`: the
        graph used in round ``r`` is ``schedule.topology_at(r)`` instead of
        the static topology.  A static schedule reproduces the scheduleless
        run bit for bit (same arithmetic, same RNG stream).
    """

    def __init__(
        self,
        topology: Topology,
        protocol: BeepingProtocol,
        schedule: Optional[TopologySchedule] = None,
    ) -> None:
        self._topology = topology
        self._protocol = protocol
        self._compiled = compile_protocol(protocol)
        self._adjacency = topology.sparse_adjacency()
        schedule = check_schedule(topology, schedule)
        if schedule is not None and schedule.is_static:
            # The identity schedule *is* today's fast path: adopt its (only)
            # graph up front and skip the per-round dispatch entirely, so
            # bit-identity with a scheduleless run holds by construction.
            self._adjacency = schedule.topology_at(0).sparse_adjacency()
            schedule = None
        self._schedule = schedule

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def protocol(self) -> BeepingProtocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled lookup tables."""
        return self._compiled

    @property
    def schedule(self) -> Optional[TopologySchedule]:
        """The topology schedule, or ``None`` for a static graph."""
        return self._schedule

    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        initial_states: Optional[Sequence[int]] = None,
        record_trace: bool = False,
        record_beep_counts: bool = False,
        stop_at_single_leader: bool = True,
        observers: Sequence[BatchObserver] = (),
    ) -> SimulationResult:
        """Execute the protocol and return a :class:`SimulationResult`.

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to :func:`default_round_budget`.
        rng:
            Seed or generator driving all probabilistic transitions.
        initial_states:
            Integer state values per node; defaults to every node in the
            protocol's initial state.
        record_trace:
            Whether to store and return the full state history.
        record_beep_counts:
            Whether to accumulate ``N^beep`` per node (available through
            :attr:`last_beep_counts` after the run).
        stop_at_single_leader:
            Stop as soon as the leader count reaches one.
        observers:
            :class:`~repro.batch.observers.BatchObserver` instances driven
            with one-replica ``(1, n)`` round reports — the same hooks the
            batched engine drives for whole batches.  An observer's retire
            request stops the run like ``stop_at_single_leader`` does.
        """
        run_started = time.perf_counter()
        seed_value = seed_provenance(rng)
        generator = as_rng(rng)
        if max_rounds is None:
            max_rounds = default_round_budget(self._topology)
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0; got {max_rounds}")

        n = self._topology.n
        compiled = self._compiled
        if initial_states is None:
            states = np.full(n, compiled.initial_state, dtype=np.int8)
        else:
            states = np.asarray(initial_states, dtype=np.int8).copy()
            if states.shape != (n,):
                raise SimulationError(
                    f"initial_states has shape {states.shape}; expected ({n},)"
                )
            if (states < 0).any() or (states >= compiled.num_states).any():
                raise SimulationError("initial_states contains invalid state values")

        # The trace / beep-count flags ride the same observation layer as
        # caller-supplied observers: one code path from here to the batched
        # engines (and byte-identical output to the historical inline paths).
        attached: List[BatchObserver] = list(observers)
        recorder: Optional[BatchTraceRecorder] = None
        beep_tracker: Optional[BatchBeepCountTracker] = None
        if record_trace:
            recorder = BatchTraceRecorder()
            attached.append(recorder)
        if record_beep_counts:
            beep_tracker = BatchBeepCountTracker()
            attached.append(beep_tracker)
        pipeline: Optional[ObserverPipeline] = None
        active_one = np.ones(1, dtype=bool)
        if attached:
            pipeline = ObserverPipeline(
                attached,
                BatchRunInfo(
                    num_replicas=1,
                    n=n,
                    protocol_name=compiled.protocol_name,
                    topology_name=self._topology.name,
                    beeping_values=compiled.beeping_values,
                    leader_values=compiled.leader_values,
                    seeds=(seed_value,),
                ),
            )

        def observe(round_index: int) -> bool:
            """Report one round to the pipeline; True = retire requested."""
            if pipeline is None:
                return False
            mask = pipeline.observe_round(
                round_index,
                states.reshape(1, -1),
                compiled.is_beeping[states].reshape(1, -1),
                compiled.is_leader[states].reshape(1, -1),
                active_one,
            )
            return bool(mask is not None and mask[0])

        leader_counts: List[int] = []

        leaders = compiled.is_leader[states]
        leader_count = int(leaders.sum())
        leader_counts.append(leader_count)
        stop_requested = observe(0)

        convergence_round: Optional[int] = 0 if leader_count == 1 else None
        rounds_executed = 0

        # In-flight heartbeat: looked up once per run; None costs a single
        # is-not-None check per round and beats never touch `generator`, so
        # records stay byte-identical with heartbeats on or off.
        from repro.telemetry.heartbeat import current_heartbeat

        heartbeat = current_heartbeat()

        schedule = self._schedule
        if schedule is not None:
            schedule.begin_run()
        adjacency = self._adjacency

        while rounds_executed < max_rounds:
            if stop_requested or (stop_at_single_leader and leader_count == 1):
                break
            if schedule is not None:
                topology = schedule.topology_at(rounds_executed + 1, states=states)
                if topology.n != n:
                    raise ConfigurationError(
                        f"schedule changed the node count to {topology.n} in "
                        f"round {rounds_executed + 1}; expected {n}"
                    )
                adjacency = topology.sparse_adjacency()
            beeping = compiled.is_beeping[states]
            if beeping.any():
                heard = beeping | (
                    adjacency.dot(beeping.astype(np.int32)) > 0
                )
            else:
                heard = beeping
            # One flat lookup per transition (see CompiledProtocol): the
            # same uniforms pick the same successors as the 2-D tables.
            code = 2 * states.astype(np.intp) + heard
            probability = compiled.prob_by_code.take(code)
            uniforms = generator.random(n)
            states = compiled.next_by_code.take(2 * code + (uniforms >= probability))
            rounds_executed += 1

            leader_count = int(compiled.is_leader[states].sum())
            leader_counts.append(leader_count)
            stop_requested = observe(rounds_executed) or stop_requested
            if leader_count == 1 and convergence_round is None:
                convergence_round = rounds_executed
            elif leader_count != 1:
                convergence_round = None
            if heartbeat is not None and heartbeat.due(rounds_executed):
                heartbeat.beat(
                    engine="vectorized",
                    round_index=rounds_executed,
                    replicas=1,
                    active=1,
                    converged=int(leader_count == 1),
                    leaderless=int(leader_count == 0),
                    rounds_advanced=rounds_executed,
                )

        self.last_states = states.copy()
        if pipeline is not None:
            pipeline.finish(np.array([rounds_executed], dtype=np.int64))
        self.last_beep_counts = (
            beep_tracker.counts[0] if beep_tracker is not None else None
        )

        trace: Optional[ExecutionTrace] = None
        if recorder is not None:
            trace = recorder.trace().replica(0)

        converged = convergence_round is not None and leader_counts[-1] == 1

        # One telemetry sample per run (a no-op unless a MetricsRegistry is
        # installed); imported lazily to keep the engine importable without
        # pulling the telemetry stack.
        from repro.telemetry.metrics import sample_engine_run

        cache_stats = (
            self._schedule.cache_stats() if self._schedule is not None else None
        )
        sample_engine_run(
            "vectorized",
            rounds_advanced=rounds_executed,
            replicas=1,
            wall_seconds=time.perf_counter() - run_started,
            replicas_converged=int(converged),
            replicas_leaderless=int(leader_counts[-1] == 0),
            cache_stats=cache_stats,
        )
        return SimulationResult(
            converged=converged,
            convergence_round=convergence_round if converged else None,
            rounds_executed=rounds_executed,
            final_leader_count=leader_counts[-1],
            leader_counts=tuple(leader_counts),
            protocol_name=compiled.protocol_name,
            topology_name=self._topology.name,
            seed=seed_value,
            trace=trace,
        )


def run_bfw(
    topology: Topology,
    protocol: Optional[BeepingProtocol] = None,
    max_rounds: Optional[int] = None,
    rng: RngLike = None,
    record_trace: bool = False,
) -> SimulationResult:
    """Convenience wrapper: run BFW (or a given protocol) with the fast engine.

    Examples
    --------
    >>> from repro.graphs import path_graph
    >>> result = run_bfw(path_graph(16), rng=7)
    >>> result.converged
    True
    >>> result.final_leader_count
    1
    """
    from repro.core.bfw import BFWProtocol

    engine = VectorizedEngine(topology, protocol or BFWProtocol())
    return engine.run(max_rounds=max_rounds, rng=rng, record_trace=record_trace)
