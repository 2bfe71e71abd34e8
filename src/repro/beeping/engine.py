"""Compiled constant-state protocols and the single-run engine.

The reference :class:`~repro.beeping.simulator.Simulator` applies transition
kernels node by node in Python, which is convenient for auditing but too slow
for the scaling experiments (paths with hundreds of nodes simulated for tens
of thousands of rounds, dozens of seeds).  :func:`compile_protocol` turns a
protocol's transition table into dense numpy lookup arrays, and
:class:`VectorizedEngine` runs one seeded execution over them.

:class:`VectorizedEngine` has no round loop of its own: it is a one-replica
façade over :class:`~repro.batch.engine.BatchedEngine`, so a single run and
replica ``r`` of a batch are the same code.  Compilation supports any
protocol whose states are integer-valued and whose transition rows have at
most two outcomes — which covers BFW, its ablation variants, and any
similar coin-toss protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.batch.observers import (
    BatchBeepCountTracker,
    BatchObserver,
    BatchTraceRecorder,
)
from repro.batch.streams import ReplicaStreams
from repro.beeping.simulator import SimulationResult
from repro.core.protocol import BeepingProtocol
from repro.core.rng import RngLike
from repro.dynamics.schedules import TopologySchedule
from repro.errors import ProtocolError
from repro.graphs.topology import Topology


#: Largest state value :func:`compile_protocol` accepts: compiled tables,
#: final states and traces hold state values as int8.
MAX_STATE_VALUE = 127


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

    The interpreted round loop of :class:`~repro.batch.engine.BatchedEngine`
    does not index these tables by plain state values: it re-keys the flat
    tables by bit-encoded states (``state << 2 | leader << 1 | beeping``,
    see :func:`~repro.batch.engine.encode_protocol`), splitting them into
    one deterministic successor table — with a sentinel where ``p`` lies
    strictly between 0 and 1 — and the coin table read only by the nodes
    whose transition is random.  The fused kernels read the 2-D tables.
    State values are at most :data:`MAX_STATE_VALUE`.
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
        If the protocol's states are not integer-valued, are negative or
        exceed :data:`MAX_STATE_VALUE`, or if some transition row has more
        than two outcomes (such protocols must use the reference simulator
        instead).
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
    if max(values) > MAX_STATE_VALUE:
        raise ProtocolError(
            f"protocol {protocol.name!r} has state value {max(values)}; the "
            f"compiled engines store states as int8, so state values must be "
            f"at most {MAX_STATE_VALUE}"
        )

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

    A one-replica façade over :class:`~repro.batch.engine.BatchedEngine`
    (built once, at construction): every run is a batch of one, reported
    as an ordinary :class:`SimulationResult` and labelled ``"vectorized"``
    in metrics and heartbeats.

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
        # Imported here because repro.batch.engine imports this module.
        from repro.batch.engine import BatchedEngine

        self._batch = BatchedEngine(topology, protocol, schedule=schedule)
        self.last_states: Optional[np.ndarray] = None
        self.last_beep_counts: Optional[np.ndarray] = None

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._batch.topology

    @property
    def protocol(self) -> BeepingProtocol:
        """The protocol being simulated."""
        return self._batch.protocol

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled lookup tables."""
        return self._batch.compiled

    @property
    def schedule(self) -> Optional[TopologySchedule]:
        """The topology schedule, or ``None`` for a static graph."""
        return self._batch.schedule

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

        After the run, :attr:`last_states` holds the final state vector
        (int8) and :attr:`last_beep_counts` the per-node ``N^beep`` counts
        (``None`` unless ``record_beep_counts``).

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to
            :func:`~repro.beeping.simulator.default_round_budget`.
        rng:
            Seed or generator driving all probabilistic transitions.  A
            ``Generator`` is advanced in whole prefetch blocks of uniforms,
            so it may end up past the draws the run used; the results do
            not depend on it (see
            :class:`~repro.batch.streams.ReplicaStreams`).  Pass an integer
            seed when the generator's state after the run matters.
        initial_states:
            Integer state values per node (shape ``(n,)``); defaults to
            every node in the protocol's initial state.
        record_trace:
            Whether to store and return the full state history.
        record_beep_counts:
            Whether to accumulate ``N^beep`` per node.
        stop_at_single_leader:
            Stop as soon as the leader count reaches one.
        observers:
            :class:`~repro.batch.observers.BatchObserver` instances driven
            with one-replica ``(1, n)`` round reports — the same hooks the
            batched engine drives for whole batches.  An observer's retire
            request stops the run like ``stop_at_single_leader`` does.
        """
        attached = list(observers)
        recorder = BatchTraceRecorder() if record_trace else None
        beep_tracker = BatchBeepCountTracker() if record_beep_counts else None
        attached += [obs for obs in (recorder, beep_tracker) if obs is not None]
        batch = self._batch._run(
            ReplicaStreams([rng]),
            max_rounds=max_rounds,
            initial_states=initial_states,
            record_leader_counts=True,
            stop_at_single_leader=stop_at_single_leader,
            observers=attached,
            engine="vectorized",
        )
        self.last_states = batch.final_states[0]
        self.last_beep_counts = (
            beep_tracker.counts[0] if beep_tracker is not None else None
        )
        result = batch.replica(0)
        if recorder is not None:
            result = replace(result, trace=recorder.trace().replica(0))
        return result


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
