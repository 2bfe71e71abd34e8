"""Batched execution of the Table-1 memory baselines.

:class:`~repro.batch.engine.BatchedEngine` amortises the Python round loop
across all replicas of a constant-state protocol; this module does the same
for the memory baselines (ID broadcast, the Emek–Keren-style epoch knockout,
the Gilbert–Newport clique knockout), whose reference implementation
(:func:`~repro.beeping.simulator.run_memory_reference`) pays a Python call
per *node* per round.  Each baseline's per-node memory is re-expressed as a
set of ``(R, n)`` (and, for identifier bits, ``(R, n, L)``) numpy arrays,
and one :class:`BatchedMemoryEngine` round advances every replica of the
batch with a handful of array operations.  Single-seed runs use the same
round: :class:`~repro.beeping.simulator.MemorySimulator` runs a baseline
with a batch state as a one-replica batch.

Exact parity with the per-node reference loop is the design constraint, and
it pins down the randomness discipline:

* the reference loop seeds one generator per run and consumes it in node
  order — unconditionally at memory creation, and *conditionally* during
  updates (the baselines draw their next coin behind a short-circuiting
  ``candidate and rng.random() < p``, so eliminated nodes stop consuming
  randomness).  The batch therefore draws per replica per round exactly the
  uniforms the surviving candidates of that replica would have drawn, in node
  order (:func:`draw_uniform_where`); a ``Generator.random(k)`` call yields
  the same doubles as ``k`` scalar ``random()`` calls, so the streams match
  bit for bit.
* convergence bookkeeping is the shared
  :class:`~repro.batch.ledger._ReplicaLedger`'s, set to mirror the
  reference loop: a ``stability_window``-round single-leader streak
  (default two) checked from round 1 on, the convergence round resetting
  whenever the candidate count leaves one.  A replica that trips it, or
  whose nodes have all terminated, is *retired in place*: it drops out of
  the active row index and stops consuming randomness and work.

Replica ``r`` of a batch seeded with ``seeds[r]`` is therefore identical,
field for field, to ``run_memory_reference(topology, protocol,
rng=seeds[r])``.  The shared harness in ``tests/batch/parity_harness.py``
checks this engine and ``MemorySimulator`` against the reference, each on
its own, for every supported baseline on paths, cycles and random graphs.

Supporting a new baseline means registering a :class:`MemoryBatchState`
compiler for its protocol type with :func:`register_memory_batch_compiler`;
protocols without one run the reference loop in ``MemorySimulator``, and
they (like standalone runners such as the pipelined-IDs election) keep the
per-seed fallback path in
:class:`~repro.experiments.montecarlo.MonteCarloRunner`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Sequence, Type, Union

import numpy as np

from repro.baselines.emek_keren import EmekKerenStyleElection
from repro.baselines.gilbert_newport import GilbertNewportKnockout
from repro.baselines.id_broadcast import IDBroadcastElection
from repro.batch.engine import hear_adjacency, hear_mask
from repro.batch.ledger import _ReplicaLedger
from repro.batch.observers import BatchObserver
from repro.batch.results import BatchResult
from repro.batch.streams import ReplicaStreams, SeedLike
from repro.core.protocol import MemoryProtocol
from repro.errors import ConfigurationError
from repro.graphs.topology import Topology


def draw_uniform_where(
    streams: ReplicaStreams, rows: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Per-replica conditional uniforms, consumed in node order.

    ``mask[i]`` marks the nodes of replica ``rows[i]`` that draw this round.
    Row ``i`` consumes exactly ``mask[i].sum()`` doubles from its own stream —
    the same count, order and values as the sequential simulator's
    short-circuited per-node ``rng.random()`` calls.  Positions that drew
    nothing hold 1.0, so ``draws < p`` is ``False`` there for any valid ``p``.
    """
    out = np.ones(mask.shape, dtype=np.float64)
    for i, row in enumerate(rows):
        node_mask = mask[i]
        count = int(node_mask.sum())
        if count:
            out[i, node_mask] = streams.generator(int(row)).random(count)
    return out


class MemoryBatchState(abc.ABC):
    """Vectorised batch state of one memory-baseline family.

    An instance owns the full ``(R, n)`` state arrays of a batch and exposes
    the per-round operations on an arbitrary subset of replicas (``rows`` is
    the array of *global* replica indices still active, which is also how the
    per-replica streams are addressed).  Implementations must consume
    randomness exactly as ``n`` sequential ``create_memory`` /
    ``update`` calls of the underlying protocol would.
    """

    @abc.abstractmethod
    def initialise(
        self, num_replicas: int, n: int, streams: ReplicaStreams
    ) -> None:
        """Create the initial memories of every replica (consuming init draws)."""

    @abc.abstractmethod
    def beep_mask(self, round_index: int, rows: np.ndarray) -> np.ndarray:
        """``wants_to_beep`` of every node of the given replicas; ``(len(rows), n)``."""

    @abc.abstractmethod
    def update(
        self,
        heard: np.ndarray,
        round_index: int,
        rows: np.ndarray,
        streams: ReplicaStreams,
    ) -> None:
        """Apply one synchronous memory update to the given replicas."""

    @abc.abstractmethod
    def leader_mask(self, rows: np.ndarray) -> np.ndarray:
        """``is_leader`` of every node of the given replicas; ``(len(rows), n)``."""

    def terminated_rows(self, rows: np.ndarray) -> np.ndarray:
        """Replicas whose every node reports termination; ``(len(rows),)``.

        Baselines without termination detection never terminate.
        """
        return np.zeros(len(rows), dtype=bool)


class _GilbertNewportBatch(MemoryBatchState):
    """Batch state of the clique knockout: candidacy plus the pre-drawn coin."""

    def __init__(self, protocol: GilbertNewportKnockout, topology: Topology) -> None:
        self._p = protocol.beep_probability

    def initialise(self, num_replicas: int, n: int, streams: ReplicaStreams) -> None:
        self._candidate = np.ones((num_replicas, n), dtype=bool)
        draws = np.empty((num_replicas, n), dtype=np.float64)
        for row in range(num_replicas):
            draws[row] = streams.generator(row).random(n)
        self._beep_now = draws < self._p

    def beep_mask(self, round_index: int, rows: np.ndarray) -> np.ndarray:
        return self._candidate[rows] & self._beep_now[rows]

    def update(
        self,
        heard: np.ndarray,
        round_index: int,
        rows: np.ndarray,
        streams: ReplicaStreams,
    ) -> None:
        candidate = self._candidate[rows]
        # A candidate that listened while somebody beeped withdraws.
        candidate &= self._beep_now[rows] | ~heard
        draws = draw_uniform_where(streams, rows, candidate)
        self._candidate[rows] = candidate
        self._beep_now[rows] = candidate & (draws < self._p)

    def leader_mask(self, rows: np.ndarray) -> np.ndarray:
        return self._candidate[rows]


class _EmekKerenBatch(MemoryBatchState):
    """Batch state of the epoch knockout: per-epoch wave flags and the coin."""

    def __init__(self, protocol: EmekKerenStyleElection, topology: Topology) -> None:
        self._p = protocol.beep_probability
        self._clock = protocol.clock

    def initialise(self, num_replicas: int, n: int, streams: ReplicaStreams) -> None:
        shape = (num_replicas, n)
        self._candidate = np.ones(shape, dtype=bool)
        self._initiated = np.zeros(shape, dtype=bool)
        self._relay_next = np.zeros(shape, dtype=bool)
        self._relayed = np.zeros(shape, dtype=bool)
        self._heard_epoch = np.zeros(shape, dtype=bool)
        draws = np.empty(shape, dtype=np.float64)
        for row in range(num_replicas):
            draws[row] = streams.generator(row).random(n)
        self._beep_start = draws < self._p

    def beep_mask(self, round_index: int, rows: np.ndarray) -> np.ndarray:
        if self._clock.is_phase_start(round_index):
            return self._candidate[rows] & self._beep_start[rows]
        return self._relay_next[rows].copy()

    def update(
        self,
        heard: np.ndarray,
        round_index: int,
        rows: np.ndarray,
        streams: ReplicaStreams,
    ) -> None:
        candidate = self._candidate[rows]
        relayed = self._relayed[rows]
        heard_epoch = self._heard_epoch[rows]
        if self._clock.is_phase_start(round_index):
            # The epoch's first round was just played: an initiating candidate
            # counts as having relayed, and the per-epoch flags reset.
            initiated = candidate & self._beep_start[rows]
            relayed = initiated.copy()
            heard_epoch = np.zeros_like(heard)
        else:
            initiated = self._initiated[rows]
            # A relay scheduled last round was just emitted.
            relayed = relayed | self._relay_next[rows]
        heard_epoch = heard_epoch | heard
        if self._clock.is_phase_end(round_index):
            relay_next = np.zeros_like(heard)
            candidate = candidate & ~(~initiated & heard_epoch)
            # Draw the next epoch's coin — surviving candidates only, matching
            # the sequential `candidate and rng.random() < p` short-circuit.
            draws = draw_uniform_where(streams, rows, candidate)
            self._beep_start[rows] = candidate & (draws < self._p)
        else:
            # Relay the first beep heard this epoch exactly once.
            relay_next = heard & ~relayed
        self._candidate[rows] = candidate
        self._initiated[rows] = initiated
        self._relay_next[rows] = relay_next
        self._relayed[rows] = relayed
        self._heard_epoch[rows] = heard_epoch

    def leader_mask(self, rows: np.ndarray) -> np.ndarray:
        return self._candidate[rows]


class _IDBroadcastBatch(MemoryBatchState):
    """Batch state of the bit-by-bit broadcast: ``(R, n, L)`` identifier bits.

    Every node of a replica terminates in the same round (the end of the
    last phase), and the engine retires a replica in the round it
    terminates, so no terminated row ever reaches :meth:`beep_mask` or
    :meth:`update` — termination is one flag per replica.
    """

    def __init__(self, protocol: IDBroadcastElection, topology: Topology) -> None:
        self._clock = protocol.clock
        self._num_bits = protocol.id_bit_length
        self._mode = protocol.id_mode
        self._id_high = max(2, protocol.declared_n ** 3)

    def initialise(self, num_replicas: int, n: int, streams: ReplicaStreams) -> None:
        if self._mode == "unique":
            identifiers = np.broadcast_to(
                np.arange(1, n + 1, dtype=np.int64), (num_replicas, n)
            )
        else:
            identifiers = np.empty((num_replicas, n), dtype=np.int64)
            for row in range(num_replicas):
                identifiers[row] = streams.generator(row).integers(
                    1, self._id_high, size=n
                )
        shifts = np.arange(self._num_bits - 1, -1, -1)
        self._bits = ((identifiers[:, :, None] >> shifts) & 1).astype(bool)
        shape = (num_replicas, n)
        self._candidate = np.ones(shape, dtype=bool)
        self._relay_next = np.zeros(shape, dtype=bool)
        self._relayed = np.zeros(shape, dtype=bool)
        self._heard_phase = np.zeros(shape, dtype=bool)
        self._terminated = np.zeros(num_replicas, dtype=bool)

    def beep_mask(self, round_index: int, rows: np.ndarray) -> np.ndarray:
        if self._clock.is_phase_start(round_index):
            phase = self._clock.phase_of(round_index)
            return self._candidate[rows] & self._bits[rows, :, phase]
        return self._relay_next[rows]

    def update(
        self,
        heard: np.ndarray,
        round_index: int,
        rows: np.ndarray,
        streams: ReplicaStreams,
    ) -> None:
        phase = self._clock.phase_of(round_index)
        candidate = self._candidate[rows]
        bit = self._bits[rows, :, phase]
        if self._clock.is_phase_start(round_index):
            relayed = candidate & bit
            heard_phase = heard
        else:
            relayed = self._relayed[rows] | self._relay_next[rows]
            heard_phase = self._heard_phase[rows] | heard
        if self._clock.is_phase_end(round_index):
            relay_next = np.zeros_like(heard)
            # A 0-bit candidate that heard a wave this phase has lost.
            self._candidate[rows] = candidate & ~(~bit & heard_phase)
            if phase == self._num_bits - 1:
                self._terminated[rows] = True
        else:
            relay_next = heard & ~relayed
        self._relay_next[rows] = relay_next
        self._relayed[rows] = relayed
        self._heard_phase[rows] = heard_phase

    def leader_mask(self, rows: np.ndarray) -> np.ndarray:
        return self._candidate[rows]

    def terminated_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._terminated[rows]


#: Compilers mapping a memory-protocol type to its batch-state factory.
MemoryBatchCompiler = Callable[[MemoryProtocol, Topology], MemoryBatchState]

_MEMORY_BATCH_COMPILERS: Dict[Type[MemoryProtocol], MemoryBatchCompiler] = {
    GilbertNewportKnockout: _GilbertNewportBatch,
    EmekKerenStyleElection: _EmekKerenBatch,
    IDBroadcastElection: _IDBroadcastBatch,
}


def register_memory_batch_compiler(
    protocol_type: Type[MemoryProtocol], compiler: MemoryBatchCompiler
) -> None:
    """Register a batch-state compiler for a memory-protocol type."""
    _MEMORY_BATCH_COMPILERS[protocol_type] = compiler


def _find_compiler(protocol: object) -> Optional[MemoryBatchCompiler]:
    for cls in type(protocol).__mro__:
        compiler = _MEMORY_BATCH_COMPILERS.get(cls)
        if compiler is not None:
            return compiler
    return None


def supports_batched_memory(protocol: object) -> bool:
    """Whether ``protocol`` has a registered vectorised batch implementation."""
    return isinstance(protocol, MemoryProtocol) and _find_compiler(protocol) is not None


class BatchedMemoryEngine:
    """Simulate ``R`` independent replicas of a memory baseline at once.

    Parameters
    ----------
    topology:
        The communication graph shared by every replica.
    protocol:
        A memory protocol with a registered batch compiler (see
        :func:`supports_batched_memory`).
    """

    def __init__(self, topology: Topology, protocol: MemoryProtocol) -> None:
        self._topology = topology
        self._protocol = protocol
        self._compiler = _find_compiler(protocol)
        if self._compiler is None:
            raise ConfigurationError(
                f"memory protocol {getattr(protocol, 'name', protocol)!r} has "
                "no registered batch implementation"
            )
        # Same dense/CSR crossover and hear-mask product as BatchedEngine.
        self._hear_adjacency = hear_adjacency(topology.sparse_adjacency())

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def protocol(self) -> MemoryProtocol:
        """The protocol being simulated."""
        return self._protocol

    def run(
        self,
        seeds: Union[Sequence[SeedLike], ReplicaStreams],
        max_rounds: Optional[int] = None,
        record_leader_counts: bool = True,
        stop_at_single_leader: bool = True,
        stability_window: int = 2,
        observers: Sequence[BatchObserver] = (),
    ) -> BatchResult:
        """Advance all replicas until they stop or exhaust the round budget.

        The parameters and per-replica semantics are those of
        :meth:`repro.beeping.simulator.MemorySimulator.run`: a replica stops
        once every node reports termination, or (with
        ``stop_at_single_leader``) once a single candidate has persisted for
        ``stability_window`` consecutive rounds.  Unlike the constant-state
        batch engine, no randomness is prefetched — each replica's generator
        is left in exactly the state its standalone run would leave it in.

        ``observers`` receive the shared
        :class:`~repro.batch.observers.BatchObserver` hooks with
        ``states=None`` and ``beeping=None`` (memory protocols have no
        state classes); the per-round ``(R, n)`` leader mask and the retire
        machinery work exactly as on the constant-state engine.
        """
        return self._run(
            seeds,
            max_rounds,
            record_leader_counts,
            stop_at_single_leader,
            stability_window,
            observers,
            engine="batched-memory",
        )

    def _run(
        self,
        seeds: Union[Sequence[SeedLike], ReplicaStreams],
        max_rounds: Optional[int],
        record_leader_counts: bool,
        stop_at_single_leader: bool,
        stability_window: int,
        observers: Sequence[BatchObserver],
        engine: str,
    ) -> BatchResult:
        """:meth:`run`, with ``engine`` labelling telemetry.

        :class:`~repro.beeping.simulator.MemorySimulator` runs its one seed
        through here, so its heartbeats and metrics keep the ``"memory"``
        label while the round loop is this one.
        """
        ledger = _ReplicaLedger(
            engine,
            self._topology,
            self._protocol.name,
            seeds,
            max_rounds,
            record=record_leader_counts,
            stop=stop_at_single_leader,
            window=max(1, stability_window),
            retire_at_start=False,
        )
        streams, num_replicas = ledger.streams, ledger.num_replicas
        state = self._compiler(self._protocol, self._topology)
        state.initialise(num_replicas, self._topology.n, streams)

        all_rows = np.arange(num_replicas)
        leaders = state.leader_mask(all_rows)
        active = ledger.start(leaders.sum(axis=1), observers, (None, None, leaders))

        round_index = 0
        while round_index < ledger.max_rounds and active.size:
            # Who hears a beep: one stacked product for the batch.
            beeping = state.beep_mask(round_index, active).T
            columns = np.ascontiguousarray(beeping, dtype=np.float32)
            heard = hear_mask(columns, self._hear_adjacency).T
            state.update(heard, round_index, active, streams)
            round_index += 1

            observed = None
            if ledger.pipeline is not None:
                leaders = state.leader_mask(all_rows)
                active_counts = leaders[active].sum(axis=1)
                observed = (None, None, leaders)
            else:
                active_counts = state.leader_mask(active).sum(axis=1)
            retire = ledger.close_round(
                round_index,
                active,
                active_counts,
                finished=state.terminated_rows(active),
                observed=observed,
            )
            if retire is not None:
                active = active[~retire]

        return ledger.finish(round_index, active, state.leader_mask(all_rows))
