"""Batched execution traces: the state history of all replicas at once.

A :class:`BatchTrace` is the ``(R, n)``-shaped sibling of
:class:`~repro.beeping.trace.ExecutionTrace`: one ``(T + 1, R, n)`` integer
array holds the per-round configurations of every replica of a batch, next
to the per-replica number of executed rounds.  Replicas retire at different
rounds, so rows past a replica's last executed round hold its *frozen* final
configuration — exactly what the batched engines keep in their state array.
That convention makes :meth:`BatchTrace.replica` exact: slicing replica
``r``'s first ``rounds_executed[r] + 1`` rows reproduces the standalone
single-run trace byte for byte (the parity harness enforces this), while
:meth:`BatchTrace.replay` feeds the full array, row by row, to any batch
observer — the streaming reducers of :mod:`repro.telemetry.reducers` then
analyse a recorded batch exactly as they would have analysed the live run.

Traces recorded replica by replica (the sequential execution backend) are
merged back into the same representation by :meth:`BatchTrace.from_traces`,
which pads shorter replicas with their final row — bit-identical to what the
batched recorder produces, so observed cells yield byte-identical
observations on every :mod:`repro.exec` backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover
    # Runtime imports happen inside the methods: importing the beeping
    # package here would re-enter it while its observers module is loading
    # this package's observer layer (beeping.observers -> batch.observers ->
    # batch.trace must therefore stay free of module-level beeping imports,
    # and of batch.observers, which imports this module).
    from repro.batch.observers import BatchObserver
    from repro.beeping.trace import ExecutionTrace


@dataclass(frozen=True, eq=False)
class BatchTrace:
    """Complete state history of a batch of finite-state executions.

    Attributes
    ----------
    states:
        Integer array of shape ``(T + 1, R, n)``; ``states[t, r, u]`` is the
        state value of node ``u`` of replica ``r`` in round ``t``.  For
        rounds past ``rounds_executed[r]`` the row repeats replica ``r``'s
        final configuration (the replica is retired and frozen).
    rounds_executed:
        Integer array of shape ``(R,)``; replica ``r`` executed rounds
        ``1 .. rounds_executed[r]`` (round 0 is the initial configuration).
    beeping_values, leader_values:
        The state values classified as beeping / leader.
    protocol_name, topology_name:
        Provenance metadata shared by every replica.
    seeds:
        Per-replica integer seeds where known, ``None`` otherwise.
    """

    states: np.ndarray
    rounds_executed: np.ndarray
    beeping_values: Tuple[int, ...]
    leader_values: Tuple[int, ...]
    protocol_name: str = ""
    topology_name: str = ""
    seeds: Tuple[Optional[int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "states", np.asarray(self.states, dtype=np.int8)
        )
        object.__setattr__(
            self,
            "rounds_executed",
            np.asarray(self.rounds_executed, dtype=np.int64),
        )
        if self.states.ndim != 3:
            raise TraceError(
                f"batch trace states must be a 3-D (rounds, replicas, nodes) "
                f"array; got shape {self.states.shape}"
            )
        if self.rounds_executed.shape != (self.states.shape[1],):
            raise TraceError(
                f"rounds_executed has shape {self.rounds_executed.shape}; "
                f"expected ({self.states.shape[1]},)"
            )
        if self.states.shape[0] == 0:
            raise TraceError("a batch trace needs at least the round-0 row")
        if self.rounds_executed.size and (
            (self.rounds_executed < 0).any()
            or (self.rounds_executed > self.num_rounds).any()
        ):
            raise TraceError(
                f"rounds_executed outside recorded range 0..{self.num_rounds}"
            )
        if not self.seeds:
            object.__setattr__(self, "seeds", (None,) * self.num_replicas)
        elif len(self.seeds) != self.num_replicas:
            raise TraceError(
                f"{len(self.seeds)} seeds for {self.num_replicas} replicas"
            )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def num_rounds(self) -> int:
        """Number of recorded transition rounds ``T`` (rows minus round 0)."""
        return self.states.shape[0] - 1

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self.states.shape[1]

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.states.shape[2]

    def valid_mask(self) -> np.ndarray:
        """``(T + 1, R)`` mask of rows a replica actually executed.

        Row ``t`` of replica ``r`` is live for ``t <= rounds_executed[r]``;
        later rows repeat the frozen final configuration.
        """
        rounds = np.arange(self.states.shape[0])[:, None]
        return rounds <= self.rounds_executed[None, :]

    # ------------------------------------------------------------------ #
    # Batch-shaped views and replay
    # ------------------------------------------------------------------ #

    def _membership(self, values: Tuple[int, ...]) -> np.ndarray:
        if not values:
            return np.zeros(self.states.shape, dtype=bool)
        # The first compare writes the mask; the rest reuse one buffer (a
        # fresh temporary per value costs a page-faulting allocation).
        mask = self.states == values[0]
        scratch = np.empty_like(mask)
        for value in values[1:]:
            np.equal(self.states, value, out=scratch)
            mask |= scratch
        return mask

    def beeping_history(self) -> np.ndarray:
        """``(T + 1, R, n)`` boolean array: who beeps in every round."""
        return self._membership(self.beeping_values)

    def leader_history(self) -> np.ndarray:
        """``(T + 1, R, n)`` boolean array: who is a leader in every round."""
        return self._membership(self.leader_values)

    def leader_counts(self) -> np.ndarray:
        """``(T + 1, R)`` leader counts for every round and replica."""
        return self.leader_history().sum(axis=2)

    def replay(self, observer: "BatchObserver") -> object:
        """Drive ``observer`` over the recorded rounds; returns its result.

        The hooks run in the engines' own order, through the same
        :class:`~repro.batch.observers.ObserverPipeline`: row ``t`` is
        reported with ``valid_mask()[t]`` as the active mask, replicas whose
        last row is ``t < T`` are retired after it, and ``on_finish`` gets
        ``rounds_executed``.  On the final row a trace cannot tell a stop
        from an exhausted budget, so nobody is retired there, and retire
        requests are ignored — the recording already fixed every replica's
        length.  ``trace.replay(StreamingFirstBeep())`` thus equals
        ``first_beep_round`` on every ``trace.replica(r)``, in one pass.
        """
        from repro.batch.observers import BatchRunInfo, ObserverPipeline

        pipeline = ObserverPipeline(
            (observer,),
            BatchRunInfo(
                num_replicas=self.num_replicas,
                n=self.n,
                protocol_name=self.protocol_name,
                topology_name=self.topology_name,
                beeping_values=self.beeping_values,
                leader_values=self.leader_values,
                seeds=self.seeds,
            ),
        )
        beeping = self.beeping_history()
        leaders = self.leader_history()
        valid = self.valid_mask()
        last = self.num_rounds
        retiring = {
            int(t): np.flatnonzero(self.rounds_executed == t)
            for t in np.unique(self.rounds_executed[self.rounds_executed < last])
        }
        for t in range(last + 1):
            pipeline.observe_round(
                t, self.states[t], beeping[t], leaders[t], valid[t]
            )
            if t in retiring:
                pipeline.notify_retire(retiring[t], t)
        pipeline.finish(self.rounds_executed.copy())
        return observer.result()

    # ------------------------------------------------------------------ #
    # Per-replica views
    # ------------------------------------------------------------------ #

    def replica(self, index: int) -> "ExecutionTrace":
        """Replica ``index`` as a standalone :class:`ExecutionTrace`.

        Byte-identical to the trace a single sequential run seeded with
        ``seeds[index]`` records (the parity harness enforces this for
        every registered protocol, on static and dynamic schedules).
        """
        from repro.beeping.trace import ExecutionTrace

        if not 0 <= index < self.num_replicas:
            raise TraceError(
                f"replica {index} outside batch of {self.num_replicas}"
            )
        last = int(self.rounds_executed[index])
        return ExecutionTrace(
            states=np.ascontiguousarray(self.states[: last + 1, index, :]),
            beeping_values=self.beeping_values,
            leader_values=self.leader_values,
            protocol_name=self.protocol_name,
            topology_name=self.topology_name,
            seed=self.seeds[index],
        )

    def to_traces(self) -> Tuple["ExecutionTrace", ...]:
        """All replicas as standalone traces, in batch order."""
        return tuple(self.replica(r) for r in range(self.num_replicas))

    # ------------------------------------------------------------------ #
    # Assembly from single runs (the sequential backend's merge path)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_traces(cls, traces: Sequence["ExecutionTrace"]) -> "BatchTrace":
        """Merge per-replica single-run traces into one batch trace.

        Shorter replicas are padded with their final row — the frozen-state
        convention of the batched recorder — so a merge of sequential traces
        is bit-identical to the batched engine's recording under matched
        seeds.  All traces must agree on node count, state-value classes and
        provenance metadata.
        """
        traces = tuple(traces)
        if not traces:
            raise TraceError("cannot merge a batch trace from 0 traces")
        first = traces[0]
        for trace in traces[1:]:
            if trace.n != first.n:
                raise TraceError(
                    f"cannot merge traces with different node counts "
                    f"({first.n} vs {trace.n})"
                )
            if (
                trace.beeping_values != first.beeping_values
                or trace.leader_values != first.leader_values
                or trace.protocol_name != first.protocol_name
                or trace.topology_name != first.topology_name
            ):
                raise TraceError(
                    "cannot merge traces of different protocols or graphs"
                )
        rounds = np.array([trace.num_rounds for trace in traces], dtype=np.int64)
        total = int(rounds.max())
        states = np.empty(
            (total + 1, len(traces), first.n), dtype=np.int8
        )
        for index, trace in enumerate(traces):
            last = trace.num_rounds
            states[: last + 1, index, :] = trace.states
            if last < total:
                states[last + 1 :, index, :] = trace.states[last]
        return cls(
            states=states,
            rounds_executed=rounds,
            beeping_values=first.beeping_values,
            leader_values=first.leader_values,
            protocol_name=first.protocol_name,
            topology_name=first.topology_name,
            seeds=tuple(trace.seed for trace in traces),
        )

    # ------------------------------------------------------------------ #
    # Equality (used by the cross-backend observation parity tests)
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchTrace):
            return NotImplemented
        return (
            self.states.shape == other.states.shape
            and bool(np.array_equal(self.states, other.states))
            and bool(np.array_equal(self.rounds_executed, other.rounds_executed))
            and self.beeping_values == other.beeping_values
            and self.leader_values == other.leader_values
            and self.protocol_name == other.protocol_name
            and self.topology_name == other.topology_name
            and self.seeds == other.seeds
        )

    def __hash__(self) -> int:  # frozen dataclass with eq=False would supply one
        return id(self)
