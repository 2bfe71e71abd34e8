"""Streaming reducers: the trace analysis reductions as online observers.

Every reduction in :mod:`repro.analysis` that consumes a whole recorded
trace has a streaming form here — a
:class:`~repro.batch.observers.BatchObserver` that folds the same quantity
into an ``O(R · n)`` accumulator *while the engine runs*, so sweeps at
scales where the ``(T + 1, R, n)`` history cannot be materialised still get
their analysis results.  A recorded :class:`~repro.batch.trace.BatchTrace`
is analysed the same way, by :meth:`~repro.batch.trace.BatchTrace.replay`:

==========================  =====================================================
observer kind               equals, for every ``replica = trace.replica(r)``
==========================  =====================================================
``streaming-first-beep``    :func:`repro.analysis.first_beep_round`
``streaming-wave-fronts``   :func:`repro.analysis.wave_fronts`
``streaming-invariants``    the violation round of each ``check_*`` of Lemma 9
``streaming-beep-totals``   ``beep_count_matrix(replica)[-1]``
``streaming-convergence``   :func:`repro.analysis.summarize_trace`
==========================  =====================================================

The ``check_*`` functions are ``check_leader_always_exists``,
``check_leader_count_nonincreasing`` and ``check_max_beep_count_is_leader``;
``streaming-beep-totals`` builds the engines' own
:class:`~repro.batch.observers.BatchBeepCountTracker`.

The equality is exact (bit-equal, enforced by the telemetry parity suite on
every backend): the engines report round ``t`` to observers *before* retiring
replicas for ``t``, so "replica active at ``on_round(t)``" coincides with
"row ``t`` inside ``BatchTrace.valid_mask()``", and accumulating over active
rows reproduces each replica's own trace row for row.

All reducers register themselves as :class:`ObserverSpec` kinds on import;
:mod:`repro.batch.observers` imports this module lazily the first time an
unknown ``streaming-*`` kind is looked up, so cells carrying these specs
build correctly inside spawn workers that never imported the telemetry
package explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.convergence import ConvergenceSummary
from repro.analysis.waves import WaveFront
from repro.batch.observers import (
    BatchBeepCountTracker,
    BatchObserver,
    BatchRunInfo,
    register_observer_kind,
)
from repro.errors import ConfigurationError, InvariantViolation, SimulationError

__all__ = [
    "StreamingConvergence",
    "StreamingFirstBeep",
    "StreamingInvariantChecker",
    "StreamingInvariantSummary",
    "StreamingWaveFronts",
]


def _require_constant_state(beeping: Optional[np.ndarray], what: str) -> np.ndarray:
    if beeping is None:
        raise ConfigurationError(
            f"{what} requires a constant-state protocol; memory engines "
            "report no beeping classification"
        )
    return beeping


class StreamingFirstBeep(BatchObserver):
    """Online ``first_beep_round``: first beep round per replica and node.

    Keeps one ``(R, n)`` array; a node's entry is set the first round it
    beeps while its replica is active, which is exactly the first beep in
    that replica's own trace (frozen rows repeat a row already inside the
    valid range, so they can never be first).
    """

    def __init__(self) -> None:
        self._firsts: Optional[np.ndarray] = None
        self._unseen = 0

    def on_start(self, info: BatchRunInfo) -> None:
        self._firsts = np.full((info.num_replicas, info.n), -1, dtype=np.int64)
        self._unseen = info.num_replicas * info.n

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._firsts is None:
            raise SimulationError("StreamingFirstBeep.on_round before on_start")
        if not self._unseen:
            # Every (replica, node) entry is set; later rounds cannot be first.
            return
        beeping = _require_constant_state(beeping, "first-beep streaming")
        active = np.asarray(active_mask, dtype=bool)
        unseen = (self._firsts == -1) & beeping
        unseen &= active[:, None]
        hits = int(np.count_nonzero(unseen))
        if hits:
            self._firsts[unseen] = round_index
            self._unseen -= hits

    def result(self) -> np.ndarray:
        if self._firsts is None:
            raise SimulationError("no rounds observed yet")
        return self._firsts.copy()

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> np.ndarray:
        return np.vstack([np.asarray(result) for result in results])


class StreamingWaveFronts(BatchObserver):
    """Online ``wave_fronts``: per-round beeping fronts, per replica.

    The front *sequence* is the result, so memory is proportional to the
    output (one tuple of node indices per executed round and replica) — but
    never to the ``(T + 1, R, n)`` state history.
    """

    def __init__(self) -> None:
        self._fronts: Optional[List[List[WaveFront]]] = None

    def on_start(self, info: BatchRunInfo) -> None:
        self._fronts = [[] for _ in range(info.num_replicas)]

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._fronts is None:
            raise SimulationError("StreamingWaveFronts.on_round before on_start")
        beeping = _require_constant_state(beeping, "wave-front streaming")
        active = np.asarray(active_mask, dtype=bool)
        for replica in np.flatnonzero(active):
            self._fronts[replica].append(
                WaveFront(
                    round_index=round_index,
                    nodes=tuple(
                        int(node) for node in np.flatnonzero(beeping[replica])
                    ),
                )
            )

    def result(self) -> Tuple[Tuple[WaveFront, ...], ...]:
        if self._fronts is None:
            raise SimulationError("no rounds observed yet")
        return tuple(tuple(fronts) for fronts in self._fronts)

    @classmethod
    def merge_results(
        cls, results: Sequence[object]
    ) -> Tuple[Tuple[WaveFront, ...], ...]:
        """Concatenate per-run front sequences (any replica counts).

        One entry per replica on the sequential backend's merge path, one
        per shard on the sharded backends' — flattened in replica order.
        """
        merged: List[Tuple[WaveFront, ...]] = []
        for result in results:
            for fronts in tuple(result):  # type: ignore[arg-type]
                merged.append(tuple(fronts))
        return tuple(merged)


@dataclass(frozen=True, eq=False)
class StreamingInvariantSummary:
    """Per-replica first violations of the three Lemma 9 invariant checks.

    ``-1`` everywhere means the corresponding invariant held for the whole
    run; otherwise the entry is the first violating round — the round the
    single-trace ``check_*`` function reports on that replica's own trace.
    The ``raise_if_*`` methods report the earliest violating round over all
    replicas (the lowest replica index on ties).

    Attributes
    ----------
    first_leaderless_round:
        ``(R,)`` first round with zero leaders (Lemma 9).
    first_increase_round:
        ``(R,)`` first round ``t`` whose leader count exceeds round
        ``t - 1``'s (the non-increasing invariant); ``first_increase_from``
        / ``first_increase_to`` hold the two counts involved.
    first_max_beep_violation_round:
        ``(R,)`` first round where no leader holds a maximal cumulative
        beep count (Lemma 9's proof invariant).
    rounds_observed:
        ``(R,)`` rounds each replica executed.
    """

    first_leaderless_round: np.ndarray
    first_increase_round: np.ndarray
    first_increase_from: np.ndarray
    first_increase_to: np.ndarray
    first_max_beep_violation_round: np.ndarray
    rounds_observed: np.ndarray

    @property
    def num_replicas(self) -> int:
        """Number of replicas covered by the summary."""
        return int(self.first_leaderless_round.shape[0])

    @property
    def ok(self) -> bool:
        """Whether every invariant held on every replica."""
        return (
            bool((self.first_leaderless_round == -1).all())
            and bool((self.first_increase_round == -1).all())
            and bool((self.first_max_beep_violation_round == -1).all())
        )

    @staticmethod
    def _first(rounds: np.ndarray) -> Optional[Tuple[int, int]]:
        """Row-major first ``(round, replica)`` among per-replica firsts."""
        hit = rounds >= 0
        if not hit.any():
            return None
        best_round = int(rounds[hit].min())
        replica = int(np.flatnonzero(hit & (rounds == best_round))[0])
        return best_round, replica

    def raise_if_leaderless(self) -> None:
        """Raise on the earliest leaderless round (Lemma 9), naming the replica."""
        first = self._first(self.first_leaderless_round)
        if first is not None:
            round_index, replica = first
            raise InvariantViolation(
                f"Lemma 9 violated: no leader in round {round_index} of "
                f"replica {replica}"
            )

    def raise_if_increase(self) -> None:
        """Raise on the earliest leader-count increase, naming the replica."""
        first = self._first(self.first_increase_round)
        if first is not None:
            round_index, replica = first
            raise InvariantViolation(
                f"leader count increased from "
                f"{int(self.first_increase_from[replica])} to "
                f"{int(self.first_increase_to[replica])} between rounds "
                f"{round_index - 1} and {round_index} of replica {replica}"
            )

    def raise_if_max_beep_violation(self) -> None:
        """Raise on the earliest round where no leader has a maximal beep
        count (Lemma 9's proof invariant), naming the replica."""
        first = self._first(self.first_max_beep_violation_round)
        if first is not None:
            round_index, replica = first
            raise InvariantViolation(
                f"proof invariant of Lemma 9 violated at round {round_index} "
                f"of replica {replica}: no leader has the maximal beep count"
            )

    def raise_if_violated(self) -> None:
        """Run the three checks in the order above, raising on the first."""
        self.raise_if_leaderless()
        self.raise_if_increase()
        self.raise_if_max_beep_violation()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingInvariantSummary):
            return NotImplemented
        return all(
            bool(np.array_equal(getattr(self, f.name), getattr(other, f.name)))
            for f in fields(self)
        )

    def __hash__(self) -> int:
        return id(self)


class StreamingInvariantChecker(BatchObserver):
    """Online form of the three Lemma 9 invariant checks, without the trace.

    Folds Lemma 9 (a leader always exists), the non-increasing leader count
    and Lemma 9's proof invariant (some maximal-beep-count node is a leader)
    into ``O(R · n)`` state: the running cumulative beep counts plus a few
    ``(R,)`` first-violation arrays.
    """

    def __init__(self) -> None:
        self._summary_arrays: Optional[Tuple[np.ndarray, ...]] = None
        self._prev_counts: Optional[np.ndarray] = None
        self._beep_counts: Optional[np.ndarray] = None
        self._rounds: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        num_replicas = info.num_replicas
        self._summary_arrays = (
            np.full(num_replicas, -1, dtype=np.int64),  # first leaderless
            np.full(num_replicas, -1, dtype=np.int64),  # first increase round
            np.full(num_replicas, -1, dtype=np.int64),  # increase: from
            np.full(num_replicas, -1, dtype=np.int64),  # increase: to
            np.full(num_replicas, -1, dtype=np.int64),  # first max-beep violation
        )
        self._prev_counts = None
        # int32 keeps the per-round max/eq passes half as wide; the counts
        # only feed comparisons, so the dtype never reaches a result.
        self._beep_counts = np.zeros((num_replicas, info.n), dtype=np.int32)
        self._rounds = None

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._summary_arrays is None or self._beep_counts is None:
            raise SimulationError(
                "StreamingInvariantChecker.on_round before on_start"
            )
        beeping = _require_constant_state(beeping, "invariant streaming")
        leaderless, increase, inc_from, inc_to, max_beep = self._summary_arrays
        counts = leaders.sum(axis=1, dtype=np.int64)
        active = np.asarray(active_mask, dtype=bool)

        fresh = active & (counts == 0) & (leaderless == -1)
        leaderless[fresh] = round_index

        if self._prev_counts is not None:
            grew = active & (counts > self._prev_counts) & (increase == -1)
            increase[grew] = round_index
            inc_from[grew] = self._prev_counts[grew]
            inc_to[grew] = counts[grew]
            np.copyto(self._prev_counts, counts, where=active)
        else:
            self._prev_counts = counts.copy()

        if active.all():
            # Fast path: `where=` ufunc loops are buffered and measurably
            # slower than plain in-place adds on the all-active common case.
            self._beep_counts += beeping
        else:
            np.add(
                self._beep_counts,
                beeping,
                out=self._beep_counts,
                where=active[:, None],
            )
        maximal = self._beep_counts == self._beep_counts.max(axis=1, keepdims=True)
        maximal &= leaders
        bad = active & ~maximal.any(axis=1) & (max_beep == -1)
        max_beep[bad] = round_index

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        self._rounds = np.asarray(rounds_executed, dtype=np.int64).copy()

    def summary(self) -> StreamingInvariantSummary:
        """The per-replica invariant summary (valid once rounds were seen)."""
        if self._summary_arrays is None:
            raise SimulationError("no rounds observed yet")
        leaderless, increase, inc_from, inc_to, max_beep = self._summary_arrays
        rounds = self._rounds
        if rounds is None:
            rounds = np.zeros(leaderless.shape[0], dtype=np.int64)
        return StreamingInvariantSummary(
            first_leaderless_round=leaderless.copy(),
            first_increase_round=increase.copy(),
            first_increase_from=inc_from.copy(),
            first_increase_to=inc_to.copy(),
            first_max_beep_violation_round=max_beep.copy(),
            rounds_observed=rounds.copy(),
        )

    def result(self) -> StreamingInvariantSummary:
        return self.summary()

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> StreamingInvariantSummary:
        summaries: List[StreamingInvariantSummary] = []
        for result in results:
            if not isinstance(result, StreamingInvariantSummary):
                raise ConfigurationError(
                    "StreamingInvariantChecker.merge_results expects "
                    "StreamingInvariantSummary values"
                )
            summaries.append(result)
        if not summaries:
            raise ConfigurationError("cannot merge 0 invariant summaries")
        return StreamingInvariantSummary(
            **{
                f.name: np.concatenate([getattr(s, f.name) for s in summaries])
                for f in fields(StreamingInvariantSummary)
            }
        )


class StreamingConvergence(BatchObserver):
    """Online ``summarize_trace``: one :class:`ConvergenceSummary` per replica.

    Tracks the round-0 leader count, the last live non-single-leader round,
    the final leader count and the final leader row — everything the
    summary derives from a replica's leader counts — in ``O(R · n)`` state.
    """

    def __init__(self) -> None:
        self._initial: Optional[np.ndarray] = None
        self._last_not_single: Optional[np.ndarray] = None
        self._final_counts: Optional[np.ndarray] = None
        self._final_leaders: Optional[np.ndarray] = None
        self._rounds: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        self._initial = None
        self._last_not_single = np.full(info.num_replicas, -1, dtype=np.int64)
        self._final_counts = np.zeros(info.num_replicas, dtype=np.int64)
        self._final_leaders = np.zeros((info.num_replicas, info.n), dtype=bool)
        self._rounds = None

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._last_not_single is None:
            raise SimulationError("StreamingConvergence.on_round before on_start")
        counts = leaders.sum(axis=1, dtype=np.int64)
        if self._initial is None:
            self._initial = counts.copy()
        active = np.asarray(active_mask, dtype=bool)
        self._last_not_single[active & (counts != 1)] = round_index
        if active.all():
            np.copyto(self._final_counts, counts)
            np.copyto(self._final_leaders, leaders)
        else:
            np.copyto(self._final_counts, counts, where=active)
            np.copyto(self._final_leaders, leaders, where=active[:, None])

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        self._rounds = np.asarray(rounds_executed, dtype=np.int64).copy()

    def result(self) -> Tuple[ConvergenceSummary, ...]:
        if self._initial is None or self._last_not_single is None:
            raise SimulationError("no rounds observed yet")
        rounds = self._rounds
        if rounds is None:
            rounds = np.zeros(self._initial.shape[0], dtype=np.int64)
        summaries = []
        for replica in range(self._initial.shape[0]):
            converged = int(self._final_counts[replica]) == 1
            winner: Optional[int] = None
            if converged:
                elected = np.flatnonzero(self._final_leaders[replica])
                winner = int(elected[0]) if len(elected) == 1 else None
            summaries.append(
                ConvergenceSummary(
                    converged=converged,
                    convergence_round=(
                        int(self._last_not_single[replica]) + 1
                        if converged
                        else None
                    ),
                    winner=winner,
                    rounds_executed=int(rounds[replica]),
                    initial_leader_count=int(self._initial[replica]),
                    final_leader_count=int(self._final_counts[replica]),
                )
            )
        return tuple(summaries)

    @classmethod
    def merge_results(
        cls, results: Sequence[object]
    ) -> Tuple[ConvergenceSummary, ...]:
        """Concatenate per-run summary tuples (any replica counts).

        One summary per replica on the sequential backend's merge path, a
        whole shard's worth on the sharded backends' — replica order either
        way.
        """
        merged: List[ConvergenceSummary] = []
        for result in results:
            merged.extend(tuple(result))  # type: ignore[arg-type]
        return tuple(merged)


#: Spec kind -> factory for every streaming reducer of this module.
STREAMING_KINDS = {
    "streaming-first-beep": StreamingFirstBeep,
    "streaming-wave-fronts": StreamingWaveFronts,
    "streaming-invariants": StreamingInvariantChecker,
    "streaming-beep-totals": BatchBeepCountTracker,
    "streaming-convergence": StreamingConvergence,
}

for _kind, _factory in STREAMING_KINDS.items():
    register_observer_kind(_kind, _factory)
