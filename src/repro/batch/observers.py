"""The batched observer protocol: one observation layer for every engine.

Every execution layer advances all ``R`` replicas of a cell in ``(R, n)``
arrays, and this module is how callers watch those executions without
modifying the engines: a :class:`BatchObserver` receives array-shaped hooks
once per round, for the whole batch at once.  The same contract is driven by

* :class:`~repro.beeping.engine.VectorizedEngine` (``R = 1``, as a
  one-replica :class:`~repro.batch.engine.BatchedEngine` batch),
* :class:`~repro.batch.engine.BatchedEngine` (constant-state batches),
* :class:`~repro.batch.memory.BatchedMemoryEngine` and
  :class:`~repro.beeping.simulator.MemorySimulator` (memory baselines —
  these pass ``states=None`` and ``beeping=None``, because a memory
  protocol's beeps are intra-round signals rather than state classes),

and the classic single-run :class:`~repro.beeping.observers.Observer`
subclasses are thin ``R = 1`` adapters over the classes below, so the
reference :class:`~repro.beeping.simulator.Simulator` exercises the same
logic snapshot by snapshot.

Hook order per executed round: ``on_round`` (round 0 reports the initial
configuration), then ``should_retire`` exactly once, then ``on_retire`` for
replicas that stopped this round, and finally ``on_finish`` once.  Rows of
retired replicas keep their frozen final configuration, and ``active_mask``
tells an observer which replicas actually executed the reported round.

:class:`ObserverSpec` is the pure-data (picklable) description of an
observer, mirroring :class:`~repro.dynamics.schedules.ScheduleSpec`: cells
carry specs, the executing process builds the observers, and each observer's
:meth:`BatchObserver.result` travels back as a picklable observation — which
is what lets observed cells run byte-identically on the ``sequential``,
``batched`` and ``process:N`` backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.batch.trace import BatchTrace
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "BatchBeepCountTracker",
    "BatchLeaderCountTracker",
    "BatchObserver",
    "BatchRunInfo",
    "BatchSingleLeaderStopper",
    "BatchStateHistogramTracker",
    "BatchTraceRecorder",
    "LeaderExtinctionObserver",
    "LeaderExtinctionReport",
    "OBSERVER_KINDS",
    "ObserverPipeline",
    "ObserverSpec",
    "build_observer",
    "build_observers",
    "merge_observations",
    "register_observer_kind",
]


@dataclass(frozen=True)
class BatchRunInfo:
    """What every observer learns before the first round.

    Attributes
    ----------
    num_replicas, n:
        Batch width and node count.
    protocol_name, topology_name:
        Provenance metadata.
    beeping_values, leader_values:
        State values classified as beeping / leader (empty for memory
        protocols, whose executions have no integer state classes).
    seeds:
        Per-replica integer seed where known, ``None`` otherwise.
    """

    num_replicas: int
    n: int
    protocol_name: str = ""
    topology_name: str = ""
    beeping_values: Tuple[int, ...] = ()
    leader_values: Tuple[int, ...] = ()
    seeds: Tuple[Optional[int], ...] = ()

    def __post_init__(self) -> None:
        if not self.seeds:
            object.__setattr__(self, "seeds", (None,) * self.num_replicas)


class BatchObserver:
    """Base class for batched observers; every hook is optional.

    Hooks receive read-only views of the engine's arrays — an observer that
    keeps data across rounds must copy it.  ``states`` and ``beeping`` are
    ``None`` when the executing engine runs a memory protocol.
    """

    def on_start(self, info: BatchRunInfo) -> None:
        """Called once before round 0 is reported."""

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        """Called for round 0 (initial configuration) and after every round.

        ``states``/``beeping``/``leaders`` are ``(R, n)`` arrays over the
        *whole* batch (retired rows frozen); ``active_mask`` is the ``(R,)``
        mask of replicas that executed this round.
        """

    def should_retire(
        self,
        round_index: int,
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Return an ``(R,)`` mask of replicas to retire after this round.

        Called exactly once per reported round (stateful stoppers update
        their streaks here).  ``None`` retires nobody.
        """
        return None

    def on_retire(self, replicas: np.ndarray, round_index: int) -> None:
        """Called with the replica indices that stopped in ``round_index``."""

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        """Called once after the run with per-replica executed rounds."""

    def result(self) -> object:
        """The observation this observer produced (picklable).

        Observers attached through an :class:`ObserverSpec` ship this value
        back in the cell outcome; the default is ``None``.
        """
        return None

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> object:
        """Merge per-replica ``R = 1`` results into one batch result.

        The sequential execution backend runs each replica with its own
        observer instance and merges afterwards; the merged value must be
        byte-identical to what one batched observer produces.
        """
        raise ConfigurationError(
            f"{cls.__name__} does not support merging per-replica results"
        )


class ObserverPipeline:
    """Engine-side driver that multiplexes hooks over attached observers.

    Owns the calling convention so every engine drives observers the same
    way: one :meth:`observe_round` per reported round (computing nothing
    when no observer is attached is the engines' job — they simply do not
    build a pipeline), retire masks OR-combined across observers.
    """

    def __init__(
        self, observers: Sequence[BatchObserver], info: BatchRunInfo
    ) -> None:
        self._observers = tuple(observers)
        self._info = info
        for observer in self._observers:
            observer.on_start(info)

    def __len__(self) -> int:
        return len(self._observers)

    def observe_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Report one round; returns the combined retire-request mask."""
        requested: Optional[np.ndarray] = None
        for observer in self._observers:
            observer.on_round(round_index, states, beeping, leaders, active_mask)
        for observer in self._observers:
            mask = observer.should_retire(round_index, leaders, active_mask)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self._info.num_replicas,):
                    raise SimulationError(
                        f"should_retire mask has shape {mask.shape}; expected "
                        f"({self._info.num_replicas},)"
                    )
                requested = mask.copy() if requested is None else requested | mask
        return requested

    def notify_retire(self, replicas: np.ndarray, round_index: int) -> None:
        """Report replicas that stopped this round (if any)."""
        if len(replicas):
            for observer in self._observers:
                observer.on_retire(replicas, round_index)

    def finish(self, rounds_executed: np.ndarray) -> None:
        """Report the end of the run."""
        for observer in self._observers:
            observer.on_finish(rounds_executed)


# --------------------------------------------------------------------------- #
# Shipped observers
# --------------------------------------------------------------------------- #


class BatchTraceRecorder(BatchObserver):
    """Record the full state history of every replica as a :class:`BatchTrace`.

    Requires a constant-state engine (``states`` must not be ``None``).  The
    per-replica slices of the recorded trace are byte-identical to the
    sequential single-run recorder under matched seeds.
    """

    def __init__(self) -> None:
        self._info: Optional[BatchRunInfo] = None
        self._rows: List[np.ndarray] = []
        self._rounds_executed: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        self._info = info
        self._rows = []
        self._rounds_executed = None

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._info is None:
            raise SimulationError(
                "BatchTraceRecorder.on_round called before on_start"
            )
        if states is None:
            raise ConfigurationError(
                "trace recording requires a constant-state protocol; memory "
                "engines report no state array"
            )
        self._rows.append(np.asarray(states, dtype=np.int8).copy())

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        self._rounds_executed = np.asarray(rounds_executed, dtype=np.int64).copy()

    def trace(self) -> BatchTrace:
        """The recorded batch trace; valid once at least round 0 was seen."""
        if self._info is None or not self._rows:
            raise SimulationError("no trace has been recorded yet")
        rounds = self._rounds_executed
        if rounds is None:
            # Mid-run view (or a caller that never finished): every replica
            # is credited with everything recorded so far.
            rounds = np.full(
                self._info.num_replicas, len(self._rows) - 1, dtype=np.int64
            )
        return BatchTrace(
            states=np.stack(self._rows),
            rounds_executed=rounds,
            beeping_values=self._info.beeping_values,
            leader_values=self._info.leader_values,
            protocol_name=self._info.protocol_name,
            topology_name=self._info.topology_name,
            seeds=self._info.seeds,
        )

    def result(self) -> BatchTrace:
        return self.trace()

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> BatchTrace:
        """Merge per-run traces (any replica counts) in replica order.

        Handles both merge paths of the execution layer: the sequential
        backend's one-``R = 1``-trace-per-replica list and the sharded
        backends' one-trace-per-shard list.  Shorter replicas are padded
        with their frozen final row by :meth:`BatchTrace.from_traces`, so
        the merged trace is byte-identical to recording the whole batch at
        once.
        """
        traces: List[object] = []
        for result in results:
            if not isinstance(result, BatchTrace):
                raise ConfigurationError(
                    "BatchTraceRecorder.merge_results expects BatchTrace "
                    "results (one per replica or per shard)"
                )
            if result.num_replicas == 1:
                traces.append(result.replica(0))
            else:
                traces.extend(result.to_traces())
        return BatchTrace.from_traces(traces)


class BatchLeaderCountTracker(BatchObserver):
    """Track per-replica leader counts and convergence rounds over time."""

    def __init__(self) -> None:
        self.history: List[np.ndarray] = []
        self._first_single: Optional[np.ndarray] = None
        self._rounds_executed: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        self.history = []
        self._first_single = None
        self._rounds_executed = None

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        counts = leaders.sum(axis=1).astype(np.int64)
        self.history.append(counts)
        if self._first_single is None:
            self._first_single = np.full(counts.shape[0], -1, dtype=np.int64)
        single = counts == 1
        update = np.asarray(active_mask, dtype=bool)
        fresh = single & (self._first_single == -1)
        self._first_single[update & fresh] = round_index
        self._first_single[update & ~single] = -1

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        self._rounds_executed = np.asarray(rounds_executed, dtype=np.int64).copy()

    @property
    def convergence_round(self) -> Optional[np.ndarray]:
        """Per-replica first round of the current single-leader streak (-1: none)."""
        return None if self._first_single is None else self._first_single.copy()

    def counts_matrix(self) -> np.ndarray:
        """``(T + 1, R)`` leader counts (frozen rows repeated for retirees)."""
        if not self.history:
            raise SimulationError("no rounds observed yet")
        return np.stack(self.history)

    def result(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-replica leader-count trajectories, truncated at retirement."""
        matrix = self.counts_matrix()
        rounds = self._rounds_executed
        if rounds is None:
            rounds = np.full(matrix.shape[1], matrix.shape[0] - 1, dtype=np.int64)
        return tuple(
            tuple(int(c) for c in matrix[: rounds[r] + 1, r])
            for r in range(matrix.shape[1])
        )

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> Tuple[Tuple[int, ...], ...]:
        """Concatenate per-run trajectory tuples (any replica counts).

        Each result is one run's per-replica trajectories — a single
        replica on the sequential backend's merge path, a whole shard on
        the sharded backends' — flattened in replica order.
        """
        merged: List[Tuple[int, ...]] = []
        for result in results:
            for trajectory in tuple(result):  # type: ignore[arg-type]
                merged.append(tuple(int(c) for c in trajectory))
        return tuple(merged)


class BatchBeepCountTracker(BatchObserver):
    """Accumulate ``N^beep_t(u)`` for every replica and node, on-line.

    Only active rows count, so the result is each replica's ``N^beep`` at
    its own last executed round — ``beep_count_matrix(trace.replica(r))[-1]``
    (also registered as the ``streaming-beep-totals`` kind).
    """

    def __init__(self, keep_history: bool = False) -> None:
        self._counts: Optional[np.ndarray] = None
        self._keep_history = keep_history
        self.history: List[np.ndarray] = []

    def on_start(self, info: BatchRunInfo) -> None:
        # Accumulated in int32 (half the memory traffic per round) and
        # handed out as int64; counts are bounded by the round budget, far
        # below the int32 ceiling.
        self._counts = np.zeros((info.num_replicas, info.n), dtype=np.int32)
        self.history = []

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if self._counts is None:
            raise SimulationError(
                "BatchBeepCountTracker.on_round called before on_start"
            )
        if beeping is None:
            raise ConfigurationError(
                "beep counting requires a constant-state protocol; memory "
                "engines report no beeping classification"
            )
        active = np.asarray(active_mask, dtype=bool)
        if active.all():
            # Fast path: `where=` ufunc loops are buffered and measurably
            # slower than plain in-place adds on the all-active common case.
            self._counts += beeping
        else:
            np.add(self._counts, beeping, out=self._counts, where=active[:, None])
        if self._keep_history:
            self.history.append(self._counts.astype(np.int64))

    @property
    def counts(self) -> np.ndarray:
        """Current ``(R, n)`` cumulative beep counts (int64)."""
        if self._counts is None:
            raise SimulationError("no rounds observed yet")
        return self._counts.astype(np.int64)

    def result(self) -> np.ndarray:
        return self.counts

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> np.ndarray:
        return np.vstack([np.asarray(result) for result in results])


class BatchSingleLeaderStopper(BatchObserver):
    """Retire replicas once a single-leader configuration persists.

    The batched analogue of the single-run
    :class:`~repro.beeping.observers.SingleLeaderStopper`: with
    ``patience=0`` a replica is retired the round its leader count reaches
    one — exactly the round the engines' built-in ``stop_at_single_leader``
    retires it (the parity tests assert matching round counts).
    """

    def __init__(self, patience: int = 0) -> None:
        if patience < 0:
            raise SimulationError(f"patience must be non-negative; got {patience}")
        self._patience = patience
        self._consecutive: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        self._consecutive = None

    def should_retire(
        self,
        round_index: int,
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> Optional[np.ndarray]:
        counts = leaders.sum(axis=1)
        if self._consecutive is None:
            self._consecutive = np.zeros(counts.shape[0], dtype=np.int64)
        active = np.asarray(active_mask, dtype=bool)
        single = counts == 1
        self._consecutive[active & single] += 1
        self._consecutive[active & ~single] = 0
        return active & (self._consecutive > self._patience)


class BatchStateHistogramTracker(BatchObserver):
    """Per-round histograms of state values, for every replica."""

    def __init__(self) -> None:
        self.histograms: List[Tuple[Dict[int, int], ...]] = []

    def on_start(self, info: BatchRunInfo) -> None:
        self.histograms = []

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        if states is None:
            raise ConfigurationError(
                "state histograms require a constant-state protocol"
            )
        row: List[Dict[int, int]] = []
        for replica in range(states.shape[0]):
            values, counts = np.unique(states[replica], return_counts=True)
            row.append({int(v): int(c) for v, c in zip(values, counts)})
        self.histograms.append(tuple(row))

    def result(self) -> Tuple[Tuple[Dict[int, int], ...], ...]:
        return tuple(self.histograms)


# --------------------------------------------------------------------------- #
# Leader extinction (the invariant-violation observer)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class LeaderExtinctionReport:
    """Per-replica account of Lemma 9 violations (leaderless rounds).

    On a static connected graph BFW always keeps at least one leader
    (Lemma 9); under edge churn colliding elimination waves can destroy
    *every* leader, after which the configuration is absorbing.  This report
    quantifies that failure mode for a batch.

    Attributes
    ----------
    extinction_round:
        ``(R,)`` first round with zero leaders; ``-1`` where the invariant
        held for the whole run.
    extinction_events:
        ``(R,)`` number of transitions from ``>= 1`` leaders to zero (under
        BFW the leaderless state is absorbing, so this is 0 or 1; baselines
        whose candidate sets fluctuate may re-enter).
    leaderless_final:
        ``(R,)`` whether the run *ended* leaderless.
    rounds_observed:
        ``(R,)`` rounds each replica executed.
    """

    extinction_round: np.ndarray
    extinction_events: np.ndarray
    leaderless_final: np.ndarray
    rounds_observed: np.ndarray

    @property
    def num_replicas(self) -> int:
        """Number of replicas covered by the report."""
        return int(self.extinction_round.shape[0])

    @property
    def extinct(self) -> np.ndarray:
        """``(R,)`` mask of replicas that ever lost every leader."""
        return self.extinction_round >= 0

    @property
    def extinction_rate(self) -> float:
        """Fraction of replicas that ever reached a leaderless round."""
        return float(self.extinct.mean()) if self.num_replicas else 0.0

    @property
    def absorbed_rate(self) -> float:
        """Fraction of replicas that *ended* leaderless."""
        return (
            float(self.leaderless_final.mean()) if self.num_replicas else 0.0
        )

    def mean_extinction_round(self) -> Optional[float]:
        """Mean first-extinction round over extinct replicas (``None`` if none)."""
        extinct = self.extinct
        if not extinct.any():
            return None
        return float(self.extinction_round[extinct].mean())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeaderExtinctionReport):
            return NotImplemented
        return (
            bool(np.array_equal(self.extinction_round, other.extinction_round))
            and bool(
                np.array_equal(self.extinction_events, other.extinction_events)
            )
            and bool(
                np.array_equal(self.leaderless_final, other.leaderless_final)
            )
            and bool(np.array_equal(self.rounds_observed, other.rounds_observed))
        )

    def __hash__(self) -> int:
        return id(self)


class LeaderExtinctionObserver(BatchObserver):
    """Count leader-extinction events — Lemma 9 violations — per replica.

    Works for constant-state *and* memory engines (it only reads the leader
    mask), which is what lets ``repro extinction`` quantify the measured
    leader-extinction rate under churn at sweep scale.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._extinction_round: Optional[np.ndarray] = None
        self._events: Optional[np.ndarray] = None
        self._previous_zero: Optional[np.ndarray] = None
        self._final_zero: Optional[np.ndarray] = None
        self._rounds: Optional[np.ndarray] = None

    def on_start(self, info: BatchRunInfo) -> None:
        # A reused observer starts every run clean (the arrays themselves
        # are sized lazily from the first round's leader mask).
        self._reset()

    def on_round(
        self,
        round_index: int,
        states: Optional[np.ndarray],
        beeping: Optional[np.ndarray],
        leaders: np.ndarray,
        active_mask: np.ndarray,
    ) -> None:
        zero = leaders.sum(axis=1) == 0
        if self._extinction_round is None:
            num_replicas = zero.shape[0]
            self._extinction_round = np.full(num_replicas, -1, dtype=np.int64)
            self._events = np.zeros(num_replicas, dtype=np.int64)
            self._previous_zero = np.zeros(num_replicas, dtype=bool)
            self._final_zero = np.zeros(num_replicas, dtype=bool)
        active = np.asarray(active_mask, dtype=bool)
        assert self._events is not None and self._previous_zero is not None
        became_zero = active & zero & ~self._previous_zero
        self._events[became_zero] += 1
        first = became_zero & (self._extinction_round == -1)
        self._extinction_round[first] = round_index
        self._previous_zero[active] = zero[active]
        self._final_zero[active] = zero[active]

    def on_finish(self, rounds_executed: np.ndarray) -> None:
        self._rounds = np.asarray(rounds_executed, dtype=np.int64).copy()

    def report(self) -> LeaderExtinctionReport:
        """The per-replica extinction report (valid once rounds were seen)."""
        if self._extinction_round is None:
            raise SimulationError("no rounds observed yet")
        rounds = self._rounds
        if rounds is None:
            rounds = np.zeros(self._extinction_round.shape[0], dtype=np.int64)
        return LeaderExtinctionReport(
            extinction_round=self._extinction_round.copy(),
            extinction_events=self._events.copy(),
            leaderless_final=self._final_zero.copy(),
            rounds_observed=rounds.copy(),
        )

    def result(self) -> LeaderExtinctionReport:
        return self.report()

    @classmethod
    def merge_results(cls, results: Sequence[object]) -> LeaderExtinctionReport:
        reports: List[LeaderExtinctionReport] = []
        for result in results:
            if not isinstance(result, LeaderExtinctionReport):
                raise ConfigurationError(
                    "LeaderExtinctionObserver.merge_results expects "
                    "LeaderExtinctionReport values"
                )
            reports.append(result)
        if not reports:
            raise ConfigurationError("cannot merge 0 extinction reports")
        return LeaderExtinctionReport(
            extinction_round=np.concatenate(
                [r.extinction_round for r in reports]
            ),
            extinction_events=np.concatenate(
                [r.extinction_events for r in reports]
            ),
            leaderless_final=np.concatenate(
                [r.leaderless_final for r in reports]
            ),
            rounds_observed=np.concatenate(
                [r.rounds_observed for r in reports]
            ),
        )


# --------------------------------------------------------------------------- #
# Serialisable observer specifications
# --------------------------------------------------------------------------- #

#: Registry of spec kinds to observer factories ``(**params) -> BatchObserver``.
OBSERVER_KINDS: Dict[str, Callable[..., BatchObserver]] = {
    "trace": BatchTraceRecorder,
    "leader-counts": BatchLeaderCountTracker,
    "beep-counts": BatchBeepCountTracker,
    "leader-extinction": LeaderExtinctionObserver,
}


def register_observer_kind(
    kind: str, factory: Callable[..., BatchObserver]
) -> None:
    """Register a new observer kind for :class:`ObserverSpec` cells."""
    OBSERVER_KINDS[kind] = factory


def _ensure_kind(kind: str) -> None:
    """Make sure ``kind`` is registered, importing late-bound providers.

    The telemetry layer registers its streaming-reducer and spill-trace
    kinds when :mod:`repro.telemetry` is imported, but this module cannot
    import it eagerly (telemetry's reducers sit on top of the analysis
    stack, which imports the engines, which import this module).  Resolving
    lazily also covers spawn workers: a pickled :class:`ObserverSpec`
    arrives without re-running ``__post_init__``, so the registry there may
    not have seen the telemetry import yet.
    """
    if kind in OBSERVER_KINDS:
        return
    if kind.startswith("streaming-") or kind == "spill-trace":
        import repro.telemetry  # noqa: F401  (import registers the kinds)


@dataclass(frozen=True)
class ObserverSpec:
    """Pure-data description of a batch observer attached to a cell.

    Mirrors :class:`~repro.dynamics.schedules.ScheduleSpec`: plain picklable
    data, so observed :class:`~repro.exec.ExecutionCell` objects still ship
    to spawn-started worker processes, which build the actual observers with
    :func:`build_observer`.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _ensure_kind(self.kind)
        if self.kind not in OBSERVER_KINDS:
            raise ConfigurationError(
                f"unknown observer kind {self.kind!r}; "
                f"known: {', '.join(sorted(OBSERVER_KINDS))}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @property
    def label(self) -> str:
        """Display label such as ``"trace"`` or ``"beep-counts[keep_history=True]"``."""
        if not self.params:
            return self.kind
        rendered = ",".join(
            f"{key}={value}" for key, value in sorted(self.params.items())
        )
        return f"{self.kind}[{rendered}]"


def build_observer(spec: "ObserverSpec | BatchObserver") -> BatchObserver:
    """Instantiate an observer from a spec (or pass an instance through)."""
    if isinstance(spec, BatchObserver):
        return spec
    if not isinstance(spec, ObserverSpec):
        raise ConfigurationError(
            f"expected an ObserverSpec or BatchObserver; got {type(spec).__name__}"
        )
    _ensure_kind(spec.kind)
    factory = OBSERVER_KINDS[spec.kind]
    try:
        return factory(**spec.params)
    except TypeError as error:
        raise ConfigurationError(
            f"invalid parameters for observer kind {spec.kind!r}: {error}"
        ) from None


def build_observers(
    specs: Sequence["ObserverSpec | BatchObserver"],
) -> Tuple[BatchObserver, ...]:
    """Instantiate one observer per spec, in spec order."""
    return tuple(build_observer(spec) for spec in specs)


def merge_observations(
    spec: ObserverSpec, results: Sequence[object]
) -> object:
    """Merge per-run observations into one batch observation, replica order.

    Two callers: the sequential execution backend merges one ``R = 1``
    observation per replica, and the sharding merge path
    (:func:`~repro.exec.cells.merge_cell_outcomes`) merges one multi-replica
    observation per shard.  Either way the merged value is byte-identical to
    what a single batched run of the whole cell observes.
    """
    _ensure_kind(spec.kind)
    factory = OBSERVER_KINDS[spec.kind]
    merge = getattr(factory, "merge_results", None)
    if merge is None:
        raise ConfigurationError(
            f"observer kind {spec.kind!r} does not support per-replica merging"
        )
    return merge(results)
