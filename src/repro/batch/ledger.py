"""The per-run bookkeeping both batch engines share.

:class:`~repro.batch.engine.BatchedEngine` and
:class:`~repro.batch.memory.BatchedMemoryEngine` only advance states; a
:class:`_ReplicaLedger` keeps the rest of a run: the round budget,
observers, streaks and retirement, heartbeats, the leader-count rows, the
:class:`~repro.batch.results.BatchResult` and its metrics sample.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.batch.observers import BatchObserver, BatchRunInfo, ObserverPipeline
from repro.batch.results import BatchResult
from repro.batch.streams import ReplicaStreams, SeedLike
from repro.beeping.simulator import default_round_budget
from repro.errors import ConfigurationError
from repro.graphs.topology import Topology


class _ReplicaLedger:
    """Everything but the state advance of one batch run.

    One streak rule measures the round from which one leader persists (a
    single-leader configuration is absorbing): a leader count of one opens
    a streak (``convergence``), any other count clears it (``-1``).  With
    ``stop`` a replica retires once its streak is ``window`` rounds long,
    from round 0 on when ``retire_at_start`` (the constant-state engine),
    from round 1 on otherwise (the memory reference loop checks its stop
    only after a round).  With window 1 from round 0 an active replica
    never carries a streak, so its count is written only when ``record``
    keeps rows, and its convergence round only when it retires.
    """

    def __init__(
        self,
        engine: str,
        topology: Topology,
        protocol_name: str,
        seeds: Union[Sequence[SeedLike], ReplicaStreams],
        max_rounds: Optional[int],
        *,
        record: bool,
        stop: bool,
        window: int = 1,
        retire_at_start: bool = True,
    ) -> None:
        self._started = time.perf_counter()
        self.streams = (
            seeds if isinstance(seeds, ReplicaStreams) else ReplicaStreams(seeds)
        )
        if max_rounds is None:
            max_rounds = default_round_budget(topology)
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0; got {max_rounds}")
        self.max_rounds: int = max_rounds
        self.num_replicas = len(self.streams)
        self._engine = engine
        self._topology = topology
        self._protocol_name = protocol_name
        self._stop = stop
        self._window = window
        self._first_stop = 0 if retire_at_start else 1
        self._lazy = stop and window == 1 and retire_at_start
        #: The round-kernel label of heartbeats and the metrics sample.
        self.kernel: Optional[str] = None
        from repro.telemetry.heartbeat import current_heartbeat

        self.heartbeat = current_heartbeat()
        self.pipeline: Optional[ObserverPipeline] = None
        self.rows: Optional[List[np.ndarray]] = [] if record else None

    def start(
        self,
        counts: np.ndarray,
        observers: Sequence[BatchObserver] = (),
        observed: Optional[tuple] = None,
        **run_info: Any,
    ) -> np.ndarray:
        """Book round 0 from the initial leader ``counts``; returns the
        active replicas.  ``observed`` is what ``observers`` see of a round,
        ``(states, beeping, leaders)`` of the whole batch with retired rows
        frozen; ``run_info`` extends their ``BatchRunInfo``."""
        num_replicas = self.num_replicas
        self.counts = np.zeros(num_replicas, dtype=np.int64)
        self.convergence = np.full(num_replicas, -1, dtype=np.int64)
        self.rounds_executed = np.zeros(num_replicas, dtype=np.int64)
        self.active_mask = np.ones(num_replicas, dtype=bool)
        if observers:
            self.pipeline = ObserverPipeline(
                observers,
                BatchRunInfo(
                    num_replicas=num_replicas,
                    n=self._topology.n,
                    protocol_name=self._protocol_name,
                    topology_name=self._topology.name,
                    seeds=self.streams.seed_values,
                    **run_info,
                ),
            )
        #: Nothing to report per round: a replica retires exactly when its
        #: count is one, so rounds without such a count need no booking.
        self.quiet = self._lazy and self.rows is None and (
            self.pipeline is None and self.heartbeat is None
        )
        active = np.arange(num_replicas)
        retire = self.close_round(0, active, counts, observed=observed)
        return active if retire is None else active[~retire]

    def close_round(
        self,
        round_index: int,
        active: np.ndarray,
        active_counts: np.ndarray,
        finished: Optional[np.ndarray] = None,
        observed: Optional[tuple] = None,
    ) -> Optional[np.ndarray]:
        """Book round ``round_index``: the ``active`` replicas' leader
        counts, the engine's own stops (``finished``, memory termination)
        and what observers see.  Returns the mask over ``active`` of the
        replicas retired this round, or ``None``."""
        counts, rows = self.counts, self.rows
        hit = active_counts == 1
        if self._lazy:
            if rows is not None:
                counts[active] = active_counts
            retire = hit if finished is None else hit | finished
        else:
            counts[active] = active_counts
            previous = self.convergence[active]
            opened = np.where(
                hit, np.where(previous == -1, round_index, previous), -1
            )
            self.convergence[active] = opened
            retire = finished
            if self._stop and round_index >= self._first_stop:
                done = hit & (opened <= round_index - self._window + 1)
                retire = done if retire is None else retire | done
        if rows is not None:
            rows.append(counts.copy())
        pipeline = self.pipeline
        if pipeline is not None:
            requested = pipeline.observe_round(
                round_index, *observed, self.active_mask.copy()
            )
            if requested is not None:
                requested = requested[active]
                retire = requested if retire is None else retire | requested
        if retire is not None and not retire.any():
            retire = None
        if retire is not None:
            retired = active[retire]
            if self._lazy:
                # Observers may retire replicas that did not converge.
                final_counts = active_counts[retire]
                self.convergence[retired] = np.where(
                    final_counts == 1, round_index, -1
                )
                counts[retired] = final_counts
            self.rounds_executed[retired] = round_index
            self.active_mask[retired] = False
            if pipeline is not None:
                pipeline.notify_retire(retired, round_index)
        heartbeat = self.heartbeat
        if heartbeat is not None and round_index and heartbeat.due(round_index):
            remaining = active.size - (0 if retire is None else int(retire.sum()))
            heartbeat.beat(
                engine=self._engine,
                round_index=round_index,
                replicas=self.num_replicas,
                active=remaining,
                converged=int((self.convergence >= 0).sum()),
                leaderless=int((active_counts == 0).sum()),
                rounds_advanced=int(
                    self.rounds_executed.sum() + remaining * round_index
                ),
                kernel=self.kernel,
            )
        return retire

    def finish(
        self,
        round_index: int,
        active: np.ndarray,
        leaders: np.ndarray,
        final_states: Optional[np.ndarray] = None,
        **sample: Any,
    ) -> BatchResult:
        """The result after ``round_index`` rounds, which the ``active``
        replicas all ran; ``leaders`` is the final ``(R, n)`` leader mask,
        ``sample`` extends the metrics sample."""
        counts, rounds_executed = self.counts, self.rounds_executed
        if active.size:
            counts[active] = leaders[active].sum(axis=1)
            rounds_executed[active] = round_index
        if self.pipeline is not None:
            self.pipeline.finish(rounds_executed.copy())

        converged = (self.convergence != -1) & (counts == 1)
        leader_counts: Optional[tuple] = None
        if self.rows is not None:
            # Replica r was active for rounds 1..rounds_executed[r], so its
            # trajectory is a prefix column of the stacked count rows.
            stacked = np.stack(self.rows)
            leader_counts = tuple(
                tuple(int(c) for c in stacked[: rounds_executed[r] + 1, r])
                for r in range(self.num_replicas)
            )
        result = BatchResult(
            converged=converged,
            convergence_round=np.where(converged, self.convergence, -1),
            rounds_executed=rounds_executed,
            final_leader_count=counts,
            leader_node=np.where(counts == 1, leaders.argmax(axis=1), -1).astype(
                np.int64
            ),
            seeds=self.streams.seed_values,
            leader_counts=leader_counts,
            final_states=final_states,
            protocol_name=self._protocol_name,
            topology_name=self._topology.name,
        )
        # A no-op unless a MetricsRegistry is installed.
        from repro.telemetry.metrics import sample_engine_run

        sample_engine_run(
            self._engine,
            rounds_advanced=int(rounds_executed.sum()),
            replicas=self.num_replicas,
            wall_seconds=time.perf_counter() - self._started,
            replicas_converged=int(converged.sum()),
            replicas_leaderless=int((counts == 0).sum()),
            kernel=self.kernel,
            **sample,
        )
        return result
