"""The :class:`ExecutionBackend` API: one contract for every sweep executor.

A backend receives a sequence of :class:`~repro.exec.cells.ExecutionCell`
objects and returns their outcomes **in cell order**, whatever execution
strategy it uses internally (a loop, one batched state array per cell, a
process pool over cells).  Because every executor is replica-for-replica
identical to the sequential loop under matched seeds, swapping backends
never changes experiment output — only wall-clock.

Progress reporting is backend-mediated: callers pass a ``progress`` callable
that receives one :class:`CellCompleted` event per finished cell, again in
deterministic cell order, carrying only that cell's outcome (so progress
aggregation stays O(cell), not O(records so far)).

Each event serialises itself with ``to_record()`` into the flat telemetry
JSONL schema that ``--telemetry`` files and the sweep service's event
stream share (``"cell"``, ``"shard"``, ``"progress"`` and, from
:func:`summary_record`, ``"summary"`` records).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.batch.kernels import validate_kernel
from repro.errors import ConfigurationError
from repro.exec.cells import CellOutcome, ExecutionCell, ShardSize, resolve_shard_size

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids a module cycle
    from repro.experiments.results import TrialRecord
    from repro.telemetry.heartbeat import Heartbeat


@dataclass(frozen=True)
class CellCompleted:
    """Progress event emitted after each cell finishes.

    Events arrive in deterministic cell order (index ``0`` first) on every
    backend, including process pools — ordered delivery is part of the
    backend contract, so progress output is reproducible too.

    ``wall_seconds`` and ``rounds_advanced`` read the outcome's telemetry
    (seconds the executing process spent on the cell, total replica-rounds
    advanced); like the outcome fields they come from, they play no part
    in equality.

    When a backend shards a cell's seed list (``shard_size``), it emits one
    *sub-progress* event per finished shard — ``shard_index`` / ``shard_count``
    set, ``outcome`` carrying only that shard's sub-cell — followed by the
    ordinary per-cell event (shard fields ``None``, outcome merged over the
    whole cell).  Consumers that ignore the shard fields see exactly the
    historical event stream.
    """

    index: int
    total: int
    outcome: CellOutcome
    backend: str
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None

    @property
    def cell(self) -> ExecutionCell:
        """The cell this event reports on."""
        return self.outcome.cell

    @property
    def wall_seconds(self) -> Optional[float]:
        return self.outcome.wall_seconds

    @property
    def rounds_advanced(self) -> int:
        return self.outcome.rounds_advanced

    @property
    def mean_rounds(self) -> float:
        """Mean over the replicas of the convergence round (rounds executed
        for a replica that did not converge)."""
        rounds = [
            record.rounds_executed
            if record.convergence_round is None
            else record.convergence_round
            for record in self.outcome.to_records()
        ]
        return float(sum(rounds)) / len(rounds)

    def to_record(self) -> Dict[str, object]:
        """The flat telemetry record: ``"shard"`` for shard sub-progress,
        ``"cell"`` for a whole cell."""
        cell = self.cell
        if self.shard_index is not None:
            return {
                "event": "shard",
                "index": self.index,
                "total": self.total,
                "shard": self.shard_index,
                "shards": self.shard_count,
                "backend": self.backend,
                "protocol": cell.protocol.label,
                "graph": cell.graph.label,
                "replicas": cell.num_replicas,
                "wall_seconds": self.wall_seconds,
                "rounds_advanced": self.rounds_advanced,
            }
        return {
            "event": "cell",
            "index": self.index,
            "total": self.total,
            "backend": self.backend,
            "protocol": cell.protocol.label,
            "graph": cell.graph.label,
            "n": self.outcome.n,
            "diameter": self.outcome.diameter,
            "replicas": cell.num_replicas,
            "mean_rounds": self.mean_rounds,
            "wall_seconds": self.wall_seconds,
            "rounds_advanced": self.rounds_advanced,
            "metrics": self.outcome.metrics,
        }


def summary_record(cells: int, wall_seconds: float, rounds_advanced: int) -> dict:
    """The ``"summary"`` record closing a sweep's stream: merged-cell totals."""
    return {
        "event": "summary",
        "cells": cells,
        "wall_seconds": float(wall_seconds),
        "rounds_advanced": rounds_advanced,
    }


#: ``"progress"`` record keys and the :class:`Heartbeat` fields they carry.
_BEAT_KEYS = (
    ("engine", "engine"),
    ("kernel", "kernel"),
    ("round", "round_index"),
    ("active", "active"),
    ("converged", "converged"),
    ("leaderless", "leaderless"),
    ("rounds_advanced", "rounds_advanced"),
    ("rounds_per_second", "rounds_per_second"),
)


def beat_fields(beat: "Heartbeat") -> Dict[str, object]:
    """The heartbeat keys of ``"progress"`` records and service status rows."""
    return {key: getattr(beat, name) for key, name in _BEAT_KEYS}


@dataclass(frozen=True)
class ShardProgress:
    """In-flight progress event: one engine heartbeat from inside a shard.

    Emitted by backends with a ``heartbeat_interval`` set, *while* the cell
    (or shard) named by ``index``/``shard_index`` is still executing.  The
    payload is the raw :class:`~repro.telemetry.heartbeat.Heartbeat`
    sampled every K rounds inside the engine loop.

    Unlike :class:`CellCompleted`, these events carry **no ordering or
    delivery guarantee**: they are racy in-flight observability (a beat
    from a process worker can arrive after the cell's completion event),
    they never appear in results, and records stay byte-identical whether
    any are emitted or not.  Consumers must treat them as hints.
    """

    index: int
    total: int
    backend: str
    cell: ExecutionCell
    heartbeat: "Heartbeat"
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    attempt: int = 0

    def to_record(self) -> Dict[str, object]:
        """The flat ``"progress"`` telemetry record."""
        return {
            "event": "progress",
            "index": self.index,
            "total": self.total,
            "shard": self.shard_index,
            "shards": self.shard_count,
            "attempt": self.attempt,
            "backend": self.backend,
            "protocol": self.cell.protocol.label,
            "graph": self.cell.graph.label,
            "replicas": self.cell.num_replicas,
            **beat_fields(self.heartbeat),
        }

    @classmethod
    def from_record(
        cls,
        record: Dict[str, object],
        cells: Sequence[ExecutionCell],
        backend: str,
    ) -> "ShardProgress":
        """Rebuild the event behind a ``"progress"`` record of a sweep over
        ``cells`` (the inverse of :meth:`to_record`).

        A record without a valid cell index raises ``KeyError``,
        ``IndexError``, ``TypeError`` or ``ValueError``.
        """
        from repro.telemetry.heartbeat import Heartbeat

        index = int(record["index"])  # type: ignore[arg-type]
        heartbeat = Heartbeat(
            replicas=record.get("replicas"),  # type: ignore[arg-type]
            elapsed_seconds=0.0,
            **{name: record.get(key) for key, name in _BEAT_KEYS},  # type: ignore[arg-type]
        )
        cell = cells[index]
        shard = record.get("shard")
        if shard is not None:
            # The beat's unit is one of split_cell's consecutive seed
            # slices, all of one size but the last.
            size = int(record["replicas"])  # type: ignore[arg-type]
            start = int(shard) * size  # type: ignore[arg-type]
            if shard == record["shards"] - 1:  # type: ignore[operator]
                start = cell.num_replicas - size
            cell = replace(cell, seeds=cell.seeds[start : start + size])
        return cls(
            index=index,
            total=len(cells),
            backend=backend,
            cell=cell,
            heartbeat=heartbeat,
            shard_index=shard,  # type: ignore[arg-type]
            shard_count=record.get("shards"),  # type: ignore[arg-type]
            attempt=record.get("attempt") or 0,  # type: ignore[arg-type]
        )


#: Either progress event a backend may deliver to the hook.
ProgressEvent = Union[CellCompleted, ShardProgress]

#: Signature of the backend-mediated progress hook.  Hooks predating
#: heartbeats keep working: backends only emit :class:`ShardProgress`
#: when a ``heartbeat_interval`` is configured.
ProgressHook = Callable[[ProgressEvent], None]


def _validate_shard_size(shard_size: ShardSize) -> ShardSize:
    """Check a shard-size setting once at construction time.

    ``"auto"`` stays symbolic (it resolves per cell against the worker
    count); integers are normalised and validated here so a bad setting
    fails fast instead of mid-sweep.
    """
    if isinstance(shard_size, str) and shard_size.strip().lower() == "auto":
        return "auto"
    return resolve_shard_size(shard_size, num_replicas=1)


def _validate_heartbeat_interval(interval: Optional[int]) -> Optional[int]:
    """Check a heartbeat interval once at construction time.

    ``None`` keeps heartbeats off (the no-op fast path); anything else
    must be a positive round count.
    """
    if interval is None:
        return None
    try:
        value = int(interval)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"heartbeat interval must be a positive integer or None; "
            f"got {interval!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"heartbeat interval must be >= 1; got {interval!r}"
        )
    return value


class ExecutionBackend(abc.ABC):
    """Strategy for executing a sequence of sweep cells.

    Implementations must return outcomes in cell order and preserve the
    per-replica results of the sequential loop under matched seeds.
    """

    #: Spec-string name of the backend (what :func:`resolve_backend` parses).
    name: str = "?"

    #: Seed-list shard size: ``None`` (whole cells), a positive int, or
    #: ``"auto"`` (``ceil(R / workers)`` per cell).  Backends that shard
    #: split cells with :func:`~repro.exec.cells.split_cell` and merge the
    #: executed shards back byte-identically; ``resolve_backend`` sets this
    #: attribute when given a ``shard_size``.
    shard_size: object = None

    #: In-flight heartbeat interval in engine rounds: ``None`` (off — the
    #: no-op fast path) or a positive int K.  When set, the backend
    #: installs a :class:`~repro.telemetry.heartbeat.HeartbeatEmitter`
    #: around each shard execution and forwards beats to the progress hook
    #: as :class:`ShardProgress` events; ``resolve_backend`` sets this
    #: attribute when given a ``heartbeat_interval``.
    heartbeat_interval: Optional[int] = None

    #: Default round kernel (:mod:`repro.batch.kernels` spec) stamped
    #: onto cells that do not choose their own: ``None`` (cells keep
    #: their engine's ``"auto"``), ``"numba"``, ``"numpy"`` or
    #: ``"python"``.  Records are kernel-invariant, so this
    #: only changes how fast they arrive; ``resolve_backend`` sets this
    #: attribute when given a ``kernel``.
    kernel: Optional[str] = None

    def __init__(
        self,
        shard_size: ShardSize = None,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self.configure(shard_size, heartbeat_interval, kernel)

    def configure(
        self,
        shard_size: ShardSize = None,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ) -> None:
        """Validate and apply the three shared settings; ``None`` leaves a
        setting as it is (how ``resolve_backend`` composes them).  Kernel
        availability is checked where cells execute, not here: a client
        without numba may still target numba workers."""
        if shard_size is not None:
            self.shard_size = _validate_shard_size(shard_size)
        if heartbeat_interval is not None:
            self.heartbeat_interval = _validate_heartbeat_interval(
                heartbeat_interval
            )
        if kernel is not None:
            self.kernel = validate_kernel(kernel)

    @abc.abstractmethod
    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        """Execute every cell and return their outcomes in cell order."""

    def run_cells(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[TrialRecord, ...]:
        """Execute every cell and return the flattened per-trial records.

        Records are ordered by cell, then by seed within the cell — the
        exact order the per-trial sweep loop produces, byte-identical to it
        under matched seeds on every backend.
        """
        outcomes = self.run_cell_outcomes(cells, progress=progress)
        return tuple(
            record for outcome in outcomes for record in outcome.to_records()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
