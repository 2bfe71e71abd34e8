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
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple, Union

from repro.exec.cells import CellOutcome, ExecutionCell

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids a module cycle
    from repro.experiments.results import TrialRecord
    from repro.telemetry.heartbeat import Heartbeat


@dataclass(frozen=True)
class CellCompleted:
    """Progress event emitted after each cell finishes.

    Events arrive in deterministic cell order (index ``0`` first) on every
    backend, including process pools — ordered delivery is part of the
    backend contract, so progress output is reproducible too.

    ``wall_seconds`` and ``rounds_advanced`` mirror the outcome's telemetry
    (seconds the executing process spent on the cell, total replica-rounds
    advanced); both are excluded from equality, like the outcome fields they
    come from.

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
    wall_seconds: Optional[float] = field(default=None, compare=False)
    rounds_advanced: Optional[int] = field(default=None, compare=False)
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None

    @property
    def cell(self) -> ExecutionCell:
        """The cell this event reports on."""
        return self.outcome.cell


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


#: Either progress event a backend may deliver to the hook.
ProgressEvent = Union[CellCompleted, ShardProgress]

#: Signature of the backend-mediated progress hook.  Hooks predating
#: heartbeats keep working: backends only emit :class:`ShardProgress`
#: when a ``heartbeat_interval`` is configured.
ProgressHook = Callable[[ProgressEvent], None]


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


def emit_progress(
    progress: Optional[ProgressHook],
    index: int,
    total: int,
    outcome: CellOutcome,
    backend: str,
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
) -> None:
    """Deliver one :class:`CellCompleted` event if a hook is installed.

    ``shard_index`` / ``shard_count`` mark the event as per-shard
    sub-progress (sharding backends emit those before the per-cell event).
    """
    if progress is not None:
        progress(
            CellCompleted(
                index=index,
                total=total,
                outcome=outcome,
                backend=backend,
                wall_seconds=outcome.wall_seconds,
                rounds_advanced=outcome.rounds_advanced,
                shard_index=shard_index,
                shard_count=shard_count,
            )
        )
