"""The three shipped execution backends and the spec-string resolver.

* :class:`SequentialBackend` — today's per-trial loop: every replica of
  every cell is one seeded single run.  The reference semantics.
* :class:`BatchedBackend` — each cell's replicas advance together in one
  ``(R, n)`` state array (constant-state protocols through
  :class:`~repro.batch.engine.BatchedEngine`, supported memory baselines
  through :class:`~repro.batch.memory.BatchedMemoryEngine`, standalone
  runners fall back to the loop).  Fastest single-process option.
* :class:`ProcessBackend` — shards work across a ``multiprocessing`` pool;
  each worker runs the batched cell path.  Cells are pure-data (spec pairs
  plus seeds), so the backend is spawn-safe, and outcomes are returned in
  deterministic cell order, keeping output byte-identical to the sequential
  loop under matched seeds.

Every backend accepts a ``shard_size``: a cell with more seeds than
``shard_size`` is split into independent sub-cells
(:func:`~repro.exec.cells.split_cell`), executed like any other unit of
work, and merged back (:func:`~repro.exec.cells.merge_cell_outcomes`) into
one outcome — byte-identical to the unsharded run.  For the process
backend this is what spreads a *single* large cell (e.g. one montecarlo
configuration with thousands of replicas) across all workers instead of
pinning one core; ``shard_size="auto"`` picks ``ceil(R / workers)`` per
cell.  Split → execute → merge → emit is written once, in
:class:`ShardPlan`: shards and whole small cells interleave in one
work-unit list that the in-process backends run inline,
:class:`ProcessBackend` over ``pool.imap`` (the pool clamped to the
number of units, never spawning idle processes) and the sweep service on
its worker threads.

:func:`resolve_backend` turns a backend instance or a spec string
(``"sequential"``, ``"batched"``, ``"process"``, ``"process:4"``) into a
backend object.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union
)

from repro.errors import ConfigurationError
from repro.exec.base import (
    CellCompleted,
    ExecutionBackend,
    ProgressHook,
    ShardProgress,
    _validate_shard_size,
)
from repro.exec.cells import (
    CellOutcome,
    ExecutionCell,
    ShardSize,
    execute_cell_batched,
    execute_cell_sequential,
    merge_cell_outcomes,
    resolve_shard_size,
    split_cell,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.telemetry.heartbeat import Heartbeat

#: What a caller may pass as ``backend=``: an instance, a spec string, or
#: ``None`` for the entry point's default.
BackendSpec = Union[ExecutionBackend, str, None]


def _stamp_kernel(
    cell: ExecutionCell, kernel: Optional[str]
) -> ExecutionCell:
    """Apply a backend's kernel default to a cell that does not set one.

    A cell's own ``kernel`` always wins (it was chosen when the cell was
    built and travels with it through sharding and the service wire); the
    backend default only fills the gap, so ``resolve_backend(kernel=...)``
    composes with per-cell overrides the same way ``shard_size`` does.
    """
    if kernel is None or cell.kernel is not None:
        return cell
    return replace(cell, kernel=kernel)


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of a sweep: shard ``shard_index`` of
    ``shard_count`` of cell ``cell_index`` (the whole cell when the count
    is 1)."""

    cell_index: int
    shard_index: int
    shard_count: int
    cell: ExecutionCell


class ShardPlan:
    """Split → execute → merge → emit, written once for every backend.

    The plan stamps the backend's kernel default onto the cells, validates
    the shard size, and splits cells into one flat list of
    :class:`WorkUnit` objects — a cell's units contiguous and in shard order.
    Executors run the units however they like (inline, over a process
    pool, on service worker threads) and hand each outcome to
    :meth:`finish`, in any order; the last shard of a cell to land returns
    the cell's merged outcome.  The plan also builds every unit's progress
    events, so all backends report the same events and records.
    """

    def __init__(
        self,
        cells: Sequence[ExecutionCell],
        backend: str,
        shard_size: ShardSize = None,
        workers: int = 1,
        kernel: Optional[str] = None,
    ) -> None:
        self.shard_size = _validate_shard_size(shard_size)
        self.cells = tuple(_stamp_kernel(cell, kernel) for cell in cells)
        self.backend = backend
        self.workers = workers
        self.units: List[WorkUnit] = []
        self._landed: Dict[int, Dict[int, CellOutcome]] = {}

    def split(self, cell_index: int) -> range:
        """Append one cell's units; returns their indices in :attr:`units`."""
        cell = self.cells[cell_index]
        shards = split_cell(
            cell,
            resolve_shard_size(self.shard_size, cell.num_replicas, self.workers),
        )
        start = len(self.units)
        self.units.extend(
            WorkUnit(cell_index, shard_index, len(shards), shard)
            for shard_index, shard in enumerate(shards)
        )
        return range(start, len(self.units))

    def split_all(self) -> "ShardPlan":
        """Split every cell (what backends without a result cache do)."""
        for cell_index in range(len(self.cells)):
            self.split(cell_index)
        return self

    def finish(
        self, unit_index: int, outcome: CellOutcome
    ) -> Optional[CellOutcome]:
        """Record one unit's outcome; the cell's merged outcome once its
        last shard has landed, else ``None``."""
        unit = self.units[unit_index]
        landed = self._landed.setdefault(unit.cell_index, {})
        landed[unit.shard_index] = outcome
        if len(landed) < unit.shard_count:
            return None
        del self._landed[unit.cell_index]
        return merge_cell_outcomes(
            self.cells[unit.cell_index],
            [landed[shard_index] for shard_index in range(unit.shard_count)],
        )

    def shard_event(self, unit_index: int, outcome: CellOutcome) -> CellCompleted:
        """The sub-progress event of one finished shard of a split cell."""
        unit = self.units[unit_index]
        return CellCompleted(
            unit.cell_index,
            len(self.cells),
            outcome,
            self.backend,
            unit.shard_index,
            unit.shard_count,
        )

    def cell_event(self, cell_index: int, outcome: CellOutcome) -> CellCompleted:
        """The completion event of one whole cell."""
        return CellCompleted(cell_index, len(self.cells), outcome, self.backend)

    def beat_event(
        self, unit_index: int, beat: "Heartbeat", attempt: int = 0
    ) -> ShardProgress:
        """The in-flight event of one heartbeat from inside a unit."""
        unit = self.units[unit_index]
        split = unit.shard_count > 1
        return ShardProgress(
            index=unit.cell_index,
            total=len(self.cells),
            backend=self.backend,
            cell=unit.cell,
            heartbeat=beat,
            shard_index=unit.shard_index if split else None,
            shard_count=unit.shard_count if split else None,
            attempt=attempt,
        )

    def gather(
        self,
        outcomes: Iterable[CellOutcome],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        """Land every unit's outcome (``outcomes`` in unit order), emitting
        shard and cell events; returns the merged outcomes in cell order."""
        merged: List[Optional[CellOutcome]] = [None] * len(self.cells)
        for unit_index, outcome in enumerate(outcomes):
            unit = self.units[unit_index]
            if progress is not None and unit.shard_count > 1:
                progress(self.shard_event(unit_index, outcome))
            whole = self.finish(unit_index, outcome)
            if whole is not None:
                merged[unit.cell_index] = whole
                if progress is not None:
                    progress(self.cell_event(unit.cell_index, whole))
        return tuple(merged)  # type: ignore[arg-type]


def _run_unit(
    execute: Callable[[ExecutionCell], CellOutcome],
    cell: ExecutionCell,
    interval: Optional[int],
    ship: Callable[["Heartbeat"], None],
) -> CellOutcome:
    """Execute one unit, shipping a heartbeat every ``interval`` rounds.

    The no-op fast path: without an interval this is exactly
    ``execute(cell)`` — no emitter is built and the engines see
    ``current_heartbeat() is None``.
    """
    if interval is None:
        return execute(cell)
    from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

    with use_heartbeat(HeartbeatEmitter(interval, ship)):
        return execute(cell)


class _InlineBackend(ExecutionBackend):
    """The two in-process backends: a plan's units run inline, in order."""

    #: Worker count used by the ``"auto"`` shard-size rule (in-process
    #: backends execute one unit at a time, so auto never splits for them).
    workers: int = 1

    def _execute(self, cell: ExecutionCell) -> CellOutcome:  # pragma: no cover
        raise NotImplementedError

    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        plan = ShardPlan(
            cells, self.name, self.shard_size, self.workers, self.kernel
        ).split_all()
        interval = None if progress is None else self.heartbeat_interval
        return plan.gather(
            (
                _run_unit(
                    self._execute,
                    unit.cell,
                    interval,
                    lambda beat, index=index: progress(plan.beat_event(index, beat)),
                )
                for index, unit in enumerate(plan.units)
            ),
            progress,
        )


class SequentialBackend(_InlineBackend):
    """One seeded single-replica run per seed — the reference semantics.

    ``kernel`` is kept for spec-threading symmetry: the sequential executor
    is the kernel-independent reference, so the setting only rides along
    on cells (engines it runs have no kernel seam).
    """

    name = "sequential"

    def _execute(self, cell: ExecutionCell) -> CellOutcome:
        return execute_cell_sequential(cell)


class BatchedBackend(_InlineBackend):
    """All replicas of each cell advance in one batched state array."""

    name = "batched"

    def _execute(self, cell: ExecutionCell) -> CellOutcome:
        return execute_cell_batched(cell)


#: Per-worker heartbeat wiring, set by the pool initializer.  Module
#: state (not closure state) because spawn workers import this module fresh
#: and can only receive picklable initargs.
_WORKER_HEARTBEAT: Dict[str, object] = {"interval": None, "queue": None}


def _init_worker_heartbeat(interval: Optional[int], beat_queue: object) -> None:
    """Pool initializer: arm (or disarm) heartbeats inside a spawned worker."""
    _WORKER_HEARTBEAT["interval"] = interval
    _WORKER_HEARTBEAT["queue"] = beat_queue


def _execute_unit_in_worker(unit: Tuple[int, ExecutionCell]) -> CellOutcome:
    """Worker entry point: the batched cell path, importable by spawn.

    With heartbeats armed, beats ship over the shared queue tagged with the
    flat unit index; the parent's plan maps that back to (cell, shard) —
    the worker knows nothing about sweep structure.  Queue failures drop
    the beat: heartbeats are best-effort observability and must never fail
    a shard.
    """
    unit_index, cell = unit
    beat_queue = _WORKER_HEARTBEAT["queue"]

    def ship(beat) -> None:
        try:
            beat_queue.put_nowait((unit_index, beat))  # type: ignore[union-attr]
        except Exception:
            pass

    return _run_unit(
        execute_cell_batched, cell, _WORKER_HEARTBEAT["interval"], ship  # type: ignore[arg-type]
    )


class ProcessBackend(ExecutionBackend):
    """Shard cells — and, with ``shard_size``, seed lists — across a pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to the machine's CPU count.  The pool never
        exceeds the number of work units (shards plus unsplit cells), so no
        idle processes are spawned.
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``"spawn"``, which
        works on every platform and proves the cells are pure-data; pass
        ``"fork"`` on POSIX to trade that guarantee for cheaper startup.
    shard_size:
        Maximum seeds per work unit.  ``None`` (default) keeps whole cells;
        ``"auto"`` resolves to ``ceil(R / workers)`` per cell, splitting
        every cell into exactly as many shards as there are workers — the
        fix for the one-cell/one-core defect: a single montecarlo cell with
        thousands of replicas saturates the pool instead of pinning one
        core.

    Each worker executes the batched cell path, so per-cell results are the
    batched engine's — replica-for-replica identical to the sequential
    loop.  ``imap`` keeps delivery (and therefore record order, shard-merge
    order and progress events) in deterministic unit order regardless of
    which worker finishes first.  ``last_pool_size`` records the pool size
    of the most recent run (what the clamp regression test reads).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: str = "spawn",
        shard_size: ShardSize = None,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ):
        if workers is None:
            workers = max(1, os.cpu_count() or 1)
        if int(workers) < 1:
            raise ConfigurationError(f"workers must be >= 1; got {workers}")
        self.workers = int(workers)
        self.mp_context = mp_context
        # Cells are stamped with the kernel default before they ship to
        # the pool, so each spawn worker resolves (and JIT-compiles) its
        # kernel once per process — numba's cache=True makes the second
        # and later workers load the on-disk artifact instead.
        super().__init__(shard_size, heartbeat_interval, kernel)
        self.name = f"process:{self.workers}"
        self.last_pool_size: Optional[int] = None

    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        plan = ShardPlan(
            cells, self.name, self.shard_size, self.workers, self.kernel
        ).split_all()
        if not plan.units:
            return ()
        pool_size = min(self.workers, len(plan.units))
        self.last_pool_size = pool_size
        context = multiprocessing.get_context(self.mp_context)

        # In-flight heartbeats: workers ship (unit_index, Heartbeat) pairs
        # over one shared queue; a parent drain thread turns them into
        # ShardProgress events.  The emit lock keeps heartbeat delivery
        # from interleaving with the ordered CellCompleted emissions.
        heartbeating = self.heartbeat_interval is not None and progress is not None
        beat_queue = context.Queue() if heartbeating else None
        emit_lock = threading.Lock()
        stop_drain = threading.Event()
        drain_thread: Optional[threading.Thread] = None
        if heartbeating:

            def _drain() -> None:
                while True:
                    try:
                        unit_index, beat = beat_queue.get(timeout=0.05)
                    except queue_module.Empty:
                        if stop_drain.is_set():
                            return
                        continue
                    except (EOFError, OSError):  # queue torn down under us
                        return
                    with emit_lock:
                        try:
                            progress(plan.beat_event(unit_index, beat))
                        except Exception:
                            # A raising hook must not kill in-flight
                            # delivery; completed-event errors still
                            # propagate through the main loop below.
                            pass

            drain_thread = threading.Thread(
                target=_drain, name="repro-heartbeat-drain", daemon=True
            )
            drain_thread.start()

        def ordered(event) -> None:
            with emit_lock:
                progress(event)  # type: ignore[misc]

        try:
            with context.Pool(
                processes=pool_size,
                initializer=_init_worker_heartbeat,
                initargs=(
                    self.heartbeat_interval if heartbeating else None,
                    beat_queue,
                ),
            ) as pool:
                return plan.gather(
                    pool.imap(
                        _execute_unit_in_worker,
                        [(index, unit.cell) for index, unit in enumerate(plan.units)],
                        chunksize=1,
                    ),
                    None if progress is None else ordered,
                )
        finally:
            if beat_queue is not None:
                # Workers are done; anything still queued is drained (the
                # loop only exits on Empty after the stop flag), then the
                # queue's feeder thread is released.
                stop_drain.set()
                if drain_thread is not None:
                    drain_thread.join(timeout=5.0)
                beat_queue.close()
                beat_queue.cancel_join_thread()


def resolve_backend(
    spec: BackendSpec = None,
    default: BackendSpec = "sequential",
    shard_size: ShardSize = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> ExecutionBackend:
    """Turn a backend instance or spec string into a backend object.

    Accepted spec strings: ``"sequential"``, ``"batched"``, ``"process"``
    (CPU-count workers), ``"process:N"`` and ``"service:URL"`` (execute on
    a remote sweep-service daemon, see :mod:`repro.service`).  ``None``
    resolves to ``default``, so entry points can keep their historical
    default while accepting explicit overrides.  ``shard_size`` (an int,
    ``"auto"`` or ``None`` to leave the backend's own setting alone) is
    applied to the resolved backend — including instances passed in
    directly, so CLI ``--shard-size`` composes with any ``--backend``.
    ``heartbeat_interval`` (a positive round count, or ``None`` to leave
    the backend's own setting alone) composes the same way and turns on
    in-flight :class:`~repro.exec.base.ShardProgress` events.  ``kernel``
    (a :mod:`repro.batch.kernels` spec, or ``None`` to leave the
    backend's own setting alone) sets the backend's default round kernel,
    stamped onto cells that do not choose their own — what CLI
    ``--kernel`` resolves through.
    """
    if spec is None:
        spec = default
    resolved: Optional[ExecutionBackend] = None
    if isinstance(spec, ExecutionBackend):
        resolved = spec
    elif isinstance(spec, str):
        name, _, argument = spec.strip().partition(":")
        name = name.lower()
        if name == "sequential" and not argument:
            resolved = SequentialBackend()
        elif name == "batched" and not argument:
            resolved = BatchedBackend()
        elif name == "process":
            if not argument:
                resolved = ProcessBackend()
            else:
                try:
                    workers = int(argument)
                except ValueError:
                    raise ConfigurationError(
                        f"invalid worker count {argument!r} in backend spec "
                        f"{spec!r}"
                    ) from None
                resolved = ProcessBackend(workers=workers)
        elif name == "service":
            if not argument.strip():
                raise ConfigurationError(
                    f"backend spec {spec!r} is missing the daemon URL; "
                    f"expected 'service:URL', e.g. "
                    f"'service:http://127.0.0.1:8123'"
                )
            # Imported lazily: the client pulls in urllib/wire machinery
            # that local-only sweeps never need.
            from repro.service.client import ServiceBackend

            resolved = ServiceBackend(argument)
    if resolved is None:
        raise ConfigurationError(
            f"unknown execution backend {spec!r}; expected an ExecutionBackend "
            f"instance or one of 'sequential', 'batched', 'process[:N]', "
            f"'service:URL'"
        )
    resolved.configure(shard_size, heartbeat_interval, kernel)
    return resolved
