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
cell.  Shards and whole small cells interleave in one work-unit list, and
the pool is clamped to the number of work units, never spawning idle
processes.

:func:`resolve_backend` turns a backend instance or a spec string
(``"sequential"``, ``"batched"``, ``"process"``, ``"process:4"``) into a
backend object.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.batch.kernels import validate_kernel
from repro.errors import ConfigurationError
from repro.exec.base import (
    ExecutionBackend,
    ProgressHook,
    ShardProgress,
    emit_progress,
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

#: What a caller may pass as ``backend=``: an instance, a spec string, or
#: ``None`` for the entry point's default.
BackendSpec = Union[ExecutionBackend, str, None]


def _validate_shard_size(shard_size: ShardSize) -> ShardSize:
    """Check a shard-size setting once at construction time.

    ``"auto"`` stays symbolic (it resolves per cell against the worker
    count); integers are normalised and validated here so a bad setting
    fails fast instead of mid-sweep.
    """
    if shard_size is None:
        return None
    # Delegate validation; a symbolic "auto" resolves differently per cell,
    # so only the integer result of a non-auto setting is kept.
    resolved = resolve_shard_size(shard_size, num_replicas=1, workers=1)
    if isinstance(shard_size, str) and shard_size.strip().lower() == "auto":
        return "auto"
    return resolved


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


def _validate_kernel(kernel: Optional[str]) -> Optional[str]:
    """Check a backend-level kernel default once at construction time.

    ``None`` leaves cells untouched (engines resolve their own
    ``"auto"``); anything else must be a valid kernel spec.  Like the
    cell field, availability is checked in the executing process, not
    here — a client without numba may still target numba workers.
    """
    return validate_kernel(kernel)


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


class _InProcessShardingMixin:
    """Shared sharded run loop for the two in-process backends."""

    shard_size: ShardSize = None
    heartbeat_interval: Optional[int] = None
    kernel: Optional[str] = None
    #: Worker count used by the ``"auto"`` shard-size rule (in-process
    #: backends execute one unit at a time, so auto never splits for them).
    workers: int = 1

    def _execute(self, cell: ExecutionCell) -> CellOutcome:  # pragma: no cover
        raise NotImplementedError

    def _execute_observed(
        self,
        shard: ExecutionCell,
        progress: Optional[ProgressHook],
        index: int,
        total: int,
        shard_index: Optional[int],
        shard_count: Optional[int],
    ) -> CellOutcome:
        """Execute one unit, streaming heartbeats to ``progress`` if enabled.

        The no-op fast path: without an interval (or without a hook to
        deliver to) this is exactly ``self._execute(shard)`` — no emitter
        is built and the engines see ``current_heartbeat() is None``.
        """
        if self.heartbeat_interval is None or progress is None:
            return self._execute(shard)
        from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

        def ship(beat) -> None:
            progress(
                ShardProgress(
                    index=index,
                    total=total,
                    backend=self.name,
                    cell=shard,
                    heartbeat=beat,
                    shard_index=shard_index,
                    shard_count=shard_count,
                )
            )

        emitter = HeartbeatEmitter(self.heartbeat_interval, ship)
        with use_heartbeat(emitter):
            return self._execute(shard)

    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        cells = tuple(cells)
        outcomes = []
        for index, cell in enumerate(cells):
            cell = _stamp_kernel(cell, self.kernel)
            size = resolve_shard_size(
                self.shard_size, cell.num_replicas, self.workers
            )
            shards = split_cell(cell, size)
            shard_outcomes = []
            for shard_index, shard in enumerate(shards):
                shard_outcome = self._execute_observed(
                    shard,
                    progress,
                    index,
                    len(cells),
                    shard_index if len(shards) > 1 else None,
                    len(shards) if len(shards) > 1 else None,
                )
                shard_outcomes.append(shard_outcome)
                if len(shards) > 1:
                    emit_progress(
                        progress,
                        index,
                        len(cells),
                        shard_outcome,
                        self.name,
                        shard_index=shard_index,
                        shard_count=len(shards),
                    )
            outcome = merge_cell_outcomes(cell, shard_outcomes)
            outcomes.append(outcome)
            emit_progress(progress, index, len(cells), outcome, self.name)
        return tuple(outcomes)


class SequentialBackend(_InProcessShardingMixin, ExecutionBackend):
    """One seeded single-replica run per seed — the reference semantics."""

    name = "sequential"

    def __init__(
        self,
        shard_size: ShardSize = None,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ):
        self.shard_size = _validate_shard_size(shard_size)
        self.heartbeat_interval = _validate_heartbeat_interval(heartbeat_interval)
        # Kept for spec-threading symmetry: the sequential executor is the
        # kernel-independent reference, so the setting only rides along on
        # cells (engines it runs have no kernel seam).
        self.kernel = _validate_kernel(kernel)

    def _execute(self, cell: ExecutionCell) -> CellOutcome:
        return execute_cell_sequential(cell)


class BatchedBackend(_InProcessShardingMixin, ExecutionBackend):
    """All replicas of each cell advance in one batched state array."""

    name = "batched"

    def __init__(
        self,
        shard_size: ShardSize = None,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ):
        self.shard_size = _validate_shard_size(shard_size)
        self.heartbeat_interval = _validate_heartbeat_interval(heartbeat_interval)
        self.kernel = _validate_kernel(kernel)

    def _execute(self, cell: ExecutionCell) -> CellOutcome:
        return execute_cell_batched(cell)


def _execute_cell_in_worker(cell: ExecutionCell) -> CellOutcome:
    """Worker entry point: the batched cell path, importable by spawn."""
    return execute_cell_batched(cell)


#: Per-worker heartbeat wiring, populated by the pool initializer.  Module
#: state (not closure state) because spawn workers import this module fresh
#: and can only receive picklable initargs.
_WORKER_HEARTBEAT: Dict[str, object] = {"interval": None, "queue": None}


def _init_worker_heartbeat(interval: int, beat_queue: object) -> None:
    """Pool initializer: arm heartbeats inside a spawned worker."""
    _WORKER_HEARTBEAT["interval"] = interval
    _WORKER_HEARTBEAT["queue"] = beat_queue


def _execute_unit_in_worker(unit: Tuple[int, ExecutionCell]) -> CellOutcome:
    """Worker entry point with heartbeats: ships beats over the shared queue.

    Beats are tagged with the flat unit index; the parent maps that back to
    (cell, shard) — the worker knows nothing about sweep structure.  Queue
    failures drop the beat: heartbeats are best-effort observability and
    must never fail a shard.
    """
    unit_index, cell = unit
    interval = _WORKER_HEARTBEAT["interval"]
    beat_queue = _WORKER_HEARTBEAT["queue"]
    if interval is None or beat_queue is None:
        return execute_cell_batched(cell)
    from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

    def ship(beat) -> None:
        try:
            beat_queue.put_nowait((unit_index, beat))  # type: ignore[attr-defined]
        except Exception:
            pass

    with use_heartbeat(HeartbeatEmitter(int(interval), ship)):
        return execute_cell_batched(cell)


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
        self.shard_size = _validate_shard_size(shard_size)
        self.heartbeat_interval = _validate_heartbeat_interval(heartbeat_interval)
        # Cells are stamped with this default before they ship to the
        # pool, so each spawn worker resolves (and JIT-compiles) its
        # kernel once per process — numba's cache=True makes the second
        # and later workers load the on-disk artifact instead.
        self.kernel = _validate_kernel(kernel)
        self.name = f"process:{self.workers}"
        self.last_pool_size: Optional[int] = None

    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        cells = tuple(cells)
        if not cells:
            return ()
        # Flatten cells into work units: (cell index, shard index, shard
        # count, sub-cell), in cell order then shard order.  Whole small
        # cells and the shards of large ones interleave in one list, so the
        # pool drains them without idling on a long tail.
        units: List[Tuple[int, int, int, ExecutionCell]] = []
        stamped = tuple(_stamp_kernel(cell, self.kernel) for cell in cells)
        for cell_index, cell in enumerate(stamped):
            size = resolve_shard_size(
                self.shard_size, cell.num_replicas, self.workers
            )
            shards = split_cell(cell, size)
            for shard_index, shard in enumerate(shards):
                units.append((cell_index, shard_index, len(shards), shard))
        pool_size = min(self.workers, len(units))
        self.last_pool_size = pool_size
        context = multiprocessing.get_context(self.mp_context)

        # In-flight heartbeats: workers ship (unit_index, Heartbeat) pairs
        # over one shared queue; a parent drain thread maps the unit index
        # back to (cell, shard) and forwards ShardProgress events.  The
        # emit lock keeps heartbeat delivery from interleaving with the
        # ordered CellCompleted emissions of the main result loop.
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
                    cell_index, shard_index, shard_count, shard = units[unit_index]
                    event = ShardProgress(
                        index=cell_index,
                        total=len(cells),
                        backend=self.name,
                        cell=shard,
                        heartbeat=beat,
                        shard_index=shard_index if shard_count > 1 else None,
                        shard_count=shard_count if shard_count > 1 else None,
                    )
                    with emit_lock:
                        try:
                            progress(event)
                        except Exception:
                            # A raising hook must not kill in-flight
                            # delivery; completed-event errors still
                            # propagate through the main loop below.
                            pass

            drain_thread = threading.Thread(
                target=_drain, name="repro-heartbeat-drain", daemon=True
            )
            drain_thread.start()

        outcomes = []
        pending: Dict[int, List[CellOutcome]] = {}
        try:
            with context.Pool(
                processes=pool_size,
                initializer=_init_worker_heartbeat if heartbeating else None,
                initargs=(
                    (self.heartbeat_interval, beat_queue) if heartbeating else ()
                ),
            ) as pool:
                results = (
                    pool.imap(
                        _execute_unit_in_worker,
                        [
                            (unit_index, unit[3])
                            for unit_index, unit in enumerate(units)
                        ],
                        chunksize=1,
                    )
                    if heartbeating
                    else pool.imap(
                        _execute_cell_in_worker,
                        [unit[3] for unit in units],
                        chunksize=1,
                    )
                )
                for (cell_index, shard_index, shard_count, _), shard_outcome in zip(
                    units, results
                ):
                    if shard_count > 1:
                        with emit_lock:
                            emit_progress(
                                progress,
                                cell_index,
                                len(cells),
                                shard_outcome,
                                self.name,
                                shard_index=shard_index,
                                shard_count=shard_count,
                            )
                    pending.setdefault(cell_index, []).append(shard_outcome)
                    if shard_index == shard_count - 1:
                        # imap delivers in unit order, so a cell's shards
                        # arrive consecutively; its last shard completes
                        # the cell.
                        outcome = merge_cell_outcomes(
                            stamped[cell_index], pending.pop(cell_index)
                        )
                        outcomes.append(outcome)
                        with emit_lock:
                            emit_progress(
                                progress, cell_index, len(cells), outcome, self.name
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
        return tuple(outcomes)


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
    if shard_size is not None:
        resolved.shard_size = _validate_shard_size(shard_size)
    if heartbeat_interval is not None:
        resolved.heartbeat_interval = _validate_heartbeat_interval(
            heartbeat_interval
        )
    if kernel is not None:
        resolved.kernel = _validate_kernel(kernel)
    return resolved
