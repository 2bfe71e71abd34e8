"""The sweep-service daemon: an HTTP front over a shard-job worker pool.

:class:`SweepService` turns the execution layer into "repro as a service":
clients POST sweeps of :class:`~repro.exec.ExecutionCell` specs, the
daemon splits each uncached cell into shard jobs with the same
:class:`~repro.exec.backends.ShardPlan` every local backend uses, a pool
of worker threads executes them through the in-process batched executor,
and the plan merges the shard outcomes back byte-identically — the same
parity contract every local backend honours, now across an HTTP
boundary.

HTTP API (all JSON, see :mod:`repro.service.wire`):

===========================================  =====================================
``POST /sweeps``                             submit ``{"cells": [...specs...],
                                             "shard_size": null|int|"auto",
                                             "heartbeat_interval": null|int}``;
                                             returns ``{"id": ...}``
``GET /sweeps``                              list all sweeps (id, state, progress)
``GET /sweeps/{id}``                         status incl. live per-shard progress
                                             rows (+ flattened records once done)
``GET /sweeps/{id}/events?cursor=N``         long-poll progress stream; records use
                                             the telemetry JSONL schema (including
                                             in-flight ``"progress"`` heartbeats),
                                             so ``repro tail --url`` renders them
                                             with the file-mode renderer
``GET /sweeps/{id}/outcomes?cells=i,j,k``    completed cells' byte-exact
                                             :class:`~repro.exec.CellOutcome`
                                             payloads in one response,
                                             ``{"id", "outcomes": [{"cell",
                                             "cached", "outcome"}, ...]}``;
                                             cache hits ship the stored
                                             payload without re-encoding
``GET /sweeps/{id}/outcomes?cell=K``         the one-cell case, flattened:
                                             ``{"id", "cell", "cached",
                                             "outcome"}``
``GET /sweeps/{id}/spans``                   the sweep's span tree (sweep → cell →
                                             shard → attempt), for
                                             ``repro trace export``
``POST /sweeps/{id}/cancel``                 stop scheduling the sweep's shards
``GET /healthz``                             liveness + drain state + version +
                                             uptime
``GET /metrics``                             service counters, cache hit/miss,
                                             merged engine metrics, shard wall-time
                                             histogram; with ``Accept: text/plain``
                                             the same numbers in Prometheus text
                                             exposition format
===========================================  =====================================

Three properties carry the design:

* **determinism first** — every executed shard outcome is stored in a
  content-addressed :class:`~repro.service.cache.ResultCache` keyed by
  :func:`~repro.exec.cell_signature`; identical resubmissions are cache
  hits, and a retried shard whose records differ from the cached first
  attempt fails the sweep loudly instead of silently shipping either copy;
* **fault tolerance by re-queue** — a crashed worker attempt (or one that
  exceeds ``shard_timeout``, caught by the watchdog thread) re-queues the
  shard with a fresh attempt token, up to ``max_retries`` times; stale
  completions from superseded attempts are discarded by token mismatch.
  With heartbeats enabled the watchdog is **liveness-based**: every beat
  from a shard pushes its deadline forward, so a slow-but-alive shard is
  never killed at ``shard_timeout`` — only shards that go *silent* for a
  full timeout window re-queue;
* **graceful drain** — :meth:`SweepService.stop` refuses new submissions,
  lets in-flight sweeps finish, then joins the workers and closes the
  listener, so a ``SIGTERM`` to ``repro serve`` never loses a sweep.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.batch.kernels import validate_kernel
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.exec.backends import ShardPlan, WorkUnit
from repro.exec.base import (
    _validate_heartbeat_interval,
    _validate_shard_size,
    beat_fields,
    summary_record,
)
from repro.exec.cells import (
    CellOutcome,
    ExecutionCell,
    cell_signature,
    execute_cell_batched,
)
from repro.service.cache import ResultCache
from repro.service.faults import ServiceFaultInjector
from repro.service.prometheus import render_prometheus
from repro.service.wire import (
    JSON_CONTENT_TYPE,
    cells_from_payload,
    dump_json,
    encode_outcome,
    load_json,
)
from repro.telemetry.heartbeat import Heartbeat, HeartbeatEmitter, use_heartbeat
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import SpanRecorder

__all__ = ["SweepService"]

#: Sweep states that no longer schedule work.
_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Hard cap on one long-poll wait, whatever the client asks for.
_MAX_POLL_SECONDS = 30.0

#: Largest ``POST`` body the daemon reads; a longer declared
#: ``Content-Length`` is refused with 413 before any of it is read.
_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Upper edges of the per-shard wall-time histogram (``/metrics``); the
#: implicit last bucket is +Inf.
_SHARD_WALL_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0)


@dataclass
class _Shard:
    """The service's state for one unit of a sweep's :class:`ShardPlan`:
    cache key, attempt token, retries, watchdog clock and spans."""

    index: int  # position in the plan's units (and in ``_Sweep.shards``)
    unit: WorkUnit
    signature: str
    state: str = "pending"  # pending | running | done
    attempt: int = 0  # token; completions from older attempts are stale
    retries: int = 0  # re-queues consumed (crash or timeout)
    deadline: Optional[float] = None
    last_heartbeat: Optional[Heartbeat] = None
    last_beat_monotonic: Optional[float] = None  # liveness clock
    last_progress_emit: float = 0.0  # event-stream throttle clock
    span_id: Optional[str] = None  # shard span (opened on first attempt)
    attempt_span_id: Optional[str] = None  # current attempt's span


@dataclass
class _Sweep:
    """Book-keeping for one submitted sweep."""

    id: str
    plan: ShardPlan
    outcomes: List[Optional[CellOutcome]]
    cell_cached: List[bool]
    # For cells served from the result cache, the cache's own stored
    # payload string (the same object, not a copy); ``None`` for cells
    # executed here, which are encoded when requested.
    payloads: List[Optional[str]]
    state: str = "running"  # running | done | failed | cancelled
    error: Optional[str] = None
    events: List[Dict[str, object]] = field(default_factory=list)
    created: float = field(default_factory=time.time)
    heartbeat_interval: Optional[int] = None
    spans: SpanRecorder = field(default_factory=SpanRecorder)
    span_id: Optional[str] = None  # the root sweep span
    cell_span_ids: List[Optional[str]] = field(default_factory=list)
    # One entry per unit of ``plan`` (cached cells are never split).
    shards: List[_Shard] = field(default_factory=list)

    @property
    def cells(self) -> Tuple[ExecutionCell, ...]:
        return self.plan.cells

    @property
    def completed_cells(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome is not None)


class SweepService:
    """The daemon behind ``repro serve`` (and the in-process test fixture).

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`url` / :attr:`port` after :meth:`start`).
    workers:
        Worker threads executing shard jobs.
    max_retries:
        Re-queues allowed per shard before the whole sweep fails.
    shard_timeout:
        Seconds a running shard attempt may take before the watchdog
        re-queues it (``None`` disables the watchdog's timeout path).
    cache_dir:
        Directory for the result cache; ``None`` uses a private temporary
        store that lives with the daemon.
    default_shard_size:
        Shard size applied when a submission does not specify one
        (``None`` | positive int | ``"auto"`` = ``ceil(R / workers)``).
    fault_injector:
        Optional :class:`~repro.service.faults.ServiceFaultInjector`
        consulted at the start of every shard attempt (testing only).
    heartbeat_interval:
        Default in-flight heartbeat interval (engine rounds between
        beats) for submitted sweeps; ``None`` disables heartbeats unless
        a submission asks for them.  With heartbeats on, each beat
        extends the beating shard's watchdog deadline (liveness), feeds
        the per-shard progress rows of ``GET /sweeps/{id}``, and emits
        throttled ``"progress"`` records on the event stream.
    progress_throttle:
        Minimum seconds between ``"progress"`` event-stream records per
        shard (heartbeats themselves are never throttled — only the
        event stream is, so a K=1 beat storm cannot flood long-pollers).
    kernel:
        Default round kernel (:mod:`repro.batch.kernels` spec) stamped
        onto submitted cells that do not choose their own; resolved on
        the executing workers, so an explicit ``"numba"`` only needs
        numba importable where shards actually run.  Records are
        kernel-invariant, so the cache keys ignore it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        default_shard_size: object = None,
        fault_injector: Optional[ServiceFaultInjector] = None,
        heartbeat_interval: Optional[int] = None,
        progress_throttle: float = 0.25,
        kernel: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"worker count must be >= 1; got {workers}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0; got {max_retries}"
            )
        self.host = host
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.shard_timeout = shard_timeout
        self.default_shard_size = _validate_shard_size(default_shard_size)
        self.fault_injector = fault_injector
        self.heartbeat_interval = _validate_heartbeat_interval(heartbeat_interval)
        self.progress_throttle = float(progress_throttle)
        self.kernel = validate_kernel(kernel)
        self.cache = ResultCache(cache_dir)

        self._requested_port = int(port)
        self._lock = threading.RLock()
        self._condition = threading.Condition(self._lock)
        self._sweeps: Dict[str, _Sweep] = {}
        self._queue: "queue.Queue[Tuple[str, int, int]]" = queue.Queue()
        self._metrics = MetricsRegistry()  # guarded by self._lock
        self._engine_metrics: Optional[Dict[str, Dict[str, float]]] = None
        self._stop_event = threading.Event()
        self._draining = False
        self._started = False
        self._started_monotonic: Optional[float] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        # Per-shard wall-time histogram (executed shards only; guarded by
        # self._lock).  Counts are kept cumulative per bucket, matching
        # the Prometheus exposition directly.
        self._shard_wall_sum = 0.0
        self._shard_wall_count = 0
        self._shard_wall_counts = [0] * (len(_SHARD_WALL_BUCKETS) + 1)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (ephemeral ports resolve after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL clients point ``service:URL`` specs at."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SweepService":
        """Bind the listener and boot the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._started_monotonic = time.monotonic()
        self._httpd = _ServiceHTTPServer(
            (self.host, self._requested_port), _ServiceRequestHandler
        )
        self._httpd.service = self
        for target, name in [
            (self._httpd.serve_forever, "repro-service-http"),
            (self._watchdog_loop, "repro-service-watchdog"),
        ]:
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the daemon down; with ``drain`` let running sweeps finish.

        New submissions are refused (HTTP 503) the moment this is called.
        Without ``drain`` (or once ``timeout`` passes) still-running sweeps
        are cancelled before the workers are joined.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            self._draining = True
            if drain:
                while any(
                    sweep.state not in _TERMINAL_STATES
                    for sweep in self._sweeps.values()
                ):
                    remaining = 0.5
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.monotonic())
                        if remaining <= 0:
                            break
                    self._condition.wait(remaining)
            for sweep in self._sweeps.values():
                if sweep.state not in _TERMINAL_STATES:
                    sweep.state = "cancelled"
                    sweep.error = "service shut down before the sweep finished"
            self._stop_event.set()
            self._condition.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        self.cache.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=False)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        cells: Sequence[ExecutionCell],
        shard_size: object = None,
        heartbeat_interval: object = None,
        kernel: object = None,
    ) -> str:
        """Enqueue a sweep; returns its id.

        Per-cell, the result cache is consulted first (an identical earlier
        submission completes the cell instantly); misses are split into
        shard jobs and handed to the worker pool.  ``heartbeat_interval``
        overrides the service default for this sweep (``None`` inherits);
        ``kernel`` likewise, stamped onto cells without their own (a
        cell's explicit kernel always wins, and cache signatures ignore
        the kernel either way).
        """
        cells = tuple(cells)
        if not cells:
            raise ConfigurationError("a sweep needs at least one cell")
        interval = (
            _validate_heartbeat_interval(heartbeat_interval)
            or self.heartbeat_interval
        )
        # The plan validates the shard size, so a refused submission is
        # refused before anything is registered.
        plan = ShardPlan(
            cells,
            "service",
            self.default_shard_size if shard_size is None else shard_size,
            self.workers,
            validate_kernel(None if kernel is None else str(kernel)) or self.kernel,
        )
        with self._condition:
            if self._draining:
                raise ServiceError("service is draining; not accepting sweeps")
            sweep = _Sweep(
                id=uuid.uuid4().hex[:12],
                plan=plan,
                outcomes=[None for _ in cells],
                cell_cached=[False for _ in cells],
                payloads=[None for _ in cells],
                heartbeat_interval=interval,
            )
            sweep.span_id = sweep.spans.begin(
                "sweep", f"sweep {sweep.id}", attrs={"cells": len(cells)}
            )
            sweep.cell_span_ids = [
                sweep.spans.begin(
                    "cell",
                    f"cell {cell_index}: {cell.protocol.label} on "
                    f"{cell.graph.label}",
                    parent_id=sweep.span_id,
                    attrs={
                        "cell": cell_index,
                        "protocol": cell.protocol.label,
                        "graph": cell.graph.label,
                        "replicas": cell.num_replicas,
                    },
                )
                for cell_index, cell in enumerate(plan.cells)
            ]
            self._sweeps[sweep.id] = sweep
            self._metrics.count("service.sweeps_submitted")
            self._metrics.count("service.cells_submitted", len(cells))
            for cell_index, cell in enumerate(plan.cells):
                signature = cell_signature(cell)
                entry = self.cache.get_entry(signature)
                if entry is not None:
                    cached, sweep.payloads[cell_index] = entry
                    sweep.outcomes[cell_index] = cached
                    sweep.cell_cached[cell_index] = True
                    sweep.spans.finish(
                        sweep.cell_span_ids[cell_index], attrs={"cached": True}
                    )
                    self._emit_cell_event(sweep, cell_index, cached, True, 0)
                    continue
                for index in plan.split(cell_index):
                    unit = plan.units[index]
                    sweep.shards.append(
                        _Shard(
                            index=index,
                            unit=unit,
                            signature=(
                                signature
                                if unit.cell is cell
                                else cell_signature(unit.cell)
                            ),
                        )
                    )
                    self._queue.put((sweep.id, index, 0))
            self._finish_if_complete(sweep)
            self._condition.notify_all()
            return sweep.id

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                job = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._run_one(*job)
            except BaseException:  # never let a worker thread die silently
                traceback.print_exc()

    def _current(
        self, sweep_id: str, index: int, attempt: int, state: str = "running"
    ) -> Optional[Tuple[_Sweep, _Shard]]:
        """The live sweep and shard an attempt in ``state`` reports on, or
        ``None`` for a finished sweep or a superseded attempt (lock held)."""
        sweep = self._sweeps.get(sweep_id)
        if sweep is None or sweep.state in _TERMINAL_STATES:
            return None
        shard = sweep.shards[index]
        if shard.attempt != attempt or shard.state != state:
            return None
        return sweep, shard

    def _run_one(self, sweep_id: str, index: int, attempt: int) -> None:
        with self._lock:
            current = self._current(sweep_id, index, attempt, "pending")
            if current is None:
                return  # superseded by a re-queue, or already finished
            sweep, shard = current
            shard.state = "running"
            if self.shard_timeout is not None:
                shard.deadline = time.monotonic() + self.shard_timeout
            unit = shard.unit
            cell_index, shard_index = unit.cell_index, unit.shard_index
            interval = sweep.heartbeat_interval
            if shard.span_id is None:
                shard.span_id = sweep.spans.begin(
                    "shard",
                    f"cell {cell_index} shard {shard_index}",
                    parent_id=sweep.cell_span_ids[cell_index],
                    attrs={
                        "cell": cell_index,
                        "shard": shard_index,
                        "shards": unit.shard_count,
                        "replicas": unit.cell.num_replicas,
                    },
                )
            attempt_attrs: Dict[str, object] = {
                "cell": cell_index,
                "shard": shard_index,
                "attempt": attempt,
            }
            if shard.attempt_span_id is not None:
                # Link the retry chain: this attempt supersedes the last.
                attempt_attrs["retry_of"] = shard.attempt_span_id
            shard.attempt_span_id = sweep.spans.begin(
                "attempt",
                f"cell {cell_index} shard {shard_index} attempt {attempt}",
                parent_id=shard.span_id,
                attrs=attempt_attrs,
            )
        emitter = None
        if interval is not None:
            emitter = HeartbeatEmitter(
                interval,
                lambda beat: self._note_heartbeat(sweep_id, index, attempt, beat),
            )
        from_cache = False
        try:
            with use_heartbeat(emitter):
                if self.fault_injector is not None:
                    self.fault_injector.on_attempt(
                        sweep_id, cell_index, shard_index, attempt
                    )
                outcome = self.cache.get(shard.signature)
                if outcome is not None:
                    from_cache = True
                else:
                    outcome = execute_cell_batched(unit.cell)
        except Exception as error:
            self._shard_failed(sweep_id, index, attempt, error)
            return
        self._shard_done(sweep_id, index, attempt, outcome, from_cache)

    def _note_heartbeat(
        self, sweep_id: str, index: int, attempt: int, beat: Heartbeat
    ) -> None:
        """Absorb one in-flight beat from a worker's engine (sink callback).

        Beats are liveness *and* progress: the shard's watchdog deadline
        is pushed a full ``shard_timeout`` into the future (a beating
        shard is alive however slow it is), the latest beat is stored for
        the status payload, and — throttled per shard — a ``"progress"``
        record lands on the event stream.
        """
        with self._condition:
            current = self._current(sweep_id, index, attempt)
            if current is None:
                return  # beat from a superseded or finished attempt
            sweep, shard = current
            now = time.monotonic()
            shard.last_heartbeat = beat
            shard.last_beat_monotonic = now
            if self.shard_timeout is not None:
                shard.deadline = now + self.shard_timeout
            self._metrics.count("service.heartbeats")
            if now - shard.last_progress_emit < self.progress_throttle:
                return
            shard.last_progress_emit = now
            sweep.events.append(
                sweep.plan.beat_event(index, beat, attempt).to_record()
            )
            self._condition.notify_all()

    def _shard_failed(
        self, sweep_id: str, index: int, attempt: int, error: Exception
    ) -> None:
        with self._condition:
            current = self._current(sweep_id, index, attempt)
            if current is None:
                return  # a newer attempt owns this shard now
            sweep, shard = current
            self._requeue_or_fail(sweep, shard, f"{type(error).__name__}: {error}")
            self._condition.notify_all()

    def _requeue_or_fail(
        self, sweep: _Sweep, shard: _Shard, reason: str
    ) -> None:
        """Re-queue a lost shard attempt, or fail the sweep (lock held)."""
        if shard.attempt_span_id is not None:
            sweep.spans.finish(
                shard.attempt_span_id, attrs={"outcome": "lost", "reason": reason}
            )
        shard.last_beat_monotonic = None
        if shard.retries < self.max_retries:
            shard.retries += 1
            shard.attempt += 1
            shard.state = "pending"
            shard.deadline = None
            self._metrics.count("service.shards_retried")
            self._queue.put((sweep.id, shard.index, shard.attempt))
            return
        sweep.state = "failed"
        sweep.error = (
            f"shard {shard.unit.shard_index} of cell {shard.unit.cell_index} "
            f"failed after {shard.retries + 1} attempts: {reason}"
        )
        if sweep.span_id is not None:
            sweep.spans.finish(sweep.span_id, attrs={"error": sweep.error})

    def _shard_done(
        self,
        sweep_id: str,
        index: int,
        attempt: int,
        outcome: CellOutcome,
        from_cache: bool,
    ) -> None:
        with self._condition:
            current = self._current(sweep_id, index, attempt)
            if current is None:
                return  # stale completion from a superseded attempt
            sweep, shard = current
            unit = shard.unit
            if not from_cache:
                self._metrics.count("service.shards_executed")
                self._engine_metrics = merge_snapshots(
                    [self._engine_metrics, outcome.metrics]
                )
                if not self.cache.put(shard.signature, unit.cell, outcome):
                    # A retry produced different records than the cached
                    # first attempt — a determinism violation, never OK.
                    sweep.state = "failed"
                    sweep.error = (
                        f"determinism violation: shard {unit.shard_index} of "
                        f"cell {unit.cell_index} (signature "
                        f"{shard.signature[:12]}) produced records that "
                        f"differ from its cached result"
                    )
                    self._condition.notify_all()
                    return
            shard.state = "done"
            shard.deadline = None
            if shard.attempt_span_id is not None:
                sweep.spans.finish(
                    shard.attempt_span_id,
                    attrs={
                        "outcome": "done",
                        "cached": from_cache,
                        "wall_seconds": outcome.wall_seconds,
                    },
                )
            if shard.span_id is not None:
                sweep.spans.finish(
                    shard.span_id,
                    attrs={"retries": shard.retries, "cached": from_cache},
                )
            if not from_cache and outcome.wall_seconds is not None:
                self._observe_shard_wall(float(outcome.wall_seconds))
            if unit.shard_count > 1:
                sweep.events.append(
                    sweep.plan.shard_event(index, outcome).to_record()
                )
            merged = sweep.plan.finish(index, outcome)
            if merged is not None:
                cell_index = unit.cell_index
                if unit.shard_count > 1:
                    # Cache the whole-cell result too, so resubmitting the
                    # cell hits at submit time without re-merging shards.
                    cell = sweep.cells[cell_index]
                    self.cache.put(cell_signature(cell), cell, merged)
                sweep.outcomes[cell_index] = merged
                first = index - unit.shard_index  # a cell's units are contiguous
                retries = sum(
                    entry.retries
                    for entry in sweep.shards[first:first + unit.shard_count]
                )
                sweep.spans.finish(
                    sweep.cell_span_ids[cell_index],
                    attrs={
                        "wall_seconds": merged.wall_seconds,
                        "rounds_advanced": merged.rounds_advanced,
                        "retries": retries,
                    },
                )
                self._emit_cell_event(sweep, cell_index, merged, False, retries)
            self._finish_if_complete(sweep)
            self._condition.notify_all()

    def _observe_shard_wall(self, seconds: float) -> None:
        """Fold one executed shard's wall time into the histogram (lock held).

        Bucket counts are cumulative (Prometheus ``le`` semantics): a
        2 ms shard increments every bucket whose upper edge covers it.
        """
        self._shard_wall_sum += seconds
        self._shard_wall_count += 1
        for position, edge in enumerate(_SHARD_WALL_BUCKETS):
            if seconds <= edge:
                self._shard_wall_counts[position] += 1
        self._shard_wall_counts[-1] += 1  # the +Inf bucket sees everything

    def _emit_cell_event(
        self,
        sweep: _Sweep,
        cell_index: int,
        outcome: CellOutcome,
        cached: bool,
        retries: int,
    ) -> None:
        """Append one telemetry-schema ``cell`` record (lock held)."""
        sweep.events.append(
            {
                **sweep.plan.cell_event(cell_index, outcome).to_record(),
                "cached": cached,
                "retries": retries,
            }
        )

    def _finish_if_complete(self, sweep: _Sweep) -> None:
        """Mark the sweep done and emit its summary record (lock held)."""
        if sweep.state != "running" or sweep.completed_cells < len(sweep.cells):
            return
        sweep.state = "done"
        if sweep.span_id is not None:
            sweep.spans.finish(
                sweep.span_id, attrs={"cells": len(sweep.cells)}
            )
        wall = [
            outcome.wall_seconds
            for outcome in sweep.outcomes
            if outcome is not None and outcome.wall_seconds is not None
        ]
        sweep.events.append(
            summary_record(
                len(sweep.cells),
                sum(wall),
                sum(
                    outcome.rounds_advanced
                    for outcome in sweep.outcomes
                    if outcome is not None
                ),
            )
        )

    # ------------------------------------------------------------------ #
    # Watchdog: timed-out shard attempts
    # ------------------------------------------------------------------ #

    def _watchdog_loop(self) -> None:
        while not self._stop_event.wait(0.2):
            if self.shard_timeout is None:
                continue
            now = time.monotonic()
            with self._condition:
                for sweep in self._sweeps.values():
                    if sweep.state in _TERMINAL_STATES:
                        continue
                    for shard in sweep.shards:
                        if (
                            shard.state == "running"
                            and shard.deadline is not None
                            and now > shard.deadline
                        ):
                            self._requeue_or_fail(
                                sweep,
                                shard,
                                f"attempt exceeded shard_timeout="
                                f"{self.shard_timeout}s",
                            )
                self._condition.notify_all()

    # ------------------------------------------------------------------ #
    # Queries (what the HTTP handler serves)
    # ------------------------------------------------------------------ #

    def _sweep_or_raise(self, sweep_id: str) -> _Sweep:
        sweep = self._sweeps.get(sweep_id)
        if sweep is None:
            raise KeyError(sweep_id)
        return sweep

    @staticmethod
    def _sweep_summary(sweep: _Sweep) -> Dict[str, object]:
        """The progress counts ``GET /sweeps`` and its items share."""
        return {
            "id": sweep.id,
            "state": sweep.state,
            "cells": len(sweep.cells),
            "completed_cells": sweep.completed_cells,
            "shards": len(sweep.shards),
            "completed_shards": sum(
                1 for shard in sweep.shards if shard.state == "done"
            ),
            "retries": sum(shard.retries for shard in sweep.shards),
        }

    def sweep_status(self, sweep_id: str) -> Dict[str, object]:
        """The ``GET /sweeps/{id}`` payload (records included when done)."""
        with self._lock:
            sweep = self._sweep_or_raise(sweep_id)
            payload: Dict[str, object] = {
                **self._sweep_summary(sweep),
                "cached_cells": sum(sweep.cell_cached),
                "error": sweep.error,
                "created": sweep.created,
                "progress": self._shard_progress_rows(sweep),
            }
            if sweep.state == "done":
                payload["records"] = [
                    record.as_dict()
                    for outcome in sweep.outcomes
                    for record in outcome.to_records()  # type: ignore[union-attr]
                ]
            return payload

    def _shard_progress_rows(self, sweep: _Sweep) -> List[Dict[str, object]]:
        """Live per-shard progress rows for the status payload (lock held).

        One row per not-yet-done shard; rows carry the latest heartbeat
        when the sweep runs with heartbeats, and are empty once a sweep
        reaches a terminal state (there is nothing in flight to show).
        """
        if sweep.state in _TERMINAL_STATES:
            return []
        now = time.monotonic()
        rows: List[Dict[str, object]] = []
        for shard in sweep.shards:
            if shard.state == "done":
                continue
            unit = shard.unit
            row: Dict[str, object] = {
                "cell": unit.cell_index,
                "shard": unit.shard_index,
                "shards": unit.shard_count,
                "state": shard.state,
                "attempt": shard.attempt,
                "retries": shard.retries,
                "replicas": unit.cell.num_replicas,
                "protocol": unit.cell.protocol.label,
                "graph": unit.cell.graph.label,
            }
            if shard.last_heartbeat is not None:
                row.update(beat_fields(shard.last_heartbeat))
            if shard.last_beat_monotonic is not None:
                row["beat_age_seconds"] = now - shard.last_beat_monotonic
            rows.append(row)
        return rows

    def list_sweeps(self) -> Dict[str, object]:
        """The ``GET /sweeps`` payload: every sweep's one-line summary."""
        with self._lock:
            return {
                "sweeps": [
                    {
                        **self._sweep_summary(sweep),
                        "created": sweep.created,
                        "error": sweep.error,
                    }
                    for sweep in sorted(
                        self._sweeps.values(), key=lambda entry: entry.created
                    )
                ]
            }

    def spans_payload(self, sweep_id: str) -> Dict[str, object]:
        """The ``GET /sweeps/{id}/spans`` payload: the sweep's span tree."""
        with self._lock:
            sweep = self._sweep_or_raise(sweep_id)
            spans = sweep.spans.spans()
        return {
            "id": sweep_id,
            "spans": [span.to_record() for span in spans],
        }

    def wait_events(
        self, sweep_id: str, cursor: int = 0, timeout: float = 10.0
    ) -> Dict[str, object]:
        """Long-poll the sweep's event stream from ``cursor``.

        Blocks until at least one new record exists, the sweep reaches a
        terminal state, or the (capped) timeout passes; returns the new
        records plus the cursor to resume from.
        """
        cursor = max(0, int(cursor))
        deadline = time.monotonic() + max(
            0.0, min(float(timeout), _MAX_POLL_SECONDS)
        )
        with self._condition:
            sweep = self._sweep_or_raise(sweep_id)
            while (
                len(sweep.events) <= cursor
                and sweep.state not in _TERMINAL_STATES
                and not self._stop_event.is_set()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(min(remaining, 0.5))
            events = list(sweep.events[cursor:])
            return {
                "cursor": cursor + len(events),
                "events": events,
                "state": sweep.state,
                "done": sweep.state in _TERMINAL_STATES,
                "error": sweep.error,
            }

    def cell_outcomes_payload(
        self, sweep_id: str, cell_indices: Sequence[int]
    ) -> Dict[str, object]:
        """The ``GET /sweeps/{id}/outcomes?cells=i,j,k`` payload.

        Cells served from the result cache ship its stored payload string
        as it is; cells executed by this daemon are encoded here, outside
        the lock, once per request.
        """
        with self._lock:
            sweep = self._sweep_or_raise(sweep_id)
            for cell_index in cell_indices:
                if not 0 <= cell_index < len(sweep.cells):
                    raise ConfigurationError(
                        f"cell index {cell_index} out of range for sweep "
                        f"{sweep_id} with {len(sweep.cells)} cells"
                    )
                if sweep.outcomes[cell_index] is None:
                    raise ServiceError(
                        f"cell {cell_index} of sweep {sweep_id} has not "
                        f"completed yet (sweep state: {sweep.state})"
                    )
            picked = [
                (
                    cell_index,
                    sweep.cell_cached[cell_index],
                    sweep.outcomes[cell_index],
                    sweep.payloads[cell_index],
                )
                for cell_index in cell_indices
            ]
        return {
            "id": sweep_id,
            "outcomes": [
                {
                    "cell": cell_index,
                    "cached": cached,
                    "outcome": (
                        payload if payload is not None
                        else encode_outcome(outcome)  # type: ignore[arg-type]
                    ),
                }
                for cell_index, cached, outcome, payload in picked
            ],
        }

    def cancel(self, sweep_id: str) -> Dict[str, object]:
        """Stop scheduling a sweep's remaining shards (idempotent)."""
        with self._condition:
            sweep = self._sweep_or_raise(sweep_id)
            if sweep.state == "running":
                sweep.state = "cancelled"
                sweep.error = "cancelled by client"
                self._condition.notify_all()
        return self.sweep_status(sweep_id)

    def metrics_payload(self) -> Dict[str, object]:
        """The ``GET /metrics`` payload: service counters + cache + engine."""
        stats = self.cache.stats()
        with self._lock:
            snapshot = self._metrics.snapshot()
            snapshot["counters"]["service.cache_hits"] = stats["hits"]
            snapshot["counters"]["service.cache_misses"] = stats["misses"]
            snapshot["gauges"]["service.workers"] = self.workers
            snapshot["gauges"]["service.sweeps"] = len(self._sweeps)
            snapshot["gauges"]["service.queue_depth"] = self._queue.qsize()
            snapshot["gauges"]["service.shards_running"] = sum(
                1
                for sweep in self._sweeps.values()
                for shard in sweep.shards
                if shard.state == "running"
            )
            if self.heartbeat_interval is not None:
                snapshot["gauges"]["service.heartbeat_interval"] = (
                    self.heartbeat_interval
                )
            buckets: List[Dict[str, object]] = [
                {"le": edge, "count": self._shard_wall_counts[position]}
                for position, edge in enumerate(_SHARD_WALL_BUCKETS)
            ]
            buckets.append({"le": None, "count": self._shard_wall_counts[-1]})
            return {
                "service": snapshot,
                "engine": self._engine_metrics,
                "shard_wall_seconds": {
                    "buckets": buckets,
                    "sum": self._shard_wall_sum,
                    "count": self._shard_wall_count,
                },
            }

    def prometheus_text(self) -> str:
        """The ``/metrics`` body under ``Accept: text/plain``."""
        return render_prometheus(self.metrics_payload(), self.health_payload())

    def health_payload(self) -> Dict[str, object]:
        """The ``GET /healthz`` payload."""
        with self._lock:
            uptime = None
            if self._started_monotonic is not None:
                uptime = time.monotonic() - self._started_monotonic
            return {
                "status": "ok",
                "state": "draining" if self._draining else "serving",
                "sweeps": len(self._sweeps),
                "workers": self.workers,
                "kernel": self.kernel,
                "version": __version__,
                "uptime_seconds": uptime,
            }

    def submit_payload(self, body: bytes) -> Dict[str, object]:
        """Handle a ``POST /sweeps`` body; returns the submission receipt."""
        payload = load_json(body, "sweep submission")
        cells = cells_from_payload(payload.get("cells"))
        shard_size = payload.get("shard_size")
        sweep_id = self.submit(
            cells,
            shard_size=shard_size,
            heartbeat_interval=payload.get("heartbeat_interval"),
            kernel=payload.get("kernel"),
        )
        with self._lock:
            sweep = self._sweeps[sweep_id]
            return {
                "id": sweep_id,
                "cells": len(sweep.cells),
                "shards": len(sweep.shards),
                "cached_cells": sum(sweep.cell_cached),
                "state": sweep.state,
            }


def _cell_index(name: str, value: str, item: str) -> int:
    """One cell index of an outcomes query; 400 (naming it) on junk."""
    try:
        return int(item)
    except ValueError:
        raise ConfigurationError(
            f"{name}={value!r}: {item!r} is not a cell index "
            f"(expected comma-separated non-negative integers)"
        ) from None


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded listener with a back-pointer to the owning service."""

    daemon_threads = True
    allow_reuse_address = True
    service: "SweepService"


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the HTTP API onto :class:`SweepService` methods.

    One request class per route table: errors map to structured JSON
    (``ConfigurationError`` → 400, unknown sweep → 404, draining → 503)
    instead of HTML stack traces.
    """

    protocol_version = "HTTP/1.1"
    server: _ServiceHTTPServer

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (the daemon is not a log)."""

    def _respond(
        self, status: int, payload: Dict[str, object], close: bool = False
    ) -> None:
        body = dump_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: an unread body must not be
            # parsed as the next request on a kept-alive connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, close: bool = False) -> None:
        self._respond(status, {"error": message}, close=close)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering a bad length.

        A negative or non-integer ``Content-Length`` is a 400 and one above
        ``_MAX_BODY_BYTES`` a 413; neither reads a byte of the body (a
        ``read(-1)`` would block until the client hangs up).
        """
        header = self.headers.get("Content-Length")
        if header is None:
            return b""
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self._error(
                400,
                f"Content-Length must be a non-negative integer; got {header!r}",
                close=True,
            )
            return None
        if length > _MAX_BODY_BYTES:
            self._error(
                413,
                f"Content-Length {length} exceeds the {_MAX_BODY_BYTES}-byte "
                f"limit on request bodies",
                close=True,
            )
            return None
        return self.rfile.read(length) if length else b""

    def _outcomes(self, sweep_id: str, query: str) -> None:
        """``GET /sweeps/{id}/outcomes``: ``?cells=i,j,k`` or ``?cell=K``."""
        service = self.server.service
        params = parse_qs(query, keep_blank_values=True)
        if "cells" in params:
            value = params["cells"][0]
            indices = [
                _cell_index("cells", value, item) for item in value.split(",")
            ]
            self._respond(200, service.cell_outcomes_payload(sweep_id, indices))
            return
        value = params.get("cell", ["0"])[0]
        payload = service.cell_outcomes_payload(
            sweep_id, [_cell_index("cell", value, value)]
        )
        self._respond(200, {"id": payload["id"], **payload["outcomes"][0]})

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        service = self.server.service
        try:
            if method == "GET" and parts == ["healthz"]:
                self._respond(200, service.health_payload())
            elif method == "GET" and parts == ["metrics"]:
                # Content negotiation: JSON by default, Prometheus text
                # exposition for scrapers sending Accept: text/plain.
                accept = self.headers.get("Accept") or ""
                if "text/plain" in accept:
                    self._respond_text(200, service.prometheus_text())
                else:
                    self._respond(200, service.metrics_payload())
            elif method == "GET" and parts == ["sweeps"]:
                self._respond(200, service.list_sweeps())
            elif method == "POST" and parts == ["sweeps"]:
                body = self._read_body()
                if body is not None:
                    self._respond(200, service.submit_payload(body))
            elif method == "GET" and len(parts) == 2 and parts[0] == "sweeps":
                self._respond(200, service.sweep_status(parts[1]))
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "sweeps"
                and parts[2] == "events"
            ):
                cursor = int(query.get("cursor", ["0"])[0])
                timeout = float(query.get("timeout", ["10"])[0])
                self._respond(
                    200, service.wait_events(parts[1], cursor, timeout)
                )
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "sweeps"
                and parts[2] == "outcomes"
            ):
                self._outcomes(parts[1], split.query)
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "sweeps"
                and parts[2] == "spans"
            ):
                self._respond(200, service.spans_payload(parts[1]))
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "sweeps"
                and parts[2] == "cancel"
            ):
                self._respond(200, service.cancel(parts[1]))
            else:
                self._error(404, f"no route for {method} {split.path}")
        except KeyError as error:
            self._error(404, f"unknown sweep id: {error.args[0]}")
        except ConfigurationError as error:
            self._error(400, str(error))
        except ServiceError as error:
            message = str(error)
            status = 503 if "draining" in message else 409
            self._error(status, message)
        except ValueError as error:
            self._error(400, f"bad query parameter: {error}")
        except ReproError as error:
            self._error(500, f"{type(error).__name__}: {error}")
        except Exception as error:  # pragma: no cover - defensive
            self._error(500, f"internal error: {type(error).__name__}: {error}")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")
