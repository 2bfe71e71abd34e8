"""The benchmark's own span recorder and the hooks that feed it.

Nothing here uses the program's telemetry (``repro.telemetry.spans``):
the spans are recorded by wrapping public callables of the program from
the outside, so a change inside the program cannot alter how it is
measured.  A span is ``(id, parent, name, start, end, attrs)``; spans stay
in memory and are written once, at the end, as JSON and as Chrome
trace events (loadable in Perfetto).

Span tree: workload -> backend call or HTTP request -> unit/cell (real
``exec.cells.execute`` spans in-process; rebuilt from completion events
and the program-reported ``wall_seconds`` when the unit ran in another
process) -> engine run -> RNG prefetch.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import threading
import time
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple

#: Engine kinds whose program-reported wall time is a per-layer metric
#: (``engine.<kind>.wall_seconds`` timers in ``CellOutcome.metrics``).
ENGINE_KINDS = ("batched", "batched-memory", "vectorized", "memory")


class SpanRecorder:
    """Append-only in-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1]["id"] if stack else None

    def add(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> dict:
        with self._lock:
            span = {
                "id": len(self.spans) + 1,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
            self.spans.append(span)
        return span

    def open(self, name: str, **attrs: object) -> dict:
        span = self.add(name, self.now(), parent=self.current(), **attrs)
        self._stack().append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #

    def closed(self) -> List[dict]:
        return [span for span in self.spans if span["end"] is not None]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: Dict[int, List[dict]] = {}
        for span in self.closed():
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.closed():
            start, end = span["start"], span["end"]
            intervals = sorted(
                (max(start, c["start"]), min(end, c["end"]))
                for c in children.get(span["id"], ())
            )
            covered, reach = 0.0, start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[span["id"]] = (end - start) - covered
        return result

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``."""
        own = self.self_times()
        table: Dict[str, List[float]] = {}
        for span in self.closed():
            row = table.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["end"] - span["start"]
            row[2] += own[span["id"]]
        return {name: (int(c), t, s) for name, (c, t, s) in table.items()}

    def write(self, stem: str) -> None:
        """Write ``<stem>.json`` (span records) and ``<stem>.chrome.json``."""
        spans = self.closed()
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle, default=str)
        tids: Dict[int, int] = {}
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": round(span["start"] * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": 1,
                "tid": tids.setdefault(span["tid"], len(tids) + 1),
                "args": dict(span["attrs"], id=span["id"], parent=span["parent"]),
            }
            for span in spans
        ]
        with open(f"{stem}.chrome.json", "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle, default=str)


def _module(name: str) -> Optional[object]:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Patcher:
    """Replace attributes and put the originals back, last first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, factory: Callable) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if original is None:
            original = getattr(owner, attr, None)
        if original is None or getattr(original, "__isabstractmethod__", False):
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, factory(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def backend_classes() -> List[type]:
    """Every class that implements ``run_cell_outcomes`` for a backend."""
    from repro.exec.base import ExecutionBackend

    # Backends are subclasses only once the modules defining them are loaded.
    _module("repro.exec.backends")
    _module("repro.service.client")
    found: List[type] = []
    pending = list(ExecutionBackend.__subclasses__())
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        for owner in klass.__mro__:
            if "run_cell_outcomes" in owner.__dict__ and owner not in found:
                found.append(owner)
    return found


class OutcomeTap:
    """The one wrapper around every backend's ``run_cell_outcomes``.

    Only the outermost call on a thread counts: it is handed to the
    installed ``Tracer`` (if any), and with ``keep`` its outcomes are kept
    for the checks.  The tap adds one Python call per backend call.
    """

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        self.outcomes: List[object] = []
        self.tracer: Optional["Tracer"] = None
        self._depth = threading.local()
        self._patcher = Patcher()

    def install(self) -> "OutcomeTap":
        for klass in backend_classes():
            self._patcher.wrap(klass, "run_cell_outcomes", self._factory)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def _factory(self, original: Callable) -> Callable:
        tap = self

        @functools.wraps(original)
        def run_cell_outcomes(backend, cells, progress=None):
            depth = getattr(tap._depth, "value", 0)
            tap._depth.value = depth + 1
            try:
                if depth == 0 and tap.tracer is not None:
                    outcomes = tap.tracer.backend_call(original, backend, cells, progress)
                else:
                    outcomes = original(backend, cells, progress)
            finally:
                tap._depth.value = depth
            if depth == 0 and tap.keep:
                tap.outcomes.extend(outcomes)
            return outcomes

        return run_cell_outcomes


class BackendCall:
    """One outermost backend call as seen from the caller's side."""

    def __init__(
        self, span: dict, backend: object, pool_size: Optional[int] = None
    ) -> None:
        self.span = span
        self.backend = backend
        self.pool_size_hint = pool_size
        self.first_event: Optional[float] = None
        self.units: List[Tuple[float, float, object]] = []
        self.cell_events: List[Tuple[int, float, float, object]] = []
        self.sharded: set = set()
        self.outcomes: Tuple[object, ...] = ()
        self.executes_before = 0

    def on_event(self, event: object, at: float) -> None:
        outcome = getattr(event, "outcome", None)
        if outcome is None:  # in-flight heartbeat, not a completion
            return
        if self.first_event is None:
            self.first_event = at
        wall = float(getattr(event, "wall_seconds", None) or 0.0)
        if getattr(event, "shard_index", None) is not None:
            self.sharded.add(event.index)
            self.units.append((at, wall, outcome))
        else:
            self.cell_events.append((event.index, at, wall, outcome))

    def finish(self) -> None:
        for index, at, wall, outcome in self.cell_events:
            if index not in self.sharded:
                self.units.append((at, wall, outcome))

    @property
    def call_s(self) -> float:
        return self.span["end"] - self.span["start"]

    @property
    def pool_size(self) -> int:
        if self.pool_size_hint:
            return self.pool_size_hint
        for attr in ("last_pool_size", "workers"):
            value = getattr(self.backend, attr, None)
            if isinstance(value, int) and value > 0:
                return value
        return 1


class Tracer:
    """Install the span hooks on the program's public callables."""

    def __init__(
        self,
        recorder: SpanRecorder,
        pool_size: Optional[int] = None,
        rebuild_units: bool = True,
    ) -> None:
        self.recorder = recorder
        self.calls: List[BackendCall] = []
        self.rounds_advanced = 0
        #: Executors behind a backend that does not say (the daemon's).
        self.pool_size = pool_size
        #: Rebuild unit spans from completion events (off for cache hits,
        #: whose outcomes carry the original run's wall seconds).
        self.rebuild_units = rebuild_units
        self._patcher = Patcher()
        self._tap: Optional[OutcomeTap] = None

    # -- generic timing wrapper ---------------------------------------- #

    def _timed(self, name: str, on_result: Optional[Callable] = None) -> Callable:
        recorder = self.recorder

        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(span)
                if on_result is not None:
                    on_result(span, result)
                return result

            return wrapper

        return factory

    def _count_rounds(self, span: dict, result: object) -> None:
        rounds = getattr(result, "total_replica_rounds", None)
        if rounds is not None:
            self.rounds_advanced += int(rounds)
            span["attrs"]["rounds"] = int(rounds)

    # -- backend calls ------------------------------------------------- #

    def backend_call(self, original: Callable, backend, cells, progress=None):
        """Time one outermost backend call (called by the ``OutcomeTap``)."""
        recorder = self.recorder
        span = recorder.open(
            "exec.backends.call", backend=str(getattr(backend, "name", "?"))
        )
        call = BackendCall(span, backend, self.pool_size)
        call.executes_before = self._span_count("exec.cells.execute")

        def hook(event):
            call.on_event(event, recorder.now())
            if progress is not None:
                progress(event)

        try:
            call.outcomes = tuple(original(backend, cells, hook))
        finally:
            recorder.close(span)
        call.finish()
        self.calls.append(call)
        if self.rebuild_units and (
            self._span_count("exec.cells.execute") == call.executes_before
        ):
            # The units ran in another process: rebuild their spans from
            # completion times and program-reported wall seconds.
            for at, wall, outcome in call.units:
                recorder.add(
                    "exec.cells.unit",
                    max(span["start"], at - wall),
                    at,
                    parent=span["id"],
                    cell=str(getattr(outcome.cell, "label", "?")),
                    rebuilt=True,
                )
        return call.outcomes

    def _span_count(self, name: str) -> int:
        return sum(1 for span in self.recorder.spans if span["name"] == name)

    # -- HTTP ---------------------------------------------------------- #

    def _urlopen_factory(self, original: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def urlopen(*args, **kwargs):
            span = recorder.open("service.http.request", bytes=0)
            try:
                response = original(*args, **kwargs)
            except BaseException:
                recorder.close(span)
                raise
            return _CountingResponse(response, span, recorder)

        return urlopen

    # -- install ------------------------------------------------------- #

    def install(self, tap: OutcomeTap) -> "Tracer":
        """Wrap every hook point that exists; a missing one records nothing.

        Backend calls reach the tracer through ``tap``, the installed
        ``OutcomeTap``.
        """
        batch_engine = _module("repro.batch.engine")
        batch_memory = _module("repro.batch.memory")
        streams = _module("repro.batch.streams")
        beeping_engine = _module("repro.beeping.engine")
        simulator = _module("repro.beeping.simulator")
        backends = _module("repro.exec.backends")
        cells = _module("repro.exec.cells")
        topology = _module("repro.graphs.topology")
        client = _module("repro.service.client")
        points = [
            (batch_engine, "BatchedEngine", "__init__", self._timed("batch.engine.init")),
            (batch_engine, "BatchedEngine", "run",
             self._timed("batch.engine.run", self._count_rounds)),
            (streams, "ReplicaStreams", "fill_blocks", self._timed("batch.streams.fill")),
            (batch_memory, "BatchedMemoryEngine", "run", self._timed("batch.memory.run")),
            (beeping_engine, "VectorizedEngine", "run", self._timed("beeping.engine.run")),
            (simulator, "MemorySimulator", "run", self._timed("beeping.simulator.run")),
            (cells, "ExecutionCell", "build_topology", self._timed("graphs.build")),
            (topology, "Topology", "diameter", self._timed("graphs.diameter")),
            (backends, None, "execute_cell_batched", self._timed("exec.cells.execute")),
            (backends, None, "execute_cell_sequential", self._timed("exec.cells.execute")),
            (backends, None, "split_cell", self._timed("exec.cells.split")),
            (backends, None, "merge_cell_outcomes", self._timed("exec.cells.merge")),
            (client, "ServiceClient", "submit", self._timed("service.client.submit")),
            (client, "ServiceClient", "events", self._timed("service.client.events")),
            (client, "ServiceClient", "outcome", self._timed("service.client.outcome")),
            (client, None, "decode_outcome", self._timed("service.wire.decode")),
        ]
        for module, owner, attr, factory in points:
            target = module if owner is None else getattr(module, owner, None)
            if target is not None:
                self._patcher.wrap(target, attr, factory)
        self._tap = tap
        tap.tracer = self
        if client is not None:
            self._patcher.wrap(urllib.request, "urlopen", self._urlopen_factory)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()
        if self._tap is not None:
            self._tap.tracer = None
            self._tap = None


class _CountingResponse:
    """HTTP response proxy that counts body bytes and ends the span on exit."""

    def __init__(self, response, span: dict, recorder: SpanRecorder) -> None:
        self._response = response
        self._span = span
        self._recorder = recorder

    def __enter__(self) -> "_CountingResponse":
        self._response.__enter__()
        return self

    def __exit__(self, *exc) -> object:
        try:
            return self._response.__exit__(*exc)
        finally:
            self._recorder.close(self._span)

    def read(self, *args) -> bytes:
        data = self._response.read(*args)
        self._span["attrs"]["bytes"] += len(data)
        return data

    def __getattr__(self, name: str) -> object:
        return getattr(self._response, name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition of a workload."""
    totals = tracer.recorder.totals()

    def count(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    calls = tracer.calls
    units = [unit for call in calls for unit in call.units]
    outcomes = [outcome for call in calls for outcome in call.outcomes]
    timers: Dict[str, float] = {}
    dense = 0.0
    for outcome in outcomes:
        snapshot = getattr(outcome, "metrics", None) or {}
        for key, value in (snapshot.get("timers") or {}).items():
            timers[key] = timers.get(key, 0.0) + float(value)
        dense = max(dense, float((snapshot.get("gauges") or {}).get(
            "engine.adjacency_dense", 0.0
        )))
    unit_exec = sum(wall for _, wall, _ in units)
    capacity = sum(call.pool_size * call.call_s for call in calls)
    metrics = {
        "batch.engine.init_s": total("batch.engine.init"),
        "batch.engine.run_s": own("batch.engine.run"),
        "batch.engine.rounds_advanced": float(tracer.rounds_advanced),
        "batch.engine.replica_rounds_per_s": _ratio(
            tracer.rounds_advanced, total("batch.engine.run")
        ),
        "batch.streams.fill_s": total("batch.streams.fill"),
        "batch.streams.fill_calls": float(count("batch.streams.fill")),
        "batch.engine.adjacency_dense": dense,
        "graphs.build_s": total("graphs.build"),
        "graphs.diameter_s": total("graphs.diameter"),
        "exec.cells.execute_s": total("exec.cells.execute"),
        "exec.backends.call_s": sum(call.call_s for call in calls),
        "exec.backends.first_outcome_s": sum(
            call.first_event - call.span["start"]
            for call in calls
            if call.first_event is not None
        ),
        "exec.backends.units": float(len(units)),
        "exec.backends.pool_size": float(max((c.pool_size for c in calls), default=0)),
        "exec.cells.unit_exec_s_sum": unit_exec,
        "exec.backends.parallel_efficiency": _ratio(unit_exec, capacity),
        "exec.cells.split_s": total("exec.cells.split"),
        "exec.cells.merge_s": total("exec.cells.merge"),
        "exec.ipc.outcome_bytes": float(
            sum(len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                for _, _, outcome in units)
        ),
        "beeping.engine.run_s": total("beeping.engine.run"),
        "beeping.engine.runs": float(count("beeping.engine.run")),
        "beeping.engine.per_run_us": 1e6 * _ratio(
            total("beeping.engine.run"), count("beeping.engine.run")
        ),
        "beeping.simulator.run_s": total("beeping.simulator.run"),
    }
    for kind in ENGINE_KINDS:
        metrics[f"engine.{kind}.wall_s"] = timers.get(f"engine.{kind}.wall_seconds", 0.0)
    return metrics


def hit_metrics(recorder: SpanRecorder, hits: int) -> Dict[str, float]:
    """Client-side layer costs per cache-hit resubmission."""
    totals = recorder.totals()
    requests = [s for s in recorder.closed() if s["name"] == "service.http.request"]

    def per_hit_ms(name: str) -> float:
        return 1000.0 * _ratio(totals.get(name, (0, 0.0, 0.0))[1], hits)

    return {
        "service.client.submit_ms": per_hit_ms("service.client.submit"),
        "service.client.events_ms": per_hit_ms("service.client.events"),
        "service.client.outcome_ms": per_hit_ms("service.client.outcome"),
        "service.wire.decode_ms": per_hit_ms("service.wire.decode"),
        "service.http.requests_per_sweep": _ratio(len(requests), hits),
        "service.http.response_bytes_per_sweep": _ratio(
            sum(s["attrs"].get("bytes", 0) for s in requests), hits
        ),
    }
