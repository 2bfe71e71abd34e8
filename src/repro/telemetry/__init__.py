"""Streaming telemetry: online reducers, spilled traces, and run metrics.

The three halves of the layer (ROADMAP item 3):

* :mod:`repro.telemetry.reducers` — the ``Streaming*`` observer family that
  folds the trace analysis reductions (first beep rounds, wave fronts, the
  Lemma 9 invariants, convergence summaries) into ``O(R · n)`` online
  accumulators, live or over a recorded trace via ``BatchTrace.replay``;
* :mod:`repro.telemetry.spill` — :class:`SpillingTraceRecorder` /
  :class:`SpilledTrace`, the out-of-core trace pair recording under a byte
  budget with byte-identical replica replay;
* :mod:`repro.telemetry.metrics` + :mod:`repro.telemetry.progress` — the
  run-metrics registry sampled by every engine and backend, and the
  :class:`ProgressReporter` / ``repro tail`` JSONL stream that surfaces it
  live;
* :mod:`repro.telemetry.heartbeat` + :mod:`repro.telemetry.spans` — the
  in-flight half: :class:`HeartbeatEmitter` polled every K rounds from
  inside the engine loops (surfaced as ``ShardProgress`` events and the
  service's liveness watchdog), and the sweep → cell → shard → attempt
  span tree exportable as JSONL or Chrome trace-event JSON
  (``repro trace export``).

Importing this package is what registers the streaming observer kinds
(``streaming-*`` and ``spill-trace``) with
:mod:`repro.batch.observers` — :func:`repro.batch.observers.build_observer`
does that import lazily on first sight of an unknown kind, so pure-data
``ObserverSpec``\\ s built in a parent process resolve identically inside
spawn workers.
"""

from repro.telemetry.heartbeat import (
    Heartbeat,
    HeartbeatEmitter,
    current_heartbeat,
    use_heartbeat,
)
from repro.telemetry.metrics import (
    MetricsRegistry,
    current_metrics,
    sample_engine_run,
    use_metrics,
)
from repro.telemetry.progress import (
    ProgressReporter,
    iter_telemetry,
    render_event,
    tail_telemetry,
)
from repro.telemetry.reducers import (
    STREAMING_KINDS,
    StreamingConvergence,
    StreamingFirstBeep,
    StreamingInvariantChecker,
    StreamingInvariantSummary,
    StreamingWaveFronts,
)
from repro.telemetry.spans import (
    SPAN_KINDS,
    Span,
    SpanRecorder,
    chrome_trace,
    load_spans_jsonl,
    spans_from_records,
    write_chrome_trace,
)
from repro.telemetry.spill import (
    DEFAULT_BYTE_BUDGET,
    SpilledTrace,
    SpillingTraceRecorder,
)

__all__ = [
    "DEFAULT_BYTE_BUDGET",
    "Heartbeat",
    "HeartbeatEmitter",
    "MetricsRegistry",
    "ProgressReporter",
    "SPAN_KINDS",
    "STREAMING_KINDS",
    "Span",
    "SpanRecorder",
    "SpilledTrace",
    "SpillingTraceRecorder",
    "StreamingConvergence",
    "StreamingFirstBeep",
    "StreamingInvariantChecker",
    "StreamingInvariantSummary",
    "StreamingWaveFronts",
    "chrome_trace",
    "current_heartbeat",
    "current_metrics",
    "iter_telemetry",
    "load_spans_jsonl",
    "render_event",
    "sample_engine_run",
    "spans_from_records",
    "tail_telemetry",
    "use_heartbeat",
    "use_metrics",
    "write_chrome_trace",
]
