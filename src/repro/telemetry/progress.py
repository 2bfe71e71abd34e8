"""Sweep progress reporting and the live-telemetry JSONL stream.

Historically every sweep entry point carried its own
``lambda line: print("  " + line, file=sys.stderr)``; quieting a sweep,
reformatting progress, or teeing it to a file meant touching each call
site.  :class:`ProgressReporter` is the single code path those call sites
now share:

* it *is* a line-oriented progress callback (``reporter("...")`` works
  wherever ``Callable[[str], None]`` was expected), backed by
  :mod:`logging` rather than bare prints;
* ``--quiet`` suppresses the console lines without touching the telemetry
  stream;
* given a ``telemetry_path`` it appends one JSON object per cell event to a
  JSONL file while the sweep is still running, which is what ``repro tail``
  renders live (:func:`tail_telemetry`).

The JSONL schema is deliberately flat: ``{"event": "cell", ...}`` records
per completed cell (protocol, graph, mean rounds, wall seconds, rounds
advanced, sampled metrics), ``{"event": "shard", ...}`` sub-progress
records per finished seed-list shard when a backend shards cells
(``--shard-size``), ``{"event": "progress", ...}`` in-flight heartbeat
records when a backend streams them (``--heartbeat``), and one
``{"event": "summary", ...}`` record when the reporter closes.  Shard and
progress records are informational sub-progress: the summary's cell/wall
totals count merged cells only, so a sharded (or heartbeating) sweep
reports the same totals as an unsharded one.

Given a ``spans_path`` the reporter additionally reconstructs the
sweep → cell → shard → attempt span tree from the completed events it
sees (starts are derived from each event's wall time; local backends run
exactly one attempt per shard) and writes it as span-JSONL on close —
the file ``repro trace export`` turns into Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO, TYPE_CHECKING, Dict, Iterator, Optional, Set

from repro.telemetry.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids a module cycle
    from repro.exec.base import CellCompleted, ShardProgress

__all__ = [
    "ProgressReporter",
    "iter_telemetry",
    "render_event",
    "tail_telemetry",
]


class ProgressReporter:
    """One sink for sweep progress lines and the telemetry JSONL stream.

    Parameters
    ----------
    quiet:
        Suppress the human-readable progress lines (the telemetry stream,
        if any, keeps flowing — quiet mode is about the console, not the
        data).
    stream:
        Where progress lines go; defaults to ``sys.stderr`` like the
        historical per-command lambdas.
    telemetry_path:
        Append JSONL telemetry records to this file while the sweep runs.
    prefix:
        Prepended to every progress line (the CLI uses ``"  "``).
    spans_path:
        Write the reconstructed span tree (JSONL, one span per line) to
        this file when the reporter closes.
    """

    def __init__(
        self,
        quiet: bool = False,
        stream: Optional[IO[str]] = None,
        telemetry_path: Optional[str] = None,
        prefix: str = "",
        spans_path: Optional[str] = None,
    ) -> None:
        self.quiet = quiet
        self.prefix = prefix
        self.telemetry_path = telemetry_path
        self._telemetry_file: Optional[IO[str]] = None
        if telemetry_path is not None:
            self._telemetry_file = open(telemetry_path, "a", encoding="utf-8")
        self.spans_path = spans_path
        self._spans: Optional[SpanRecorder] = None
        self._sweep_span_id: Optional[str] = None
        self._cell_span_ids: Dict[int, str] = {}
        self._sharded_cells: Set[int] = set()
        if spans_path is not None:
            self._spans = SpanRecorder()
            self._sweep_span_id = self._spans.begin("sweep", "sweep")
        self._cells = 0
        self._wall_seconds = 0.0
        self._rounds_advanced = 0
        # A dedicated (unregistered) Logger instance: reporters come and go
        # per command, so sharing the global logging registry would leak
        # handlers between runs and between tests.
        self._logger = logging.Logger("repro.progress", level=logging.INFO)
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        self._logger.addHandler(handler)

    # ------------------------------------------------------------------ #
    # Progress lines
    # ------------------------------------------------------------------ #

    def line(self, text: str) -> None:
        """Emit one human-readable progress line (dropped under ``quiet``)."""
        if not self.quiet:
            self._logger.info("%s%s", self.prefix, text)

    def __call__(self, text: str) -> None:
        self.line(text)

    # ------------------------------------------------------------------ #
    # Telemetry stream
    # ------------------------------------------------------------------ #

    def emit(self, record: Dict[str, object]) -> None:
        """Append one JSON record to the telemetry stream (if configured)."""
        if self._telemetry_file is None:
            return
        json.dump(record, self._telemetry_file, default=str)
        self._telemetry_file.write("\n")
        self._telemetry_file.flush()

    def _cell_span(self, event: object, start: float) -> Optional[str]:
        """Get or lazily open the cell span for an event's cell index."""
        if self._spans is None:
            return None
        index = int(event.index)  # type: ignore[attr-defined]
        span_id = self._cell_span_ids.get(index)
        if span_id is None:
            span_id = self._spans.begin(
                "cell",
                f"cell {index}: {event.cell.protocol.label} on "  # type: ignore[attr-defined]
                f"{event.cell.graph.label}",  # type: ignore[attr-defined]
                parent_id=self._sweep_span_id,
                start=start,
                attrs={
                    "cell": index,
                    "protocol": event.cell.protocol.label,  # type: ignore[attr-defined]
                    "graph": event.cell.graph.label,  # type: ignore[attr-defined]
                },
            )
            self._cell_span_ids[index] = span_id
        return span_id

    def _record_shard_span(
        self,
        event: object,
        shard_index: int,
        shard_count: Optional[int],
        start: float,
        end: float,
    ) -> None:
        """One shard span plus its single attempt child (local backends
        never retry, so the attempt covers the whole shard interval)."""
        if self._spans is None:
            return
        index = int(event.index)  # type: ignore[attr-defined]
        cell_span = self._cell_span(event, start)
        attrs = {
            "cell": index,
            "shard": shard_index,
            "shards": shard_count,
            "replicas": len(event.cell.seeds),  # type: ignore[attr-defined]
        }
        shard_span = self._spans.record(
            "shard",
            f"cell {index} shard {shard_index}",
            start=start,
            end=end,
            parent_id=cell_span,
            attrs=attrs,
        )
        self._spans.record(
            "attempt",
            f"cell {index} shard {shard_index} attempt 0",
            start=start,
            end=end,
            parent_id=shard_span,
            attrs={"cell": index, "shard": shard_index, "attempt": 0},
        )

    def shard_progress(self, event: "ShardProgress") -> None:
        """Record one in-flight ``ShardProgress`` heartbeat into the stream.

        Progress records are pure observability: they carry the engine's
        latest heartbeat and never count towards the summary totals.
        """
        if self._telemetry_file is not None:
            self.emit(event.to_record())

    def cell_completed(self, event: "CellCompleted") -> None:
        """Record one backend ``CellCompleted`` event into the stream.

        Shard sub-progress events (``shard_index`` set) become ``"shard"``
        records and do not count towards the summary totals — the per-cell
        event that follows them carries the merged wall time and rounds.
        """
        wall_seconds = event.wall_seconds
        now = time.time()
        start = now - float(wall_seconds or 0.0)
        if event.shard_index is not None:
            self._sharded_cells.add(event.index)
            self._record_shard_span(
                event, event.shard_index, event.shard_count, start, now
            )
        else:
            self._cells += 1
            if wall_seconds is not None:
                self._wall_seconds += wall_seconds
            self._rounds_advanced += event.rounds_advanced
            if self._spans is not None:
                if event.index not in self._sharded_cells:
                    # Unsharded cells still get one shard/attempt pair so
                    # the tree shape is uniform for consumers.
                    self._record_shard_span(event, 0, 1, start, now)
                self._spans.finish(
                    self._cell_span(event, start),
                    end=now,
                    attrs={
                        "wall_seconds": wall_seconds,
                        "rounds_advanced": event.rounds_advanced,
                        "replicas": event.cell.num_replicas,
                    },
                )
        if self._telemetry_file is not None:
            self.emit(event.to_record())

    def close(self) -> None:
        """Write the summary record and release the stream and handlers."""
        if self._spans is not None:
            if self._sweep_span_id is not None:
                self._spans.finish(
                    self._sweep_span_id,
                    attrs={
                        "cells": self._cells,
                        "wall_seconds": self._wall_seconds,
                        "rounds_advanced": self._rounds_advanced,
                    },
                )
            if self.spans_path is not None:
                self._spans.write_jsonl(self.spans_path)
            self._spans = None
        if self._telemetry_file is not None:
            from repro.exec.base import summary_record

            self.emit(
                summary_record(
                    self._cells, self._wall_seconds, self._rounds_advanced
                )
            )
            self._telemetry_file.close()
            self._telemetry_file = None
        for handler in list(self._logger.handlers):
            self._logger.removeHandler(handler)

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Reading the stream back: `repro tail`
# ---------------------------------------------------------------------- #


def iter_telemetry(path: str) -> Iterator[Dict[str, object]]:
    """Yield the complete JSONL records currently in a telemetry file.

    The file may still be written to: a record caught mid-write (no
    terminating newline yet) is *not* parsed — it would crash
    ``json.loads`` — and is simply left for the next read, matching the
    partial-line buffering of :func:`tail_telemetry`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    complete, newline, _partial = content.rpartition("\n")
    if not newline:
        return
    for line in complete.split("\n"):
        line = line.strip()
        if line:
            yield json.loads(line)


def render_event(record: Dict[str, object]) -> str:
    """One status line for one telemetry record (what ``repro tail`` prints)."""
    event = record.get("event")
    if event == "summary":
        return (
            f"sweep complete: {record.get('cells', 0)} cells, "
            f"{float(record.get('wall_seconds', 0.0)):.3f}s total, "  # type: ignore[arg-type]
            f"{record.get('rounds_advanced', 0)} replica-rounds"
        )
    if event not in ("cell", "shard", "progress"):
        return json.dumps(record, default=str)

    def position(key: str, total: str) -> str:
        value = record.get(key)
        ordinal = "?" if value is None else int(value) + 1  # type: ignore[arg-type]
        return f"{ordinal}/{record.get(total, '?')}"

    parts = [f"[{position('index', 'total')}]"]
    if event == "shard" or (event == "progress" and record.get("shard") is not None):
        parts.append(f"shard {position('shard', 'shards')}")
    if event == "progress" and record.get("attempt"):
        parts.append(f"attempt {record.get('attempt')}")
    parts += [f"{record.get('protocol', '?')}", "on", f"{record.get('graph', '?')}"]
    wall_seconds = record.get("wall_seconds")
    if event == "progress":
        parts.append(f"round {record.get('round', '?')}")
        active, replicas = record.get("active"), record.get("replicas")
        if active is not None and replicas is not None:
            parts.append(f"active {active}/{replicas}")
        rate = record.get("rounds_per_second")
        if rate:
            parts.append(f"({float(rate):,.0f} replica-rounds/s)")  # type: ignore[arg-type]
        return " ".join(parts)
    if event == "shard":
        parts.append(f"({record.get('replicas', '?')} replicas)")
    elif record.get("mean_rounds") is not None:
        parts.append(f"mean rounds {float(record['mean_rounds']):.1f}")  # type: ignore[arg-type]
    if wall_seconds is not None:
        parts.append(f"in {float(wall_seconds):.3f}s")  # type: ignore[arg-type]
    rounds_advanced = record.get("rounds_advanced")
    if event == "cell" and rounds_advanced is not None and wall_seconds:
        rate = float(rounds_advanced) / float(wall_seconds)  # type: ignore[arg-type]
        parts.append(f"({rate:,.0f} replica-rounds/s)")
    return " ".join(parts)


def tail_telemetry(
    path: str,
    follow: bool = False,
    interval: float = 0.5,
    out: Optional[IO[str]] = None,
    max_wait: Optional[float] = None,
) -> int:
    """Render a telemetry JSONL file as live status lines.

    With ``follow`` the file is polled every ``interval`` seconds until the
    ``summary`` record arrives (or ``max_wait`` seconds pass — the safety
    valve the tests use).  Returns the number of records rendered.
    """
    out = out if out is not None else sys.stdout
    rendered = 0
    finished = False
    deadline = None if max_wait is None else time.monotonic() + max_wait
    buffer = ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            buffer += fh.read()
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                print(render_event(record), file=out)
                rendered += 1
                if record.get("event") == "summary":
                    finished = True
            if not follow or finished:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(interval)
    return rendered
