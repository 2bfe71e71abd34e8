"""Content-addressed result cache for the sweep service.

Every execution backend is deterministic under matched seeds, so a cell's
:func:`~repro.exec.cells.cell_signature` — the SHA-256 of its canonical
JSON spec — fully determines its outcome.  The service exploits that:
executed outcomes are stored on disk keyed by signature, and any later
submission of an identical cell (same protocol, graph, seed order, budget,
schedule, observers) is served from the store without touching an engine.

Entries are one JSON file per signature under ``<dir>/<sig[:2]>/<sig>.json``:

.. code-block:: json

    {"signature": "...", "cell": {...cell spec...},
     "records": [...], "payload": "<base64 pickle of the CellOutcome>"}

The human-auditable parts (cell spec, flattened trial records) are plain
JSON; the byte-exact outcome (batch arrays, traces, reducer accumulators)
rides in the pickled ``payload`` — the same transport the ``process:N``
backend uses between worker processes.  Writes go through a temp file and
``os.replace`` so concurrent worker threads (or a reader racing a writer)
never observe a half-written entry.

Reads go through a bounded in-memory memo: a disk hit keeps the decoded
:class:`~repro.exec.CellOutcome` *and* the envelope's stored base64
``payload`` string in an LRU keyed by signature (at most
:attr:`ResultCache.MEMO_BYTES` of payload text), so a resubmitted cell
costs one dictionary lookup — no file read, no unpickling — and the
daemon can answer with the stored payload as it is, without pickling
the outcome again.  Entries are immutable once written (a signature
determines its outcome), so the memo never goes stale; only reads
(:meth:`ResultCache.get` / :meth:`ResultCache.get_entry`) fill it,
never :meth:`ResultCache.put`.

Determinism doubles as a safety net for retries: :meth:`ResultCache.put`
on a signature that already has an entry *verifies* the fresh outcome's
records against the stored ones (always read from disk) instead of
overwriting — a mismatch means a retried shard produced different bytes
than its first (cached) run, which is a bug worth failing loudly over,
not a condition to paper over.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.exec.cells import CellOutcome, ExecutionCell, cell_to_spec
from repro.service.wire import decode_outcome, encode_outcome

__all__ = ["ResultCache"]


class ResultCache:
    """On-disk outcome store keyed by canonical cell signature.

    Parameters
    ----------
    directory:
        Root of the store.  ``None`` creates a private temporary directory
        that lives (and caches) for the lifetime of this object — pass a
        real path to persist results across daemon restarts.

    ``hits`` / ``misses`` are plain-int counters (guarded by one lock with
    the file operations and the memo); the service surfaces them as
    ``service.cache_hits`` / ``service.cache_misses`` in ``GET /metrics``.
    A memo hit counts as a hit like a disk hit.
    """

    #: Bound on the read-through memo, in characters of stored payload
    #: (the decoded outcomes it pins are of the same order).  Least
    #: recently used entries are evicted past it; an entry larger than the
    #: whole bound is served but not memoised.
    MEMO_BYTES = 64 * 1024 * 1024

    def __init__(self, directory: Optional[str] = None) -> None:
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-service-cache-")
            directory = self._tmp.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._memo: "OrderedDict[str, Tuple[CellOutcome, str]]" = OrderedDict()
        self._memo_bytes = 0

    def _path(self, signature: str) -> Path:
        return self.directory / signature[:2] / f"{signature}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def get(self, signature: str) -> Optional[CellOutcome]:
        """The cached outcome for ``signature``, or ``None`` (counted miss)."""
        entry = self.get_entry(signature)
        return None if entry is None else entry[0]

    def get_entry(self, signature: str) -> Optional[Tuple[CellOutcome, str]]:
        """The cached ``(outcome, payload)`` for ``signature``, or ``None``.

        ``payload`` is the entry's stored base64 pickle — exactly what
        :func:`~repro.service.wire.encode_outcome` wrote — so a caller can
        ship it without re-encoding.  Memoised entries return the very
        same two objects on every call, so callers share them and must not
        mutate the outcome.  A corrupt entry (truncated file,
        undecodable payload) is treated as a miss and deleted, so one bad
        write can never wedge a signature.
        """
        path = self._path(signature)
        with self._lock:
            entry = self._memo.get(signature)
            if entry is not None:
                self._memo.move_to_end(signature)
                self.hits += 1
                return entry
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
                payload = envelope["payload"]
                outcome = decode_outcome(payload)
            except FileNotFoundError:
                self.misses += 1
                return None
            except Exception:
                path.unlink(missing_ok=True)
                self.misses += 1
                return None
            self.hits += 1
            entry = (outcome, payload)
            self._remember(signature, entry)
            return entry

    def _remember(self, signature: str, entry: Tuple[CellOutcome, str]) -> None:
        """Memoise one decoded disk entry, evicting LRU past the bound."""
        size = len(entry[1])
        if size > self.MEMO_BYTES:
            return
        self._memo[signature] = entry
        self._memo_bytes += size
        while self._memo_bytes > self.MEMO_BYTES:
            _, (_, evicted) = self._memo.popitem(last=False)
            self._memo_bytes -= len(evicted)

    def put(
        self, signature: str, cell: ExecutionCell, outcome: CellOutcome
    ) -> bool:
        """Store ``outcome`` under ``signature``; verify on overlap.

        Returns ``True`` when the entry was written or the existing entry's
        records match (the determinism assertion retries rely on), and
        ``False`` when an entry exists with *different* records — the
        caller treats that as a hard failure.
        """
        path = self._path(signature)
        fresh_records = [record.as_dict() for record in outcome.to_records()]
        with self._lock:
            if path.exists():
                try:
                    envelope = json.loads(path.read_text(encoding="utf-8"))
                    stored_records = envelope.get("records")
                except Exception:
                    stored_records = None
                if stored_records is None:
                    # Unreadable entry: replace it rather than comparing.
                    path.unlink(missing_ok=True)
                else:
                    return _records_match(stored_records, fresh_records)
            path.parent.mkdir(parents=True, exist_ok=True)
            envelope = {
                "signature": signature,
                "cell": cell_to_spec(cell),
                "records": fresh_records,
                "payload": encode_outcome(outcome),
            }
            handle, temp_name = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as fh:
                    json.dump(envelope, fh, default=str)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            return True

    def stats(self) -> Dict[str, int]:
        """Plain-dict hit/miss counters (what ``/metrics`` samples)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}

    def close(self) -> None:
        """Release the private temporary directory, if this cache owns one."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def _records_match(stored: object, fresh: object) -> bool:
    """Compare record dict lists through a JSON round-trip.

    The stored side already went through JSON (tuples → lists, non-JSON
    scalars → strings), so the fresh side is normalised the same way
    before comparing — a false mismatch from representation drift would
    fail sweeps that are in fact byte-identical.
    """
    normalise = lambda value: json.loads(json.dumps(value, default=str))
    return normalise(stored) == normalise(fresh)
