"""Client side of the sweep service: HTTP client, backend, and tailer.

Three layers, thinnest first:

* :class:`ServiceClient` — a stdlib-:mod:`urllib` JSON client over the
  daemon's HTTP API; every transport failure or non-2xx response becomes a
  :class:`~repro.errors.ServiceError` carrying the server's message;
* :class:`ServiceBackend` — an :class:`~repro.exec.ExecutionBackend` whose
  executor happens to live in another process: ``run_cell_outcomes``
  submits the cells, long-polls the event stream for progress (delivering
  :class:`~repro.exec.CellCompleted` events in cell order, like every
  backend), and fetches the byte-exact outcomes back with one
  ``GET /sweeps/{id}/outcomes?cells=…`` request per poll that reports
  completed cells — a fully cached sweep is three requests (submit, one
  poll, one outcome fetch), whatever its cell count.  Registered as
  ``"service:URL"`` in :func:`~repro.exec.resolve_backend`, so any sweep
  entry point (``repro montecarlo --backend service:http://host:port``)
  can run against a daemon without code changes;
* :func:`tail_service` — ``repro tail --url``: renders a remote sweep's
  event stream with the same renderer as file-based telemetry.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.exec.base import (
    CellCompleted,
    ExecutionBackend,
    ProgressHook,
    ShardProgress,
)
from repro.exec.cells import CellOutcome, ExecutionCell, ShardSize
from repro.service.wire import (
    JSON_CONTENT_TYPE,
    cells_to_payload,
    decode_outcome,
    dump_json,
)
from repro.telemetry.progress import render_event

__all__ = ["ServiceBackend", "ServiceClient", "normalise_url", "tail_service"]

#: Most cells one outcomes request names, so a huge poll cannot outgrow
#: the server's request-line limit; larger batches take several requests.
_MAX_CELLS_PER_REQUEST = 1024


def normalise_url(url: str) -> str:
    """Canonicalise a service URL (scheme defaulted, trailing ``/`` dropped).

    Raises :class:`~repro.errors.ConfigurationError` on an empty URL — the
    message ``resolve_backend`` surfaces for a bare ``"service:"`` spec.
    """
    url = (url or "").strip().rstrip("/")
    if not url:
        raise ConfigurationError(
            "a service backend needs a URL, e.g. 'service:http://127.0.0.1:8123'"
        )
    if "://" not in url:
        url = f"http://{url}"
    return url


class ServiceClient:
    """JSON-over-HTTP client for one sweep-service daemon."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        self.url = normalise_url(url)
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        request = urllib.request.Request(
            f"{self.url}{path}",
            method=method,
            data=None if payload is None else dump_json(payload),
            headers={} if payload is None else {"Content-Type": JSON_CONTENT_TYPE},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            raise ServiceError(
                f"{method} {path} failed with HTTP {error.code}"
                + (f": {detail}" if detail else "")
            ) from None
        except (urllib.error.URLError, OSError) as error:
            raise ServiceError(
                f"sweep service at {self.url} is unreachable: {error}"
            ) from None
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"{method} {path} returned invalid JSON: {error}"
            ) from None
        if not isinstance(decoded, dict):
            raise ServiceError(
                f"{method} {path} returned {type(decoded).__name__}, "
                f"expected a JSON object"
            )
        return decoded

    # ------------------------------------------------------------------ #
    # API verbs
    # ------------------------------------------------------------------ #

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        cells: Sequence[ExecutionCell],
        shard_size: object = None,
        heartbeat_interval: object = None,
        kernel: object = None,
    ) -> Dict[str, object]:
        """``POST /sweeps``; returns the receipt (``{"id": ..., ...}``)."""
        payload: Dict[str, object] = {
            "cells": cells_to_payload(cells),
            "shard_size": shard_size,
        }
        if heartbeat_interval is not None:
            payload["heartbeat_interval"] = heartbeat_interval
        if kernel is not None:
            payload["kernel"] = kernel
        return self._request("POST", "/sweeps", payload)

    def status(self, sweep_id: str) -> Dict[str, object]:
        return self._request("GET", f"/sweeps/{sweep_id}")

    def sweeps(self) -> Dict[str, object]:
        """``GET /sweeps``: every sweep's one-line summary."""
        return self._request("GET", "/sweeps")

    def spans(self, sweep_id: str) -> Dict[str, object]:
        """``GET /sweeps/{id}/spans``: the sweep's span tree as records."""
        return self._request("GET", f"/sweeps/{sweep_id}/spans")

    def events(
        self, sweep_id: str, cursor: int = 0, timeout: float = 10.0
    ) -> Dict[str, object]:
        """Long-poll ``/sweeps/{id}/events`` from ``cursor``."""
        return self._request(
            "GET",
            f"/sweeps/{sweep_id}/events?cursor={int(cursor)}"
            f"&timeout={float(timeout)}",
            # The HTTP timeout must outlive the server-side poll window.
            timeout=float(timeout) + self.timeout,
        )

    def outcome(self, sweep_id: str, cell_index: int) -> CellOutcome:
        """Fetch one completed cell's byte-exact outcome."""
        return self.outcomes(sweep_id, [cell_index])[int(cell_index)]

    def outcomes(
        self, sweep_id: str, cell_indices: Sequence[int]
    ) -> Dict[int, CellOutcome]:
        """Fetch completed cells' byte-exact outcomes in one request.

        Returns ``{cell index: outcome}``; payloads are decoded once per
        cell, in ascending cell order.
        """
        indices = sorted({int(index) for index in cell_indices})
        query = ",".join(str(index) for index in indices)
        payload = self._request(
            "GET", f"/sweeps/{sweep_id}/outcomes?cells={query}"
        )
        entries = payload.get("outcomes")
        if not isinstance(entries, list) or [
            entry.get("cell") if isinstance(entry, dict) else None
            for entry in entries
        ] != indices:
            raise ServiceError(
                f"outcomes for sweep {sweep_id} did not list cells {indices}"
            )
        return {
            index: decode_outcome(entry.get("outcome"))
            for index, entry in zip(indices, entries)
        }

    def cancel(self, sweep_id: str) -> Dict[str, object]:
        return self._request("POST", f"/sweeps/{sweep_id}/cancel")


class ServiceBackend(ExecutionBackend):
    """Execute sweep cells on a remote sweep-service daemon.

    Same contract as every local backend: outcomes return in cell order,
    progress events arrive in cell order, records are byte-identical to
    the sequential loop under matched seeds (the daemon's workers run the
    same engines; the parity suite holds it to that).

    ``shard_size`` is forwarded with the submission, so the *daemon* shards
    the seed lists across its worker pool — the client stays a thin pipe.
    So is ``heartbeat_interval`` (``--heartbeat``): the daemon's workers
    emit in-flight beats, the event stream carries them as ``"progress"``
    records, and the backend re-materialises them as
    :class:`~repro.exec.ShardProgress` events for the local progress hook
    — the same shape every local backend delivers.  And so is ``kernel``
    (``--kernel``): the spec rides the submission and resolves on the
    daemon's workers, where the engines actually run.

    All three are validated here, like every local backend's, and the
    constructor opens no connection.
    """

    def __init__(
        self,
        url: str,
        shard_size: ShardSize = None,
        poll_timeout: float = 10.0,
        timeout: float = 60.0,
        heartbeat_interval: Optional[int] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self.client = ServiceClient(url, timeout=timeout)
        self.url = self.client.url
        self.name = f"service:{self.url}"
        self.poll_timeout = poll_timeout
        super().__init__(shard_size, heartbeat_interval, kernel)

    def run_cell_outcomes(
        self,
        cells: Sequence[ExecutionCell],
        progress: Optional[ProgressHook] = None,
    ) -> Tuple[CellOutcome, ...]:
        cells = tuple(cells)
        if not cells:
            return ()
        receipt = self.client.submit(
            cells,
            shard_size=self.shard_size,
            heartbeat_interval=self.heartbeat_interval,
            kernel=self.kernel,
        )
        sweep_id = str(receipt["id"])
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        reported = [False] * len(cells)  # a "cell" event has been walked
        next_emit = 0  # progress events must go out in cell order

        def completed(index: int) -> None:
            if progress is not None:
                outcome = outcomes[index]
                assert outcome is not None
                progress(CellCompleted(index, len(cells), outcome, self.name))

        cursor = 0
        while True:
            poll = self.client.events(
                sweep_id, cursor=cursor, timeout=self.poll_timeout
            )
            cursor = int(poll["cursor"])  # type: ignore[arg-type]
            records = poll.get("events", ())
            self._fetch(
                sweep_id,
                outcomes,
                [
                    int(record["index"])
                    for record in records  # type: ignore[union-attr]
                    if record.get("event") == "cell"
                ],
            )
            for record in records:  # type: ignore[union-attr]
                if record.get("event") == "progress" and progress is not None:
                    # In-flight beats carry no determinism contract, so a
                    # malformed record is dropped rather than failing the
                    # sweep.
                    try:
                        beat = ShardProgress.from_record(record, cells, self.name)
                    except (KeyError, IndexError, TypeError, ValueError):
                        continue
                    progress(beat)
                    continue
                if record.get("event") != "cell":
                    continue
                reported[int(record["index"])] = True
                while next_emit < len(cells) and reported[next_emit]:
                    completed(next_emit)
                    next_emit += 1
            if poll.get("done"):
                state = poll.get("state")
                if state != "done":
                    raise ServiceError(
                        f"sweep {sweep_id} ended in state {state!r}: "
                        f"{poll.get('error') or 'no error reported'}"
                    )
                break
        # Cached cells may predate polling.
        self._fetch(sweep_id, outcomes, range(len(cells)))
        for index in range(next_emit, len(cells)):
            completed(index)
        return tuple(outcomes)  # type: ignore[return-value]

    def _fetch(
        self,
        sweep_id: str,
        outcomes: List[Optional[CellOutcome]],
        cell_indices: Sequence[int],
    ) -> None:
        """Fill the not-yet-fetched ``cell_indices`` in one request.

        Only a batch of more than ``_MAX_CELLS_PER_REQUEST`` cells takes
        several.
        """
        missing = sorted(
            {index for index in cell_indices if outcomes[index] is None}
        )
        for start in range(0, len(missing), _MAX_CELLS_PER_REQUEST):
            chunk = missing[start:start + _MAX_CELLS_PER_REQUEST]
            for index, outcome in self.client.outcomes(sweep_id, chunk).items():
                outcomes[index] = outcome


def tail_service(
    url: str,
    sweep_id: str,
    follow: bool = True,
    interval: float = 0.5,
    out: Optional[IO[str]] = None,
    max_wait: Optional[float] = None,
) -> int:
    """Render a remote sweep's event stream (``repro tail --url``).

    Records come straight off ``GET /sweeps/{id}/events`` and are rendered
    by the same :func:`~repro.telemetry.progress.render_event` as file
    telemetry — shard sub-progress lines included.  Returns the number of
    records rendered; stops at the sweep's terminal state (or after one
    poll when ``follow`` is off, or when ``max_wait`` passes).
    """
    out = out if out is not None else sys.stdout
    client = ServiceClient(url)
    deadline = None if max_wait is None else time.monotonic() + max_wait
    rendered = 0
    cursor = 0
    while True:
        timeout = interval if follow else 0.0
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - time.monotonic()))
        poll = client.events(sweep_id, cursor=cursor, timeout=timeout)
        cursor = int(poll["cursor"])  # type: ignore[arg-type]
        for record in poll.get("events", ()):  # type: ignore[union-attr]
            print(render_event(record), file=out)
            rendered += 1
        if poll.get("done"):
            state = poll.get("state")
            if state != "done":
                print(
                    f"sweep {sweep_id} {state}: "
                    f"{poll.get('error') or 'no error reported'}",
                    file=out,
                )
            break
        if not follow:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
    return rendered
