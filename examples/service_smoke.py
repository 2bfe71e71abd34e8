#!/usr/bin/env python
"""Smoke-test the sweep service end to end: parity, cache, clean status.

Against a running daemon (or one it boots itself), this script

1. waits for ``GET /healthz`` to answer,
2. submits a small sweep through ``ServiceBackend`` and checks the
   records are byte-identical to a local ``SequentialBackend`` run,
3. resubmits the identical sweep twice and asserts it was served from
   the content-addressed result cache (``service.cache_hits`` advanced,
   no new shards executed) in at most three HTTP requests per sweep,
   with byte-identical outcome payloads both times,
4. submits a fresh sweep with a per-sweep ``heartbeat_interval`` and
   asserts an in-flight ``progress`` event arrives **before** the sweep
   completes — live observability, not just a post-hoc summary,
5. sends ``POST /sweeps`` with ``Content-Length: -1`` over a raw socket
   and asserts a 400 arrives within 5 s (the daemon must not block
   reading a body of negative length),
6. submits a sweep with ``shard_size: 0`` and asserts the 400 names the
   shard size and ``GET /sweeps`` lists no new sweep (a refused
   submission must leave nothing behind for a draining stop to wait on),
7. prints the service counters.

Run it against a daemon you started (CI does this)::

    repro serve --port 8123 &
    python examples/service_smoke.py http://127.0.0.1:8123

or let it boot an in-process daemon::

    python examples/service_smoke.py
"""

from __future__ import annotations

import socket
import sys
import time
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.exec import ExecutionCell, SequentialBackend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.seeds import trial_seeds
from repro.service import ServiceBackend, ServiceClient


def wait_for_healthz(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            payload = client.healthz()
        except Exception:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)
        else:
            print(f"healthz: {payload}")
            return


def smoke_cells() -> tuple:
    cells = []
    for graph, n in (("cycle", 16), ("path", 13)):
        cells.append(
            ExecutionCell(
                protocol=ProtocolSpecConfig(name="bfw"),
                graph=GraphSpec(family=graph, n=n),
                seeds=trial_seeds(17, f"service-smoke/{graph}/{n}", 6),
                graph_rng_key=(17, "service-smoke-graph", graph, n),
            )
        )
    return tuple(cells)


def recording(client: ServiceClient) -> list:
    """Log every HTTP request ``client`` makes as ``(path, reply)``."""
    log: list = []
    request = client._request

    def logged(method, path, *args, **kwargs):
        reply = request(method, path, *args, **kwargs)
        log.append((path, reply))
        return reply

    client._request = logged
    return log


def outcome_payloads(log: list) -> list:
    """The raw outcome payload strings of a request log's outcome replies."""
    return [
        entry["outcome"]
        for path, reply in log
        if "/outcomes?" in path
        for entry in reply["outcomes"]
    ]


def check_negative_content_length(url: str, timeout: float = 5.0) -> None:
    """A ``Content-Length: -1`` submission must get a prompt 400."""
    split = urlsplit(url)
    started = time.monotonic()
    with socket.create_connection(
        (split.hostname, split.port), timeout=timeout
    ) as sock:
        sock.sendall(
            b"POST /sweeps HTTP/1.1\r\nHost: smoke\r\n"
            b"Content-Length: -1\r\n\r\n"
        )
        reply = sock.recv(65536)
    elapsed = time.monotonic() - started
    status = reply.split(b" ", 2)[1] if reply else b"(no reply)"
    assert status == b"400", f"Content-Length: -1 got HTTP {status!r}"
    print(f"hostile Content-Length: HTTP 400 in {elapsed * 1000:.0f} ms")


def check_refused_shard_size(client: ServiceClient) -> None:
    """A ``shard_size: 0`` submission is a 400 that registers no sweep.

    The cell is one the daemon has not seen, so a sweep registered before
    the refusal would never finish and a draining stop would wait on it.
    """
    fresh = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=20),
        seeds=trial_seeds(19, "service-smoke/refused/20", 4),
    )
    before = len(client.sweeps()["sweeps"])
    try:
        client.submit([fresh], shard_size=0)
    except ServiceError as error:
        message = str(error)
    else:
        raise AssertionError("a shard_size=0 submission was accepted")
    assert "HTTP 400" in message and "shard size" in message, message
    after = len(client.sweeps()["sweeps"])
    assert after == before, f"a refused submission registered a sweep ({after})"
    print(f"refused shard_size=0: {message}; no sweep registered")


def run_smoke(url: str) -> None:
    client = ServiceClient(url)
    wait_for_healthz(client)

    cells = smoke_cells()
    local = SequentialBackend().run_cells(cells)

    backend = ServiceBackend(url, shard_size=3)
    first = backend.run_cells(cells)
    assert first == local, "service records differ from a local sequential run"
    print(f"parity: {len(first)} records byte-identical to SequentialBackend")

    before = client.metrics()["service"]["counters"]
    log = recording(backend.client)
    second = backend.run_cells(cells)
    assert second == local, "cached records differ from the original run"
    requests, payloads = len(log), outcome_payloads(log)
    log.clear()
    assert backend.run_cells(cells) == local
    assert outcome_payloads(log) == payloads, "cache-hit payloads differ"
    after = client.metrics()["service"]["counters"]
    hits = after.get("service.cache_hits", 0) - before.get("service.cache_hits", 0)
    executed = after.get("service.shards_executed", 0) - before.get(
        "service.shards_executed", 0
    )
    assert hits >= len(cells), f"expected a cache hit per cell, got {hits}"
    assert executed == 0, f"resubmission executed {executed} new shards"
    assert len(payloads) == len(cells)
    for count in (requests, len(log)):
        assert count <= 3, f"a cached resubmission took {count} HTTP requests"
    print(
        f"cache: resubmissions served {hits} cells from cache, 0 shards "
        f"executed, {requests} HTTP requests each, byte-identical payloads"
    )

    # Live observability: with heartbeats on, the event stream must carry
    # an in-flight "progress" record while the sweep is still running —
    # i.e. an events() poll wakes with done=False before the summary lands.
    live = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=96),
        seeds=trial_seeds(18, "service-smoke/live/96", 48),
        graph_rng_key=(18, "service-smoke-live-graph", "cycle", 96),
    )
    sweep_id = str(client.submit([live], heartbeat_interval=1)["id"])
    cursor = 0
    saw_progress_before_done = False
    kinds: list = []
    # Each events() call is a long-poll that wakes on the FIRST new event
    # past the cursor, so drain in a loop until the done flag flips.
    for _ in range(600):
        poll = client.events(sweep_id, cursor=cursor, timeout=15.0)
        for record in poll["events"]:
            kinds.append(record["event"])
            if record["event"] == "progress" and not poll["done"]:
                saw_progress_before_done = True
        cursor = int(poll["cursor"])
        if poll["done"]:
            break
    else:
        raise AssertionError("live sweep never reported done")
    assert "progress" in kinds, f"no in-flight progress events in {kinds}"
    assert saw_progress_before_done, (
        "every progress event arrived only after completion — "
        "in-flight observability is broken"
    )
    assert kinds.index("progress") < kinds.index("summary")
    beats = kinds.count("progress")
    print(f"live: {beats} in-flight progress event(s) before completion")

    check_negative_content_length(url)
    check_refused_shard_size(client)

    print("service counters:")
    for name in sorted(after):
        print(f"  {name} = {after[name]}")
    print("service smoke OK")


def main() -> None:
    if len(sys.argv) > 1:
        run_smoke(sys.argv[1])
    else:
        from repro.service import SweepService

        with SweepService(workers=2) as daemon:
            run_smoke(daemon.url)


if __name__ == "__main__":
    main()
