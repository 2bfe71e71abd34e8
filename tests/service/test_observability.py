"""Live observability through the service: heartbeats, spans, dashboards.

Covers the in-flight surface the daemon grew alongside its completed-work
events: progress records on the event stream *before* the sweep finishes,
per-shard heartbeat rows in ``GET /sweeps/{id}``, the ``/sweeps`` listing,
the span-tree endpoint, Prometheus text exposition on ``/metrics``, the
liveness-based watchdog, and the pure render functions behind
``repro top``.
"""

import json
import time
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.exec import SequentialBackend, ShardProgress
from repro.service import (
    ServiceBackend,
    ServiceClient,
    ServiceFaultInjector,
    SweepService,
)
from repro.service.dashboard import render_top
from repro.service.prometheus import prometheus_name, render_prometheus
from repro.telemetry.spans import SPAN_KINDS, spans_from_records

from tests.service.conftest import make_cell


@pytest.fixture
def beating_service():
    with SweepService(workers=2, heartbeat_interval=1) as daemon:
        yield daemon


def _drain_events(client, sweep_id, timeout=15.0):
    """Collect the full event stream.  One ``events`` call is *not* enough
    on a heartbeating sweep: the long-poll wakes on the first in-flight
    progress record, long before the sweep is done."""
    events, cursor = [], 0
    deadline = time.monotonic() + timeout
    while True:
        poll = client.events(sweep_id, cursor=cursor, timeout=timeout)
        events.extend(poll["events"])
        cursor = int(poll["cursor"])
        if poll["done"] or time.monotonic() > deadline:
            return events


def _wait_done(client, sweep_id, timeout=15.0):
    _drain_events(client, sweep_id, timeout=timeout)
    state = client.status(sweep_id)["state"]
    assert state == "done", f"sweep {sweep_id} ended {state!r}"


# --------------------------------------------------------------------------- #
# In-flight progress events
# --------------------------------------------------------------------------- #


def test_progress_events_arrive_before_the_sweep_completes(beating_service):
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([make_cell(seeds=tuple(range(6)))])["id"])
    events = _drain_events(client, sweep_id)
    kinds = [record["event"] for record in events]
    assert "progress" in kinds
    # The whole point: at least one in-flight record precedes the summary.
    assert kinds.index("progress") < kinds.index("summary")
    progress = next(r for r in events if r["event"] == "progress")
    for key in ("engine", "round", "active", "converged", "leaderless",
                "rounds_advanced", "rounds_per_second", "protocol", "graph"):
        assert key in progress


def test_per_sweep_interval_overrides_the_daemon_default(service):
    # The plain fixture daemon has heartbeats off; a submission can turn
    # them on for its own sweep.
    client = ServiceClient(service.url)
    quiet_id = str(client.submit([make_cell()])["id"])
    beating_id = str(
        client.submit([make_cell(seeds=(5, 6, 7))], heartbeat_interval=1)["id"]
    )
    quiet = [r["event"] for r in _drain_events(client, quiet_id)]
    beating = [r["event"] for r in _drain_events(client, beating_id)]
    assert "progress" not in quiet
    assert "progress" in beating


def test_local_and_service_progress_records_share_one_key_set(
    beating_service, tmp_path
):
    from repro.exec import BatchedBackend
    from repro.experiments.runner import cell_progress_adapter
    from repro.telemetry import ProgressReporter, iter_telemetry

    cell = make_cell(seeds=tuple(range(6)))
    path = tmp_path / "telemetry.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        BatchedBackend(heartbeat_interval=1, shard_size=2).run_cells(
            (cell,), progress=cell_progress_adapter(reporter)
        )
    local = [r for r in iter_telemetry(str(path)) if r["event"] == "progress"]
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([cell], shard_size=2)["id"])
    remote = [
        r for r in _drain_events(client, sweep_id) if r["event"] == "progress"
    ]
    assert local and remote
    assert {frozenset(r) for r in local} == {frozenset(r) for r in remote}
    assert "kernel" in local[0]
    # A shard's beat carries the shard's replica count, on both sides and
    # through the event ServiceBackend rebuilds from the wire record.
    assert {r["replicas"] for r in local + remote} == {2}
    for record in remote:
        event = ShardProgress.from_record(record, (cell,), "service")
        assert event.to_record()["replicas"] == record["replicas"]


def test_service_backend_forwards_shard_progress(beating_service):
    cell = make_cell(seeds=tuple(range(6)))
    reference = SequentialBackend().run_cells((cell,))
    backend = ServiceBackend(beating_service.url, heartbeat_interval=1)
    events = []
    records = backend.run_cells((cell,), progress=events.append)
    assert records == reference  # heartbeats never change the bytes
    beats = [e for e in events if isinstance(e, ShardProgress)]
    assert beats
    for event in beats:
        assert event.backend == backend.name
        assert event.heartbeat.round_index >= 0


def test_bad_heartbeat_interval_is_rejected():
    with pytest.raises(ConfigurationError):
        SweepService(workers=1, heartbeat_interval=0)
    with pytest.raises(ConfigurationError):
        SweepService(workers=1, heartbeat_interval="fast")


# --------------------------------------------------------------------------- #
# Per-shard status rows
# --------------------------------------------------------------------------- #


def test_status_shows_live_shard_rows_while_running():
    injector = ServiceFaultInjector.from_spec("hang-beating:0:0:0.8")
    with SweepService(
        workers=1, heartbeat_interval=1, fault_injector=injector
    ) as daemon:
        client = ServiceClient(daemon.url)
        sweep_id = str(client.submit([make_cell()])["id"])
        row = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status = client.status(sweep_id)
            rows = [
                r for r in status.get("progress", ())
                if r.get("state") == "running" and "round" in r
            ]
            if rows:
                row = rows[0]
                break
            if status["state"] != "running":  # pragma: no cover - raced past
                break
            time.sleep(0.05)
        assert row is not None, "no live shard row observed mid-run"
        assert row["cell"] == 0
        assert row["protocol"] == "bfw"
        assert row["beat_age_seconds"] >= 0.0
        _wait_done(client, sweep_id)
        # Terminal sweeps report no in-flight rows.
        assert client.status(sweep_id)["progress"] == []


# --------------------------------------------------------------------------- #
# /sweeps listing and the span endpoint
# --------------------------------------------------------------------------- #


def test_sweep_listing_summarises_every_sweep(beating_service):
    client = ServiceClient(beating_service.url)
    first = str(client.submit([make_cell()])["id"])
    second = str(client.submit([make_cell(seeds=(8, 9))])["id"])
    _wait_done(client, first)
    _wait_done(client, second)
    listing = client.sweeps()["sweeps"]
    assert [row["id"] for row in listing] == [first, second]
    for row in listing:
        assert row["state"] == "done"
        assert row["completed_cells"] == row["cells"] == 1
        assert row["completed_shards"] == row["shards"]
        assert row["retries"] == 0
        assert row["error"] is None


def test_span_endpoint_returns_the_finished_tree(beating_service):
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    _wait_done(client, sweep_id)
    payload = client.spans(sweep_id)
    assert payload["id"] == sweep_id
    spans = spans_from_records(payload["spans"])
    assert sorted({span.kind for span in spans}) == sorted(SPAN_KINDS)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        assert span.end is not None, f"unfinished span {span.name}"
        if span.kind != "sweep":
            assert span.parent_id in by_id
    (attempt,) = [span for span in spans if span.kind == "attempt"]
    assert attempt.attrs["outcome"] == "done"


# --------------------------------------------------------------------------- #
# /metrics: JSON histogram + Prometheus text negotiation
# --------------------------------------------------------------------------- #


def test_metrics_json_includes_the_shard_wall_histogram(beating_service):
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    _wait_done(client, sweep_id)
    metrics = client.metrics()
    assert metrics["service"]["counters"]["service.heartbeats"] >= 1
    histogram = metrics["shard_wall_seconds"]
    assert histogram["count"] >= 1
    assert histogram["sum"] > 0.0
    buckets = histogram["buckets"]
    assert buckets[-1]["le"] is None  # +Inf
    counts = [bucket["count"] for bucket in buckets]
    assert counts == sorted(counts)  # cumulative
    assert counts[-1] == histogram["count"]


def test_metrics_negotiates_prometheus_text(beating_service):
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    _wait_done(client, sweep_id)
    request = urllib.request.Request(
        f"{beating_service.url}/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert "text/plain" in response.headers.get("Content-Type")
        text = response.read().decode("utf-8")
    assert "# TYPE repro_service_heartbeats counter" in text
    assert "# TYPE repro_service_workers gauge" in text
    assert "# TYPE repro_service_shard_wall_seconds histogram" in text
    assert 'repro_service_shard_wall_seconds_bucket{le="+Inf"}' in text
    assert 'repro_service_info{version="' in text
    # Without the Accept header the endpoint still serves JSON.
    with urllib.request.urlopen(
        f"{beating_service.url}/metrics", timeout=10
    ) as response:
        assert "application/json" in response.headers.get("Content-Type")
        json.loads(response.read().decode("utf-8"))


def test_prometheus_name_mangling():
    assert prometheus_name("service.cache_hits") == "repro_service_cache_hits"
    assert prometheus_name("a-b c") == "repro_a_b_c"


def test_render_prometheus_is_a_pure_function():
    text = render_prometheus(
        {
            "service": {
                "counters": {"service.cache_hits": 3},
                "gauges": {"service.workers": 2},
            },
            "shard_wall_seconds": {
                "buckets": [{"le": 0.5, "count": 1}, {"le": None, "count": 2}],
                "sum": 1.25,
                "count": 2,
            },
        },
        health={"version": "9.9.9", "uptime_seconds": 12.5},
    )
    assert "# TYPE repro_service_cache_hits counter" in text
    assert "repro_service_cache_hits 3" in text
    assert "repro_service_workers 2" in text
    assert 'repro_service_shard_wall_seconds_bucket{le="0.5"} 1' in text
    assert 'repro_service_shard_wall_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_service_shard_wall_seconds_sum 1.25" in text
    assert "repro_service_shard_wall_seconds_count 2" in text
    assert 'repro_service_info{version="9.9.9"} 1' in text
    assert "repro_service_uptime_seconds 12.5" in text
    assert text.endswith("\n")


def test_healthz_reports_version_and_uptime(service):
    from repro._version import __version__

    payload = ServiceClient(service.url).healthz()
    assert payload["version"] == __version__
    assert payload["uptime_seconds"] >= 0.0


# --------------------------------------------------------------------------- #
# Liveness watchdog (the false-positive fix)
# --------------------------------------------------------------------------- #


def _run_with_fault(spec):
    cell = make_cell(seeds=tuple(range(6)))
    reference = SequentialBackend().run_cells((cell,))
    injector = ServiceFaultInjector.from_spec(spec)
    with SweepService(
        workers=2,
        shard_timeout=0.5,
        heartbeat_interval=1,
        fault_injector=injector,
    ) as daemon:
        backend = ServiceBackend(daemon.url, heartbeat_interval=1)
        records = backend.run_cells((cell,))
        assert records == reference
        (row,) = ServiceClient(daemon.url).sweeps()["sweeps"]
        return row["retries"]


def test_hanging_but_beating_shard_is_not_killed_at_shard_timeout():
    # Hangs for 1.2s — past the 0.5s shard timeout — but keeps pulsing,
    # so the liveness watchdog must leave it alone.
    assert _run_with_fault("hang-beating:0:0:1.2") == 0


def test_silent_hang_is_still_requeued_at_shard_timeout():
    # The control: same hang without beats re-queues as before.
    assert _run_with_fault("hang-silent:0:0:1.2") >= 1


# --------------------------------------------------------------------------- #
# render_top (the pure half of `repro top`)
# --------------------------------------------------------------------------- #


def _top_payloads():
    health = {"state": "serving", "version": "1.0.0", "uptime_seconds": 30.0}
    metrics = {
        "service": {
            "counters": {
                "service.heartbeats": 12,
                "service.cache_hits": 1,
                "service.cache_misses": 3,
                "service.shards_retried": 1,
            },
            "gauges": {
                "service.workers": 2,
                "service.queue_depth": 0,
                "service.shards_running": 1,
            },
        },
        "shard_wall_seconds": {"sum": 0.5, "count": 4, "buckets": []},
    }
    sweeps = {
        "sweeps": [
            {
                "id": "ab12cd34", "state": "running", "cells": 2,
                "completed_cells": 1, "shards": 4, "completed_shards": 2,
                "retries": 1,
            }
        ]
    }
    statuses = {
        "ab12cd34": {
            "progress": [
                {
                    "cell": 1, "shard": 0, "shards": 2, "attempt": 0,
                    "state": "running", "round": 96, "active": 2,
                    "replicas": 4, "rounds_per_second": 1234.0,
                    "beat_age_seconds": 0.04, "retries": 0,
                }
            ]
        }
    }
    return health, metrics, sweeps, statuses


def test_render_top_frame_layout():
    health, metrics, sweeps, statuses = _top_payloads()
    frame = render_top(
        health, metrics, sweeps, statuses, url="http://127.0.0.1:1"
    )
    assert "repro top — http://127.0.0.1:1 — serving — v1.0.0 — up 30s" in frame
    assert "workers 2" in frame and "queue 0" in frame
    assert "running shards 1" in frame
    assert "heartbeats 12" in frame
    assert "cache 1/3 hit/miss" in frame
    assert "shards executed 4" in frame and "mean wall 0.125s" in frame
    assert "SWEEP" in frame and "ab12cd34" in frame
    assert "cell 1 shard 0/2 attempt 0 running round 96" in frame
    assert "active 2/4" in frame
    assert "1,234 rounds/s" in frame
    assert "beat 0.0s ago" in frame


def test_render_top_without_sweeps():
    health, metrics, _, _ = _top_payloads()
    frame = render_top(health, metrics, {"sweeps": []})
    assert "(no sweeps submitted yet)" in frame


def test_render_top_against_a_live_service(beating_service):
    client = ServiceClient(beating_service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    _wait_done(client, sweep_id)
    frame = render_top(
        client.healthz(), client.metrics(), client.sweeps(),
        url=beating_service.url,
    )
    assert sweep_id in frame
    assert "done" in frame
