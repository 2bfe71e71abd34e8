"""ProgressReporter, the telemetry JSONL stream and ``repro tail``."""

import io
import json

import pytest

from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.runner import run_sweep
from repro.telemetry import (
    ProgressReporter,
    iter_telemetry,
    render_event,
    tail_telemetry,
)


def _tiny_sweep():
    return SweepConfig(
        name="telemetry-test",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=(GraphSpec(family="cycle", n=12), GraphSpec(family="path", n=9)),
        num_seeds=2,
        max_rounds=20_000,
    )


def test_reporter_writes_prefixed_lines():
    stream = io.StringIO()
    reporter = ProgressReporter(stream=stream, prefix="  ")
    reporter.line("hello")
    reporter("world")  # drop-in for Callable[[str], None]
    reporter.close()
    assert stream.getvalue() == "  hello\n  world\n"


def test_quiet_suppresses_lines_but_not_telemetry(tmp_path):
    stream = io.StringIO()
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(
        quiet=True, stream=stream, telemetry_path=str(path)
    ) as reporter:
        reporter.line("invisible")
        run_sweep(_tiny_sweep(), progress=reporter)
    assert stream.getvalue() == ""
    records = list(iter_telemetry(str(path)))
    assert [r["event"] for r in records] == ["cell", "cell", "summary"]


def test_telemetry_records_carry_cell_fields(tmp_path):
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        records = run_sweep(_tiny_sweep(), progress=reporter, backend="batched")
    cells = [r for r in iter_telemetry(str(path)) if r["event"] == "cell"]
    assert [c["index"] for c in cells] == [0, 1]
    assert all(c["total"] == 2 for c in cells)
    assert cells[0]["protocol"] == "bfw"
    assert cells[0]["graph"] == "cycle(12)"
    assert cells[0]["n"] == 12
    assert cells[0]["replicas"] == 2
    assert cells[0]["backend"] == "batched"
    assert cells[0]["wall_seconds"] > 0
    assert cells[0]["rounds_advanced"] > 0
    assert cells[0]["mean_rounds"] > 0
    metrics = cells[0]["metrics"]
    assert metrics["counters"]["engine.replicas"] == 2
    (summary,) = [r for r in iter_telemetry(str(path)) if r["event"] == "summary"]
    assert summary["cells"] == 2
    assert summary["rounds_advanced"] == sum(c["rounds_advanced"] for c in cells)
    assert len(records) == 4  # the sweep itself still returns its records


def test_progress_lines_include_wall_time(tmp_path):
    stream = io.StringIO()
    with ProgressReporter(stream=stream) as reporter:
        run_sweep(_tiny_sweep(), progress=reporter)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert "mean rounds:" in line
        assert line.rstrip().endswith("]")
        assert "s" in line.split("[", 1)[1]
        assert "replica-rounds/s" in line


def test_render_event_formats():
    cell = {
        "event": "cell",
        "index": 0,
        "total": 3,
        "protocol": "bfw",
        "graph": "cycle(12)",
        "mean_rounds": 41.5,
        "wall_seconds": 0.5,
        "rounds_advanced": 100,
    }
    line = render_event(cell)
    assert line == "[1/3] bfw on cycle(12) mean rounds 41.5 in 0.500s (200 replica-rounds/s)"
    summary = {
        "event": "summary",
        "cells": 3,
        "wall_seconds": 1.25,
        "rounds_advanced": 300,
    }
    assert render_event(summary) == (
        "sweep complete: 3 cells, 1.250s total, 300 replica-rounds"
    )
    # Unknown events fall back to raw JSON rather than crashing the tail.
    assert json.loads(render_event({"event": "other", "x": 1})) == {
        "event": "other",
        "x": 1,
    }


def test_tail_renders_a_finished_stream(tmp_path):
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        run_sweep(_tiny_sweep(), progress=reporter)
    out = io.StringIO()
    rendered = tail_telemetry(str(path), out=out)
    assert rendered == 3
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("[1/2] bfw on cycle(12)")
    assert lines[-1].startswith("sweep complete: 2 cells")


def test_tail_follow_stops_at_summary(tmp_path):
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        run_sweep(_tiny_sweep(), progress=reporter)
    out = io.StringIO()
    rendered = tail_telemetry(
        str(path), follow=True, interval=0.01, out=out, max_wait=5.0
    )
    assert rendered == 3  # saw the summary and returned without the deadline


def test_tail_follow_respects_max_wait(tmp_path):
    # No summary record: the safety valve must end the polling loop.
    path = tmp_path / "stream.jsonl"
    path.write_text(json.dumps({"event": "cell", "index": 0, "total": 1}) + "\n")
    out = io.StringIO()
    rendered = tail_telemetry(
        str(path), follow=True, interval=0.01, out=out, max_wait=0.05
    )
    assert rendered == 1


def test_iter_telemetry_leaves_partial_trailing_line_unparsed(tmp_path):
    # A record caught mid-write (no newline yet) must not crash the reader;
    # it is picked up once the rest of the line lands.
    path = tmp_path / "stream.jsonl"
    first = json.dumps({"event": "cell", "index": 0, "total": 2})
    second = json.dumps({"event": "cell", "index": 1, "total": 2})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first + "\n" + second[:7])  # second record cut mid-object
    records = list(iter_telemetry(str(path)))
    assert [r["index"] for r in records] == [0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(second[7:] + "\n")
    records = list(iter_telemetry(str(path)))
    assert [r["index"] for r in records] == [0, 1]


def test_iter_telemetry_empty_or_headless_file(tmp_path):
    path = tmp_path / "stream.jsonl"
    path.write_text("")
    assert list(iter_telemetry(str(path))) == []
    # A lone partial line with no newline at all parses as nothing.
    path.write_text('{"event": "cel')
    assert list(iter_telemetry(str(path))) == []


def test_tail_follow_buffers_a_record_written_in_two_chunks(tmp_path):
    import threading
    import time

    path = tmp_path / "stream.jsonl"
    record = json.dumps({"event": "cell", "index": 0, "total": 1})
    summary = json.dumps(
        {"event": "summary", "cells": 1, "wall_seconds": 0.1, "rounds_advanced": 5}
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record[:9])  # partial first record, no newline

    def finish_writing():
        time.sleep(0.1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(record[9:] + "\n")
            fh.flush()
            time.sleep(0.05)
            fh.write(summary + "\n")

    writer = threading.Thread(target=finish_writing)
    writer.start()
    out = io.StringIO()
    rendered = tail_telemetry(
        str(path), follow=True, interval=0.01, out=out, max_wait=5.0
    )
    writer.join()
    assert rendered == 2
    assert out.getvalue().splitlines()[0].startswith("[1/1]")


def test_sharded_sweep_emits_shard_records_but_summary_counts_cells(tmp_path):
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        run_sweep(
            _tiny_sweep(), progress=reporter, backend="batched", shard_size=1
        )
    records = list(iter_telemetry(str(path)))
    shards = [r for r in records if r["event"] == "shard"]
    cells = [r for r in records if r["event"] == "cell"]
    (summary,) = [r for r in records if r["event"] == "summary"]
    # Two cells x two seeds, shard_size=1 -> two shard records per cell.
    assert [(s["index"], s["shard"]) for s in shards] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert all(s["shards"] == 2 and s["replicas"] == 1 for s in shards)
    assert [c["index"] for c in cells] == [0, 1]
    # Shard sub-progress does not inflate the summary totals.
    assert summary["cells"] == 2
    assert summary["rounds_advanced"] == sum(c["rounds_advanced"] for c in cells)


#: The exact keys of every telemetry event kind.  A key added, dropped or
#: renamed on one side must show up here, for files and the service alike.
_GOLDEN_KEYS = {
    "cell": {
        "event", "index", "total", "backend", "protocol", "graph", "n",
        "diameter", "replicas", "mean_rounds", "wall_seconds",
        "rounds_advanced", "metrics",
    },
    "shard": {
        "event", "index", "total", "shard", "shards", "backend", "protocol",
        "graph", "replicas", "wall_seconds", "rounds_advanced",
    },
    "progress": {
        "event", "index", "total", "shard", "shards", "attempt", "backend",
        "protocol", "graph", "replicas", "engine", "kernel", "round",
        "active", "converged", "leaderless", "rounds_advanced",
        "rounds_per_second",
    },
    "summary": {"event", "cells", "wall_seconds", "rounds_advanced"},
}

#: What the service's event stream adds to its ``"cell"`` records.
_SERVICE_CELL_KEYS = {"cached", "retries"}


def _key_sets(records):
    sets = {}
    for record in records:
        sets.setdefault(record["event"], set()).add(frozenset(record))
    return sets


def test_every_event_kind_has_its_golden_key_set(tmp_path):
    from repro.exec import BatchedBackend, ExecutionCell
    from repro.experiments.runner import cell_progress_adapter
    from repro.service import ServiceClient, SweepService

    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=12),
        seeds=(1, 2, 3, 4),
    )
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        BatchedBackend(heartbeat_interval=1, shard_size=2).run_cells(
            (cell,), progress=cell_progress_adapter(reporter)
        )
    local = _key_sets(iter_telemetry(str(path)))
    assert local == {kind: {frozenset(keys)} for kind, keys in _GOLDEN_KEYS.items()}

    with SweepService(workers=1, heartbeat_interval=1) as daemon:
        client = ServiceClient(daemon.url)
        sweep_id = str(client.submit([cell], shard_size=2)["id"])
        events, cursor = [], 0
        while True:
            poll = client.events(sweep_id, cursor=cursor, timeout=15.0)
            events.extend(poll["events"])
            cursor = int(poll["cursor"])
            if poll["done"]:
                break
    remote = _key_sets(events)
    expected = dict(_GOLDEN_KEYS, cell=_GOLDEN_KEYS["cell"] | _SERVICE_CELL_KEYS)
    assert remote == {kind: {frozenset(keys)} for kind, keys in expected.items()}


def test_render_event_shard_format():
    line = render_event(
        {
            "event": "shard",
            "index": 0,
            "total": 2,
            "shard": 1,
            "shards": 4,
            "protocol": "bfw",
            "graph": "cycle(12)",
            "replicas": 8,
            "wall_seconds": 0.25,
        }
    )
    assert line == "[1/2] shard 2/4 bfw on cycle(12) (8 replicas) in 0.250s"


def test_tail_renders_shard_lines_from_a_sharded_sweep(tmp_path):
    path = tmp_path / "stream.jsonl"
    with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
        run_sweep(
            _tiny_sweep(), progress=reporter, backend="batched", shard_size=1
        )
    out = io.StringIO()
    rendered = tail_telemetry(str(path), out=out)
    lines = out.getvalue().splitlines()
    assert rendered == 7  # 4 shard + 2 cell + 1 summary
    assert sum("shard" in line for line in lines) == 4
    assert lines[-1].startswith("sweep complete: 2 cells")


def test_progress_records_round_trip_through_shard_progress():
    from repro.exec import ExecutionCell, ShardProgress
    from repro.telemetry.heartbeat import Heartbeat

    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=12),
        seeds=(3, 4, 5),
    )
    event = ShardProgress(
        index=0,
        total=1,
        backend="batched",
        cell=cell,
        heartbeat=Heartbeat(
            engine="batched",
            kernel="numpy",
            round_index=4,
            replicas=3,
            active=2,
            converged=1,
            leaderless=0,
            rounds_advanced=12,
            rounds_per_second=300.0,
            elapsed_seconds=0.0,
        ),
        shard_index=1,
        shard_count=2,
        attempt=1,
    )
    record = json.loads(json.dumps(event.to_record()))
    assert record["event"] == "progress" and record["kernel"] == "numpy"
    assert ShardProgress.from_record(record, (cell,), "batched") == event
    with pytest.raises(IndexError):
        ShardProgress.from_record({**record, "index": 1}, (cell,), "batched")


def test_reporter_appends_across_instances(tmp_path):
    path = tmp_path / "stream.jsonl"
    for _ in range(2):
        with ProgressReporter(quiet=True, telemetry_path=str(path)) as reporter:
            reporter.emit({"event": "probe"})
    records = list(iter_telemetry(str(path)))
    assert [r["event"] for r in records] == ["probe", "summary", "probe", "summary"]


# --------------------------------------------------------------------------- #
# CLI round trips
# --------------------------------------------------------------------------- #


def test_cli_tail_renders_file(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "stream.jsonl"
    path.write_text(
        json.dumps(
            {
                "event": "summary",
                "cells": 1,
                "wall_seconds": 0.5,
                "rounds_advanced": 10,
            }
        )
        + "\n"
    )
    assert main(["tail", str(path)]) == 0
    captured = capsys.readouterr()
    assert "sweep complete: 1 cells" in captured.out


def test_cli_tail_missing_file_fails(tmp_path, capsys):
    from repro.cli import main

    assert main(["tail", str(tmp_path / "absent.jsonl")]) == 1
    assert "absent.jsonl" in capsys.readouterr().err


def test_cli_quiet_and_telemetry_flags_parse():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["table1", "--quiet", "--telemetry", "out.jsonl"]
    )
    assert args.quiet is True
    assert args.telemetry == "out.jsonl"
    args = build_parser().parse_args(["dynamic"])
    assert args.quiet is False
    assert args.telemetry is None
