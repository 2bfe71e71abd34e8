"""Heartbeats are pure observability: records stay byte-identical.

The invariant the ISSUE pins down: whether heartbeats are off, every
round (K=1) or sparse (K=7), every backend produces records
byte-identical to the silent sequential reference — heartbeats never
touch the random generator or control flow.  On top of parity, the
emitted :class:`ShardProgress` events must carry well-formed heartbeats
and, on sharding backends, the shard/attempt tags.
"""

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BatchedBackend,
    CellCompleted,
    ProcessBackend,
    SequentialBackend,
    ShardProgress,
    resolve_backend,
)
from repro.experiments.config import GraphSpec
from repro.service import ServiceBackend

from tests.batch.parity_harness import backend_parity_cells

#: A compact slice of the standard parity set: one constant-state
#: protocol and one memory baseline over the harness's graph family mix,
#: so all four engines emit beats without tripling the suite's runtime.
PARITY_CELLS = backend_parity_cells(
    protocols=("bfw", "emek-keren"), num_seeds=3
)


def _run(backend, cells=PARITY_CELLS):
    events = []
    records = backend.run_cells(cells, progress=events.append)
    return records, [e for e in events if isinstance(e, ShardProgress)]


# --------------------------------------------------------------------------- #
# Interval validation through resolve_backend
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("interval", [0, -3, "fast"])
def test_bad_heartbeat_interval_is_a_configuration_error(interval):
    with pytest.raises(ConfigurationError):
        resolve_backend("sequential", heartbeat_interval=interval)
    with pytest.raises(ConfigurationError):
        SequentialBackend(heartbeat_interval=interval)
    with pytest.raises(ConfigurationError):
        ServiceBackend("http://127.0.0.1:9", heartbeat_interval=interval)


def test_resolve_backend_sets_the_interval_on_any_backend():
    assert resolve_backend("batched").heartbeat_interval is None
    backend = resolve_backend("process:2", heartbeat_interval=16)
    assert backend.heartbeat_interval == 16


# --------------------------------------------------------------------------- #
# Byte-identity across K ∈ {1, 7, off}
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("spec", ["sequential", "batched"])
@pytest.mark.parametrize("interval", [1, 7, None])
def test_heartbeats_never_change_records(spec, interval):
    reference = SequentialBackend().run_cells(PARITY_CELLS)
    backend = resolve_backend(spec, heartbeat_interval=interval)
    records, beats = _run(backend)
    assert records == reference
    if interval is None:
        assert beats == []
    else:
        assert beats  # in-flight events actually flowed


def test_process_backend_heartbeats_preserve_parity_and_tag_shards():
    cells = PARITY_CELLS[:4]
    reference = SequentialBackend().run_cells(cells)
    backend = resolve_backend("process:2", shard_size=2, heartbeat_interval=1)
    records, beats = _run(backend, cells)
    assert records == reference
    assert beats, "process workers shipped no heartbeats"
    for event in beats:
        assert event.backend == "process:2"
        assert event.shard_index is not None and event.shard_count is not None
        assert 0 <= event.shard_index < event.shard_count


# --------------------------------------------------------------------------- #
# Event payloads
# --------------------------------------------------------------------------- #


def test_shard_progress_payload_is_well_formed():
    cells = PARITY_CELLS[:2]
    records, beats = _run(BatchedBackend(heartbeat_interval=1), cells)
    assert beats
    for event in beats:
        assert 0 <= event.index < event.total == len(cells)
        assert event.backend == "batched"
        assert event.cell in cells
        beat = event.heartbeat
        assert beat.round_index >= 0
        assert 0 <= beat.active <= beat.replicas == len(event.cell.seeds)
        assert beat.rounds_advanced >= 0
    # Cumulative replica-rounds are monotone per cell.
    for index in range(len(cells)):
        advanced = [
            e.heartbeat.rounds_advanced for e in beats if e.index == index
        ]
        assert advanced == sorted(advanced)


def test_sparser_intervals_emit_fewer_beats():
    cell_set = backend_parity_cells(protocols=("bfw",), num_seeds=3)
    _, dense = _run(resolve_backend("batched", heartbeat_interval=1), cell_set)
    _, sparse = _run(resolve_backend("batched", heartbeat_interval=50), cell_set)
    assert len(sparse) < len(dense)


def test_heartbeats_without_a_progress_hook_are_the_noop_path():
    # No hook to deliver to → no emitter is built; this must not raise
    # and must match the silent reference.
    backend = BatchedBackend(heartbeat_interval=1)
    assert backend.run_cells(PARITY_CELLS[:2]) == SequentialBackend().run_cells(
        PARITY_CELLS[:2]
    )


def test_cell_events_still_arrive_interleaved_with_beats():
    cells = PARITY_CELLS[:3]
    events = []
    SequentialBackend(heartbeat_interval=1).run_cells(
        cells, progress=events.append
    )
    completions = [e for e in events if isinstance(e, CellCompleted)]
    assert [e.index for e in completions] == [0, 1, 2]
    # Each cell's beats precede its completion event in the stream.
    for completion in completions:
        position = events.index(completion)
        later_beats = [
            e for e in events[position + 1:]
            if isinstance(e, ShardProgress) and e.index == completion.index
        ]
        assert later_beats == []
