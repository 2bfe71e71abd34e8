"""Out-of-core traces: spilled segments replay byte-identically.

Acceptance contract of the spilling recorder: a trace recorded under a byte
budget (many small ``.npz`` segments, bounded window RAM) is
*content-identical* to the in-memory :class:`BatchTrace` of the same run —
``replica(r)`` byte for byte, ``load()`` field for field — on static and
dynamic schedules.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import first_beep_round
from repro.batch import BatchedEngine, BatchTraceRecorder
from repro.core.bfw import BFWProtocol
from repro.dynamics import ScheduleSpec, build_schedule
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.telemetry import SpilledTrace, SpillingTraceRecorder, StreamingFirstBeep

from tests.batch.parity_harness import assert_same_trace

SEEDS = tuple(range(5))


def _record_both(topology, protocol, tmp_path, spec=None, window_rows=7, **run_kwargs):
    """One batched run recording in memory and spilled-to-disk side by side."""
    recorder = BatchTraceRecorder()
    spiller = SpillingTraceRecorder(
        directory=str(tmp_path), window_rows=window_rows
    )
    schedule = None if spec is None else build_schedule(spec, topology)
    BatchedEngine(topology, protocol, schedule=schedule).run(
        list(SEEDS), observers=[recorder, spiller], **run_kwargs
    )
    return recorder.trace(), spiller


def test_spilled_replicas_byte_identical(small_cycle, bfw, tmp_path):
    batch, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    # A tiny window forces many segments — the replay is genuinely stitched.
    assert len(spilled._manifest["segment_rows"]) > 1
    assert spilled.num_replicas == batch.num_replicas
    assert spilled.num_rounds == batch.num_rounds
    np.testing.assert_array_equal(spilled.rounds_executed, batch.rounds_executed)
    np.testing.assert_array_equal(spilled.valid_mask(), batch.valid_mask())
    for replica in range(batch.num_replicas):
        assert_same_trace(spilled.replica(replica), batch.replica(replica))
    assert spilled.load() == batch
    for mine, theirs in zip(spilled.to_traces(), batch.to_traces()):
        assert_same_trace(mine, theirs)


def test_spilled_replicas_byte_identical_under_churn(small_cycle, bfw, tmp_path):
    spec = ScheduleSpec(
        "edge-churn", {"add_per_round": 1, "remove_per_round": 1, "seed": 7}
    )
    batch, spiller = _record_both(
        small_cycle, bfw, tmp_path, spec=spec, max_rounds=2000
    )
    spilled = spiller.trace()
    for replica in range(batch.num_replicas):
        assert_same_trace(spilled.replica(replica), batch.replica(replica))
    assert spilled.load() == batch


def test_segments_tile_the_full_history(small_cycle, bfw, tmp_path):
    batch, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    starts = []
    windows = []
    for start, window in spilled.segments():
        starts.append(start)
        windows.append(window)
        assert window.shape[1:] == (batch.num_replicas, batch.n)
        assert window.shape[0] <= 7  # never wider than the window
    assert starts == list(np.cumsum([0] + [w.shape[0] for w in windows[:-1]]))
    np.testing.assert_array_equal(np.concatenate(windows, axis=0), batch.states)


def test_byte_budget_bounds_the_window(small_cycle, bfw, tmp_path):
    # budget // (R * n) = 240 // (5 * 12) = 4 rounds per window.
    spiller = SpillingTraceRecorder(directory=str(tmp_path), byte_budget=240)
    BatchedEngine(small_cycle, bfw).run(
        list(SEEDS), observers=[spiller], max_rounds=20_000
    )
    spilled = spiller.trace()
    assert spilled.byte_budget == 240
    row_bytes = len(SEEDS) * small_cycle.n
    assert spiller.peak_window_bytes <= 4 * row_bytes
    assert spilled.peak_window_bytes == spiller.peak_window_bytes
    for _, window in spilled.segments():
        assert window.shape[0] <= 4


def test_out_of_core_analysis_replay(small_cycle, bfw, tmp_path):
    # The README workflow: stream the spilled trace back through the
    # analysis layer without rehydrating the whole history.
    batch, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    expected = batch.replay(StreamingFirstBeep())
    for replica in range(spilled.num_replicas):
        np.testing.assert_array_equal(
            first_beep_round(spilled.replica(replica)), expected[replica]
        )


def test_from_batch_trace_round_trip(cycle_batch_trace, tmp_path):
    spilled = SpilledTrace.from_batch_trace(
        cycle_batch_trace, directory=str(tmp_path), byte_budget=500
    )
    assert spilled.load() == cycle_batch_trace
    assert spilled == SpilledTrace.from_batch_trace(
        cycle_batch_trace, directory=str(tmp_path)
    )  # content equality across window sizes
    assert spilled.protocol_name == cycle_batch_trace.protocol_name
    assert spilled.topology_name == cycle_batch_trace.topology_name
    assert spilled.seeds == cycle_batch_trace.seeds


def test_merge_results_matches_batched_recording(small_cycle, bfw, tmp_path):
    # The sequential backend's path: one R = 1 spill per replica, merged.
    from repro.beeping.engine import VectorizedEngine

    per_replica = []
    for seed in SEEDS:
        solo = SpillingTraceRecorder(directory=str(tmp_path), window_rows=7)
        VectorizedEngine(small_cycle, bfw).run(
            rng=seed, max_rounds=20_000, observers=[solo]
        )
        per_replica.append(solo.trace())
    merged = SpillingTraceRecorder.merge_results(per_replica)
    batch, _ = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    assert merged.load() == batch


def test_spilled_trace_is_picklable(small_cycle, bfw, tmp_path):
    import pickle

    _, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    clone = pickle.loads(pickle.dumps(spilled))
    assert clone == spilled
    assert_same_trace(clone.replica(0), spilled.replica(0))


def test_cleanup_removes_the_spill_directory(small_cycle, bfw, tmp_path):
    _, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    assert os.path.isdir(spilled.directory)
    spilled.cleanup()
    assert not os.path.exists(spilled.directory)


def test_memory_engines_are_rejected(small_cycle, tmp_path):
    from repro.batch.memory import BatchedMemoryEngine
    from repro.experiments.runner import instantiate_protocol

    protocol = instantiate_protocol("id-broadcast", small_cycle)
    with pytest.raises(ConfigurationError):
        BatchedMemoryEngine(small_cycle, protocol).run(
            [0, 1],
            observers=[SpillingTraceRecorder(directory=str(tmp_path))],
            max_rounds=500,
        )


def test_error_paths(tmp_path):
    with pytest.raises(ConfigurationError):
        SpillingTraceRecorder(byte_budget=0)
    with pytest.raises(ConfigurationError):
        SpillingTraceRecorder(window_rows=0)
    with pytest.raises(SimulationError):
        SpillingTraceRecorder(directory=str(tmp_path)).trace()
    with pytest.raises(TraceError):
        SpilledTrace(str(tmp_path / "missing"))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text(json.dumps({"format": "not-a-trace"}))
    with pytest.raises(TraceError):
        SpilledTrace(str(bad))


def test_replica_index_out_of_range(small_cycle, bfw, tmp_path):
    _, spiller = _record_both(small_cycle, bfw, tmp_path, max_rounds=20_000)
    spilled = spiller.trace()
    with pytest.raises(TraceError):
        spilled.replica(len(SEEDS))
    with pytest.raises(TraceError):
        spilled.replica(-1)
