"""Unit tests for the batched observation layer (repro.batch.observers)."""

import pickle

import numpy as np
import pytest

from repro.batch import (
    BatchedEngine,
    BatchedMemoryEngine,
    BatchBeepCountTracker,
    BatchLeaderCountTracker,
    BatchObserver,
    BatchRunInfo,
    BatchSingleLeaderStopper,
    BatchTrace,
    BatchTraceRecorder,
    LeaderExtinctionObserver,
    ObserverPipeline,
    ObserverSpec,
    build_observer,
    build_observers,
    merge_observations,
)
from repro.baselines import EmekKerenStyleElection, PipelinedIDElection
from repro.beeping.engine import VectorizedEngine
from repro.core.bfw import BFWProtocol
from repro.errors import (
    ConfigurationError,
    SimulationError,
    TraceError,
)
from repro.experiments.montecarlo import MonteCarloRunner
from repro.graphs.generators import cycle_graph

SEEDS = tuple(range(5))


def _run_with(observers, n=12, seeds=SEEDS, **kwargs):
    topology = cycle_graph(n)
    engine = BatchedEngine(topology, BFWProtocol())
    return engine.run(list(seeds), observers=observers, **kwargs)


# --------------------------------------------------------------------------- #
# ObserverSpec registry
# --------------------------------------------------------------------------- #


def test_observer_spec_validates_kind():
    with pytest.raises(ConfigurationError, match="unknown observer kind"):
        ObserverSpec("wormhole")


def test_observer_spec_labels():
    assert ObserverSpec("trace").label == "trace"
    assert (
        ObserverSpec("beep-counts", {"keep_history": True}).label
        == "beep-counts[keep_history=True]"
    )


def test_observer_spec_pickles():
    spec = ObserverSpec("leader-extinction")
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_build_observer_rejects_bad_params():
    with pytest.raises(ConfigurationError, match="invalid parameters"):
        build_observer(ObserverSpec("trace", {"nope": 1}))


def test_build_observer_passes_instances_through():
    observer = BatchTraceRecorder()
    assert build_observer(observer) is observer
    with pytest.raises(ConfigurationError, match="ObserverSpec"):
        build_observer("trace")


def test_build_observers_in_spec_order():
    observers = build_observers(
        [ObserverSpec("trace"), ObserverSpec("leader-extinction")]
    )
    assert isinstance(observers[0], BatchTraceRecorder)
    assert isinstance(observers[1], LeaderExtinctionObserver)


# --------------------------------------------------------------------------- #
# BatchTrace
# --------------------------------------------------------------------------- #


def test_batch_trace_shape_validation():
    with pytest.raises(TraceError, match="3-D"):
        BatchTrace(
            states=np.zeros((3, 4), dtype=np.int8),
            rounds_executed=np.zeros(4, dtype=np.int64),
            beeping_values=(1,),
            leader_values=(0,),
        )
    with pytest.raises(TraceError, match="rounds_executed"):
        BatchTrace(
            states=np.zeros((3, 4, 5), dtype=np.int8),
            rounds_executed=np.zeros(3, dtype=np.int64),
            beeping_values=(1,),
            leader_values=(0,),
        )
    with pytest.raises(TraceError, match="outside recorded range"):
        BatchTrace(
            states=np.zeros((3, 4, 5), dtype=np.int8),
            rounds_executed=np.full(4, 7, dtype=np.int64),
            beeping_values=(1,),
            leader_values=(0,),
        )


def test_batch_trace_replica_range_check():
    recorder = BatchTraceRecorder()
    _run_with([recorder])
    trace = recorder.trace()
    with pytest.raises(TraceError, match="outside batch"):
        trace.replica(len(SEEDS))


def test_batch_trace_valid_mask_matches_rounds():
    recorder = BatchTraceRecorder()
    _run_with([recorder])
    trace = recorder.trace()
    mask = trace.valid_mask()
    assert mask.shape == (trace.num_rounds + 1, trace.num_replicas)
    for replica in range(trace.num_replicas):
        assert mask[:, replica].sum() == trace.rounds_executed[replica] + 1


def test_batch_trace_frozen_rows_repeat_final_configuration():
    recorder = BatchTraceRecorder()
    _run_with([recorder])
    trace = recorder.trace()
    for replica in range(trace.num_replicas):
        last = int(trace.rounds_executed[replica])
        for t in range(last, trace.num_rounds + 1):
            np.testing.assert_array_equal(
                trace.states[t, replica], trace.states[last, replica]
            )


def test_batch_trace_from_traces_rejects_mismatches():
    recorder = BatchTraceRecorder()
    _run_with([recorder])
    traces = recorder.trace().to_traces()
    other = VectorizedEngine(cycle_graph(14), BFWProtocol()).run(
        rng=0, record_trace=True
    ).trace
    with pytest.raises(TraceError, match="node counts"):
        BatchTrace.from_traces([traces[0], other])
    with pytest.raises(TraceError, match="0 traces"):
        BatchTrace.from_traces([])


def test_batch_trace_round_trips_through_pickle_and_eq():
    recorder = BatchTraceRecorder()
    _run_with([recorder])
    trace = recorder.trace()
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace
    assert not (trace == BatchTrace.from_traces(trace.to_traces()[:2]))


class _HookLog(BatchObserver):
    """Logs every hook call with what it saw (states, masks, replicas)."""

    def __init__(self):
        self.log = []

    def on_start(self, info):
        self.log.append(("start", info))

    def on_round(self, round_index, states, beeping, leaders, active_mask):
        self.log.append(
            (
                "round",
                round_index,
                states.astype(np.int8).tobytes(),  # engines pass int64
                beeping.tobytes(),
                leaders.tobytes(),
                tuple(np.flatnonzero(active_mask)),
            )
        )

    def on_retire(self, replicas, round_index):
        self.log.append(("retire", round_index, tuple(int(r) for r in replicas)))

    def on_finish(self, rounds_executed):
        self.log.append(("finish", tuple(int(r) for r in rounds_executed)))

    def result(self):
        return self.log


def test_replay_drives_the_engines_hook_sequence():
    # Replaying a recorded trace repeats the live run's hooks exactly,
    # except the retirements of the final row: there a trace cannot tell a
    # stop from an exhausted budget, so replay retires nobody.
    recorder, live = BatchTraceRecorder(), _HookLog()
    _run_with([recorder, live], n=16, seeds=range(6))
    trace = recorder.trace()
    assert len(set(trace.rounds_executed.tolist())) > 2  # ragged retirements
    last = trace.num_rounds
    expected = [
        entry for entry in live.log if entry[:2] != ("retire", last)
    ]
    assert trace.replay(_HookLog()) == expected


def test_batch_trace_leader_counts_match_batch_result():
    recorder = BatchTraceRecorder()
    result = _run_with([recorder], record_leader_counts=True)
    trace = recorder.trace()
    counts = trace.leader_counts()
    for replica in range(trace.num_replicas):
        last = int(trace.rounds_executed[replica])
        assert (
            tuple(int(c) for c in counts[: last + 1, replica])
            == result.leader_counts[replica]
        )


# --------------------------------------------------------------------------- #
# Trackers
# --------------------------------------------------------------------------- #


def test_leader_count_tracker_result_matches_batch_trajectories():
    tracker = BatchLeaderCountTracker()
    result = _run_with([tracker], record_leader_counts=True)
    assert tracker.result() == result.leader_counts


def test_beep_count_tracker_matches_engine_beep_counts():
    tracker = BatchBeepCountTracker()
    _run_with([tracker])
    topology = cycle_graph(12)
    for index, seed in enumerate(SEEDS):
        engine = VectorizedEngine(topology, BFWProtocol())
        engine.run(rng=seed, record_beep_counts=True)
        np.testing.assert_array_equal(
            tracker.counts[index], engine.last_beep_counts
        )


def test_beep_count_tracker_requires_start():
    tracker = BatchBeepCountTracker()
    with pytest.raises(SimulationError, match="before on_start"):
        tracker.on_round(
            0, None, np.zeros((1, 4), dtype=bool), np.zeros((1, 4), dtype=bool),
            np.ones(1, dtype=bool),
        )


def test_trace_recorder_requires_rounds():
    with pytest.raises(SimulationError, match="no trace"):
        BatchTraceRecorder().trace()


def test_stopper_rejects_negative_patience():
    with pytest.raises(SimulationError, match="non-negative"):
        BatchSingleLeaderStopper(patience=-1)


def test_pipeline_rejects_malformed_retire_masks():
    class Broken(BatchObserver):
        def should_retire(self, round_index, leaders, active_mask):
            return np.ones(3, dtype=bool)

    pipeline = ObserverPipeline(
        [Broken()], BatchRunInfo(num_replicas=2, n=4)
    )
    with pytest.raises(SimulationError, match="should_retire mask"):
        pipeline.observe_round(
            0,
            None,
            None,
            np.zeros((2, 4), dtype=bool),
            np.ones(2, dtype=bool),
        )


# --------------------------------------------------------------------------- #
# Leader extinction
# --------------------------------------------------------------------------- #


def _leaders(*counts_per_round):
    """Synthetic (R, n) leader masks from per-replica leader counts."""
    num_replicas = len(counts_per_round[0])
    n = 4
    rounds = []
    for counts in counts_per_round:
        mask = np.zeros((num_replicas, n), dtype=bool)
        for replica, count in enumerate(counts):
            mask[replica, :count] = True
        rounds.append(mask)
    return rounds


def test_extinction_observer_counts_events_and_rounds():
    observer = LeaderExtinctionObserver()
    active = np.ones(3, dtype=bool)
    # Replica 0 never loses its leaders; replica 1 goes extinct at round 2
    # and stays absorbed; replica 2 dips to zero twice (re-entrant baseline).
    rounds = _leaders((2, 2, 1), (2, 1, 0), (1, 0, 1), (1, 0, 0))
    for round_index, leaders in enumerate(rounds):
        observer.on_round(round_index, None, None, leaders, active)
    observer.on_finish(np.array([3, 3, 3]))
    report = observer.report()
    np.testing.assert_array_equal(report.extinction_round, [-1, 2, 1])
    np.testing.assert_array_equal(report.extinction_events, [0, 1, 2])
    np.testing.assert_array_equal(report.leaderless_final, [False, True, True])
    assert report.extinction_rate == pytest.approx(2 / 3)
    assert report.absorbed_rate == pytest.approx(2 / 3)
    assert report.mean_extinction_round() == pytest.approx(1.5)


def test_extinction_observer_ignores_retired_replicas():
    observer = LeaderExtinctionObserver()
    rounds = _leaders((1, 1), (1, 0))
    observer.on_round(0, None, None, rounds[0], np.ones(2, dtype=bool))
    # Replica 1 already retired: its (frozen) zero row must not count.
    observer.on_round(1, None, None, rounds[1], np.array([True, False]))
    observer.on_finish(np.array([1, 0]))
    report = observer.report()
    np.testing.assert_array_equal(report.extinction_round, [-1, -1])


def test_extinction_report_static_runs_are_clean():
    observer = LeaderExtinctionObserver()
    _run_with([observer])
    report = observer.report()
    assert report.num_replicas == len(SEEDS)
    assert report.extinction_rate == 0.0
    assert report.mean_extinction_round() is None
    np.testing.assert_array_equal(report.leaderless_final, False)


def test_extinction_report_pickles_and_merges():
    observer = LeaderExtinctionObserver()
    _run_with([observer])
    report = observer.report()
    assert pickle.loads(pickle.dumps(report)) == report
    merged = LeaderExtinctionObserver.merge_results([report, report])
    assert merged.num_replicas == 2 * report.num_replicas
    with pytest.raises(ConfigurationError, match="0 extinction"):
        LeaderExtinctionObserver.merge_results([])


# --------------------------------------------------------------------------- #
# Engine integration edges
# --------------------------------------------------------------------------- #


def test_memory_engine_rejects_trace_recording():
    topology = cycle_graph(12)
    protocol = EmekKerenStyleElection(diameter=topology.diameter())
    engine = BatchedMemoryEngine(topology, protocol)
    with pytest.raises(ConfigurationError, match="constant-state"):
        engine.run(list(SEEDS), observers=[BatchTraceRecorder()])


def test_standalone_runner_rejects_observers():
    topology = cycle_graph(8)
    with pytest.raises(ConfigurationError, match="no observation hooks"):
        MonteCarloRunner().run(
            topology,
            PipelinedIDElection(),
            list(SEEDS),
            observers=[LeaderExtinctionObserver()],
        )


def test_merge_observations_dispatches_by_kind():
    spec = ObserverSpec("trace")
    singles = []
    topology = cycle_graph(12)
    for seed in SEEDS:
        recorder = BatchTraceRecorder()
        VectorizedEngine(topology, BFWProtocol()).run(
            rng=seed, observers=[recorder]
        )
        singles.append(recorder.result())
    merged = merge_observations(spec, singles)
    batch_recorder = BatchTraceRecorder()
    _run_with([batch_recorder])
    assert merged == batch_recorder.trace()


def test_observers_do_not_perturb_results():
    plain = _run_with([])
    observed = _run_with(
        [BatchTraceRecorder(), BatchLeaderCountTracker(), LeaderExtinctionObserver()]
    )
    np.testing.assert_array_equal(plain.rounds_executed, observed.rounds_executed)
    np.testing.assert_array_equal(plain.final_states, observed.final_states)
    assert plain.leader_counts == observed.leader_counts


def test_observers_reset_between_runs_when_reused():
    # The pipeline calls on_start each run; a reused observer must report
    # only the run it is currently attached to.
    topology = cycle_graph(12)
    engine = BatchedEngine(topology, BFWProtocol())
    extinction = LeaderExtinctionObserver()
    tracker = BatchLeaderCountTracker()
    first = engine.run(list(SEEDS), observers=[extinction, tracker])
    first_result = tracker.result()
    second = engine.run(list(SEEDS), observers=[extinction, tracker])
    report = extinction.report()
    assert report.num_replicas == len(SEEDS)
    assert report.extinction_rate == 0.0
    np.testing.assert_array_equal(report.rounds_observed, second.rounds_executed)
    assert tracker.result() == second.leader_counts == first_result
