"""Streaming reducers vs the single-trace analysis functions: exact equality.

The tentpole contract of the telemetry layer: every ``Streaming*`` observer
folds its reduction online and produces, for every replica, a result
*bit-equal* to the single-trace analysis function applied to that replica's
own recorded trace — for every registered protocol, on static and dynamic
schedules, including the budget-exhaustion (no early stop) path.
"""

import re

import numpy as np
import pytest

from repro.analysis import (
    beep_count_matrix,
    check_leader_always_exists,
    check_leader_count_nonincreasing,
    check_max_beep_count_is_leader,
    first_beep_round,
    summarize_trace,
    wave_fronts,
)
from repro.batch import (
    BatchBeepCountTracker,
    BatchTrace,
    BatchedEngine,
    BatchTraceRecorder,
)
from repro.beeping.engine import VectorizedEngine
from repro.core.bfw import BFWProtocol
from repro.core.registry import available_protocols, create_protocol
from repro.dynamics import build_schedule
from repro.errors import ConfigurationError, InvariantViolation
from repro.telemetry import (
    StreamingConvergence,
    StreamingFirstBeep,
    StreamingInvariantChecker,
    StreamingWaveFronts,
)

from tests.batch.parity_harness import (
    DYNAMIC_PARITY_SCHEDULES,
    parity_topologies,
)

SEEDS = tuple(range(4))

#: The single-trace Lemma 9 checks, in ``raise_if_violated`` order.
LEMMA9_CHECKS = (
    check_leader_always_exists,
    check_leader_count_nonincreasing,
    check_max_beep_count_is_leader,
)


def _violation_message(callback) -> "str | None":
    try:
        callback()
    except InvariantViolation as error:
        return str(error)
    return None


def _numbers(message: "str | None") -> "tuple[int, ...]":
    """The integers a check's message names (empty: the check held).

    The violating round is always the last one; the increase check names
    the two leader counts first.
    """
    if message is None:
        return ()
    return tuple(int(number) for number in re.findall(r"\d+", message))


def _reference_numbers(check, replica) -> "tuple[int, ...]":
    return _numbers(_violation_message(lambda: check(replica)))


def _streams():
    return {
        "first-beep": StreamingFirstBeep(),
        "wave-fronts": StreamingWaveFronts(),
        "invariants": StreamingInvariantChecker(),
        "beep-totals": BatchBeepCountTracker(),
        "convergence": StreamingConvergence(),
    }


def _run_with_streams(topology, protocol, seeds=SEEDS, spec=None, **run_kwargs):
    """One batched run driving the trace recorder and every streaming reducer."""
    recorder = BatchTraceRecorder()
    streams = _streams()
    schedule = None if spec is None else build_schedule(spec, topology)
    BatchedEngine(topology, protocol, schedule=schedule).run(
        list(seeds),
        observers=[recorder, *streams.values()],
        **run_kwargs,
    )
    return recorder.trace(), streams


def assert_summary_matches_references(trace: BatchTrace, summary) -> None:
    """Per replica, the streamed first violations are the rounds (and, for
    an increase, the counts) the single-trace checks report."""
    np.testing.assert_array_equal(summary.rounds_observed, trace.rounds_executed)
    firsts = (
        summary.first_leaderless_round,
        summary.first_increase_round,
        summary.first_max_beep_violation_round,
    )
    for index, replica in enumerate(trace.to_traces()):
        for check, first in zip(LEMMA9_CHECKS, firsts):
            reported = _reference_numbers(check, replica)
            assert int(first[index]) == (reported[-1] if reported else -1)
        increase = _reference_numbers(check_leader_count_nonincreasing, replica)
        if increase:
            assert int(summary.first_increase_from[index]) == increase[0]
            assert int(summary.first_increase_to[index]) == increase[1]


def assert_stream_results_match_post_hoc(trace: BatchTrace, results) -> None:
    """Streamed reduction *values* equal the per-replica single-trace
    references on ``trace``.

    ``results`` maps the short reducer key (``"first-beep"`` ...) to the
    value the reducer produced — either ``observer.result()`` or the merged
    observation an execution backend shipped back.
    """
    num_replicas = trace.num_replicas
    assert results["first-beep"].shape == (num_replicas, trace.n)
    assert results["beep-totals"].shape == (num_replicas, trace.n)
    assert len(results["wave-fronts"]) == num_replicas
    assert len(results["convergence"]) == num_replicas
    for index, replica in enumerate(trace.to_traces()):
        np.testing.assert_array_equal(
            results["first-beep"][index], first_beep_round(replica)
        )
        assert results["wave-fronts"][index] == wave_fronts(replica)
        assert results["convergence"][index] == summarize_trace(replica)
        np.testing.assert_array_equal(
            results["beep-totals"][index], beep_count_matrix(replica)[-1]
        )
    assert_summary_matches_references(trace, results["invariants"])


def assert_streams_match_post_hoc(trace: BatchTrace, streams) -> None:
    """Every streaming observer's result equals its post-hoc counterpart."""
    assert_stream_results_match_post_hoc(
        trace, {key: observer.result() for key, observer in streams.items()}
    )


@pytest.mark.parametrize("name", available_protocols())
@pytest.mark.parametrize(
    "family", [family for family, _ in parity_topologies()]
)
def test_streams_match_post_hoc_for_registered_protocols(name, family):
    topology = dict(parity_topologies())[family]
    protocol = create_protocol(
        name, diameter=max(1, topology.diameter()), n=topology.n
    )
    trace, streams = _run_with_streams(
        topology, protocol, max_rounds=4000
    )
    assert_streams_match_post_hoc(trace, streams)


@pytest.mark.parametrize(
    "spec", DYNAMIC_PARITY_SCHEDULES, ids=lambda spec: spec.label
)
def test_streams_match_post_hoc_under_schedules(spec, small_cycle, bfw):
    trace, streams = _run_with_streams(
        small_cycle, bfw, spec=spec, max_rounds=2000
    )
    assert_streams_match_post_hoc(trace, streams)


def test_streams_match_post_hoc_without_early_stopping(small_cycle, bfw):
    # Budget exhaustion: every replica runs (and streams) the full horizon.
    trace, streams = _run_with_streams(
        small_cycle, bfw, max_rounds=80, stop_at_single_leader=False
    )
    assert (trace.rounds_executed == 80).all()
    assert_streams_match_post_hoc(trace, streams)


def test_streams_match_post_hoc_on_vectorized_engine(small_path, bfw):
    # The R = 1 driver: the vectorised engine feeds the same hooks.
    streams = _streams()
    result = VectorizedEngine(small_path, bfw).run(
        rng=3, record_trace=True, max_rounds=20_000, observers=list(streams.values())
    )
    assert result.trace is not None
    trace = BatchTrace.from_traces([result.trace])
    assert_streams_match_post_hoc(trace, streams)


def test_streaming_reducers_reject_memory_engines(small_cycle):
    # Memory engines report no beeping classification; the constant-state
    # reducers must refuse rather than silently stream garbage.
    from repro.batch.memory import BatchedMemoryEngine
    from repro.experiments.runner import instantiate_protocol

    protocol = instantiate_protocol("id-broadcast", small_cycle)
    with pytest.raises(ConfigurationError):
        BatchedMemoryEngine(small_cycle, protocol).run(
            [0, 1], observers=[StreamingFirstBeep()], max_rounds=500
        )


# --------------------------------------------------------------------------- #
# Invariant violations: replayed summaries == single-trace checks, exactly
# --------------------------------------------------------------------------- #


def _random_violating_trace(seed: int) -> BatchTrace:
    """A synthetic trace whose random states violate all three invariants."""
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 4, size=(9, 3, 5), dtype=np.int8)
    return BatchTrace(
        states=states,
        rounds_executed=np.array([8, 5, 8], dtype=np.int64),
        # Value 3 both beeps and leads; 1 only beeps; 2 only leads.
        beeping_values=(1, 3),
        leader_values=(2, 3),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_streamed_violation_messages_equal_post_hoc(seed):
    trace = _random_violating_trace(seed)
    summary = trace.replay(StreamingInvariantChecker())
    assert_summary_matches_references(trace, summary)
    # Each raised message is the single-trace message of the earliest
    # violating replica (lowest index on ties), tagged with that replica.
    messages = []
    raisers = (
        summary.raise_if_leaderless,
        summary.raise_if_increase,
        summary.raise_if_max_beep_violation,
    )
    for check, raiser in zip(LEMMA9_CHECKS, raisers):
        references = [
            _violation_message(lambda replica=replica: check(replica))
            for replica in trace.to_traces()
        ]
        streamed = _violation_message(raiser)
        messages.append(streamed)
        if streamed is None:
            assert references == [None] * trace.num_replicas
            continue
        rounds = [_numbers(message)[-1] if message else None for message in references]
        earliest = min(r for r in rounds if r is not None)
        index = rounds.index(earliest)
        tag = f" of replica {index}"
        assert tag in streamed
        assert streamed.replace(tag, "", 1) == references[index]
    # Random 4-valued states on 5 nodes make each violation overwhelmingly
    # likely; make sure the parametrisation is actually exercising them.
    assert any(message is not None for message in messages)
    if messages[0] is not None:
        assert not summary.ok
        with pytest.raises(InvariantViolation, match="Lemma 9 violated"):
            summary.raise_if_violated()


def test_streamed_summary_ok_on_clean_run(small_cycle, bfw):
    recorder = BatchTraceRecorder()
    checker = StreamingInvariantChecker()
    BatchedEngine(small_cycle, bfw).run(
        list(SEEDS), observers=[recorder, checker], max_rounds=20_000
    )
    summary = checker.summary()
    assert summary.ok
    assert summary.num_replicas == len(SEEDS)
    summary.raise_if_violated()  # must not raise
    for replica in recorder.trace().to_traces():
        for check in LEMMA9_CHECKS:
            check(replica)  # the single-trace checks agree: no violations


def test_invariant_summary_merge_round_trip():
    trace = _random_violating_trace(7)
    whole = trace.replay(StreamingInvariantChecker())
    per_replica = [
        BatchTrace.from_traces([replica]).replay(StreamingInvariantChecker())
        for replica in trace.to_traces()
    ]
    merged = StreamingInvariantChecker.merge_results(per_replica)
    assert merged == whole
