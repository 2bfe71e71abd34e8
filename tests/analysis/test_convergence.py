"""Tests for convergence detection and summaries."""

import pytest

from repro.analysis.convergence import (
    convergence_round_from_counts,
    elimination_times,
    half_life_round,
    require_convergence,
    summarize_result,
    summarize_trace,
)
from repro.beeping.engine import VectorizedEngine
from repro.core.bfw import BFWProtocol
from repro.errors import ConvergenceError
from repro.graphs.generators import cycle_graph, path_graph


def test_summarize_trace(converged_path_trace):
    summary = summarize_trace(converged_path_trace)
    assert summary.converged
    assert summary.final_leader_count == 1
    assert summary.initial_leader_count == converged_path_trace.n
    assert summary.winner is not None
    assert 0 <= summary.winner < converged_path_trace.n
    assert summary.convergence_round == converged_path_trace.convergence_round()


def test_summarize_result_without_trace():
    result = VectorizedEngine(cycle_graph(10), BFWProtocol()).run(rng=1)
    summary = summarize_result(result)
    assert summary.converged
    assert summary.winner is None
    assert summary.convergence_round == result.convergence_round


def test_convergence_round_from_counts():
    assert convergence_round_from_counts([5, 3, 2, 1, 1, 1]) == 3
    assert convergence_round_from_counts([1, 1, 1]) == 0
    assert convergence_round_from_counts([3, 2, 2]) is None
    assert convergence_round_from_counts([3, 1, 2, 1]) == 3
    assert convergence_round_from_counts([]) is None


def test_require_convergence_passes_and_fails():
    result = VectorizedEngine(path_graph(8), BFWProtocol()).run(rng=2)
    assert require_convergence(result) == result.convergence_round

    truncated = VectorizedEngine(path_graph(30), BFWProtocol()).run(
        rng=2, max_rounds=3
    )
    with pytest.raises(ConvergenceError):
        require_convergence(truncated)


def test_elimination_times_cover_all_but_one_node(converged_path_trace):
    events = elimination_times(converged_path_trace)
    eliminated_nodes = {node for node, _ in events}
    assert len(eliminated_nodes) == converged_path_trace.n - 1
    rounds = [round_index for _, round_index in events]
    assert max(rounds) <= converged_path_trace.num_rounds


def test_half_life_round_before_convergence(converged_path_trace):
    half_life = half_life_round(converged_path_trace)
    assert half_life is not None
    assert half_life <= converged_path_trace.convergence_round()


# --------------------------------------------------------------------------- #
# Batch traces: the replayed streaming reducer
# --------------------------------------------------------------------------- #


def test_replayed_convergence_matches_per_replica(cycle_batch_trace):
    from repro.telemetry import StreamingConvergence

    summaries = cycle_batch_trace.replay(StreamingConvergence())
    assert len(summaries) == cycle_batch_trace.num_replicas
    for replica, summary in enumerate(summaries):
        assert summary == summarize_trace(cycle_batch_trace.replica(replica))
        assert summary.converged
        assert summary.winner is not None


def test_replayed_convergence_without_early_stop(small_cycle, bfw):
    from repro.batch import BatchedEngine, BatchTraceRecorder
    from repro.telemetry import StreamingConvergence

    recorder = BatchTraceRecorder()
    BatchedEngine(small_cycle, bfw).run(
        list(range(4)),
        max_rounds=40,
        stop_at_single_leader=False,
        observers=[recorder],
    )
    trace = recorder.trace()
    for replica, summary in enumerate(trace.replay(StreamingConvergence())):
        assert summary == summarize_trace(trace.replica(replica))
        assert summary.rounds_executed == 40
