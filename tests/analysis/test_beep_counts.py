"""Tests for cumulative beep-count utilities."""

import numpy as np

from repro.analysis.beep_counts import (
    beep_count_matrix,
    beep_count_spread,
    beep_counts_at,
    leader_beep_counts,
    max_beep_count_nodes,
    pairwise_beep_difference_bounds,
)


def test_beep_count_matrix_is_cumulative(converged_path_trace):
    matrix = beep_count_matrix(converged_path_trace)
    assert matrix.shape == (
        converged_path_trace.num_rounds + 1,
        converged_path_trace.n,
    )
    # Rows are non-decreasing.
    assert (np.diff(matrix, axis=0) >= 0).all()
    # The last row equals the trace's own counting.
    assert (matrix[-1] == converged_path_trace.beep_counts()).all()


def test_beep_counts_at_matches_matrix(converged_path_trace):
    matrix = beep_count_matrix(converged_path_trace)
    mid = converged_path_trace.num_rounds // 2
    assert (beep_counts_at(converged_path_trace, mid) == matrix[mid]).all()


def test_max_beep_count_nodes_nonempty(converged_path_trace):
    nodes = max_beep_count_nodes(converged_path_trace)
    assert len(nodes) >= 1
    counts = converged_path_trace.beep_counts()
    for node in nodes:
        assert counts[node] == counts.max()


def test_spread_bounded_by_diameter(converged_path_trace, small_path):
    # Lemma 11 implies the global spread is at most the diameter.
    assert beep_count_spread(converged_path_trace) <= small_path.diameter()


def test_pairwise_bounds_respect_lemma11(converged_path_trace, small_path):
    bounds = pairwise_beep_difference_bounds(converged_path_trace, small_path)
    assert len(bounds) == small_path.n * (small_path.n - 1) // 2
    for (u, v), (difference, distance) in bounds.items():
        assert difference <= distance


def test_leader_beep_counts_contains_surviving_leader(converged_path_trace):
    final = leader_beep_counts(converged_path_trace)
    assert len(final) == 1
    (leader, count), = final.items()
    # The survivor has the (weakly) largest beep count (Lemma 9 proof).
    assert count == converged_path_trace.beep_counts().max()


def test_replayed_beep_count_history_matches_per_replica(cycle_batch_trace):
    from repro.batch import BatchBeepCountTracker

    tracker = BatchBeepCountTracker(keep_history=True)
    totals = cycle_batch_trace.replay(tracker)
    matrix = np.stack(tracker.history)
    assert matrix.shape == (
        cycle_batch_trace.num_rounds + 1,
        cycle_batch_trace.num_replicas,
        cycle_batch_trace.n,
    )
    for replica in range(cycle_batch_trace.num_replicas):
        last = int(cycle_batch_trace.rounds_executed[replica])
        np.testing.assert_array_equal(
            matrix[: last + 1, replica],
            beep_count_matrix(cycle_batch_trace.replica(replica)),
        )
        np.testing.assert_array_equal(
            totals[replica], beep_count_matrix(cycle_batch_trace.replica(replica))[-1]
        )
