"""Tests for beep-wave extraction."""

import numpy as np
import pytest

from repro.analysis.waves import (
    boundary_positions,
    count_waves_on_path,
    first_beep_round,
    path_meeting_points,
    wave_arrival_times,
    wave_fronts,
)
from repro.beeping.adversary import planted_leaders_initial_states
from repro.beeping.engine import VectorizedEngine
from repro.core.bfw import BFWProtocol
from repro.errors import TraceError
from repro.graphs.generators import cycle_graph, path_graph


def _single_leader_trace(n=15, leader=0, seed=3):
    topology = path_graph(n)
    initial = planted_leaders_initial_states(topology, (leader,))
    engine = VectorizedEngine(topology, BFWProtocol())
    result = engine.run(
        rng=seed,
        record_trace=True,
        max_rounds=500,
        initial_states=initial,
        stop_at_single_leader=False,
    )
    return topology, result.trace


def test_wave_fronts_cover_every_round(converged_path_trace):
    fronts = wave_fronts(converged_path_trace)
    assert len(fronts) == converged_path_trace.num_rounds + 1
    assert fronts[0].size == 0  # nobody beeps in round 0 (Eq. (2))


def test_first_beep_round_single_leader_wave():
    topology, trace = _single_leader_trace()
    firsts = first_beep_round(trace)
    # The planted leader beeps first; each node's first beep is exactly one
    # round per hop later (a clean wave with no interference).
    assert firsts[0] >= 1
    distances = topology.distances_from(0).astype(int)
    expected = firsts[0] + distances
    assert (firsts == expected).all()


def test_wave_arrival_times_equal_distance():
    topology, trace = _single_leader_trace()
    arrivals = wave_arrival_times(trace, topology, origin=0)
    distances = topology.distances_from(0)
    assert np.allclose(arrivals, distances)


def test_wave_arrival_times_requires_beeping_origin():
    # Truncate the run to a couple of rounds so the wave has not yet reached
    # the far end of the path; that node therefore never beeps in the trace.
    topology = path_graph(15)
    initial = planted_leaders_initial_states(topology, (0,))
    result = VectorizedEngine(topology, BFWProtocol()).run(
        rng=3,
        record_trace=True,
        max_rounds=3,
        initial_states=initial,
        stop_at_single_leader=False,
    )
    with pytest.raises(TraceError):
        wave_arrival_times(result.trace, topology, origin=topology.n - 1)


def test_path_meeting_points_requires_path(converged_cycle_trace, small_cycle):
    with pytest.raises(TraceError):
        path_meeting_points(converged_cycle_trace, small_cycle)


def test_boundary_positions_stay_inside_the_path():
    topology = path_graph(21)
    initial = planted_leaders_initial_states(topology, (0, 20))
    result = VectorizedEngine(topology, BFWProtocol()).run(
        rng=9, record_trace=True, max_rounds=100_000, initial_states=initial
    )
    positions = boundary_positions(result.trace, topology, 0, 20)
    assert len(positions) == result.trace.num_rounds + 1
    values = [position for _, position in positions]
    assert min(values) >= -0.5
    assert max(values) <= 20.5


def test_count_waves_on_path_single_leader():
    topology, trace = _single_leader_trace()
    counts = count_waves_on_path(trace, topology)
    # Each wave in flight occupies a beeping node trailed by a frozen one, so
    # disjoint waves are at least two nodes apart: never more than ~n/3 waves.
    assert counts.max() <= (topology.n + 2) // 3
    assert counts.min() >= 0


# --------------------------------------------------------------------------- #
# Batch traces: replayed streaming reducers
# --------------------------------------------------------------------------- #


def test_replayed_first_beep_matches_per_replica(cycle_batch_trace):
    from repro.telemetry import StreamingFirstBeep

    firsts = cycle_batch_trace.replay(StreamingFirstBeep())
    assert firsts.shape == (cycle_batch_trace.num_replicas, cycle_batch_trace.n)
    for replica in range(cycle_batch_trace.num_replicas):
        np.testing.assert_array_equal(
            firsts[replica], first_beep_round(cycle_batch_trace.replica(replica))
        )


def test_replayed_wave_fronts_match_per_replica(cycle_batch_trace):
    from repro.telemetry import StreamingWaveFronts

    fronts = cycle_batch_trace.replay(StreamingWaveFronts())
    assert len(fronts) == cycle_batch_trace.num_replicas
    for replica in range(cycle_batch_trace.num_replicas):
        assert fronts[replica] == wave_fronts(cycle_batch_trace.replica(replica))
