"""Tests for the deterministic invariants of Section 3."""

import numpy as np
import pytest

from repro.analysis.invariants import (
    OnlineInvariantChecker,
    check_all_invariants,
    check_claim6,
    check_distance_bound_all_rounds,
    check_leader_always_exists,
    check_leader_count_nonincreasing,
    check_max_beep_count_is_leader,
    check_wave_propagation,
)
from repro.beeping.adversary import planted_leaders_initial_states
from repro.beeping.engine import VectorizedEngine
from repro.beeping.simulator import Simulator
from repro.beeping.trace import ExecutionTrace
from repro.core.bfw import BFWProtocol
from repro.core.states import State
from repro.errors import InvariantViolation
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)


def _run_with_trace(topology, seed, initial_states=None, p=0.5):
    engine = VectorizedEngine(topology, BFWProtocol(beep_probability=p))
    result = engine.run(
        rng=seed,
        record_trace=True,
        max_rounds=100_000,
        initial_states=initial_states,
    )
    assert result.trace is not None
    return result.trace


def test_all_invariants_on_path():
    topology = path_graph(10)
    trace = _run_with_trace(topology, seed=1)
    check_all_invariants(trace, topology)


def test_all_invariants_on_cycle():
    topology = cycle_graph(12)
    trace = _run_with_trace(topology, seed=2)
    check_all_invariants(trace, topology)


def test_all_invariants_on_star():
    topology = star_graph(10)
    trace = _run_with_trace(topology, seed=3)
    check_all_invariants(trace, topology)


def test_all_invariants_on_random_graph():
    topology = erdos_renyi_graph(16, rng=4)
    trace = _run_with_trace(topology, seed=4)
    check_all_invariants(trace, topology)


def test_all_invariants_with_planted_leaders():
    topology = path_graph(12)
    initial = planted_leaders_initial_states(topology, (0, 11))
    trace = _run_with_trace(topology, seed=5, initial_states=initial)
    check_all_invariants(trace, topology)


def test_wave_propagation_lemma12_on_small_path():
    topology = path_graph(7)
    trace = _run_with_trace(topology, seed=6)
    check_wave_propagation(trace, topology)


def test_claim6_detects_violation():
    # A beeping node that fails to freeze violates Eq. (4).
    rows = [
        [State.W_LEADER, State.W_FOLLOWER],
        [State.B_LEADER, State.W_FOLLOWER],
        [State.W_LEADER, State.B_FOLLOWER],
    ]
    states = np.array([[int(s) for s in row] for row in rows], dtype=np.int8)
    trace = ExecutionTrace(
        states,
        beeping_values=(int(State.B_LEADER), int(State.B_FOLLOWER)),
        leader_values=(int(State.W_LEADER), int(State.B_LEADER), int(State.F_LEADER)),
    )
    from repro.graphs.generators import path_graph as pg

    with pytest.raises(InvariantViolation):
        check_claim6(trace, pg(2))


def test_leader_always_exists_detects_violation():
    states = np.full((3, 4), int(State.W_FOLLOWER), dtype=np.int8)
    trace = ExecutionTrace(
        states,
        beeping_values=(int(State.B_LEADER), int(State.B_FOLLOWER)),
        leader_values=(int(State.W_LEADER), int(State.B_LEADER), int(State.F_LEADER)),
    )
    with pytest.raises(InvariantViolation):
        check_leader_always_exists(trace)


def test_leader_count_nonincreasing_detects_violation():
    rows = [
        [State.W_LEADER, State.W_FOLLOWER],
        [State.W_LEADER, State.W_LEADER],
    ]
    states = np.array([[int(s) for s in row] for row in rows], dtype=np.int8)
    trace = ExecutionTrace(
        states,
        beeping_values=(int(State.B_LEADER), int(State.B_FOLLOWER)),
        leader_values=(int(State.W_LEADER), int(State.B_LEADER), int(State.F_LEADER)),
    )
    with pytest.raises(InvariantViolation):
        check_leader_count_nonincreasing(trace)


def test_online_checker_passes_on_valid_run(small_cycle, bfw):
    checker = OnlineInvariantChecker()
    result = Simulator(small_cycle, bfw).run(rng=7, observers=[checker])
    assert result.converged
    assert checker.report.ok
    assert checker.report.rounds_checked == result.rounds_executed + 1


def test_online_checker_collects_without_raising():
    checker = OnlineInvariantChecker(raise_on_violation=False)
    from repro.beeping.observers import RoundSnapshot

    empty = RoundSnapshot(
        round_index=0,
        state_values=np.zeros(3, dtype=np.int8),
        beeping=np.zeros(3, dtype=bool),
        leaders=np.zeros(3, dtype=bool),
        heard=np.zeros(3, dtype=bool),
    )
    checker.on_round(empty)
    assert not checker.report.ok
    assert checker.report.leaderless_rounds == [0]


# --------------------------------------------------------------------------- #
# Batch traces: the replayed streaming checker
# --------------------------------------------------------------------------- #


def _replay_checker(trace):
    from repro.telemetry import StreamingInvariantChecker

    return trace.replay(StreamingInvariantChecker())


def _hand_built_trace(states, rounds_executed):
    from repro.batch.trace import BatchTrace

    return BatchTrace(
        states=states,
        rounds_executed=np.array(rounds_executed),
        beeping_values=(int(State.B_LEADER), int(State.B_FOLLOWER)),
        leader_values=tuple(int(s) for s in State if s.is_leader),
    )


def test_batch_invariants_hold_on_static_batches(cycle_batch_trace):
    summary = _replay_checker(cycle_batch_trace)
    assert summary.ok
    summary.raise_if_violated()  # must not raise


def test_batch_leader_exists_check_flags_leaderless_rounds():
    leader = int(State.W_LEADER)
    follower = int(State.W_FOLLOWER)
    states = np.full((3, 2, 4), leader, dtype=np.int8)
    states[2, 1, :] = follower  # replica 1 loses every leader in round 2
    trace = _hand_built_trace(states, [2, 2])
    with pytest.raises(InvariantViolation, match="round 2 of replica 1"):
        _replay_checker(trace).raise_if_leaderless()
    # The same rows past retirement are frozen and must not be flagged.
    clipped = _hand_built_trace(states, [2, 1])
    _replay_checker(clipped).raise_if_leaderless()


def test_batch_nonincreasing_check_flags_increases():
    leader = int(State.W_LEADER)
    follower = int(State.W_FOLLOWER)
    states = np.full((2, 1, 3), follower, dtype=np.int8)
    states[0, 0, 0] = leader
    states[1, 0, :2] = leader  # 1 -> 2 leaders
    trace = _hand_built_trace(states, [1])
    with pytest.raises(InvariantViolation, match="increased"):
        _replay_checker(trace).raise_if_increase()


def test_batch_violation_messages_word_for_word():
    # Each invariant broken once, so every message is pinned exactly:
    # replica 0 grows from 1 to 2 leaders in round 1 and loses them all in
    # round 2; replica 1's only beeper (node 1, round 1) is not a leader.
    W_LEADER, W_FOLLOWER, B_FOLLOWER = (
        int(State.W_LEADER),
        int(State.W_FOLLOWER),
        int(State.B_FOLLOWER),
    )
    states = np.full((4, 2, 3), W_FOLLOWER, dtype=np.int8)
    states[:, :, 0] = W_LEADER
    states[1:, 0, 1] = W_LEADER
    states[2:, 0, :] = W_FOLLOWER
    states[1, 1, 1] = B_FOLLOWER
    summary = _replay_checker(_hand_built_trace(states, [3, 3]))
    messages = []
    for raiser in (
        summary.raise_if_leaderless,
        summary.raise_if_increase,
        summary.raise_if_max_beep_violation,
    ):
        with pytest.raises(InvariantViolation) as excinfo:
            raiser()
        messages.append(str(excinfo.value))
    assert messages == [
        "Lemma 9 violated: no leader in round 2 of replica 0",
        "leader count increased from 1 to 2 between rounds 0 and 1 of replica 0",
        "proof invariant of Lemma 9 violated at round 1 of replica 1: "
        "no leader has the maximal beep count",
    ]
    with pytest.raises(InvariantViolation, match=messages[0]):
        summary.raise_if_violated()
