"""The bookkeeping contract both batch engines share.

Streaks, retirement, heartbeats and the result are written once for the
constant-state and the memory engine; these tests pin what that
bookkeeping must report, engine by engine, through the public API:

* the round-0 asymmetry: BFW retires a replica that starts with one leader
  before any round runs, while the memory baselines (like
  ``run_memory_reference``) check their stop only after a round;
* heartbeats at interval 1 account for exactly the replica-rounds the
  result reports, with and without the single-leader stop, when an
  observer retires a replica early, and at memory windows 1 and 3.
"""

import numpy as np
import pytest

from repro.baselines import (
    EmekKerenStyleElection,
    GilbertNewportKnockout,
    IDBroadcastElection,
)
from repro.batch import BatchedEngine, BatchedMemoryEngine
from repro.batch.observers import BatchObserver
from repro.beeping.simulator import MemorySimulator, run_memory_reference
from repro.core.bfw import BFWProtocol
from repro.graphs.generators import cycle_graph, path_graph
from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

SEEDS = list(range(6))


def _memory_baselines(topology):
    diameter = max(1, topology.n - 1)
    return [
        EmekKerenStyleElection(diameter),
        GilbertNewportKnockout(),
        IDBroadcastElection(diameter, topology.n),
    ]


# --------------------------------------------------------------------------- #
# Round 0
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kernel", ["numpy", "python"])
def test_bfw_retires_a_single_leader_start_at_round_zero(kernel):
    result = BatchedEngine(path_graph(1), BFWProtocol(), kernel=kernel).run(SEEDS)
    assert result.rounds_executed.tolist() == [0] * len(SEEDS)
    assert result.convergence_round.tolist() == [0] * len(SEEDS)
    assert result.converged.all()
    assert result.leader_counts == ((1,),) * len(SEEDS)


@pytest.mark.parametrize(
    "protocol", _memory_baselines(path_graph(1)), ids=lambda p: p.name
)
def test_memory_baselines_run_one_round_before_their_stop(protocol):
    topology = path_graph(1)
    result = BatchedMemoryEngine(topology, protocol).run(
        SEEDS, stability_window=1
    )
    assert result.rounds_executed.tolist() == [1] * len(SEEDS)
    assert result.convergence_round.tolist() == [0] * len(SEEDS)
    for seed in SEEDS:
        reference = run_memory_reference(
            topology, protocol, rng=seed, stability_window=1
        )
        single = MemorySimulator(topology, protocol).run(
            rng=seed, stability_window=1
        )
        assert reference.rounds_executed == 1
        assert reference.convergence_round == 0
        assert single == reference


# --------------------------------------------------------------------------- #
# Heartbeats
# --------------------------------------------------------------------------- #


class _RetireFirstReplicaAtRoundTwo(BatchObserver):
    def should_retire(self, round_index, leaders, active_mask):
        mask = np.zeros(active_mask.shape[0], dtype=bool)
        mask[0] = round_index == 2
        return mask


def _beats_of(run):
    beats = []
    with use_heartbeat(HeartbeatEmitter(1, beats.append)):
        result = run()
    return beats, result


def _assert_beats_account_for(beats, result):
    rounds_executed = result.rounds_executed
    assert [beat.round_index for beat in beats] == list(
        range(1, int(rounds_executed.max()) + 1)
    )
    for beat in beats:
        assert beat.replicas == result.num_replicas
        assert beat.rounds_advanced == int(
            np.minimum(beat.round_index, rounds_executed).sum()
        )
    actives = [beat.active for beat in beats]
    assert all(later <= earlier for earlier, later in zip(actives, actives[1:]))


@pytest.mark.parametrize(
    "stop, observers",
    [(True, False), (False, False), (True, True), (False, True)],
    ids=["stop", "no-stop", "stop+observer", "no-stop+observer"],
)
def test_constant_state_heartbeats_account_for_every_replica_round(stop, observers):
    engine = BatchedEngine(cycle_graph(16), BFWProtocol())
    beats, result = _beats_of(
        lambda: engine.run(
            SEEDS,
            max_rounds=120,
            stop_at_single_leader=stop,
            observers=[_RetireFirstReplicaAtRoundTwo()] if observers else (),
        )
    )
    if observers:
        assert result.rounds_executed[0] == 2
    assert beats[0].engine == "batched" and beats[0].kernel == "numpy"
    _assert_beats_account_for(beats, result)


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize(
    "protocol", _memory_baselines(cycle_graph(10)), ids=lambda p: p.name
)
def test_memory_heartbeats_account_for_every_replica_round(protocol, window):
    engine = BatchedMemoryEngine(cycle_graph(10), protocol)
    beats, result = _beats_of(
        lambda: engine.run(SEEDS, max_rounds=400, stability_window=window)
    )
    assert beats[0].engine == "batched-memory" and beats[0].kernel is None
    _assert_beats_account_for(beats, result)
