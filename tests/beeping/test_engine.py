"""Tests for the vectorised engine and protocol compilation."""

import numpy as np
import pytest

from repro.batch import engine as batch_engine
from repro.batch.engine import BatchedEngine
from repro.batch.observers import BatchObserver
from repro.beeping.adversary import planted_leaders_initial_states
from repro.beeping.engine import VectorizedEngine, compile_protocol, run_bfw
from repro.beeping.simulator import Simulator
from repro.core.bfw import BFWProtocol, NonUniformBFWProtocol
from repro.core.protocol import BeepingProtocol, TransitionTable
from repro.core.states import State
from repro.core.variants import NoFreezeBFWProtocol
from repro.errors import ConfigurationError, ProtocolError, SimulationError
from repro.graphs.generators import (
    clique_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

from tests.batch.parity_harness import assert_same_batch
from tests.table_protocol import ring_protocol


def test_compile_bfw_tables():
    compiled = compile_protocol(BFWProtocol(beep_probability=0.25))
    assert compiled.num_states == 6
    assert compiled.initial_state == int(State.W_LEADER)
    assert set(compiled.beeping_values) == {int(State.B_LEADER), int(State.B_FOLLOWER)}
    assert set(compiled.leader_values) == {
        int(State.W_LEADER),
        int(State.B_LEADER),
        int(State.F_LEADER),
    }
    # δ⊤ from W• goes deterministically to B◦.
    heard = 1
    assert compiled.succ_primary[int(State.W_LEADER), heard] == int(State.B_FOLLOWER)
    assert compiled.primary_probability[int(State.W_LEADER), heard] == 1.0
    # δ⊥ from W• is the p-coin.
    silent = 0
    assert compiled.primary_probability[int(State.W_LEADER), silent] == pytest.approx(
        0.75
    )


def test_compile_rejects_more_than_two_outcomes():
    class ThreeWay(BeepingProtocol):
        name = "three-way"

        @property
        def initial_state(self):
            return State.W_LEADER

        def states(self):
            return (State.W_LEADER, State.B_LEADER, State.F_LEADER)

        def is_beeping(self, state):
            return state is State.B_LEADER

        def is_leader(self, state):
            return True

        def transition_table(self):
            return TransitionTable(
                silent={
                    State.W_LEADER: {
                        State.W_LEADER: 0.4,
                        State.B_LEADER: 0.3,
                        State.F_LEADER: 0.3,
                    },
                    State.F_LEADER: {State.W_LEADER: 1.0},
                },
                heard={
                    State.W_LEADER: {State.W_LEADER: 1.0},
                    State.B_LEADER: {State.F_LEADER: 1.0},
                    State.F_LEADER: {State.W_LEADER: 1.0},
                },
            )

    with pytest.raises(ProtocolError):
        compile_protocol(ThreeWay())


def test_compile_rejects_state_values_beyond_int8():
    # State values are stored as int8; 128 used to escape as a bare numpy
    # OverflowError from the successor tables.
    compile_protocol(ring_protocol(128))  # values 0..127 fit
    with pytest.raises(ProtocolError, match="at most 127"):
        compile_protocol(ring_protocol(129))


@pytest.mark.parametrize("small_block", [0, 10**9], ids=["sparse", "dense"])
@pytest.mark.parametrize("stop", [True, False], ids=["stop", "budget"])
def test_forty_state_protocol_matches_the_uncompiled_kernel(
    stop, small_block, monkeypatch
):
    # 40 state slots do not fit the round loop's uint8 codes: this runs the
    # uint16 encoding, through both coin steps, against the fused kernel.
    monkeypatch.setattr(batch_engine, "SMALL_BLOCK_ELEMENTS", small_block)
    topology = grid_graph(4, 5)
    protocol = ring_protocol(40)
    numpy_engine = BatchedEngine(topology, protocol, kernel="numpy")
    assert numpy_engine._encoded.encode.dtype == np.uint16
    oracle_engine = BatchedEngine(topology, protocol, kernel="python")
    seeds = list(range(5))
    reference = oracle_engine.run(
        seeds, max_rounds=300, stop_at_single_leader=stop
    )
    batch = numpy_engine.run(seeds, max_rounds=300, stop_at_single_leader=stop)
    assert_same_batch(reference, batch)
    assert numpy_engine.last_kernel["active"] == "numpy"
    assert oracle_engine.last_kernel["active"] == "python"
    # The runs do something: leader counts move and states leave the start.
    assert len({c for row in batch.leader_counts for c in row}) > 1
    assert len(np.unique(batch.final_states)) > 1


def test_engine_converges_on_standard_graphs(bfw):
    for topology in (path_graph(16), cycle_graph(20), clique_graph(30)):
        result = VectorizedEngine(topology, bfw).run(rng=1, max_rounds=100_000)
        assert result.converged, topology.name
        assert result.final_leader_count == 1


def test_engine_is_reproducible(bfw, small_cycle):
    engine = VectorizedEngine(small_cycle, bfw)
    first = engine.run(rng=42)
    second = engine.run(rng=42)
    assert first.convergence_round == second.convergence_round
    assert first.leader_counts == second.leader_counts


def test_engine_different_seeds_differ(bfw):
    topology = path_graph(24)
    engine = VectorizedEngine(topology, bfw)
    rounds = {engine.run(rng=seed).convergence_round for seed in range(6)}
    assert len(rounds) > 1


def test_engine_initial_states_planting(bfw, small_path):
    initial = planted_leaders_initial_states(small_path, (0,))
    result = VectorizedEngine(small_path, bfw).run(rng=0, initial_states=initial)
    assert result.convergence_round == 0


def test_engine_rejects_bad_initial_states(bfw, small_path):
    engine = VectorizedEngine(small_path, bfw)
    with pytest.raises(SimulationError):
        engine.run(initial_states=[0] * (small_path.n + 1))
    with pytest.raises(SimulationError):
        engine.run(initial_states=[99] * small_path.n)
    # 256 + s is no state, though narrowing it to int8 would wrap it into s.
    for state in (0, 3, 5):
        with pytest.raises(SimulationError, match="invalid state values"):
            engine.run(
                initial_states=np.full(small_path.n, 256 + state, dtype=np.int64)
            )


def test_engine_trace_consistent_with_leader_counts(bfw, small_cycle):
    result = VectorizedEngine(small_cycle, bfw).run(rng=3, record_trace=True)
    assert result.trace is not None
    from_trace = [
        result.trace.leader_count(t) for t in range(result.rounds_executed + 1)
    ]
    assert tuple(from_trace) == result.leader_counts


def test_engine_beep_count_recording(bfw, small_path):
    engine = VectorizedEngine(small_path, bfw)
    result = engine.run(rng=5, record_trace=True, record_beep_counts=True)
    assert engine.last_beep_counts is not None
    assert result.trace is not None
    assert (engine.last_beep_counts == result.trace.beep_counts()).all()


def test_engine_and_reference_simulator_agree_statistically():
    """Both engines implement the same process; their mean convergence times
    on a small cycle must be statistically indistinguishable."""
    topology = cycle_graph(10)
    protocol = BFWProtocol()
    engine_rounds = [
        VectorizedEngine(topology, protocol).run(rng=seed).convergence_round
        for seed in range(25)
    ]
    simulator_rounds = [
        Simulator(topology, protocol).run(rng=seed + 1000).convergence_round
        for seed in range(25)
    ]
    mean_engine = np.mean(engine_rounds)
    mean_simulator = np.mean(simulator_rounds)
    # Convergence on a 10-cycle takes tens of rounds; allow a generous factor.
    assert 0.4 < mean_engine / mean_simulator < 2.5


def test_run_bfw_convenience_wrapper():
    result = run_bfw(path_graph(12), rng=7)
    assert result.converged
    result_nonuniform = run_bfw(
        path_graph(12), NonUniformBFWProtocol(diameter=11), rng=7
    )
    assert result_nonuniform.converged


def test_no_freeze_variant_compiles_and_runs():
    result = VectorizedEngine(path_graph(8), NoFreezeBFWProtocol()).run(
        rng=2, max_rounds=5000
    )
    # The ablated protocol has no single-leader guarantee; we only require
    # that the engine executes it without error.
    assert result.rounds_executed >= 1


# --------------------------------------------------------------------------- #
# The one-replica façade over BatchedEngine
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "topology",
    [clique_graph(12), star_graph(10), grid_graph(3, 4)],
    ids=["clique", "star", "grid"],
)
def test_facade_matches_the_uncompiled_kernel(bfw, topology):
    # Independent oracle: the fused kernel body run uncompiled on a batch of
    # one, a different round loop from the façade's default kernel.
    engine = VectorizedEngine(topology, bfw)
    for seed in range(3):
        result = engine.run(rng=seed)
        oracle = BatchedEngine(topology, bfw, kernel="python").run([seed])
        assert result == oracle.replica(0)
        np.testing.assert_array_equal(engine.last_states, oracle.final_states[0])


def test_facade_generator_matches_its_integer_seed(bfw, small_cycle):
    engine = VectorizedEngine(small_cycle, bfw)
    seeded = engine.run(rng=11)
    seeded_states = engine.last_states.copy()
    from_generator = engine.run(rng=np.random.default_rng(11))
    # Same stream, same run; only the provenance differs.
    assert seeded.seed == 11
    assert from_generator.seed is None
    assert seeded.leader_counts == from_generator.leader_counts
    assert seeded.convergence_round == from_generator.convergence_round
    np.testing.assert_array_equal(engine.last_states, seeded_states)


def test_facade_zero_round_budget_reports_the_initial_configuration(
    bfw, small_path
):
    engine = VectorizedEngine(small_path, bfw)
    result = engine.run(rng=1, max_rounds=0, record_trace=True)
    assert result.rounds_executed == 0
    assert not result.converged
    assert result.leader_counts == (small_path.n,)
    assert (engine.last_states == int(State.W_LEADER)).all()
    assert result.trace is not None and result.trace.num_rounds == 0


def test_facade_negative_budget_is_a_configuration_error(bfw, small_path):
    with pytest.raises(ConfigurationError, match="max_rounds"):
        VectorizedEngine(small_path, bfw).run(rng=1, max_rounds=-1)


def test_facade_last_states_are_the_final_configuration(bfw, small_grid):
    engine = VectorizedEngine(small_grid, bfw)
    result = engine.run(rng=4, record_trace=True)
    assert engine.last_states.dtype == np.int8
    assert engine.last_states.shape == (small_grid.n,)
    leaders = engine.compiled.is_leader[engine.last_states]
    assert int(leaders.sum()) == result.final_leader_count
    np.testing.assert_array_equal(
        result.trace.states[-1], engine.last_states
    )


def test_facade_without_early_stop_spends_the_whole_budget(bfw, small_cycle):
    engine = VectorizedEngine(small_cycle, bfw)
    stopped = engine.run(rng=2)
    full = engine.run(rng=2, max_rounds=300, stop_at_single_leader=False)
    assert stopped.converged
    assert full.rounds_executed == 300
    assert len(full.leader_counts) == 301
    # The early-stopped run is a prefix of the full one.
    assert full.leader_counts[: len(stopped.leader_counts)] == stopped.leader_counts


def test_facade_beep_counts_are_reset_by_a_run_without_them(bfw, small_path):
    engine = VectorizedEngine(small_path, bfw)
    engine.run(rng=5, record_beep_counts=True)
    assert engine.last_beep_counts is not None
    engine.run(rng=5)
    assert engine.last_beep_counts is None


class _RetireAt(BatchObserver):
    """Retires the single replica after round ``stop`` and logs the hook."""

    def __init__(self, stop):
        self.stop = stop
        self.retired = []

    def should_retire(self, round_index, leaders, active_mask):
        if round_index == self.stop:
            return np.ones(active_mask.shape[0], dtype=bool)
        return None

    def on_retire(self, replicas, round_index):
        self.retired.append((list(replicas), round_index))


def test_facade_observer_retire_stops_the_run(bfw, small_path):
    observer = _RetireAt(3)
    result = VectorizedEngine(small_path, bfw).run(rng=0, observers=[observer])
    assert result.rounds_executed == 3
    assert not result.converged
    assert len(result.leader_counts) == 4
    assert observer.retired == [([0], 3)]


def test_facade_heartbeats_carry_the_vectorized_label(bfw, small_cycle):
    beats = []
    with use_heartbeat(HeartbeatEmitter(1, beats.append)):
        result = VectorizedEngine(small_cycle, bfw).run(rng=3)
    assert beats
    assert {beat.engine for beat in beats} == {"vectorized"}
    assert all(beat.replicas == 1 for beat in beats)
    assert beats[-1].round_index <= result.rounds_executed
