"""Parity and behaviour of the memory engines.

The memory half of the guarantee from ``test_parity.py``: with matched
seeds, replica ``r`` of a :class:`BatchedMemoryEngine` run and
``MemorySimulator.run(rng=seeds[r])`` are each identical, field for field,
to the per-node reference loop ``run_memory_reference(rng=seeds[r])`` —
including the two-round stability window, the convergence-round resets when
a baseline transiently drops to one candidate, the all-terminated early exit
of the ID-broadcast phases, and the non-convergent multi-leader outcome of
the clique-only knockout on sparse graphs.

Together with the registry sweep below, every protocol the experiments can
name — BFW variants *and* memory baselines — passes the shared harness on
cycles, paths and an Erdős–Rényi graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    EmekKerenStyleElection,
    GilbertNewportKnockout,
    IDBroadcastElection,
)
from repro.batch import BatchedMemoryEngine, supports_batched_memory
from repro.batch.memory import _IDBroadcastBatch, register_memory_batch_compiler
from repro.batch.observers import BatchObserver
from repro.batch.streams import ReplicaStreams
from repro.beeping.simulator import MemorySimulator, run_memory_reference
from repro.core.protocol import MemoryProtocol
from repro.core.registry import available_protocols
from repro.errors import ConfigurationError
from repro.experiments.runner import instantiate_protocol
from repro.graphs.generators import (
    clique_graph,
    cycle_graph,
    erdos_renyi_graph,
    make_graph,
    path_graph,
)
from tests.batch.parity_harness import (
    assert_replica_parity,
    assert_same_simulation_fields,
    parity_topologies,
)

#: Memory baselines with a registered batch implementation (the pipelined-IDs
#: election is a standalone runner and deliberately absent).
BATCHED_MEMORY_BASELINES = (
    "id-broadcast",
    "id-broadcast-random",
    "emek-keren",
    "gilbert-newport",
)

#: The full parity surface: every registered constant-state protocol plus
#: every batched memory baseline.
ALL_BATCHED_PROTOCOLS = tuple(available_protocols()) + BATCHED_MEMORY_BASELINES


@pytest.mark.parametrize("family_id,topology", parity_topologies())
@pytest.mark.parametrize("name", ALL_BATCHED_PROTOCOLS)
def test_every_batched_protocol_has_parity_on_every_family(
    name, family_id, topology
):
    protocol = instantiate_protocol(name, topology, {})
    # A modest shared budget keeps the sequential reference fast while still
    # exercising retirement, termination and budget exhaustion (the knockout
    # baseline never converges off-clique, for instance).
    assert_replica_parity(
        topology, protocol, seeds=tuple(range(5)), max_rounds=300
    )


def test_knockout_parity_on_its_native_clique():
    topology = clique_graph(12)
    assert_replica_parity(topology, GilbertNewportKnockout(), seeds=tuple(range(8)))


def test_memory_parity_without_early_stopping():
    topology = cycle_graph(12)
    assert_replica_parity(
        topology,
        EmekKerenStyleElection(diameter=6),
        seeds=tuple(range(4)),
        max_rounds=120,
        stop_at_single_leader=False,
    )


def test_memory_parity_with_wider_stability_window():
    topology = cycle_graph(12)
    assert_replica_parity(
        topology,
        GilbertNewportKnockout(),
        seeds=tuple(range(4)),
        max_rounds=120,
        stability_window=5,
    )


def test_id_broadcast_terminates_and_retires_every_replica():
    topology = cycle_graph(16)
    protocol = IDBroadcastElection(diameter=topology.diameter(), n=topology.n)
    batch = assert_replica_parity(topology, protocol, seeds=tuple(range(6)))
    # Unique identifiers make the broadcast deterministic: every replica
    # elects the maximum-ID node within the fixed phase schedule.
    assert batch.converged.all()
    assert (batch.rounds_executed <= protocol.total_rounds).all()
    assert (batch.leader_node == topology.n - 1).all()


def test_batch_seeds_and_metadata_round_trip():
    topology = cycle_graph(10)
    batch = BatchedMemoryEngine(topology, GilbertNewportKnockout()).run([7, 8, 9])
    assert batch.seeds == (7, 8, 9)
    assert batch.protocol_name == "gilbert-newport-knockout"
    assert batch.topology_name == topology.name
    assert batch.final_states is None  # memory baselines carry no state vector


def test_zero_round_budget_reports_initial_configuration():
    topology = cycle_graph(6)
    batch = BatchedMemoryEngine(topology, GilbertNewportKnockout()).run(
        [1, 2], max_rounds=0
    )
    assert (batch.rounds_executed == 0).all()
    assert (batch.final_leader_count == topology.n).all()
    assert not batch.converged.any()


def test_negative_round_budget_is_rejected():
    with pytest.raises(ConfigurationError):
        BatchedMemoryEngine(cycle_graph(6), GilbertNewportKnockout()).run(
            [1], max_rounds=-1
        )


class _OpaqueBaseline(MemoryProtocol):
    """A memory protocol without a batch state: the reference loop runs it."""

    name = "opaque"

    def create_memory(self, node, n, rng):
        return {}

    def wants_to_beep(self, memory, round_index):
        return False

    def update(self, memory, heard_beep, round_index, rng):
        return memory

    def is_leader(self, memory):
        return True


def test_unsupported_memory_protocol_is_rejected():
    assert not supports_batched_memory(_OpaqueBaseline())
    with pytest.raises(ConfigurationError):
        BatchedMemoryEngine(path_graph(4), _OpaqueBaseline())


def test_unsupported_memory_protocol_runs_the_reference_loop():
    topology = path_graph(4)
    single = MemorySimulator(topology, _OpaqueBaseline()).run(rng=3, max_rounds=5)
    reference = run_memory_reference(topology, _OpaqueBaseline(), rng=3, max_rounds=5)
    assert single == reference


def test_supports_batched_memory_covers_the_baseline_types():
    topology = cycle_graph(8)
    for name in BATCHED_MEMORY_BASELINES:
        assert supports_batched_memory(instantiate_protocol(name, topology, {}))
    assert not supports_batched_memory(instantiate_protocol("pipelined-ids", topology, {}))
    assert not supports_batched_memory(object())


def test_streams_end_in_the_sequential_generators_state():
    # Unlike the prefetching constant-state engine, the memory engines draw
    # exactly the randomness the reference loop consumes — so a caller's
    # generator objects are left in the reference post-run state.
    topology = cycle_graph(10)
    protocol = EmekKerenStyleElection(diameter=5)
    seeds = [3, 4]
    batch_generators = [np.random.default_rng(seed) for seed in seeds]
    BatchedMemoryEngine(topology, protocol).run(ReplicaStreams(batch_generators))
    for seed, batch_generator in zip(seeds, batch_generators):
        reference_generator = np.random.default_rng(seed)
        reference = run_memory_reference(topology, protocol, rng=reference_generator)
        single_generator = np.random.default_rng(seed)
        single = MemorySimulator(topology, protocol).run(rng=single_generator)
        assert_same_simulation_fields(single, reference)
        assert single.seed is None and reference.seed is None
        expected = reference_generator.random()
        assert batch_generator.random() == expected
        assert single_generator.random() == expected


# --------------------------------------------------------------------------- #
# Generated inputs: every baseline against the per-node reference loop
# --------------------------------------------------------------------------- #

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(
    name=st.sampled_from(BATCHED_MEMORY_BASELINES),
    family=st.sampled_from(("cycle", "path", "clique")),
    n=st.integers(2, 14),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    max_rounds=st.one_of(st.just(0), st.integers(1, 150)),
    stop_at_single_leader=st.booleans(),
    stability_window=st.integers(0, 6),
)
def test_generated_memory_runs_match_the_reference(
    name, family, n, seeds, max_rounds, stop_at_single_leader, stability_window
):
    topology = make_graph(family, n)
    protocol = instantiate_protocol(name, topology, {})
    assert_replica_parity(
        topology,
        protocol,
        seeds=tuple(seeds),
        max_rounds=max_rounds,
        stop_at_single_leader=stop_at_single_leader,
        stability_window=stability_window,
    )


@pytest.mark.parametrize("name", BATCHED_MEMORY_BASELINES)
def test_caller_generator_matches_the_reference(name):
    topology = erdos_renyi_graph(14, rng=2)
    protocol = instantiate_protocol(name, topology, {})
    reference_generator = np.random.default_rng(99)
    reference = run_memory_reference(
        topology, protocol, rng=reference_generator, max_rounds=400
    )
    single_generator = np.random.default_rng(99)
    single = MemorySimulator(topology, protocol).run(
        rng=single_generator, max_rounds=400
    )
    assert_same_simulation_fields(single, reference)
    assert single.seed is None
    assert single_generator.random() == reference_generator.random()


class _HookLog(BatchObserver):
    """Logs every hook except ``on_retire`` and retires at a chosen round."""

    def __init__(self, retire_round=None):
        self.retire_round = retire_round
        self.log = []

    def on_start(self, info):
        self.log.append(("start", info.num_replicas, info.n, info.seeds))

    def on_round(self, round_index, states, beeping, leaders, active_mask):
        self.log.append(
            (
                "round",
                round_index,
                states,
                beeping,
                leaders.tolist(),
                active_mask.tolist(),
            )
        )

    def should_retire(self, round_index, leaders, active_mask):
        if round_index == self.retire_round:
            return np.asarray(active_mask, dtype=bool).copy()
        return None

    def on_finish(self, rounds_executed):
        self.log.append(("finish", np.asarray(rounds_executed).tolist()))


@pytest.mark.parametrize("retire_round", [None, 0, 3, 17])
@pytest.mark.parametrize("name", BATCHED_MEMORY_BASELINES)
def test_observers_see_the_reference_hooks(name, retire_round):
    topology = cycle_graph(12)
    protocol = instantiate_protocol(name, topology, {})
    observed = {}
    for label in ("reference", "simulator", "batch"):
        observer = _HookLog(retire_round)
        if label == "reference":
            result = run_memory_reference(
                topology, protocol, rng=5, max_rounds=300, observers=[observer]
            )
        elif label == "simulator":
            result = MemorySimulator(topology, protocol).run(
                rng=5, max_rounds=300, observers=[observer]
            )
        else:
            result = BatchedMemoryEngine(topology, protocol).run(
                [5], max_rounds=300, observers=[observer]
            ).replica(0)
        observed[label] = (result, observer.log)
    reference, reference_log = observed["reference"]
    if retire_round is not None:
        assert reference.rounds_executed <= retire_round
    for label in ("simulator", "batch"):
        result, log = observed[label]
        assert_same_simulation_fields(result, reference)
        assert log == reference_log, label


# --------------------------------------------------------------------------- #
# ID broadcast: no terminated row ever reaches the batch state
# --------------------------------------------------------------------------- #


class _GuardedIDBroadcast(IDBroadcastElection):
    """An ID broadcast whose batch state rejects rounds after termination."""


class _GuardedIDBroadcastBatch(_IDBroadcastBatch):
    # Every node terminates at the end of the last phase (round
    # total_rounds - 1), so any later round reaching the state means a
    # terminated replica was not retired.
    def __init__(self, protocol, topology):
        super().__init__(protocol, topology)
        self._total_rounds = protocol.total_rounds

    def beep_mask(self, round_index, rows):
        assert round_index < self._total_rounds, "terminated row asked to beep"
        return super().beep_mask(round_index, rows)

    def update(self, heard, round_index, rows, streams):
        assert round_index < self._total_rounds, "terminated row updated"
        super().update(heard, round_index, rows, streams)


register_memory_batch_compiler(_GuardedIDBroadcast, _GuardedIDBroadcastBatch)


@SETTINGS
@given(
    id_mode=st.sampled_from(("unique", "random")),
    n=st.integers(2, 12),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    max_rounds=st.one_of(st.none(), st.integers(0, 400)),
    stop_at_single_leader=st.booleans(),
    retire_round=st.one_of(st.none(), st.integers(0, 60)),
)
def test_id_broadcast_never_updates_a_terminated_row(
    id_mode, n, seeds, max_rounds, stop_at_single_leader, retire_round
):
    topology = cycle_graph(n) if n > 2 else path_graph(n)
    protocol = _GuardedIDBroadcast(
        diameter=topology.diameter(), n=topology.n, id_mode=id_mode
    )
    run_kwargs = dict(
        max_rounds=max_rounds, stop_at_single_leader=stop_at_single_leader
    )
    batch = BatchedMemoryEngine(topology, protocol).run(
        list(seeds), observers=[_HookLog(retire_round)], **run_kwargs
    )
    assert (batch.rounds_executed <= protocol.total_rounds).all()
    for index, seed in enumerate(seeds):
        reference = run_memory_reference(
            topology,
            protocol,
            rng=seed,
            observers=[_HookLog(retire_round)],
            **run_kwargs,
        )
        single = MemorySimulator(topology, protocol).run(
            rng=seed, observers=[_HookLog(retire_round)], **run_kwargs
        )
        assert_same_simulation_fields(batch.replica(index), reference)
        assert_same_simulation_fields(single, reference)


# --------------------------------------------------------------------------- #
# Round budgets
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "protocol",
    [GilbertNewportKnockout(), _OpaqueBaseline()],
    ids=["batched", "reference-only"],
)
def test_memory_simulator_rejects_a_negative_budget(protocol):
    topology = cycle_graph(6)
    with pytest.raises(ConfigurationError):
        MemorySimulator(topology, protocol).run(rng=1, max_rounds=-3)
    with pytest.raises(ConfigurationError):
        run_memory_reference(topology, protocol, rng=1, max_rounds=-3)
