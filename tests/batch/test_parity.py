"""Batched-vs-single parity: the core guarantee of the batch subsystem.

With matched per-replica seeds, replica ``r`` of a :class:`BatchedEngine`
run — and ``VectorizedEngine.run(rng=seeds[r])``, its one-replica façade —
must be bit-for-bit identical to a one-replica run of the uncompiled fused
kernel seeded ``seeds[r]``: same convergence round, same executed rounds,
same final leader (node id), same leader-count trajectory.  This is what
lets every sweep route through the batched engine without changing any
reproduced number of the paper.

The assertion itself lives in :mod:`tests.batch.parity_harness`, shared with
the memory-baseline parity suite; this module covers the constant-state
(BFW-family) half of the registry.
"""

import numpy as np
import pytest

from repro.beeping.adversary import planted_leaders_initial_states
from repro.core.bfw import BFWProtocol, NonUniformBFWProtocol
from repro.core.registry import available_protocols, create_protocol
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_geometric_graph,
)
from tests.batch.parity_harness import assert_replica_parity


@pytest.mark.parametrize(
    "topology",
    [cycle_graph(24), path_graph(17), random_geometric_graph(40, rng=3)],
    ids=["cycle", "path", "geometric"],
)
def test_bfw_parity_across_graph_families(topology):
    assert_replica_parity(topology, BFWProtocol())


def test_nonuniform_bfw_parity():
    topology = path_graph(13)
    assert_replica_parity(topology, NonUniformBFWProtocol(diameter=12))


@pytest.mark.parametrize("name", available_protocols())
def test_every_registered_variant_has_parity(name):
    topology = cycle_graph(16)
    protocol = create_protocol(name, diameter=8, n=topology.n)
    # ablated variants may not converge; a modest shared budget keeps the
    # test fast while still exercising retirement and budget exhaustion
    assert_replica_parity(topology, protocol, seeds=tuple(range(5)), max_rounds=400)


def test_parity_with_planted_initial_states():
    topology = path_graph(15)
    initial = planted_leaders_initial_states(topology, (0, topology.n - 1))
    assert_replica_parity(
        topology, BFWProtocol(), initial_states=np.asarray(initial)
    )


def test_parity_without_early_stopping():
    topology = cycle_graph(18)
    assert_replica_parity(
        topology,
        BFWProtocol(),
        seeds=tuple(range(6)),
        max_rounds=250,
        stop_at_single_leader=False,
    )


def test_parity_survives_interleaved_retirement_on_larger_cycle():
    # enough replicas and rounds that retirements interleave with the
    # prefetched RNG blocks in every position
    topology = cycle_graph(60)
    assert_replica_parity(topology, BFWProtocol(), seeds=tuple(range(16)))
