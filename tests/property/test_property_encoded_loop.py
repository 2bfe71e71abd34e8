"""The interpreted round loop against the uncompiled fused kernel.

``BatchedEngine``'s interpreted loop stores bit-encoded states in a
node-major block and resolves coins only where a transition is random; the
fused kernel (``kernel="python"``) is an independent scalar loop over the
plain state values.  On generated two-outcome protocols — 1 to 40 states
(both the uint8 and the uint16 encoding), random beeping and leader sets,
primary probabilities of 0, 1 or in between — on generated small graphs,
the two must produce byte-identical records, through both coin steps of
the interpreted loop (dense for small blocks, sparse otherwise).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import engine as batch_engine
from repro.batch.engine import BatchedEngine
from repro.graphs.topology import Topology

from tests.batch.parity_harness import assert_same_batch
from tests.table_protocol import TableProtocol

SETTINGS = settings(max_examples=40, deadline=None)

probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.01, max_value=0.99),
)


@st.composite
def protocols(draw):
    """Two-outcome protocols on 1..40 states."""
    k = draw(st.integers(min_value=1, max_value=40))
    state = st.integers(min_value=0, max_value=k - 1)
    rows = st.lists(st.tuples(state, state, probabilities), min_size=k, max_size=k)
    # Few leader states, so single-leader rounds (and retirements) happen.
    leaders = draw(st.sets(state, max_size=2))
    return TableProtocol(
        beeping=draw(st.lists(st.booleans(), min_size=k, max_size=k)),
        leader=[s in leaders for s in range(k)],
        silent=draw(rows),
        heard=draw(rows),
        initial=draw(state),
    )


@st.composite
def graphs(draw):
    """Undirected graphs on 1..24 nodes, possibly disconnected."""
    n = draw(st.integers(min_value=1, max_value=24))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(
            st.tuples(node, node).filter(lambda edge: edge[0] != edge[1]),
            max_size=2 * n,
        )
    )
    return Topology(n, edges, require_connected=False)


@SETTINGS
@given(
    protocol=protocols(),
    topology=graphs(),
    replicas=st.sampled_from([1, 2, 7, 64]),
    planted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_encoded_loop_matches_the_uncompiled_kernel(
    protocol, topology, replicas, planted, seed
):
    seeds = [seed + r for r in range(replicas)]
    initial = None
    if planted:
        initial = np.random.default_rng(seed).integers(
            0, protocol.num_states(), size=(replicas, topology.n)
        )
    for stop in (True, False):
        run = dict(
            max_rounds=40,
            initial_states=initial,
            record_leader_counts=True,
            stop_at_single_leader=stop,
        )
        reference = BatchedEngine(topology, protocol, kernel="python").run(
            seeds, **run
        )
        for small_block in (0, 10**9):
            engine = BatchedEngine(topology, protocol, kernel="numpy")
            with mock.patch.object(
                batch_engine, "SMALL_BLOCK_ELEMENTS", small_block
            ):
                batch = engine.run(seeds, **run)
            assert engine.last_kernel["active"] == "numpy"
            assert_same_batch(reference, batch)
