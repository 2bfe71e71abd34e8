"""Independent oracles for the table-driven steps of the batched round.

* ``hear_mask`` — "who hears a beep" as one product over ``(n, R)`` replica
  columns — must equal a pure-Python neighbour OR over the edge list, on
  generated graphs (isolated nodes included), for silent and beeping
  rounds, R in {1, 2, 7, 64}, and both adjacency representations (dense
  float32 and float32 CSR);
* the flat transition tables ``prob_by_code`` / ``next_by_code`` must pick
  exactly the successor the 2-D ``succ_primary`` / ``succ_secondary`` /
  ``primary_probability`` tables pick, for every registered protocol and
  every (state, heard, coin);
* the bit-encoded tables of the interpreted loop (``encode_protocol``)
  must carry the flat tables' probabilities and successors, with the
  deterministic-step sentinel exactly where a transition is random.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.engine import encode_protocol, hear_adjacency, hear_mask
from repro.beeping.engine import compile_protocol
from repro.core.registry import available_protocols, create_protocol
from repro.graphs.topology import Topology

from tests.table_protocol import ring_protocol

SETTINGS = settings(max_examples=40, deadline=None)

replica_counts = st.sampled_from([1, 2, 7, 64])
beep_densities = st.sampled_from([0.0, 0.05, 0.3, 1.0])


@st.composite
def graphs(draw):
    """Undirected graphs on 1..90 nodes, possibly disconnected."""
    n = draw(st.integers(min_value=1, max_value=90))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(
            st.tuples(node, node).filter(lambda edge: edge[0] != edge[1]),
            max_size=3 * n,
        )
    )
    return Topology(n, edges, require_connected=False)


def neighbour_or(topology, beeps):
    """Pure-Python oracle: a node hears if it or any neighbour beeps."""
    heard = [list(row) for row in beeps]
    for u, v in topology.edges:
        for r, (beep_u, beep_v) in enumerate(zip(beeps[u], beeps[v])):
            if beep_u:
                heard[v][r] = True
            if beep_v:
                heard[u][r] = True
    return heard


def representations(topology):
    sparse = topology.sparse_adjacency()
    return {
        "dense": sparse.toarray().astype(np.float32),
        "csr": sparse.astype(np.float32),
        "rule": hear_adjacency(sparse),
    }


@SETTINGS
@given(
    topology=graphs(),
    replicas=replica_counts,
    density=beep_densities,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hear_mask_matches_neighbour_or(topology, replicas, density, seed):
    rng = np.random.default_rng(seed)
    beeps = rng.random((topology.n, replicas)) < density
    expected = neighbour_or(topology, beeps.tolist())
    columns = beeps.astype(np.float32)
    for label, adjacency in representations(topology).items():
        heard = hear_mask(columns, adjacency)
        assert heard.dtype == np.bool_, label
        assert heard.shape == (topology.n, replicas), label
        assert heard.tolist() == expected, label


@SETTINGS
@given(topology=graphs(), replicas=replica_counts)
def test_all_silent_round_hears_nothing(topology, replicas):
    columns = np.zeros((topology.n, replicas), dtype=np.float32)
    for label, adjacency in representations(topology).items():
        assert not hear_mask(columns, adjacency).any(), label


@SETTINGS
@given(n=st.integers(min_value=1, max_value=90), replicas=replica_counts)
def test_isolated_nodes_hear_only_themselves(n, replicas):
    topology = Topology(n, [], require_connected=False)
    beeps = np.random.default_rng(n).random((n, replicas)) < 0.5
    for label, adjacency in representations(topology).items():
        heard = hear_mask(beeps.astype(np.float32), adjacency)
        assert (heard == beeps).all(), label


# --------------------------------------------------------------------------- #
# Flat transition tables
# --------------------------------------------------------------------------- #


def _compiled(name, diameter=5):
    return compile_protocol(create_protocol(name, diameter=diameter, n=12))


@pytest.mark.parametrize("name", available_protocols())
def test_flat_tables_match_two_table_form(name):
    compiled = _compiled(name)
    assert compiled.prob_by_code.shape == (2 * compiled.num_states,)
    assert compiled.next_by_code.shape == (4 * compiled.num_states,)
    for state in range(compiled.num_states):
        for heard in (0, 1):
            code = 2 * state + heard
            assert (
                compiled.prob_by_code[code]
                == compiled.primary_probability[state, heard]
            )
            # Coin 0: u < p picked the primary successor; coin 1: u >= p.
            assert (
                compiled.next_by_code[2 * code]
                == compiled.succ_primary[state, heard]
            )
            assert (
                compiled.next_by_code[2 * code + 1]
                == compiled.succ_secondary[state, heard]
            )


@SETTINGS
@given(
    name=st.sampled_from(available_protocols()),
    diameter=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=200),
)
def test_flat_lookup_picks_the_where_successor(name, diameter, seed, size):
    compiled = _compiled(name, diameter)
    rng = np.random.default_rng(seed)
    states = rng.integers(0, compiled.num_states, size=size)
    heard = rng.random(size) < 0.5
    uniforms = rng.random(size)
    # Ties u == p must go to the secondary successor, as in `u < p`.
    ties = rng.random(size) < 0.2
    uniforms[ties] = compiled.primary_probability[states, heard.astype(int)][ties]
    h = heard.astype(int)
    expected = np.where(
        uniforms < compiled.primary_probability[states, h],
        compiled.succ_primary[states, h],
        compiled.succ_secondary[states, h],
    )
    code = 2 * states + heard
    probability = compiled.prob_by_code.take(code)
    got = compiled.next_by_code.take(2 * code + (uniforms >= probability))
    assert got.dtype == compiled.succ_primary.dtype
    assert (got == expected).all()


@pytest.mark.parametrize(
    "protocol",
    [create_protocol(name, diameter=5, n=12) for name in available_protocols()]
    + [ring_protocol(32), ring_protocol(40)],
    ids=lambda protocol: protocol.name,
)
def test_encoded_tables_match_flat_tables(protocol):
    compiled = compile_protocol(protocol)
    tables = encode_protocol(compiled)
    narrow = np.uint8 if compiled.num_states <= 32 else np.uint16
    assert tables.encode.dtype == tables.step.dtype == narrow
    for state in range(compiled.num_states):
        encoded = int(tables.encode[state])
        assert encoded >> 2 == state
        assert (encoded >> 1) & 1 == compiled.is_leader[state]
        assert encoded & 1 == compiled.is_beeping[state]
        assert tables.beep_f32[encoded] == compiled.is_beeping[state]
        assert tables.leader_ip[encoded] == compiled.is_leader[state]
        for heard in (0, 1):
            flat = 2 * state + heard
            code = encoded << 1 | heard
            p = compiled.prob_by_code[flat]
            assert tables.prob[code] == p
            successors = [compiled.next_by_code[2 * flat + coin] for coin in (0, 1)]
            for coin in (0, 1):
                assert tables.coin[2 * code + coin] == tables.encode[successors[coin]]
            if 0.0 < p < 1.0:
                assert tables.step[code] == tables.hot
            else:
                assert tables.step[code] == tables.encode[successors[int(p <= 0.0)]]
            if tables.step_bytes is not None:
                assert tables.step_bytes[code] == tables.step[code]
