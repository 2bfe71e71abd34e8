"""Distances and diameters checked against networkx as an independent oracle.

``Topology`` computes every distance with its own level-synchronous BFS (a
block of sources per level); networkx's shortest-path routines share no code
with it.  The generated graphs are connected by construction — a random
spanning tree plus random extra edges — with up to 512 nodes, the largest
size at which ``diameter()`` is exact.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import clique_graph, cycle_graph, random_tree_graph
from repro.graphs.topology import Topology, topology_from_networkx

SETTINGS = settings(max_examples=30, deadline=None)


def random_connected_graph(n, extra_edges, seed):
    """A random spanning tree on ``n`` nodes plus ``extra_edges`` random edges."""
    rng = np.random.default_rng(seed)
    edges = [(node, int(rng.integers(node))) for node in range(1, n)]
    if n > 1:
        for _ in range(extra_edges):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((u, v))
    return Topology(n, edges, name=f"random-connected({n})")


def assert_matches_networkx(topology):
    """Every distance row (all-sources block and single source), every
    eccentricity and the diameter equal networkx's."""
    graph = topology.to_networkx()
    eccentricity = nx.eccentricity(graph)
    block = topology._bfs(np.arange(topology.n))
    for node in topology.nodes():
        lengths = nx.single_source_shortest_path_length(graph, node)
        expected = np.array([lengths[v] for v in topology.nodes()], dtype=float)
        np.testing.assert_array_equal(block[node], expected)
        np.testing.assert_array_equal(topology.distances_from(node), expected)
        assert topology.eccentricity(node) == eccentricity[node]
    assert topology.diameter() == max(eccentricity.values())


@SETTINGS
@given(
    n=st.integers(1, 512),
    density=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_graphs_match_networkx(n, density, seed):
    assert_matches_networkx(random_connected_graph(n, int(density * n), seed))


def test_single_node_graph():
    topology = Topology(1, [])
    assert topology.diameter() == 0
    assert topology.eccentricity(0) == 0
    np.testing.assert_array_equal(topology.distances_from(0), [0.0])


@pytest.mark.parametrize(
    "topology",
    [
        clique_graph(200),
        # A hub with 200 (and 256) frontier neighbours in one BFS level: an
        # int8 product would wrap that count to a negative number (and to
        # exactly zero), dropping the hub from the level.
        topology_from_networkx(nx.complete_bipartite_graph(2, 200)),
        topology_from_networkx(nx.complete_bipartite_graph(2, 256)),
    ],
    ids=["clique-200", "k-2-200", "k-2-256"],
)
def test_high_degree_graphs_match_networkx(topology):
    assert_matches_networkx(topology)


@pytest.mark.parametrize("n", [511, 512])
def test_all_sources_block_at_the_exact_size_limit(n):
    topology = random_connected_graph(n, n // 2, seed=n)
    assert topology.diameter() == nx.diameter(topology.to_networkx())


@pytest.mark.parametrize(
    "make", [cycle_graph, lambda n: random_tree_graph(n, rng=3)], ids=["cycle", "tree"]
)
@pytest.mark.parametrize("n", [512, 513])
def test_diameter_across_the_double_sweep_boundary(make, n):
    # Above 512 nodes diameter() is the double sweep, exact on cycles and
    # trees; the single-source distances stay exact at every size.
    topology = make(n)
    assert topology.diameter() == nx.diameter(topology.to_networkx())
    lengths = nx.single_source_shortest_path_length(topology.to_networkx(), 7)
    expected = np.array([lengths[v] for v in topology.nodes()], dtype=float)
    np.testing.assert_array_equal(topology.distances_from(7), expected)


def test_unreachable_nodes_keep_an_infinite_distance():
    topology = Topology(5, [(0, 1), (1, 2), (3, 4)], require_connected=False)
    np.testing.assert_array_equal(
        topology.distances_from(0), [0.0, 1.0, 2.0, np.inf, np.inf]
    )
    np.testing.assert_array_equal(
        topology._bfs(np.array([0, 3])),
        [[0.0, 1.0, 2.0, np.inf, np.inf], [np.inf, np.inf, np.inf, 0.0, 1.0]],
    )
