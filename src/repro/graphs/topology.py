"""The :class:`Topology` abstraction used by every simulator in the library.

A topology is an undirected connected graph ``G = (V, E)`` with nodes labelled
``0 .. n-1``.  It stores the adjacency structure in three forms that different
parts of the library need:

* adjacency lists (for the reference simulator and analysis code),
* a ``scipy.sparse`` CSR adjacency matrix (for the vectorised engine),
* a ``networkx`` graph (for generators and graph-theoretic queries).

Distances and the diameter are computed lazily and cached, since the scaling
experiments query them repeatedly.  One level-synchronous breadth-first
search over the CSR adjacency serves every query and advances a whole block
of sources per Python iteration: ``diameter()`` on a graph of up to 512
nodes is one search from all sources at once, and ``distances_from`` and
the connectivity check are searches from one source.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.errors import TopologyError

Edge = Tuple[int, int]


class Topology:
    """An undirected, connected communication graph with integer node labels.

    Parameters
    ----------
    n:
        Number of nodes; nodes are labelled ``0 .. n-1``.
    edges:
        Iterable of undirected edges ``(u, v)``.  Self-loops are rejected and
        duplicate edges are collapsed.
    name:
        Optional human-readable name (e.g. ``"path(32)"``) used in reports.
    require_connected:
        If ``True`` (the default, matching the paper's assumption), raise
        :class:`TopologyError` when the graph is not connected.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        name: Optional[str] = None,
        require_connected: bool = True,
    ) -> None:
        if n < 1:
            raise TopologyError(f"a topology needs at least one node; got n={n}")
        self._n = int(n)
        self._name = name or f"graph(n={n})"

        unique_edges = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(
                    f"edge ({u}, {v}) references a node outside 0..{n - 1}"
                )
            unique_edges.add((min(u, v), max(u, v)))
        self._edges: Tuple[Edge, ...] = tuple(sorted(unique_edges))

        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        for u, v in self._edges:
            self._adjacency[u].append(v)
            self._adjacency[v].append(u)
        for neighbours in self._adjacency:
            neighbours.sort()

        self._sparse: Optional[sparse.csr_matrix] = None
        self._nx: Optional[nx.Graph] = None
        self._distances: Dict[int, np.ndarray] = {}
        self._diameter: Optional[int] = None

        if require_connected and not np.isfinite(self.distances_from(0)).all():
            raise TopologyError(
                f"graph {self._name!r} with {n} nodes and {len(self._edges)} edges "
                "is not connected"
            )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def name(self) -> str:
        """Human-readable name of the topology."""
        return self._name

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges, each as ``(min(u, v), max(u, v))``."""
        return self._edges

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def nodes(self) -> range:
        """The node labels ``0 .. n-1``."""
        return range(self._n)

    def neighbors(self, node: int) -> Sequence[int]:
        """The sorted neighbour list of ``node``."""
        return tuple(self._adjacency[node])

    def degree(self, node: int) -> int:
        """The degree of ``node``."""
        return len(self._adjacency[node])

    def adjacency_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """All adjacency lists as immutable tuples, indexed by node."""
        return tuple(tuple(neigh) for neigh in self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        return v in self._adjacency[u]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, n={self._n}, edges={len(self._edges)})"
        )

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #

    def sparse_adjacency(self) -> sparse.csr_matrix:
        """The ``n × n`` boolean adjacency matrix in CSR form (cached)."""
        if self._sparse is None:
            rows: List[int] = []
            cols: List[int] = []
            for u, v in self._edges:
                rows.extend((u, v))
                cols.extend((v, u))
            data = np.ones(len(rows), dtype=np.int8)
            self._sparse = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self._n, self._n)
            )
        return self._sparse

    def to_networkx(self) -> nx.Graph:
        """A ``networkx`` view of the graph (cached)."""
        if self._nx is None:
            graph = nx.Graph()
            graph.add_nodes_from(range(self._n))
            graph.add_edges_from(self._edges)
            self._nx = graph
        return self._nx

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #

    def distances_from(self, source: int) -> np.ndarray:
        """BFS distances from ``source`` to every node (cached per source).

        A float array holding ``inf`` for nodes that ``source`` cannot reach.
        """
        if source not in self._distances:
            self._distances[source] = self._bfs(np.array([source]))[0]
        return self._distances[source]

    def distance(self, u: int, v: int) -> int:
        """The hop distance between ``u`` and ``v``."""
        return int(self.distances_from(u)[v])

    def eccentricity(self, node: int) -> int:
        """The eccentricity of ``node`` (maximum distance to any other node)."""
        return int(self.distances_from(node).max())

    def diameter(self) -> int:
        """The diameter ``D`` of the graph (cached).

        Exact for graphs of up to 512 nodes: one breadth-first search from
        every source at once.  Larger graphs use a double-sweep heuristic —
        exact on trees,
        paths, cycles, grids and tori, a lower bound in general; for
        adversarial inputs callers can fall back to ``networkx.diameter``.

        For a single-node graph the diameter is defined as ``0``; the
        protocols that need a strictly positive ``D`` (such as the
        non-uniform BFW variant) clamp it to at least 1 themselves.
        """
        if self._diameter is None:
            if self._n <= 512:
                self._diameter = int(self._bfs(np.arange(self._n)).max())
            else:
                first = int(np.argmax(self.distances_from(0)))
                second = int(np.argmax(self.distances_from(first)))
                self._diameter = max(
                    self.eccentricity(node) for node in (0, first, second)
                )
        return self._diameter

    def shortest_path(self, u: int, v: int) -> Tuple[int, ...]:
        """One shortest path from ``u`` to ``v`` as a tuple of nodes."""
        if u == v:
            return (u,)
        distances = self.distances_from(v)
        if not np.isfinite(distances[u]):
            raise TopologyError(f"no path between {u} and {v}")
        path = [u]
        current = u
        while current != v:
            current = min(
                self._adjacency[current], key=lambda w: distances[w]
            )
            path.append(current)
        return tuple(path)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _bfs(self, sources: np.ndarray) -> np.ndarray:
        """Hop distances from each of ``sources``; shape ``(len(sources), n)``.

        A level-synchronous breadth-first search over the CSR adjacency that
        advances the whole block of sources one level per Python iteration;
        unreachable nodes keep distance ``inf``.  A block expands its
        ``(n, k)`` frontier with one sparse product per level — the product
        :func:`~repro.batch.engine.hear_mask` computes — on a float32
        operand, because the stored int8 CSR would wrap at 128 frontier
        neighbours.  A single source instead gathers the CSR slices of its
        frontier nodes, so each level costs work in proportion to the edges
        it crosses rather than to the whole graph (a million-node cycle
        stays linear).
        """
        adjacency = self.sparse_adjacency()
        n = self._n
        if len(sources) == 1:
            indptr, indices = adjacency.indptr, adjacency.indices
            degrees = np.diff(indptr)
            distances = np.full(n, np.inf)
            # slot[v] = position of v among this level's candidates: keeps
            # the first copy of a node that several frontier nodes reach.
            slot = np.empty(n, dtype=np.int64)
            frontier = np.asarray(sources, dtype=np.int64)
            distances[frontier] = 0
            depth = 0
            while frontier.size:
                depth += 1
                counts = degrees[frontier]
                # Position in `indices` of every edge leaving the frontier:
                # the node's CSR slice start plus the edge's rank in it.
                shift = indptr[frontier] - (counts.cumsum() - counts)
                edges = np.repeat(shift, counts) + np.arange(counts.sum())
                reached = indices[edges]
                reached = reached[distances[reached] == np.inf]
                order = np.arange(reached.size)
                slot[reached] = order
                frontier = reached[slot[reached] == order]
                distances[frontier] = depth
            return distances[None, :]

        operand = adjacency.astype(np.float32)
        columns = np.arange(len(sources))
        visited = np.zeros((n, len(sources)), dtype=bool)
        visited[sources, columns] = True
        distances = np.where(visited, 0.0, np.inf)
        frontier = visited.astype(np.float32)
        depth = 0
        while True:
            depth += 1
            reached = (operand @ frontier > 0) & ~visited
            if not reached.any():
                return np.ascontiguousarray(distances.T)
            visited |= reached
            distances[reached] = depth
            frontier = reached.astype(np.float32)


def topology_from_networkx(graph: nx.Graph, name: Optional[str] = None) -> Topology:
    """Build a :class:`Topology` from a ``networkx`` graph.

    Node labels are remapped to ``0 .. n-1`` in sorted order of the original
    labels, so the result is deterministic for a given input graph.
    """
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    return Topology(len(nodes), edges, name=name)
