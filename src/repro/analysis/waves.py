"""Beep-wave extraction and tracking.

The paper explains BFW's behaviour in terms of *beep waves*: a leader's beep
triggers its waiting neighbours to beep in the next round, their neighbours
in the round after, and so on, producing a front that travels away from the
leader at one hop per round until it crashes into another wave or the graph's
boundary.  Leaders crossed by a wave are eliminated.

This module extracts those waves from recorded traces:

* the per-round *front* (the set of beeping nodes),
* the wave *meeting point* on path graphs (used by the lower-bound
  experiment E4, where the meeting point performs an approximate random
  walk between the two surviving leaders),
* per-node first-arrival times of a wave started by a chosen leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.beeping.trace import ExecutionTrace
from repro.errors import TraceError
from repro.graphs.topology import Topology


@dataclass(frozen=True)
class WaveFront:
    """The set of beeping nodes in one round."""

    round_index: int
    nodes: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of nodes beeping in this round."""
        return len(self.nodes)


def wave_fronts(trace: ExecutionTrace) -> Tuple[WaveFront, ...]:
    """The beeping front of every recorded round (possibly empty fronts)."""
    return tuple(
        WaveFront(round_index=t, nodes=trace.beeping_nodes(t))
        for t in trace.rounds()
    )


def first_beep_round(trace: ExecutionTrace) -> np.ndarray:
    """For every node, the first round in which it beeps (``-1`` if never)."""
    firsts = np.full(trace.n, -1, dtype=np.int64)
    for t in trace.rounds():
        mask = trace.beeping_mask(t)
        unseen = (firsts == -1) & mask
        firsts[unseen] = t
    return firsts


def wave_arrival_times(
    trace: ExecutionTrace, topology: Topology, origin: int
) -> np.ndarray:
    """First-beep round of every node, relative to the origin's first beep.

    When a single leader is planted at ``origin``, the resulting arrival
    times equal the graph distance from the origin (one hop per round), which
    is what the wave-propagation tests assert.
    """
    firsts = first_beep_round(trace)
    if firsts[origin] < 0:
        raise TraceError(f"origin node {origin} never beeps in the trace")
    relative = firsts.astype(float) - float(firsts[origin])
    relative[firsts < 0] = np.inf
    return relative


def path_meeting_points(
    trace: ExecutionTrace, topology: Topology
) -> Tuple[Tuple[int, float], ...]:
    """Track where opposing waves meet on a path graph.

    For a path graph with nodes labelled ``0 .. n-1`` in order, the function
    returns, for every round that contains at least two beeping nodes, the
    midpoint of the beeping front (mean position of beeping nodes).  When two
    leaders sit at the two ends of the path, this midpoint tracks the
    boundary between the regions dominated by each leader; the paper's
    Section 5 conjectures that it behaves like a simple random walk, which
    the lower-bound experiment E4 examines empirically.

    Returns
    -------
    tuple of (round, midpoint) pairs.
    """
    _require_path(topology)
    points: List[Tuple[int, float]] = []
    for t in trace.rounds():
        nodes = trace.beeping_nodes(t)
        if len(nodes) >= 2:
            points.append((t, float(np.mean(nodes))))
    return tuple(points)


def boundary_positions(
    trace: ExecutionTrace, topology: Topology, left_leader: int, right_leader: int
) -> Tuple[Tuple[int, float], ...]:
    """Track the territorial boundary between two leaders on a path graph.

    The *territory* of a leader in round ``t`` is measured through beep
    counts: by Ohm's law the set of nodes whose cumulative beep count is
    closer to the left leader's count belongs to the left wave system.  The
    boundary position is the number of nodes whose beep count is at least as
    large as what a wave from the left leader alone would have produced,
    i.e. the index where the beep-count profile switches allegiance.

    The returned positions drift like a random walk until one leader is
    eliminated, matching the discussion in Section 5.
    """
    _require_path(topology)
    if not 0 <= left_leader < topology.n or not 0 <= right_leader < topology.n:
        raise TraceError("leader indices outside the node range")
    if left_leader > right_leader:
        left_leader, right_leader = right_leader, left_leader
    counts = np.zeros(trace.n, dtype=np.int64)
    positions: List[Tuple[int, float]] = []
    for t in trace.rounds():
        counts = counts + trace.beeping_mask(t)
        left_count = counts[left_leader]
        right_count = counts[right_leader]
        # Node u sides with the left leader when its beep count is closer to
        # what the left wave imposes (N_left - dist) than to the right one.
        interior = np.arange(left_leader, right_leader + 1)
        left_influence = left_count - (interior - left_leader)
        right_influence = right_count - (right_leader - interior)
        with_left = left_influence >= right_influence
        boundary = float(left_leader + with_left.sum() - 0.5)
        positions.append((t, boundary))
    return tuple(positions)


def count_waves_on_path(trace: ExecutionTrace, topology: Topology) -> np.ndarray:
    """Number of disjoint beeping runs ("waves in flight") per round on a path."""
    _require_path(topology)
    counts = np.zeros(trace.num_rounds + 1, dtype=int)
    for t in trace.rounds():
        mask = trace.beeping_mask(t)
        # Count maximal runs of consecutive True values.
        padded = np.concatenate(([False], mask, [False]))
        starts = np.flatnonzero(padded[1:] & ~padded[:-1])
        counts[t] = len(starts)
    return counts


def _require_path(topology: Topology) -> None:
    expected = [(i, i + 1) for i in range(topology.n - 1)]
    if list(topology.edges) != expected:
        raise TraceError(
            "this analysis requires a path graph with consecutive labels "
            "(as produced by repro.graphs.path_graph)"
        )
