"""Cumulative beep counts ``N^beep_t(u)`` and related queries.

The quantity ``N^beep_t(u)`` — the number of rounds ``s ≤ t`` in which node
``u`` beeped — is the bridge between the protocol's local behaviour and the
global flow analysis: Corollary 8 states that the flow along any path equals
the difference of the endpoint beep counts, and Lemma 11 bounds that
difference by the graph distance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.beeping.trace import ExecutionTrace
from repro.graphs.topology import Topology


def beep_count_matrix(trace: ExecutionTrace) -> np.ndarray:
    """``N^beep`` for every node and round: array of shape ``(rounds + 1, n)``.

    ``matrix[t, u]`` equals ``N^beep_t(u)``, the number of rounds ``s ≤ t``
    in which ``u`` beeped.
    """
    rows = []
    counts = np.zeros(trace.n, dtype=np.int64)
    for round_index in trace.rounds():
        counts = counts + trace.beeping_mask(round_index)
        rows.append(counts.copy())
    return np.vstack(rows)


def beep_counts_at(trace: ExecutionTrace, round_index: int) -> np.ndarray:
    """``N^beep_t`` for all nodes at a single round ``t``."""
    return trace.beep_counts(round_index)


def max_beep_count_nodes(
    trace: ExecutionTrace, round_index: Optional[int] = None
) -> Tuple[int, ...]:
    """The argmax set of ``N^beep_t`` — the nodes with the most beeps so far.

    Lemma 9's proof shows that this set always intersects the current leader
    set; :mod:`repro.analysis.invariants` checks that property on traces.
    """
    counts = trace.beep_counts(round_index)
    maximum = counts.max()
    return tuple(int(node) for node in np.flatnonzero(counts == maximum))


def beep_count_spread(
    trace: ExecutionTrace, round_index: Optional[int] = None
) -> int:
    """``max_u N^beep_t(u) − min_u N^beep_t(u)`` at the given round."""
    counts = trace.beep_counts(round_index)
    return int(counts.max() - counts.min())


def pairwise_beep_difference_bounds(
    trace: ExecutionTrace,
    topology: Topology,
    round_index: Optional[int] = None,
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """For every node pair: ``(|N^beep_t(u) − N^beep_t(v)|, dis(u, v))``.

    Lemma 11 states the first component never exceeds the second.  Intended
    for small graphs (quadratic in ``n``); the invariant checker uses sampled
    pairs on larger graphs.
    """
    counts = trace.beep_counts(round_index)
    results: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for u in topology.nodes():
        distances = topology.distances_from(u)
        for v in topology.nodes():
            if v <= u:
                continue
            difference = int(abs(counts[u] - counts[v]))
            results[(u, v)] = (difference, int(distances[v]))
    return results


def leader_beep_counts(
    trace: ExecutionTrace, round_index: Optional[int] = None
) -> Dict[int, int]:
    """``N^beep_t`` restricted to the nodes that are leaders in round ``t``."""
    if round_index is None:
        round_index = trace.num_rounds
    counts = trace.beep_counts(round_index)
    return {
        int(node): int(counts[node]) for node in trace.leaders(round_index)
    }
