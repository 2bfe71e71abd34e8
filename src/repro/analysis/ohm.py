"""Ohm's law (Corollary 8): flow along a path = difference of endpoint beep counts.

Corollary 8 is the linchpin of the paper's correctness argument: combined
with the trivial bound ``|ν_t(ω)| ≤ |ω|`` it yields Lemma 11
(``|N^beep_t(u) − N^beep_t(v)| ≤ dis(u, v)``), and through Claim 10 it implies
that a leader with a maximal beep count can never be eliminated (Lemma 9).

This module verifies the law exactly on recorded traces, both for explicit
paths and for randomly sampled paths of a topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.beep_counts import beep_count_matrix
from repro.analysis.flow import flow_history_batch, path_flow, validate_path
from repro.batch.trace import BatchTrace
from repro.beeping.trace import ExecutionTrace
from repro.core.rng import RngLike, as_rng
from repro.errors import InvariantViolation
from repro.graphs.topology import Topology


@dataclass(frozen=True)
class OhmViolation:
    """A single violation of Corollary 8 found on a trace (should never happen)."""

    round_index: int
    path: Tuple[int, ...]
    flow: int
    beep_difference: int

    def message(self) -> str:
        """A human-readable description of the violation."""
        return (
            f"Ohm's law violated in round {self.round_index} on path {self.path}: "
            f"flow = {self.flow} but N^beep difference = {self.beep_difference}"
        )


def check_ohms_law(
    trace: ExecutionTrace,
    path: Sequence[int],
    topology: Optional[Topology] = None,
    raise_on_violation: bool = True,
) -> List[OhmViolation]:
    """Verify ``ν_t(ω) = N^beep_t(v_1) − N^beep_t(v_k)`` for every recorded round.

    Parameters
    ----------
    trace:
        A recorded execution started from a configuration satisfying Eq. (2).
    path:
        Vertex sequence of the path ``ω``.
    topology:
        When given, the path is first validated against the graph.
    raise_on_violation:
        If ``True`` (default), raise :class:`InvariantViolation` at the first
        violation; otherwise collect and return all of them.
    """
    if topology is not None:
        validate_path(topology, path)
    violations: List[OhmViolation] = []
    if len(path) < 2:
        return violations
    counts = beep_count_matrix(trace)
    start, end = path[0], path[-1]
    for round_index in trace.rounds():
        flow = path_flow(trace, path, round_index)
        difference = int(counts[round_index, start] - counts[round_index, end])
        if flow != difference:
            violation = OhmViolation(
                round_index=round_index,
                path=tuple(path),
                flow=flow,
                beep_difference=difference,
            )
            if raise_on_violation:
                raise InvariantViolation(violation.message())
            violations.append(violation)
    return violations


def check_ohms_law_batch(
    trace: BatchTrace,
    path: Sequence[int],
    topology: Optional[Topology] = None,
    raise_on_violation: bool = True,
) -> Tuple[List[OhmViolation], ...]:
    """Verify Corollary 8 on every replica of a batch at once.

    The batch entry point of :func:`check_ohms_law`: flows come from
    :func:`~repro.analysis.flow.flow_history_batch` and beep counts from
    one cumulative sum over the shared beep history, both one vectorised
    pass over the ``(T + 1, R, n)`` state array.  Only
    rounds a replica actually executed are checked (rows past retirement
    repeat the frozen configuration while the cumulative counts keep
    growing, so the law is not meaningful there).  Per replica, the
    returned violation list is exactly what
    ``check_ohms_law(trace.replica(r), path, raise_on_violation=False)``
    produces.
    """
    if topology is not None:
        validate_path(topology, path)
    violations: Tuple[List[OhmViolation], ...] = tuple(
        [] for _ in range(trace.num_replicas)
    )
    if len(path) < 2:
        return violations
    flows = flow_history_batch(trace, path)
    counts = np.cumsum(trace.beeping_history(), axis=0, dtype=np.int64)
    start, end = path[0], path[-1]
    differences = counts[:, :, start] - counts[:, :, end]
    mismatch = (flows != differences) & trace.valid_mask()
    for t, r in zip(*np.nonzero(mismatch)):
        violation = OhmViolation(
            round_index=int(t),
            path=tuple(path),
            flow=int(flows[t, r]),
            beep_difference=int(differences[t, r]),
        )
        if raise_on_violation:
            raise InvariantViolation(
                f"replica {int(r)}: {violation.message()}"
            )
        violations[int(r)].append(violation)
    return violations


def sample_random_path(
    topology: Topology,
    length: int,
    rng: RngLike = None,
    start: Optional[int] = None,
) -> Tuple[int, ...]:
    """Sample a random walk of ``length`` edges in the graph.

    Definition 4 allows repeated vertices and edges, so a random walk is a
    perfectly valid path for the flow machinery — and a convenient way to
    stress-test Ohm's law on paths that are not shortest paths.
    """
    generator = as_rng(rng)
    if start is None:
        start = int(generator.integers(0, topology.n))
    walk = [start]
    current = start
    for _ in range(length):
        neighbours = topology.neighbors(current)
        current = int(neighbours[generator.integers(0, len(neighbours))])
        walk.append(current)
    return tuple(walk)


def check_ohms_law_on_random_paths(
    trace: ExecutionTrace,
    topology: Topology,
    num_paths: int = 10,
    max_length: int = 20,
    rng: RngLike = None,
) -> int:
    """Verify Ohm's law on several random walks; returns the number of paths checked.

    Raises
    ------
    InvariantViolation
        If any sampled path violates the law in any round.
    """
    generator = as_rng(rng)
    checked = 0
    for _ in range(num_paths):
        length = int(generator.integers(1, max_length + 1))
        path = sample_random_path(topology, length, rng=generator)
        check_ohms_law(trace, path, topology=topology, raise_on_violation=True)
        checked += 1
    return checked


def check_distance_bound(
    trace: ExecutionTrace,
    topology: Topology,
    round_index: Optional[int] = None,
    node_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> None:
    """Verify Lemma 11: ``|N^beep_t(u) − N^beep_t(v)| ≤ dis(u, v)``.

    Parameters
    ----------
    node_pairs:
        Pairs to check; defaults to all pairs (quadratic — fine for the graph
        sizes used in tests).

    Raises
    ------
    InvariantViolation
        If the bound fails for any checked pair.
    """
    counts = trace.beep_counts(round_index)
    if node_pairs is None:
        node_pairs = [
            (u, v) for u in topology.nodes() for v in topology.nodes() if u < v
        ]
    for u, v in node_pairs:
        distance = topology.distance(u, v)
        difference = int(abs(counts[u] - counts[v]))
        if difference > distance:
            raise InvariantViolation(
                f"Lemma 11 violated for nodes ({u}, {v}) at round "
                f"{round_index if round_index is not None else trace.num_rounds}: "
                f"|N^beep difference| = {difference} > dis = {distance}"
            )
