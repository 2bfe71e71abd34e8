"""Convergence detection and summary statistics for leader-election runs.

Definition 1 (eventual leader election) asks for a round ``T`` from which a
single, fixed node is the only one in a leader state.  Nodes cannot detect
this themselves (the paper's protocols have no termination detection); the
*harness* detects it retrospectively from traces or leader-count histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.beeping.simulator import SimulationResult
from repro.beeping.trace import ExecutionTrace
from repro.errors import ConvergenceError


@dataclass(frozen=True)
class ConvergenceSummary:
    """Summary of one execution's convergence behaviour.

    Attributes
    ----------
    converged:
        Whether a stable single-leader configuration was reached.
    convergence_round:
        First round from which exactly one leader remains (``None`` if the
        execution did not converge within its budget).
    winner:
        The surviving leader, when known from a trace.
    rounds_executed:
        Total number of simulated rounds.
    initial_leader_count, final_leader_count:
        Leader counts at the start and end of the execution.
    """

    converged: bool
    convergence_round: Optional[int]
    winner: Optional[int]
    rounds_executed: int
    initial_leader_count: int
    final_leader_count: int


def summarize_trace(trace: ExecutionTrace) -> ConvergenceSummary:
    """Build a :class:`ConvergenceSummary` from a full execution trace."""
    convergence_round = trace.convergence_round()
    winner: Optional[int] = None
    if convergence_round is not None:
        leaders = trace.leaders(trace.num_rounds)
        winner = leaders[0] if len(leaders) == 1 else None
    return ConvergenceSummary(
        converged=convergence_round is not None,
        convergence_round=convergence_round,
        winner=winner,
        rounds_executed=trace.num_rounds,
        initial_leader_count=trace.leader_count(0),
        final_leader_count=trace.leader_count(trace.num_rounds),
    )


def summarize_result(result: SimulationResult) -> ConvergenceSummary:
    """Build a :class:`ConvergenceSummary` from a :class:`SimulationResult`."""
    if result.trace is not None:
        return summarize_trace(result.trace)
    counts = result.leader_counts
    return ConvergenceSummary(
        converged=result.converged,
        convergence_round=result.convergence_round,
        winner=None,
        rounds_executed=result.rounds_executed,
        initial_leader_count=counts[0] if counts else -1,
        final_leader_count=result.final_leader_count,
    )


def convergence_round_from_counts(leader_counts: Sequence[int]) -> Optional[int]:
    """First index from which the count is 1 and stays 1 until the end."""
    if not leader_counts or leader_counts[-1] != 1:
        return None
    counts = np.asarray(leader_counts)
    not_single = np.flatnonzero(counts != 1)
    if len(not_single) == 0:
        return 0
    return int(not_single[-1]) + 1


def require_convergence(result: SimulationResult) -> int:
    """Return the convergence round, raising if the run did not converge.

    Raises
    ------
    ConvergenceError
        If the execution ended with more than one leader, with a message that
        includes the budget that was exhausted — typically a signal that the
        experiment's ``max_rounds`` needs to be raised.
    """
    if not result.converged or result.convergence_round is None:
        raise ConvergenceError(
            f"execution of {result.protocol_name!r} on {result.topology_name!r} did "
            f"not converge within {result.rounds_executed} rounds "
            f"({result.final_leader_count} leaders remain)"
        )
    return result.convergence_round


def elimination_times(trace: ExecutionTrace) -> Tuple[Tuple[int, int], ...]:
    """For each node that was ever eliminated: ``(node, round of elimination)``.

    The elimination round of a node is the first round in which it is no
    longer in a leader state, having been in one in the previous round.
    Nodes that start as non-leaders or survive as the final leader are not
    listed.
    """
    events = []
    previous = trace.leader_mask(0)
    for round_index in range(1, trace.num_rounds + 1):
        current = trace.leader_mask(round_index)
        eliminated = previous & ~current
        for node in np.flatnonzero(eliminated):
            events.append((int(node), round_index))
        previous = current
    return tuple(events)


def half_life_round(trace: ExecutionTrace) -> Optional[int]:
    """First round in which at most half of the initial leaders remain.

    A useful summary of the elimination dynamics that is less noisy than the
    full convergence time on graphs with many initial leaders.
    """
    initial = trace.leader_count(0)
    if initial == 0:
        return None
    target = initial / 2.0
    for round_index in trace.rounds():
        if trace.leader_count(round_index) <= target:
            return round_index
    return None
