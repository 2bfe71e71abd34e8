"""Machine-checkable versions of the paper's deterministic properties.

Section 3 of the paper establishes a collection of deterministic facts about
every execution of BFW started from a configuration satisfying Eq. (2):

* **Claim 6** — eleven local implications relating the states of a node (and
  a neighbour) across consecutive rounds, e.g. "a beeping node is frozen in
  the next round" and "a frozen node beeped in the previous round".
* **Lemma 9** — there is always at least one leader, and (from its proof)
  some node with a maximal beep count is always a leader.
* **Lemma 11** — beep counts of two nodes differ by at most their distance.
* **Lemma 12** — if ``N^beep_t(u) > N^beep_t(v)`` then ``v`` beeps at some
  round ``s ≤ t + dis(u, v)``.

These functions raise :class:`~repro.errors.InvariantViolation` when a
property fails, making them usable both as test assertions and as on-line
checks attached to a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.beep_counts import beep_count_matrix
from repro.batch.observers import (  # noqa: F401  (re-exported: the batch-
    LeaderExtinctionObserver,  # shaped invariant-violation observer lives
    LeaderExtinctionReport,  # with the engines' observer layer)
)
from repro.beeping.observers import Observer, RoundSnapshot
from repro.beeping.trace import ExecutionTrace
from repro.core.states import State
from repro.errors import InvariantViolation
from repro.graphs.topology import Topology


# --------------------------------------------------------------------------- #
# Claim 6
# --------------------------------------------------------------------------- #


def check_claim6(trace: ExecutionTrace, topology: Topology) -> None:
    """Verify all eleven implications of Claim 6 over the whole trace.

    Raises
    ------
    InvariantViolation
        With a message identifying the equation, round and node(s) involved.
    """
    def states_at(round_index: int) -> List[State]:
        return [State(v) for v in trace.states[round_index]]

    previous = states_at(0)
    for t in range(1, trace.num_rounds + 1):
        current = states_at(t)
        _check_claim6_forward(previous, current, topology, t - 1)
        _check_claim6_backward(previous, current, topology, t)
        previous = current


def _check_claim6_forward(
    states_t: Sequence[State],
    states_next: Sequence[State],
    topology: Topology,
    round_index: int,
) -> None:
    """Eqs. (3)-(6): implications from round ``t`` to round ``t + 1``."""
    for u in topology.nodes():
        if states_t[u].is_waiting and states_next[u].is_frozen:
            raise InvariantViolation(
                f"Eq. (3) violated at round {round_index}: node {u} went from "
                "Waiting to Frozen"
            )
        if states_t[u].is_beeping and not states_next[u].is_frozen:
            raise InvariantViolation(
                f"Eq. (4) violated at round {round_index}: node {u} beeped but "
                f"is {states_next[u].short_name} next round"
            )
        if states_t[u].is_frozen and not states_next[u].is_waiting:
            raise InvariantViolation(
                f"Eq. (5) violated at round {round_index}: node {u} was Frozen "
                f"but is {states_next[u].short_name} next round"
            )
    for u, v in topology.edges:
        for a, b in ((u, v), (v, u)):
            if states_t[a].is_beeping and states_t[b].is_waiting:
                if states_next[b] is not State.B_FOLLOWER:
                    raise InvariantViolation(
                        f"Eq. (6) violated at round {round_index}: node {b} heard "
                        f"a beep from {a} while Waiting but moved to "
                        f"{states_next[b].short_name} instead of B-follower"
                    )


def _check_claim6_backward(
    states_prev: Sequence[State],
    states_t: Sequence[State],
    topology: Topology,
    round_index: int,
) -> None:
    """Eqs. (7)-(11): implications from round ``t`` back to round ``t − 1``."""
    for u in topology.nodes():
        if states_t[u].is_waiting and states_prev[u].is_beeping:
            raise InvariantViolation(
                f"Eq. (7) violated at round {round_index}: node {u} is Waiting "
                "but beeped in the previous round"
            )
        if states_t[u].is_beeping and not states_prev[u].is_waiting:
            raise InvariantViolation(
                f"Eq. (8) violated at round {round_index}: node {u} beeps but was "
                f"{states_prev[u].short_name} in the previous round"
            )
        if states_t[u].is_frozen and not states_prev[u].is_beeping:
            raise InvariantViolation(
                f"Eq. (9) violated at round {round_index}: node {u} is Frozen but "
                f"was {states_prev[u].short_name} in the previous round"
            )
        if states_t[u] is State.B_FOLLOWER:
            heard_from = [
                w
                for w in topology.neighbors(u)
                if states_prev[w].is_beeping
            ]
            if not heard_from:
                raise InvariantViolation(
                    f"Eq. (11) violated at round {round_index}: node {u} is in "
                    "B-follower but no neighbour beeped in the previous round"
                )
    for u, v in topology.edges:
        for a, b in ((u, v), (v, u)):
            if states_t[a].is_frozen and states_t[b].is_waiting:
                if not states_prev[b].is_frozen:
                    raise InvariantViolation(
                        f"Eq. (10) violated at round {round_index}: node {a} is "
                        f"Frozen and neighbour {b} is Waiting, but {b} was "
                        f"{states_prev[b].short_name} in the previous round"
                    )


# --------------------------------------------------------------------------- #
# Lemma 9 and friends
# --------------------------------------------------------------------------- #


def check_leader_always_exists(trace: ExecutionTrace) -> None:
    """Verify Lemma 9: every recorded round contains at least one leader."""
    counts = trace.leader_counts()
    zero_rounds = np.flatnonzero(counts == 0)
    if len(zero_rounds) > 0:
        raise InvariantViolation(
            f"Lemma 9 violated: no leader in round {int(zero_rounds[0])}"
        )


def check_leader_count_nonincreasing(trace: ExecutionTrace) -> None:
    """Verify that the number of leaders never increases under BFW.

    Not stated as a numbered lemma, but immediate from the transition rules
    (no transition enters a leader state from a non-leader state); it is what
    makes "stop at the first single-leader round" a sound convergence
    criterion.
    """
    counts = trace.leader_counts()
    increases = np.flatnonzero(np.diff(counts) > 0)
    if len(increases) > 0:
        t = int(increases[0])
        raise InvariantViolation(
            f"leader count increased from {int(counts[t])} to {int(counts[t + 1])} "
            f"between rounds {t} and {t + 1}"
        )


def check_max_beep_count_is_leader(trace: ExecutionTrace) -> None:
    """Verify the inductive invariant of Lemma 9's proof.

    In every round, the set ``M*_t`` — nodes that maximise ``N^beep_t`` *and*
    are leaders — is non-empty.
    """
    counts = np.zeros(trace.n, dtype=np.int64)
    for round_index in trace.rounds():
        counts = counts + trace.beeping_mask(round_index)
        leaders = trace.leader_mask(round_index)
        maximum = counts.max()
        maximal = counts == maximum
        if not bool((maximal & leaders).any()):
            raise InvariantViolation(
                f"proof invariant of Lemma 9 violated at round {round_index}: "
                "no leader has the maximal beep count"
            )


def check_distance_bound_all_rounds(
    trace: ExecutionTrace,
    topology: Topology,
    node_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> None:
    """Verify Lemma 11 for every recorded round (all pairs by default)."""
    counts = beep_count_matrix(trace)
    if node_pairs is None:
        node_pairs = [
            (u, v) for u in topology.nodes() for v in topology.nodes() if u < v
        ]
    distances = {
        pair: topology.distance(pair[0], pair[1]) for pair in node_pairs
    }
    for round_index in trace.rounds():
        row = counts[round_index]
        for (u, v), distance in distances.items():
            difference = int(abs(row[u] - row[v]))
            if difference > distance:
                raise InvariantViolation(
                    f"Lemma 11 violated at round {round_index} for ({u}, {v}): "
                    f"difference {difference} > distance {distance}"
                )


def check_wave_propagation(
    trace: ExecutionTrace,
    topology: Topology,
    node_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> None:
    """Verify Lemma 12 on a trace.

    For every checked pair ``(u, v)`` and round ``t`` with
    ``N^beep_t(u) > N^beep_t(v)``, node ``v`` must beep in some round
    ``s ≤ t + dis(u, v)``.  Rounds too close to the end of the trace (where
    the deadline ``t + dis(u, v)`` is not recorded) are skipped.
    """
    counts = beep_count_matrix(trace)
    if node_pairs is None:
        node_pairs = [
            (u, v) for u in topology.nodes() for v in topology.nodes() if u != v
        ]
    beeping = np.vstack(
        [trace.beeping_mask(round_index) for round_index in trace.rounds()]
    )
    last_round = trace.num_rounds
    for u, v in node_pairs:
        distance = topology.distance(u, v)
        for t in trace.rounds():
            deadline = t + distance
            if deadline > last_round:
                break
            if counts[t, u] > counts[t, v]:
                if not bool(beeping[t : deadline + 1, v].any()):
                    raise InvariantViolation(
                        f"Lemma 12 violated for pair ({u}, {v}) at round {t}: "
                        f"N^beep(u) = {int(counts[t, u])} > "
                        f"N^beep(v) = {int(counts[t, v])} but v never beeps by "
                        f"round {deadline}"
                    )


def check_all_invariants(trace: ExecutionTrace, topology: Topology) -> None:
    """Run every deterministic check of this module on a trace.

    Intended for tests and the invariants benchmark; quadratic in ``n`` for
    the pairwise lemmas, so keep the graphs modest.
    """
    check_claim6(trace, topology)
    check_leader_always_exists(trace)
    check_leader_count_nonincreasing(trace)
    check_max_beep_count_is_leader(trace)
    check_distance_bound_all_rounds(trace, topology)


# --------------------------------------------------------------------------- #
# On-line observer
# --------------------------------------------------------------------------- #


@dataclass
class InvariantReport:
    """Summary produced by :class:`OnlineInvariantChecker` at the end of a run."""

    rounds_checked: int = 0
    leaderless_rounds: List[int] = field(default_factory=list)
    leader_count_increases: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no violation was observed."""
        return not self.leaderless_rounds and not self.leader_count_increases


class OnlineInvariantChecker(Observer):
    """Observer that checks the cheap invariants while a simulation runs.

    Checks Lemma 9 (at least one leader) and the non-increasing leader count
    every round, without storing the trace.  Attach it to a
    :class:`~repro.beeping.simulator.Simulator` run to get continuous
    verification at negligible cost.
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self._raise = raise_on_violation
        self._previous_count: Optional[int] = None
        self.report = InvariantReport()

    def on_round(self, snapshot: RoundSnapshot) -> None:
        count = snapshot.leader_count
        self.report.rounds_checked += 1
        if count == 0:
            self.report.leaderless_rounds.append(snapshot.round_index)
            if self._raise:
                raise InvariantViolation(
                    f"Lemma 9 violated: no leader in round {snapshot.round_index}"
                )
        if self._previous_count is not None and count > self._previous_count:
            self.report.leader_count_increases.append(snapshot.round_index)
            if self._raise:
                raise InvariantViolation(
                    f"leader count increased to {count} in round "
                    f"{snapshot.round_index}"
                )
        self._previous_count = count
