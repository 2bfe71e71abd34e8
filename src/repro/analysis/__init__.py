"""Analysis of executions: flow, Ohm's law, invariants, convergence, waves.

The functions here take one :class:`~repro.beeping.trace.ExecutionTrace`
and are the readable reference for each reduction.  A recorded
:class:`~repro.batch.trace.BatchTrace` is analysed by replaying it through
the matching streaming reducer of :mod:`repro.telemetry.reducers` —
``trace.replay(StreamingFirstBeep())``, ``StreamingWaveFronts()``,
``StreamingConvergence()``, or
``trace.replay(StreamingInvariantChecker()).raise_if_violated()`` — which
computes all ``R`` replicas in one pass and equals the per-replica
references exactly.  Flow and Ohm's law, which have no streaming form, keep
their ``*_batch`` entry points over the shared ``(T + 1, R, n)`` arrays.

The streaming reducers are re-exported here lazily (PEP 562), so
``from repro.analysis import StreamingConvergence`` works without this
package importing the telemetry stack eagerly (telemetry's reducers import
this package).
"""

from repro.analysis.beep_counts import (
    beep_count_matrix,
    beep_count_spread,
    beep_counts_at,
    leader_beep_counts,
    max_beep_count_nodes,
    pairwise_beep_difference_bounds,
)
from repro.analysis.convergence import (
    ConvergenceSummary,
    convergence_round_from_counts,
    elimination_times,
    half_life_round,
    require_convergence,
    summarize_result,
    summarize_trace,
)
from repro.analysis.flow import (
    ConservationViolation,
    check_flow_conservation,
    check_flow_conservation_batch,
    edge_flow,
    flow_history,
    flow_history_batch,
    max_flow_bound_holds,
    max_flow_bound_holds_batch,
    path_flow,
    path_flow_batch,
    validate_path,
)
from repro.analysis.invariants import (
    InvariantReport,
    LeaderExtinctionObserver,
    LeaderExtinctionReport,
    OnlineInvariantChecker,
    check_all_invariants,
    check_claim6,
    check_distance_bound_all_rounds,
    check_leader_always_exists,
    check_leader_count_nonincreasing,
    check_max_beep_count_is_leader,
    check_wave_propagation,
)
from repro.analysis.ohm import (
    OhmViolation,
    check_distance_bound,
    check_ohms_law,
    check_ohms_law_batch,
    check_ohms_law_on_random_paths,
    sample_random_path,
)
from repro.analysis.waves import (
    WaveFront,
    boundary_positions,
    count_waves_on_path,
    first_beep_round,
    path_meeting_points,
    wave_arrival_times,
    wave_fronts,
)

__all__ = [
    "ConservationViolation",
    "ConvergenceSummary",
    "InvariantReport",
    "LeaderExtinctionObserver",
    "LeaderExtinctionReport",
    "OhmViolation",
    "OnlineInvariantChecker",
    "WaveFront",
    "beep_count_matrix",
    "beep_count_spread",
    "beep_counts_at",
    "boundary_positions",
    "check_all_invariants",
    "check_claim6",
    "check_distance_bound",
    "check_distance_bound_all_rounds",
    "check_flow_conservation",
    "check_flow_conservation_batch",
    "check_leader_always_exists",
    "check_leader_count_nonincreasing",
    "check_max_beep_count_is_leader",
    "check_ohms_law",
    "check_ohms_law_batch",
    "check_ohms_law_on_random_paths",
    "check_wave_propagation",
    "convergence_round_from_counts",
    "count_waves_on_path",
    "edge_flow",
    "elimination_times",
    "first_beep_round",
    "flow_history",
    "flow_history_batch",
    "half_life_round",
    "leader_beep_counts",
    "max_beep_count_nodes",
    "max_flow_bound_holds",
    "max_flow_bound_holds_batch",
    "pairwise_beep_difference_bounds",
    "path_flow",
    "path_flow_batch",
    "path_meeting_points",
    "require_convergence",
    "sample_random_path",
    "summarize_result",
    "summarize_trace",
    "validate_path",
    "wave_arrival_times",
    "wave_fronts",
]

#: Streaming-reducer names resolved lazily from :mod:`repro.telemetry.reducers`.
_STREAMING_EXPORTS = (
    "StreamingConvergence",
    "StreamingFirstBeep",
    "StreamingInvariantChecker",
    "StreamingInvariantSummary",
    "StreamingWaveFronts",
)

__all__ += list(_STREAMING_EXPORTS)


def __getattr__(name: str):
    if name in _STREAMING_EXPORTS:
        import repro.telemetry.reducers as _reducers

        return getattr(_reducers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
