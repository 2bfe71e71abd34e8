"""Property-based tests: replaying a batch trace equals the per-replica references.

:meth:`BatchTrace.replay` is how a recorded batch is analysed: it drives a
streaming reducer over the ``(T + 1, R, n)`` history in the engines' hook
order.  For arbitrary traces — random states, ragged ``rounds_executed``,
random beeping/leader value classes (overlapping or empty) — every
reducer's replayed result must equal the single-trace reference function
on each ``trace.replica(r)``, and must not depend on the frozen rows past a
replica's retirement: the re-padded ``from_traces(to_traces())`` round trip
replays to the same results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.batch import BatchBeepCountTracker, BatchTrace
from repro.telemetry import (
    StreamingConvergence,
    StreamingFirstBeep,
    StreamingInvariantChecker,
    StreamingWaveFronts,
)

from tests.telemetry.test_reducer_parity import (
    assert_stream_results_match_post_hoc,
)

SETTINGS = settings(max_examples=60, deadline=None)

#: Reducer factories, keyed like the parity suite's result dicts.
REDUCERS = {
    "first-beep": StreamingFirstBeep,
    "wave-fronts": StreamingWaveFronts,
    "invariants": StreamingInvariantChecker,
    "beep-totals": BatchBeepCountTracker,
    "convergence": StreamingConvergence,
}


@st.composite
def batch_traces(draw):
    rows = draw(st.integers(1, 10))
    replicas = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    values = draw(st.integers(1, 5))
    states = draw(
        arrays(np.int8, (rows, replicas, n), elements=st.integers(0, values - 1))
    )
    rounds = draw(
        st.lists(st.integers(0, rows - 1), min_size=replicas, max_size=replicas)
    )
    value_classes = st.sets(st.integers(0, values - 1)).map(
        lambda chosen: tuple(sorted(chosen))
    )
    return BatchTrace(
        states=states,
        rounds_executed=np.array(rounds, dtype=np.int64),
        beeping_values=draw(value_classes),
        leader_values=draw(value_classes),
    )


def _replay_all(trace):
    return {key: trace.replay(factory()) for key, factory in REDUCERS.items()}


def _assert_same_results(mine, theirs):
    for key in REDUCERS:
        if isinstance(mine[key], np.ndarray):
            assert mine[key].dtype == theirs[key].dtype
            np.testing.assert_array_equal(mine[key], theirs[key])
        else:
            assert mine[key] == theirs[key], key


@SETTINGS
@given(trace=batch_traces())
def test_replay_equals_per_replica_references(trace):
    assert_stream_results_match_post_hoc(trace, _replay_all(trace))


@SETTINGS
@given(trace=batch_traces())
def test_replay_ignores_frozen_rows(trace):
    repadded = BatchTrace.from_traces(trace.to_traces())
    _assert_same_results(_replay_all(repadded), _replay_all(trace))
