"""Random access into PCG64 streams equals drawing them.

:class:`~repro.batch.streams.StreamReader` computes a replica's uniform at
any ``(round, node)`` position of a block from the block-start state of
its PCG64 stream, and advances every generator afterwards to where an
eager block fill leaves it.  Two properties pin that down:

* the reader itself, over generated seeds, node counts (below and above
  the jump tables' node chunk), block depths, shrinking active sets and
  read positions: every value it computes equals ``Generator.random`` at
  that position, and every generator ends in the eager state dict;
* the interpreted loop that uses it: ``BatchedEngine(kernel="numpy")``
  with the random-access crossover forced down, against the uncompiled
  fused kernel (``kernel="python"``, always eager), over generated
  protocols, graphs and replica counts — replicas retiring mid-block, the
  budget ending mid-block, a block falling below the crossover mid-block,
  a reused :class:`~repro.batch.streams.ReplicaStreams` and generators with
  a buffered 32-bit half all included.  Records and every
  ``bit_generator.state`` must be identical.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import engine as batch_engine
from repro.batch.engine import BatchedEngine
from repro.batch.streams import ReplicaStreams
from repro.core.bfw import BFWProtocol

from tests.batch.parity_harness import assert_same_batch
from tests.property.test_property_encoded_loop import graphs, protocols

SETTINGS = settings(max_examples=40, deadline=None)


def _buffer_uint32(generator):
    """Leave a buffered 32-bit half in ``generator``'s bit generator."""
    generator.integers(0, 2**32, dtype=np.uint32)
    assert generator.bit_generator.state["has_uint32"] == 1
    return generator


def _states(streams):
    return [
        streams.generator(replica).bit_generator.state
        for replica in range(len(streams))
    ]


@st.composite
def reads(draw):
    """Seeds, block geometry, and per block its active set and positions."""
    replicas = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.sampled_from([1, 2, 7, 64, 4095, 4096, 9000]))
    depth = draw(st.integers(min_value=1, max_value=4))
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**63),
            min_size=replicas,
            max_size=replicas,
        )
    )
    blocks = []
    active = list(range(replicas))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        # Replicas only ever leave a run, as they retire.
        active = sorted(draw(st.sets(st.sampled_from(active), max_size=len(active))))
        if not active:
            break
        rounds = []
        for _ in range(depth):
            count = draw(st.integers(min_value=0, max_value=12))
            rounds.append(
                (
                    draw(
                        st.lists(
                            st.integers(0, n - 1), min_size=count, max_size=count
                        )
                    ),
                    draw(
                        st.lists(
                            st.integers(0, len(active) - 1),
                            min_size=count,
                            max_size=count,
                        )
                    ),
                )
            )
        blocks.append((active, rounds))
    return seeds, n, depth, blocks


@settings(max_examples=100, deadline=None)
@given(case=reads())
def test_reader_equals_eager_draws_and_leaves_the_eager_state(case):
    seeds, n, depth, blocks = case
    streams = ReplicaStreams(seeds)
    eager = [np.random.default_rng(seed) for seed in seeds]
    buffer = np.full((depth, len(seeds), n), np.nan)
    reader = streams.reader(np.arange(len(seeds)), n, depth)
    assert reader is not None
    for active, rounds in blocks:
        active = np.array(active)
        reader.begin_block(active)
        expected = {replica: eager[replica].random((depth, n)) for replica in active}
        for k, (nodes, columns) in enumerate(rounds):
            nodes, columns = np.array(nodes, dtype=np.intp), np.array(
                columns, dtype=np.intp
            )
            reader.read(k, active, nodes, columns, buffer)
            for node, column in zip(nodes, columns):
                replica = active[column]
                assert buffer[k, replica, node] == expected[replica][k, node]
    reader.close()
    assert _states(streams) == [generator.bit_generator.state for generator in eager]


def _pair(seeds, buffered):
    """Two equal :class:`ReplicaStreams`, some generators with a buffered
    32-bit half."""

    def build():
        generators = [np.random.default_rng(seed) for seed in seeds]
        for replica in buffered:
            _buffer_uint32(generators[replica])
        return ReplicaStreams(generators)

    return build(), build()


@SETTINGS
@given(
    protocol=st.one_of(st.just(BFWProtocol()), protocols()),
    topology=graphs(),
    replicas=st.sampled_from([1, 2, 5, 16]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_rounds=st.integers(min_value=1, max_value=60),
    stop=st.booleans(),
    crossover_share=st.sampled_from([0.0, 0.5, 1.0]),
    buffered=st.sets(st.integers(min_value=0, max_value=15), max_size=2),
    reruns=st.integers(min_value=1, max_value=2),
    small_block=st.sampled_from([0, 10**9]),
)
def test_random_access_loop_matches_the_uncompiled_kernel(
    protocol,
    topology,
    replicas,
    seed,
    max_rounds,
    stop,
    crossover_share,
    buffered,
    reruns,
    small_block,
):
    seeds = [seed + r for r in range(replicas)]
    # A crossover of 0 keeps every block on random access; one of a share
    # of the first block drops to eager once enough replicas retire.  A
    # small-block bound of 0 sends every block through the sparse coin
    # step (values read one by one), a huge one through the dense step
    # (whole rows drawn).
    crossover = int(crossover_share * replicas * topology.n)
    streams, reference_streams = _pair(seeds, {r for r in buffered if r < replicas})
    run = dict(max_rounds=max_rounds, stop_at_single_leader=stop)
    reference_engine = BatchedEngine(topology, protocol, kernel="python")
    engine = BatchedEngine(topology, protocol, kernel="numpy")
    # Rerunning on the same streams continues them from the eager state.
    for _ in range(reruns):
        reference = reference_engine.run(reference_streams, **run)
        with mock.patch.multiple(
            batch_engine,
            RANDOM_ACCESS_ELEMENTS=crossover,
            SMALL_BLOCK_ELEMENTS=small_block,
        ):
            batch = engine.run(streams, **run)
        assert engine.last_kernel["active"] == "numpy"
        assert_same_batch(reference, batch)
        assert _states(streams) == _states(reference_streams)
