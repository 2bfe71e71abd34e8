"""Tests for per-replica random streams."""

from unittest import mock

import numpy as np
import pytest

from repro.batch import engine as batch_engine
from repro.batch.engine import BatchedEngine
from repro.batch.observers import BatchObserver
from repro.batch.streams import ReplicaStreams, independent_streams
from repro.core.bfw import BFWProtocol
from repro.errors import ConfigurationError
from repro.graphs.generators import torus_graph


def test_seed_values_record_ints_and_mask_generators():
    streams = ReplicaStreams([7, np.random.default_rng(1), None, 12])
    assert len(streams) == 4
    assert streams.seed_values == (7, None, None, 12)


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigurationError):
        ReplicaStreams([])


def test_generator_seeds_used_verbatim():
    generator = np.random.default_rng(5)
    expected = np.random.default_rng(5).random(3)
    streams = ReplicaStreams([generator])
    np.testing.assert_array_equal(streams.generator(0).random(3), expected)


def test_fill_blocks_matches_successive_round_draws():
    streams = ReplicaStreams([9, 10])
    out = np.empty((4, 2, 5))
    streams.fill_blocks(np.array([0, 1]), out)
    for replica, seed in enumerate((9, 10)):
        reference = np.random.default_rng(seed)
        for round_index in range(4):
            np.testing.assert_array_equal(
                out[round_index, replica], reference.random(5)
            )


def test_fill_blocks_skips_inactive_replicas():
    streams = ReplicaStreams([3, 4, 5])
    out = np.zeros((2, 3, 6))
    streams.fill_blocks(np.array([0, 2]), out)
    # replica 1 was inactive: its rows are untouched and its stream must
    # not have advanced
    np.testing.assert_array_equal(out[:, 1, :], np.zeros((2, 6)))
    np.testing.assert_array_equal(
        streams.generator(1).random(6), np.random.default_rng(4).random(6)
    )


def test_independent_streams_are_distinct_and_reproducible():
    first = independent_streams(123, 3)
    second = independent_streams(123, 3)
    draws_first = [first.generator(i).random(4) for i in range(3)]
    draws_second = [second.generator(i).random(4) for i in range(3)]
    for a, b in zip(draws_first, draws_second):
        np.testing.assert_array_equal(a, b)
    assert not np.allclose(draws_first[0], draws_first[1])
    with pytest.raises(ConfigurationError):
        independent_streams(1, 0)


# --------------------------------------------------------------------------- #
# Random access (StreamReader)
# --------------------------------------------------------------------------- #


def _bit_states(streams):
    return [
        streams.generator(replica).bit_generator.state
        for replica in range(len(streams))
    ]


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
)
def test_reader_refuses_other_bit_generators(bit_generator):
    streams = ReplicaStreams([3, np.random.Generator(bit_generator(4))])
    assert streams.reader(np.array([0, 1]), 8, 2) is None
    # ... unless that replica has retired.
    assert streams.reader(np.array([0]), 8, 2) is not None


def test_reader_refuses_shared_and_half_drawn_generators():
    shared = np.random.default_rng(1)
    assert ReplicaStreams([shared, shared]).reader(np.arange(2), 8, 2) is None
    half_drawn = np.random.default_rng(2)
    half_drawn.integers(0, 2**32, dtype=np.uint32)
    assert half_drawn.bit_generator.state["has_uint32"] == 1
    assert ReplicaStreams([5, half_drawn]).reader(np.arange(2), 8, 2) is None


def test_reader_reads_fills_and_settles_like_eager_blocks():
    seeds = [11, 12, 13]
    n, depth = 5000, 3  # above the jump tables' node chunk
    streams = ReplicaStreams(seeds)
    eager = ReplicaStreams(seeds)
    buffer = np.zeros((depth, 3, n))
    expected = np.zeros((depth, 3, n))
    active = np.arange(3)
    reader = streams.reader(active, n, depth)
    reader.begin_block(active)
    eager.fill_blocks(active, expected)
    nodes, columns = np.array([0, 4999, 4095, 4096]), np.array([0, 2, 2, 1])
    reader.read(1, active, nodes, columns, buffer)
    np.testing.assert_array_equal(
        buffer[1, columns, nodes], expected[1, columns, nodes]
    )
    assert streams.uniforms_read == 4
    reader.fill_rows(2, active, buffer)
    np.testing.assert_array_equal(buffer[2], expected[2])
    assert streams.rows_materialised == 3
    # Replica 1 retires; replicas 0 and 2 run one more block, then the run
    # ends without reading it.
    active = np.array([0, 2])
    reader.begin_block(active)
    eager.fill_blocks(active, expected)
    reader.close()
    assert _bit_states(streams) == _bit_states(eager)
    assert streams.eager_blocks == 0 and eager.eager_blocks == 2


def test_reader_draws_the_rest_of_a_block_once_reads_cost_more():
    streams = ReplicaStreams([21])
    eager = np.random.default_rng(21).random((2, 64))
    buffer = np.zeros((2, 1, 64))
    active = np.arange(1)
    reader = streams.reader(active, 64, 2)
    reader.begin_block(active)
    # One read costs more than drawing the block's 128 uniforms.
    reader.read(0, active, np.array([3]), np.array([0]), buffer)
    assert (streams.uniforms_read, streams.rows_materialised) == (0, 2)
    np.testing.assert_array_equal(buffer[:, 0], eager)


class _RaiseAt(BatchObserver):
    def __init__(self, stop):
        self.stop = stop

    def on_round(self, round_index, states, beeping, leaders, active_mask):
        if round_index == self.stop:
            raise RuntimeError("observer failed")


def _engine_run(crossover, seeds, **run):
    engine = BatchedEngine(torus_graph(8, 8), BFWProtocol(), kernel="numpy")
    streams = ReplicaStreams(seeds)
    with mock.patch.object(batch_engine, "RANDOM_ACCESS_ELEMENTS", crossover):
        try:
            result = engine.run(streams, **run)
        except RuntimeError:
            result = None
    return result, streams


def test_a_raising_observer_leaves_generators_in_the_eager_state():
    seeds = list(range(80))
    _, read = _engine_run(0, seeds, observers=[_RaiseAt(5)])
    _, eager = _engine_run(10**9, seeds, observers=[_RaiseAt(5)])
    assert read.rows_materialised and not read.eager_blocks
    assert _bit_states(read) == _bit_states(eager)


def test_a_block_falling_below_the_crossover_finishes_eagerly():
    seeds = list(range(80))
    # The first block (80 x 64 elements) reads by random access; once 20
    # replicas have retired, the rest of the run draws eagerly.
    result, read = _engine_run(60 * 64 + 1, seeds)
    reference, eager = _engine_run(10**9, seeds)
    assert read.rows_materialised and read.eager_blocks
    assert read.eager_blocks < eager.eager_blocks
    np.testing.assert_array_equal(result.final_states, reference.final_states)
    np.testing.assert_array_equal(result.rounds_executed, reference.rounds_executed)
    assert _bit_states(read) == _bit_states(eager)


def test_a_half_drawn_generator_keeps_its_buffered_half_through_a_run():
    generators = [np.random.default_rng(seed) for seed in range(80)]
    generators[7].integers(0, 2**32, dtype=np.uint32)
    engine = BatchedEngine(torus_graph(8, 8), BFWProtocol(), kernel="numpy")
    streams = ReplicaStreams(generators)
    with mock.patch.object(batch_engine, "RANDOM_ACCESS_ELEMENTS", 0):
        engine.run(streams, max_rounds=30)
    assert streams.eager_blocks and not streams.uniforms_read
    assert generators[7].bit_generator.state["has_uint32"] == 1
