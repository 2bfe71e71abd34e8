"""The shared RNG helpers: one normalisation and one seed-provenance rule."""

import numpy as np
import pytest

from repro.batch import BatchedEngine, BatchedMemoryEngine
from repro.beeping.engine import VectorizedEngine
from repro.beeping.simulator import MemorySimulator, Simulator
from repro.core.bfw import BFWProtocol
from repro.core.rng import as_rng, seed_provenance
from repro.baselines import GilbertNewportKnockout
from repro.graphs.generators import clique_graph


@pytest.mark.parametrize(
    "rng,expected",
    [
        (5, 5),
        (np.int64(5), 5),
        (np.uint32(7), 7),
        (None, None),
        (np.random.default_rng(5), None),
    ],
)
def test_seed_provenance(rng, expected):
    recorded = seed_provenance(rng)
    assert recorded == expected
    assert recorded is None or type(recorded) is int


def test_as_rng_keeps_a_generator_and_seeds_the_rest():
    generator = np.random.default_rng(1)
    assert as_rng(generator) is generator
    assert as_rng(np.int64(3)).random() == np.random.default_rng(3).random()


def _single_seed_runs(topology, rng):
    return {
        "vectorized": VectorizedEngine(topology, BFWProtocol()).run(rng=rng),
        "simulator": Simulator(topology, BFWProtocol()).run(rng=rng),
        "memory": MemorySimulator(topology, GilbertNewportKnockout()).run(rng=rng),
        "batched": BatchedEngine(topology, BFWProtocol()).run([rng]).replica(0),
        "batched-memory": BatchedMemoryEngine(topology, GilbertNewportKnockout())
        .run([rng])
        .replica(0),
    }


@pytest.mark.parametrize("seed", [5, np.int64(5), np.int32(5)])
def test_every_engine_records_an_integer_seed(seed):
    for engine, result in _single_seed_runs(clique_graph(8), seed).items():
        assert result.seed == 5, engine
        assert type(result.seed) is int, engine


def test_every_engine_records_no_seed_for_a_generator():
    topology = clique_graph(8)
    for engine, result in _single_seed_runs(topology, None).items():
        assert result.seed is None, engine
    runs = _single_seed_runs(topology, np.random.default_rng(5))
    for engine, result in runs.items():
        assert result.seed is None, engine
