"""Tests for the ExecutionBackend API: cells, resolution, in-process backends."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BatchedBackend,
    CellCompleted,
    ExecutionBackend,
    ExecutionCell,
    ProcessBackend,
    SequentialBackend,
    execute_cell_batched,
    execute_cell_sequential,
    resolve_backend,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.runner import run_trial, sweep_cells
from repro.experiments.config import TrialConfig

from tests.batch.parity_harness import assert_backend_record_parity


def _cell(**overrides):
    defaults = dict(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=10),
        seeds=(1, 2, 3),
    )
    defaults.update(overrides)
    return ExecutionCell(**defaults)


# --------------------------------------------------------------------------- #
# ExecutionCell
# --------------------------------------------------------------------------- #


def test_cell_requires_at_least_one_seed():
    with pytest.raises(ConfigurationError):
        _cell(seeds=())


def test_cell_normalises_seed_and_leader_types():
    import numpy as np

    cell = _cell(seeds=np.array([4, 5]), planted_leaders=np.array([0, -1]))
    assert cell.seeds == (4, 5)
    assert cell.planted_leaders == (0, -1)
    assert all(isinstance(seed, int) for seed in cell.seeds)


def test_cell_label_and_build_topology():
    cell = _cell()
    assert cell.label == "bfw on cycle(10)"
    topology = cell.build_topology()
    assert topology.n == 10
    assert cell.num_replicas == 3


def test_cell_graph_rng_key_controls_randomised_families():
    base = _cell(graph=GraphSpec(family="erdos-renyi", n=12, seed=3))
    rekeyed = _cell(
        graph=GraphSpec(family="erdos-renyi", n=12, seed=3),
        graph_rng_key=(99, "montecarlo-graph", "erdos-renyi", 12),
    )
    # Different derivations build different random graphs.
    assert base.build_topology().edges != rekeyed.build_topology().edges


def test_cell_outcome_records_match_run_trial():
    cell = _cell()
    outcome = execute_cell_sequential(cell)
    records = outcome.to_records()
    expected = tuple(
        run_trial(
            TrialConfig(protocol=cell.protocol, graph=cell.graph, seed=seed)
        )
        for seed in cell.seeds
    )
    assert records == expected


def test_execute_cell_batched_matches_sequential():
    cell = _cell(seeds=tuple(range(5)))
    sequential = execute_cell_sequential(cell)
    batched = execute_cell_batched(cell)
    assert batched.batched is True
    assert batched.batch is not None
    assert sequential.batched is False
    assert sequential.batch is None
    assert sequential.to_records() == batched.to_records()


def test_cell_outcome_pickles_without_its_memoized_views():
    import pickle

    outcome = execute_cell_batched(_cell(seeds=tuple(range(8))))
    before = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    records = outcome.to_records()  # fills both memoized views
    assert "_records_cache" in outcome.__dict__
    after = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    assert after == before
    restored = pickle.loads(after)
    assert "_results_cache" not in restored.__dict__
    assert restored.to_records() == records
    assert restored.results == outcome.results
    assert pickle.dumps(restored, protocol=pickle.HIGHEST_PROTOCOL) == before


def test_planted_leaders_negative_index_wraps():
    cell = _cell(
        graph=GraphSpec(family="path", n=9),
        planted_leaders=(0, -1),
        max_rounds=4000,
    )
    sequential = execute_cell_sequential(cell)
    batched = execute_cell_batched(cell)
    assert sequential.to_records() == batched.to_records()


@pytest.mark.parametrize("planted", [(9,), (99,), (-10,), (0, 12)])
def test_planted_leaders_outside_the_node_range_are_refused(planted):
    # Indices must lie in [-n, n); they used to wrap silently (99 -> 0).
    cell = _cell(graph=GraphSpec(family="path", n=9), planted_leaders=planted)
    for execute in (execute_cell_sequential, execute_cell_batched):
        with pytest.raises(ConfigurationError, match="planted_leaders"):
            execute(cell)


def test_planted_leaders_reject_memory_protocols():
    cell = _cell(
        protocol=ProtocolSpecConfig(name="emek-keren"),
        graph=GraphSpec(family="path", n=7),
        planted_leaders=(0,),
    )
    with pytest.raises(ConfigurationError):
        execute_cell_sequential(cell)
    with pytest.raises(ConfigurationError):
        execute_cell_batched(cell)


# --------------------------------------------------------------------------- #
# resolve_backend
# --------------------------------------------------------------------------- #


def test_resolve_backend_specs():
    assert isinstance(resolve_backend("sequential"), SequentialBackend)
    assert isinstance(resolve_backend("batched"), BatchedBackend)
    process = resolve_backend("process:3")
    assert isinstance(process, ProcessBackend)
    assert process.workers == 3
    assert process.name == "process:3"
    assert isinstance(resolve_backend("process"), ProcessBackend)


def test_resolve_backend_defaults_and_instances():
    assert isinstance(resolve_backend(None), SequentialBackend)
    assert isinstance(resolve_backend(None, default="batched"), BatchedBackend)
    backend = BatchedBackend()
    assert resolve_backend(backend) is backend


def test_resolve_backend_service_spec():
    from repro.service.client import ServiceBackend

    backend = resolve_backend("service:http://127.0.0.1:8123")
    assert isinstance(backend, ServiceBackend)
    assert backend.name == "service:http://127.0.0.1:8123"
    # A bare host:port gets the scheme defaulted.
    assert resolve_backend("service:127.0.0.1:8123").url == "http://127.0.0.1:8123"


@pytest.mark.parametrize(
    "spec", ["nonsense", "process:two", "sequential:4", "batched:2", 42]
)
def test_resolve_backend_rejects_unknown_specs(spec):
    with pytest.raises(ConfigurationError):
        resolve_backend(spec)


@pytest.mark.parametrize("spec", ["nonsense", "sequential:4", "batched:2"])
def test_resolve_backend_error_lists_known_specs_and_token(spec):
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend(spec)
    message = str(excinfo.value)
    assert repr(spec) in message  # names the offending token
    for known in ("'sequential'", "'batched'", "'process[:N]'", "'service:URL'"):
        assert known in message


def test_resolve_backend_service_without_url_names_the_spec():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend("service:")
    assert "'service:'" in str(excinfo.value)
    assert "URL" in str(excinfo.value)


def test_resolve_backend_bad_worker_count_names_the_token():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend("process:x")
    message = str(excinfo.value)
    assert "'x'" in message and "'process:x'" in message


def test_process_backend_rejects_nonpositive_workers():
    with pytest.raises(ConfigurationError):
        ProcessBackend(workers=0)


def test_backends_are_execution_backends():
    for backend in (SequentialBackend(), BatchedBackend(), ProcessBackend(workers=2)):
        assert isinstance(backend, ExecutionBackend)


# --------------------------------------------------------------------------- #
# In-process backend behaviour
# --------------------------------------------------------------------------- #


def test_sequential_and_batched_backends_agree_on_parity_cells():
    assert_backend_record_parity([SequentialBackend(), BatchedBackend()])


@pytest.mark.parametrize("backend_cls", [SequentialBackend, BatchedBackend])
def test_progress_events_are_ordered_and_cell_scoped(backend_cls):
    sweep = SweepConfig(
        name="events",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=(GraphSpec(family="cycle", n=8), GraphSpec(family="path", n=6)),
        num_seeds=2,
        master_seed=3,
    )
    cells = sweep_cells(sweep)
    events = []
    backend = backend_cls()
    records = backend.run_cells(cells, progress=events.append)
    assert [event.index for event in events] == [0, 1]
    assert all(isinstance(event, CellCompleted) for event in events)
    assert all(event.total == 2 for event in events)
    assert all(event.backend == backend.name for event in events)
    assert [event.cell for event in events] == list(cells)
    # The flattened records are exactly the per-event cell records, in order.
    assert records == tuple(
        record for event in events for record in event.outcome.to_records()
    )


def test_run_cell_outcomes_preserves_cell_order():
    cells = (
        _cell(graph=GraphSpec(family="cycle", n=12)),
        _cell(graph=GraphSpec(family="cycle", n=6)),
        _cell(graph=GraphSpec(family="path", n=5)),
    )
    outcomes = BatchedBackend().run_cell_outcomes(cells)
    assert tuple(outcome.cell for outcome in outcomes) == cells
    assert [outcome.n for outcome in outcomes] == [12, 6, 5]
