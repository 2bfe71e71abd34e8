"""Intra-cell sharding: split/merge units and the sharded-parity suite.

The defect these tests pin down: a single large cell used to occupy one
core no matter how many workers ``process:N`` had, because cells were the
smallest schedulable unit.  Seed-list sharding (``shard_size``) splits a
cell into sub-cells, executes them independently and merges the outcomes —
and every test here asserts the merge is byte-identical to running the
cell whole: records, batch arrays, observations (traces, streaming
reducers, spilled traces) and telemetry sample merges included.
"""

import numpy as np
import pytest

from repro.batch.observers import ObserverSpec
from repro.batch.results import BatchResult
from repro.dynamics import ScheduleSpec
from repro.errors import ConfigurationError
from repro.exec import (
    BatchedBackend,
    ExecutionCell,
    ProcessBackend,
    SequentialBackend,
    merge_cell_outcomes,
    resolve_backend,
    resolve_shard_size,
    split_cell,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.montecarlo import run_monte_carlo
from repro.experiments.runner import run_sweep

from tests.batch.parity_harness import (
    assert_same_batch,
    assert_sharded_parity,
    backend_parity_cells,
    dynamic_parity_cells,
    observed_parity_cells,
)

#: The worker configuration the CI tests job pins.
WORKERS = 2


def make_cell(protocol="bfw", n=16, num_seeds=4, master_seed=61, **kwargs):
    return ExecutionCell(
        protocol=ProtocolSpecConfig(name=protocol),
        graph=GraphSpec(family="cycle", n=n),
        seeds=tuple(range(master_seed, master_seed + num_seeds)),
        max_rounds=4000,
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# resolve_shard_size / split_cell / merge_cell_outcomes units
# --------------------------------------------------------------------------- #


def test_resolve_shard_size_values():
    assert resolve_shard_size(None, 10, workers=4) is None
    assert resolve_shard_size("auto", 10, workers=4) == 3
    assert resolve_shard_size("auto", 10, workers=1) == 10
    assert resolve_shard_size("auto", 1, workers=8) == 1
    assert resolve_shard_size(5, 10) == 5
    assert resolve_shard_size("5", 10) == 5


@pytest.mark.parametrize("bad", [0, -1, "nope", "0"])
def test_resolve_shard_size_rejects_invalid(bad):
    with pytest.raises(ConfigurationError):
        resolve_shard_size(bad, 10)


def test_split_cell_slices_seed_list_in_order():
    cell = make_cell(num_seeds=7)
    shards = split_cell(cell, 3)
    assert len(shards) == 3
    assert [shard.seeds for shard in shards] == [
        cell.seeds[0:3],
        cell.seeds[3:6],
        cell.seeds[6:7],
    ]
    for shard in shards:
        assert shard.protocol == cell.protocol
        assert shard.graph == cell.graph
        assert shard.max_rounds == cell.max_rounds


def test_split_cell_covering_size_is_identity():
    cell = make_cell(num_seeds=4)
    assert split_cell(cell, None) == (cell,)
    assert split_cell(cell, 4) == (cell,)
    assert split_cell(cell, 99) == (cell,)


def test_split_cell_rejects_nonpositive_size():
    with pytest.raises(ConfigurationError):
        split_cell(make_cell(), 0)


def test_merge_requires_shards_covering_the_cell():
    cell = make_cell(num_seeds=4)
    shards = split_cell(cell, 2)
    outcomes = [BatchedBackend().run_cell_outcomes((shard,))[0] for shard in shards]
    with pytest.raises(ConfigurationError):
        merge_cell_outcomes(cell, [])
    with pytest.raises(ConfigurationError):
        merge_cell_outcomes(cell, outcomes[:1])
    with pytest.raises(ConfigurationError):
        merge_cell_outcomes(cell, list(reversed(outcomes)))


def test_merge_is_byte_identical_to_whole_cell():
    cell = make_cell(num_seeds=6)
    whole = BatchedBackend().run_cell_outcomes((cell,))[0]
    shards = split_cell(cell, 2)
    outcomes = [BatchedBackend().run_cell_outcomes((shard,))[0] for shard in shards]
    merged = merge_cell_outcomes(cell, outcomes)
    assert merged.cell == cell
    assert merged.to_records() == whole.to_records()
    assert_same_batch(whole.batch, merged.batch)
    # Wall time sums and metrics merge counter-wise across the shards.
    assert merged.wall_seconds == pytest.approx(
        sum(outcome.wall_seconds for outcome in outcomes)
    )
    assert merged.metrics is not None and whole.metrics is not None
    merged_engine = merged.metrics["counters"]
    whole_engine = whole.metrics["counters"]
    for key in ("engine.replicas", "engine.rounds_advanced"):
        assert merged_engine[key] == whole_engine[key]


def test_batch_concatenate_rejects_mismatched_shards():
    cell = make_cell(num_seeds=4)
    outcome = BatchedBackend().run_cell_outcomes((cell,))[0]
    other = BatchResult.from_simulation_results(
        outcome.results, seeds=list(cell.seeds)
    )
    with pytest.raises(ConfigurationError):
        BatchResult.concatenate([])
    with pytest.raises(ConfigurationError):
        # One shard carries final states, the other does not.
        BatchResult.concatenate([outcome.batch, other])


# --------------------------------------------------------------------------- #
# Sharded-merge parity suite (satellite: sizes 1, 3, R, R+7 x backends)
# --------------------------------------------------------------------------- #

#: backend_parity_cells uses num_seeds=4, so these are {1, 3, R, R+7}.
PARITY_SHARD_SIZES = (1, 3, 4, 11)


@pytest.mark.parametrize("backend", ["sequential", "batched"])
def test_sharded_parity_on_backend_parity_cells(backend):
    # Constant-state protocols, the D-aware variant and a memory baseline
    # over cycle/path/Erdős–Rényi — sharded output must match whole cells.
    assert_sharded_parity(
        backend, cells=backend_parity_cells(), shard_sizes=PARITY_SHARD_SIZES
    )


def test_sharded_parity_on_process_backend():
    cells = backend_parity_cells(protocols=("bfw", "emek-keren"), num_seeds=4)
    assert_sharded_parity(
        f"process:{WORKERS}", cells=cells, shard_sizes=(1, 3, "auto")
    )


def test_sharded_parity_every_registered_protocol_and_baseline():
    from repro.core.registry import available_protocols

    protocols = tuple(available_protocols()) + (
        "id-broadcast",
        "emek-keren",
        "pipelined-ids",
    )
    cells = backend_parity_cells(
        protocols=protocols,
        graphs=(GraphSpec(family="cycle", n=12),),
        num_seeds=4,
        master_seed=29,
    )
    assert_sharded_parity("batched", cells=cells, shard_sizes=(1, 3))
    assert_sharded_parity("sequential", cells=cells, shard_sizes=(3,))


def test_sharded_parity_on_dynamic_schedules():
    cells = dynamic_parity_cells(protocols=("bfw",), num_seeds=3)
    assert_sharded_parity("batched", cells=cells, shard_sizes=(1, 2))


def test_sharded_parity_on_observed_cells():
    # Every registered observer kind, static and dynamic.
    assert_sharded_parity(
        "batched", cells=observed_parity_cells(), shard_sizes=(1, 2)
    )


def test_sharded_parity_all_observer_kinds(tmp_path):
    specs = (
        ObserverSpec("trace"),
        ObserverSpec("leader-counts"),
        ObserverSpec("beep-counts"),
        ObserverSpec("leader-extinction"),
        ObserverSpec("streaming-first-beep"),
        ObserverSpec("streaming-wave-fronts"),
        ObserverSpec("streaming-invariants"),
        ObserverSpec("streaming-beep-totals"),
        ObserverSpec("streaming-convergence"),
    )
    cells = (make_cell(num_seeds=5, master_seed=71, observers=specs),)
    assert_sharded_parity("batched", cells=cells, shard_sizes=(1, 2, 5, 12))
    assert_sharded_parity("sequential", cells=cells, shard_sizes=(2,))
    # "streaming-beep-totals" is the "beep-counts" tracker under its
    # streaming name: the two observations are the same bytes.
    for backend in ("batched", "sequential"):
        outcome = resolve_backend(backend).run_cell_outcomes(cells)[0]
        counts, totals = outcome.observations[2], outcome.observations[7]
        assert counts.dtype == totals.dtype == np.int64
        assert counts.shape == totals.shape
        assert counts.tobytes() == totals.tobytes()


def test_sharded_parity_spilling_cells(tmp_path):
    # Spilled traces compare by content, so a re-spilled merge with a
    # different segment layout must still equal the whole-cell spill.
    spec = ObserverSpec(
        "spill-trace",
        {"directory": str(tmp_path / "spill"), "byte_budget": 2048},
    )
    cells = (make_cell(num_seeds=4, master_seed=83, observers=(spec,)),)
    assert_sharded_parity("batched", cells=cells, shard_sizes=(1, 2))


def test_sharded_state_aware_cells_merge_batched_but_match_records():
    # A state-aware schedule forces the whole-cell batched run onto the
    # sequential fallback (R > 1), while its R = 1 shards run batched; the
    # records must still agree — the documented parity contract.
    cell = make_cell(
        protocol="bfw",
        num_seeds=3,
        master_seed=97,
        schedule=ScheduleSpec("leader-isolating", {"cut_per_round": 1, "seed": 3}),
    )
    whole = resolve_backend("batched").run_cell_outcomes((cell,))[0]
    sharded = resolve_backend("batched", shard_size=1).run_cell_outcomes((cell,))[0]
    assert whole.batch is None  # sequential fallback
    assert sharded.batch is not None  # R = 1 shards ran batched
    assert sharded.to_records() == whole.to_records()


# --------------------------------------------------------------------------- #
# ProcessBackend pool sizing and shard scheduling
# --------------------------------------------------------------------------- #


def test_process_pool_clamps_to_work_units():
    # The regression the bugfix PR is named for: pool size follows the
    # number of schedulable units (shards), not just the number of cells.
    cell = make_cell(num_seeds=4)
    backend = ProcessBackend(workers=8)
    backend.run_cell_outcomes((cell,))
    assert backend.last_pool_size == 1  # one unsharded cell -> one worker

    backend = ProcessBackend(workers=8, shard_size=1)
    backend.run_cell_outcomes((cell,))
    assert backend.last_pool_size == 4  # four shards -> four workers

    backend = ProcessBackend(workers=WORKERS, shard_size=1)
    backend.run_cell_outcomes((cell,))
    assert backend.last_pool_size == WORKERS


def test_process_auto_shard_size_splits_across_workers():
    cell = make_cell(num_seeds=5)
    backend = ProcessBackend(workers=WORKERS, shard_size="auto")
    events = []
    outcome = backend.run_cell_outcomes((cell,), progress=events.append)[0]
    shard_events = [e for e in events if e.shard_index is not None]
    # auto = ceil(5 / 2) = 3 seeds per shard -> 2 shards.
    assert [e.shard_index for e in shard_events] == [0, 1]
    assert all(e.shard_count == 2 for e in shard_events)
    whole = BatchedBackend().run_cell_outcomes((cell,))[0]
    assert outcome.to_records() == whole.to_records()


def test_shard_events_precede_the_cell_event():
    cell = make_cell(num_seeds=4)
    small = make_cell(num_seeds=2, master_seed=5)
    events = []
    backend = BatchedBackend(shard_size=3)
    backend.run_cell_outcomes((cell, small), progress=events.append)
    kinds = [
        (e.index, e.shard_index, e.shard_count) for e in events
    ]
    # Cell 0 splits into 2 shards (sub-events then the merged cell event);
    # cell 1 is covered by one shard and emits no sub-events.
    assert kinds == [(0, 0, 2), (0, 1, 2), (0, None, None), (1, None, None)]
    cell_events = [e for e in events if e.shard_index is None]
    assert all(e.total == 2 for e in events)
    assert cell_events[0].outcome.to_records() == (
        BatchedBackend().run_cell_outcomes((cell,))[0].to_records()
    )


def test_unsharded_event_stream_is_unchanged():
    # Consumers that ignore the shard fields must see the historical
    # one-event-per-cell stream when no sharding is requested.
    cells = (make_cell(num_seeds=3), make_cell(num_seeds=2, master_seed=7))
    events = []
    SequentialBackend().run_cell_outcomes(cells, progress=events.append)
    assert [e.index for e in events] == [0, 1]
    assert all(e.shard_index is None and e.shard_count is None for e in events)


# --------------------------------------------------------------------------- #
# Entry points: resolve_backend, run_sweep, run_monte_carlo
# --------------------------------------------------------------------------- #


def test_resolve_backend_applies_shard_size():
    backend = resolve_backend("batched", shard_size="auto")
    assert backend.shard_size == "auto"
    backend = resolve_backend("process:2", shard_size="3")
    assert backend.shard_size == 3
    with pytest.raises(ConfigurationError):
        resolve_backend("batched", shard_size="zero")
    instance = BatchedBackend()
    assert resolve_backend(instance, shard_size=2) is instance
    assert instance.shard_size == 2


def test_run_sweep_shard_size_is_byte_identical():
    sweep = SweepConfig(
        name="shard-acceptance",
        protocols=(ProtocolSpecConfig(name="bfw"),),
        graphs=(GraphSpec(family="cycle", n=16),),
        num_seeds=5,
        master_seed=3,
    )
    reference = run_sweep(sweep, backend="batched")
    assert run_sweep(sweep, backend="batched", shard_size=2) == reference
    assert run_sweep(sweep, backend="sequential", shard_size="auto") == reference


def test_run_monte_carlo_shard_size_is_byte_identical():
    reference = run_monte_carlo(
        protocol="bfw", graph="cycle", n=16, replicas=6, backend="batched"
    )
    sharded = run_monte_carlo(
        protocol="bfw",
        graph="cycle",
        n=16,
        replicas=6,
        backend="batched",
        shard_size=2,
    )
    assert_same_batch(reference.result, sharded.result)
    assert sharded.batched is True
    assert sharded.distinct_leaders == reference.distinct_leaders
