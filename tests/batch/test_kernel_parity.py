"""Kernel parity: every round kernel reproduces the interpreted loop exactly.

The fused kernels of :mod:`repro.batch.kernels` consume the same prefetched
uniform blocks in the same order as the interpreted numpy rounds, so every
:class:`~repro.batch.results.BatchResult` field — convergence rounds,
leader-count trajectories, final state vectors — must be byte-identical
across ``kernel="numpy"`` / ``"python"`` / ``"numba"``, and identical to
the :class:`~repro.exec.SequentialBackend` reference at the record level.
Runs the fused path cannot serve (observers, schedules, heartbeats) must
fall back to the interpreted loop without perturbing the RNG stream.

``kernel="numba"`` cases skip visibly when numba is not importable; the CI
``kernels`` job installs the ``repro[kernels]`` extra and runs them for
real.
"""

import numpy as np
import pytest

from repro.batch.engine import (
    BatchedEngine,
    dense_adjacency_preferred,
)
from repro.batch.kernels import (
    fused_round_block,
    numba_available,
    resolve_kernel,
    validate_kernel,
)
from repro.batch.observers import BatchLeaderCountTracker
from repro.batch.streams import (
    DEFAULT_RNG_BUFFER_BYTES,
    MAX_PREFETCH_DEPTH,
    prefetch_depth,
)
from repro.core.registry import create_protocol
from repro.dynamics import ScheduleSpec, build_schedule
from repro.errors import ConfigurationError
from repro.exec.cells import _build_cell
from repro.experiments.tables import DEFAULT_TABLE1_GRAPHS
from repro.graphs.generators import (
    clique_graph,
    cycle_graph,
    erdos_renyi_graph,
    make_graph,
    torus_graph,
)
from repro.telemetry.metrics import MetricsRegistry, use_metrics

from tests.batch.parity_harness import (
    assert_kernel_record_parity,
    assert_same_batch,
    kernel_parity_cells,
)

requires_numba = pytest.mark.skipif(
    not numba_available(),
    reason=(
        "numba is not importable here; install the repro[kernels] extra — "
        "the CI 'kernels' job runs these cases compiled"
    ),
)

SEEDS = tuple(range(1, 9))


def _engine(kernel=None, graph="cycle", n=16, schedule_spec=None):
    topology = cycle_graph(n) if graph == "cycle" else erdos_renyi_graph(n, rng=5)
    protocol = create_protocol("bfw", diameter=topology.diameter(), n=topology.n)
    schedule = (
        None
        if schedule_spec is None
        else build_schedule(schedule_spec, topology)
    )
    return BatchedEngine(topology, protocol, schedule=schedule, kernel=kernel)


@pytest.mark.parametrize("graph", ["cycle", "erdos-renyi"])
@pytest.mark.parametrize(
    "run_kwargs",
    [
        {},
        {"stop_at_single_leader": False},
        {"record_leader_counts": True},
        {"max_rounds": 3},
        {"max_rounds": 0},
    ],
)
def test_engine_batch_parity_across_kernels(graph, run_kwargs):
    reference = _engine("numpy", graph=graph).run(list(SEEDS), **run_kwargs)
    batch = _engine("python", graph=graph).run(list(SEEDS), **run_kwargs)
    assert_same_batch(reference, batch)


@requires_numba
@pytest.mark.parametrize("graph", ["cycle", "erdos-renyi"])
@pytest.mark.parametrize(
    "run_kwargs",
    [{}, {"stop_at_single_leader": False}, {"record_leader_counts": True}],
)
def test_engine_batch_parity_numba(graph, run_kwargs):
    reference = _engine("numpy", graph=graph).run(list(SEEDS), **run_kwargs)
    batch = _engine("numba", graph=graph).run(list(SEEDS), **run_kwargs)
    assert_same_batch(reference, batch)


def test_planted_initial_states_parity():
    engine = _engine("python")
    planted = np.full(16, 3, dtype=np.int64)
    planted[0] = 0
    reference = _engine("numpy").run(list(SEEDS), initial_states=planted)
    batch = engine.run(list(SEEDS), initial_states=planted)
    assert_same_batch(reference, batch)
    assert engine.last_kernel["active"] == "python"


def test_kernel_reported_in_last_kernel():
    engine = _engine("python")
    engine.run([1, 2, 3])
    assert engine.last_kernel == {
        "requested": "python",
        "resolved": "python",
        "active": "python",
        "fallback": None,
        "compile_seconds": None,
    }


def test_observers_fall_back_to_interpreted_loop():
    reference = _engine("numpy").run(list(SEEDS))
    engine = _engine("python")
    tracker = BatchLeaderCountTracker()
    batch = engine.run(list(SEEDS), observers=[tracker])
    assert_same_batch(reference, batch)
    assert engine.last_kernel["active"] == "numpy"
    assert "observer" in engine.last_kernel["fallback"]


def test_schedule_falls_back_to_interpreted_loop():
    spec = ScheduleSpec(
        "edge-churn", {"add_per_round": 1, "remove_per_round": 1, "seed": 7}
    )
    reference = _engine("numpy", schedule_spec=spec).run(
        list(SEEDS), max_rounds=500
    )
    engine = _engine("python", schedule_spec=spec)
    batch = engine.run(list(SEEDS), max_rounds=500)
    assert_same_batch(reference, batch)
    assert engine.last_kernel["active"] == "numpy"
    assert "schedule" in engine.last_kernel["fallback"]


def test_heartbeat_falls_back_to_interpreted_loop():
    from repro.telemetry.heartbeat import HeartbeatEmitter, use_heartbeat

    reference = _engine("numpy").run(list(SEEDS))
    engine = _engine("python")
    beats = []
    with use_heartbeat(HeartbeatEmitter(1, beats.append)):
        batch = engine.run(list(SEEDS))
    assert_same_batch(reference, batch)
    assert engine.last_kernel["active"] == "numpy"
    assert "heartbeat" in engine.last_kernel["fallback"]
    assert beats and all(beat.kernel == "numpy" for beat in beats)


def test_auto_resolves_without_numba_to_numpy():
    policy = resolve_kernel("auto")
    assert policy.requested == "auto"
    assert policy.resolved == ("numba" if numba_available() else "numpy")


def test_explicit_numba_without_numba_raises():
    if numba_available():
        pytest.skip("numba importable: the explicit spec resolves fine here")
    with pytest.raises(ConfigurationError, match="numba"):
        resolve_kernel("numba")


def test_validate_kernel_normalises_and_rejects():
    assert validate_kernel(None) is None
    assert validate_kernel("  NumPy ") == "numpy"
    # Validation is availability-blind: cells stamped on a machine without
    # numba may execute on workers that have it.
    assert validate_kernel("numba") == "numba"
    # Unknown specs (array-namespace "xp:..." ones included) are refused
    # with the list of the kernels that exist.
    for spec in ("fortran", "xp:", "xp:numpy", "xp:bogus"):
        with pytest.raises(
            ConfigurationError, match="'auto', 'numba', 'numpy', 'python'"
        ):
            validate_kernel(spec)


@pytest.mark.parametrize("spec", ["xp:numpy", "xp:definitely_not_installed"])
def test_xp_specs_are_refused_at_engine_construction(spec):
    # The array-namespace path is gone: such a spec fails where the engine
    # is built, not in the middle of a run, whatever the namespace.
    with pytest.raises(ConfigurationError, match="unknown kernel"):
        resolve_kernel(spec)
    with pytest.raises(ConfigurationError, match="unknown kernel"):
        _engine(spec)


def test_fused_kernel_is_plain_python_function():
    # The "python" kernel *is* the nopython kernel body, uncompiled — what
    # keeps the parity suite meaningful on machines without numba.
    from repro.batch import kernels

    assert fused_round_block is kernels._fused_round_block


# --------------------------------------------------------------------------- #
# Full matrix: registered protocols x schedules x shard sizes x kernels
# --------------------------------------------------------------------------- #


def test_kernel_parity_full_matrix():
    # Every cell on the interpreted loop; the fused kernels only on the
    # cells they can take — a scheduled run always falls back to the
    # interpreted loop, so re-running those cells under a fused kernel
    # would only repeat the numpy passes.
    cells = kernel_parity_cells()
    reference = assert_kernel_record_parity(["numpy"], cells=cells)
    fused_kernels = ["python"]
    if numba_available():
        fused_kernels.append("numba")
    # Records come cell by cell, one per seed.
    static, static_reference, start = [], [], 0
    for cell in cells:
        stop = start + len(cell.seeds)
        if cell.schedule is None:
            static.append(cell)
            static_reference.extend(reference[start:stop])
        start = stop
    assert static and len(static) < len(cells)
    assert_kernel_record_parity(
        fused_kernels, cells=static, reference=tuple(static_reference)
    )
    for cell in cells:
        if cell.schedule is None:
            continue
        topology, protocol, _, schedule = _build_cell(cell)
        for kernel in fused_kernels:
            engine = BatchedEngine(
                topology, protocol, schedule=schedule, kernel=kernel
            )
            engine.run(list(cell.seeds), max_rounds=3)
            assert engine.last_kernel["active"] == "numpy", cell.label


@pytest.mark.skipif(
    numba_available(), reason="numba importable: covered by the matrix above"
)
def test_numba_matrix_skips_visibly():
    # A stand-in that *documents* the gap: without numba the matrix above
    # only covers numpy/python, and the CI kernels job owns the compiled run.
    assert "numba" not in ("numpy", "python")


# --------------------------------------------------------------------------- #
# RNG prefetch depth (single source of truth in streams)
# --------------------------------------------------------------------------- #


def test_prefetch_depth_formula():
    assert prefetch_depth(1, 1) == MAX_PREFETCH_DEPTH
    assert prefetch_depth(10, 1024) == min(
        MAX_PREFETCH_DEPTH, DEFAULT_RNG_BUFFER_BYTES // (8 * 10 * 1024)
    )
    # Never below one round, however large the batch.
    assert prefetch_depth(10_000, 100_000) == 1


def test_engine_uses_streams_prefetch_depth():
    engine = _engine("numpy")
    assert engine.RNG_BUFFER_BYTES == DEFAULT_RNG_BUFFER_BYTES


# --------------------------------------------------------------------------- #
# Dense/sparse adjacency crossover
# --------------------------------------------------------------------------- #


def test_crossover_heuristic_rule():
    # Up to 64 nodes everything stays dense, whatever the degree.
    assert dense_adjacency_preferred(64, nnz=128)
    assert dense_adjacency_preferred(2, nnz=0)
    # Above that, sparse graphs are CSR at every size — including the
    # n = 1024 cycle and degree-4 torus that the old 4 MiB byte budget
    # kept dense.
    assert not dense_adjacency_preferred(65, nnz=130)
    assert not dense_adjacency_preferred(1024, nnz=2048)
    assert not dense_adjacency_preferred(1024, nnz=4096)
    assert not dense_adjacency_preferred(1_000_000, nnz=2_000_000)
    # Density decides: dense iff n**2 <= 16 * nnz (mean degree >= n / 16).
    n = 5000
    assert not dense_adjacency_preferred(n, nnz=2 * n)
    assert dense_adjacency_preferred(n, nnz=n * n // 16)
    assert not dense_adjacency_preferred(n, nnz=n * n // 16 - 1)
    assert dense_adjacency_preferred(n, nnz=n * (n - 1))


def _representation(topology):
    engine = BatchedEngine(topology, create_protocol("bfw"))
    stats = engine._cache_stats()
    return stats["adjacency_dense_builds"], stats["adjacency_csr_builds"]


def test_torus_builds_csr_and_reports_sparse_gauge():
    topology = torus_graph(32, 32)
    assert _representation(topology) == (0, 1)
    registry = MetricsRegistry()
    engine = BatchedEngine(topology, create_protocol("bfw"))
    with use_metrics(registry):
        engine.run([1, 2], max_rounds=3)
    assert registry.snapshot()["gauges"]["engine.adjacency_dense"] == 0.0


def test_clique_builds_dense():
    assert _representation(clique_graph(200)) == (1, 0)


@pytest.mark.parametrize(
    "spec", DEFAULT_TABLE1_GRAPHS, ids=lambda spec: spec.label
)
def test_table1_graphs_stay_dense(spec):
    assert spec.n <= 64
    topology = make_graph(spec.family, spec.n, rng=spec.seed)
    assert _representation(topology) == (1, 0)


@pytest.mark.parametrize("family,n", [("cycle", 64), ("erdos-renyi", 64)])
def test_small_graphs_build_dense(family, n):
    engine = _engine("numpy", graph=family, n=n)
    stats = engine._cache_stats()
    assert stats["adjacency_dense_builds"] == 1
    assert stats["adjacency_csr_builds"] == 0


def test_large_sparse_graph_builds_csr_only():
    topology = cycle_graph(5000)
    protocol = create_protocol("bfw", diameter=topology.diameter(), n=5000)
    engine = BatchedEngine(topology, protocol)
    stats = engine._cache_stats()
    assert stats["adjacency_dense_builds"] == 0
    assert stats["adjacency_csr_builds"] == 1


def test_adjacency_representation_reported_as_gauge():
    registry = MetricsRegistry()
    engine = _engine("numpy", n=16)
    with use_metrics(registry):
        engine.run([1, 2])
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["engine.adjacency_dense"] == 1.0
    assert snapshot["counters"]["engine.kernel.numpy"] == 1


def test_kernel_counter_tracks_fused_runs():
    registry = MetricsRegistry()
    engine = _engine("python")
    with use_metrics(registry):
        engine.run([1, 2])
    assert registry.snapshot()["counters"]["engine.kernel.python"] == 1
