"""Reusable seed-matched parity assertions for the batch engines.

The invariant every batched run must satisfy is: *replica ``r`` of a batch
seeded with ``seeds[r]`` is identical, field for field, to the standalone
sequential run seeded the same way*.  This module owns that assertion so
that every parity test — BFW variants, ablations, memory baselines, CLI
round-trips — states it the same way:

* constant-state :class:`~repro.core.protocol.BeepingProtocol` objects are
  checked against one-replica :class:`~repro.batch.engine.BatchedEngine`
  runs on the uncompiled fused kernel (``kernel="python"``), the scalar
  round body written independently of the interpreted numpy loop.  The
  interpreted ``R > 1`` batch, the
  :class:`~repro.beeping.engine.VectorizedEngine` façade and (with numba)
  the compiled ``R > 1`` batch are each compared with it on their own
  (final state vectors and elected-node identities included);
* :class:`~repro.core.protocol.MemoryProtocol` baselines are checked
  against the per-node reference loop
  :func:`~repro.beeping.simulator.run_memory_reference` — both
  :class:`~repro.batch.memory.BatchedMemoryEngine` and
  :class:`~repro.beeping.simulator.MemorySimulator` (which runs batch-backed
  baselines on their batch state), each on its own, so the two vectorised
  engines can never agree with each other while both drifting from the
  reference.

:func:`assert_replica_parity` dispatches on the protocol type, so callers
can parametrise over any mix of protocols, graph families, replica counts
and seeds without caring which engine pair is being exercised.

The same invariant lifted one level up is owned by
:func:`assert_backend_record_parity`: every :mod:`repro.exec` execution
backend — the sequential loop, the batched engines, a process pool — must
produce byte-identical :class:`~repro.experiments.results.TrialRecord`
tuples for the same cells.  :func:`backend_parity_cells` builds the default
cell set (constant-state protocols, memory baselines and a randomised graph
family) that the backend parity tests sweep.
"""

import numpy as np

from repro.batch import BatchedEngine, BatchedMemoryEngine, BatchTraceRecorder
from repro.batch.kernels import numba_available
from repro.batch.observers import ObserverSpec
from repro.beeping.engine import VectorizedEngine
from repro.beeping.simulator import MemorySimulator, run_memory_reference
from repro.core.protocol import BeepingProtocol, MemoryProtocol
from repro.dynamics import ScheduleSpec, build_schedule
from repro.exec import ExecutionCell, resolve_backend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.runner import sweep_cells
from repro.experiments.seeds import trial_seeds
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_geometric_graph,
)

#: Default per-replica seeds (also the default replica count R).
DEFAULT_SEEDS = tuple(range(10))

#: Default graph set for backend-level parity: the worst-case-diameter
#: families plus a randomised family, mirroring :func:`parity_topologies`.
BACKEND_PARITY_GRAPHS = (
    GraphSpec(family="cycle", n=16),
    GraphSpec(family="path", n=13),
    GraphSpec(family="erdos-renyi", n=18, seed=5),
)

#: Default dynamic scenarios for topology-schedule parity: the identity
#: schedule (must reproduce the static engines bit for bit), seeded random
#: churn at two rates, a periodic bridge cut, and a densification morph.
DYNAMIC_PARITY_SCHEDULES = (
    ScheduleSpec("static"),
    ScheduleSpec("edge-churn", {"add_per_round": 1, "remove_per_round": 1, "seed": 7}),
    ScheduleSpec(
        "edge-churn",
        {
            "add_per_round": 2,
            "remove_per_round": 2,
            "seed": 11,
            "preserve_connectivity": False,
        },
    ),
    ScheduleSpec("cut", {"period": 6, "down_rounds": 3}),
    ScheduleSpec("interpolate", {"target_family": "clique", "rounds": 24}),
)


def parity_topologies():
    """The three graph families every parity sweep covers.

    Cycles and paths are the worst-case-diameter families of the scaling
    experiments; the Erdős–Rényi graph exercises irregular degrees (and,
    for the clique-only knockout baseline, the non-convergent outcome).
    """
    return (
        ("cycle", cycle_graph(16)),
        ("path", path_graph(13)),
        ("erdos-renyi", erdos_renyi_graph(18, rng=5)),
    )


def assert_same_simulation_fields(replica, single):
    """The :class:`SimulationResult` fields both engine pairs must agree on."""
    assert replica.converged == single.converged
    assert replica.convergence_round == single.convergence_round
    assert replica.rounds_executed == single.rounds_executed
    assert replica.final_leader_count == single.final_leader_count
    assert replica.leader_counts == single.leader_counts


def assert_replica_parity(topology, protocol, seeds=DEFAULT_SEEDS, **run_kwargs):
    """Assert batched == sequential, replica for replica, and return the batch.

    ``run_kwargs`` are forwarded to both engines (``max_rounds``,
    ``stop_at_single_leader``, ``initial_states`` for constant-state
    protocols, ``stability_window`` for memory protocols), so budget
    exhaustion and no-early-stop paths can be exercised through the same
    entry point.
    """
    if isinstance(protocol, BeepingProtocol):
        return _assert_constant_state_parity(topology, protocol, seeds, **run_kwargs)
    if isinstance(protocol, MemoryProtocol):
        return _assert_memory_parity(topology, protocol, seeds, **run_kwargs)
    raise TypeError(
        f"parity harness supports BeepingProtocol and MemoryProtocol; got "
        f"{type(protocol).__name__}"
    )


def _assert_constant_state_parity(topology, protocol, seeds, **run_kwargs):
    """Check each engine on its own against the fused-kernel oracle.

    The oracle is one one-replica ``kernel="python"`` run per seed.  Checked
    against it, replica by replica: the ``R > 1`` batch on the interpreted
    numpy loop, the :class:`VectorizedEngine` façade (default kernel,
    ``R = 1``), and — where numba is importable — the ``R > 1`` batch on
    the compiled kernel.  (The uncompiled kernel's ``R > 1`` path is
    pinned to the numpy batch by ``tests/batch/test_kernel_parity.py``.)
    """
    kernels = ("numpy", "numba") if numba_available() else ("numpy",)
    batches = {
        kernel: BatchedEngine(topology, protocol, kernel=kernel).run(
            list(seeds), **run_kwargs
        )
        for kernel in kernels
    }
    for index, seed in enumerate(seeds):
        oracle_engine = BatchedEngine(topology, protocol, kernel="python")
        oracle = oracle_engine.run([seed], **run_kwargs)
        assert oracle_engine.last_kernel["active"] == "python"
        expected = oracle.replica(0)
        for kernel, batch in batches.items():
            assert_same_simulation_fields(batch.replica(index), expected)
            np.testing.assert_array_equal(
                batch.final_states[index], oracle.final_states[0], err_msg=kernel
            )
            assert batch.leader_node[index] == oracle.leader_node[0], kernel
        engine = VectorizedEngine(topology, protocol)
        assert_same_simulation_fields(engine.run(rng=seed, **run_kwargs), expected)
        np.testing.assert_array_equal(engine.last_states, oracle.final_states[0])
    return batches["numpy"]


def assert_schedule_replica_parity(
    topology, protocol, spec, seeds=DEFAULT_SEEDS, max_rounds=4000, **run_kwargs
):
    """Assert batched == sequential under a topology schedule, replica for replica.

    ``spec`` is a :class:`~repro.dynamics.ScheduleSpec` (or a prebuilt
    schedule); each engine gets its *own* schedule instance built from the
    spec, so the assertion also proves the schedule itself is deterministic
    across instances — the property that lets backends rebuild schedules
    inside worker processes without breaking parity.

    Not an independent oracle: scheduled runs take the interpreted loop on
    every kernel, and :class:`VectorizedEngine` is that loop at ``R = 1``.
    What the comparison checks is the batch's active-subset path (replicas
    retiring while others advance) against one-replica runs.
    """
    batch = BatchedEngine(
        topology, protocol, schedule=build_schedule(spec, topology)
    ).run(list(seeds), max_rounds=max_rounds, **run_kwargs)
    engine = VectorizedEngine(
        topology, protocol, schedule=build_schedule(spec, topology)
    )
    for index, seed in enumerate(seeds):
        single = engine.run(rng=seed, max_rounds=max_rounds, **run_kwargs)
        assert_same_simulation_fields(batch.replica(index), single)
        np.testing.assert_array_equal(batch.final_states[index], engine.last_states)
    return batch


def assert_same_trace(replica_trace, single_trace):
    """Byte-identical :class:`ExecutionTrace` equality, field for field."""
    assert replica_trace.states.dtype == single_trace.states.dtype
    np.testing.assert_array_equal(replica_trace.states, single_trace.states)
    assert replica_trace.beeping_values == single_trace.beeping_values
    assert replica_trace.leader_values == single_trace.leader_values
    assert replica_trace.protocol_name == single_trace.protocol_name
    assert replica_trace.topology_name == single_trace.topology_name
    assert replica_trace.seed == single_trace.seed


def assert_trace_parity(
    topology, protocol, seeds=DEFAULT_SEEDS, spec=None, max_rounds=None, **run_kwargs
):
    """Assert ``BatchTrace.replica(r)`` == the sequential recorder's trace.

    One batched run with a :class:`BatchTraceRecorder` attached against one
    sequentially recorded trace per seed (``record_trace=True`` on the
    single-run engine — the refactored observation layer's reference path).
    ``spec`` optionally runs both engines under a topology schedule; each
    engine gets its own schedule instance built from the spec.  Returns the
    batch trace.

    Not an independent oracle: observed runs take the interpreted loop on
    every kernel, and :class:`VectorizedEngine` is that loop at ``R = 1``.
    What the comparison checks is the ``R > 1`` recorder and active-subset
    path against one-replica recordings.
    """
    recorder = BatchTraceRecorder()
    schedule = None if spec is None else build_schedule(spec, topology)
    BatchedEngine(topology, protocol, schedule=schedule).run(
        list(seeds), max_rounds=max_rounds, observers=[recorder], **run_kwargs
    )
    batch_trace = recorder.trace()
    assert batch_trace.num_replicas == len(seeds)
    engine = VectorizedEngine(
        topology,
        protocol,
        schedule=None if spec is None else build_schedule(spec, topology),
    )
    for index, seed in enumerate(seeds):
        single = engine.run(
            rng=seed, max_rounds=max_rounds, record_trace=True, **run_kwargs
        )
        assert single.trace is not None
        assert_same_trace(batch_trace.replica(index), single.trace)
    return batch_trace


#: Observer specs every observed-cell parity sweep attaches.
OBSERVED_PARITY_SPECS = (
    ObserverSpec("trace"),
    ObserverSpec("leader-extinction"),
)


def observed_parity_cells(
    protocols=("bfw",),
    graphs=BACKEND_PARITY_GRAPHS,
    schedules=(None, ScheduleSpec("edge-churn", {"add_per_round": 1, "remove_per_round": 1, "seed": 7})),
    specs=OBSERVED_PARITY_SPECS,
    num_seeds=3,
    master_seed=41,
    max_rounds=4000,
):
    """Observed cells every backend must execute with identical observations."""
    cells = []
    for protocol in protocols:
        for graph in graphs:
            for schedule in schedules:
                label = "static" if schedule is None else schedule.label
                cells.append(
                    ExecutionCell(
                        protocol=ProtocolSpecConfig(name=protocol),
                        graph=graph,
                        seeds=trial_seeds(
                            master_seed,
                            f"observed-parity/{protocol}/{graph.label}/{label}",
                            num_seeds,
                        ),
                        max_rounds=max_rounds,
                        schedule=schedule,
                        observers=tuple(specs),
                    )
                )
    return tuple(cells)


def assert_backend_observation_parity(backends, cells=None):
    """Assert every backend yields identical records *and* observations."""
    if cells is None:
        cells = observed_parity_cells()
    cells = tuple(cells)
    resolved = [resolve_backend(backend) for backend in backends]
    reference = resolved[0].run_cell_outcomes(cells)
    for outcome in reference:
        assert outcome.observations is not None
        assert len(outcome.observations) == len(outcome.cell.observers)
    for backend in resolved[1:]:
        outcomes = backend.run_cell_outcomes(cells)
        for ref, out in zip(reference, outcomes):
            assert out.to_records() == ref.to_records(), (
                f"{backend.name} records differ from {resolved[0].name} on "
                f"{ref.cell.label}"
            )
            assert out.observations == ref.observations, (
                f"{backend.name} observations differ from {resolved[0].name} "
                f"on {ref.cell.label}"
            )
    return reference


def dynamic_parity_cells(
    protocols=("bfw", "bfw-nonuniform"),
    graphs=BACKEND_PARITY_GRAPHS,
    schedules=DYNAMIC_PARITY_SCHEDULES,
    num_seeds=3,
    master_seed=37,
    max_rounds=4000,
):
    """Dynamic-topology cells every backend must execute identically.

    Crosses the backend-parity graphs with the default schedule set (on
    bridgeless families the cut schedule falls back to severing the first
    edge).  ``max_rounds`` is capped because churned graphs are allowed to
    stall convergence — exercising the budget-exhaustion path is part of
    the point.
    """
    cells = []
    for protocol in protocols:
        for graph in graphs:
            for spec in schedules:
                cells.append(
                    ExecutionCell(
                        protocol=ProtocolSpecConfig(name=protocol),
                        graph=graph,
                        seeds=trial_seeds(
                            master_seed,
                            f"dynamic-parity/{protocol}/{graph.label}/{spec.label}",
                            num_seeds,
                        ),
                        max_rounds=max_rounds,
                        schedule=spec,
                    )
                )
    return tuple(cells)


def backend_parity_cells(
    protocols=("bfw", "bfw-nonuniform", "emek-keren"),
    graphs=BACKEND_PARITY_GRAPHS,
    num_seeds=4,
    master_seed=17,
):
    """The default cell set every backend must execute identically.

    Spans a constant-state protocol, the D-aware variant and a memory
    baseline over cycles, paths and a randomised (Erdős–Rényi) family.
    """
    sweep = SweepConfig(
        name="backend-parity",
        protocols=tuple(ProtocolSpecConfig(name=name) for name in protocols),
        graphs=tuple(graphs),
        num_seeds=num_seeds,
        master_seed=master_seed,
    )
    return sweep_cells(sweep)


def assert_backend_record_parity(backends, cells=None):
    """Assert every backend yields byte-identical records, and return them.

    ``backends`` may mix backend instances and spec strings; the first
    entry produces the reference record tuple (field-for-field dataclass
    equality — the records are frozen dataclasses of plain scalars, so
    equality is byte-level).
    """
    if cells is None:
        cells = backend_parity_cells()
    cells = tuple(cells)
    resolved = [resolve_backend(backend) for backend in backends]
    reference = resolved[0].run_cells(cells)
    for backend in resolved[1:]:
        assert backend.run_cells(cells) == reference, (
            f"{backend.name} records differ from {resolved[0].name}"
        )
    return reference


def kernel_parity_cells(
    protocols=None,
    graphs=(
        GraphSpec(family="cycle", n=16),
        GraphSpec(family="erdos-renyi", n=18, seed=5),
    ),
    schedules=(
        None,
        ScheduleSpec(
            "edge-churn", {"add_per_round": 1, "remove_per_round": 1, "seed": 7}
        ),
    ),
    num_seeds=3,
    master_seed=53,
    max_rounds=4000,
):
    """Cells every round kernel must execute byte-identically.

    Crosses **every registered constant-state protocol** (the engines the
    fused kernels replace) with a static and a dynamic schedule; the
    kernel parity tests run these cells with ``kernel="numba"`` /
    ``"numpy"`` / ``"python"`` stamped via the backend and against the
    :class:`~repro.exec.SequentialBackend` reference, at shard sizes 1 and
    ``"auto"``.  Cells carry no kernel of their own, so the same tuple
    serves every kernel variant.
    """
    from repro.core.registry import available_protocols

    if protocols is None:
        protocols = available_protocols()
    cells = []
    for protocol in protocols:
        for graph in graphs:
            for spec in schedules:
                label = "static" if spec is None else spec.label
                cells.append(
                    ExecutionCell(
                        protocol=ProtocolSpecConfig(name=protocol),
                        graph=graph,
                        seeds=trial_seeds(
                            master_seed,
                            f"kernel-parity/{protocol}/{graph.label}/{label}",
                            num_seeds,
                        ),
                        max_rounds=max_rounds,
                        schedule=spec,
                    )
                )
    return tuple(cells)


def assert_kernel_record_parity(
    kernels, cells=None, shard_sizes=(None, 1, "auto"), reference=None
):
    """Assert every kernel produces the sequential loop's records exactly.

    The reference is the :class:`~repro.exec.SequentialBackend` (no kernel
    seam at all — the per-trial loop), run here unless ``reference`` passes
    its records for ``cells`` in.  Each kernel in ``kernels`` then runs the
    same cells on a fresh ``"batched"`` backend with the kernel stamped as
    the backend default, at every entry of ``shard_sizes``.
    """
    if cells is None:
        cells = kernel_parity_cells()
    cells = tuple(cells)
    if reference is None:
        reference = resolve_backend("sequential").run_cells(cells)
    for kernel in kernels:
        for shard_size in shard_sizes:
            backend = resolve_backend(
                "batched", shard_size=shard_size, kernel=kernel
            )
            assert backend.run_cells(cells) == reference, (
                f"kernel={kernel!r} shard_size={shard_size!r} records "
                f"differ from the sequential loop"
            )
    return reference


def assert_same_batch(reference, batch):
    """Byte-identical :class:`BatchResult` equality, array for array."""
    np.testing.assert_array_equal(batch.converged, reference.converged)
    np.testing.assert_array_equal(
        batch.convergence_round, reference.convergence_round
    )
    np.testing.assert_array_equal(
        batch.rounds_executed, reference.rounds_executed
    )
    np.testing.assert_array_equal(
        batch.final_leader_count, reference.final_leader_count
    )
    np.testing.assert_array_equal(batch.leader_node, reference.leader_node)
    assert batch.seeds == reference.seeds
    assert batch.leader_counts == reference.leader_counts
    assert (batch.final_states is None) == (reference.final_states is None)
    if reference.final_states is not None:
        np.testing.assert_array_equal(
            batch.final_states, reference.final_states
        )
    assert batch.protocol_name == reference.protocol_name
    assert batch.topology_name == reference.topology_name


def assert_same_observation(reference, observation):
    """Structural equality that tolerates numpy arrays at any nesting level.

    Observer results range from rich objects with value-based ``__eq__``
    (:class:`BatchTrace`, spilled traces) to bare ``(R, ...)`` arrays
    (beep-count matrices, streaming reducers), whose ``==`` is elementwise.
    """
    if isinstance(reference, np.ndarray) or isinstance(observation, np.ndarray):
        np.testing.assert_array_equal(observation, reference)
        return
    if isinstance(reference, (tuple, list)):
        assert isinstance(observation, (tuple, list))
        assert len(observation) == len(reference)
        for ref_item, out_item in zip(reference, observation):
            assert_same_observation(ref_item, out_item)
        return
    if isinstance(reference, dict):
        assert set(observation) == set(reference)
        for key in reference:
            assert_same_observation(reference[key], observation[key])
        return
    assert observation == reference


def assert_sharded_parity(backend, cells=None, shard_sizes=(1, 3, "auto")):
    """Assert seed-list sharding never changes a backend's output.

    Runs ``cells`` once unsharded on ``backend`` (a spec string, so each
    variant resolves a fresh instance) as the reference, then once per entry
    of ``shard_sizes`` with ``shard_size`` set, asserting byte-identical
    records, observations and — where both runs produced one — batch arrays.
    Returns the reference outcomes.
    """
    if cells is None:
        cells = backend_parity_cells()
    cells = tuple(cells)
    reference = resolve_backend(backend).run_cell_outcomes(cells)
    for size in shard_sizes:
        sharded = resolve_backend(backend, shard_size=size).run_cell_outcomes(
            cells
        )
        for ref, out in zip(reference, sharded):
            assert out.to_records() == ref.to_records(), (
                f"shard_size={size!r} records differ on {ref.cell.label} "
                f"({backend})"
            )
            assert (out.observations is None) == (ref.observations is None), (
                f"shard_size={size!r} observations differ on "
                f"{ref.cell.label} ({backend})"
            )
            if ref.observations is not None:
                assert_same_observation(ref.observations, out.observations)
            if ref.batch is not None and out.batch is not None:
                assert_same_batch(ref.batch, out.batch)
    return reference


def _assert_memory_parity(topology, protocol, seeds, **run_kwargs):
    batch = BatchedMemoryEngine(topology, protocol).run(list(seeds), **run_kwargs)
    simulator = MemorySimulator(topology, protocol)
    for index, seed in enumerate(seeds):
        reference = run_memory_reference(topology, protocol, rng=seed, **run_kwargs)
        replica = batch.replica(index)
        single = simulator.run(rng=seed, **run_kwargs)
        for result in (replica, single):
            assert_same_simulation_fields(result, reference)
            assert result.seed == reference.seed
            assert result.protocol_name == reference.protocol_name
            assert result.topology_name == reference.topology_name
        # The reference does not record the elected node, but the batch's
        # identity must at least be consistent with the count.
        if reference.final_leader_count == 1:
            assert 0 <= batch.leader_node[index] < topology.n
        else:
            assert batch.leader_node[index] == -1
    return batch
