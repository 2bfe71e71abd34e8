"""Pluggable execution backends for the experiment sweeps.

Every statistical claim of the paper is reproduced from sweeps over
(protocol, graph, seeds) *cells*.  This package owns how those cells are
executed, behind one API:

* :class:`~repro.exec.cells.ExecutionCell` — the pure-data unit of work
  (spec pair + replica seeds), spawn-safe by construction;
* :class:`~repro.exec.base.ExecutionBackend` — the strategy contract:
  ``run_cells(cells) -> records`` plus a backend-mediated
  :class:`~repro.exec.base.CellCompleted` progress hook;
* :class:`~repro.exec.backends.SequentialBackend` /
  :class:`~repro.exec.backends.BatchedBackend` /
  :class:`~repro.exec.backends.ProcessBackend` — the three shipped
  strategies (per-trial loop, one batched state array per cell, cells
  sharded across a process pool);
* :func:`~repro.exec.backends.resolve_backend` — spec strings
  (``"sequential"``, ``"batched"``, ``"process:4"``) to backend objects, so
  every experiment entry point and CLI flag shares one vocabulary.

All backends produce byte-identical records under matched seeds; choosing
one is purely a wall-clock decision.  Rule of thumb: ``sequential`` for a
handful of replicas or when debugging a single trial, ``batched`` for many
replicas of few cells, ``process:N`` for sweeps with several independent
cells (Table 1, scaling curves) on a multi-core machine.  With
``shard_size`` (``--shard-size``, ``"auto"`` = ``ceil(R / workers)``) the
process backend also parallelises *within* a cell: the seed list is split
into sub-cells (:func:`~repro.exec.cells.split_cell`), executed like any
other unit of work and merged back byte-identically
(:func:`~repro.exec.cells.merge_cell_outcomes`) — so a single montecarlo
cell with thousands of replicas saturates every worker.

With a ``heartbeat_interval`` (``--heartbeat``), backends additionally
stream in-flight :class:`~repro.exec.base.ShardProgress` events — engine
heartbeats sampled every K rounds — to the same progress hook while cells
are still executing (the process backend ships them over a shared
multiprocessing queue).  Heartbeats never consume randomness, so records
stay byte-identical with them on or off.
"""

from repro.batch.observers import ObserverSpec
from repro.exec.base import (
    CellCompleted,
    ExecutionBackend,
    ProgressEvent,
    ProgressHook,
    ShardProgress,
)
from repro.exec.backends import (
    BackendSpec,
    BatchedBackend,
    ProcessBackend,
    SequentialBackend,
    resolve_backend,
)
from repro.exec.cells import (
    CellOutcome,
    ExecutionCell,
    ShardSize,
    canonical_cell_json,
    cell_from_spec,
    cell_signature,
    cell_to_spec,
    execute_cell_batched,
    execute_cell_sequential,
    merge_cell_outcomes,
    resolve_shard_size,
    split_cell,
)

__all__ = [
    "BackendSpec",
    "BatchedBackend",
    "CellCompleted",
    "CellOutcome",
    "ExecutionBackend",
    "ExecutionCell",
    "ObserverSpec",
    "ProcessBackend",
    "ProgressEvent",
    "ProgressHook",
    "SequentialBackend",
    "ShardProgress",
    "ShardSize",
    "canonical_cell_json",
    "cell_from_spec",
    "cell_signature",
    "cell_to_spec",
    "execute_cell_batched",
    "execute_cell_sequential",
    "merge_cell_outcomes",
    "resolve_backend",
    "resolve_shard_size",
    "split_cell",
]
