"""Batched Monte-Carlo engines: all replicas of a sweep in one state array.

The subsystem has eight layers:

* :mod:`repro.batch.streams` — per-replica random streams that keep every
  replica bit-for-bit identical to its standalone run;
* :mod:`repro.batch.engine` — :class:`BatchedEngine`, which advances the
  ``(R, n)`` batch state of a constant-state protocol and retires converged
  replicas in place;
* :mod:`repro.batch.kernels` — the fused round kernel of that engine
  (numba-compiled when available, plain Python otherwise), selected by
  :class:`KernelPolicy` and byte-identical to the interpreted numpy rounds;
* :mod:`repro.batch.ledger` — the per-run bookkeeping both engines share:
  streaks and retirement, observers, heartbeats and the result;
* :mod:`repro.batch.memory` — :class:`BatchedMemoryEngine`, the same idea
  for the Table-1 memory baselines (identifier bits, knockout flags and
  epoch coins as ``(R, n)`` arrays, replica-for-replica identical to
  :class:`~repro.beeping.simulator.MemorySimulator`);
* :mod:`repro.batch.observers` — the :class:`BatchObserver` protocol every
  engine drives (``(R, n)``-array hooks, retire requests), the shipped
  observers (trace recorder, leader/beep-count trackers, single-leader
  stopper, leader-extinction counter) and the picklable
  :class:`ObserverSpec` that lets observed cells run on every backend;
* :mod:`repro.batch.trace` — :class:`BatchTrace`, the ``(T + 1, R, n)``
  state history whose per-replica slices are byte-identical to sequential
  :class:`~repro.beeping.trace.ExecutionTrace` recordings;
* :mod:`repro.batch.results` — :class:`BatchResult`, flat per-replica
  outcome arrays convertible back to ordinary ``SimulationResult`` objects.

The experiment-facing entry point is
:class:`repro.experiments.montecarlo.MonteCarloRunner`, which routes
constant-state protocols and supported memory baselines through these
engines and everything else through the per-seed loop.

This ``__init__`` resolves its exports lazily (PEP 562): the single-run
observer adapters in :mod:`repro.beeping.observers` import
:mod:`repro.batch.observers`, which must not drag the engine modules (and
their ``repro.beeping`` imports) into that import chain.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.batch.engine import BatchedEngine, run_batch
    from repro.batch.kernels import (
        KERNEL_SPECS,
        KernelPolicy,
        fused_round_block,
        kernel_compile_seconds,
        numba_available,
        resolve_kernel,
        validate_kernel,
    )
    from repro.batch.memory import (
        BatchedMemoryEngine,
        MemoryBatchState,
        register_memory_batch_compiler,
        supports_batched_memory,
    )
    from repro.batch.observers import (
        BatchBeepCountTracker,
        BatchLeaderCountTracker,
        BatchObserver,
        BatchRunInfo,
        BatchSingleLeaderStopper,
        BatchStateHistogramTracker,
        BatchTraceRecorder,
        LeaderExtinctionObserver,
        LeaderExtinctionReport,
        ObserverPipeline,
        ObserverSpec,
        build_observer,
        build_observers,
        merge_observations,
        register_observer_kind,
    )
    from repro.batch.results import BatchResult
    from repro.batch.streams import ReplicaStreams, independent_streams
    from repro.batch.trace import BatchTrace

#: Export name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "BatchResult": "repro.batch.results",
    "BatchTrace": "repro.batch.trace",
    "BatchedEngine": "repro.batch.engine",
    "BatchedMemoryEngine": "repro.batch.memory",
    "MemoryBatchState": "repro.batch.memory",
    "ReplicaStreams": "repro.batch.streams",
    "independent_streams": "repro.batch.streams",
    "register_memory_batch_compiler": "repro.batch.memory",
    "run_batch": "repro.batch.engine",
    "supports_batched_memory": "repro.batch.memory",
    "KERNEL_SPECS": "repro.batch.kernels",
    "KernelPolicy": "repro.batch.kernels",
    "fused_round_block": "repro.batch.kernels",
    "kernel_compile_seconds": "repro.batch.kernels",
    "numba_available": "repro.batch.kernels",
    "resolve_kernel": "repro.batch.kernels",
    "validate_kernel": "repro.batch.kernels",
    "BatchBeepCountTracker": "repro.batch.observers",
    "BatchLeaderCountTracker": "repro.batch.observers",
    "BatchObserver": "repro.batch.observers",
    "BatchRunInfo": "repro.batch.observers",
    "BatchSingleLeaderStopper": "repro.batch.observers",
    "BatchStateHistogramTracker": "repro.batch.observers",
    "BatchTraceRecorder": "repro.batch.observers",
    "LeaderExtinctionObserver": "repro.batch.observers",
    "LeaderExtinctionReport": "repro.batch.observers",
    "ObserverPipeline": "repro.batch.observers",
    "ObserverSpec": "repro.batch.observers",
    "build_observer": "repro.batch.observers",
    "build_observers": "repro.batch.observers",
    "merge_observations": "repro.batch.observers",
    "register_observer_kind": "repro.batch.observers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
