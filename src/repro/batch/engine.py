"""The constant-state engine: all replicas of a sweep in one array.

Every statistical claim of the paper is reproduced by running dozens of
independently seeded replicas of the same (protocol, graph) cell.
:class:`BatchedEngine` advances all of them in one round loop, and
:class:`~repro.beeping.engine.VectorizedEngine` is its one-replica façade,
so every constant-state run — a sweep cell or a single seed — goes through
the same code:

* the states of ``R`` replicas live in one ``(R, n)`` int array;
* the beep masks of all replicas are one gather, and "who hears a beep" is
  one product of the adjacency (float32 CSR, or dense on small or dense
  graphs — see :func:`dense_adjacency_preferred`) with the contiguous
  ``(n, R)`` replica beep columns;
* each transition is two lookups in the compiled protocol's flat tables
  (``prob_by_code`` then ``next_by_code``);
* every probabilistic transition of the round is resolved by one ``(R, n)``
  uniform block, filled row by row from per-replica generator streams so
  that each replica consumes exactly the randomness its standalone run
  would;
* replicas that reach a single-leader configuration are *retired in place*:
  they drop out of the active index, stop consuming randomness, and stop
  costing work, while the batch keeps advancing the stragglers.

A run takes one of two round paths: the fused scalar kernel of
:mod:`repro.batch.kernels` (compiled with numba when available), or the
interpreted numpy loop, which serves every run that needs per-round Python
callbacks.  Both consume the same uniform blocks, so replica ``r`` of a
batch seeded with ``seeds[r]`` is bit for bit the one-replica run seeded
the same way — same convergence round, same final leader, same
leader-count trajectory.  The parity tests in ``tests/batch/`` check every
path against the uncompiled fused kernel (``kernel="python"``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.kernels import (
    KernelPolicy,
    compiled_fused_kernel,
    fused_round_block,
    resolve_kernel,
)
from repro.batch.observers import (
    BatchObserver,
    BatchRunInfo,
    ObserverPipeline,
)
from repro.batch.results import BatchResult
from repro.batch.streams import (
    DEFAULT_RNG_BUFFER_BYTES,
    ReplicaStreams,
    SeedLike,
    prefetch_depth,
)
from repro.beeping.engine import CompiledProtocol, compile_protocol
from repro.beeping.simulator import default_round_budget
from repro.core.protocol import BeepingProtocol
from repro.dynamics.schedules import TopologySchedule
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.topology import Topology


def check_schedule(
    topology: Topology, schedule: Optional[TopologySchedule]
) -> Optional[TopologySchedule]:
    """Validate a topology schedule against an engine's base graph.

    The schedule must be a :class:`~repro.dynamics.schedules.TopologySchedule`
    defined for the same node count (nodes are the protocol's agents — only
    edges may change).
    """
    if schedule is None:
        return None
    if not isinstance(schedule, TopologySchedule):
        raise ConfigurationError(
            f"schedule must be a TopologySchedule (see repro.dynamics); "
            f"got {type(schedule).__name__}"
        )
    if schedule.n != topology.n:
        raise ConfigurationError(
            f"schedule is defined for n={schedule.n} nodes but the engine's "
            f"graph {topology.name} has n={topology.n}"
        )
    return schedule


def dense_adjacency_preferred(n: int, nnz: int) -> bool:
    """Whether a graph's hear mask should use a dense float32 adjacency.

    The explicit crossover rule behind :func:`hear_adjacency`, on graph
    properties only: dense iff ``n <= 64`` (one small BLAS call beats the
    sparse product's per-call dispatch) or ``n**2 <= 16 * nnz`` (mean degree
    at least ``n / 16``, where the dense product does little wasted work).
    Everything else — tori, cycles, grids, sparse random graphs of any
    size — multiplies a float32 CSR matrix into contiguous replica
    columns, which costs O(nnz * R) instead of O(n**2 * R) and keeps BLAS
    threads off the round loop.  The README's "Dense crossover" grid
    records the measurements behind the two thresholds.
    """
    return n <= 64 or n * n <= 16 * nnz


def hear_adjacency(sparse_adjacency):
    """A graph's hear-mask operand: a dense float32 array or a float32 CSR.

    Built once per graph (the engines keep it, schedules keep it in the
    swap cache) so :func:`hear_mask` never converts per round.
    """
    if dense_adjacency_preferred(sparse_adjacency.shape[0], sparse_adjacency.nnz):
        return sparse_adjacency.toarray().astype(np.float32)
    return sparse_adjacency.astype(np.float32)


def hear_mask(beep_columns: np.ndarray, adjacency) -> np.ndarray:
    """Who hears a beep, for every replica column at once.

    ``beep_columns`` is the ``(n, R)`` float32 beep indicator (one column
    per replica, ideally C-contiguous) and ``adjacency`` an operand from
    :func:`hear_adjacency`.  A node hears when it beeps itself or any
    neighbour beeps; the adjacency is symmetric, so one product counts
    every replica's beeping neighbours — exactly, since float32 holds
    integers far beyond any degree.  Returns the ``(n, R)`` boolean mask.
    """
    if not beep_columns.any():
        return beep_columns > 0
    return (beep_columns + adjacency @ beep_columns) > 0


class BatchedEngine:
    """Simulate ``R`` independent replicas of a compiled protocol at once.

    Parameters
    ----------
    topology:
        The communication graph shared by every replica (the initial graph
        when a schedule is set).
    protocol:
        A constant-state beeping protocol; compiled once at construction.
    schedule:
        Optional :class:`~repro.dynamics.schedules.TopologySchedule`.  The
        adjacency used in round ``r`` is that of ``schedule.topology_at(r)``,
        swapped once per round for the whole batch — one rebuild serves all
        ``R`` replicas, and distinct graphs are compiled to their hear-mask
        operand (:func:`hear_adjacency`) exactly once (schedules deduplicate
        revisited edge sets).  A static schedule reproduces the
        scheduleless run bit for bit.  State-aware schedules (whose graphs
        depend on the replica's states) are only accepted for
        single-replica batches, because all replicas of a batch share one
        adjacency per round by construction.
    kernel:
        Round-kernel spec resolved through
        :func:`repro.batch.kernels.resolve_kernel`: ``"auto"`` (default,
        numba-compiled fused kernel when numba is importable, interpreted
        numpy path otherwise), ``"numba"`` (demand the compiled kernel),
        ``"numpy"`` (force the interpreted path) or ``"python"`` (the fused
        kernel uncompiled — parity testing without numba).  Runs that need
        per-round Python callbacks (observers, schedules, heartbeats) fall
        back to the interpreted path with identical records;
        ``last_kernel`` records what each run actually used.
    """

    #: Memory cap (bytes) for the prefetched per-replica uniform blocks
    #: (the block depth itself comes from
    #: :func:`repro.batch.streams.prefetch_depth`, the single source of
    #: truth shared with the fused kernels).
    RNG_BUFFER_BYTES = DEFAULT_RNG_BUFFER_BYTES

    #: Maximum number of schedule graphs whose compiled hear-mask
    #: adjacencies are kept alive.  Schedules deduplicate revisited edge
    #: sets, so periodic scenarios fit entirely; pure random churn cycles
    #: through the cache, paying one recompilation per round — the same
    #: price an unbounded cache would pay anyway, without growing a dense
    #: n x n float32 copy per round for the engine's lifetime.
    SWAP_CACHE_LIMIT = 64

    #: Byte budget for the cached dense adjacencies; on large dense
    #: graphs (4 n**2 bytes per float32 copy) this, not the entry count,
    #: is the binding bound.
    SWAP_CACHE_BYTES = 64 << 20

    def __init__(
        self,
        topology: Topology,
        protocol: BeepingProtocol,
        schedule: Optional[TopologySchedule] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self._topology = topology
        self._protocol = protocol
        self._compiled = compile_protocol(protocol)
        # Resolved once per engine: an explicit kernel="numba" without
        # numba fails here, not mid-sweep.  Per-run observer/schedule/
        # heartbeat fallbacks are decided in run() — see
        # KernelPolicy.fallback_reason.
        self._kernel_policy: KernelPolicy = resolve_kernel(kernel)
        self.last_kernel: Optional[dict] = None
        self._adjacency = topology.sparse_adjacency()
        schedule = check_schedule(topology, schedule)
        if schedule is not None and schedule.is_static:
            # The identity schedule *is* today's fast path: adopt its (only)
            # graph up front and skip the per-round dispatch entirely, so
            # bit-identity with a scheduleless run holds by construction.
            self._adjacency = schedule.topology_at(0).sparse_adjacency()
            schedule = None
        self._schedule = schedule
        # The hear-mask operand (dense float32 or float32 CSR, see
        # dense_adjacency_preferred) and plain-int representation
        # counters: how many distinct graphs this engine compiled to each
        # form (sampled as the engine.adjacency_dense gauge once per run).
        self._hear_adjacency = hear_adjacency(self._adjacency)
        self._adjacency_dense_builds = 0
        self._adjacency_csr_builds = 0
        self._count_build(self._hear_adjacency)
        # Batch-local table copies tuned for the hot loop: intp-typed
        # successor tables make every gather conversion-free (numpy converts
        # non-intp index arrays on each fancy-indexing call), and a float32
        # beep lookup feeds the hear product without a per-round astype.
        compiled = self._compiled
        self._succ_primary_ip = compiled.succ_primary.astype(np.intp)
        self._succ_secondary_ip = compiled.succ_secondary.astype(np.intp)
        self._next_by_code_ip = compiled.next_by_code.astype(np.intp)
        self._beep_f32 = compiled.is_beeping.astype(np.float32)
        # Swap cache for dynamic topologies: schedule graphs are deduplicated
        # objects, so one hear-adjacency compilation per distinct graph
        # serves every later round (and every replica) that revisits it.
        # Bounded LRU (entry count and dense-adjacency bytes): entries hold
        # a reference to their topology, so a live id key can never be
        # recycled by the allocator.
        dense_bytes = (
            4 * topology.n * topology.n
            if isinstance(self._hear_adjacency, np.ndarray)
            else 1
        )
        self._swap_cache_limit = max(
            2, min(self.SWAP_CACHE_LIMIT, self.SWAP_CACHE_BYTES // dense_bytes)
        )
        self._swap_cache: "OrderedDict[int, Tuple[Topology, object]]" = OrderedDict(
            [(id(topology), (topology, self._hear_adjacency))]
        )
        # Plain-int swap-cache counters, sampled once per run by the
        # telemetry layer; per-round cost is one integer increment.
        self._swap_cache_hits = 0
        self._swap_cache_misses = 0

    def _count_build(self, adjacency) -> None:
        if isinstance(adjacency, np.ndarray):
            self._adjacency_dense_builds += 1
        else:
            self._adjacency_csr_builds += 1

    def _adjacency_for(self, topology: Topology):
        """The hear-mask adjacency of a schedule graph, memoised."""
        entry = self._swap_cache.get(id(topology))
        if entry is None:
            self._swap_cache_misses += 1
            entry = (topology, hear_adjacency(topology.sparse_adjacency()))
            self._count_build(entry[1])
            self._swap_cache[id(topology)] = entry
            if len(self._swap_cache) > self._swap_cache_limit:
                self._swap_cache.popitem(last=False)
        else:
            self._swap_cache_hits += 1
            self._swap_cache.move_to_end(id(topology))
        return entry[1]

    def _cache_stats(self) -> dict:
        stats = {
            "swap_cache_hits": self._swap_cache_hits,
            "swap_cache_misses": self._swap_cache_misses,
            "adjacency_dense_builds": self._adjacency_dense_builds,
            "adjacency_csr_builds": self._adjacency_csr_builds,
        }
        if self._schedule is not None:
            stats.update(self._schedule.cache_stats())
        return stats

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def schedule(self) -> Optional[TopologySchedule]:
        """The topology schedule, or ``None`` for a static graph."""
        return self._schedule

    @property
    def protocol(self) -> BeepingProtocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def compiled(self) -> CompiledProtocol:
        """The compiled lookup tables shared by all replicas."""
        return self._compiled

    def run(
        self,
        seeds: Union[Sequence[SeedLike], ReplicaStreams],
        max_rounds: Optional[int] = None,
        initial_states: Optional[np.ndarray] = None,
        record_leader_counts: bool = True,
        stop_at_single_leader: bool = True,
        observers: Sequence[BatchObserver] = (),
    ) -> BatchResult:
        """Advance all replicas to convergence or the round budget.

        Parameters
        ----------
        seeds:
            One seed (or generator) per replica — replica ``r`` is, bit
            for bit, the one-replica run seeded with ``seeds[r]`` — or a
            prebuilt :class:`ReplicaStreams`.  Generator objects may be
            advanced up to a prefetch block past the rounds their replica
            consumed (the results are unaffected; see
            :class:`ReplicaStreams`).
        max_rounds:
            Shared round budget; defaults to :func:`default_round_budget`.
        initial_states:
            ``None`` (every node starts in the protocol's initial state), a
            ``(n,)`` vector shared by all replicas, or a ``(R, n)`` array of
            per-replica starts.
        record_leader_counts:
            Whether to keep per-replica leader-count trajectories (needed
            for trajectory-level parity checks; cheap, on by default).
        stop_at_single_leader:
            Retire replicas as soon as their leader count reaches one.
        observers:
            :class:`~repro.batch.observers.BatchObserver` instances reported
            every round with the whole ``(R, n)`` batch (retired rows
            frozen).  Observers never consume randomness, so attaching them
            does not perturb replica parity; their retire requests retire
            replicas exactly like the built-in single-leader stop.
        """
        streams = (
            seeds if isinstance(seeds, ReplicaStreams) else ReplicaStreams(seeds)
        )
        return self._run(
            streams,
            max_rounds,
            initial_states,
            record_leader_counts,
            stop_at_single_leader,
            observers,
            engine="batched",
        )

    def _run(
        self,
        streams: ReplicaStreams,
        max_rounds: Optional[int],
        initial_states: Optional[np.ndarray],
        record_leader_counts: bool,
        stop_at_single_leader: bool,
        observers: Sequence[BatchObserver],
        engine: str,
    ) -> BatchResult:
        """:meth:`run` on prepared streams; ``engine`` labels telemetry.

        :class:`~repro.beeping.engine.VectorizedEngine` runs its one seed
        through here, so its heartbeats and metrics keep the
        ``"vectorized"`` label.
        """
        run_started = time.perf_counter()
        num_replicas = len(streams)
        if max_rounds is None:
            max_rounds = default_round_budget(self._topology)
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0; got {max_rounds}")

        schedule = self._schedule
        if schedule is not None:
            if schedule.state_aware and num_replicas > 1:
                raise ConfigurationError(
                    "state-aware schedules depend on one replica's states, "
                    "but all replicas of a batch share the per-round "
                    f"adjacency; got {num_replicas} replicas — run them "
                    "sequentially or one replica per batch"
                )
            schedule.begin_run()

        n = self._topology.n
        compiled = self._compiled
        states = self._initial_batch(initial_states, num_replicas, n)

        pipeline: Optional[ObserverPipeline] = None
        if observers:
            pipeline = ObserverPipeline(
                observers,
                BatchRunInfo(
                    num_replicas=num_replicas,
                    n=n,
                    protocol_name=compiled.protocol_name,
                    topology_name=self._topology.name,
                    beeping_values=compiled.beeping_values,
                    leader_values=compiled.leader_values,
                    seeds=streams.seed_values,
                ),
            )

        counts = compiled.is_leader[states].sum(axis=1).astype(np.int64)
        convergence = np.where(counts == 1, 0, -1).astype(np.int64)
        rounds_executed = np.zeros(num_replicas, dtype=np.int64)
        count_rows: Optional[List[np.ndarray]] = (
            [counts.copy()] if record_leader_counts else None
        )

        active_mask = np.ones(num_replicas, dtype=bool)
        retire_now = np.zeros(num_replicas, dtype=bool)
        if stop_at_single_leader:
            retire_now |= counts == 1
        if pipeline is not None:
            requested = pipeline.observe_round(
                0,
                states,
                compiled.is_beeping[states],
                compiled.is_leader[states],
                active_mask.copy(),
            )
            if requested is not None:
                retire_now |= requested
        if retire_now.any():
            active_mask[retire_now] = False
            if pipeline is not None:
                pipeline.notify_retire(np.flatnonzero(retire_now), 0)
        active = np.flatnonzero(active_mask)

        adjacency = self._hear_adjacency
        beep_f32 = self._beep_f32
        is_leader = compiled.is_leader
        succ_primary = self._succ_primary_ip
        succ_secondary = self._succ_secondary_ip
        primary_probability = compiled.primary_probability
        prob_by_code = compiled.prob_by_code
        next_by_code = self._next_by_code_ip

        # In-flight heartbeat: looked up once per run; None costs a single
        # is-not-None check per round, and beats never touch the replica
        # streams, so records stay byte-identical with heartbeats on or off.
        from repro.telemetry.heartbeat import current_heartbeat

        heartbeat = current_heartbeat()

        # Prefetched uniforms: one Generator call per replica per `depth`
        # rounds instead of one per round (see ReplicaStreams.fill_blocks).
        # The depth formula lives in streams.prefetch_depth so the fused
        # kernels and this loop can never drift on buffer geometry.
        depth = prefetch_depth(num_replicas, n, self.RNG_BUFFER_BYTES)

        # Kernel selection, once per run: the fused kernel executes a
        # whole RNG block per call, so any run needing per-round Python
        # callbacks falls back to the interpreted loop — consuming the
        # exact same uniform blocks, so records are identical either way.
        policy = self._kernel_policy
        fallback = policy.fallback_reason(
            observers=pipeline is not None,
            schedule=schedule is not None,
            heartbeat=heartbeat is not None,
        )
        kernel_label = "numpy" if fallback is not None else policy.resolved
        compile_seconds: Optional[float] = None

        round_index = 0
        if kernel_label in ("numba", "python"):
            if kernel_label == "numba":
                kernel_fn, compile_seconds = compiled_fused_kernel()
            else:
                kernel_fn = fused_round_block
            # Initial states may be a read-only broadcast view; the kernel
            # transitions rows in place, so materialise a contiguous batch
            # (the interpreted loop rebinds `states` instead — same values).
            if not states.flags.writeable or not states.flags.c_contiguous:
                states = np.ascontiguousarray(states)
            indptr = np.ascontiguousarray(self._adjacency.indptr)
            indices = np.ascontiguousarray(self._adjacency.indices)
            record = count_rows is not None
            count_block = np.zeros(
                (depth if record else 0, num_replicas), dtype=np.int64
            )
            rng_buffer = np.empty((depth, num_replicas, n), dtype=np.float64)
            while round_index < max_rounds and active.size:
                # Fill the whole block for every active replica — exactly
                # the generator consumption of the interpreted loop, even
                # when fewer rounds than `depth` remain in the budget.
                streams.fill_blocks(active, rng_buffer)
                budget = min(depth, max_rounds - round_index)
                consumed = int(
                    kernel_fn(
                        states,
                        active_mask,
                        counts,
                        convergence,
                        rounds_executed,
                        indptr,
                        indices,
                        compiled.is_beeping,
                        is_leader,
                        succ_primary,
                        succ_secondary,
                        primary_probability,
                        rng_buffer,
                        round_index,
                        budget,
                        stop_at_single_leader,
                        record,
                        count_block,
                    )
                )
                if record:
                    for offset in range(consumed):
                        count_rows.append(count_block[offset].copy())
                round_index += consumed
                active = np.flatnonzero(active_mask)

        rng_buffer = np.empty((depth, num_replicas, n), dtype=np.float64)
        rng_position = depth

        while round_index < max_rounds and active.size:
            round_index += 1
            full = active.size == num_replicas

            sub = states if full else states[active]
            if schedule is not None:
                observed = sub[0] if schedule.state_aware else None
                topology = schedule.topology_at(round_index, states=observed)
                if topology.n != n:
                    raise ConfigurationError(
                        f"schedule changed the node count to {topology.n} in "
                        f"round {round_index}; expected {n}"
                    )
                adjacency = self._adjacency_for(topology)
            # One product for the whole batch over contiguous replica
            # columns: column r of the result is exactly what replica r's
            # standalone run computes.
            heard = hear_mask(
                np.ascontiguousarray(beep_f32[sub].T), adjacency
            ).T
            # One flat lookup per transition: code = 2 * state + heard
            # indexes the primary probability, and 2 * code + (u >= p)
            # the successor — u >= p is exactly "not u < p", so the same
            # uniforms pick the same successors as the two-table form.
            code = 2 * sub + heard
            probability = prob_by_code.take(code)
            if rng_position == depth:
                streams.fill_blocks(active, rng_buffer)
                rng_position = 0
            uniforms = (
                rng_buffer[rng_position]
                if full
                else rng_buffer[rng_position, active]
            )
            rng_position += 1
            new_states = next_by_code.take(2 * code + (uniforms >= probability))
            if full:
                states = new_states
            else:
                states[active] = new_states

            active_counts = is_leader[new_states].sum(axis=1)
            hit = active_counts == 1
            if stop_at_single_leader:
                # Hot path: a hit retires this round (an active replica can
                # never carry an older streak — it would already have
                # retired), so the streak bookkeeping degenerates to
                # "convergence = retirement round" and per-round count
                # writes are only needed when trajectories are recorded.
                if count_rows is not None:
                    counts[active] = active_counts
                    count_rows.append(counts.copy())
                retire = hit
            else:
                # Streak bookkeeping matching the standalone engine: a
                # count of one sets the convergence round if unset;
                # anything else clears it.  Retired rows stay frozen.
                counts[active] = active_counts
                if count_rows is not None:
                    count_rows.append(counts.copy())
                previous = convergence[active]
                convergence[active] = np.where(
                    hit, np.where(previous == -1, round_index, previous), -1
                )
                retire = np.zeros(active.size, dtype=bool)
            if pipeline is not None:
                requested = pipeline.observe_round(
                    round_index,
                    states,
                    compiled.is_beeping[states],
                    is_leader[states],
                    active_mask.copy(),
                )
                if requested is not None:
                    retire = retire | requested[active]
            if retire.any():
                # Retirement-time bookkeeping: a retiring replica stops
                # consuming randomness and work from here on.
                retired = active[retire]
                if stop_at_single_leader:
                    # Observers may retire replicas that did not converge;
                    # only the hits carry a convergence round.
                    convergence[retired] = np.where(hit[retire], round_index, -1)
                    counts[retired] = active_counts[retire]
                rounds_executed[retired] = round_index
                active_mask[retired] = False
                active = np.flatnonzero(active_mask)
                if pipeline is not None:
                    pipeline.notify_retire(retired, round_index)
            if heartbeat is not None and heartbeat.due(round_index):
                # Retired rows carry their final round in rounds_executed;
                # still-active rows have advanced round_index rounds each
                # but are only written back at loop exit.
                heartbeat.beat(
                    engine=engine,
                    round_index=round_index,
                    replicas=num_replicas,
                    active=int(active.size),
                    converged=int((convergence >= 0).sum()),
                    leaderless=int((active_counts == 0).sum()),
                    rounds_advanced=int(
                        rounds_executed.sum() + active.size * round_index
                    ),
                    kernel=kernel_label,
                )

        if active.size:
            # Replicas still active when the budget ran out (or that never
            # entered the loop) executed every round and keep their last
            # leader count.
            rounds_executed[active] = round_index
            counts[active] = is_leader[states[active]].sum(axis=1)

        if pipeline is not None:
            pipeline.finish(rounds_executed.copy())

        converged = (convergence != -1) & (counts == 1)
        leader_node = np.where(
            counts == 1, is_leader[states].argmax(axis=1), -1
        ).astype(np.int64)

        leader_counts: Optional[tuple] = None
        if count_rows is not None:
            # Replica r was active for rounds 1..rounds_executed[r], so its
            # trajectory is a prefix column of the stacked count rows.
            stacked = np.stack(count_rows)
            leader_counts = tuple(
                tuple(int(c) for c in stacked[: rounds_executed[r] + 1, r])
                for r in range(num_replicas)
            )

        result = BatchResult(
            converged=converged,
            convergence_round=np.where(converged, convergence, -1),
            rounds_executed=rounds_executed,
            final_leader_count=counts,
            leader_node=leader_node,
            seeds=streams.seed_values,
            leader_counts=leader_counts,
            final_states=states.astype(np.int8),
            protocol_name=compiled.protocol_name,
            topology_name=self._topology.name,
        )

        # What actually ran, for callers and telemetry: the resolved
        # kernel, the per-run fallback (if any) and the compile cost.
        self.last_kernel = {
            "requested": policy.requested,
            "resolved": policy.resolved,
            "active": kernel_label,
            "fallback": fallback,
            "compile_seconds": compile_seconds,
        }

        # One telemetry sample per run (a no-op unless a MetricsRegistry is
        # installed); imported lazily to keep the engine importable without
        # pulling the telemetry stack.
        from repro.telemetry.metrics import sample_engine_run

        gauges = {
            "engine.adjacency_dense": (
                1.0 if isinstance(self._hear_adjacency, np.ndarray) else 0.0
            ),
        }
        if compile_seconds is not None:
            gauges["engine.kernel_compile_seconds"] = float(compile_seconds)
        sample_engine_run(
            engine,
            rounds_advanced=int(rounds_executed.sum()),
            replicas=num_replicas,
            wall_seconds=time.perf_counter() - run_started,
            replicas_converged=int(converged.sum()),
            replicas_leaderless=int((counts == 0).sum()),
            cache_stats=self._cache_stats(),
            kernel=kernel_label,
            gauges=gauges,
        )
        return result

    def _initial_batch(
        self,
        initial_states: Optional[np.ndarray],
        num_replicas: int,
        n: int,
    ) -> np.ndarray:
        # States are kept in intp so that every fancy-indexing gather of the
        # hot loop avoids numpy's internal index-array conversion.
        compiled = self._compiled
        if initial_states is None:
            return np.full(
                (num_replicas, n), compiled.initial_state, dtype=np.intp
            )
        array = np.asarray(initial_states, dtype=np.intp)
        if array.shape == (n,):
            array = np.broadcast_to(array, (num_replicas, n))
        elif array.shape != (num_replicas, n):
            raise SimulationError(
                f"initial_states has shape {array.shape}; expected "
                f"({n},) or ({num_replicas}, {n})"
            )
        if (array < 0).any() or (array >= compiled.num_states).any():
            raise SimulationError("initial_states contains invalid state values")
        return array.copy()


def run_batch(
    topology: Topology,
    protocol: Optional[BeepingProtocol] = None,
    seeds: Sequence[SeedLike] = (0,),
    max_rounds: Optional[int] = None,
    kernel: Optional[str] = None,
) -> BatchResult:
    """Convenience wrapper: run a batch of BFW (or a given protocol) replicas.

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> result = run_batch(cycle_graph(16), seeds=range(8))
    >>> bool(result.converged.all())
    True
    >>> result.num_replicas
    8
    """
    from repro.core.bfw import BFWProtocol

    engine = BatchedEngine(topology, protocol or BFWProtocol(), kernel=kernel)
    return engine.run(list(seeds), max_rounds=max_rounds)
