"""The constant-state engine: all replicas of a sweep in one array.

Every statistical claim of the paper is reproduced by running dozens of
independently seeded replicas of the same (protocol, graph) cell.
:class:`BatchedEngine` advances all of them in one round loop, and
:class:`~repro.beeping.engine.VectorizedEngine` is its one-replica façade,
so every constant-state run — a sweep cell or a single seed — goes through
the same code:

* the active replicas' states live in one node-major ``(n, A)`` unsigned
  array (``A`` active replicas, one column each), every state bit-encoded
  as ``state << 2 | leader << 1 | beeping`` (:func:`encode_protocol`), so
  the beep columns and the leader counts are elementwise passes over it;
* "who hears a beep" is one product of the adjacency (float32 CSR, or
  dense on small or dense graphs — see :func:`dense_adjacency_preferred`)
  with those ``(n, A)`` beep columns, in the layout the product wants;
* each transition is one lookup of ``code = encoded << 1 | heard`` in a
  deterministic successor table; a sentinel marks the codes whose
  transition is random (for BFW, only a waiting leader that hears
  nothing), and only those nodes read their uniform from the ``(R, n)``
  per-round block of per-replica generator streams, so that each replica
  consumes exactly the randomness its standalone run would.  A block of
  at least :data:`RANDOM_ACCESS_ELEMENTS` elements computes just those
  uniforms by random access into the replicas' PCG64 streams
  (:class:`~repro.batch.streams.StreamReader`), drawing a round's rows
  whole only when :data:`DENSE_COIN_SHARE` of its nodes or more need one
  (for BFW, round 1 from the all-leader start); a smaller block draws
  each replica's whole block eagerly.  Either way every generator ends
  where the eager draws leave it.  Small blocks
  (:data:`SMALL_BLOCK_ELEMENTS`), where per-call
  overhead rather than data volume sets the cost, take one dense coin
  step with ``intp`` table gathers instead;
* replicas that reach a single-leader configuration are retired: their
  columns are compacted out of the block and their decoded rows written
  into the ``(R, n)`` result, so they stop consuming randomness and stop
  costing work while the batch keeps advancing the stragglers.  When to
  retire, and everything else a run reports — convergence rounds,
  observers, heartbeats, leader-count trajectories, the result and its
  metrics sample — is the :class:`~repro.batch.ledger._ReplicaLedger`'s,
  shared with the memory engine; this module only advances states.

A run takes one of two round paths: the fused scalar kernel of
:mod:`repro.batch.kernels` (compiled with numba when available), or the
interpreted numpy loop, which serves every run that needs per-round Python
callbacks.  Both consume the same uniform blocks (the fused kernel always
draws them eagerly), so replica ``r`` of a
batch seeded with ``seeds[r]`` is bit for bit the one-replica run seeded
the same way — same convergence round, same final leader, same
leader-count trajectory.  The parity tests in ``tests/batch/`` check every
path against the uncompiled fused kernel (``kernel="python"``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.kernels import (
    KernelPolicy,
    compiled_fused_kernel,
    fused_round_block,
    resolve_kernel,
)
from repro.batch.ledger import _ReplicaLedger
from repro.batch.observers import BatchObserver
from repro.batch.results import BatchResult
from repro.batch.streams import (
    DEFAULT_RNG_BUFFER_BYTES,
    ReplicaStreams,
    SeedLike,
    prefetch_depth,
)
from repro.beeping.engine import CompiledProtocol, compile_protocol
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


#: Encoded blocks of at most this many elements (n times the number of
#: active replicas) are held as intp and take the dense coin step of the
#: interpreted round; larger ones are held in the protocol's narrow dtype
#: and resolve coins only where a transition is random.  The README's
#: "Small-block crossover" grid records the measurements behind the
#: constant.
SMALL_BLOCK_ELEMENTS = 4096

#: A large block's round resolves every node's coin, like a small block,
#: once at least this share of its nodes has a random transition (for
#: BFW, round 1 from the all-leader start); below it, only those nodes'
#: coins are resolved.  Measured on BFW tables: at R = 256 on
#: torus(32x32) the dense step costs ~2 ms a round whatever the share,
#: the sparse one ~0.5 ms at 1%, ~2 ms at 20-30% and ~17 ms at 100%.
DENSE_COIN_SHARE = 0.25

#: The eager/random-access crossover: a block of at least this many
#: elements reads its uniforms by random access into the replicas' streams
#: (:meth:`~repro.batch.streams.ReplicaStreams.reader`); a smaller one
#: draws each replica's whole block eagerly, because a random-access round
#: has a fixed cost that a few active replicas' eager draws undercut.  The
#: README's "Random-access crossover" grid records the measurements behind
#: the constant.
RANDOM_ACCESS_ELEMENTS = 32768


def sized_block(encoded: np.ndarray) -> np.ndarray:
    """An encoded ``(n, A)`` block, C-contiguous, in its size class's dtype.

    Small blocks (:data:`SMALL_BLOCK_ELEMENTS`) become ``intp``, so their
    table gathers skip numpy's per-call index conversion; larger ones keep
    the narrow dtype of :func:`encode_protocol`.
    """
    if encoded.size <= SMALL_BLOCK_ELEMENTS:
        return np.ascontiguousarray(encoded, dtype=np.intp)
    return np.ascontiguousarray(encoded)


@dataclass(frozen=True)
class EncodedProtocol:
    """A compiled protocol's tables over bit-encoded states.

    The interpreted round loop stores each state ``s`` as ``s << 2 |
    leader << 1 | beeping`` in the narrowest unsigned dtype that holds the
    transition codes ``encoded << 1 | heard`` (``uint8`` up to 32 state
    slots, ``uint16`` above), so the beep bit, the leader bit and the
    transition code are elementwise operations on the encoded array.

    Attributes
    ----------
    hot:
        The sentinel (the dtype's maximum, never a valid encoding) that
        :attr:`step` holds where a transition is random.
    encode:
        ``(num_states,)``: state value -> encoded state, in the narrow
        dtype.
    beep_f32:
        ``(4 * num_states,)``: encoded state -> float32 beep indicator.
    step:
        ``(8 * num_states,)``: code -> encoded successor when the primary
        probability ``p`` is ``>= 1`` (primary) or ``<= 0`` (secondary,
        since every uniform satisfies ``u >= 0``), :attr:`hot` otherwise.
    prob:
        ``(8 * num_states,)``: code -> primary probability.
    coin:
        ``(16 * num_states,)``: ``2 * code + (u >= p)`` -> encoded successor
        (``0`` = primary, ``1`` = secondary) as ``intp``, valid for every
        code.
    leader_ip:
        ``(4 * num_states,)``: encoded state -> ``intp`` leader indicator.
    step_bytes:
        :attr:`step` padded to a 256-byte translation table (``uint8``
        only, else ``None``).
    """

    hot: int
    encode: np.ndarray
    beep_f32: np.ndarray
    step: np.ndarray
    prob: np.ndarray
    coin: np.ndarray
    leader_ip: np.ndarray
    step_bytes: Optional[bytes]

    def leader_counts(self, encoded: np.ndarray) -> np.ndarray:
        """Leaders per column of an encoded ``(n, A)`` block (int32)."""
        return np.add.reduce(encoded & 2, axis=0, dtype=np.int32) >> 1

    def step_of(self, codes: np.ndarray) -> np.ndarray:
        """:attr:`step` at every code of a C-contiguous array, as a new array.

        For ``uint8`` codes this is ``bytes.translate`` — one C loop over a
        256-byte table, several times faster than ``take``, which converts
        the indices to ``intp`` and bounds-checks every element.
        """
        if self.step_bytes is None:
            return self.step.take(codes)
        successors = bytearray(codes).translate(self.step_bytes)
        return np.frombuffer(successors, dtype=np.uint8).reshape(codes.shape)


def encode_protocol(compiled: CompiledProtocol) -> EncodedProtocol:
    """The bit-encoded tables of ``compiled`` (see :class:`EncodedProtocol`).

    Code slots whose leader/beeping bits disagree with their state are
    never produced by the round loop; they carry the tables of their state
    like the valid slot does.
    """
    num_states = compiled.num_states
    dtype = np.uint8 if num_states <= 32 else np.uint16
    hot = int(np.iinfo(dtype).max)
    values = np.arange(num_states)
    encode = (
        (values << 2)
        | (compiled.is_leader.astype(np.intp) << 1)
        | compiled.is_beeping.astype(np.intp)
    ).astype(dtype)
    slots = np.arange(4 * num_states) >> 2  # encoded state -> state
    # Encoded code -> the compiled flat code 2 * state + heard.
    codes = np.arange(8 * num_states)
    flat = (codes >> 3 << 1) | (codes & 1)
    prob = compiled.prob_by_code[flat]
    primary = encode[compiled.next_by_code[2 * flat]]
    secondary = encode[compiled.next_by_code[2 * flat + 1]]
    step = np.where(
        prob >= 1.0, primary, np.where(prob <= 0.0, secondary, hot)
    ).astype(dtype)
    coin = np.stack((primary, secondary), axis=-1).reshape(-1)
    step_bytes = None
    if dtype is np.uint8:
        padded = np.full(256, hot, dtype=np.uint8)
        padded[: step.size] = step
        step_bytes = padded.tobytes()
    return EncodedProtocol(
        hot=hot,
        encode=encode,
        beep_f32=compiled.is_beeping[slots].astype(np.float32),
        step=step,
        prob=prob,
        coin=coin.astype(np.intp),
        leader_ip=compiled.is_leader[slots].astype(np.intp),
        step_bytes=step_bytes,
    )


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
        # The fused kernel's intp successor tables, and the bit-encoded
        # tables of the interpreted loop.
        compiled = self._compiled
        self._succ_primary_ip = compiled.succ_primary.astype(np.intp)
        self._succ_secondary_ip = compiled.succ_secondary.astype(np.intp)
        self._encoded = encode_protocol(compiled)
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
            prebuilt :class:`ReplicaStreams`.  Generator objects end the
            run advanced by whole prefetch blocks, the same on every path
            (see :class:`ReplicaStreams`).
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
        return self._run(
            seeds,
            max_rounds,
            initial_states,
            record_leader_counts,
            stop_at_single_leader,
            observers,
            engine="batched",
        )

    def _run(
        self,
        seeds: Union[Sequence[SeedLike], ReplicaStreams],
        max_rounds: Optional[int],
        initial_states: Optional[np.ndarray],
        record_leader_counts: bool,
        stop_at_single_leader: bool,
        observers: Sequence[BatchObserver],
        engine: str,
    ) -> BatchResult:
        """:meth:`run`, with ``engine`` labelling telemetry.

        :class:`~repro.beeping.engine.VectorizedEngine` runs its one seed
        through here, so its heartbeats and metrics keep the
        ``"vectorized"`` label.
        """
        compiled = self._compiled
        ledger = _ReplicaLedger(
            engine,
            self._topology,
            compiled.protocol_name,
            seeds,
            max_rounds,
            record=record_leader_counts,
            stop=stop_at_single_leader,
        )
        streams, max_rounds = ledger.streams, ledger.max_rounds
        num_replicas = ledger.num_replicas

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
        is_leader = compiled.is_leader
        states = self._initial_batch(initial_states, num_replicas, n)
        active = ledger.start(
            is_leader[states].sum(axis=1),
            observers,
            (states, compiled.is_beeping[states], is_leader[states])
            if observers
            else None,
            beeping_values=compiled.beeping_values,
            leader_values=compiled.leader_values,
        )

        adjacency = self._hear_adjacency

        # Prefetched uniforms: one Generator call per replica per `depth`
        # rounds instead of one per round (see ReplicaStreams.fill_blocks).
        # The depth formula lives in streams.prefetch_depth so the fused
        # kernels and this loop can never drift on buffer geometry.
        depth = prefetch_depth(num_replicas, n, self.RNG_BUFFER_BYTES)
        rng_buffer = np.empty((depth, num_replicas, n), dtype=np.float64)

        # Kernel selection, once per run: the fused kernel executes a
        # whole RNG block per call, so any run needing per-round Python
        # callbacks falls back to the interpreted loop — consuming the
        # exact same uniform blocks, so records are identical either way.
        policy = self._kernel_policy
        fallback = policy.fallback_reason(
            observers=ledger.pipeline is not None,
            schedule=schedule is not None,
            heartbeat=ledger.heartbeat is not None,
        )
        kernel_label = "numpy" if fallback is not None else policy.resolved
        ledger.kernel = kernel_label
        compile_seconds: Optional[float] = None

        round_index = 0
        if kernel_label in ("numba", "python"):
            if kernel_label == "numba":
                kernel_fn, compile_seconds = compiled_fused_kernel()
            else:
                kernel_fn = fused_round_block
            indptr = np.ascontiguousarray(self._adjacency.indptr)
            indices = np.ascontiguousarray(self._adjacency.indices)
            count_rows = ledger.rows
            record = count_rows is not None
            count_block = np.zeros(
                (depth if record else 0, num_replicas), dtype=np.int64
            )
            while round_index < max_rounds and active.size:
                # Fill the whole block for every active replica — exactly
                # the generator consumption of the interpreted loop, even
                # when fewer rounds than `depth` remain in the budget.
                streams.fill_blocks(active, rng_buffer)
                budget = min(depth, max_rounds - round_index)
                consumed = int(
                    kernel_fn(
                        states,
                        ledger.active_mask,
                        ledger.counts,
                        ledger.convergence,
                        ledger.rounds_executed,
                        indptr,
                        indices,
                        compiled.is_beeping,
                        is_leader,
                        self._succ_primary_ip,
                        self._succ_secondary_ip,
                        compiled.primary_probability,
                        rng_buffer,
                        round_index,
                        budget,
                        stop_at_single_leader,
                        record,
                        count_block,
                    )
                )
                if record:
                    count_rows.extend(count_block[:consumed].copy())
                round_index += consumed
                active = np.flatnonzero(ledger.active_mask)
        else:
            # The interpreted loop over the active replicas' encoded (n, A)
            # block (see encode_protocol and the module docstring).
            tables = self._encoded
            encoded = sized_block(tables.encode.take(states[active].T))
            # A block of RANDOM_ACCESS_ELEMENTS or more reads its uniforms
            # by random access where its streams allow it (see
            # StreamReader), a smaller one eagerly.
            reader = (
                streams.reader(active, n, depth)
                if encoded.size >= RANDOM_ACCESS_ELEMENTS
                else None
            )
            rng_position = depth
            quiet = ledger.quiet
            pipeline = ledger.pipeline
            close_round = ledger.close_round
            try:
                while round_index < max_rounds and active.size:
                    round_index += 1
                    if schedule is not None:
                        observed = (
                            (encoded[:, 0] >> 2).astype(np.intp)
                            if schedule.state_aware
                            else None
                        )
                        topology = schedule.topology_at(
                            round_index, states=observed
                        )
                        if topology.n != n:
                            raise ConfigurationError(
                                f"schedule changed the node count to "
                                f"{topology.n} in round {round_index}; "
                                f"expected {n}"
                            )
                        adjacency = self._adjacency_for(topology)
                    if rng_position == depth:
                        if reader is None:
                            streams.fill_blocks(active, rng_buffer)
                        else:
                            reader.begin_block(active)
                        rng_position = 0
                    uniforms = rng_buffer[rng_position]
                    rng_position += 1
                    # One product for the whole batch over the replica
                    # columns: column j of the result is exactly what
                    # replica active[j]'s standalone run computes.  u >= p
                    # picks the secondary successor, exactly "not u < p" of
                    # the fused kernel.
                    block_dtype = encoded.dtype
                    if block_dtype == np.intp:
                        # A small block (see sized_block): the fewest calls,
                        # intp table gathers and one coin per node.
                        heard = hear_mask(tables.beep_f32.take(encoded), adjacency)
                        code = encoded + encoded
                        code += heard
                        dense = True
                    else:
                        heard = hear_mask(
                            (encoded & 1).astype(np.float32), adjacency
                        )
                        # code = encoded << 1 | heard, as an add (uint8
                        # shifts are not vectorised) and an OR with the
                        # mask's bytes.
                        code = np.add(encoded, encoded)
                        code |= heard.view(np.uint8)
                        # Deterministic successors in one lookup; only the
                        # nodes whose transition is random (the hot
                        # sentinel) need a coin.
                        encoded = tables.step_of(code)
                        flat = np.flatnonzero(encoded == tables.hot)
                        dense = flat.size >= DENSE_COIN_SHARE * encoded.size
                        if dense:
                            code = code.astype(np.intp)
                        elif flat.size:
                            rows, cols = np.divmod(flat, encoded.shape[1])
                            if reader is not None:
                                reader.read(
                                    rng_position - 1, active, rows, cols, rng_buffer
                                )
                            hot_code = code.ravel().take(flat).astype(np.intp)
                            coins = uniforms[active.take(cols), rows] >= (
                                tables.prob.take(hot_code)
                            )
                            encoded.ravel()[flat] = tables.coin.take(
                                2 * hot_code + coins
                            )
                    if dense:
                        # Every node tosses its coin (a deterministic
                        # transition ignores it): intp code -> successor.
                        if reader is not None:
                            reader.fill_rows(rng_position - 1, active, rng_buffer)
                        if active.size < num_replicas:
                            uniforms = uniforms[active]
                        coins = uniforms.T >= tables.prob.take(code)
                        code += code
                        code += coins
                        encoded = tables.coin.take(code).astype(
                            block_dtype, copy=False
                        )
                    if block_dtype == np.intp:
                        active_counts = np.add.reduce(
                            tables.leader_ip.take(encoded), axis=0
                        )
                    else:
                        active_counts = tables.leader_counts(encoded)
                    if quiet and not (active_counts == 1).any():
                        continue
                    observed_round = None
                    if pipeline is not None:
                        # Observers see the whole (R, n) batch, retired rows
                        # frozen: decode the active columns into it.
                        states[active] = (encoded >> 2).T
                        observed_round = (
                            states,
                            compiled.is_beeping[states],
                            is_leader[states],
                        )
                    retire = close_round(
                        round_index, active, active_counts, None, observed_round
                    )
                    if retire is None:
                        continue
                    # A retiring replica stops consuming randomness and work
                    # from here on, and its column leaves the encoded block.
                    states[active[retire]] = (encoded[:, retire] >> 2).T
                    keep = ~retire
                    encoded = sized_block(np.compress(keep, encoded, axis=1))
                    active = active[keep]
                    if (
                        reader is not None
                        and encoded.size < RANDOM_ACCESS_ELEMENTS
                    ):
                        # The block fell below the crossover: the rest of
                        # this block is drawn now and later blocks are
                        # filled eagerly.
                        reader.fill_rows(rng_position, active, rng_buffer)
                        reader.close()
                        reader = None
            finally:
                # Every generator ends where eager fills leave it, even
                # when an observer or a schedule raised mid-block.
                if reader is not None:
                    reader.close()
            states[active] = (encoded >> 2).T

        # What actually ran, for callers and telemetry: the resolved
        # kernel, the per-run fallback (if any) and the compile cost.
        self.last_kernel = {
            "requested": policy.requested,
            "resolved": policy.resolved,
            "active": kernel_label,
            "fallback": fallback,
            "compile_seconds": compile_seconds,
        }
        gauges = {
            "engine.adjacency_dense": float(
                isinstance(self._hear_adjacency, np.ndarray)
            )
        }
        if compile_seconds is not None:
            gauges["engine.kernel_compile_seconds"] = float(compile_seconds)
        return ledger.finish(
            round_index,
            active,
            is_leader[states],
            final_states=states.astype(np.int8),
            cache_stats=self._cache_stats(),
            gauges=gauges,
        )

    def _initial_batch(
        self,
        initial_states: Optional[np.ndarray],
        num_replicas: int,
        n: int,
    ) -> np.ndarray:
        # The (R, n) state-value array the run reports in; intp, since the
        # fused kernel and the initial encoding index tables with it.
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
