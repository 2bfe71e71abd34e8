"""Per-replica random-number streams for the constant-state engine.

:class:`~repro.batch.engine.BatchedEngine` advances ``R`` independent
replicas in lockstep, but each replica must consume randomness from *its
own* generator so that replica ``r`` of a batch is bit-for-bit identical to
the one-replica run seeded the same way (which is what
:class:`~repro.beeping.engine.VectorizedEngine` executes).  This module owns
that bookkeeping: turning a heterogeneous sequence of seeds (ints,
generators, ``None``) into one generator per replica, and serving blocks of
per-round ``(R, n)`` uniforms from the streams that are still active.

A block is served one of two ways, with the same numbers and the same end
state either way:

* eagerly (:meth:`ReplicaStreams.fill_blocks`): one ``Generator.random``
  call per replica per block, which is what the fused kernels and small
  blocks, which read every uniform, need;
* by random access (:class:`StreamReader`): numpy's default bit generator
  is PCG64, a 128-bit LCG, so the uniform at any stream position can be
  computed from the block's start state without drawing the ones before it
  (the jump-ahead of O'Neill, *PCG*, HMC-CS-2014-0905).  A large block
  (:data:`~repro.batch.engine.RANDOM_ACCESS_ELEMENTS`) whose round reads
  a uniform only where a transition is random (for BFW, a waiting leader
  that hears nothing) computes just those, and every generator is
  advanced afterwards to where an eager fill leaves it.  Streams that are
  not plain PCG64, or hold a buffered 32-bit half that
  ``PCG64.advance`` would drop, are always drawn eagerly.

Replicas stay independent of the batch they run in either way
(independent ``Generator`` streams cannot be merged into one draw).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rng import seed_provenance
from repro.errors import ConfigurationError

SeedLike = Union[int, np.random.Generator, None]

#: Default memory cap (bytes) for the prefetched per-replica uniform blocks.
DEFAULT_RNG_BUFFER_BYTES = 8 << 20

#: Prefetching more than this many rounds ahead stops paying for itself.
MAX_PREFETCH_DEPTH = 128

#: One random-access read costs about as much as eagerly drawing this many
#: uniforms.  A :class:`StreamReader` replica reads its block's uniforms one
#: by one until its reads, at this price, would exceed the uniforms left in
#: the block; then the rest of its block is drawn eagerly (a ski-rental
#: rule, so a block never costs much more than an eager fill).  The
#: README's "Random-access crossover" grid records the measurements behind
#: the constant.
READ_COST_IN_DRAWS = 150

#: numpy's ``PCG64`` multiplier (``PCG_DEFAULT_MULTIPLIER_128``).  After
#: ``j`` draws from state ``s`` the state is ``MULT**j * s + (MULT**(j-1) +
#: ... + MULT + 1) * inc`` modulo ``2**128``; each draw steps the LCG, then
#: outputs the XSL-RR permutation of the new state.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1

#: Node offsets ``j`` split as ``q * _NODE_CHUNK + l``, so the jump tables
#: hold ``_NODE_CHUNK`` plus ``n / _NODE_CHUNK`` entries at any ``n``.
_NODE_CHUNK = 4096


def prefetch_depth(
    num_replicas: int,
    n: int,
    buffer_bytes: int = DEFAULT_RNG_BUFFER_BYTES,
    max_depth: int = MAX_PREFETCH_DEPTH,
) -> int:
    """Rounds of uniforms to prefetch per :meth:`ReplicaStreams.fill_blocks`.

    The single source of truth for the RNG-buffer geometry shared by the
    interpreted round loop and the fused kernels: both consume blocks of
    exactly this many ``(R, n)`` float64 uniform rounds, so the two paths
    cannot drift in how far they advance the per-replica generators (the
    buffer's *depth*, not just its contents, is part of the byte-parity
    contract — a replica's stream is advanced in whole blocks).
    """
    itemsize = np.dtype(np.float64).itemsize
    return max(
        1, min(max_depth, buffer_bytes // max(1, itemsize * num_replicas * n))
    )


def _jump(steps: int) -> Tuple[int, int]:
    """The PCG64 jump of ``steps`` draws, ``(mult, incr)``: state ``s``
    goes to ``mult * s + incr * inc`` modulo ``2**128`` (by squaring)."""
    mult, incr = 1, 0
    step_mult, step_incr = PCG64_MULTIPLIER, 1
    while steps:
        if steps & 1:
            mult = mult * step_mult & _MASK128
            incr = (incr * step_mult + step_incr) & _MASK128
        step_incr = (step_incr * step_mult + step_incr) & _MASK128
        step_mult = step_mult * step_mult & _MASK128
        steps >>= 1
    return mult, incr


def _powers(jump: Tuple[int, int], count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The jumps of ``0, 1, ..., count - 1`` times ``jump``, as two object
    arrays of Python ints (``mult``, ``incr``)."""
    step_mult, step_incr = jump
    mult, incr = [1], [0]
    for _ in range(count - 1):
        mult.append(mult[-1] * step_mult & _MASK128)
        incr.append((incr[-1] * step_mult + step_incr) & _MASK128)
    return np.array(mult, dtype=object), np.array(incr, dtype=object)


@lru_cache(maxsize=8)
def _jump_tables(n: int, depth: int) -> Tuple[np.ndarray, ...]:
    """The jump tables of a block of ``depth`` rounds of ``n`` uniforms.

    ``(mult, incr)`` pairs of object arrays: the jumps of ``k * n`` draws
    for ``k = 0..depth`` (round starts; ``depth`` is the whole block), of
    ``l < _NODE_CHUNK`` draws, and of ``q * _NODE_CHUNK`` draws for ``q <=
    n / _NODE_CHUNK``, so node offset ``q * _NODE_CHUNK + l`` composes the
    last two.
    """
    return (
        *_powers(_jump(n), depth + 1),
        *_powers(_jump(1), min(n + 1, _NODE_CHUNK)),
        *_powers(_jump(_NODE_CHUNK), n // _NODE_CHUNK + 1),
    )


def _pcg64_doubles(states: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles for an object array of PCG64 states.

    ``states`` may carry bits above ``2**128``; only the low 128 count.
    XSL-RR (the high and low 64-bit halves xor-ed, rotated right by the
    top six bits) gives the 64-bit output, and its top 53 bits scaled by
    ``2**-53`` the double.
    """
    low = (states & _MASK64).astype(np.uint64)
    high = (states >> 64 & _MASK64).astype(np.uint64)
    folded = high ^ low
    rotation = high >> 58
    output = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (output >> 11) * 2.0**-53


class ReplicaStreams:
    """One independent ``numpy`` generator per replica of a batch.

    Parameters
    ----------
    seeds:
        One entry per replica: an integer seed (recorded as provenance and
        passed to :func:`numpy.random.default_rng`), an existing generator
        (used as-is, recorded seed ``None``), or ``None`` (OS entropy).

    The engine serves uniforms in blocks (see :func:`prefetch_depth`), and
    every generator ends a run exactly where drawing each block it was
    active for, whole, leaves it — whether the block was drawn eagerly or
    read by random access (:class:`StreamReader`), and even when the run
    raises.  A caller who passes a ``Generator`` object and keeps drawing
    from it afterwards therefore sees it advanced in whole blocks, not by
    the draws the run used, on every engine entry point
    (``VectorizedEngine.run`` included), but always by the same amount.

    Attributes
    ----------
    uniforms_read, rows_materialised, eager_blocks:
        What runs took from these streams: uniforms computed by random
        access, replica-rounds of uniforms a :class:`StreamReader` drew
        from a generator, and :meth:`fill_blocks` calls.
    """

    def __init__(self, seeds: Sequence[SeedLike]) -> None:
        if len(seeds) == 0:
            raise ConfigurationError("a batch needs at least one replica seed")
        self._seed_values: Tuple[Optional[int], ...] = tuple(
            seed_provenance(seed) for seed in seeds
        )
        self._generators: List[np.random.Generator] = [
            seed if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
            for seed in seeds
        ]
        self.uniforms_read = 0
        self.rows_materialised = 0
        self.eager_blocks = 0

    def __len__(self) -> int:
        return len(self._generators)

    @property
    def seed_values(self) -> Tuple[Optional[int], ...]:
        """Integer seed per replica where known, ``None`` otherwise."""
        return self._seed_values

    def generator(self, replica: int) -> np.random.Generator:
        """The generator backing one replica's stream."""
        return self._generators[replica]

    def fill_blocks(self, active: np.ndarray, out: np.ndarray) -> None:
        """Prefetch ``out.shape[0]`` rounds of uniforms for each active replica.

        ``out`` has shape ``(depth, R, n)``; ``out[k, r]`` receives the
        ``k``-th upcoming round of replica ``r``'s stream.  A single
        ``Generator.random((depth, n))`` call produces exactly the same
        numbers as ``depth`` successive ``random(n)`` calls (the generator
        emits one flat stream of doubles, filled row-major), so prefetching
        gives every round the numbers a per-round draw would while
        amortising the per-replica Python call over ``depth`` rounds.
        """
        depth, _, n = out.shape
        for replica in active:
            out[:, replica, :] = self._generators[replica].random((depth, n))
        self.eager_blocks += 1

    def reader(
        self, active: np.ndarray, n: int, depth: int
    ) -> Optional["StreamReader"]:
        """A :class:`StreamReader` over the ``active`` replicas' streams, for
        blocks of ``depth`` rounds of ``n`` uniforms — or ``None`` (serve
        blocks eagerly) unless each of them has a bit generator of its own
        that is exactly ``numpy.random.PCG64`` with no buffered 32-bit half
        (``PCG64.advance`` would drop it)."""
        bits = [self._generators[replica].bit_generator for replica in active]
        if len({id(bit) for bit in bits}) < len(bits) or any(
            type(bit) is not np.random.PCG64 for bit in bits
        ):
            return None
        states = [bit.state for bit in bits]
        if any(state["has_uint32"] for state in states):
            return None
        return StreamReader(
            self,
            active,
            [state["state"]["state"] for state in states],
            [state["state"]["inc"] for state in states],
            n,
            depth,
        )


class StreamReader:
    """Random access into a batch's PCG64 streams, one block at a time.

    The engine calls :meth:`begin_block` where it would call
    :meth:`ReplicaStreams.fill_blocks`; then, for a round ``k`` of the
    block, :meth:`read` makes the uniforms at given ``(replica, node)``
    positions of ``buffer[k]`` hold what an eager fill would have put
    there, and :meth:`fill_rows` fills whole rows.  A replica reads values
    one by one (from Python-int copies of the block-start states, through
    :func:`_jump_tables`) until its reads would cost more than drawing the
    rest of its block, or a round's reads more than drawing a round
    (:data:`READ_COST_IN_DRAWS`); then the rest of its block is drawn from
    its generator into ``buffer``.  The next :meth:`begin_block` (for
    replicas that retired) and :meth:`close` (the run ends) advance every
    generator to the end of the last block it was active for, which is
    where eager fills leave it.
    """

    def __init__(
        self,
        streams: ReplicaStreams,
        active: np.ndarray,
        states: Sequence[int],
        incs: Sequence[int],
        n: int,
        depth: int,
    ) -> None:
        num_replicas = len(streams)
        self._streams = streams
        self._n = n
        self._depth = depth
        (
            self._round_mult,
            self._round_incr,
            self._low_mult,
            self._low_incr,
            self._high_mult,
            self._high_incr,
        ) = _jump_tables(n, depth)
        # Block-start state and increment of each replica's stream.
        self._state = np.zeros(num_replicas, dtype=object)
        self._inc = np.zeros(num_replicas, dtype=object)
        self._state[active] = np.array(states, dtype=object)
        self._inc[active] = np.array(incs, dtype=object)
        # Uniforms each generator has drawn this run, uniforms read by
        # random access in the current block, and which generators are
        # short of the current block's end.
        self._drawn = [0] * num_replicas
        self._read = np.zeros(num_replicas, dtype=np.int64)
        self._owed = np.zeros(num_replicas, dtype=bool)
        self._start: Optional[int] = None
        self._end = 0

    def begin_block(self, active: np.ndarray) -> None:
        """Start the next block of the ``active`` replicas; those that left
        during the last one (they retired) are settled at its end."""
        if self._start is None:
            self._start = 0
        else:
            left = self._owed.copy()
            left[active] = False
            self._settle(np.flatnonzero(left))
            self._state[active] = (
                self._round_mult[-1] * self._state[active]
                + self._round_incr[-1] * self._inc[active]
            ) & _MASK128
            self._start = self._end
        self._end = self._start + self._depth * self._n
        self._owed[active] = True
        self._read[active] = 0

    def read(
        self,
        k: int,
        active: np.ndarray,
        nodes: np.ndarray,
        columns: np.ndarray,
        buffer: np.ndarray,
    ) -> None:
        """Make ``buffer[k, active[columns], nodes]`` hold round ``k``'s
        uniforms of those replicas at those nodes."""
        counts = np.bincount(columns, minlength=active.size)
        counts *= self._owed[active]  # rows already drawn are in buffer
        spent = self._read[active] + counts
        hit = counts > 0
        # A replica draws the rest of its block once its reads cost more
        # than the uniforms left in it, or than one round of them does.
        draw = spent * READ_COST_IN_DRAWS > (self._depth - k) * self._n
        draw |= counts * READ_COST_IN_DRAWS > self._n
        draw &= hit
        if draw.any():
            for column in np.flatnonzero(draw):
                self._draw_rest(k, active[column], buffer)
            hit &= ~draw
        rows = np.flatnonzero(hit)
        if not rows.size:
            return
        replicas = active[rows]
        self._read[replicas] = spent[rows]
        picked = hit[columns]
        columns, nodes = columns[picked], nodes[picked]
        # Round k's start state, once per replica, then per value.
        base = (
            self._round_mult[k] * self._state[replicas]
            + self._round_incr[k] * self._inc[replicas]
        ) & _MASK128
        base = base[(np.cumsum(hit) - 1)[columns]]
        replicas = active[columns]
        inc = self._inc[replicas]
        offsets = nodes + 1  # round k's i-th uniform is its (i + 1)-th draw
        if self._n >= _NODE_CHUNK:
            high, offsets = np.divmod(offsets, _NODE_CHUNK)
            base = (
                self._high_mult[high] * base + self._high_incr[high] * inc
            ) & _MASK128
        buffer[k, replicas, nodes] = _pcg64_doubles(
            self._low_mult[offsets] * base + self._low_incr[offsets] * inc
        )
        self._streams.uniforms_read += columns.size

    def fill_rows(self, k: int, active: np.ndarray, buffer: np.ndarray) -> None:
        """Fill rounds ``k..depth-1`` of ``buffer`` for every ``active``
        replica."""
        for replica in active[self._owed[active]]:
            self._draw_rest(k, replica, buffer)

    def close(self) -> None:
        """Settle every generator still short of its eager position."""
        self._settle(np.flatnonzero(self._owed))

    def _settle(self, replicas: np.ndarray) -> None:
        # Advance owed generators to the current block's end.
        for replica in replicas:
            self._advance(replica, self._end)
            self._owed[replica] = False

    def _advance(self, replica: int, position: int) -> None:
        skip = position - self._drawn[replica]
        if skip:
            self._streams.generator(replica).bit_generator.advance(skip)
        self._drawn[replica] = position

    def _draw_rest(self, k: int, replica: int, buffer: np.ndarray) -> None:
        self._advance(replica, self._start + k * self._n)
        rows = self._depth - k
        buffer[k:, replica, :] = self._streams.generator(replica).random(
            (rows, self._n)
        )
        self._drawn[replica] = self._end
        self._owed[replica] = False
        self._streams.rows_materialised += rows


def independent_streams(master_seed: int, count: int) -> ReplicaStreams:
    """``count`` statistically independent streams spawned from one seed.

    Uses ``SeedSequence.spawn``, so streams do not overlap.  Note these are
    *not* the streams of any integer-seeded single run; for parity with a
    loop over ``VectorizedEngine.run(rng=seed)`` build the streams from the
    same integer seeds instead (see
    :func:`repro.experiments.seeds.trial_seeds`).
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1; got {count}")
    sequence = np.random.SeedSequence(master_seed)
    return ReplicaStreams(
        [np.random.default_rng(child) for child in sequence.spawn(count)]
    )
