"""Per-replica random-number streams for the constant-state engine.

:class:`~repro.batch.engine.BatchedEngine` advances ``R`` independent
replicas in lockstep, but each replica must consume randomness from *its
own* generator so that replica ``r`` of a batch is bit-for-bit identical to
the one-replica run seeded the same way (which is what
:class:`~repro.beeping.engine.VectorizedEngine` executes).  This module owns
that bookkeeping: turning a heterogeneous sequence of seeds (ints,
generators, ``None``) into one generator per replica, and prefetching
blocks of per-round ``(R, n)`` uniforms row by row from the streams that
are still active.

Drawing row by row costs one ``Generator.random`` call per replica per
prefetch block, which is negligible next to the round work, and it is the
only scheme that keeps replicas independent of the batch they run in
(independent ``Generator`` streams cannot be merged into one draw).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rng import seed_provenance
from repro.errors import ConfigurationError

SeedLike = Union[int, np.random.Generator, None]

#: Default memory cap (bytes) for the prefetched per-replica uniform blocks.
DEFAULT_RNG_BUFFER_BYTES = 8 << 20

#: Prefetching more than this many rounds ahead stops paying for itself.
MAX_PREFETCH_DEPTH = 128


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


class ReplicaStreams:
    """One independent ``numpy`` generator per replica of a batch.

    Parameters
    ----------
    seeds:
        One entry per replica: an integer seed (recorded as provenance and
        passed to :func:`numpy.random.default_rng`), an existing generator
        (used as-is, recorded seed ``None``), or ``None`` (OS entropy).

    .. warning::
        The engine prefetches uniforms in blocks, so a stream may be
        advanced up to a block beyond the rounds its replica actually
        consumed.  The replica's *results* are unaffected, but a caller who
        passes a ``Generator`` object and keeps drawing from it afterwards
        sees it advanced in whole blocks, not by the draws the run used —
        on every engine entry point, ``VectorizedEngine.run`` included.
        Pass integer seeds when the generator's state matters beyond the
        run.
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
