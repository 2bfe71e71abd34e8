"""Fused round kernels: leave the Python interpreter off the hot loop.

The interpreted round loop in :class:`~repro.batch.engine.BatchedEngine`
dispatches ~10 numpy array operations per round (gathers, a matmul, a
``where``, the leader reduction, retire bookkeeping).  On small graphs the
Python dispatch overhead dominates; on million-node graphs every temporary
is a full ``(R, n)`` array.  This module fuses **one whole RNG prefetch
block** — up to :func:`~repro.batch.streams.prefetch_depth` rounds of the
beep→hear→transition→retire loop — into a single native call:

* :func:`fused_round_block` is written in nopython-compatible Python
  (explicit loops over the ``(R, n)`` state array and the CSR adjacency)
  and is compiled with ``numba.njit(cache=True)`` when numba is importable.
  It consumes the *same prefetched uniforms in the same order* as the
  interpreted loop, so records stay byte-identical — the kernel parity
  suite pins ``kernel="numba"`` vs ``kernel="numpy"`` vs the sequential
  reference across every registered protocol.
* ``kernel="python"`` runs the identical function uncompiled, so the
  kernel's *logic* is parity-testable (and covered by the tier-1 suite)
  on machines without numba; only the speed differs.  Written
  independently of the interpreted loop, it is also the bitwise oracle
  the constant-state parity harness checks every other engine against.

:class:`KernelPolicy` is the seam :class:`~repro.batch.engine.BatchedEngine`
resolves a ``kernel=`` spec through: ``"auto"`` picks numba when it is
importable and falls back to the interpreted numpy path whenever a run
needs per-round Python callbacks (observers, topology schedules, or an
ambient heartbeat emitter) — without breaking the RNG stream, since both
paths consume identical uniform blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_SPECS",
    "KernelPolicy",
    "fused_round_block",
    "kernel_compile_seconds",
    "numba_available",
    "resolve_kernel",
    "validate_kernel",
]

#: The kernel spec values ``validate_kernel`` accepts.
KERNEL_SPECS = ("auto", "numba", "numpy", "python")

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the tier-1 environment has no numba
    _numba = None


def numba_available() -> bool:
    """Whether the numba JIT compiler is importable in this process."""
    return _numba is not None


def validate_kernel(kernel: Optional[str]) -> Optional[str]:
    """Normalise and validate a kernel spec once, at construction time.

    ``None`` passes through (the caller's default applies); otherwise the
    spec must be one of :data:`KERNEL_SPECS`.  Availability is *not*
    checked here — a cell stamped ``kernel="numba"`` must validate on a
    submitting client that has no numba, because the worker that executes
    it may.  :func:`resolve_kernel` (called in the executing process)
    enforces importability.
    """
    if kernel is None:
        return None
    if not isinstance(kernel, str):
        raise ConfigurationError(
            f"kernel must be a string or None; got {type(kernel).__name__}"
        )
    text = kernel.strip().lower()
    if text in KERNEL_SPECS:
        return text
    raise ConfigurationError(
        f"unknown kernel {kernel!r}; expected one of "
        f"{', '.join(repr(s) for s in KERNEL_SPECS)}"
    )


@dataclass(frozen=True)
class KernelPolicy:
    """A resolved kernel choice for one :class:`BatchedEngine` instance.

    Attributes
    ----------
    requested:
        The spec the caller asked for (``"auto"`` when unspecified).
    resolved:
        What the spec resolved to in this process: ``"numba"``,
        ``"python"`` or ``"numpy"``.  Runs that need per-round Python
        callbacks still fall back to ``"numpy"`` per run (see
        :meth:`fallback_reason`).
    reason:
        One line explaining the resolution (what ``auto`` saw).
    """

    requested: str
    resolved: str
    reason: str

    def fallback_reason(
        self,
        observers: bool = False,
        schedule: bool = False,
        heartbeat: bool = False,
    ) -> Optional[str]:
        """Why this run must use the interpreted numpy path, or ``None``.

        The fused kernel executes a whole RNG block per native call, so
        anything that needs a per-round Python callback — observers,
        per-round topology swaps, heartbeat polling — sends the run down
        the interpreted path.  Both paths consume identical
        uniform blocks, so the fallback never perturbs the RNG stream.
        """
        if self.resolved == "numpy":
            return None
        if observers:
            return "observers need per-round Python callbacks"
        if schedule:
            return "topology schedules swap the adjacency every round"
        if heartbeat:
            return "an ambient heartbeat emitter polls every round"
        return None


def resolve_kernel(kernel: Optional[str]) -> KernelPolicy:
    """Resolve a kernel spec in the executing process.

    ``"auto"`` (and ``None``) picks numba when importable and the
    interpreted numpy path otherwise; ``"numba"`` demands numba and
    raises :class:`~repro.errors.ConfigurationError` when it is absent
    (an explicit request must not silently degrade); ``"python"`` runs
    the fused kernel uncompiled.
    """
    spec = validate_kernel(kernel) or "auto"
    if spec == "auto":
        if numba_available():
            return KernelPolicy(
                requested=spec,
                resolved="numba",
                reason="auto: numba importable, fused kernel compiled per worker",
            )
        return KernelPolicy(
            requested=spec,
            resolved="numpy",
            reason="auto: numba not importable, interpreted numpy path",
        )
    if spec == "numba":
        if not numba_available():
            raise ConfigurationError(
                "kernel='numba' was requested but numba is not importable "
                "in this process; install the 'kernels' extra "
                "(pip install repro[kernels]) or use kernel='auto'"
            )
        return KernelPolicy(
            requested=spec, resolved="numba", reason="explicit numba request"
        )
    if spec == "python":
        return KernelPolicy(
            requested=spec,
            resolved="python",
            reason="explicit request: fused kernel, uncompiled",
        )
    return KernelPolicy(
        requested=spec,
        resolved="numpy",
        reason="explicit request: interpreted numpy path",
    )


# --------------------------------------------------------------------- #
# The fused scalar kernel (numba-compilable)
# --------------------------------------------------------------------- #


def _fused_round_block(
    states,  # (R, n) intp, mutated in place
    active_mask,  # (R,) bool, mutated in place
    counts,  # (R,) int64, mutated in place
    convergence,  # (R,) int64, mutated in place
    rounds_executed,  # (R,) int64, mutated in place
    indptr,  # CSR row pointers of the adjacency
    indices,  # CSR column indices of the adjacency
    is_beeping,  # (S,) bool
    is_leader,  # (S,) bool
    succ_primary,  # (S, 2) intp
    succ_secondary,  # (S, 2) intp
    primary_probability,  # (S, 2) float64
    rng_block,  # (depth, R, n) float64 prefetched uniforms
    start_round,  # rounds already executed before this block
    budget,  # rounds to execute from this block (<= depth)
    stop_at_single_leader,  # bool
    record_counts,  # bool: write per-round leader counts into count_block
    count_block,  # (depth, R) int64 out, or (0, R) when record_counts off
):
    """Execute up to ``budget`` rounds of the batch loop over one RNG block.

    Semantically identical to ``budget`` iterations of the interpreted
    loop in :meth:`BatchedEngine.run` with no observers, schedule or
    heartbeat: per active replica, compute the beep mask, OR it over the
    CSR neighbourhoods (the same truth value the matmul path computes),
    gather the successor tables by (state, heard), resolve the
    probabilistic transition against ``rng_block[k, r, u]`` — the exact
    uniform the interpreted loop would consume — and apply the
    single-leader retire / convergence-streak bookkeeping in place.
    Returns the number of rounds consumed (less than ``budget`` only
    when every replica retired inside the block).
    """
    num_replicas, n = states.shape
    beeping = np.empty(n, np.bool_)
    consumed = 0
    for k in range(budget):
        any_active = False
        for r in range(num_replicas):
            if active_mask[r]:
                any_active = True
                break
        if not any_active:
            break
        round_index = start_round + k + 1
        for r in range(num_replicas):
            if not active_mask[r]:
                continue
            row = states[r]
            uniforms = rng_block[k, r]
            any_beep = False
            for u in range(n):
                b = is_beeping[row[u]]
                beeping[u] = b
                if b:
                    any_beep = True
            leader_count = 0
            for u in range(n):
                heard = 0
                if any_beep:
                    if beeping[u]:
                        heard = 1
                    else:
                        for j in range(indptr[u], indptr[u + 1]):
                            if beeping[indices[j]]:
                                heard = 1
                                break
                state = row[u]
                if uniforms[u] < primary_probability[state, heard]:
                    new_state = succ_primary[state, heard]
                else:
                    new_state = succ_secondary[state, heard]
                row[u] = new_state
                if is_leader[new_state]:
                    leader_count += 1
            if stop_at_single_leader:
                hit = leader_count == 1
                if record_counts or hit:
                    counts[r] = leader_count
                if hit:
                    convergence[r] = round_index
                    rounds_executed[r] = round_index
                    active_mask[r] = False
            else:
                counts[r] = leader_count
                if leader_count == 1:
                    if convergence[r] == -1:
                        convergence[r] = round_index
                else:
                    convergence[r] = -1
        if record_counts:
            # Retired rows keep their frozen counts — the row snapshot
            # matches the interpreted loop's counts.copy() per round.
            for r in range(num_replicas):
                count_block[k, r] = counts[r]
        consumed += 1
    return consumed


#: The uncompiled fused kernel (``kernel="python"``): the same function
#: object numba compiles, so its logic is testable without numba.
fused_round_block = _fused_round_block

_COMPILED_KERNEL = None
_COMPILE_SECONDS: Optional[float] = None


def kernel_compile_seconds() -> Optional[float]:
    """Wall seconds the numba kernel took to compile in this process.

    ``None`` until the first ``kernel="numba"`` run compiles it (workers
    compile once per process; ``cache=True`` makes later processes load
    the on-disk artifact, so this also measures the cache-hit cost).
    """
    return _COMPILE_SECONDS


def compiled_fused_kernel():
    """The ``njit``-compiled fused kernel, compiling on first use.

    Returns ``(kernel, compile_seconds)``.  Compilation happens at most
    once per process and is timed through a warm-up call on a minimal
    batch, so engines can report the compile cost via the metrics
    registry without paying it on the hot path.
    """
    global _COMPILED_KERNEL, _COMPILE_SECONDS
    if _COMPILED_KERNEL is not None:
        return _COMPILED_KERNEL, _COMPILE_SECONDS
    if _numba is None:  # pragma: no cover - guarded by resolve_kernel
        raise ConfigurationError(
            "numba is not importable; cannot compile the fused kernel"
        )
    started = time.perf_counter()
    kernel = _numba.njit(cache=True)(_fused_round_block)
    # Warm up on a one-node, one-replica, already-retired batch: triggers
    # (or loads) the compilation for the exact argument types the engine
    # passes, without consuming any randomness.
    kernel(
        np.zeros((1, 1), dtype=np.intp),
        np.zeros(1, dtype=np.bool_),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(2, dtype=np.int32),
        np.zeros(0, dtype=np.int32),
        np.zeros(1, dtype=np.bool_),
        np.zeros(1, dtype=np.bool_),
        np.zeros((1, 2), dtype=np.intp),
        np.zeros((1, 2), dtype=np.intp),
        np.zeros((1, 2), dtype=np.float64),
        np.zeros((1, 1, 1), dtype=np.float64),
        0,
        1,
        True,
        False,
        np.zeros((0, 1), dtype=np.int64),
    )
    _COMPILE_SECONDS = time.perf_counter() - started
    _COMPILED_KERNEL = kernel
    return _COMPILED_KERNEL, _COMPILE_SECONDS
