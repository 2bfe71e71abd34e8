"""Execution cells: the unit of work every backend schedules.

A *cell* is one (protocol, graph) configuration together with the seeds of
all its replicas — exactly the granularity at which the sweeps behind the
paper's statistical claims are embarrassingly parallel.  Cells are plain
frozen dataclasses built from :class:`~repro.experiments.config.ProtocolSpecConfig`
and :class:`~repro.experiments.config.GraphSpec`, so they pickle cleanly and
can be shipped to spawn-started worker processes; the topology and protocol
objects are rebuilt inside the executing process from the same deterministic
seed derivations the per-trial loop uses, which keeps every backend's output
byte-identical under matched seeds.

Two executors share this module:

* :func:`execute_cell_sequential` — today's per-trial loop: one seeded
  single-replica run per seed;
* :func:`execute_cell_batched` — the batched path: all of the cell's
  replicas advance together through
  :class:`~repro.experiments.montecarlo.MonteCarloRunner` (which itself
  falls back to the loop for standalone runners).

Both return a :class:`CellOutcome`, whose per-seed results are
replica-for-replica identical between the two executors.

Cells also shard: :func:`split_cell` slices a cell's seed list into
independent sub-cells of at most ``shard_size`` seeds, and
:func:`merge_cell_outcomes` folds the executed shards back into one
outcome in original seed order.  Because every engine gives each replica
its own RNG stream (batch-size and order independence, pinned by the
parity harness), the merged outcome is byte-identical to running the
whole cell at once — records, batch arrays, observations and trace rows
included.  This is what lets :class:`~repro.exec.backends.ProcessBackend`
spread a single large cell across all of its workers instead of pinning
one core.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.batch.kernels import validate_kernel
from repro.batch.observers import (
    ObserverSpec,
    build_observers,
    merge_observations,
)
from repro.batch.results import BatchResult
from repro.beeping.simulator import SimulationResult
from repro.dynamics.schedules import ScheduleSpec, build_schedule
from repro.errors import ConfigurationError, require_int
from repro.graphs.generators import make_graph
from repro.graphs.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    # Typing-only: the experiments package imports the sweep runner, which
    # imports repro.exec — a module-level import here would be circular
    # (and would deadlock spawn workers unpickling cells).
    from repro.experiments.config import GraphSpec, ProtocolSpecConfig
    from repro.experiments.results import TrialRecord

#: Key material accepted by :func:`repro.experiments.seeds.rng_from`.
RngKey = Tuple[Union[int, str], ...]


@dataclass(frozen=True)
class ExecutionCell:
    """One (protocol, graph) configuration with all its replica seeds.

    Attributes
    ----------
    protocol, graph:
        Pure-data specs from which the executing process rebuilds the
        protocol and topology objects (both picklable, so cells are
        spawn-safe).
    seeds:
        One seed per replica, in deterministic replica order.
    max_rounds:
        Optional shared round budget (``None`` uses the engine default).
    planted_leaders:
        Optional node indices to start as planted leaders (the lower-bound
        experiment's adversarial initial states), each in ``[-n, n)`` for
        the built graph's ``n``.  Negative indices count from the end of
        the node range, so ``(0, -1)`` plants the two diametral endpoints
        of a path without knowing ``n`` in advance.
    graph_rng_key:
        Optional override for the graph generator's seed derivation, as the
        key tuple handed to :func:`~repro.experiments.seeds.rng_from`.  The
        default reproduces the sweep runner's derivation
        ``(graph.seed, "graph", graph.family, graph.n)``.
    schedule:
        Optional :class:`~repro.dynamics.schedules.ScheduleSpec` describing
        a time-varying topology for the cell.  Like the graph spec it is
        pure data: the executing process (a worker, for ``process:N``)
        rebuilds the actual schedule against the cell's graph, so dynamic
        cells shard exactly like static ones.  Only constant-state beeping
        protocols support schedules.
    observers:
        Optional tuple of :class:`~repro.batch.observers.ObserverSpec`
        objects — again pure data: the executing process builds the actual
        batch observers, attaches them to whichever engine runs the cell,
        and ships each observer's result back in
        :attr:`CellOutcome.observations`.  Observed cells produce
        byte-identical observations on every backend (the sequential loop
        runs one ``R = 1`` observer per replica and merges).  Standalone
        runners (e.g. pipelined-ids) have no observation hooks and reject
        observed cells.
    kernel:
        Optional round-kernel spec for the batched engine
        (:func:`repro.batch.kernels.validate_kernel`: ``"auto"``,
        ``"numba"``, ``"numpy"`` or ``"python"``).
        Pure data like every other field, so the setting travels to spawn
        workers and over the service wire.  Records are kernel-invariant
        (the parity suite pins every kernel byte-identical to the
        sequential loop), so the kernel is **excluded from the cell
        signature** — cached outcomes are shared across kernel choices.
        ``None`` defers to the executing backend's default.
    """

    protocol: ProtocolSpecConfig
    graph: GraphSpec
    seeds: Tuple[int, ...]
    max_rounds: Optional[int] = None
    planted_leaders: Optional[Tuple[int, ...]] = None
    graph_rng_key: Optional[RngKey] = None
    schedule: Optional[ScheduleSpec] = None
    observers: Tuple[ObserverSpec, ...] = ()
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", validate_kernel(self.kernel))
        object.__setattr__(
            self,
            "seeds",
            tuple(require_int(seed, "cell seeds") for seed in self.seeds),
        )
        if not self.seeds:
            raise ConfigurationError(
                f"cell {self.label!r} needs at least one replica seed"
            )
        if self.planted_leaders is not None:
            object.__setattr__(
                self,
                "planted_leaders",
                tuple(
                    require_int(node, "cell planted_leaders")
                    for node in self.planted_leaders
                ),
            )
        if self.max_rounds is not None:
            object.__setattr__(
                self, "max_rounds", require_int(self.max_rounds, "cell max_rounds")
            )
        if self.graph_rng_key is not None:
            object.__setattr__(self, "graph_rng_key", tuple(self.graph_rng_key))
        object.__setattr__(self, "observers", tuple(self.observers))
        for spec in self.observers:
            if not isinstance(spec, ObserverSpec):
                raise ConfigurationError(
                    f"cell observers must be ObserverSpec instances; got "
                    f"{type(spec).__name__}"
                )

    @property
    def graph_label(self) -> str:
        """Graph display label, qualified by the schedule when one is set.

        Dynamic cells render as e.g. ``"cycle(64)@edge-churn[seed=7]"`` so
        their records stay distinguishable from static runs of the same
        graph — the label is part of every :class:`TrialRecord`.
        """
        if self.schedule is None:
            return self.graph.label
        return f"{self.graph.label}@{self.schedule.label}"

    @property
    def label(self) -> str:
        """Display label such as ``"bfw on cycle(64)"``."""
        return f"{self.protocol.label} on {self.graph_label}"

    @property
    def num_replicas(self) -> int:
        """Number of seeded replicas in the cell."""
        return len(self.seeds)

    def build_topology(self) -> Topology:
        """Rebuild the cell's graph exactly as the per-trial loop would."""
        from repro.experiments.seeds import rng_from

        key = self.graph_rng_key
        if key is None:
            key = (self.graph.seed, "graph", self.graph.family, self.graph.n)
        return make_graph(self.graph.family, self.graph.n, rng=rng_from(*key))


def cell_to_spec(cell: ExecutionCell) -> Dict[str, object]:
    """Pure-JSON description of a cell — the sweep service's wire format.

    Every field of :class:`ExecutionCell` is already plain data (spec
    dataclasses, scalars, tuples); this flattens them into a dict of JSON
    types only (tuples become lists), so a cell can travel over an HTTP API
    or be written next to a cached result.  :func:`cell_from_spec` is the
    inverse — the round-tripped cell rebuilds the same topology, protocol,
    schedule and observers, and therefore the same records, as the
    original.
    """
    return {
        "protocol": {
            "name": cell.protocol.name,
            "params": dict(cell.protocol.params),
        },
        "graph": {
            "family": cell.graph.family,
            "n": cell.graph.n,
            "seed": cell.graph.seed,
        },
        "seeds": list(cell.seeds),
        "max_rounds": cell.max_rounds,
        "planted_leaders": (
            None if cell.planted_leaders is None else list(cell.planted_leaders)
        ),
        "graph_rng_key": (
            None if cell.graph_rng_key is None else list(cell.graph_rng_key)
        ),
        "schedule": (
            None
            if cell.schedule is None
            else {"kind": cell.schedule.kind, "params": dict(cell.schedule.params)}
        ),
        "observers": [
            {"kind": spec.kind, "params": dict(spec.params)}
            for spec in cell.observers
        ],
        "kernel": cell.kernel,
    }


def _spec_section(spec: Mapping[str, object], key: str, what: str) -> Mapping[str, object]:
    value = spec.get(key)
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"cell spec {what} must carry a {key!r} object; got {value!r}"
        )
    return value


def _spec_int_list(value: object, name: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"cell spec {name} must be a list of integers; got {value!r}"
        )
    return tuple(require_int(item, f"cell spec {name}") for item in value)


def cell_from_spec(spec: Mapping[str, object]) -> ExecutionCell:
    """Rebuild an :class:`ExecutionCell` from its :func:`cell_to_spec` dict.

    Accepts exactly what :func:`cell_to_spec` emits (after any JSON
    round-trip: lists where the cell held tuples).  Malformed specs raise
    :class:`~repro.errors.ConfigurationError` naming the offending field,
    so an HTTP daemon can turn them into a clean 400 instead of a stack
    trace.  Planted leaders are checked against the built graph's node
    range here, at the boundary, rather than when a worker runs the cell.
    """
    from repro.experiments.config import GraphSpec, ProtocolSpecConfig

    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"cell spec must be an object; got {spec!r}")
    protocol_spec = _spec_section(spec, "protocol", "protocol")
    if "name" not in protocol_spec:
        raise ConfigurationError("cell spec protocol is missing its 'name'")
    graph_spec = _spec_section(spec, "graph", "graph")
    for required in ("family", "n"):
        if required not in graph_spec:
            raise ConfigurationError(
                f"cell spec graph is missing its {required!r}"
            )
    seeds = spec.get("seeds")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigurationError(
            f"cell spec needs a non-empty 'seeds' list; got {seeds!r}"
        )
    schedule_spec = spec.get("schedule")
    schedule = None
    if schedule_spec is not None:
        schedule_spec = _spec_section(spec, "schedule", "schedule")
        if "kind" not in schedule_spec:
            raise ConfigurationError("cell spec schedule is missing its 'kind'")
        schedule = ScheduleSpec(
            kind=str(schedule_spec["kind"]),
            params=dict(schedule_spec.get("params") or {}),
        )
    observers: List[ObserverSpec] = []
    for index, observer_spec in enumerate(spec.get("observers") or ()):
        if not isinstance(observer_spec, Mapping) or "kind" not in observer_spec:
            raise ConfigurationError(
                f"cell spec observer #{index} must be an object with a "
                f"'kind'; got {observer_spec!r}"
            )
        observers.append(
            ObserverSpec(
                kind=str(observer_spec["kind"]),
                params=dict(observer_spec.get("params") or {}),
            )
        )
    planted = spec.get("planted_leaders")
    graph_rng_key = spec.get("graph_rng_key")
    max_rounds = spec.get("max_rounds")
    cell = ExecutionCell(
        protocol=ProtocolSpecConfig(
            name=str(protocol_spec["name"]),
            params=dict(protocol_spec.get("params") or {}),
        ),
        graph=GraphSpec(
            family=str(graph_spec["family"]),
            n=require_int(graph_spec["n"], "cell spec graph.n"),
            seed=require_int(graph_spec.get("seed", 0), "cell spec graph.seed"),
        ),
        seeds=_spec_int_list(seeds, "seeds"),
        max_rounds=(
            None
            if max_rounds is None
            else require_int(max_rounds, "cell spec max_rounds")
        ),
        planted_leaders=(
            None if planted is None else _spec_int_list(planted, "planted_leaders")
        ),
        graph_rng_key=None if graph_rng_key is None else tuple(graph_rng_key),
        schedule=schedule,
        observers=tuple(observers),
        kernel=None if spec.get("kernel") is None else str(spec["kernel"]),
    )
    if cell.planted_leaders is not None:
        _planted_nodes(cell.planted_leaders, cell.build_topology().n)
    return cell


def canonical_cell_json(cell: ExecutionCell) -> str:
    """The canonical JSON rendering of a cell: sorted keys, no whitespace.

    This is the byte string :func:`cell_signature` hashes, so two cells
    produce the same canonical JSON exactly when every field that affects
    execution — protocol and params, graph spec, seed *order*, round
    budget, planted leaders, graph RNG key, schedule spec, observer specs —
    is equal.  Non-JSON parameter values fall back to ``str`` so exotic
    params still hash deterministically.

    The ``kernel`` field is **stripped** before hashing: every kernel is
    parity-pinned byte-identical to the sequential loop, so a cell's
    records do not depend on it — the same cached outcome serves a
    resubmission under any kernel, and signatures minted before the
    kernel seam existed stay valid.
    """
    spec = cell_to_spec(cell)
    spec.pop("kernel", None)
    return json.dumps(spec, sort_keys=True, separators=(",", ":"), default=str)


def cell_signature(cell: ExecutionCell) -> str:
    """Content hash of a cell: equal cells hash equal, any change differs.

    The signature keys the sweep service's result cache — because every
    backend is deterministic under matched seeds, a cell's signature fully
    determines its records, so a cached outcome can be served for any
    resubmission of the same cell.  It is the SHA-256 hex digest of
    :func:`canonical_cell_json`, so it is stable across processes, hosts
    and Python versions.
    """
    digest = hashlib.sha256(canonical_cell_json(cell).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CellOutcome:
    """Everything one executed cell produced, in replica order.

    Exactly one of ``batch`` / ``sequential_results`` is populated, so a
    process-pool worker ships each replica's outcome once — the
    :attr:`results` view is derived on access rather than duplicated into
    the pickle payload.

    Attributes
    ----------
    cell:
        The cell that was executed.
    n, diameter, topology_name:
        Properties of the graph instance actually built (families with
        structured sizes may round the requested ``n``).
    batch:
        The underlying :class:`~repro.batch.results.BatchResult` when the
        cell ran through a batched executor (``None`` on the sequential
        path).
    batched:
        Whether a batched engine actually advanced the replicas (standalone
        runners fall back to the loop even under batched executors).
    sequential_results:
        The per-seed results of the sequential executor (``None`` on the
        batched path, where they are derived from ``batch``).
    observations:
        One observation per entry of ``cell.observers`` (in spec order) —
        e.g. a :class:`~repro.batch.trace.BatchTrace` for a ``"trace"``
        spec.  ``None`` when the cell carries no observer specs.
    wall_seconds:
        Wall-clock seconds the executing process spent on the cell (graph
        build included).  Excluded from equality: the same cell executed
        twice produces equal outcomes however long each run took.
    metrics:
        The :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` of the
        run metrics sampled while the cell executed (engine rounds advanced,
        cache hit rates, per-engine wall time).  Plain dicts, so the
        snapshot pickles from process-pool workers; excluded from equality
        like ``wall_seconds``.
    """

    cell: ExecutionCell
    n: int
    diameter: int
    topology_name: str
    batch: Optional[BatchResult] = None
    batched: bool = False
    sequential_results: Optional[Tuple[SimulationResult, ...]] = None
    observations: Optional[Tuple[object, ...]] = None
    wall_seconds: Optional[float] = field(default=None, compare=False)
    metrics: Optional[Dict[str, Dict[str, float]]] = field(
        default=None, compare=False
    )

    @property
    def rounds_advanced(self) -> int:
        """Total replica-rounds the cell advanced (summed over replicas)."""
        if self.batch is not None:
            return int(self.batch.rounds_executed.sum())
        return int(sum(result.rounds_executed for result in self.results))

    @property
    def results(self) -> Tuple[SimulationResult, ...]:
        """One result per seed, in seed order — identical on every backend.

        Derived from ``batch`` on first access and memoized (progress hooks
        and record flattening both read it), without becoming part of the
        dataclass state — a worker-side outcome pickles only the batch.
        """
        if self.sequential_results is not None:
            return self.sequential_results
        cached = self.__dict__.get("_results_cache")
        if cached is None:
            assert self.batch is not None
            cached = self.batch.to_simulation_results()
            object.__setattr__(self, "_results_cache", cached)
        return cached

    def to_records(self) -> Tuple[TrialRecord, ...]:
        """Flatten the outcome into per-trial sweep records (memoized)."""
        from repro.experiments.results import TrialRecord

        cached = self.__dict__.get("_records_cache")
        if cached is None:
            cached = tuple(
                TrialRecord(
                    protocol=self.cell.protocol.label,
                    graph=self.cell.graph_label,
                    n=self.n,
                    diameter=self.diameter,
                    seed=seed,
                    converged=result.converged,
                    convergence_round=result.convergence_round,
                    rounds_executed=result.rounds_executed,
                )
                for seed, result in zip(self.cell.seeds, self.results)
            )
            object.__setattr__(self, "_records_cache", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fields only, never the memoized views.

        :attr:`results` and :meth:`to_records` memoize into ``__dict__``;
        dropping those keys keeps cache files, the service wire format and
        ``process:N`` IPC byte-identical whether or not a view was read,
        and the unpickled outcome rebuilds them on first access.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in ("_results_cache", "_records_cache")
        }


#: What a caller may pass as ``shard_size``: ``None`` (no sharding), a
#: positive int (max seeds per shard) or ``"auto"`` (``ceil(R / workers)``).
ShardSize = Union[int, str, None]


def resolve_shard_size(
    shard_size: ShardSize, num_replicas: int, workers: int = 1
) -> Optional[int]:
    """Resolve a shard-size setting to a concrete per-cell value.

    ``None`` means no sharding; ``"auto"`` resolves to
    ``ceil(num_replicas / workers)`` (minimum 1), which splits a cell into
    exactly as many shards as there are workers to run them — the setting
    ``--shard-size auto`` surfaces on the CLI.  Explicit integers must be
    positive and are returned unchanged.
    """
    if shard_size is None:
        return None
    if isinstance(shard_size, str):
        text = shard_size.strip().lower()
        if text == "auto":
            return max(1, math.ceil(num_replicas / max(1, int(workers))))
        try:
            shard_size = int(text)
        except ValueError:
            raise ConfigurationError(
                f"invalid shard size {shard_size!r}; expected a positive "
                f"integer or 'auto'"
            ) from None
    size = int(shard_size)
    if size < 1:
        raise ConfigurationError(f"shard size must be >= 1; got {size}")
    return size


def split_cell(
    cell: ExecutionCell, shard_size: Optional[int]
) -> Tuple[ExecutionCell, ...]:
    """Slice a cell's seed list into sub-cells of at most ``shard_size`` seeds.

    Everything except the seed tuple is shared (specs are immutable pure
    data), so shards stay picklable and rebuild the same topology, protocol,
    schedule and observers as the whole cell.  ``None`` (or any size that
    covers the whole cell) returns the cell itself.
    """
    if shard_size is not None and shard_size < 1:
        raise ConfigurationError(f"shard size must be >= 1; got {shard_size}")
    if shard_size is None or cell.num_replicas <= shard_size:
        return (cell,)
    return tuple(
        replace(cell, seeds=cell.seeds[start : start + shard_size])
        for start in range(0, cell.num_replicas, shard_size)
    )


def merge_cell_outcomes(
    cell: ExecutionCell, outcomes: Sequence[CellOutcome]
) -> CellOutcome:
    """Fold executed shard outcomes back into one outcome for ``cell``.

    The shards must cover the cell's seed list in order (what
    :func:`split_cell` produces).  Batch arrays are concatenated
    (:meth:`~repro.batch.results.BatchResult.concatenate`), observations are
    merged per spec through the observer kinds' ``merge_results`` (the same
    mechanism the sequential executor uses for its ``R = 1`` runs), wall
    seconds add up and metrics snapshots merge counter-wise — so the merged
    outcome's records, batch, traces and reducer outputs are byte-identical
    to executing the whole cell at once.

    One visible difference is tolerated by design: a state-aware dynamic
    cell executed whole falls back to the sequential path for ``R > 1``,
    while its ``R = 1`` shards run batched — identical records either way
    (the documented parity contract), so the merged outcome may carry a
    ``batch`` where the unsharded run carried ``sequential_results``.
    """
    from repro.telemetry.metrics import merge_snapshots

    outcomes = tuple(outcomes)
    if not outcomes:
        raise ConfigurationError(
            f"cannot merge 0 shard outcomes for cell {cell.label!r}"
        )
    covered = tuple(
        seed for outcome in outcomes for seed in outcome.cell.seeds
    )
    if covered != cell.seeds:
        raise ConfigurationError(
            f"shard outcomes do not cover cell {cell.label!r} in seed order: "
            f"expected {cell.seeds}, got {covered}"
        )
    if len(outcomes) == 1 and outcomes[0].cell == cell:
        return outcomes[0]
    first = outcomes[0]
    walls = [o.wall_seconds for o in outcomes if o.wall_seconds is not None]
    wall_seconds = float(sum(walls)) if walls else None
    observations: Optional[Tuple[object, ...]] = None
    if cell.observers:
        observations = tuple(
            merge_observations(
                spec, [outcome.observations[index] for outcome in outcomes]
            )
            for index, spec in enumerate(cell.observers)
        )
    common = dict(
        cell=cell,
        n=first.n,
        diameter=first.diameter,
        topology_name=first.topology_name,
        observations=observations,
        wall_seconds=wall_seconds,
        metrics=merge_snapshots([o.metrics for o in outcomes]),
    )
    if all(outcome.batch is not None for outcome in outcomes):
        return CellOutcome(
            batch=BatchResult.concatenate([o.batch for o in outcomes]),
            batched=all(outcome.batched for outcome in outcomes),
            **common,
        )
    return CellOutcome(
        sequential_results=tuple(
            result for outcome in outcomes for result in outcome.results
        ),
        batched=False,
        **common,
    )


def _planted_nodes(planted: Sequence[int], n: int) -> Tuple[int, ...]:
    """Planted leader indices in ``[-n, n)``, negatives counted from the end."""
    for node in planted:
        if not -n <= node < n:
            raise ConfigurationError(
                f"planted_leaders entry {node} is outside [-{n}, {n}) for a "
                f"{n}-node graph"
            )
    return tuple(node % n for node in planted)


def _build_cell(cell: ExecutionCell):
    """Topology, protocol, planted initial states and schedule for a cell."""
    from repro.beeping.adversary import planted_leaders_initial_states
    from repro.core.protocol import BeepingProtocol
    from repro.experiments.runner import instantiate_protocol

    topology = cell.build_topology()
    protocol = instantiate_protocol(
        cell.protocol.name, topology, dict(cell.protocol.params)
    )
    initial_states = None
    if cell.planted_leaders is not None:
        initial_states = planted_leaders_initial_states(
            topology, _planted_nodes(cell.planted_leaders, topology.n)
        )
    schedule = None
    if cell.schedule is not None:
        if not isinstance(protocol, BeepingProtocol):
            raise ConfigurationError(
                f"topology schedules require a constant-state beeping "
                f"protocol; got {type(protocol).__name__} for cell "
                f"{cell.label!r}"
            )
        schedule = build_schedule(cell.schedule, topology)
    return topology, protocol, initial_states, schedule


def execute_cell_sequential(cell: ExecutionCell) -> CellOutcome:
    """Run the cell's replicas one seeded single run at a time.

    Observed cells run every replica with its own fresh ``R = 1`` observers
    (built from the cell's specs) and merge the per-replica observations —
    byte-identical to what one batched run of the same cell observes.
    """
    from repro.beeping.engine import VectorizedEngine
    from repro.beeping.simulator import MemorySimulator
    from repro.core.protocol import BeepingProtocol, MemoryProtocol
    from repro.experiments.runner import run_protocol_on
    from repro.telemetry.metrics import MetricsRegistry, use_metrics

    # A fresh registry per cell: the engines sample into it at run end, and
    # the snapshot rides the outcome (and the CellCompleted event) back to
    # the caller — including across process-pool pickling.
    started = time.perf_counter()
    registry = MetricsRegistry()
    with use_metrics(registry):
        topology, protocol, initial_states, schedule = _build_cell(cell)
        observed = bool(cell.observers)
        per_seed_observations: List[Tuple[object, ...]] = []

        def with_observers(
            run_one: "Callable[[Tuple[object, ...]], SimulationResult]",
        ):
            observers = build_observers(cell.observers) if observed else ()
            result = run_one(observers)
            if observed:
                per_seed_observations.append(
                    tuple(observer.result() for observer in observers)
                )
            return result

        if initial_states is not None or schedule is not None or (
            observed and isinstance(protocol, BeepingProtocol)
        ):
            if not isinstance(protocol, BeepingProtocol):
                raise ConfigurationError(
                    f"planted leaders require a constant-state beeping protocol; "
                    f"got {type(protocol).__name__}"
                )
            # One engine (and one schedule instance) for every seed: replica-
            # independent schedules memoise their per-round graphs, so all of
            # the cell's replicas replay one rebuild per round.
            engine = VectorizedEngine(topology, protocol, schedule=schedule)
            results = tuple(
                with_observers(
                    lambda observers, seed=seed: engine.run(
                        max_rounds=cell.max_rounds,
                        rng=seed,
                        initial_states=initial_states,
                        observers=observers,
                    )
                )
                for seed in cell.seeds
            )
        elif observed and isinstance(protocol, MemoryProtocol):
            simulator = MemorySimulator(topology, protocol)
            results = tuple(
                with_observers(
                    lambda observers, seed=seed: simulator.run(
                        max_rounds=cell.max_rounds, rng=seed, observers=observers
                    )
                )
                for seed in cell.seeds
            )
        elif observed:
            raise ConfigurationError(
                f"cell {cell.label!r} attaches observers, but standalone runners "
                f"({type(protocol).__name__}) have no observation hooks"
            )
        else:
            results = tuple(
                run_protocol_on(
                    topology, protocol, rng=seed, max_rounds=cell.max_rounds
                )
                for seed in cell.seeds
            )

        observations: Optional[Tuple[object, ...]] = None
        if observed:
            observations = tuple(
                merge_observations(
                    spec, [row[index] for row in per_seed_observations]
                )
                for index, spec in enumerate(cell.observers)
            )
    return CellOutcome(
        cell=cell,
        n=topology.n,
        diameter=topology.diameter(),
        topology_name=topology.name,
        sequential_results=results,
        observations=observations,
        wall_seconds=time.perf_counter() - started,
        metrics=registry.snapshot(),
    )


def execute_cell_batched(cell: ExecutionCell) -> CellOutcome:
    """Advance all of the cell's replicas in one batched state array.

    Replica for replica identical to :func:`execute_cell_sequential` under
    matched seeds (see ``tests/batch/parity_harness.py``); standalone
    runners without a batch implementation keep the per-seed loop inside
    :class:`~repro.experiments.montecarlo.MonteCarloRunner`.
    """
    from repro.experiments.montecarlo import MonteCarloRunner, runs_batched
    from repro.telemetry.metrics import MetricsRegistry, use_metrics

    started = time.perf_counter()
    registry = MetricsRegistry()
    with use_metrics(registry):
        topology, protocol, initial_states, schedule = _build_cell(cell)
        if schedule is not None and schedule.state_aware and cell.num_replicas > 1:
            # A state-aware schedule's graph sequence depends on one replica's
            # states, so the batched engine cannot share its per-round adjacency
            # across the batch; the sequential executor runs each replica with
            # its own per-run schedule reset — identical records, so the
            # every-backend byte-parity contract holds for these cells too.
            # (That executor installs its own nested registry and finalises
            # the outcome's wall time and metrics itself.)
            return execute_cell_sequential(cell)
        observers = build_observers(cell.observers)
        batch = MonteCarloRunner(max_rounds=cell.max_rounds).run(
            topology,
            protocol,
            list(cell.seeds),
            initial_states=initial_states,
            schedule=schedule,
            observers=observers,
            kernel=cell.kernel,
        )
        observations: Optional[Tuple[object, ...]] = None
        if observers:
            observations = tuple(observer.result() for observer in observers)
    return CellOutcome(
        cell=cell,
        n=topology.n,
        diameter=topology.diameter(),
        topology_name=topology.name,
        batch=batch,
        batched=runs_batched(protocol),
        observations=observations,
        wall_seconds=time.perf_counter() - started,
        metrics=registry.snapshot(),
    )
