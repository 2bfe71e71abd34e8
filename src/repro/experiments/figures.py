"""Figure-shaped experiments: scaling laws, the lower-bound conjecture, ablations.

The paper has no measured figures (it is a theory paper), so the "figures"
regenerated here are the empirical counterparts of its claims:

* **E2 — Theorem 2**: convergence time of uniform BFW against the diameter,
  expected to follow ``Θ(D² log n)`` (on paths and cycles, where ``n`` and
  ``D`` are proportional, the dominant behaviour is the ``D²`` factor).
* **E3 — Theorem 3**: the same sweep with ``p = 1/(D+1)``, expected to
  follow ``Θ(D log n)``, and the speed-up factor over the uniform protocol.
* **E4 — Section 5 conjecture**: two leaders planted at the ends of a path of
  length ``D`` eliminate one another after ``Θ(D²)`` rounds, because the
  boundary between their wave systems performs an approximate random walk.
* **E8 — ablations**: convergence time as a function of ``p``, and the
  failure modes of the protocol variants with an ingredient removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.exec import (
    BackendSpec,
    ExecutionCell,
    ShardSize,
    resolve_backend,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.seeds import trial_seeds
from repro.stats.regression import ModelComparison, PowerLawFit, compare_scaling_models, fit_power_law
from repro.stats.summary import Summary, summarize_sample
from repro.viz.table_format import render_table


# --------------------------------------------------------------------------- #
# E2 / E3 — convergence-time scaling (Theorems 2 and 3)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScalingPoint:
    """Aggregated convergence times for one diameter value."""

    diameter: int
    n: int
    rounds: Summary
    convergence_rate: float


@dataclass(frozen=True)
class ScalingResult:
    """Outcome of a scaling sweep (experiments E2 and E3)."""

    mode: str
    family: str
    points: Tuple[ScalingPoint, ...]
    power_law: PowerLawFit
    model_comparison: ModelComparison

    def render(self) -> str:
        """Plain-text table plus the fitted scaling exponent."""
        rows = [
            (
                point.diameter,
                point.n,
                point.rounds.mean,
                point.rounds.median,
                point.rounds.q95,
                point.convergence_rate,
            )
            for point in self.points
        ]
        table = render_table(
            ["D", "n", "mean rounds", "median", "q95", "conv. rate"],
            rows,
            title=(
                f"Convergence-time scaling — {self.mode} BFW on {self.family} graphs"
            ),
        )
        fit_line = (
            f"\nfitted T ~ D^{self.power_law.exponent:.2f} "
            f"(r^2 = {self.power_law.r_squared:.3f}); "
            f"best model: {self.model_comparison.best_model}"
        )
        return table + fit_line


def _graph_spec_for(family: str, diameter: int) -> GraphSpec:
    """The worst-case-diameter graph of one scaling cell, as pure data.

    ``make_graph`` rebuilds exactly the graphs the historical code built
    directly (``path_graph(D + 1)``, ``cycle_graph(2 D)``), so cells remain
    spawn-safe spec pairs.
    """
    if family == "path":
        return GraphSpec(family="path", n=diameter + 1)
    if family == "cycle":
        return GraphSpec(family="cycle", n=2 * diameter)
    raise ConfigurationError(
        f"scaling experiments support 'path' and 'cycle'; got {family!r}"
    )


def scaling_experiment(
    mode: str = "uniform",
    family: str = "path",
    diameters: Sequence[int] = (8, 16, 32, 64),
    num_seeds: int = 10,
    master_seed: int = 2,
    beep_probability: float = 0.5,
    max_rounds_factor: float = 200.0,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> ScalingResult:
    """Measure convergence time against the diameter (experiments E2 / E3).

    Parameters
    ----------
    mode:
        ``"uniform"`` for Theorem 2 (constant ``p``) or ``"nonuniform"`` for
        Theorem 3 (``p = 1/(D+1)``).
    family:
        ``"path"`` or ``"cycle"`` — the worst-case-diameter families.
    diameters:
        Diameter values to sweep.
    num_seeds:
        Trials per diameter.
    master_seed:
        Master seed for reproducibility.
    beep_probability:
        The constant ``p`` used in uniform mode.
    max_rounds_factor:
        Per-trial round budget as a multiple of ``D² log₂ n`` (uniform) or
        ``D log₂ n`` (non-uniform).
    backend:
        :mod:`repro.exec` backend executing the per-diameter cells
        (``"sequential"`` by default; ``"batched"`` advances all seeds of a
        diameter in one state array, ``"process:N"`` shards diameters
        across worker processes).  The per-seed results — and therefore the
        fitted exponents — are bit-for-bit identical on every backend.
    """
    if mode not in ("uniform", "nonuniform"):
        raise ConfigurationError(f"mode must be 'uniform' or 'nonuniform'; got {mode!r}")
    resolved = resolve_backend(
        backend,
        default="sequential",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    cells: List[ExecutionCell] = []
    for diameter in diameters:
        graph_spec = _graph_spec_for(family, diameter)
        if mode == "uniform":
            protocol_spec = ProtocolSpecConfig(
                name="bfw", params={"beep_probability": beep_probability}
            )
            budget = int(
                max_rounds_factor * diameter * diameter * (np.log2(graph_spec.n) + 1)
            )
        else:
            protocol_spec = ProtocolSpecConfig(name="bfw-nonuniform")
            budget = (
                int(max_rounds_factor * diameter * (np.log2(graph_spec.n) + 1)) + 1000
            )
        cells.append(
            ExecutionCell(
                protocol=protocol_spec,
                graph=graph_spec,
                seeds=trial_seeds(
                    master_seed, f"scaling/{mode}/{family}/{diameter}", num_seeds
                ),
                max_rounds=budget,
            )
        )
    outcomes = resolved.run_cell_outcomes(tuple(cells))

    points: List[ScalingPoint] = []
    mean_rounds: List[float] = []
    for diameter, outcome in zip(diameters, outcomes):
        rounds: List[float] = []
        converged = 0
        for result in outcome.results:
            if result.converged and result.convergence_round is not None:
                rounds.append(float(result.convergence_round))
                converged += 1
            else:
                rounds.append(float(result.rounds_executed))
        summary = summarize_sample(rounds)
        points.append(
            ScalingPoint(
                diameter=diameter,
                n=outcome.n,
                rounds=summary,
                convergence_rate=converged / num_seeds,
            )
        )
        mean_rounds.append(summary.mean)

    power_law = fit_power_law([point.diameter for point in points], mean_rounds)
    model_comparison = compare_scaling_models(
        [point.diameter for point in points],
        [point.n for point in points],
        mean_rounds,
    )
    return ScalingResult(
        mode=mode,
        family=family,
        points=tuple(points),
        power_law=power_law,
        model_comparison=model_comparison,
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Uniform vs non-uniform BFW on the same graphs (the Theorem 2/3 gap)."""

    uniform: ScalingResult
    nonuniform: ScalingResult
    speedups: Tuple[Tuple[int, float], ...]

    def render(self) -> str:
        """Table of mean-round speed-up factors per diameter."""
        rows = [(diameter, speedup) for diameter, speedup in self.speedups]
        return render_table(
            ["D", "uniform / non-uniform (mean rounds)"],
            rows,
            title="Speed-up of p = 1/(D+1) over constant p (Theorem 3 vs Theorem 2)",
        )


def crossover_experiment(
    family: str = "path",
    diameters: Sequence[int] = (8, 16, 32),
    num_seeds: int = 10,
    master_seed: int = 3,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> CrossoverResult:
    """Run E2 and E3 on the same graphs and report the speed-up factors."""
    uniform = scaling_experiment(
        mode="uniform",
        family=family,
        diameters=diameters,
        num_seeds=num_seeds,
        master_seed=master_seed,
        backend=backend,
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    nonuniform = scaling_experiment(
        mode="nonuniform",
        family=family,
        diameters=diameters,
        num_seeds=num_seeds,
        master_seed=master_seed + 1,
        backend=backend,
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    speedups = tuple(
        (
            uniform_point.diameter,
            uniform_point.rounds.mean / max(nonuniform_point.rounds.mean, 1.0),
        )
        for uniform_point, nonuniform_point in zip(uniform.points, nonuniform.points)
    )
    return CrossoverResult(uniform=uniform, nonuniform=nonuniform, speedups=speedups)


# --------------------------------------------------------------------------- #
# E4 — the Section 5 lower-bound conjecture
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LowerBoundPoint:
    """Elimination times for two diametral leaders on a path of length D."""

    diameter: int
    rounds: Summary
    normalised_by_d2: float


@dataclass(frozen=True)
class LowerBoundResult:
    """Outcome of the lower-bound experiment (E4)."""

    points: Tuple[LowerBoundPoint, ...]
    power_law: PowerLawFit

    def render(self) -> str:
        """Plain-text table plus the fitted exponent (conjectured: 2)."""
        rows = [
            (
                point.diameter,
                point.rounds.mean,
                point.rounds.median,
                point.normalised_by_d2,
            )
            for point in self.points
        ]
        table = render_table(
            ["D", "mean rounds", "median", "mean / D^2"],
            rows,
            title="Two diametral leaders on a path (Section 5 conjecture)",
        )
        return (
            table
            + f"\nfitted elimination time ~ D^{self.power_law.exponent:.2f} "
            f"(conjectured exponent: 2)"
        )


def lower_bound_experiment(
    diameters: Sequence[int] = (8, 16, 32, 64),
    num_seeds: int = 20,
    master_seed: int = 4,
    beep_probability: float = 0.5,
    max_rounds_factor: float = 400.0,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> LowerBoundResult:
    """Measure how long two diametral leaders coexist on a path (experiment E4).

    The per-diameter cells (planted diametral leaders included) run on any
    :mod:`repro.exec` backend with bit-for-bit identical per-seed results,
    so the fitted exponent never changes — only the wall-clock does.
    """
    resolved = resolve_backend(
        backend,
        default="sequential",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    cells = tuple(
        ExecutionCell(
            protocol=ProtocolSpecConfig(
                name="bfw", params={"beep_probability": beep_probability}
            ),
            graph=GraphSpec(family="path", n=diameter + 1),
            seeds=trial_seeds(master_seed, f"lower-bound/{diameter}", num_seeds),
            max_rounds=int(max_rounds_factor * diameter * diameter) + 1000,
            planted_leaders=(0, -1),
        )
        for diameter in diameters
    )
    outcomes = resolved.run_cell_outcomes(cells)

    points: List[LowerBoundPoint] = []
    means: List[float] = []
    for diameter, outcome in zip(diameters, outcomes):
        rounds: List[float] = []
        for result in outcome.results:
            rounds.append(
                float(
                    result.convergence_round
                    if result.convergence_round is not None
                    else result.rounds_executed
                )
            )
        summary = summarize_sample(rounds)
        points.append(
            LowerBoundPoint(
                diameter=diameter,
                rounds=summary,
                normalised_by_d2=summary.mean / float(diameter * diameter),
            )
        )
        means.append(summary.mean)
    power_law = fit_power_law([point.diameter for point in points], means)
    return LowerBoundResult(points=tuple(points), power_law=power_law)


# --------------------------------------------------------------------------- #
# E8 — parameter sweep and structural ablations
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParameterSweepPoint:
    """Convergence summary for one value of ``p``."""

    beep_probability: float
    rounds: Summary
    convergence_rate: float


@dataclass(frozen=True)
class AblationOutcome:
    """What happens when a protocol ingredient is removed."""

    variant: str
    convergence_rate: float
    leaderless_rate: float
    mean_rounds: float


@dataclass(frozen=True)
class AblationResult:
    """Outcome of the parameter sweep and the structural ablations (E8)."""

    sweep_points: Tuple[ParameterSweepPoint, ...]
    ablations: Tuple[AblationOutcome, ...]
    graph_label: str

    def render(self) -> str:
        """Plain-text rendering of both parts of the experiment."""
        sweep_rows = [
            (point.beep_probability, point.rounds.mean, point.convergence_rate)
            for point in self.sweep_points
        ]
        sweep_table = render_table(
            ["p", "mean rounds", "conv. rate"],
            sweep_rows,
            title=f"Convergence vs beep probability on {self.graph_label}",
        )
        ablation_rows = [
            (
                outcome.variant,
                outcome.convergence_rate,
                outcome.leaderless_rate,
                outcome.mean_rounds,
            )
            for outcome in self.ablations
        ]
        ablation_table = render_table(
            ["variant", "conv. rate", "leaderless rate", "mean rounds"],
            ablation_rows,
            title="Structural ablations",
        )
        return sweep_table + "\n\n" + ablation_table


#: Display label and registry name of each structural ablation variant.
ABLATION_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("bfw (full)", "bfw"),
    ("no-freeze", "bfw-no-freeze"),
    ("no-relay", "bfw-no-relay"),
)


def ablation_experiment(
    diameter: int = 24,
    probabilities: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9),
    num_seeds: int = 10,
    master_seed: int = 5,
    max_rounds_factor: float = 150.0,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> AblationResult:
    """Sweep ``p`` and test the structural ablation variants (experiment E8).

    Every cell of the sweep (one value of ``p``, or one ablated variant)
    runs on the chosen :mod:`repro.exec` backend; the reported rates and
    round counts are identical to the per-seed loop on all of them.
    """
    resolved = resolve_backend(
        backend,
        default="sequential",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    graph_spec = GraphSpec(family="path", n=diameter + 1)
    budget = int(max_rounds_factor * diameter * diameter) + 1000
    # The ablated variants may fail to converge; keep their budget small so
    # the experiment terminates quickly while still being conclusive.
    ablation_budget = min(budget, 40 * diameter * diameter)

    probability_cells = tuple(
        ExecutionCell(
            protocol=ProtocolSpecConfig(
                name="bfw", params={"beep_probability": probability}
            ),
            graph=graph_spec,
            seeds=trial_seeds(master_seed, f"ablation/p={probability}", num_seeds),
            max_rounds=budget,
        )
        for probability in probabilities
    )
    variant_cells = tuple(
        ExecutionCell(
            protocol=ProtocolSpecConfig(name=name),
            graph=graph_spec,
            seeds=trial_seeds(master_seed, f"ablation/{label}", num_seeds),
            max_rounds=ablation_budget,
        )
        for label, name in ABLATION_VARIANTS
    )
    outcomes = resolved.run_cell_outcomes(probability_cells + variant_cells)
    sweep_outcomes = outcomes[: len(probability_cells)]
    variant_outcomes = outcomes[len(probability_cells) :]

    sweep_points: List[ParameterSweepPoint] = []
    for probability, outcome in zip(probabilities, sweep_outcomes):
        rounds: List[float] = []
        converged = 0
        for result in outcome.results:
            if result.converged:
                converged += 1
                rounds.append(float(result.convergence_round))
            else:
                rounds.append(float(result.rounds_executed))
        sweep_points.append(
            ParameterSweepPoint(
                beep_probability=probability,
                rounds=summarize_sample(rounds),
                convergence_rate=converged / num_seeds,
            )
        )

    ablations: List[AblationOutcome] = []
    for (label, _), outcome in zip(ABLATION_VARIANTS, variant_outcomes):
        converged = 0
        leaderless = 0
        rounds = []
        for result in outcome.results:
            if result.converged:
                converged += 1
                rounds.append(float(result.convergence_round))
            else:
                rounds.append(float(result.rounds_executed))
            if result.final_leader_count == 0:
                leaderless += 1
        ablations.append(
            AblationOutcome(
                variant=label,
                convergence_rate=converged / num_seeds,
                leaderless_rate=leaderless / num_seeds,
                mean_rounds=float(np.mean(rounds)),
            )
        )
    return AblationResult(
        sweep_points=tuple(sweep_points),
        ablations=tuple(ablations),
        graph_label=variant_outcomes[0].topology_name,
    )
