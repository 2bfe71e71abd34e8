"""Experiment configuration objects.

Configurations are plain frozen dataclasses so that every experiment is fully
described by data (and therefore serialisable next to its results): which
protocol, which graph family and sizes, how many seeds, what round budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, require_int
from repro.graphs.generators import GRAPH_FAMILIES


@dataclass(frozen=True)
class GraphSpec:
    """Specification of one benchmark graph.

    Attributes
    ----------
    family:
        Name of the graph family (see
        :data:`repro.graphs.generators.GRAPH_FAMILIES`).
    n:
        Target number of nodes (families with structured sizes round it).
    seed:
        Seed used by randomised generators (ignored by deterministic ones).
    """

    family: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", require_int(self.n, "graph size n"))
        object.__setattr__(self, "seed", require_int(self.seed, "graph seed"))
        if self.family not in GRAPH_FAMILIES:
            raise ConfigurationError(
                f"unknown graph family {self.family!r}; "
                f"known: {', '.join(GRAPH_FAMILIES)}"
            )
        if self.n < 1:
            raise ConfigurationError(f"graph size must be >= 1; got {self.n}")

    @property
    def label(self) -> str:
        """Short display label such as ``"path(64)"``."""
        return f"{self.family}({self.n})"


@dataclass(frozen=True)
class ProtocolSpecConfig:
    """Specification of one protocol entry in an experiment.

    Attributes
    ----------
    name:
        Registry name (for BFW-family protocols) or baseline identifier
        (``"id-broadcast"``, ``"pipelined-ids"``, ``"gilbert-newport"``,
        ``"emek-keren"``).
    params:
        Extra constructor parameters.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Display label including overridden parameters."""
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.name}[{rendered}]"


@dataclass(frozen=True)
class TrialConfig:
    """One simulated execution: a protocol on a graph with a seed."""

    protocol: ProtocolSpecConfig
    graph: GraphSpec
    seed: int
    max_rounds: Optional[int] = None


@dataclass(frozen=True)
class SweepConfig:
    """A full experiment: a protocol set crossed with a graph set and seeds.

    Attributes
    ----------
    name:
        Experiment identifier (used in result files and reports).
    protocols:
        Protocols to compare.
    graphs:
        Benchmark graphs.
    num_seeds:
        Number of independent trials per (protocol, graph) cell.
    master_seed:
        Master seed from which all trial seeds are derived.
    max_rounds:
        Optional per-trial round budget (defaults to the simulator's
        ``D²``-scaled budget).
    """

    name: str
    protocols: Tuple[ProtocolSpecConfig, ...]
    graphs: Tuple[GraphSpec, ...]
    num_seeds: int = 10
    master_seed: int = 0
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise ConfigurationError(
                f"num_seeds must be >= 1; got {self.num_seeds}"
            )
        if not self.protocols:
            raise ConfigurationError("a sweep needs at least one protocol")
        if not self.graphs:
            raise ConfigurationError("a sweep needs at least one graph")

    def cells(self) -> Tuple[Tuple[ProtocolSpecConfig, GraphSpec], ...]:
        """All (protocol, graph) combinations of the sweep."""
        return tuple(
            (protocol, graph) for protocol in self.protocols for graph in self.graphs
        )
