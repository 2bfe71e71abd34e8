"""Regeneration of Table 1: the protocol comparison.

The paper's Table 1 lists, for each leader-election algorithm in the beeping
model, its round complexity, whether it needs unique identifiers, the global
knowledge it assumes, how safety is guaranteed, its state complexity and
whether it detects termination.  We reproduce the table in two parts:

* the *qualitative* columns come from each implementation's
  :class:`~repro.baselines.base.BaselineInfo` (or, for BFW, from the paper's
  own row), and
* a *measured* column is added: the mean convergence round of our
  implementation on a set of benchmark graphs, which is what turns the table
  into an executable comparison.

The defaults keep graphs small enough that the whole table regenerates in a
couple of minutes; the CLI exposes flags to scale it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines import (
    EmekKerenStyleElection,
    GilbertNewportKnockout,
    IDBroadcastElection,
    PipelinedIDElection,
)
from repro.baselines.base import BaselineInfo
from repro.exec import (
    BackendSpec,
    ExecutionCell,
    ShardSize,
    resolve_backend,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.results import CellSummary, TrialRecord, aggregate_records
from repro.experiments.runner import cell_progress_adapter, sweep_cells
from repro.viz.table_format import render_table

#: The BFW rows of Table 1, as stated in the paper.
BFW_UNIFORM_INFO = BaselineInfo(
    reference="This paper (uniform)",
    round_complexity="O(D^2 log n)",
    unique_ids=False,
    knowledge="none",
    safety="w.h.p.",
    states="O(1)",
    termination_detection=False,
)

BFW_NONUNIFORM_INFO = BaselineInfo(
    reference="This paper (p = 1/(D+1))",
    round_complexity="O(D log n)",
    unique_ids=False,
    knowledge="D",
    safety="w.h.p.",
    states="O(1)",
    termination_detection=False,
)

#: Qualitative info per protocol label used in the table.
TABLE1_INFO: Mapping[str, BaselineInfo] = {
    "bfw": BFW_UNIFORM_INFO,
    "bfw-nonuniform": BFW_NONUNIFORM_INFO,
    "id-broadcast": IDBroadcastElection.info,
    "id-broadcast-random": BaselineInfo(
        reference="[11]-style (randomised IDs)",
        round_complexity="O(D log n)",
        unique_ids=False,
        knowledge="n, D",
        safety="w.h.p.",
        states="Omega(n)",
        termination_detection=True,
    ),
    "pipelined-ids": PipelinedIDElection.info,
    "gilbert-newport": GilbertNewportKnockout.info,
    "emek-keren": EmekKerenStyleElection.info,
}

#: Protocols included in the default Table-1 regeneration, in display order.
DEFAULT_TABLE1_PROTOCOLS: Tuple[str, ...] = (
    "id-broadcast",
    "id-broadcast-random",
    "pipelined-ids",
    "emek-keren",
    "gilbert-newport",
    "bfw",
    "bfw-nonuniform",
)

#: Graph set used for the measured column.  The Gilbert–Newport knockout is
#: clique-only, so a clique is always part of the set.
DEFAULT_TABLE1_GRAPHS: Tuple[GraphSpec, ...] = (
    GraphSpec(family="path", n=33),
    GraphSpec(family="cycle", n=64),
    GraphSpec(family="erdos-renyi", n=64, seed=1),
    GraphSpec(family="clique", n=64),
)

#: Protocols that are only correct on single-hop (clique) graphs.
CLIQUE_ONLY_PROTOCOLS: Tuple[str, ...] = ("gilbert-newport",)


@dataclass(frozen=True)
class Table1Row:
    """One row of the regenerated Table 1."""

    protocol: str
    info: BaselineInfo
    measured_rounds: Mapping[str, float]
    convergence_rates: Mapping[str, float]

    def cells(self, graph_labels: Sequence[str]) -> Tuple[object, ...]:
        """The row rendered as table cells for the given graph columns."""
        qualitative = (
            self.protocol,
            self.info.round_complexity,
            "yes" if self.info.unique_ids else "no",
            self.info.knowledge,
            self.info.safety,
            self.info.states,
            "yes" if self.info.termination_detection else "no",
        )
        measured = []
        for label in graph_labels:
            value = self.measured_rounds.get(label)
            if value is None:
                measured.append("-")
            elif self.convergence_rates.get(label, 1.0) < 1.0:
                measured.append(f">{value:.0f}")
            else:
                measured.append(f"{value:.0f}")
        return qualitative + tuple(measured)


@dataclass(frozen=True)
class Table1Result:
    """The regenerated Table 1 with its underlying raw records."""

    rows: Tuple[Table1Row, ...]
    graph_labels: Tuple[str, ...]
    records: Tuple[TrialRecord, ...]
    summaries: Tuple[CellSummary, ...]

    def render(self) -> str:
        """Plain-text rendering of the table."""
        headers = (
            ["Protocol", "Round complexity", "IDs", "Knowledge", "Safety", "States", "Term."]
            + [f"rounds {label}" for label in self.graph_labels]
        )
        return render_table(
            headers,
            [row.cells(self.graph_labels) for row in self.rows],
            title="Table 1 (regenerated): leader election in the beeping model",
        )


def generate_table1(
    protocols: Sequence[str] = DEFAULT_TABLE1_PROTOCOLS,
    graphs: Sequence[GraphSpec] = DEFAULT_TABLE1_GRAPHS,
    num_seeds: int = 10,
    master_seed: int = 1,
    progress=None,
    backend: BackendSpec = None,
    shard_size: "ShardSize" = None,
    heartbeat_interval: Optional[int] = None,
    kernel: Optional[str] = None,
) -> Table1Result:
    """Run the Table-1 comparison and return the regenerated table.

    Parameters
    ----------
    protocols:
        Protocol identifiers (see :data:`DEFAULT_TABLE1_PROTOCOLS`).
    graphs:
        Benchmark graphs for the measured column.
    num_seeds:
        Trials per (protocol, graph) cell.
    master_seed:
        Master seed for reproducibility.
    progress:
        Optional per-cell progress callback (a human-readable line per
        finished cell, as in :func:`~repro.experiments.runner.run_sweep`).
    backend:
        :mod:`repro.exec` backend executing the table's (protocol, graph)
        cells — ``"sequential"`` (default), ``"batched"`` (one state array
        per cell: the constant-state engine for the BFW rows, the batched
        memory engine for the baseline rows; standalone runners keep the
        loop) or ``"process:N"``.  All cells are dispatched in one backend
        call, so a process pool shards the whole table at once.  Every
        measured number is identical under the same ``master_seed``; only
        the wall-clock changes.
    shard_size:
        Maximum seeds per work unit (int or ``"auto"`` =
        ``ceil(R / workers)``): lets ``process:N`` split each cell's seed
        list across workers, byte-identically.  ``None`` keeps whole cells.
    """
    resolved = resolve_backend(
        backend,
        default="sequential",
        shard_size=shard_size,
        heartbeat_interval=heartbeat_interval,
        kernel=kernel,
    )
    graph_labels = tuple(graph.label for graph in graphs)
    cells: List[ExecutionCell] = []
    for name in protocols:
        eligible_graphs = tuple(
            graph
            for graph in graphs
            if name not in CLIQUE_ONLY_PROTOCOLS or graph.family == "clique"
        )
        if not eligible_graphs:
            continue
        sweep = SweepConfig(
            name=f"table1/{name}",
            protocols=(ProtocolSpecConfig(name=name),),
            graphs=eligible_graphs,
            num_seeds=num_seeds,
            master_seed=master_seed,
        )
        cells.extend(sweep_cells(sweep))
    records: List[TrialRecord] = list(
        resolved.run_cells(tuple(cells), progress=cell_progress_adapter(progress))
    )

    summaries = aggregate_records(records)
    by_cell: Dict[Tuple[str, str], CellSummary] = {
        (summary.protocol, summary.graph): summary for summary in summaries
    }

    rows: List[Table1Row] = []
    for name in protocols:
        info = TABLE1_INFO.get(
            name,
            BaselineInfo(
                reference=name,
                round_complexity="?",
                unique_ids=False,
                knowledge="?",
                safety="?",
                states="?",
                termination_detection=False,
            ),
        )
        measured: Dict[str, float] = {}
        rates: Dict[str, float] = {}
        for label in graph_labels:
            summary = by_cell.get((name, label))
            if summary is not None:
                measured[label] = summary.rounds.mean
                rates[label] = summary.convergence_rate
        rows.append(
            Table1Row(
                protocol=name,
                info=info,
                measured_rounds=measured,
                convergence_rates=rates,
            )
        )
    return Table1Result(
        rows=tuple(rows),
        graph_labels=graph_labels,
        records=tuple(records),
        summaries=summaries,
    )
