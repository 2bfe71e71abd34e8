"""The four workloads, their inputs, and the output checks.

Each workload's inputs are made from the benchmark's ``--seed``; the
program receives the resulting master seeds or cells.  ``full`` is the
benchmarked size; ``tiny`` is the self-test size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: The seed whose per-cell record digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Fewest repetitions (service: daemon sessions) per run.
MIN_REPS = 2
#: Fewest set-up samples per run; set-up is their median.
SETUP_SAMPLES = 7


# --------------------------------------------------------------------------- #
# Compute workloads (one repetition = one call in a fresh interpreter)
# --------------------------------------------------------------------------- #


def run_mc_torus(seed: int, size: str) -> None:
    from repro.experiments.montecarlo import run_monte_carlo

    n, replicas = (1024, 256) if size == "full" else (16, 8)
    run_monte_carlo(
        protocol="bfw",
        graph="torus",
        n=n,
        replicas=replicas,
        master_seed=seed,
        backend="batched",
    )


def run_paper_sweeps(seed: int, size: str) -> None:
    from repro.experiments.config import GraphSpec
    from repro.experiments.figures import scaling_experiment
    from repro.experiments.tables import generate_table1

    if size == "full":
        table_kwargs: Dict[str, object] = {"num_seeds": 20}
        diameters, seeds = (8, 16, 32, 64), 32
    else:
        table_kwargs = {
            "num_seeds": 2,
            "graphs": (GraphSpec(family="path", n=9), GraphSpec(family="clique", n=8)),
        }
        diameters, seeds = (4, 8), 4
    generate_table1(
        master_seed=seed, backend="process:2", shard_size="auto", **table_kwargs
    )
    scaling_experiment(
        mode="uniform",
        family="cycle",
        diameters=diameters,
        num_seeds=seeds,
        master_seed=seed,
        backend="process:2",
        shard_size="auto",
    )


def run_table1_default(seed: int, size: str) -> None:
    from repro.cli import main

    seeds = "20" if size == "full" else "1"
    # The table and the per-cell progress lines are the command's output;
    # they are kept off the worker's stdout, which carries its protocol.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(["table1", "--seeds", seeds, "--master-seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"repro table1 exited with {code}")


#: Deterministic families of the service sweep, each at four sizes.
SERVICE_FAMILIES: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("cycle", (16, 24, 32, 40)),
    ("path", (12, 16, 20, 24)),
    ("grid", (36, 64, 100, 144)),
    ("torus", (36, 64, 100, 144)),
    ("binary-tree", (15, 31, 63, 127)),
    ("hypercube", (16, 32, 64, 128)),
)


def service_cells(seed: int, size: str) -> List[object]:
    """The 24-cell BFW sweep (R=64 each) with seeds drawn from ``seed``."""
    import numpy as np

    from repro.exec import ExecutionCell
    from repro.experiments.config import GraphSpec, ProtocolSpecConfig

    if size == "full":
        families, replicas = SERVICE_FAMILIES, 64
    else:
        families, replicas = (("cycle", (8, 12)), ("path", (6, 8))), 4
    rng = np.random.default_rng(seed)
    return [
        ExecutionCell(
            protocol=ProtocolSpecConfig(name="bfw"),
            graph=GraphSpec(family=family, n=n),
            seeds=tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=replicas)),
        )
        for family, sizes in families
        for n in sizes
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Modules imported before the workload can start work (setup_s).
    imports: Tuple[str, ...]
    run: Optional[Callable[[int, str], None]]
    #: Per-layer metrics this workload must drive above zero (self-test).
    exercises: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "mc-torus": Workload(
        "mc-torus",
        ("repro.experiments.montecarlo",),
        run_mc_torus,
        ("batch.engine.run_s", "batch.streams.fill_calls", "graphs.build_s"),
    ),
    "paper-sweeps": Workload(
        "paper-sweeps",
        ("repro.experiments.tables", "repro.experiments.figures"),
        run_paper_sweeps,
        ("exec.backends.units", "exec.cells.unit_exec_s_sum", "engine.batched.wall_s"),
    ),
    "table1-default": Workload(
        "table1-default",
        ("repro.cli", "repro.experiments.tables"),
        run_table1_default,
        ("beeping.engine.runs", "beeping.simulator.run_s"),
    ),
    "service-resubmit": Workload(
        "service-resubmit",
        ("repro.service.client", "repro.exec", "repro.experiments.config"),
        None,
        (
            "service.http.requests_per_sweep",
            "service.cache.hits",
            "service.latency_samples",
            "service.latency_p90_ms",
        ),
    ),
}


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #


def replica_rows(outcome: object) -> List[list]:
    """``[seed, converged, convergence_round, rounds, final_leaders]`` rows."""
    return [
        [
            None if seed is None else int(seed),
            bool(result.converged),
            None if result.convergence_round is None else int(result.convergence_round),
            int(result.rounds_executed),
            int(result.final_leader_count),
        ]
        for seed, result in zip(outcome.cell.seeds, outcome.results)
    ]


def cell_digest(outcome: object, rows: Sequence[list]) -> str:
    cell = outcome.cell
    body = json.dumps(
        [cell.protocol.name, cell.graph.family, outcome.n, outcome.diameter, rows],
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass
class CheckResult:
    cells: int
    failed: int
    rounds: int
    digests: List[str]
    problems: List[str]


def check_outcomes(
    outcomes: Sequence[object], expected: Optional[Sequence[str]] = None
) -> CheckResult:
    """Count cells whose replicas or pinned digest are wrong; never raises."""
    failed_cells = set()
    problems: List[str] = []
    digests: List[str] = []
    rounds = 0
    for index, outcome in enumerate(outcomes):
        try:
            rows = replica_rows(outcome)
        except Exception as error:  # a malformed outcome is a failed cell
            failed_cells.add(index)
            problems.append(f"cell {index}: unreadable outcome ({error})")
            digests.append("")
            continue
        rounds += sum(row[3] for row in rows)
        bad = [row for row in rows if row[1] and row[4] != 1]
        if bad:
            failed_cells.add(index)
            problems.append(f"cell {index}: {len(bad)} converged replicas without one leader")
        digests.append(cell_digest(outcome, rows))
    if expected is not None:
        if len(expected) != len(digests):
            failed_cells.update(range(max(len(outcomes), 1)))
            problems.append(f"expected {len(expected)} cells, got {len(digests)}")
        else:
            for index, (want, got) in enumerate(zip(expected, digests)):
                if want != got:
                    failed_cells.add(index)
                    problems.append(f"cell {index}: digest {got} != pinned {want}")
    return CheckResult(len(outcomes), len(failed_cells), rounds, digests, problems)


def pinned_digests(
    workload: str, seed: int, size: str, corrupt: bool = False
) -> Optional[List[str]]:
    """Pinned per-cell digests for the default seed (``None`` otherwise)."""
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    digests = table.get(size, {}).get(workload)
    if digests is None:
        return None
    digests = list(digests)
    if corrupt and digests:
        first = digests[0]
        digests[0] = ("0" if first[0] != "0" else "1") + first[1:]
    return digests
