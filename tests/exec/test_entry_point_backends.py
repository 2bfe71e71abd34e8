"""Experiment entry points choose their backend through ``backend=`` only.

The ``batched=`` keyword (and ``--batched`` on the CLI, see
``tests/test_cli.py``) was a deprecated alias for ``backend="batched"``; it
has been removed together with its resolver, so passing it is an ordinary
``TypeError`` rather than a silently honoured alias.
"""

import pytest

import repro.exec
from repro.exec.backends import BatchedBackend, SequentialBackend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig, SweepConfig
from repro.experiments.figures import (
    ablation_experiment,
    lower_bound_experiment,
    scaling_experiment,
)
from repro.experiments.runner import run_sweep
from repro.experiments.tables import generate_table1

SWEEP = SweepConfig(
    name="entry-point",
    protocols=(ProtocolSpecConfig(name="bfw"),),
    graphs=(GraphSpec(family="cycle", n=8),),
    num_seeds=2,
    master_seed=13,
)

ENTRY_POINTS = {
    "run_sweep": lambda **kw: run_sweep(SWEEP, **kw),
    "generate_table1": lambda **kw: generate_table1(
        protocols=("bfw",),
        graphs=(GraphSpec(family="cycle", n=8),),
        num_seeds=2,
        master_seed=7,
        **kw,
    ),
    "scaling_experiment": lambda **kw: scaling_experiment(
        mode="uniform", family="cycle", diameters=(4,), num_seeds=2,
        master_seed=6, **kw,
    ),
    "lower_bound_experiment": lambda **kw: lower_bound_experiment(
        diameters=(4,), num_seeds=2, master_seed=3, **kw
    ),
    "ablation_experiment": lambda **kw: ablation_experiment(
        diameter=6, probabilities=(0.5,), num_seeds=2, master_seed=4, **kw
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_batched_keyword_is_refused(name):
    with pytest.raises(TypeError, match="batched"):
        ENTRY_POINTS[name](batched=True)


def test_deprecated_resolver_is_gone_and_resolve_backend_covers_it():
    assert not hasattr(repro.exec, "resolve_backend_with_deprecated_batched")
    # What batched=True / batched=False / no flag used to map onto.
    assert isinstance(repro.exec.resolve_backend("batched"), BatchedBackend)
    assert isinstance(repro.exec.resolve_backend("sequential"), SequentialBackend)
    assert isinstance(repro.exec.resolve_backend(None), SequentialBackend)
