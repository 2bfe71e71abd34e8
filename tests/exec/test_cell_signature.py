"""Tests for the canonical cell spec / signature helpers.

The signature keys the sweep service's result cache, so the contract is
strict in both directions: equal cells must hash equal (across processes
and spec round-trips), and any change to a field that affects execution —
seed *order* included — must change the hash.
"""

import json

import numpy as np
import pytest

from repro.batch.observers import ObserverSpec
from repro.dynamics.schedules import ScheduleSpec
from repro.errors import ConfigurationError
from repro.exec import (
    ExecutionCell,
    canonical_cell_json,
    cell_from_spec,
    cell_signature,
    cell_to_spec,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig


def _cell(**overrides):
    defaults = dict(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=10),
        seeds=(1, 2, 3),
    )
    defaults.update(overrides)
    return ExecutionCell(**defaults)


# --------------------------------------------------------------------------- #
# Equal cells, equal signatures
# --------------------------------------------------------------------------- #


def test_equal_cells_have_equal_signatures():
    assert cell_signature(_cell()) == cell_signature(_cell())


def test_signature_is_a_sha256_hex_digest():
    signature = cell_signature(_cell())
    assert len(signature) == 64
    assert set(signature) <= set("0123456789abcdef")


def test_signature_survives_spec_round_trip():
    cell = _cell(
        max_rounds=500,
        planted_leaders=(0, 4),
        graph_rng_key=(17, "montecarlo-graph", "cycle", 10),
        schedule=ScheduleSpec(kind="edge-churn", params={"churn_rate": 2, "seed": 7}),
        observers=(ObserverSpec(kind="trace"),),
    )
    # Through JSON: exactly what the service daemon receives and rebuilds.
    rebuilt = cell_from_spec(json.loads(json.dumps(cell_to_spec(cell))))
    assert rebuilt == cell
    assert cell_signature(rebuilt) == cell_signature(cell)


def test_canonical_json_is_key_sorted_and_compact():
    rendering = canonical_cell_json(_cell())
    parsed = json.loads(rendering)
    assert list(parsed) == sorted(parsed)
    assert ": " not in rendering and ", " not in rendering


# --------------------------------------------------------------------------- #
# Any execution-relevant change, different signature
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "variant",
    [
        dict(seeds=(3, 2, 1)),  # seed ORDER matters
        dict(seeds=(1, 2)),
        dict(protocol=ProtocolSpecConfig(name="bfw-nonuniform")),
        dict(protocol=ProtocolSpecConfig(name="bfw", params={"beep_probability": 0.3})),
        dict(graph=GraphSpec(family="path", n=10)),
        dict(graph=GraphSpec(family="cycle", n=12)),
        dict(graph=GraphSpec(family="cycle", n=10, seed=5)),
        dict(max_rounds=100),
        dict(planted_leaders=(0,)),
        dict(graph_rng_key=(1, "montecarlo-graph", "cycle", 10)),
        dict(schedule=ScheduleSpec(kind="edge-churn", params={"churn_rate": 1})),
        dict(observers=(ObserverSpec(kind="trace"),)),
    ],
    ids=[
        "seed-order",
        "seed-count",
        "protocol-name",
        "protocol-params",
        "graph-family",
        "graph-size",
        "graph-seed",
        "max-rounds",
        "planted-leaders",
        "graph-rng-key",
        "schedule",
        "observers",
    ],
)
def test_changed_field_changes_signature(variant):
    assert cell_signature(_cell(**variant)) != cell_signature(_cell())


def test_schedule_param_change_changes_signature():
    churn1 = _cell(schedule=ScheduleSpec(kind="edge-churn", params={"churn_rate": 1}))
    churn2 = _cell(schedule=ScheduleSpec(kind="edge-churn", params={"churn_rate": 2}))
    assert cell_signature(churn1) != cell_signature(churn2)


def test_observer_spec_change_changes_signature():
    plain = _cell(observers=(ObserverSpec(kind="trace"),))
    configured = _cell(
        observers=(ObserverSpec(kind="trace", params={"max_rounds": 5}),)
    )
    assert cell_signature(plain) != cell_signature(configured)


# --------------------------------------------------------------------------- #
# cell_from_spec validation
# --------------------------------------------------------------------------- #


def test_cell_from_spec_rejects_non_object():
    with pytest.raises(ConfigurationError):
        cell_from_spec("not a dict")


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda spec: spec.pop("protocol"), "protocol"),
        (lambda spec: spec.pop("graph"), "graph"),
        (lambda spec: spec.update(seeds=[]), "seeds"),
        (lambda spec: spec["protocol"].pop("name"), "name"),
        (lambda spec: spec["graph"].pop("family"), "family"),
        (lambda spec: spec.update(schedule={"params": {}}), "kind"),
        (lambda spec: spec.update(observers=[{"params": {}}]), "kind"),
    ],
)
def test_cell_from_spec_names_the_offending_field(mutate, needle):
    spec = cell_to_spec(_cell())
    mutate(spec)
    with pytest.raises(ConfigurationError) as excinfo:
        cell_from_spec(spec)
    assert needle in str(excinfo.value)


# --------------------------------------------------------------------------- #
# In-process construction refuses what it would otherwise truncate
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "overrides, needle",
    [
        (dict(seeds=(1.5, 2)), "seeds"),
        (dict(seeds=(1, True)), "seeds"),
        (dict(planted_leaders=(0.9,)), "planted_leaders"),
        (dict(planted_leaders=(False,)), "planted_leaders"),
        (dict(max_rounds=12.0), "max_rounds"),
    ],
)
def test_execution_cell_refuses_non_integer_fields(overrides, needle):
    with pytest.raises(ConfigurationError) as excinfo:
        _cell(**overrides)
    assert needle in str(excinfo.value)


@pytest.mark.parametrize(
    "fields, needle",
    [
        (dict(n=8.7), "size"),
        (dict(n=True), "size"),
        (dict(n=8, seed=0.5), "seed"),
    ],
)
def test_graph_spec_refuses_non_integer_fields(fields, needle):
    with pytest.raises(ConfigurationError) as excinfo:
        GraphSpec(family="cycle", **fields)
    assert needle in str(excinfo.value)


def test_numpy_integers_are_accepted_and_stored_as_int():
    cell = _cell(
        graph=GraphSpec(family="cycle", n=np.int64(10), seed=np.uint8(3)),
        seeds=(np.int32(1), np.int64(2)),
        planted_leaders=(np.int16(-1),),
        max_rounds=np.int64(50),
    )
    assert cell.seeds == (1, 2)
    assert cell.planted_leaders == (-1,)
    assert cell.max_rounds == 50
    assert (cell.graph.n, cell.graph.seed) == (10, 3)
    for value in (*cell.seeds, *cell.planted_leaders, cell.max_rounds, cell.graph.n):
        assert type(value) is int
    assert cell_signature(cell) == cell_signature(
        _cell(
            graph=GraphSpec(family="cycle", n=10, seed=3),
            seeds=(1, 2),
            planted_leaders=(-1,),
            max_rounds=50,
        )
    )
