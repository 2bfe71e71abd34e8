"""Kernel threading through cells, backends and the service wire.

The ``kernel=`` seam travels exactly like ``shard_size``: validated at the
edges (:func:`repro.batch.kernels.validate_kernel`), stamped onto cells by
the owning backend when a cell does not choose its own, excluded from the
cell signature (records are kernel-invariant, so cache keys must be too),
and forwarded verbatim over the sweep-service wire to resolve on the
executing workers.
"""

import functools

import pytest

from repro.batch.kernels import numba_available
from repro.errors import ConfigurationError
from repro.exec import ExecutionCell, resolve_backend
from repro.exec.backends import (
    BatchedBackend,
    ProcessBackend,
    SequentialBackend,
    _stamp_kernel,
)
from repro.exec.cells import (
    canonical_cell_json,
    cell_from_spec,
    cell_signature,
    cell_to_spec,
)
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.experiments.seeds import trial_seeds
from repro.service import ServiceBackend


def _cell(kernel=None, tag="kernel-exec", num_seeds=4):
    return ExecutionCell(
        protocol=ProtocolSpecConfig(name="bfw"),
        graph=GraphSpec(family="cycle", n=16),
        seeds=trial_seeds(19, tag, num_seeds),
        max_rounds=4000,
        kernel=kernel,
    )


def test_cell_kernel_round_trips_through_spec():
    cell = _cell(kernel="python")
    spec = cell_to_spec(cell)
    assert spec["kernel"] == "python"
    assert cell_from_spec(spec) == cell
    bare = _cell()
    assert cell_to_spec(bare)["kernel"] is None
    assert cell_from_spec(cell_to_spec(bare)).kernel is None


def test_cell_validates_kernel_at_construction():
    assert _cell(kernel=" NumPy ").kernel == "numpy"
    # Availability-blind: a numba-stamped cell must construct on clients
    # without numba (the executing worker may have it).
    assert _cell(kernel="numba").kernel == "numba"
    for kernel in ("fortran", "xp:numpy"):
        with pytest.raises(ConfigurationError, match="kernel"):
            _cell(kernel=kernel)


def test_kernel_excluded_from_signature():
    bare = _cell()
    assert "kernel" not in canonical_cell_json(bare)
    for kernel in ("numpy", "python", "numba"):
        stamped = _cell(kernel=kernel)
        assert canonical_cell_json(stamped) == canonical_cell_json(bare)
        assert cell_signature(stamped) == cell_signature(bare)


def test_stamp_kernel_cell_choice_wins():
    bare = _cell()
    assert _stamp_kernel(bare, None) is bare
    assert _stamp_kernel(bare, "python").kernel == "python"
    own = _cell(kernel="numpy")
    assert _stamp_kernel(own, "python") is own


@pytest.mark.parametrize(
    "backend_type",
    [
        SequentialBackend,
        BatchedBackend,
        ProcessBackend,
        # The constructor opens no connection, so no daemon is needed.
        pytest.param(
            functools.partial(ServiceBackend, "http://127.0.0.1:9"),
            id="ServiceBackend",
        ),
    ],
)
def test_backends_validate_kernel(backend_type):
    assert backend_type().kernel is None
    assert backend_type(kernel="python").kernel == "python"
    with pytest.raises(ConfigurationError):
        backend_type(kernel="fortran")


def test_resolve_backend_sets_kernel():
    backend = resolve_backend("batched", kernel="python")
    assert backend.kernel == "python"
    # None leaves the backend's own setting alone.
    assert resolve_backend(BatchedBackend(kernel="numpy")).kernel == "numpy"
    with pytest.raises(ConfigurationError):
        resolve_backend("batched", kernel="fortran")


@pytest.mark.parametrize("shard_size", [1, "auto"])
@pytest.mark.parametrize("backend", ["batched", "process:2"])
def test_backend_kernel_records_match_sequential(backend, shard_size):
    cells = (_cell(), _cell(tag="kernel-exec-b"))
    reference = resolve_backend("sequential").run_cells(cells)
    stamped = resolve_backend(backend, shard_size=shard_size, kernel="python")
    assert stamped.run_cells(cells) == reference


def test_explicit_cell_kernel_overrides_backend_default():
    # The cell asks for numpy; the backend default must not replace it.
    # Equal records on both prove the routing, not the kernel, decides.
    cell = _cell(kernel="numpy")
    reference = resolve_backend("sequential").run_cells((cell,))
    backend = resolve_backend("batched", kernel="python")
    assert backend.run_cells((cell,)) == reference


def test_service_stamps_submission_kernel():
    from repro.service.server import SweepService

    cells = (_cell(), _cell(kernel="numpy", tag="kernel-svc"))
    reference = resolve_backend("sequential").run_cells(cells)
    with SweepService(port=0, workers=2, kernel="python") as service:
        backend = resolve_backend(f"service:{service.url}")
        assert backend.run_cells(cells) == reference
        assert service.health_payload()["kernel"] == "python"


def test_service_rejects_bad_kernel_submission():
    from repro.service.server import SweepService

    with SweepService(port=0, workers=1) as service:
        with pytest.raises(ConfigurationError):
            service.submit((_cell(),), kernel="fortran")


def test_service_backend_forwards_kernel():
    from repro.service.client import ServiceBackend
    from repro.service.server import SweepService

    cells = (_cell(tag="kernel-svc-fwd"),)
    reference = resolve_backend("sequential").run_cells(cells)
    with SweepService(port=0, workers=1) as service:
        backend = ServiceBackend(service.url, kernel="python")
        assert backend.run_cells(cells) == reference


def test_cli_kernel_flag_round_trips(capsys):
    from repro.cli import main

    code = main(
        [
            "montecarlo",
            "--protocol", "bfw",
            "--graph", "cycle",
            "--n", "16",
            "--replicas", "4",
            "--kernel", "python",
        ]
    )
    assert code == 0
    assert "Monte Carlo" in capsys.readouterr().out


def test_cli_explicit_numba_without_numba_fails():
    if numba_available():
        pytest.skip("numba importable: the explicit spec resolves fine here")
    from repro.cli import main

    with pytest.raises(ConfigurationError, match="numba"):
        main(
            [
                "montecarlo",
                "--protocol", "bfw",
                "--graph", "cycle",
                "--n", "16",
                "--replicas", "4",
                "--kernel", "numba",
            ]
        )
