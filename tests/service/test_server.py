"""HTTP-level tests for the sweep-service daemon: routes, errors, lifecycle."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.exec import SequentialBackend
from repro.experiments.config import GraphSpec
from repro.service import ServiceBackend, ServiceClient
from repro.service.wire import cells_to_payload

from tests.service.conftest import make_cell


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url, path, payload):
    request = urllib.request.Request(
        f"{url}{path}",
        method="POST",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


# --------------------------------------------------------------------------- #
# Liveness and metrics
# --------------------------------------------------------------------------- #


def test_healthz(service):
    status, payload = _get(service.url, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["state"] == "serving"
    assert payload["workers"] == 2


def test_metrics_reports_counters_and_cache(service):
    client = ServiceClient(service.url)
    client.submit([make_cell()])
    metrics = client.metrics()
    counters = metrics["service"]["counters"]
    assert counters["service.sweeps_submitted"] == 1
    assert counters["service.cells_submitted"] == 1
    assert "service.cache_hits" in counters
    assert "service.cache_misses" in counters
    assert metrics["service"]["gauges"]["service.workers"] == 2


# --------------------------------------------------------------------------- #
# Submission and status
# --------------------------------------------------------------------------- #


def test_submit_and_status_round_trip(service):
    client = ServiceClient(service.url)
    cell = make_cell()
    receipt = client.submit([cell])
    assert receipt["cells"] == 1
    sweep_id = str(receipt["id"])

    poll = client.events(sweep_id, cursor=0, timeout=15.0)
    assert poll["done"] and poll["state"] == "done"

    status = client.status(sweep_id)
    assert status["state"] == "done"
    assert status["completed_cells"] == 1
    assert status["retries"] == 0
    assert status["error"] is None
    # Done sweeps ship their flattened records — byte-comparable to a
    # local sequential run of the same cell.
    local = SequentialBackend().run_cells((cell,))
    assert status["records"] == [record.as_dict() for record in local]


def test_unknown_sweep_is_404_with_error_body(service):
    try:
        urllib.request.urlopen(f"{service.url}/sweeps/deadbeef", timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 404
        assert "deadbeef" in json.loads(error.read())["error"]
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


def test_unknown_route_is_404(service):
    try:
        urllib.request.urlopen(f"{service.url}/nope", timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 404
    else:  # pragma: no cover
        pytest.fail("expected HTTP 404")


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"not json",
        b"[1, 2]",
        b'{"cells": []}',
        b'{"cells": [{"graph": {}}]}',
        b'{"cells": [{"protocol": {"name": "bfw"}, '
        b'"graph": {"family": "cycle", "n": [1]}, "seeds": [1]}]}',
    ],
)
def test_malformed_submissions_are_400(service, body):
    request = urllib.request.Request(
        f"{service.url}/sweeps",
        method="POST",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        assert "error" in json.loads(error.read())
    else:  # pragma: no cover
        pytest.fail("expected HTTP 400")


def _submit_spec(service, field, value):
    """``submit_payload`` of one small cycle(8) cell with ``field`` set."""
    spec = cells_to_payload([make_cell(graph=GraphSpec(family="cycle", n=8))])[0]
    section, _, key = field.rpartition(".")
    (spec[section] if section else spec)[key] = value
    return service.submit_payload(json.dumps({"cells": [spec]}).encode("utf-8"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seeds", [1.5]),  # used to run as seed 1
        ("seeds", [[1]]),  # used to be a 500
        ("seeds", [True]),
        ("graph.n", [1]),  # used to be a 500
        ("graph.n", "x"),  # used to be a 400 naming no field
        ("graph.n", 8.0),
        ("graph.seed", 2.5),
        ("max_rounds", 100.5),
        ("max_rounds", False),
        ("planted_leaders", [0.5]),
        ("planted_leaders", 3),
    ],
)
def test_non_integer_cell_fields_are_refused_by_name(service, field, value):
    with pytest.raises(ConfigurationError, match=field):
        _submit_spec(service, field, value)
    assert service.list_sweeps() == {"sweeps": []}  # nothing was registered


@pytest.mark.parametrize("planted", [[99], [8], [-9], [0, 12]])
def test_out_of_range_planted_leaders_are_refused(service, planted):
    # Indices must lie in [-n, n): 99 on cycle(8) used to wrap to node 3.
    with pytest.raises(ConfigurationError, match="planted_leaders"):
        _submit_spec(service, "planted_leaders", planted)


def test_in_range_planted_leaders_are_accepted(service):
    receipt = _submit_spec(service, "planted_leaders", [0, -1])
    assert receipt["cells"] == 1


@pytest.mark.parametrize("kernel", ["xp:numpy", "xp:bogus", "fortran"])
def test_unknown_kernel_is_rejected_at_submit_time(service, kernel):
    # Array-namespace specs ("xp:...") are not kernels: the submission is
    # refused before any worker sees it, with an error naming the field.
    body = {"cells": cells_to_payload([make_cell()]), "kernel": kernel}
    try:
        _post(service.url, "/sweeps", body)
    except urllib.error.HTTPError as error:
        assert error.code == 400
        assert "kernel" in json.loads(error.read())["error"]
    else:  # pragma: no cover
        pytest.fail("expected HTTP 400")


def test_service_backend_refuses_a_bad_shard_size_at_construction():
    # Like every local backend; the constructor opens no connection.
    for shard_size in (0, "zero"):
        with pytest.raises(ConfigurationError, match="shard size"):
            ServiceBackend("http://127.0.0.1:9", shard_size=shard_size)


def _refused_shard_size(url, cells):
    try:
        _post(url, "/sweeps", {"cells": cells_to_payload(cells), "shard_size": 0})
    except urllib.error.HTTPError as error:
        assert error.code == 400
        return json.loads(error.read())["error"]
    pytest.fail("expected HTTP 400")  # pragma: no cover


def test_refused_shard_size_registers_no_sweep():
    # A bad shard size is refused before the sweep is registered: nothing
    # is listed, and a draining stop has nothing to wait for.
    from repro.service import SweepService

    daemon = SweepService(workers=2).start()
    try:
        assert "shard size" in _refused_shard_size(daemon.url, [make_cell()])
        assert ServiceClient(daemon.url).sweeps()["sweeps"] == []
    finally:
        started = time.monotonic()
        daemon.stop(drain=True, timeout=2.0)
    assert time.monotonic() - started < 1.5


def test_refused_shard_size_is_refused_when_every_cell_is_cached(service):
    client = ServiceClient(service.url)
    cells = [make_cell()]
    sweep_id = str(client.submit(cells)["id"])
    assert client.events(sweep_id, timeout=15.0)["state"] == "done"
    assert "shard size" in _refused_shard_size(service.url, cells)
    assert [row["id"] for row in client.sweeps()["sweeps"]] == [sweep_id]


def test_submission_by_raw_json_matches_client(service):
    # The wire format is plain JSON: curl-level submissions must work.
    status, receipt = _post(
        service.url, "/sweeps", {"cells": cells_to_payload([make_cell()])}
    )
    assert status == 200
    poll = ServiceClient(service.url).events(str(receipt["id"]), timeout=15.0)
    assert poll["state"] == "done"


# --------------------------------------------------------------------------- #
# Event stream
# --------------------------------------------------------------------------- #


def test_event_stream_cursor_and_schema(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell(), make_cell(seeds=(9, 10))])["id"])
    events = []
    cursor = 0
    while True:
        poll = client.events(sweep_id, cursor=cursor, timeout=15.0)
        assert poll["cursor"] >= cursor
        events.extend(poll["events"])
        cursor = int(poll["cursor"])
        if poll["done"]:
            break
    kinds = [record["event"] for record in events]
    assert kinds.count("cell") == 2
    assert kinds[-1] == "summary"
    cell_events = [record for record in events if record["event"] == "cell"]
    for record in cell_events:
        # The telemetry JSONL schema, so `repro tail --url` renders them.
        for key in ("index", "total", "protocol", "graph", "mean_rounds",
                    "wall_seconds", "rounds_advanced"):
            assert key in record
    # Re-reading from cursor 0 replays the identical stream.
    replay = client.events(sweep_id, cursor=0, timeout=0.0)
    assert replay["events"] == events


def test_outcome_endpoint_rejects_bad_cell_index(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    client.events(sweep_id, timeout=15.0)  # wait for completion
    with pytest.raises(ServiceError) as excinfo:
        client.outcome(sweep_id, 5)
    assert "400" in str(excinfo.value)


def _wait_done(client, sweep_id):
    """Drain the event stream until the sweep reaches a terminal state."""
    cursor = 0
    while True:
        poll = client.events(sweep_id, cursor=cursor, timeout=15.0)
        cursor = int(poll["cursor"])
        if poll["done"]:
            return poll["state"]


def _http_error(url, path):
    """The status and error message of a request expected to fail."""
    try:
        urllib.request.urlopen(f"{url}{path}", timeout=10)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())["error"]
    pytest.fail(f"expected an HTTP error from {path}")  # pragma: no cover


@pytest.mark.parametrize(
    "value, named",
    [("x", "'x'"), ("", "''"), ("0,,1", "''"), ("-1", "-1"), ("2", "2")],
)
def test_outcomes_query_rejects_bad_cells(service, value, named):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell(), make_cell(seeds=(9,))])["id"])
    assert _wait_done(client, sweep_id) == "done"
    status, message = _http_error(
        service.url, f"/sweeps/{sweep_id}/outcomes?cells={value}"
    )
    assert status == 400
    assert named in message


def test_outcomes_of_an_incomplete_cell_is_409():
    from repro.service import ServiceFaultInjector, SweepService

    injector = ServiceFaultInjector.from_spec("hang:1:0:1.0")
    with SweepService(workers=2, fault_injector=injector) as daemon:
        client = ServiceClient(daemon.url)
        sweep_id = str(
            client.submit([make_cell(), make_cell(seeds=(9,))])["id"]
        )
        poll = client.events(sweep_id, timeout=15.0)
        assert [record["index"] for record in poll["events"]] == [0]
        status, message = _http_error(
            daemon.url, f"/sweeps/{sweep_id}/outcomes?cells=0,1"
        )
        assert status == 409
        assert "cell 1" in message
        assert set(client.outcomes(sweep_id, [0])) == {0}


def test_single_cell_query_keeps_its_shape(service):
    client = ServiceClient(service.url)
    cells = [make_cell(), make_cell(seeds=(9, 10))]
    sweep_id = str(client.submit(cells)["id"])
    assert _wait_done(client, sweep_id) == "done"
    _, batch = _get(service.url, f"/sweeps/{sweep_id}/outcomes?cells=0,1")
    assert batch["id"] == sweep_id
    assert [entry["cell"] for entry in batch["outcomes"]] == [0, 1]
    _, single = _get(service.url, f"/sweeps/{sweep_id}/outcomes?cell=1")
    assert single == {"id": sweep_id, **batch["outcomes"][1]}
    records = SequentialBackend().run_cell_outcomes(cells)[1].to_records()
    assert client.outcome(sweep_id, 1).to_records() == records


# --------------------------------------------------------------------------- #
# Hostile Content-Length on POST /sweeps
# --------------------------------------------------------------------------- #


def _raw_post(url, length):
    """POST /sweeps over a raw socket declaring ``length``; the reply."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=1.0) as sock:
        sock.sendall(
            b"POST /sweeps HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        reply = b""
        while True:  # the socket timeout bounds every read to 1 s
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]


@pytest.mark.parametrize(
    "length, status",
    [("-1", 400), ("abc", 400), ("1.5", 400), ("99999999999", 413)],
)
def test_hostile_content_length_gets_a_prompt_4xx(service, length, status):
    code, message = _raw_post(service.url, length)
    assert code == status
    assert "Content-Length" in message
    assert ServiceClient(service.url).healthz()["status"] == "ok"


# --------------------------------------------------------------------------- #
# Cancellation and drain
# --------------------------------------------------------------------------- #


def test_cancel_is_idempotent_and_reported(service):
    client = ServiceClient(service.url)
    sweep_id = str(client.submit([make_cell()])["id"])
    first = client.cancel(sweep_id)
    assert first["state"] in ("cancelled", "done")
    assert client.cancel(sweep_id)["state"] == first["state"]
    poll = client.events(sweep_id, timeout=5.0)
    assert poll["done"]


def test_draining_service_refuses_submissions(service):
    client = ServiceClient(service.url)
    service._draining = True  # what stop() sets before joining workers
    with pytest.raises(ServiceError) as excinfo:
        client.submit([make_cell()])
    assert "503" in str(excinfo.value) or "draining" in str(excinfo.value)
    assert client.healthz()["state"] == "draining"


def test_stop_drains_running_sweeps(tmp_path):
    from repro.service import SweepService

    with SweepService(workers=2) as daemon:
        client = ServiceClient(daemon.url)
        sweep_id = str(client.submit([make_cell(seeds=tuple(range(8)))])["id"])
        daemon.stop(drain=True, timeout=30.0)
        # The submitted sweep completed before shutdown.
        status = daemon.sweep_status(sweep_id)
        assert status["state"] == "done"
