"""The content-addressed result cache: hits, verification, persistence."""

import pytest

from repro.exec import SequentialBackend, cell_signature, execute_cell_batched
from repro.service import ResultCache, ServiceBackend, ServiceClient, SweepService

from tests.service.conftest import make_cell


# --------------------------------------------------------------------------- #
# ResultCache unit behaviour
# --------------------------------------------------------------------------- #


def test_cache_round_trip_and_counters(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = make_cell()
    signature = cell_signature(cell)
    assert cache.get(signature) is None
    outcome = execute_cell_batched(cell)
    assert cache.put(signature, cell, outcome)
    restored = cache.get(signature)
    assert restored is not None
    assert restored.to_records() == outcome.to_records()
    assert cache.stats() == {"hits": 1, "misses": 1}
    assert len(cache) == 1


def test_cache_put_verifies_on_overlap(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = make_cell()
    signature = cell_signature(cell)
    outcome = execute_cell_batched(cell)
    assert cache.put(signature, cell, outcome)
    # Identical second write: fine (the retry determinism assertion).
    assert cache.put(signature, cell, outcome)
    # Different records under the same signature: refused.
    other = execute_cell_batched(make_cell(seeds=(7, 8, 9, 10)))
    assert not cache.put(signature, cell, other)


def test_cache_survives_corrupt_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    cell = make_cell()
    signature = cell_signature(cell)
    cache.put(signature, cell, execute_cell_batched(cell))
    entry = tmp_path / signature[:2] / f"{signature}.json"
    entry.write_text("{ truncated", encoding="utf-8")
    assert cache.get(signature) is None  # corrupt → miss
    assert not entry.exists()  # and deleted, so a rewrite can land


def _stored(cache, cell):
    """Execute ``cell``, store it, and return its signature and entry path."""
    signature = cell_signature(cell)
    assert cache.put(signature, cell, execute_cell_batched(cell))
    return signature, cache.directory / signature[:2] / f"{signature}.json"


def test_memo_hit_reads_no_file(tmp_path):
    cache = ResultCache(str(tmp_path))
    signature, entry = _stored(cache, make_cell())
    outcome, payload = cache.get_entry(signature)  # disk hit, memoised
    assert isinstance(payload, str)
    entry.unlink()
    again = cache.get_entry(signature)  # served without the file
    assert again[0] is outcome and again[1] is payload
    assert cache.get(signature) is outcome
    assert cache.stats() == {"hits": 3, "misses": 0}


def test_put_does_not_fill_the_memo(tmp_path):
    cache = ResultCache(str(tmp_path))
    signature, entry = _stored(cache, make_cell())
    entry.unlink()
    assert cache.get(signature) is None
    assert cache.stats() == {"hits": 0, "misses": 1}


def test_memo_evicts_least_recently_used_past_its_bound(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    stored = [
        _stored(cache, make_cell(seeds=seeds))
        for seeds in ((1, 2), (3, 4), (5, 6))
    ]
    sizes = [len(cache.get_entry(signature)[1]) for signature, _ in stored]
    fresh = ResultCache(str(tmp_path))
    first, second, third = (signature for signature, _ in stored)
    # Room for the first and third entries, not for all three.
    monkeypatch.setattr(ResultCache, "MEMO_BYTES", sizes[0] + sizes[2])
    fresh.get(first)
    fresh.get(second)
    fresh.get(first)  # now the second is least recently used
    fresh.get(third)  # evicts the second
    for _, entry in stored:
        entry.unlink()
    assert fresh.get(first) is not None
    assert fresh.get(third) is not None
    assert fresh.get(second) is None


def test_memo_skips_entries_larger_than_its_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(ResultCache, "MEMO_BYTES", 1)
    cache = ResultCache(str(tmp_path))
    signature, entry = _stored(cache, make_cell())
    assert cache.get(signature) is not None  # served from disk
    entry.unlink()
    assert cache.get(signature) is None  # but never memoised


def test_memo_keeps_its_books_under_concurrent_reads(tmp_path, monkeypatch):
    import sys
    import threading

    cache = ResultCache(str(tmp_path))
    signatures = [
        _stored(cache, make_cell(seeds=(seed,)))[0] for seed in range(1, 6)
    ]
    largest = max(len(cache.get_entry(signature)[1]) for signature in signatures)
    reader = ResultCache(str(tmp_path))
    # Room for two entries of five: reads keep evicting each other.
    monkeypatch.setattr(ResultCache, "MEMO_BYTES", 2 * largest)
    rounds, threads = 40, 8
    failures = []

    def read(offset):
        for step in range(rounds):
            signature = signatures[(offset + step) % len(signatures)]
            if reader.get(signature) is None:
                failures.append(signature)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=read, args=(offset,))
            for offset in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert reader.stats() == {"hits": rounds * threads, "misses": 0}
    memo = reader._memo
    assert reader._memo_bytes == sum(len(payload) for _, payload in memo.values())
    assert reader._memo_bytes <= 2 * largest


def test_cache_owns_a_tempdir_when_unconfigured():
    cache = ResultCache()
    directory = cache.directory
    assert directory.exists()
    cache.close()
    assert not directory.exists()


# --------------------------------------------------------------------------- #
# Through the daemon: resubmission is a cache hit
# --------------------------------------------------------------------------- #


def test_identical_resubmission_is_a_cache_hit(service):
    backend = ServiceBackend(service.url)
    cell = make_cell()
    first = backend.run_cells((cell,))
    client = backend.client
    before = client.metrics()["service"]["counters"]["service.cache_hits"]

    second = backend.run_cells((cell,))
    assert second == first  # byte-identical, served from the cache
    after = client.metrics()["service"]["counters"]
    assert after["service.cache_hits"] > before
    # The cached submission executed no new shards.
    assert after["service.shards_executed"] == 1

    receipt = client.submit([cell])
    assert receipt["cached_cells"] == 1
    status = client.status(str(receipt["id"]))
    assert status["state"] == "done"
    assert status["cached_cells"] == 1


def _count_requests(monkeypatch):
    """Record the path of every ``ServiceClient._request`` call."""
    paths = []
    original = ServiceClient._request

    def counted(self, method, path, *args, **kwargs):
        paths.append(path)
        return original(self, method, path, *args, **kwargs)

    monkeypatch.setattr(ServiceClient, "_request", counted)
    return paths


def test_cached_sweep_takes_three_requests(service, monkeypatch):
    cells = [make_cell(seeds=(seed, seed + 1)) for seed in range(1, 13, 2)]
    backend = ServiceBackend(service.url)
    first = backend.run_cells(cells)
    paths = _count_requests(monkeypatch)
    events = []
    assert backend.run_cells(cells, progress=events.append) == first
    # submit, one events poll, one outcomes fetch naming every cell
    assert len(paths) == 3
    assert paths[2].endswith("/outcomes?cells=0,1,2,3,4,5")
    assert [event.index for event in events] == list(range(len(cells)))


def test_outcome_batches_split_past_the_request_cap(service, monkeypatch):
    from repro.service import client as client_module

    cells = [make_cell(seeds=(seed,)) for seed in range(1, 6)]
    backend = ServiceBackend(service.url)
    first = backend.run_cells(cells)
    monkeypatch.setattr(client_module, "_MAX_CELLS_PER_REQUEST", 2)
    paths = _count_requests(monkeypatch)
    assert backend.run_cells(cells) == first
    fetched = [path.split("cells=")[1] for path in paths if "cells=" in path]
    assert fetched == ["0,1", "2,3", "4"]


def test_resubmissions_return_identical_payload_strings(service):
    client = ServiceClient(service.url)
    cells = [make_cell(), make_cell(seeds=(5, 6, 7))]
    ServiceBackend(service.url).run_cells(cells)

    def payloads():
        sweep_id = str(client.submit(cells)["id"])
        reply = client._request("GET", f"/sweeps/{sweep_id}/outcomes?cells=0,1")
        assert [entry["cached"] for entry in reply["outcomes"]] == [True, True]
        return [entry["outcome"] for entry in reply["outcomes"]]

    assert payloads() == payloads()


def test_cell_events_carry_the_cached_flag(service):
    client = ServiceClient(service.url)
    cell = make_cell()
    first = client.events(str(client.submit([cell])["id"]), timeout=15.0)
    second = client.events(str(client.submit([cell])["id"]), timeout=15.0)
    flag = lambda poll: [
        record["cached"]
        for record in poll["events"]
        if record["event"] == "cell"
    ]
    assert flag(first) == [False]
    assert flag(second) == [True]


def test_cache_persists_across_daemon_restarts(tmp_path):
    cell = make_cell()
    local = SequentialBackend().run_cells((cell,))
    cache_dir = str(tmp_path / "cache")

    with SweepService(workers=2, cache_dir=cache_dir) as first:
        assert ServiceBackend(first.url).run_cells((cell,)) == local

    # A fresh daemon over the same directory serves the cell without
    # executing anything.
    with SweepService(workers=2, cache_dir=cache_dir) as second:
        client = ServiceClient(second.url)
        receipt = client.submit([cell])
        assert receipt["cached_cells"] == 1
        counters = client.metrics()["service"]["counters"]
        assert counters["service.cache_hits"] == 1
        assert counters.get("service.shards_executed", 0) == 0
        status = client.status(str(receipt["id"]))
        assert status["state"] == "done"
        records = SequentialBackend().run_cells((cell,))
        assert status["records"] == [record.as_dict() for record in records]
