"""The program-side process of the benchmark.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``.  It
imports what the workload needs, prints ``PERFBENCH-READY`` (``run.py``
times set-up up to that line), does the work, checks the outputs and
prints one ``PERFBENCH-RESULT <json>`` line.  Modes:

* ``--meta``: print run metadata and exit (also warms the bytecode cache);
* ``--probe``: import, report ready, exit (a set-up sample);
* compute workloads: one timed repetition;
* ``service-resubmit``: the whole run — sessions of a fresh daemon, one
  cold sweep, then closed-loop cache-hit resubmissions of it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import procstat
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Cache-hit resubmissions per service session: with at least
#: ``SERVICE_SESSIONS`` sessions a run holds enough hit latencies for a
#: p90 with ten samples beyond it.
HITS_PER_SESSION = 48
#: Fewest service sessions per run.
SERVICE_SESSIONS = 3


def emit(tag: str, payload: Optional[dict] = None) -> None:
    line = f"PERFBENCH-{tag}"
    if payload is not None:
        line += " " + json.dumps(payload, default=str)
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# --------------------------------------------------------------------------- #
# Metadata
# --------------------------------------------------------------------------- #


def _blas_threads() -> Optional[int]:
    """Default thread count of the OpenBLAS numpy loaded, via its C API."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8", errors="replace") as maps:
        paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def metadata() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    importlib.import_module("repro")
    return {
        "commit": commit,
        "source_digest": _source_digest(),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_default_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# --------------------------------------------------------------------------- #
# Compute workloads: one repetition
# --------------------------------------------------------------------------- #


def compute_rep(args: argparse.Namespace, workload: workloads.Workload) -> dict:
    expected = workloads.pinned_digests(
        workload.name, args.seed, args.size, corrupt=args.corrupt_digest
    )
    tap = tracing.OutcomeTap().install()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(tracing.SpanRecorder()).install(tap)
        root = tracer.recorder.open("workload", workload=workload.name)
    cpu_start = procstat.tree_cpu_seconds()
    started = time.perf_counter()
    workload.run(args.seed, args.size)
    wall = time.perf_counter() - started
    cpu = procstat.tree_cpu_seconds() - cpu_start
    rss = procstat.tree_peak_rss_mb()
    rep = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "traced": bool(args.trace),
        "plain_layers": {"workload.cpu_per_wall": cpu / wall},
    }
    if tracer is not None:
        tracer.recorder.close(root)
        tracer.uninstall()
        rep["layers"] = tracing.layer_metrics(tracer)
        write_trace(tracer.recorder, workload.name, args.seed)
    tap.uninstall()
    check = workloads.check_outcomes(tap.outcomes, expected)
    rep.update(
        rounds=check.rounds,
        cells=check.cells,
        failed=check.failed,
        digests=check.digests,
        problems=check.problems,
    )
    return rep


def write_trace(recorder: tracing.SpanRecorder, name: str, seed: int) -> None:
    folder = os.path.join(OUT_DIR, "traces")
    os.makedirs(folder, exist_ok=True)
    recorder.write(os.path.join(folder, f"{name}-seed{seed}-{os.getpid()}"))


# --------------------------------------------------------------------------- #
# Service workload
# --------------------------------------------------------------------------- #


class Daemon:
    """One ``repro serve`` process with its own fresh cache directory."""

    def __init__(self, scratch: str, index: int) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self.log_path = os.path.join(scratch, f"serve-{os.getpid()}-{index}.log")
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--workers", "2", "--cache-dir", self.cache_dir,
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.url, health = self._wait_ready(started + 60.0)
        self.setup_s = time.perf_counter() - started
        self.workers = int(health.get("workers") or 1)

    def _wait_ready(self, deadline: float) -> Tuple[str, dict]:
        url = None
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                break
            if url is None:
                with open(self.log_path, "r", encoding="utf-8", errors="replace") as log:
                    for line in log:
                        if "listening on" in line:
                            url = line.split("listening on", 1)[1].strip()
            if url is not None:
                try:
                    with urllib.request.urlopen(url + "/healthz", timeout=2) as reply:
                        if reply.status == 200:
                            return url, json.loads(reply.read().decode("utf-8"))
                except OSError:
                    pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not answer /healthz")

    def stop(self) -> bool:
        """SIGTERM, wait, remove the cache; False if it had to be killed."""
        clean = True
        children = procstat.descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                clean = False
        leftover = [pid for pid in children if os.path.exists(f"/proc/{pid}")]
        if leftover:
            procstat.kill_all(leftover)
            clean = False
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return clean


def service_run(args: argparse.Namespace) -> dict:
    """Sessions of fresh daemon -> cold sweep -> cache-hit loop -> SIGTERM.

    A session's work is fixed: the cold sweep, then ``HITS_PER_SESSION``
    closed-loop resubmissions of it.  Sessions repeat until the next one
    would end after ``--seconds`` (at least ``SERVICE_SESSIONS``).  With
    ``--trace 1`` every other session is traced, cold sweep and hits alike.
    """
    from repro.service import client as service_client

    scratch = os.environ.get("TMPDIR") or OUT_DIR
    cells = workloads.service_cells(args.seed, args.size)
    expected = workloads.pinned_digests(
        "service-resubmit", args.seed, args.size, corrupt=args.corrupt_digest
    )
    # Raw outcome payloads of the current request, for the byte-identity
    # check between cache-hit responses.
    payloads: List[str] = []
    original_decode = service_client.decode_outcome

    def capture(payload):
        payloads.append(payload)
        return original_decode(payload)

    service_client.decode_outcome = capture
    tap = tracing.OutcomeTap(keep=False).install()
    started = time.perf_counter()
    setup_samples: List[float] = []
    reps: List[dict] = []
    sessions: List[float] = []
    unclean = 0
    try:
        while len(reps) < SERVICE_SESSIONS or (
            time.perf_counter() - started + statistics.median(sessions) <= args.seconds
        ):
            opened = time.perf_counter()
            traced = bool(args.trace) and len(reps) % 2 == 1
            daemon = Daemon(scratch, len(reps))
            try:
                setup_samples.append(daemon.setup_s)
                reps.append(session(args, daemon, cells, expected, payloads, tap, traced))
            finally:
                unclean += not daemon.stop()
            sessions.append(time.perf_counter() - opened)
        while len(setup_samples) < workloads.SETUP_SAMPLES:
            probe = Daemon(scratch, 100 + len(setup_samples))
            setup_samples.append(probe.setup_s)
            unclean += not probe.stop()
    finally:
        tap.uninstall()
        service_client.decode_outcome = original_decode
    return {"setup_samples": setup_samples, "reps": reps, "unclean_stops": unclean}


def session(args, daemon, cells, expected, payloads, tap, traced) -> dict:
    """One daemon's work: the cold sweep, then the cache-hit loop."""
    _reset_own_peak_rss()
    cpu_start = procstat.tree_cpu_seconds()
    tracer = None
    if traced:
        recorder = tracing.SpanRecorder()
        tracer = tracing.Tracer(recorder, pool_size=daemon.workers).install(tap)
        root = recorder.open("workload", phase="cold")
    cold = time.perf_counter()
    outcomes = _submit(cells, daemon.url, "cold sweep")
    cold = time.perf_counter() - cold
    rep: Dict[str, object] = {"traced": traced}
    if tracer is not None:
        recorder.close(root)
        tracer.uninstall()
        rep["layers"] = tracing.layer_metrics(tracer)
        write_trace(recorder, "service-resubmit-cold", args.seed)
        # Cached outcomes carry the original run's wall seconds: the hit
        # loop's unit spans are not rebuilt from them.
        tracer = tracing.Tracer(tracing.SpanRecorder(), rebuild_units=False).install(tap)
    check = workloads.check_outcomes(outcomes or (), expected)
    if not outcomes:
        check.cells = check.failed = len(cells)
    reference: Optional[List[str]] = None
    latencies: List[float] = []
    failed = 0
    client_cpu, daemon_cpu = _own_cpu(), procstat.process_cpu_seconds(daemon.process.pid)
    for _ in range(HITS_PER_SESSION):
        payloads.clear()
        span = tracer.recorder.open("hit") if tracer is not None else None
        t0 = time.perf_counter()
        hit = _submit(cells, daemon.url, "hit")
        latencies.append(1000.0 * (time.perf_counter() - t0))
        if span is not None:
            tracer.recorder.close(span)
        if reference is None and hit is not None:
            reference = list(payloads)
        # Checked now and dropped, so the client's resident set stays the
        # program's, not a pile of kept responses.
        failed += hit is None or payloads != reference or (
            workloads.check_outcomes(hit, check.digests).failed > 0
        )
    client_cpu = _own_cpu() - client_cpu
    daemon_cpu = procstat.process_cpu_seconds(daemon.process.pid) - daemon_cpu
    wall = cold + sum(latencies) / 1000.0
    cpu = procstat.tree_cpu_seconds() - cpu_start
    rep.update(
        wall_s=wall,
        cpu_s=cpu,
        # The client since this session began, and this session's daemon.
        peak_rss_mb=max(
            procstat.process_peak_rss_mb(os.getpid()),
            procstat.process_peak_rss_mb(daemon.process.pid),
        ),
        latencies_ms=latencies,
        hits=len(latencies),
        hits_failed=failed,
        rounds=check.rounds,
        cells=check.cells,
        failed=check.failed,
        digests=check.digests,
        problems=check.problems,
        plain_layers={
            "workload.cpu_per_wall": cpu / wall,
            "service.cold_sweep_s": cold,
            "service.client.cpu_ms_per_hit": 1000.0 * client_cpu / len(latencies),
            "service.daemon.cpu_ms_per_hit": 1000.0 * daemon_cpu / len(latencies),
        },
    )
    if tracer is not None:
        tracer.uninstall()
        rep["layers"].update(tracing.hit_metrics(tracer.recorder, len(latencies)))
        rep["layers"].update(daemon_metrics(daemon.url))
        write_trace(tracer.recorder, "service-resubmit-hits", args.seed)
    return rep


def _submit(cells, url: str, what: str) -> Optional[tuple]:
    """Run the sweep through a ``ServiceBackend``; ``None`` if it failed."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceBackend

    try:
        return tuple(ServiceBackend(url).run_cell_outcomes(cells))
    except (ServiceError, OSError) as error:
        print(f"{what} failed: {error}", file=sys.stderr)
        return None


def _reset_own_peak_rss() -> None:
    """Restart this process's VmHWM (Linux ``clear_refs`` value 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _own_cpu() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def daemon_metrics(url: str) -> Dict[str, float]:
    """Program-reported service counters from ``GET /metrics``."""
    with urllib.request.urlopen(url + "/metrics", timeout=30) as reply:
        payload = json.loads(reply.read().decode("utf-8"))
    counters = payload.get("service", {}).get("counters", {})
    walls = payload.get("shard_wall_seconds", {})
    hits = float(counters.get("service.cache_hits", 0))
    misses = float(counters.get("service.cache_misses", 0))
    return {
        "service.cache.hits": hits,
        "service.cache.misses": misses,
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.shards_executed": float(counters.get("service.shards_executed", 0)),
        "service.shards_retried": float(counters.get("service.shards_retried", 0)),
        "service.shard_wall_s_sum": float(walls.get("sum", 0.0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--corrupt-digest", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--meta", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.meta:
        emit("RESULT", metadata())
        return 0
    for module in workload.imports:
        importlib.import_module(module)
    emit("READY")
    if args.probe:
        return 0
    if workload.run is None:
        emit("RESULT", service_run(args))
    else:
        emit("RESULT", compute_rep(args, workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
