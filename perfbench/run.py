"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin-digests

Run from the root of a checkout.  Every program process is started in a
fresh interpreter with ``PYTHONPATH=src``, without inherited
``*_NUM_THREADS`` variables, and with a per-run tag in its environment so
that a process surviving its run is caught as an orphan.  Compute
workloads run one repetition per fresh process until ``--seconds`` have
passed; the service workload runs as one client process that starts its
own daemons.  The last stdout line is the result object; the lines
before it name every metric with its unit, and the run's metadata.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

import procstat
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Wall-clock budget of one run; no new work starts after it.
RUN_BUDGET_S = 165.0
#: A p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class RunError(RuntimeError):
    """A run that cannot produce a result."""


def program_env(tag: str, scratch: str) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.endswith("_NUM_THREADS")
    }
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = scratch
    env[procstat.TAG_VARIABLE] = tag
    return env


class Launcher:
    """Starts worker processes for one run and accounts for what they leave."""

    def __init__(self, deadline: float) -> None:
        self.tag = uuid.uuid4().hex
        self.scratch = os.path.join(OUT_DIR, f"tmp-{self.tag[:12]}")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = program_env(self.tag, self.scratch)
        self.deadline = deadline
        self.orphans = 0

    def launch(self, argv: List[str]) -> Tuple[Optional[float], Optional[dict], float]:
        """Run one worker; returns (seconds to ready, result, launch time)."""
        launched = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, WORKER, *argv],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=self.env,
            cwd=ROOT,
            start_new_session=True,
        )
        lines: "queue.Queue[Tuple[float, bytes]]" = queue.Queue()

        def read() -> None:
            for raw in process.stdout:
                lines.put((time.monotonic(), raw))

        threading.Thread(target=read, daemon=True).start()
        ready: Optional[float] = None
        result: Optional[dict] = None
        while True:
            remaining = self.deadline - time.monotonic()
            try:
                at, raw = lines.get(timeout=max(0.05, min(remaining, 0.5)))
            except queue.Empty:
                if process.poll() is not None and lines.empty():
                    break
                if remaining <= 0:
                    os.killpg(process.pid, signal.SIGKILL)
                    break
                continue
            text = raw.decode("utf-8", "replace").strip()
            if text == "PERFBENCH-READY":
                ready = at - launched
            elif text.startswith("PERFBENCH-RESULT "):
                result = json.loads(text[len("PERFBENCH-RESULT "):])
        process.wait()
        process.stdout.close()
        self.orphans += procstat.reap_orphans(self.tag)
        return ready, result, launched

    def close(self) -> None:
        self.orphans += procstat.reap_orphans(self.tag, grace_seconds=1.0)
        shutil.rmtree(self.scratch, ignore_errors=True)


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    corrupt: bool = False,
) -> dict:
    """Run one workload and return its samples, metrics and metadata."""
    started = time.monotonic()
    launcher = Launcher(started + RUN_BUDGET_S)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    if corrupt:
        common.append("--corrupt-digest")
    reps: List[dict] = []
    setup: List[float] = []
    crashed = unclean = 0
    try:
        _, meta, _ = launcher.launch(common + ["--meta"])
        if meta is None:
            raise RunError("the program cannot be imported")
        if workloads.WORKLOADS[workload].run is None:
            _, result, _ = launcher.launch(
                common + ["--trace", str(int(trace)), "--seconds", str(seconds)]
            )
            if result is None:
                raise RunError("the service run produced no result")
            reps, setup = result["reps"], result["setup_samples"]
            unclean = result["unclean_stops"]
        else:
            durations: List[float] = []
            # Another repetition starts only if a typical one still ends
            # within --seconds, so every run lasts about as long.
            while len(reps) + crashed < workloads.MIN_REPS or (
                time.monotonic() - started + _median(durations) <= seconds
            ):
                traced = trace and (len(reps) + crashed) % 2 == 1
                ready, rep, launched = launcher.launch(
                    common + ["--trace", str(int(traced))]
                )
                durations.append(time.monotonic() - launched)
                if ready is not None:
                    setup.append(ready)
                if rep is None:
                    crashed += 1
                else:
                    reps.append(rep)
                if time.monotonic() > launcher.deadline or crashed > workloads.MIN_REPS:
                    break
            while (
                len(setup) < workloads.SETUP_SAMPLES
                and time.monotonic() < launcher.deadline
            ):
                ready, _, _ = launcher.launch(common + ["--probe"])
                if ready is not None:
                    setup.append(ready)
    finally:
        launcher.close()
    plain = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    if not plain:
        raise RunError("no untraced repetition finished")
    # Hit latencies of every session: client-side spans cost little, and
    # a traced run needs them for its p90.
    latencies = [value for rep in reps for value in rep.get("latencies_ms", ())]
    attempted = sum(rep["cells"] + rep.get("hits", 0) for rep in reps) + crashed
    failed = (
        sum(rep["failed"] + rep.get("hits_failed", 0) for rep in reps)
        + crashed
        + unclean
        + launcher.orphans
    )
    end_to_end = {
        "setup_s": _median(setup),
        "wall_s": _median([rep["wall_s"] for rep in plain]),
        "cpu_s": _median([rep["cpu_s"] for rep in plain]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in plain]),
        "replica_rounds_per_s": _median([rep["rounds"] / rep["wall_s"] for rep in plain]),
    }
    per_layer = _layer_medians(traced_reps, "layers")
    per_layer.update(_layer_medians(plain, "plain_layers"))
    if traced_reps:
        per_layer["trace_overhead_frac"] = (
            _median([rep["wall_s"] for rep in traced_reps]) / end_to_end["wall_s"] - 1.0
        )
    if latencies:
        per_layer["service.latency_samples"] = float(len(latencies))
        per_layer["service.latency_p50_ms"] = _median(latencies)
        per_layer["service.latency_p90_ms"] = p90_with_tail(latencies)
    problems = [problem for rep in reps for problem in rep.get("problems", [])]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": bool(trace),
        "meta": meta,
        "correct": failed == 0,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "samples": {
            "setup_s": setup,
            "wall_s": [rep["wall_s"] for rep in plain],
            "latencies": len(latencies),
            "repetitions": len(reps),
            "crashed": crashed,
            "orphans": launcher.orphans,
            "unclean_stops": unclean,
        },
        "problems": problems[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "digests": reps[-1].get("digests", []),
    }


def _layer_medians(reps: List[dict], key: str) -> Dict[str, float]:
    names = sorted({name for rep in reps for name in rep.get(key, {})})
    return {name: _median([rep[key].get(name, 0.0) for rep in reps]) for name in names}


def p90_with_tail(values: List[float]) -> float:
    """The p90, or 0 when fewer than ``TAIL_SAMPLES`` samples lie beyond it."""
    if len(values) < 2:
        return 0.0
    p90 = statistics.quantiles(values, n=10)[-1]
    beyond = sum(1 for value in values if value > p90)
    return float(p90) if beyond >= TAIL_SAMPLES else 0.0


def declared_metrics() -> Dict[str, List[Tuple[str, str]]]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: [(entry["name"], entry["unit"]) for entry in spec[kind]]
        for kind in ("end_to_end", "per_layer")
    }


def result_line(run: dict) -> dict:
    """The result object: declared metrics of this mode, with units.

    A per-layer metric of a layer the workload does not exercise reads 0.
    """
    kind = "per_layer" if run["trace"] else "end_to_end"
    values = run[kind]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared_metrics()[kind]
    }
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def save(run: dict, line: dict) -> str:
    folder = os.path.join(OUT_DIR, "results")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(
        folder,
        f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}-{os.getpid()}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(run, result=line), handle, indent=1, default=str)
    return path


# --------------------------------------------------------------------------- #
# Self-test and digest pinning
# --------------------------------------------------------------------------- #


def self_test() -> int:
    """Tiny pass of every workload: metrics, units and failure counting."""
    declared = declared_metrics()
    failures: List[str] = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            run = measure(name, workloads.DEFAULT_SEED, 1.0, trace, size="tiny")
            line = result_line(run)
            kind = "per_layer" if trace else "end_to_end"
            units = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
            if units != dict(declared[kind]):
                failures.append(f"{name} trace={int(trace)}: metrics or units differ")
            must = (
                [metric for metric, _ in declared[kind]]
                if not trace
                else list(workloads.WORKLOADS[name].exercises) + ["workload.cpu_per_wall"]
            )
            zero = [m for m in must if not line["metrics"][m]["value"] > 0]
            if zero:
                failures.append(f"{name} trace={int(trace)}: not positive: {zero}")
            if not line["correct"] or line["failed"]:
                failures.append(f"{name} trace={int(trace)}: failed {run['problems']}")
            print(f"self-test {name} trace={int(trace)}: attempted={line['attempted']} "
                  f"failed={line['failed']}", flush=True)
        corrupted = measure(name, workloads.DEFAULT_SEED, 1.0, False, "tiny", corrupt=True)
        if corrupted["correct"] or corrupted["failed"] < 1:
            failures.append(f"{name}: a corrupted pinned digest was not counted as a failure")
        print(f"self-test {name} corrupted digest: failed={corrupted['failed']}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def pin_digests() -> int:
    """Rewrite ``digests.json`` from the current program (default seed)."""
    table: Dict[str, Dict[str, List[str]]] = {}
    for size in ("tiny", "full"):
        for name in workloads.WORKLOADS:
            run = measure(name, workloads.DEFAULT_SEED, 0.0, False, size=size)
            table.setdefault(size, {})[name] = run["digests"]
            print(f"{size} {name}: {len(run['digests'])} cells", flush=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(table, seed=workloads.DEFAULT_SEED), handle, indent=1)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    line = result_line(run)
    print(f"meta {json.dumps(run['meta'])}")
    print(f"samples {json.dumps(run['samples'])}")
    for problem in run["problems"]:
        print(f"problem {problem}")
    for name, entry in line["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"saved {save(run, line)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
