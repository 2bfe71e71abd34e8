"""CPU, memory and process-tree accounting read from ``/proc`` and rusage.

Used by both sides of the benchmark: the workload processes bill the CPU
of everything they start (pool workers, the service daemon), and
``run.py`` checks that no tagged process outlives its run.  Stdlib only.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from typing import Dict, Iterable, List, Optional

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Environment variable carrying the per-run tag every program process
#: inherits; a process still carrying it after its run ended is an orphan.
TAG_VARIABLE = "PERFBENCH_TAG"


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may contain spaces and parentheses; it ends at the
    # last ')'.  fields[0] is then the state (field 3 of proc(5)).
    return raw[raw.rfind(")") + 2 :].split()


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> List[int]:
    """Every live process below ``root`` in the parent tree."""
    children: Dict[int, List[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(pid)
    found: List[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` plus what it reaped from its own children."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # proc(5) fields 14-17 (utime, stime, cutime, cstime) -> indices 11-14.
    return sum(int(value) for value in fields[11:15]) / CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children and live descendants.

    Reaped children (a pool torn down inside the timed region) are in
    ``RUSAGE_CHILDREN``; children still alive (a persistent pool, the
    service daemon) are read from ``/proc``, so a delta of this value over
    a region bills every program process exactly once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(process_cpu_seconds(pid) for pid in descendants(os.getpid()))
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime + live


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child, in MiB."""
    own = own_peak_rss_mb()
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    live = [process_peak_rss_mb(pid) for pid in descendants(os.getpid())]
    return max([own, reaped] + live)


def tagged_pids(tag: str) -> List[int]:
    """Live processes whose environment carries ``TAG_VARIABLE=tag``."""
    needle = f"{TAG_VARIABLE}={tag}".encode()
    found = []
    for pid in _all_pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as handle:
                entries = handle.read().split(b"\0")
        except OSError:
            continue
        if needle in entries:
            fields = _stat_fields(pid)
            if fields is not None and fields[0] != "Z":
                found.append(pid)
    return found


def reap_orphans(tag: str, grace_seconds: float = 5.0) -> int:
    """Wait for tagged processes to exit; kill and count any that remain."""
    deadline = time.monotonic() + grace_seconds
    survivors = tagged_pids(tag)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = tagged_pids(tag)
    kill_all(survivors)
    return len(survivors)


def kill_all(pids: Iterable[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
