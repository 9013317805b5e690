"""Timing statistics, peak-memory sampling and child-process handling."""

from __future__ import annotations

import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import cells

#: Where runs keep fixtures, scratch caches and traced output: inside
#: the checkout, ignored by git.
WORK_DIR = cells.ROOT / ".bench_build" / "tlsbench"


def median(values) -> float:
    """Median of the samples, 0.0 when there are none (a failed run)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-quantile by the nearest-rank rule (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def program_env() -> dict[str, str]:
    """Environment for the program's subprocesses: this checkout's src."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(cells.SRC) if not existing
                         else f"{cells.SRC}{os.pathsep}{existing}")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Peak resident memory of a process tree
# ----------------------------------------------------------------------
def children_map() -> dict[int, list[int]]:
    """Parent pid -> child pids, for every process in ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    return children


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_kb(root: int) -> int:
    """Sum of the peak RSS (VmHWM) of ``root`` and its live descendants."""
    children = children_map()
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        total += _hwm_kb(pid)
        stack.extend(children.get(pid, ()))
    return total


class RssMonitor:
    """Samples a process tree's summed peak RSS twice a second.

    ``peak_mb`` is the largest sum seen: every process's own high-water
    mark, added over the processes alive together at one sample.
    """

    def __init__(self, root: int, interval: float = 0.5) -> None:
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="tlsbench-rss")

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        self.peak_kb = max(self.peak_kb, tree_hwm_kb(self.root))

    def __enter__(self) -> "RssMonitor":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def read_line_until(proc: subprocess.Popen, marker: str,
                    timeout: float) -> str:
    """Read ``proc``'s stdout until a line containing ``marker``."""
    deadline = time.monotonic() + timeout
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise TimeoutError(f"no {marker!r} line within {timeout}s")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"process exited (code {proc.poll()}) before {marker!r}")
            if marker in line:
                return line
    finally:
        selector.close()


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def probe_setup(kind: str, timeout: float = 60.0) -> float:
    """Seconds from launching a fresh interpreter until ``probe.py
    <kind>`` reports the program ready for its first operation."""
    cmd = [sys.executable, str(Path(cells.BENCH_DIR) / "probe.py"), kind,
           str(WORK_DIR)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True,
                            env=program_env())
    try:
        read_line_until(proc, "ready", timeout)
        elapsed = time.perf_counter() - start
        proc.stdin.close()  # the probe tears down and exits on EOF
        proc.wait(timeout=timeout)
    finally:
        stop_process(proc)
    return elapsed
