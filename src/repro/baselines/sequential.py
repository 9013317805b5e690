"""Sequential-execution baseline (the speedup denominator).

The paper reports speedups "over sequential execution of the code where all
data is in the local memory module". This model runs every task in order on
a single processor of the same machine: compute at the model IPC, memory
operations through the same L1/L2 cache model with every line homed locally,
and no speculation machinery (no task IDs, no commits, no stalls).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.results import deferrable
from repro.memsys.address import line_of
from repro.memsys.cache import ARCH_TASK_ID, CacheLine, VersionCache
from repro.tls.task import OP_COMPUTE, OP_READ, OP_WRITE
from repro.workloads.base import Workload


@deferrable("memory_image")
@dataclass(frozen=True)
class SequentialResult:
    """Outcome of the sequential baseline run.

    ``memory_image`` (read only by correctness checks) can be left
    unparsed by a cache read and parsed on first access
    (:func:`~repro.core.results.defer_fields`).
    """

    workload_name: str
    machine_name: str
    total_cycles: float
    busy_cycles: float
    memory_cycles: float
    memory_image: dict[int, int]

    @property
    def memory_fraction(self) -> float:
        return self.memory_cycles / self.total_cycles if self.total_cycles else 0.0


def simulate_sequential(machine: MachineConfig,
                        workload: Workload) -> SequentialResult:
    """Run ``workload`` sequentially on one processor of ``machine``."""
    costs = machine.costs
    l1 = VersionCache(machine.l1, name="seq.L1")
    l2 = VersionCache(machine.l2, name="seq.L2")
    local_mem = float(machine.lat_memory_by_hops[0])
    l3_lines: set[int] | None = set() if machine.lat_l3 is not None else None

    busy = 0.0
    mem = 0.0
    now = 0.0
    image: dict[int, int] = {}

    def access(line: int, dirty: bool) -> float:
        nonlocal now
        entry = l1.find(line, ARCH_TASK_ID)
        if entry is not None:
            l1.touch(entry, now)
            entry.dirty = entry.dirty or dirty
            return float(machine.lat_l1)
        l1.record_miss()
        entry = l2.find(line, ARCH_TASK_ID)
        if entry is not None:
            l2.touch(entry, now)
            entry.dirty = entry.dirty or dirty
            latency = float(machine.lat_l2)
        elif l3_lines is not None and line in l3_lines:
            latency = float(machine.lat_l3 or 0)
        else:
            latency = local_mem
            if l3_lines is not None:
                l3_lines.add(line)
        # Install into both levels; displaced dirty lines write back to
        # local memory asynchronously (no extra charge, as in the parallel
        # model's non-critical write-backs).
        l2.insert(CacheLine(line, ARCH_TASK_ID, dirty=dirty), now)
        victim = l1.insert(CacheLine(line, ARCH_TASK_ID, dirty=dirty), now)
        if victim is not None and victim.dirty:
            l2.insert(CacheLine(victim.line_addr, ARCH_TASK_ID, dirty=True),
                      now)
        return latency

    for task in workload.tasks:
        for kind, value in task.ops:
            if kind == OP_COMPUTE:
                cycles = costs.cycles_for_instructions(value)
                busy += cycles
                now += cycles
            elif kind == OP_READ:
                latency = access(line_of(value), dirty=False)
                mem += latency
                now += latency
            elif kind == OP_WRITE:
                latency = access(line_of(value), dirty=True)
                mem += latency
                now += latency
                image[value] = task.task_id

    return SequentialResult(
        workload_name=workload.name,
        machine_name=machine.name,
        total_cycles=busy + mem,
        busy_cycles=busy,
        memory_cycles=mem,
        memory_image=image,
    )
