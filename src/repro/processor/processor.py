"""Per-processor execution context.

The processor model is deliberately simple — a task-level state machine
executing compute segments at a fixed effective IPC — because the paper's
effects all live in the memory/ordering system (see DESIGN.md). What the
processor *does* model carefully is where its cycles go: the evaluation's
stacked bars (Figures 9-11) need busy time separated from memory stalls,
task/version-support stalls, commit waits, recovery, and end-of-loop idle.
"""

from __future__ import annotations

import enum

from repro.core.config import MachineConfig
from repro.errors import SimulationError
from repro.memsys.cache import VersionCache
from repro.memsys.overflow import OverflowArea
from repro.memsys.undolog import UndoLog
from repro.tls.task import TaskRun


class CycleCategory(enum.Enum):
    """Where a processor's cycles go (for the Figure 9/10/11 bar split)."""

    BUSY = "busy"
    MEMORY = "memory"
    #: Waiting to create a second local speculative version (MultiT&SV).
    SV_STALL = "sv-stall"
    #: SingleT wait for the commit token after finishing a speculative task,
    #: including the eager merge performed while holding it.
    COMMIT_STALL = "commit-stall"
    #: Waiting out a squash recovery (AMM invalidation or FMM log replay).
    RECOVERY = "recovery"
    #: No runnable task (start-up ramp, end-of-loop, final merge waits).
    IDLE = "idle"

    def __str__(self) -> str:
        return self.value


#: Categories that count as "Stall" in the paper's two-way bar split.
STALL_CATEGORIES = (
    CycleCategory.MEMORY,
    CycleCategory.SV_STALL,
    CycleCategory.COMMIT_STALL,
    CycleCategory.RECOVERY,
    CycleCategory.IDLE,
)

#: Dense per-member index: :meth:`CycleAccount.add` runs twice per engine
#: event, and indexing a list by a plain int attribute is markedly cheaper
#: than hashing the enum member into a dict on every charge.
for _index, _category in enumerate(CycleCategory):
    _category.index = _index
_N_CATEGORIES = len(CycleCategory)
_STALL_INDICES = tuple(c.index for c in STALL_CATEGORIES)


class CycleAccount:
    """Cycle accounting for one processor."""

    __slots__ = ("_cycles",)

    def __init__(self) -> None:
        self._cycles = [0.0] * _N_CATEGORIES

    @property
    def by_category(self) -> dict[CycleCategory, float]:
        """Cycles per category, keyed by the enum (built on demand)."""
        cycles = self._cycles
        return {c: cycles[c.index] for c in CycleCategory}

    def add(self, category: CycleCategory, cycles: float) -> None:
        """Accrue ``cycles`` to ``category``."""
        if cycles < 0:
            raise SimulationError(
                f"negative cycle charge {cycles} for {category}"
            )
        self._cycles[category.index] += cycles

    def total(self) -> float:
        """Sum across all categories."""
        return sum(self._cycles)

    def busy(self) -> float:
        """Cycles spent executing instructions."""
        return self._cycles[CycleCategory.BUSY.index]

    def stall(self) -> float:
        """Cycles spent in any stall category."""
        cycles = self._cycles
        return sum(cycles[i] for i in _STALL_INDICES)


class Processor:
    """One processor: caches, overflow area, undo log, and the task it runs."""

    def __init__(self, proc_id: int, machine: MachineConfig) -> None:
        self.proc_id = proc_id
        self.l1 = VersionCache(machine.l1, name=f"P{proc_id}.L1")
        self.l2 = VersionCache(machine.l2, name=f"P{proc_id}.L2")
        self.overflow = OverflowArea(proc_id)
        self.undolog = UndoLog(proc_id)
        self.current: TaskRun | None = None
        #: Tasks claimed by this processor whose state is still buffered
        #: here (running, done-speculative, or committed-but-unmerged).
        self.resident: dict[int, TaskRun] = {}
        #: Bumped on abort; in-flight events with an older epoch are stale.
        self.epoch = 0
        #: Set while parked: the category to charge when resumed.
        self.parked_since: float | None = None
        self.parked_category: CycleCategory | None = None
        #: For SV stalls: the local task whose commit/squash unblocks us.
        self.sv_blocker: int | None = None
        self.account = CycleAccount()

    # ------------------------------------------------------------------
    # Parking / accounting
    # ------------------------------------------------------------------
    def park(self, now: float, category: CycleCategory,
             sv_blocker: int | None = None) -> None:
        """Block the processor until ``unpark`` (SingleT / MultiT&SV stalls).
        """
        if self.parked_since is not None:
            raise SimulationError(
                f"P{self.proc_id} parked twice (already {self.parked_category})"
            )
        self.parked_since = now
        self.parked_category = category
        self.sv_blocker = sv_blocker

    def unpark(self, now: float) -> None:
        """Release a parked processor and account the stalled span."""
        if self.parked_since is None:
            raise SimulationError(f"P{self.proc_id} unparked while not parked")
        if self.parked_category is None:
            raise SimulationError(f"P{self.proc_id} parked without a category")
        self.account.add(self.parked_category, now - self.parked_since)
        self.parked_since = None
        self.parked_category = None
        self.sv_blocker = None

    @property
    def parked(self) -> bool:
        return self.parked_since is not None

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def speculative_resident(self) -> list[TaskRun]:
        """Resident tasks that are still speculative (uncommitted)."""
        from repro.tls.task import TaskState

        return [r for r in self.resident.values()
                if r.state is not TaskState.COMMITTED]

    def drop_resident(self, task_id: int) -> None:
        """Forget a resident task (after commit or squash)."""
        self.resident.pop(task_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.task_id if self.current else None
        return (f"Processor({self.proc_id}, running={running}, "
                f"resident={sorted(self.resident)})")
