"""Synthetic equivalents of the paper's seven numerical applications.

The paper's evaluation (Section 4.2, Table 3, Figure 1) characterizes each
application's non-analyzable loops by: instructions per task, load imbalance
between nearby tasks, the weight of mostly-privatization patterns, the
Commit/Execution ratio, and squash frequency. Those characteristics — not
the Fortran source — are what drive every result in Section 5, so each
:class:`ApplicationProfile` here regenerates a reference stream with the
same characteristics (scaled down; see DESIGN.md Section 6 and
EXPERIMENTS.md for the paper-vs-model calibration table).

Pattern summary per application:

* **P3m** — high load imbalance (a few giant tasks), medium privatization
  weight, very low C/E ratio, and a shared read stream that *aliases* the
  privatization cache sets: when speculative tasks pile up behind a giant
  task, their versions flood those sets and AMM schemes thrash (the
  Figure 10 buffer-pressure effect that FMM and Lazy.L2 avoid).
* **Tree** — medium imbalance, fully privatization-dominated, low C/E.
* **Bdna** — low imbalance, privatization-dominated, medium C/E.
* **Apsi** — low imbalance, privatization-heavy (the Figure 1-(b) ``work``
  loop) plus private output, high-medium C/E.
* **Track** — high-medium imbalance, no privatization, high C/E, rare
  dependence violations.
* **Dsmc3d** — medium imbalance, no privatization, medium C/E, rare
  dependence violations.
* **Euler** — low imbalance, no privatization, high C/E, and *frequent*
  dependence violations (0.02 squashes per committed task in the paper) —
  the squash-recovery stressor that separates Lazy AMM from FMM.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.tls.task import TaskSpec
from repro.workloads.base import Workload
from repro.workloads.patterns import (
    OpListBuilder,
    aliased_shared_word,
    dep_word,
    output_word,
    priv_word,
    shared_word,
)
from repro.tls.task import OP_READ, OP_WRITE


@dataclass(frozen=True)
class PaperCharacteristics:
    """The paper's reported values for one application (Table 3 / Figure 1).

    Stored for the EXPERIMENTS.md paper-vs-measured comparison; qualitative
    classes use the paper's own labels.
    """

    pct_of_tseq: float
    instr_per_task_thousands: float
    commit_exec_numa_pct: float
    commit_exec_cmp_pct: float
    load_imbalance: str
    priv_pattern: str
    commit_exec_class: str
    spec_tasks_in_system: float
    spec_tasks_per_proc: float
    written_footprint_kb: float
    priv_footprint_pct: float
    squash_rate: str


@dataclass(frozen=True)
class ApplicationProfile:
    """Generator parameters for one synthetic application."""

    name: str
    n_tasks: int
    instructions_per_task: int
    #: Coefficient of variation of the lognormal task-length distribution.
    imbalance_cv: float
    #: Every ``giant_every``-th task is ``giant_factor`` times longer
    #: (0 disables); models P3m's extreme imbalance.
    giant_every: int
    giant_factor: float
    #: Mostly-privatization pattern: lines written (then re-read) per task,
    #: drawn from a pool of ``priv_pool_lines`` shared by all tasks.
    priv_lines: int
    priv_pool_lines: int
    #: Per-task private output lines (non-privatization writes).
    out_lines: int
    #: Reads of the shared read-only region per task (plus one repeat each
    #: when ``shared_read_repeats`` > 1).
    shared_reads: int
    shared_read_repeats: int
    #: Whether shared reads alias the privatization cache sets (P3m).
    aliased_shared_reads: bool
    #: Reads of an older task's output (forwarding traffic); 0 disables.
    forward_reads: int
    forward_lag: int
    #: Fraction of tasks set up as dependence-violation victims.
    dep_victim_rate: float
    dep_gap: int
    #: Words written per privatization/output line (sparse sampling of the
    #: full line keeps event counts tractable; commit costs count lines).
    words_per_line: int
    paper: PaperCharacteristics

    def __post_init__(self) -> None:
        if self.priv_lines > self.priv_pool_lines:
            raise WorkloadError(
                f"{self.name}: priv_lines {self.priv_lines} exceeds pool "
                f"{self.priv_pool_lines}"
            )
        if not 0 <= self.dep_victim_rate <= 1:
            raise WorkloadError(f"{self.name}: bad dep_victim_rate")

    def generate(self, *, seed: int = 0, scale: float = 1.0,
                 invocations: int = 1,
                 iterations_per_task: float = 1.0) -> Workload:
        """Build the synthetic workload.

        ``scale`` shrinks the task count; ``invocations`` concatenates
        several instances of the loop (Table 3 lists the loops executing
        many times per run — later invocations start with warm caches);
        ``iterations_per_task`` rechunks the loop: doubling it halves the
        number of tasks while doubling each task's instructions and
        footprint (the Table 3 caption's chunking knob).
        """
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        if invocations < 1:
            raise WorkloadError(
                f"invocations must be >= 1, got {invocations}")
        if iterations_per_task <= 0:
            raise WorkloadError(
                f"iterations_per_task must be positive, got "
                f"{iterations_per_task}")
        profile = self
        if iterations_per_task != 1.0:
            profile = replace(
                self,
                n_tasks=max(4, round(self.n_tasks / iterations_per_task)),
                instructions_per_task=max(
                    200, round(self.instructions_per_task
                               * iterations_per_task)),
                priv_lines=max(0, round(self.priv_lines
                                        * iterations_per_task)),
                priv_pool_lines=max(1, round(self.priv_pool_lines
                                             * iterations_per_task)),
                out_lines=max(0, round(self.out_lines * iterations_per_task)),
                shared_reads=max(0, round(self.shared_reads
                                          * iterations_per_task)),
            )
        n_tasks = max(8, round(profile.n_tasks * scale))
        rng = random.Random(zlib.crc32(profile.name.encode()) ^ seed)

        # Pre-plan dependence pairs: victim reads early what producer
        # writes late. The pair count is deterministic (rate * tasks,
        # rounded, at least one when the rate is non-zero) and the pairs
        # are spread evenly through the loop, so squash frequency is a
        # stable application property rather than a seed artifact.
        victims: dict[int, int] = {}     # victim task -> pair index
        producers: dict[int, int] = {}   # producer task -> pair index
        n_pairs = 0
        if profile.dep_victim_rate > 0:
            n_pairs = max(1, round(profile.dep_victim_rate * n_tasks))
        for pair_index in range(n_pairs):
            victim = (profile.dep_gap
                      + (pair_index * 2 + 1) * n_tasks // (2 * n_pairs))
            victim = min(victim, n_tasks - 1)
            producer = victim - profile.dep_gap
            if (victim in victims or producer in producers
                    or producer in victims or victim in producers):
                continue
            victims[victim] = pair_index
            producers[producer] = pair_index

        tasks = []
        for invocation in range(invocations):
            for position in range(n_tasks):
                tid = invocation * n_tasks + position
                spec = profile._generate_task(position, n_tasks, rng,
                                              victims, producers)
                if invocation:
                    spec = TaskSpec(task_id=tid, ops=spec.ops)
                tasks.append(spec)
        return Workload(
            name=profile.name,
            tasks=tuple(tasks),
            description=(
                f"synthetic {profile.name}: {len(tasks)} tasks"
                f" ({invocations} invocation(s)), "
                f"~{profile.instructions_per_task} instr/task, "
                f"{profile.priv_lines} priv + {profile.out_lines} out lines"
            ),
        )

    # ------------------------------------------------------------------
    def _task_instructions(self, tid: int, rng: random.Random) -> int:
        cv = self.imbalance_cv
        base = self.instructions_per_task
        if cv > 0:
            import math

            sigma = math.sqrt(math.log(1 + cv * cv))
            mu = math.log(base) - sigma * sigma / 2
            instr = int(rng.lognormvariate(mu, sigma))
        else:
            instr = base
        if self.giant_every and (tid % self.giant_every
                                 == self.giant_every // 2):
            instr = int(base * self.giant_factor)
        return max(200, instr)

    def _generate_task(self, tid: int, n_tasks: int, rng: random.Random,
                       victims: dict[int, int],
                       producers: dict[int, int]) -> TaskSpec:
        builder = OpListBuilder(self._task_instructions(tid, rng))

        # Dependence-victim read: as early as possible so a concurrent
        # producer's late write arrives after it (out-of-order RAW).
        if tid in victims:
            builder.add(0.01, OP_READ, dep_word(victims[tid]))

        # Mostly-privatization writes, early in the task (Section 5.1:
        # "tasks write to mostly-privatized variables early").
        my_priv = sorted(rng.sample(range(self.priv_pool_lines),
                                    self.priv_lines))
        for j, line_idx in enumerate(my_priv):
            pos = 0.04 + 0.18 * (j / max(1, self.priv_lines))
            for w in range(self.words_per_line):
                builder.add(pos, OP_WRITE, priv_word(line_idx, w))

        # Private output writes, spread through the middle.
        stride = self.out_lines + 1
        for j in range(self.out_lines):
            pos = 0.30 + 0.45 * (j / max(1, self.out_lines))
            for w in range(self.words_per_line):
                builder.add(pos, OP_WRITE, output_word(tid, j, stride, w))

        # Shared read-only stream.
        for j in range(self.shared_reads):
            if self.aliased_shared_reads:
                word = aliased_shared_word(rng, n_alias_groups=2,
                                           set_span=self.priv_pool_lines)
            else:
                word = shared_word(rng, working_set_lines=4096)
            for rep in range(self.shared_read_repeats):
                pos = 0.10 + 0.80 * ((j + rep * 0.5) / max(
                    1, self.shared_reads))
                builder.add(min(pos, 0.93), OP_READ, word)

        # Forwarding reads from a safely-older task's output.
        if self.forward_reads and tid >= self.forward_lag:
            src = tid - self.forward_lag
            src_out = max(1, self.out_lines)
            for j in range(self.forward_reads):
                line = j % src_out
                builder.add(0.25 + 0.1 * j / max(1, self.forward_reads),
                            OP_READ, output_word(src, line, stride, 0))

        # Privatization re-reads (the work(k) consumption of Figure 1-(b)).
        for j, line_idx in enumerate(my_priv):
            pos = 0.70 + 0.20 * (j / max(1, self.priv_lines))
            builder.add(pos, OP_READ, priv_word(line_idx, 0))

        # Dependence-producer write, as late as possible.
        if tid in producers:
            builder.add(0.97, OP_WRITE, dep_word(producers[tid]))

        return TaskSpec(task_id=tid, ops=builder.build())


def _profile(**kwargs) -> ApplicationProfile:
    return ApplicationProfile(**kwargs)


#: The seven applications, calibrated against Table 3 / Figure 1.
APPLICATIONS: dict[str, ApplicationProfile] = {
    "P3m": _profile(
        name="P3m",
        n_tasks=768,
        instructions_per_task=42_000,
        imbalance_cv=0.30,
        giant_every=256,
        giant_factor=16.0,
        priv_lines=12,
        priv_pool_lines=16,
        out_lines=2,
        shared_reads=40,
        shared_read_repeats=3,
        aliased_shared_reads=True,
        forward_reads=0,
        forward_lag=0,
        dep_victim_rate=0.0,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=56.5, instr_per_task_thousands=69.1,
            commit_exec_numa_pct=0.3, commit_exec_cmp_pct=0.1,
            load_imbalance="High", priv_pattern="Med",
            commit_exec_class="Low",
            spec_tasks_in_system=800.0, spec_tasks_per_proc=50.0,
            written_footprint_kb=1.7, priv_footprint_pct=87.9,
            squash_rate="negligible",
        ),
    ),
    "Tree": _profile(
        name="Tree",
        n_tasks=160,
        instructions_per_task=24_000,
        imbalance_cv=0.50,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=4,
        priv_pool_lines=4,
        out_lines=0,
        shared_reads=8,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=0,
        forward_lag=0,
        dep_victim_rate=0.0,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=92.2, instr_per_task_thousands=28.7,
            commit_exec_numa_pct=1.4, commit_exec_cmp_pct=0.4,
            load_imbalance="Med", priv_pattern="High",
            commit_exec_class="Low",
            spec_tasks_in_system=24.0, spec_tasks_per_proc=1.5,
            written_footprint_kb=0.9, priv_footprint_pct=99.5,
            squash_rate="negligible",
        ),
    ),
    "Bdna": _profile(
        name="Bdna",
        n_tasks=160,
        instructions_per_task=34_000,
        imbalance_cv=0.15,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=32,
        priv_pool_lines=32,
        out_lines=0,
        shared_reads=10,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=0,
        forward_lag=0,
        dep_victim_rate=0.0,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=44.2, instr_per_task_thousands=103.3,
            commit_exec_numa_pct=6.0, commit_exec_cmp_pct=3.9,
            load_imbalance="Low", priv_pattern="High",
            commit_exec_class="Med",
            spec_tasks_in_system=25.6, spec_tasks_per_proc=1.6,
            written_footprint_kb=23.7, priv_footprint_pct=99.4,
            squash_rate="negligible",
        ),
    ),
    "Apsi": _profile(
        name="Apsi",
        n_tasks=160,
        instructions_per_task=22_000,
        imbalance_cv=0.15,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=24,
        priv_pool_lines=24,
        out_lines=16,
        shared_reads=10,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=0,
        forward_lag=0,
        dep_victim_rate=0.0,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=29.3, instr_per_task_thousands=102.6,
            commit_exec_numa_pct=11.4, commit_exec_cmp_pct=6.1,
            load_imbalance="Low", priv_pattern="High",
            commit_exec_class="High-Med",
            spec_tasks_in_system=28.8, spec_tasks_per_proc=1.8,
            written_footprint_kb=20.0, priv_footprint_pct=60.0,
            squash_rate="negligible",
        ),
    ),
    "Track": _profile(
        name="Track",
        n_tasks=160,
        instructions_per_task=19_000,
        imbalance_cv=0.60,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=0,
        priv_pool_lines=0,
        out_lines=32,
        shared_reads=10,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=4,
        forward_lag=48,
        dep_victim_rate=0.004,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=58.1, instr_per_task_thousands=41.2,
            commit_exec_numa_pct=12.6, commit_exec_cmp_pct=6.6,
            load_imbalance="High-Med", priv_pattern="Low",
            commit_exec_class="High-Med",
            spec_tasks_in_system=20.8, spec_tasks_per_proc=1.3,
            written_footprint_kb=2.3, priv_footprint_pct=0.6,
            squash_rate="occasional",
        ),
    ),
    "Dsmc3d": _profile(
        name="Dsmc3d",
        n_tasks=160,
        instructions_per_task=26_000,
        imbalance_cv=0.40,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=0,
        priv_pool_lines=0,
        out_lines=24,
        shared_reads=10,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=4,
        forward_lag=48,
        dep_victim_rate=0.004,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=41.2, instr_per_task_thousands=22.3,
            commit_exec_numa_pct=6.6, commit_exec_cmp_pct=3.4,
            load_imbalance="Med", priv_pattern="Low",
            commit_exec_class="Med",
            spec_tasks_in_system=17.6, spec_tasks_per_proc=1.1,
            written_footprint_kb=0.8, priv_footprint_pct=0.5,
            squash_rate="occasional",
        ),
    ),
    "Euler": _profile(
        name="Euler",
        n_tasks=160,
        instructions_per_task=17_000,
        imbalance_cv=0.20,
        giant_every=0,
        giant_factor=1.0,
        priv_lines=0,
        priv_pool_lines=0,
        out_lines=36,
        shared_reads=10,
        shared_read_repeats=1,
        aliased_shared_reads=False,
        forward_reads=4,
        forward_lag=48,
        dep_victim_rate=0.02,
        dep_gap=2,
        words_per_line=2,
        paper=PaperCharacteristics(
            pct_of_tseq=89.8, instr_per_task_thousands=5.4,
            commit_exec_numa_pct=14.5, commit_exec_cmp_pct=7.1,
            load_imbalance="Low", priv_pattern="Low",
            commit_exec_class="High",
            spec_tasks_in_system=17.4, spec_tasks_per_proc=1.1,
            written_footprint_kb=7.3, priv_footprint_pct=0.7,
            squash_rate="frequent (0.02 squashes per committed task)",
        ),
    ),
}

#: Application names in the paper's figure order.
APPLICATION_ORDER: tuple[str, ...] = (
    "P3m", "Tree", "Bdna", "Apsi", "Track", "Dsmc3d", "Euler",
)


def generate_workload(name: str, *, seed: int = 0, scale: float = 1.0,
                      invocations: int = 1,
                      iterations_per_task: float = 1.0) -> Workload:
    """Generate the synthetic workload for a paper application by name."""
    try:
        profile = APPLICATIONS[name]
    except KeyError:
        known = ", ".join(APPLICATION_ORDER)
        raise WorkloadError(
            f"unknown application {name!r}; known: {known}"
        ) from None
    return profile.generate(seed=seed, scale=scale, invocations=invocations,
                            iterations_per_task=iterations_per_task)
