"""Experiment harness: one entry point per table and figure of the paper.

Each ``run_*`` function executes the simulations it needs (with caching, so
composite experiments share runs) and returns a result object with a
``render()`` method producing the plain-text table/figure. The benchmark
suite under ``benchmarks/`` calls these entry points one table/figure each;
``repro-tls`` (the CLI) exposes them interactively.

Every experiment reproduces *shape*, not absolute cycle counts: the paper's
authors ran an execution-driven simulator on Fortran binaries, while this
package runs calibrated synthetic equivalents (see DESIGN.md §2 and
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pathlib import Path

from repro.baselines.sequential import SequentialResult
from repro.core.config import (
    CMP_8,
    MachineConfig,
    NUMA_16,
    NUMA_16_BIG_L2,
    scaled_machine,
)
from repro.core.results import SimulationResult
from repro.runner import ResultCache, SimJob, SweepRunner, WorkloadSpec
from repro.core.supports import (
    SUPPORT_DESCRIPTIONS,
    UPGRADE_PATH,
    complexity_score,
    required_supports,
)
from repro.core.taxonomy import (
    AMM_SCHEMES,
    EVALUATED_SCHEMES,
    MULTI_T_MV_EAGER,
    MULTI_T_MV_FMM,
    MULTI_T_MV_FMM_SW,
    MULTI_T_MV_LAZY,
    MULTI_T_SV_EAGER,
    MULTI_T_SV_LAZY,
    PRIOR_SCHEMES,
    SINGLE_T_EAGER,
    SINGLE_T_LAZY,
    Scheme,
    limiting_characteristics,
)
from repro.analysis.report import (
    Bar,
    render_bars,
    render_table,
    render_task_timeline,
)
from repro.tls.task import OP_COMPUTE, OP_READ, OP_WRITE, TaskSpec
from repro.workloads.apps import APPLICATION_ORDER, APPLICATIONS
from repro.workloads.base import PRIV_BASE, Workload


class ExperimentContext:
    """Shared workload / simulation cache for composite experiments.

    Every simulation — TLS runs and sequential baselines alike — is
    submitted through a :class:`~repro.runner.SweepRunner`, which dedupes
    identical jobs, replays prior runs from the persistent on-disk result
    cache, and fans cache misses out across a process pool. Figure entry
    points batch their whole (scheme x app) grid through
    :meth:`prefetch` so independent simulations run concurrently; the
    in-memory memo then serves the per-cell lookups. Each (machine,
    scheme, app) cell is one :class:`~repro.runner.SimJob` object per
    context, so its cache key is derived once however often the figures
    ask for the cell.
    """

    def __init__(self, scale: float = 1.0, seed: int = 0,
                 jobs: int | None = None,
                 cache: "bool | str | Path" = True,
                 runner: SweepRunner | None = None) -> None:
        self.scale = scale
        self.seed = seed
        if runner is None:
            disk_cache = None
            if cache:
                disk_cache = ResultCache(
                    cache if isinstance(cache, (str, Path)) else None)
            runner = SweepRunner(jobs=jobs, cache=disk_cache)
        self.runner = runner
        self._workloads: dict[str, Workload] = {}
        #: One job per (machine, scheme, app) cell, keyed by the machine
        #: *object* (``id``; the job keeps the machine alive), never by
        #: its display name: two machines sharing a name stay apart.
        self._jobs: dict[tuple[int, Scheme | None, str], SimJob] = {}
        #: In-memory memo keyed by the job's content address, so two
        #: machines that happen to share a display name never collide.
        self._results: dict[str, SimulationResult | SequentialResult] = {}

    def workload(self, app: str) -> Workload:
        """Memoized workload for ``app`` at this context's seed and scale."""
        if app not in self._workloads:
            self._workloads[app] = APPLICATIONS[app].generate(
                seed=self.seed, scale=self.scale
            )
        return self._workloads[app]

    # ------------------------------------------------------------------
    # Job plumbing
    # ------------------------------------------------------------------
    def _job(self, machine: MachineConfig, scheme: Scheme | None,
             app: str) -> SimJob:
        cell = (id(machine), scheme, app)
        job = self._jobs.get(cell)
        if job is None:
            job = self._jobs[cell] = SimJob(
                machine=machine,
                workload=WorkloadSpec(app, seed=self.seed, scale=self.scale),
                scheme=scheme,
            )
        return job

    def submit(self, jobs: list[SimJob]) -> list:
        """Run a batch of jobs through the runner, memoizing each result."""
        keys = [job.cache_key() for job in jobs]
        missing = {key: job for key, job in zip(keys, jobs)
                   if key not in self._results}
        if missing:
            self._results.update(zip(
                missing, self.runner.run_many(list(missing.values()))))
        return [self._results[key] for key in keys]

    def prefetch(self, machine: MachineConfig, apps: tuple[str, ...],
                 schemes: tuple[Scheme, ...],
                 sequential: bool = True) -> None:
        """Batch-submit a (scheme x app) grid so it executes in parallel.

        The sequential baseline of each (machine, app) pair rides along
        (``sequential=True``), so every figure shares one baseline run
        per pair instead of recomputing it.
        """
        jobs = []
        for app in apps:
            if sequential:
                jobs.append(self._job(machine, None, app))
            for scheme in schemes:
                jobs.append(self._job(machine, scheme, app))
        self.submit(jobs)

    # ------------------------------------------------------------------
    # Single-result accessors (memo-backed)
    # ------------------------------------------------------------------
    def sequential(self, machine: MachineConfig, app: str) -> SequentialResult:
        """Sequential baseline for ``app`` on ``machine`` (runner-cached)."""
        return self.submit([self._job(machine, None, app)])[0]

    def run(self, machine: MachineConfig, scheme: Scheme,
            app: str) -> SimulationResult:
        """One simulation cell, routed through the shared runner and cache."""
        return self.submit([self._job(machine, scheme, app)])[0]


# ======================================================================
# Figure 1-(a): application characteristics
# ======================================================================
@dataclass
class Figure1Result:
    """Figure 1-(a): measured application buffering characteristics."""
    rows: list[tuple[str, float, float, float, float]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        return render_table(
            ["Appl", "SpecTasks InSystem", "SpecTasks PerProc",
             "Footprint (KB)", "Priv (%)"],
            [(app, insys, perproc, kb, priv * 100)
             for app, insys, perproc, kb, priv in self.rows],
            title=("Figure 1-(a): speculative-task occupancy and written "
                   "footprints (NUMA-16, MultiT&MV Eager AMM)"),
        )


def run_figure1(ctx: ExperimentContext | None = None) -> Figure1Result:
    """Measure the Figure 1-(a) characteristics on the NUMA machine."""
    ctx = ctx or ExperimentContext()
    ctx.prefetch(NUMA_16, APPLICATION_ORDER, (MULTI_T_MV_EAGER,),
                 sequential=False)
    rows = []
    for app in APPLICATION_ORDER:
        result = ctx.run(NUMA_16, MULTI_T_MV_EAGER, app)
        rows.append((
            app,
            result.avg_spec_tasks_in_system,
            result.avg_spec_tasks_per_proc,
            result.avg_written_footprint_bytes / 1024.0,
            result.priv_footprint_fraction,
        ))
    return Figure1Result(rows=rows)


# ======================================================================
# Tables 1 and 2: supports and upgrade path
# ======================================================================
@dataclass
class Tables12Result:
    """Tables 1-2 and the Section 3.3.5 complexity ordering."""
    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        t1 = render_table(
            ["Support", "Description"],
            [(s.name, desc) for s, desc in SUPPORT_DESCRIPTIONS.items()],
            title="Table 1: supports required by the buffering schemes",
        )
        t2 = render_table(
            ["Upgrade", "Performance benefit", "Additional support"],
            [(f"{u.upgrade_from} -> {u.upgrade_to}", u.benefit,
              "+".join(sorted(s.name for s in u.added_supports)))
             for u in UPGRADE_PATH],
            title="Table 2: benefits and supports per upgrade step",
        )
        t3 = render_table(
            ["Scheme", "Supports", "Complexity score"],
            [(s.name,
              "+".join(sorted(x.name for x in required_supports(s))) or "-",
              complexity_score(s))
             for s in EVALUATED_SCHEMES],
            title="Section 3.3.5: complexity ordering of evaluated schemes",
        )
        return "\n\n".join((t1, t2, t3))


def run_tables12() -> Tables12Result:
    """Render the analytic support/upgrade/complexity tables."""
    return Tables12Result()


# ======================================================================
# Figure 4: prior schemes mapped onto the taxonomy
# ======================================================================
@dataclass
class Figure4Result:
    """Figure 4: prior TLS schemes mapped onto the taxonomy."""
    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        rows = []
        for prior in PRIOR_SCHEMES:
            merge = ("coarse recovery / n-a" if prior.merge_policy is None
                     else str(prior.merge_policy))
            rows.append((prior.name, str(prior.task_policy), merge,
                         prior.notes))
        return render_table(
            ["Scheme", "Task separation", "Merging", "Notes"],
            rows,
            title="Figure 4: existing TLS schemes mapped onto the taxonomy",
        )


def run_figure4() -> Figure4Result:
    """Render the analytic prior-scheme mapping."""
    return Figure4Result()


# ======================================================================
# Figure 5: SingleT vs MultiT&SV vs MultiT&MV on an imbalanced toy loop
# ======================================================================
def _figure5_workload() -> Workload:
    """Four tasks on two processors: T0 long; T1-T3 short, each writing X.

    Mirrors Figure 5 of the paper: under SingleT, the processor that
    finishes T1 stalls until T1 can commit; under MultiT&SV it starts T2
    but stalls when T2 writes X (second local speculative version); under
    MultiT&MV it never stalls.
    """
    x = PRIV_BASE
    tasks = []
    long_ops = ((OP_COMPUTE, 60_000),)
    tasks.append(TaskSpec(0, long_ops))
    for tid in (1, 2, 3):
        tasks.append(TaskSpec(tid, (
            (OP_COMPUTE, 1_000),
            (OP_WRITE, x),
            (OP_COMPUTE, 6_000),
            (OP_READ, x),
            (OP_COMPUTE, 1_000),
        )))
    return Workload(name="figure5-toy", tasks=tuple(tasks))


@dataclass
class Figure5Result:
    """Figure 5: SingleT vs MultiT&SV vs MultiT&MV timelines."""
    timelines: dict[str, tuple[list, float, int]]
    total_cycles: dict[str, float]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        parts = ["Figure 5: four tasks, two processors (T0 long; T1-T3 "
                 "each create a version of X)"]
        for name, (intervals, total, n_procs) in self.timelines.items():
            parts.append(render_task_timeline(
                intervals, total, n_procs, title=f"\n[{name}] "
                f"total = {total:,.0f} cycles"))
        return "\n".join(parts)


def run_figure5(ctx: ExperimentContext | None = None) -> Figure5Result:
    """Simulate the imbalanced two-processor toy loop under the three task policies.
    """
    ctx = ctx or ExperimentContext()
    machine = scaled_machine(NUMA_16, 2)
    workload = _figure5_workload()
    schemes = (SINGLE_T_EAGER, MULTI_T_SV_EAGER, MULTI_T_MV_EAGER)
    results = ctx.submit(
        [SimJob(machine=machine, workload=workload, scheme=s)
         for s in schemes])
    timelines = {}
    totals = {}
    for scheme, result in zip(schemes, results):
        intervals = [
            (t.task_id, t.proc_id, t.start_time, t.finish_time,
             t.commit_start, t.commit_end)
            for t in result.task_timings
        ]
        timelines[scheme.name] = (intervals, result.total_cycles,
                                  machine.n_procs)
        totals[scheme.name] = result.total_cycles
    return Figure5Result(timelines=timelines, total_cycles=totals)


# ======================================================================
# Figure 6: execution vs commit wavefronts, Eager vs Lazy
# ======================================================================
def _figure6_workload() -> Workload:
    """Six equal tasks with a large written footprint (high C/E ratio)."""
    tasks = []
    for tid in range(6):
        ops = [(OP_COMPUTE, 2_000)]
        base = PRIV_BASE + tid * 16 * 64
        for j in range(48):
            ops.append((OP_WRITE, base + j * 16))
            ops.append((OP_COMPUTE, 150))
        tasks.append(TaskSpec(tid, tuple(ops)))
    return Workload(name="figure6-toy", tasks=tuple(tasks))


@dataclass
class Figure6Result:
    """Figure 6: execution vs commit wavefronts, Eager vs Lazy."""
    timelines: dict[str, tuple[list, float, int]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        parts = ["Figure 6: execution and commit wavefronts (six tasks, "
                 "three processors, high commit/execution ratio)"]
        for name, (intervals, total, n_procs) in self.timelines.items():
            parts.append(render_task_timeline(
                intervals, total, n_procs,
                title=f"\n[{name}] total = {total:,.0f} cycles"))
        return "\n".join(parts)


def run_figure6(ctx: ExperimentContext | None = None) -> Figure6Result:
    """Simulate the high commit/execution-ratio toy loop under Eager and Lazy.
    """
    ctx = ctx or ExperimentContext()
    machine = scaled_machine(NUMA_16, 3)
    workload = _figure6_workload()
    schemes = (MULTI_T_MV_EAGER, MULTI_T_MV_LAZY,
               SINGLE_T_EAGER, SINGLE_T_LAZY)
    results = ctx.submit(
        [SimJob(machine=machine, workload=workload, scheme=s)
         for s in schemes])
    timelines = {}
    for scheme, result in zip(schemes, results):
        intervals = [
            (t.task_id, t.proc_id, t.start_time, t.finish_time,
             t.commit_start, t.commit_end)
            for t in result.task_timings
        ]
        timelines[scheme.name] = (intervals, result.total_cycles,
                                  machine.n_procs)
    return Figure6Result(timelines=timelines)


# ======================================================================
# Figure 8: limiting characteristics per scheme
# ======================================================================
@dataclass
class Figure8Result:
    """Figure 8: application characteristics limiting each scheme."""
    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        rows = []
        for scheme in EVALUATED_SCHEMES:
            limits = limiting_characteristics(scheme)
            rows.append((scheme.name,
                         "; ".join(sorted(str(l) for l in limits))))
        return render_table(
            ["Scheme", "Limiting application characteristics"],
            rows,
            title="Figure 8: characteristics limiting each scheme",
        )


def run_figure8() -> Figure8Result:
    """Render the analytic limiting-characteristics map."""
    return Figure8Result()


# ======================================================================
# Table 3: application characteristics (measured vs paper)
# ======================================================================
@dataclass
class Table3Result:
    """Table 3: measured application characteristics on both machines."""
    rows: list[tuple]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        return render_table(
            ["Appl", "Instr/task (k)", "C/E NUMA (%)", "C/E CMP (%)",
             "Imbalance (cv)", "Priv (%fp)", "Squash/task",
             "Paper C/E NUMA", "Paper class"],
            self.rows,
            title=("Table 3: measured application characteristics "
                   "(paper reference in last columns)"),
        )


def run_table3(ctx: ExperimentContext | None = None) -> Table3Result:
    """Measure instr/task, commit/exec ratio, and squash class per application.
    """
    ctx = ctx or ExperimentContext()
    ctx.prefetch(NUMA_16, APPLICATION_ORDER, (MULTI_T_MV_EAGER,),
                 sequential=False)
    ctx.prefetch(CMP_8, APPLICATION_ORDER, (MULTI_T_MV_EAGER,),
                 sequential=False)
    rows = []
    for app in APPLICATION_ORDER:
        profile = APPLICATIONS[app]
        workload = ctx.workload(app)
        numa = ctx.run(NUMA_16, MULTI_T_MV_EAGER, app)
        cmp_ = ctx.run(CMP_8, MULTI_T_MV_EAGER, app)
        rows.append((
            app,
            workload.mean_instructions() / 1000.0,
            numa.commit_exec_ratio() * 100,
            cmp_.commit_exec_ratio() * 100,
            workload.imbalance_cv(),
            numa.priv_footprint_fraction * 100,
            numa.squashed_executions / numa.n_tasks,
            profile.paper.commit_exec_numa_pct,
            f"{profile.paper.load_imbalance} imb / "
            f"{profile.paper.priv_pattern} priv / "
            f"{profile.paper.commit_exec_class} C-E",
        ))
    return Table3Result(rows=rows)


# ======================================================================
# Figures 9 and 11: the six AMM schemes per application
# ======================================================================
@dataclass
class SchemeBarsResult:
    """Normalized execution-time bars for a set of schemes per app."""

    machine_name: str
    schemes: tuple[Scheme, ...]
    #: app -> scheme name -> (normalized time, busy fraction, speedup).
    cells: dict[str, dict[str, tuple[float, float, float]]]
    #: scheme name -> average normalized time over apps.
    averages: dict[str, float]
    title: str

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        parts = [self.title]
        for app, per_scheme in self.cells.items():
            bars = []
            for scheme in self.schemes:
                norm, busy, speedup = per_scheme[scheme.name]
                bars.append(Bar(label=scheme.name, normalized=norm,
                                busy_fraction=busy,
                                annotation=f"speedup {speedup:4.1f}"))
            parts.append(render_bars(bars, title=f"\n{app}:"))
        avg_bars = [Bar(label=name, normalized=norm, busy_fraction=0.0)
                    for name, norm in self.averages.items()]
        parts.append(render_bars(
            avg_bars, title="\nAverage (normalized execution time):"))
        return "\n".join(parts)

    def average_reduction(self, scheme: Scheme,
                          reference: Scheme) -> float:
        """Mean relative execution-time reduction of scheme vs reference."""
        reductions = []
        for per_scheme in self.cells.values():
            new = per_scheme[scheme.name][0]
            ref = per_scheme[reference.name][0]
            reductions.append(1.0 - new / ref)
        return sum(reductions) / len(reductions)


def _scheme_bars(ctx: ExperimentContext, machine: MachineConfig,
                 schemes: tuple[Scheme, ...], title: str,
                 reference: Scheme) -> SchemeBarsResult:
    ctx.prefetch(machine, APPLICATION_ORDER, schemes + (reference,),
                 sequential=True)
    cells: dict[str, dict[str, tuple[float, float, float]]] = {}
    sums = {s.name: 0.0 for s in schemes}
    for app in APPLICATION_ORDER:
        seq = ctx.sequential(machine, app)
        ref = ctx.run(machine, reference, app)
        per_scheme = {}
        for scheme in schemes:
            result = ctx.run(machine, scheme, app)
            norm = result.normalized_to(ref)
            per_scheme[scheme.name] = (
                norm,
                result.busy_fraction(),
                result.speedup_over(seq.total_cycles),
            )
            sums[scheme.name] += norm
        cells[app] = per_scheme
    averages = {name: total / len(APPLICATION_ORDER)
                for name, total in sums.items()}
    return SchemeBarsResult(
        machine_name=machine.name, schemes=schemes, cells=cells,
        averages=averages, title=title,
    )


def run_figure9(ctx: ExperimentContext | None = None) -> SchemeBarsResult:
    """Figure 9: separation/merging tradeoffs on the CC-NUMA."""
    ctx = ctx or ExperimentContext()
    return _scheme_bars(
        ctx, NUMA_16, AMM_SCHEMES,
        "Figure 9: AMM schemes on CC-NUMA-16 "
        "(times normalized to SingleT Eager)",
        reference=SINGLE_T_EAGER,
    )


def run_figure11(ctx: ExperimentContext | None = None) -> SchemeBarsResult:
    """Figure 11: the same comparison on the CMP."""
    ctx = ctx or ExperimentContext()
    return _scheme_bars(
        ctx, CMP_8, AMM_SCHEMES,
        "Figure 11: AMM schemes on CMP-8 "
        "(times normalized to SingleT Eager)",
        reference=SINGLE_T_EAGER,
    )


# ======================================================================
# Figure 10: AMM vs FMM (MultiT&MV), plus Lazy.L2 for P3m
# ======================================================================
@dataclass
class Figure10Result:
    """Figure 10: MultiT&MV merge-policy comparison (+ Lazy.L2 for P3m)."""
    bars: SchemeBarsResult
    lazy_l2: dict[str, tuple[float, float, float]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        parts = [self.bars.render()]
        rows = [(app, norm, busy * 100, speedup)
                for app, (norm, busy, speedup) in self.lazy_l2.items()]
        parts.append("\n" + render_table(
            ["Appl", "Lazy.L2 normalized", "busy %", "speedup"],
            rows,
            title=("Lazy.L2 (4-MB, 16-way L2): relieves AMM buffer "
                   "pressure, P3m row is the paper's bar"),
        ))
        return "\n".join(parts)


FIGURE10_SCHEMES = (
    MULTI_T_MV_EAGER,
    MULTI_T_MV_LAZY,
    MULTI_T_MV_FMM,
    MULTI_T_MV_FMM_SW,
)


def run_figure10(ctx: ExperimentContext | None = None) -> Figure10Result:
    """Run the NUMA MultiT&MV Eager/Lazy/FMM/FMM.Sw grid."""
    ctx = ctx or ExperimentContext()
    bars = _scheme_bars(
        ctx, NUMA_16, FIGURE10_SCHEMES,
        "Figure 10: AMM vs FMM under MultiT&MV on CC-NUMA-16 "
        "(times normalized to MultiT&MV Eager)",
        reference=MULTI_T_MV_EAGER,
    )
    lazy_l2 = {}
    for app in ("P3m",):
        seq = ctx.sequential(NUMA_16, app)
        ref = ctx.run(NUMA_16, MULTI_T_MV_EAGER, app)
        big = ctx.run(NUMA_16_BIG_L2, MULTI_T_MV_LAZY, app)
        lazy_l2[app] = (
            big.total_cycles / ref.total_cycles,
            big.busy_fraction(),
            big.speedup_over(seq.total_cycles),
        )
    return Figure10Result(bars=bars, lazy_l2=lazy_l2)


# ======================================================================
# Section 5.4 summary: headline aggregate improvements
# ======================================================================
@dataclass
class SummaryResult:
    """Section 5.4: aggregate percentage improvements across both machines."""
    rows: list[tuple[str, float, float]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        return render_table(
            ["Claim", "Paper (%)", "Measured (%)"],
            [(claim, paper, measured * 100)
             for claim, paper, measured in self.rows],
            title="Section 5.4: headline average execution-time reductions",
        )


def run_summary(ctx: ExperimentContext | None = None) -> SummaryResult:
    """Derive the Section 5.4 aggregate improvements from Figures 9-11."""
    ctx = ctx or ExperimentContext()
    fig9 = run_figure9(ctx)
    fig11 = run_figure11(ctx)

    def simple_lazy_gain(fig: SchemeBarsResult) -> float:
        gains = [
            fig.average_reduction(SINGLE_T_LAZY, SINGLE_T_EAGER),
            fig.average_reduction(MULTI_T_SV_LAZY, MULTI_T_SV_EAGER),
        ]
        return sum(gains) / len(gains)

    ctx.prefetch(NUMA_16, APPLICATION_ORDER,
                 (MULTI_T_MV_FMM, MULTI_T_MV_FMM_SW), sequential=False)
    fmm_sw_overhead = []
    for app in APPLICATION_ORDER:
        fmm = ctx.run(NUMA_16, MULTI_T_MV_FMM, app)
        sw = ctx.run(NUMA_16, MULTI_T_MV_FMM_SW, app)
        fmm_sw_overhead.append(sw.total_cycles / fmm.total_cycles - 1.0)

    rows = [
        ("NUMA: MultiT&MV vs SingleT (Eager)", 32.0,
         fig9.average_reduction(MULTI_T_MV_EAGER, SINGLE_T_EAGER)),
        ("NUMA: laziness for simple schemes (SingleT/MultiT&SV)", 30.0,
         simple_lazy_gain(fig9)),
        ("NUMA: laziness for MultiT&MV", 24.0,
         fig9.average_reduction(MULTI_T_MV_LAZY, MULTI_T_MV_EAGER)),
        ("CMP: MultiT&MV vs SingleT (Eager)", 23.0,
         fig11.average_reduction(MULTI_T_MV_EAGER, SINGLE_T_EAGER)),
        ("CMP: laziness for simple schemes", 9.0,
         simple_lazy_gain(fig11)),
        ("CMP: laziness for MultiT&MV", 3.0,
         fig11.average_reduction(MULTI_T_MV_LAZY, MULTI_T_MV_EAGER)),
        ("NUMA: FMM.Sw overhead over FMM", 6.0,
         sum(fmm_sw_overhead) / len(fmm_sw_overhead)),
    ]
    return SummaryResult(rows=rows)


# ======================================================================
# Stall breakdown: where the cycles go under each scheme
# ======================================================================
@dataclass
class BreakdownResult:
    """Per-(app, scheme) cycle-category fractions (Figure 9's bar split,
    disaggregated: the paper folds memory, task/version-support and
    end-of-loop stalls into one "Stall" segment; this table keeps them
    apart)."""

    machine_name: str
    #: app -> scheme name -> {category: fraction of all processor cycles}.
    cells: dict[str, dict[str, dict[str, float]]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        from repro.processor.processor import CycleCategory

        header = ["Appl", "Scheme"] + [c.value for c in CycleCategory]
        rows = []
        for app, per_scheme in self.cells.items():
            for scheme_name, fractions in per_scheme.items():
                rows.append([app, scheme_name] + [
                    f"{fractions[c.value] * 100:.1f}%"
                    for c in CycleCategory
                ])
        return render_table(
            header, rows,
            title=(f"Cycle breakdown on {self.machine_name} "
                   "(fractions of all processor cycles)"),
        )


def run_breakdown(ctx: ExperimentContext | None = None,
                  machine: MachineConfig = NUMA_16) -> BreakdownResult:
    """Disaggregated busy/stall breakdown for the six AMM schemes."""
    from repro.processor.processor import CycleCategory

    ctx = ctx or ExperimentContext()
    ctx.prefetch(machine, APPLICATION_ORDER, AMM_SCHEMES, sequential=False)
    cells: dict[str, dict[str, dict[str, float]]] = {}
    for app in APPLICATION_ORDER:
        per_scheme = {}
        for scheme in AMM_SCHEMES:
            result = ctx.run(machine, scheme, app)
            total = sum(result.cycles_by_category.values())
            per_scheme[scheme.name] = {
                c.value: (result.cycles_by_category[c] / total if total
                          else 0.0)
                for c in CycleCategory
            }
        cells[app] = per_scheme
    return BreakdownResult(machine_name=machine.name, cells=cells)


# ======================================================================
# Protocol traffic: messages per committed task under each merge policy
# ======================================================================
@dataclass
class TrafficResult:
    """Protocol message counts per committed task (app x merge policy).

    Beyond the paper: quantifies how the merge policy redistributes
    traffic — Eager pushes every dirty line through the token-holding
    commit, Lazy shifts write-backs to displacements/final merge and adds
    VCL combining, FMM adds free displacements protected by MTID.
    """

    machine_name: str
    rows: list[tuple]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        return render_table(
            ["Appl", "Scheme", "remote fetch/task", "mem fetch/task",
             "writebacks/task", "VCL merges/task", "overflow ops/task"],
            self.rows,
            title=(f"Protocol traffic per committed task on "
                   f"{self.machine_name}"),
        )


TRAFFIC_SCHEMES = (MULTI_T_MV_EAGER, MULTI_T_MV_LAZY, MULTI_T_MV_FMM)


def run_traffic(ctx: ExperimentContext | None = None,
                machine: MachineConfig = NUMA_16) -> TrafficResult:
    """Beyond-the-paper view: protocol traffic per committed task."""
    ctx = ctx or ExperimentContext()
    ctx.prefetch(machine, APPLICATION_ORDER, TRAFFIC_SCHEMES,
                 sequential=False)
    rows = []
    for app in APPLICATION_ORDER:
        for scheme in TRAFFIC_SCHEMES:
            result = ctx.run(machine, scheme, app)
            n = result.n_tasks
            t = result.traffic
            rows.append((
                app, scheme.name,
                t.remote_cache_fetches / n,
                t.memory_fetches / n,
                t.line_writebacks / n,
                t.vcl_merges / n,
                (t.overflow_spills + t.overflow_fetches) / n,
            ))
    return TrafficResult(machine_name=machine.name, rows=rows)


# ======================================================================
# Scalability: speedup vs processor count per scheme
# ======================================================================
@dataclass
class ScalabilityResult:
    """Speedup of selected schemes as the NUMA machine grows.

    Beyond the paper's two machine sizes: sweeps the processor count and
    shows where each scheme saturates — SingleT and Eager merging stop
    scaling once the serialized commit wavefront (proportional to the
    commit/execution ratio times the processor count) fills the critical
    path, while MultiT&MV Lazy keeps scaling.
    """

    app: str
    proc_counts: tuple[int, ...]
    #: scheme name -> list of speedups aligned with proc_counts.
    curves: dict[str, list[float]]

    def render(self) -> str:
        """Render the paper-style plain-text table/figure."""
        rows = []
        for scheme_name, speedups in self.curves.items():
            rows.append([scheme_name] + [f"{s:.2f}x" for s in speedups])
        return render_table(
            ["Scheme"] + [f"{n} procs" for n in self.proc_counts],
            rows,
            title=(f"Scalability on {self.app}: speedup over sequential "
                   "vs processor count (CC-NUMA latencies)"),
        )


SCALABILITY_SCHEMES = (SINGLE_T_EAGER, MULTI_T_MV_EAGER, MULTI_T_MV_LAZY)


def run_scalability(ctx: ExperimentContext | None = None,
                    app: str = "Apsi",
                    proc_counts: tuple[int, ...] = (4, 8, 16, 32),
                    ) -> ScalabilityResult:
    """Beyond-the-paper view: speedup vs processor count."""
    ctx = ctx or ExperimentContext()
    machines = [scaled_machine(NUMA_16, n) for n in proc_counts]
    jobs = []
    for machine in machines:
        jobs.append(ctx._job(machine, None, app))
        jobs.extend(ctx._job(machine, scheme, app)
                    for scheme in SCALABILITY_SCHEMES)
    ctx.submit(jobs)
    curves: dict[str, list[float]] = {s.name: [] for s in SCALABILITY_SCHEMES}
    for machine in machines:
        sequential = ctx.sequential(machine, app)
        for scheme in SCALABILITY_SCHEMES:
            result = ctx.run(machine, scheme, app)
            curves[scheme.name].append(
                result.speedup_over(sequential.total_cycles))
    return ScalabilityResult(app=app, proc_counts=tuple(proc_counts),
                             curves=curves)


#: Experiments by name, for the CLI and benchmarks.
EXPERIMENTS = {
    "figure1": run_figure1,
    "tables12": run_tables12,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure8": run_figure8,
    "table3": run_table3,
    "figure9": run_figure9,
    "figure10": run_figure10,
    "figure11": run_figure11,
    "summary": run_summary,
    "breakdown": run_breakdown,
    "traffic": run_traffic,
    "scalability": run_scalability,
}
