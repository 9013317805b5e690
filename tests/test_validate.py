"""Runtime invariant checker + differential conformance oracle.

Two things are under test: (1) the checker passes on every evaluated
taxonomy point and observes every event without perturbing the run, and
(2) both layers actually *detect* — a seeded corruption of engine state
raises :class:`InvariantViolation`, and a divergent result surfaces as a
:class:`Divergence` in the conformance report rather than passing
silently.
"""

import pytest

from tests.conftest import (
    WORD_A,
    compute,
    make_task,
    make_workload,
    read,
    write,
)
from repro.analysis.serialization import canonical_result_bytes
from repro.core.config import NUMA_16, scaled_machine
from repro.core.engine import Simulation
from repro.core.hooks import CompositeHook, SimulationHook
from repro.core.taxonomy import (
    EVALUATED_SCHEMES,
    MULTI_T_MV_FMM,
    MULTI_T_MV_LAZY,
    SINGLE_T_EAGER,
)
from repro.memsys.undolog import LogEntry
from repro.runner import SimJob, SweepRunner, WorkloadSpec
from repro.tls.task import TaskState
from repro.validate import (
    InvariantChecker,
    InvariantViolation,
    potential_raw_victims,
    render_conformance_report,
    run_conformance,
)

SPEC = WorkloadSpec("Euler", seed=0, scale=0.1)


def _machine(n_procs=4):
    return scaled_machine(NUMA_16, n_procs)


# ----------------------------------------------------------------------
# Checker on real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES,
                         ids=lambda s: s.name)
def test_checker_holds_on_every_evaluated_scheme(scheme):
    checker = InvariantChecker(deep_every=16)
    result = Simulation(_machine(), scheme, SPEC.generate(),
                        hook=checker).run()
    assert checker.events_checked == result.events_processed
    assert checker.deep_sweeps >= result.events_processed // 16


def test_checked_run_is_bit_identical_to_unchecked():
    plain = SimJob(machine=NUMA_16, workload=SPEC, scheme=MULTI_T_MV_LAZY)
    checked = SimJob(machine=NUMA_16, workload=SPEC, scheme=MULTI_T_MV_LAZY,
                     check_invariants=True)
    # The checker is a pure observer of the run...
    runner = SweepRunner(jobs=1, cache=None)
    assert (canonical_result_bytes(runner.run(plain))
            == canonical_result_bytes(runner.run(checked)))
    # ...but a checked run certifies more, so it is cached separately.
    assert plain.cache_key() != checked.cache_key()


def test_hooks_observe_every_event():
    class Recorder(SimulationHook):
        def __init__(self):
            self.starts = self.events = self.finishes = 0

        def on_start(self, sim):
            self.starts += 1

        def after_event(self, sim, now):
            self.events += 1

        def on_finish(self, sim, result):
            self.finishes += 1

    first, second = Recorder(), Recorder()
    result = Simulation(_machine(), MULTI_T_MV_LAZY, SPEC.generate(),
                        hook=CompositeHook([first, second])).run()
    for recorder in (first, second):
        assert recorder.starts == recorder.finishes == 1
        assert recorder.events == result.events_processed


def test_checked_runs_take_the_production_path(monkeypatch):
    # An observed run must execute the code every production result
    # comes from: attaching a hook may not reroute events through the
    # reference methods instead of the drain loop's inline paths.
    advance = Simulation._advance
    calls = {"plain": 0, "hooked": 0}

    def counted(self, proc, now):
        calls["plain" if self.hook is None else "hooked"] += 1
        advance(self, proc, now)

    monkeypatch.setattr(Simulation, "_advance", counted)
    spec = WorkloadSpec("Euler", seed=0, scale=0.03)
    plain = Simulation(NUMA_16, MULTI_T_MV_LAZY, spec.generate()).run()
    hooked = Simulation(NUMA_16, MULTI_T_MV_LAZY, spec.generate(),
                        hook=SimulationHook()).run()
    assert calls["plain"] > 0
    assert calls["hooked"] == calls["plain"]
    assert canonical_result_bytes(hooked) == canonical_result_bytes(plain)


def test_deep_every_must_be_positive():
    with pytest.raises(ValueError):
        InvariantChecker(deep_every=0)


# ----------------------------------------------------------------------
# Detection: seeded corruptions must raise
# ----------------------------------------------------------------------
def _fresh_sim(scheme=MULTI_T_MV_LAZY):
    workload = make_workload(
        "hand",
        make_task(0, write(WORD_A), compute(5)),
        make_task(1, read(WORD_A), compute(5)),
        make_task(2, compute(5), write(WORD_A)),
    )
    return Simulation(_machine(2), scheme, workload)


def test_deep_check_passes_on_untampered_state():
    sim = _fresh_sim()
    InvariantChecker().deep_check(sim)  # must not raise


def test_detects_speculative_version_in_memory():
    sim = _fresh_sim()
    sim.memory.restore_words({WORD_A: 1})  # task 1 never committed
    with pytest.raises(InvariantViolation, match="memory holds version"):
        InvariantChecker().deep_check(sim)


def test_detects_directory_version_of_dead_task():
    sim = _fresh_sim()
    sim.directory.record_write(WORD_A, 2)  # task 2 is PENDING
    with pytest.raises(InvariantViolation, match="squashed task"):
        InvariantChecker().deep_check(sim)


def test_detects_unsorted_version_list():
    sim = _fresh_sim()
    sim.runs[1].state = TaskState.RUNNING
    sim.runs[2].state = TaskState.RUNNING
    sim.directory.record_write(WORD_A, 1)
    sim.directory.record_write(WORD_A, 2)
    for _word, producers, _readers in sim.directory.iter_states():
        producers.reverse()
    with pytest.raises(InvariantViolation, match="not strictly sorted"):
        InvariantChecker().deep_check(sim)


def test_detects_out_of_order_commit():
    sim = _fresh_sim()
    sim.runs[2].state = TaskState.COMMITTED  # but next_to_commit is 0
    with pytest.raises(InvariantViolation, match="strictly sequential"):
        InvariantChecker().deep_check(sim)


def test_detects_undo_log_use_under_amm():
    sim = _fresh_sim(scheme=SINGLE_T_EAGER)
    sim.procs[0].undolog.append(LogEntry(
        line_addr=0, producer_task=0, overwriting_task=1,
        words=((WORD_A, 0),),
    ))
    with pytest.raises(InvariantViolation, match="undo-log"):
        InvariantChecker().deep_check(sim)


def test_detects_overflow_use_under_fmm():
    sim = _fresh_sim(scheme=MULTI_T_MV_FMM)
    sim.runs[1].state = TaskState.RUNNING
    sim.procs[0].overflow.spill(line_addr=0x40, task_id=1, committed=False)
    with pytest.raises(InvariantViolation, match="overflow"):
        InvariantChecker().deep_check(sim)


# ----------------------------------------------------------------------
# Oracle: timing-independent facts
# ----------------------------------------------------------------------
def test_potential_raw_victims_cross_task_read():
    workload = make_workload(
        "raw",
        make_task(0, write(WORD_A)),
        make_task(1, read(WORD_A)),
    )
    assert potential_raw_victims(workload) == {1}


def test_potential_raw_victims_own_write_first_is_safe():
    workload = make_workload(
        "private",
        make_task(0, write(WORD_A)),
        make_task(1, write(WORD_A), read(WORD_A)),
    )
    assert potential_raw_victims(workload) == set()


def test_potential_raw_victims_read_before_any_writer():
    # Task 0 reads architectural state; task 1 writes later. Reading a
    # word only *later* tasks write can never violate.
    workload = make_workload(
        "arch",
        make_task(0, read(WORD_A)),
        make_task(1, write(WORD_A)),
    )
    assert potential_raw_victims(workload) == set()


def test_conformance_passes_on_small_grid():
    report = run_conformance(
        _machine(), [SPEC],
        schemes=(SINGLE_T_EAGER, MULTI_T_MV_LAZY, MULTI_T_MV_FMM),
        runner=SweepRunner(jobs=1, cache=None),
    )
    assert report.passed
    assert len(report.outcomes) == 3
    rendered = render_conformance_report(report)
    assert "PASS" in rendered and "FAIL" not in rendered


def test_conformance_reports_memory_divergence(monkeypatch):
    from repro.workloads.base import Workload

    monkeypatch.setattr(Workload, "sequential_image",
                        lambda self: {0xDEAD: 999})
    report = run_conformance(
        _machine(), [SPEC], schemes=(MULTI_T_MV_LAZY,),
        runner=SweepRunner(jobs=1, cache=None), check_invariants=False,
    )
    assert not report.passed
    assert [d.check for d in report.divergences] == ["memory-image"]
    assert "FAIL" in render_conformance_report(report)


def test_conformance_reports_invariant_violation(monkeypatch):
    def explode(self, sim, now):
        raise InvariantViolation("synthetic failure for the oracle")

    monkeypatch.setattr(InvariantChecker, "after_event", explode)
    report = run_conformance(
        _machine(), [SPEC], schemes=(MULTI_T_MV_LAZY,),
        runner=SweepRunner(jobs=1, cache=None),
    )
    assert not report.passed
    assert report.divergences[0].check == "invariants"
    assert "synthetic failure" in report.divergences[0].detail
