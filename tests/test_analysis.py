"""Tests for the experiment harness, report rendering, and CLI."""

import pytest

from repro.analysis.cli import main
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_summary,
    run_table3,
    run_tables12,
)
from repro.analysis.report import Bar, render_bars, render_table, render_task_timeline
from repro.core.taxonomy import (
    MULTI_T_MV_EAGER,
    MULTI_T_MV_LAZY,
    SINGLE_T_EAGER,
)

#: Tiny scale shared by every harness test: full workloads are benchmarks.
SCALE = 0.08


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext(scale=SCALE)


class TestRendering:
    def test_table_alignment(self):
        text = render_table(["a", "bb"], [(1, "x"), (22, "yy")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_bars_scale_to_peak(self):
        text = render_bars([
            Bar("x", 1.0, 0.5, "one"),
            Bar("longer", 2.0, 0.25, "two"),
        ])
        assert "x" in text and "longer" in text
        assert "█" in text and "░" in text

    def test_timeline_marks_exec_and_commit(self):
        text = render_task_timeline(
            [(0, 0, 0.0, 50.0, 50.0, 60.0), (1, 1, 0.0, 30.0, 60.0, 70.0)],
            total=70.0, n_procs=2)
        assert "P0" in text and "P1" in text
        assert "0" in text and "c" in text


class TestStaticExperiments:
    def test_tables12_renders(self):
        text = run_tables12().render()
        assert "CTID" in text
        assert "task-ID field" in text
        assert "MultiT&MV FMM" in text

    def test_figure4_renders(self):
        text = run_figure4().render()
        assert "Hydra" in text and "LRPD" in text

    def test_figure8_renders(self):
        text = run_figure8().render()
        assert "commit wavefront" in text


class TestMicroFigures:
    def test_figure5_orders_schemes(self):
        result = run_figure5()
        totals = result.total_cycles
        assert (totals["MultiT&MV Eager AMM"]
                <= totals["MultiT&SV Eager AMM"])
        assert (totals["MultiT&MV Eager AMM"]
                < totals["SingleT Eager AMM"])
        assert "P0" in result.render()

    def test_figure6_lazy_compresses_wavefront(self):
        result = run_figure6()
        def span(name):
            intervals, total, _n = result.timelines[name]
            return total
        assert span("MultiT&MV Lazy AMM") < span("MultiT&MV Eager AMM")
        assert span("SingleT Lazy AMM") < span("SingleT Eager AMM")


class TestMeasuredExperiments:
    def test_figure1_rows(self, ctx):
        result = run_figure1(ctx)
        assert len(result.rows) == 7
        by_app = {row[0]: row for row in result.rows}
        # P3m piles up far more speculative tasks than Euler.
        assert by_app["P3m"][1] > by_app["Euler"][1]
        # Privatization fractions: Tree high, Track low.
        assert by_app["Tree"][4] > 0.9
        assert by_app["Track"][4] < 0.1
        assert "Figure 1" in result.render()

    def test_table3_ranks_commit_exec(self, ctx):
        result = run_table3(ctx)
        ce = {row[0]: row[2] for row in result.rows}
        assert ce["Apsi"] > ce["Tree"]
        assert ce["Euler"] > ce["Tree"]
        cmp_ce = {row[0]: row[3] for row in result.rows}
        for app in cmp_ce:
            assert cmp_ce[app] < ce[app]

    def test_figure9_structure(self, ctx):
        result = run_figure9(ctx)
        assert set(result.cells) == {
            "P3m", "Tree", "Bdna", "Apsi", "Track", "Dsmc3d", "Euler"}
        assert result.averages[SINGLE_T_EAGER.name] == pytest.approx(1.0)
        # MultiT&MV is on average at least as fast as SingleT.
        assert (result.averages[MULTI_T_MV_EAGER.name]
                < result.averages[SINGLE_T_EAGER.name])
        assert "speedup" in result.render()

    def test_figure10_includes_lazy_l2(self, ctx):
        result = run_figure10(ctx)
        assert "P3m" in result.lazy_l2
        assert result.bars.averages[MULTI_T_MV_EAGER.name] == pytest.approx(
            1.0)
        assert "Lazy.L2" in result.render()

    def test_figure11_runs_on_cmp(self, ctx):
        result = run_figure11(ctx)
        assert result.machine_name == "CMP-8"

    def test_summary_rows(self, ctx):
        result = run_summary(ctx)
        text = result.render()
        assert "MultiT&MV vs SingleT" in text
        assert len(result.rows) == 7

    def test_average_reduction_identity(self, ctx):
        result = run_figure9(ctx)
        assert result.average_reduction(
            SINGLE_T_EAGER, SINGLE_T_EAGER) == pytest.approx(0.0)

    def test_context_caches_runs(self, ctx):
        from repro.core.config import NUMA_16

        first = ctx.run(NUMA_16, MULTI_T_MV_LAZY, "Tree")
        second = ctx.run(NUMA_16, MULTI_T_MV_LAZY, "Tree")
        assert first is second


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_static_experiment_via_cli(self, capsys):
        assert main(["tables12"]) == 0
        assert "CTID" in capsys.readouterr().out

    def test_measured_experiment_via_cli(self, capsys):
        assert main(["figure1", "--scale", "0.05"]) == 0
        assert "P3m" in capsys.readouterr().out

    def test_bench_check_floor_fails_below_the_floor(self, capsys,
                                                     monkeypatch):
        from repro.runner import bench

        monkeypatch.setattr(bench, "FLOOR_EVENTS_PER_SECOND", float("inf"))
        assert main(["bench", "--smoke", "--check-floor"]) == 1
        assert "below the committed perf floor" in capsys.readouterr().err
        monkeypatch.setattr(bench, "FLOOR_EVENTS_PER_SECOND", 0.0)
        assert main(["bench", "--smoke", "--check-floor"]) == 0
        assert "floor: 0 ev/s: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("rates, code", [
        ([50_000, 90_000, 95_000, 60_000, 100_000], 0),
        ([70_000, 50_000, 60_000, 65_000, 120_000], 1),
    ])
    def test_bench_floor_gates_on_the_median_of_five_samples(
            self, capsys, monkeypatch, rates, code):
        from repro.runner import bench

        pending = iter(rates)

        def fixed_sample(scale=1.0, seed=0, apps=bench.ENGINE_BENCH_APPS):
            return {"apps": list(apps), "schemes": [], "scale": scale,
                    "events": 1_000, "seconds": 0.01,
                    "events_per_second": float(next(pending))}

        monkeypatch.setattr(bench, "run_engine_bench", fixed_sample)
        assert main(["bench", "--smoke", "--check-floor"]) == code
        out = capsys.readouterr().out
        assert f"median {sorted(rates)[2]:,} ev/s" in out
        assert ", ".join(f"{rate:,}" for rate in rates) in out

    def test_bench_takes_no_sweep_flags(self, capsys):
        for flag in ("--scale", "--seed", "--jobs", "--bench-output"):
            with pytest.raises(SystemExit):
                main(["bench", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bench_profile_writes_a_listing_naming_its_cell(self, capsys,
                                                            tmp_path):
        out = tmp_path / "profile.txt"
        assert main(["bench", "--profile", "--profile-output",
                     str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith(
            "cProfile: Euler x MultiT&MV Eager AMM on CC-NUMA-16")
        assert capsys.readouterr().out.splitlines() == [
            first, f"profile written to {out}"]


class TestBeyondPaperExperiments:
    def test_breakdown_fractions_sum_to_one(self, ctx):
        from repro.analysis.experiments import run_breakdown

        result = run_breakdown(ctx)
        for per_scheme in result.cells.values():
            for fractions in per_scheme.values():
                assert sum(fractions.values()) == pytest.approx(1.0)
        assert "busy" in result.render()

    def test_traffic_rows_cover_apps_and_schemes(self, ctx):
        from repro.analysis.experiments import TRAFFIC_SCHEMES, run_traffic

        result = run_traffic(ctx)
        assert len(result.rows) == 7 * len(TRAFFIC_SCHEMES)
        assert "remote fetch/task" in result.render()

    def test_scalability_curves_aligned(self, ctx):
        from repro.analysis.experiments import run_scalability

        result = run_scalability(ctx, app="Tree", proc_counts=(2, 4))
        for speedups in result.curves.values():
            assert len(speedups) == 2
            assert all(s > 0 for s in speedups)
        assert "2 procs" in result.render()


class TestCLIRun:
    def test_run_command(self, capsys):
        assert main(["run", "--app", "Tree", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "speedup over sequential" in out
        assert "busy" in out

    def test_run_with_extensions(self, capsys):
        assert main(["run", "--app", "Bdna", "--scale", "0.05",
                     "--hlap", "--orb", "--bank-service", "20",
                     "--machine", "cmp8",
                     "--scheme", "MultiT&MV Eager AMM"]) == 0
        assert "commit/execution" in capsys.readouterr().out

    def test_run_multi_invocation(self, capsys):
        assert main(["run", "--app", "Euler", "--scale", "0.05",
                     "--invocations", "2"]) == 0
        capsys.readouterr()

    def test_list_includes_run(self, capsys):
        main(["list"])
        assert "run" in capsys.readouterr().out.split()
