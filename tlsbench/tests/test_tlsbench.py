"""The benchmark's own tests: tiny-scale runs of every workload, and
faults that must end as counted failures rather than a crash or a hang.

    python3 -m pytest tlsbench/tests -q

Each test runs ``tlsbench/run.py`` as a subprocess at
:data:`cells.TEST_SCALE`, for which references are checked in.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    """Run the benchmark; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "tlsbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def tiny(workload: str, *extra: str):
    return bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--scale", str(cells.TEST_SCALE), *extra)


def expected(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_tiny_run_reports_every_metric_and_no_failures(workload, trace,
                                                       kind):
    code, lines, result = tiny(workload, "--trace", trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"]
             for name, metric in result["metrics"].items()}
    assert units == expected(kind)
    if kind == "end_to_end":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_corrupted_reference_counts_failures():
    code, lines, result = tiny("warm-replay", "--fault", "corrupt-ref")
    assert code == 1, "\n".join(lines)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_killed_server_counts_failures():
    code, lines, result = bench(
        "--workload", "serve-mixed", "--seed", "1", "--seconds", "3",
        "--scale", str(cells.TEST_SCALE), "--fault", "kill-server")
    assert code == 1, "\n".join(lines)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_killed_fleet_worker_ends_cleanly():
    """A worker killed mid-sweep is requeued by the coordinator; whatever
    the fleet cannot recover must show up as counted failures."""
    code, lines, result = bench(
        "--workload", "fleet-grid", "--seed", "1", "--seconds", "3",
        "--scale", str(cells.TEST_SCALE), "--fault", "kill-worker")
    assert result is not None, "\n".join(lines)
    assert result["attempted"] >= 1
    assert code == (0 if result["failed"] == 0 else 1)
    assert result["correct"] == (result["failed"] == 0)


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "tlsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _lines, result = bench("--workload", "cold-grid", "--seed", "0",
                                 "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert result is None
