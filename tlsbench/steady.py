"""Steadiness report: is every end-to-end metric steady within its bound?

    python3 tlsbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Runs every workload ``--runs`` times, each run with another ``--seed``
(``first-seed``, ``first-seed + 1``, ...), alternating the order of the
workloads from one repetition to the next, and prints for each workload
and end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``), the quartile spread and the max/min spread as shares of
the median, against the metric's bound in ``BENCHMARK.json``. A metric
is steady when its quartile spread is below a third of its bound
(``setup_s`` is reported but, being set-up, only needs to stay within
its bound between two sets of runs). Exits non-zero if a run failed or
a metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict

import cells

BENCHMARK = json.loads((cells.ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(cells.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        cwd=cells.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stdout}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for index in range(args.runs):
        seed = args.first_seed + index
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result = one_run(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload} seed {seed}: "
                  + ", ".join(f"{name}={metric['value']:.4g}"
                              for name, metric in result["metrics"].items()),
                  flush=True)
    steady = True
    print(f"\n{'workload':<12} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'iqr%':>6} {'range%':>7} {'bound%':>7}  verdict")
    for workload in workloads:
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            data = values[workload][name]
            mid = statistics.median(data)
            q1, _q2, q3 = (statistics.quantiles(data, n=4)
                           if len(data) > 1 else (mid, mid, mid))
            iqr = (q3 - q1) / mid if mid else float("inf")
            spread = (max(data) - min(data)) / mid if mid else float("inf")
            ok = name == "setup_s" or iqr < bound / 3
            steady &= ok
            print(f"{workload:<12} {name:<12} {mid:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {iqr * 100:>6.1f} {spread * 100:>7.1f} "
                  f"{bound * 100:>7.1f}  {'steady' if ok else 'NOISY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
