"""The repository benchmark: one workload, one seed, one JSON result.

    python3 tlsbench/run.py --workload cold-grid --seed 0 --seconds 20 \\
        --trace 0

Workloads: ``cold-grid``, ``warm-replay``, ``serve-mixed``,
``fleet-grid`` (see README.md). With ``--trace 0`` the run is untraced
and reports the end-to-end metrics; with ``--trace 1`` it runs the
workload's traced configuration once untraced and once with span
wrappers installed, and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only if every operation succeeded and matched the checked-in
reference; it is 2, with no result line, if this checkout's program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import cells

WORKLOADS = ("cold-grid", "warm-replay", "serve-mixed", "fleet-grid")
FAULTS = ("corrupt-ref", "kill-server", "kill-worker")

#: The end-to-end metrics every workload reports (see README.md for
#: what each means on each workload).
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("grid_s", "s"),
              ("hot_grid_s", "s"), ("cell_ms", "ms"))

#: The issue-level names each workload's samples also go by, printed in
#: the human-readable report: (name, unit, sample, statistic).
DETAIL = {
    "cold-grid": (("sweep_s", "s", "grid_s", "p50"),
                  ("rerender_s", "s", "hot_grid_s", "p50"),
                  ("cold_cell_p50_ms", "ms", "cell_ms", "p50")),
    "warm-replay": (("disk_replay_s", "s", "grid_s", "p50"),
                    ("memory_replay_s", "s", "hot_grid_s", "p50"),
                    ("cell_read_p50_ms", "ms", "cell_ms", "p50")),
    "serve-mixed": (("get_p50_ms", "ms", "get_ms", "p50"),
                    ("get_p99_ms", "ms", "get_ms", "p99"),
                    ("post_p50_ms", "ms", "post_ms", "p50"),
                    ("sweep_p50_ms", "ms", "sweep_ms", "p50"),
                    ("busy_get_p50_ms", "ms", "busy_get_ms", "p50"),
                    ("cold_post_p50_ms", "ms", "cold_post_ms", "p50")),
    "fleet-grid": (("sweep_s", "s", "grid_s", "p50"),
                   ("rerender_s", "s", "hot_grid_s", "p50"),
                   ("cold_cell_p50_ms", "ms", "cell_ms", "p50")),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=cells.SCALE,
                        help="workload scale; only scales with checked-in "
                             "references pass (the tests use "
                             f"{cells.TEST_SCALE})")
    parser.add_argument("--fault", choices=FAULTS, default=None,
                        help="inject a fault (the benchmark's own tests)")
    return parser.parse_args(argv)


def _untraced(run) -> dict[str, tuple[float, str]]:
    import measure
    import scenarios
    import serving

    body = {"cold-grid": scenarios.cold_grid,
            "warm-replay": scenarios.warm_replay,
            "serve-mixed": serving.serve_mixed,
            "fleet-grid": scenarios.fleet_grid}[run.opt.workload]
    body(run)
    samples = run.samples
    # Warm reads are thousands of like operations: their median. The 14
    # cold cells are distinct simulations, whose median jumps from one
    # cell to another: the median over rounds of the round's mean.
    cell = {"cold-grid": samples["cell_ms_round"],
            "warm-replay": samples["cell_ms"],
            "serve-mixed": samples["get_ms"],
            "fleet-grid": samples["cell_ms_round"]}[run.opt.workload]
    values = {"setup_s": measure.median(samples["setup_s"]),
              "peak_rss_mb": run.peak_rss_mb,
              "grid_s": measure.median(samples["grid_s"]),
              "hot_grid_s": measure.median(samples["hot_grid_s"]),
              "cell_ms": measure.median(cell)}
    print("end-to-end metrics (host time; n = samples):")
    counts = {"setup_s": "setup_s", "grid_s": "grid_s",
              "hot_grid_s": "hot_grid_s", "cell_ms": None}
    for name, unit in END_TO_END:
        source = counts.get(name)
        n = len(samples[source]) if source else len(cell)
        shown = "" if name == "peak_rss_mb" else f"  n={n}"
        print(f"  {name:<18} {values[name]:>12.4f} {unit:<4}{shown}")
    print("the same samples under the workload's own names:")
    for name, unit, sample, statistic in DETAIL[run.opt.workload]:
        data = samples[sample]
        value = (measure.percentile(data, 0.99) if statistic == "p99"
                 else measure.median(data))
        print(f"  {name:<18} {value:>12.4f} {unit:<4}  n={len(data)}")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _traced(run) -> dict[str, tuple[float, str]]:
    import measure
    import scenarios
    import serving
    from spans import LAYER_METRICS

    body = {"cold-grid": scenarios.traced_cold_grid,
            "warm-replay": scenarios.traced_warm_replay,
            "serve-mixed": serving.traced_serve_mixed,
            "fleet-grid": scenarios.traced_fleet_grid}[run.opt.workload]
    values = body(run)
    overhead = (f"tracing overhead: traced {values['trace.traced_s']:.3f} s"
                f" vs untraced {values['trace.untraced_s']:.3f} s "
                f"(x{values['trace.overhead_ratio']:.3f}), same "
                f"configuration")
    out_dir = (measure.WORK_DIR / "trace"
               / f"{run.opt.workload}-seed{run.opt.seed}")
    run.tracer.write(out_dir, "\n".join([overhead] + run.notes))
    print((out_dir / "layers.txt").read_text(), end="")
    print(f"spans: {out_dir / 'spans.jsonl'}")
    print("per-layer metrics (traced run):")
    for name, unit in LAYER_METRICS:
        print(f"  {name:<28} {values.get(name, 0.0):>14.4f} {unit}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cells.bootstrap()
    except (cells.BootstrapError, ImportError) as exc:
        print(f"tlsbench: {exc}", file=sys.stderr)
        return 2
    import measure
    import scenarios

    measure.WORK_DIR.mkdir(parents=True, exist_ok=True)
    checker = cells.Checker(corrupt=args.fault == "corrupt-ref")
    run = scenarios.Run(scenarios.Options(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        scale=args.scale, fault=args.fault), checker)
    print(f"tlsbench {args.workload}: seed {args.seed} (workload seed "
          f"{run.wseed}, scale {args.scale}), {args.seconds:g} s, trace "
          f"{args.trace}")
    try:
        metrics = _traced(run) if args.trace else _untraced(run)
    finally:
        for leftover in measure.WORK_DIR.glob("*-*"):
            if leftover.is_dir() and leftover.name.split("-")[0] in (
                    "cold", "warm", "fixture", "probe"):
                shutil.rmtree(leftover, ignore_errors=True)
    for note in run.notes:
        print(f"note: {note}")
    print(f"operations: attempted {checker.attempted}, failed "
          f"{checker.failed}")
    for reason in checker.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
