"""Set-up probe: a fresh interpreter that gets the program ready, once.

    python3 tlsbench/probe.py runner|fleet WORK_DIR

``runner`` imports the experiment harness and builds an
``ExperimentContext`` over a default ``SweepRunner`` (cold-grid and
warm-replay set-up). ``fleet`` also starts a ``FleetDispatcher`` with
``nproc`` local workers and waits until all of them are registered
(fleet-grid set-up). The probe prints ``ready`` and then waits for its
standard input to close before it tears down, so the parent times only
the set-up.
"""

from __future__ import annotations

import shutil
import sys
import tempfile


def main() -> int:
    kind, work_dir = sys.argv[1], sys.argv[2]
    import cells

    cells.bootstrap()
    from repro.analysis.experiments import ExperimentContext
    from repro.runner import ResultCache, SweepRunner, default_jobs

    cache_dir = tempfile.mkdtemp(prefix="probe-", dir=work_dir)
    fleet = None
    try:
        dispatcher = None
        if kind == "fleet":
            from repro.dist.coordinator import FleetDispatcher

            width = default_jobs()
            fleet = FleetDispatcher(min_workers=width, local_workers=width,
                                    worker_cache_dir=cache_dir)
            fleet.start()
            fleet.coordinator.wait_for_workers(width, 60)
            dispatcher = fleet
        runner = SweepRunner(cache=ResultCache(cache_dir),
                             dispatcher=dispatcher)
        ExperimentContext(scale=cells.SCALE, seed=0, runner=runner)
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
