"""Regenerate the benchmark's reference digests and figure texts.

    python3 tlsbench/refgen.py

Computes every cell the benchmark can receive — the Figure 9-11 grid and
the cold single cells, for each (scale, workload seed) in
:data:`cells.REFERENCE_PAIRS` — through the program's own
``run_figure9/10/11`` and ``SweepRunner``, and writes
``reference/digests.json`` (cache key -> SHA-256 of the canonical result
bytes) and ``reference/figures.json`` (the rendered figures). Run it only
when simulated results are meant to change (an ``ENGINE_VERSION`` bump);
the benchmark fails every operation whose result differs from these.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import cells


def main() -> int:
    cells.bootstrap()
    from repro.analysis import experiments
    from repro.core.engine import ENGINE_VERSION
    from repro.runner import ResultCache, SweepRunner

    digests: dict[str, dict[str, str]] = {}
    figures: dict[str, str] = {}
    for scale, seed in cells.REFERENCE_PAIRS:
        tmp = tempfile.mkdtemp(prefix="tlsbench-ref-")
        try:
            runner = SweepRunner(cache=ResultCache(tmp))
            ctx = experiments.ExperimentContext(scale=scale, seed=seed,
                                                runner=runner)
            for name in cells.FIGURES:
                text = getattr(experiments, f"run_{name}")(ctx).render()
                figures[cells.figure_id(scale, seed, name)] = text
            chosen = cells.grid_cells() + cells.cold_cells()
            jobs = [cell.job(scale, seed) for cell in chosen]
            for cell, job, result in zip(chosen, jobs, ctx.submit(jobs)):
                digests[job.cache_key()] = {
                    "cell": f"{cell.label()} seed={seed} scale={scale}",
                    "digest": cells.result_digest(result),
                }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"scale {scale} seed {seed}: {len(digests)} cells so far")
    cells.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    cells.DIGESTS_FILE.write_text(json.dumps(
        {"engine_version": ENGINE_VERSION, "cells": digests},
        indent=1, sort_keys=True) + "\n")
    cells.FIGURES_FILE.write_text(
        json.dumps(figures, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
