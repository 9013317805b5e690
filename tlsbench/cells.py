"""The benchmark's inputs and its correctness gate.

Inputs are the paper's own evaluation: the 113 distinct cells of
Figures 9-11 (seven applications under the AMM and FMM buffering schemes
on the 16-node CC-NUMA and the 8-core CMP, plus their sequential
baselines and Figure 10's Lazy.L2 bar), and 14 single cells outside that
grid (CMP-8 x MultiT&MV FMM / FMM.Sw) that the benchmark computes cold.

The benchmark's ``--seed`` picks one of two workload seeds
(:data:`WORKLOAD_SEEDS`: the default seed and one held-out seed) and, in
full, the order of cells, passes and requests. Every cell the benchmark
can receive therefore has a reference SHA-256 checked in under
``reference/``; :class:`Checker` compares each result against it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
DIGESTS_FILE = REFERENCE_DIR / "digests.json"
FIGURES_FILE = REFERENCE_DIR / "figures.json"

#: Workload seeds the benchmark can run: the default seed and a held-out
#: seed that was not used while the benchmark was tuned.
WORKLOAD_SEEDS = (0, 1)
#: Workload scale of every timed run (tasks per application x 0.1).
SCALE = 0.1
#: A tiny scale for the benchmark's own tests.
TEST_SCALE = 0.03
#: Every (scale, workload seed) pair with checked-in references.
REFERENCE_PAIRS = tuple((scale, seed) for scale in (SCALE, TEST_SCALE)
                        for seed in WORKLOAD_SEEDS)

FIGURES = ("figure9", "figure10", "figure11")


class BootstrapError(RuntimeError):
    """The program under test is not importable from this checkout."""


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the path and prove it is used.

    The benchmark measures the tree it sits in, never an installed copy,
    so a checkout without ``src/repro`` is an error, not a fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BootstrapError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BootstrapError(f"repro imported from {origin}, not {SRC}")


def workload_seed(seed: int) -> int:
    """The workload seed a benchmark ``--seed`` runs on."""
    return WORKLOAD_SEEDS[seed % len(WORKLOAD_SEEDS)]


def order_rng(seed: int, salt: str) -> random.Random:
    """A generator for the order of cells, passes or requests."""
    return random.Random(f"{seed}:{salt}")


@dataclass(frozen=True)
class Cell:
    """One simulation the benchmark can receive."""

    machine: str  # preset name, as the service accepts it
    scheme: str | None  # scheme name; None = sequential baseline
    app: str

    def job(self, scale: float, seed: int):
        """The :class:`~repro.runner.SimJob` this cell denotes."""
        from repro.core.config import MACHINES
        from repro.core.taxonomy import scheme_from_name
        from repro.runner import SimJob, WorkloadSpec

        scheme = scheme_from_name(self.scheme) if self.scheme else None
        return SimJob(machine=MACHINES[self.machine],
                      workload=WorkloadSpec(self.app, seed=seed,
                                            scale=scale),
                      scheme=scheme)

    def request(self, scale: float, seed: int) -> dict:
        """The ``POST /v1/jobs`` body for this cell."""
        return {"machine": self.machine, "scheme": self.scheme,
                "app": self.app, "seed": seed, "scale": scale}

    def label(self) -> str:
        return f"{self.machine}/{self.scheme or 'sequential'}/{self.app}"


def _apps() -> tuple[str, ...]:
    from repro.workloads.apps import APPLICATION_ORDER

    return tuple(APPLICATION_ORDER)


def _names(schemes) -> list[str]:
    return [scheme.name for scheme in schemes]


def grid_sweeps() -> list[dict]:
    """The Figure 9-11 grid as three cartesian ``POST /v1/sweeps`` bodies
    (without seed and scale): 63 + 49 + 1 = 113 distinct cells."""
    from repro.analysis.experiments import FIGURE10_SCHEMES
    from repro.core.taxonomy import AMM_SCHEMES

    numa = _names(AMM_SCHEMES) + [
        name for name in _names(FIGURE10_SCHEMES)
        if name not in _names(AMM_SCHEMES)]
    return [
        {"machines": ["numa16"], "schemes": numa + [None],
         "apps": list(_apps())},
        {"machines": ["cmp8"], "schemes": _names(AMM_SCHEMES) + [None],
         "apps": list(_apps())},
        {"machines": ["numa16-bigl2"], "schemes": ["MultiT&MV Lazy AMM"],
         "apps": ["P3m"]},
    ]


def grid_cells() -> list[Cell]:
    """The 113 distinct cells ``run_figure9/10/11`` compute."""
    return [Cell(machine, scheme, app)
            for sweep in grid_sweeps()
            for machine in sweep["machines"]
            for scheme in sweep["schemes"]
            for app in sweep["apps"]]


def cold_cells() -> list[Cell]:
    """Single cells outside the warm grid, computed cold one at a time."""
    return [Cell("cmp8", scheme, app)
            for scheme in ("MultiT&MV FMM", "MultiT&MV FMM.Sw")
            for app in _apps()]


def result_digest(result) -> str:
    """SHA-256 of a result's canonical bytes — the service's envelope
    digest (:func:`repro.runner.canonical_payload_digest`) computed from
    the decoded object."""
    from repro.analysis.serialization import (
        canonical_result_bytes,
        sequential_result_to_dict,
    )
    from repro.baselines.sequential import SequentialResult

    if isinstance(result, SequentialResult):
        blob = json.dumps(sequential_result_to_dict(result),
                          sort_keys=True).encode()
    else:
        blob = canonical_result_bytes(result)
    return hashlib.sha256(blob).hexdigest()


def load_references() -> tuple[dict[str, str], dict[str, str]]:
    """``(cache key -> digest, "<scale>/<seed>/<figure>" -> text)``."""
    digests = json.loads(DIGESTS_FILE.read_text())["cells"]
    figures = json.loads(FIGURES_FILE.read_text())
    return ({key: entry["digest"] for key, entry in digests.items()},
            figures)


def figure_id(scale: float, seed: int, figure: str) -> str:
    return f"{scale}/{seed}/{figure}"


class Checker:
    """Counts operations and checks every result against the reference.

    An operation fails on a digest mismatch, a wrong figure, a non-2xx
    reply, a timeout or a refused request; the first few failure reasons
    are kept for the report.
    """

    def __init__(self, corrupt: bool = False) -> None:
        self.digests, self.figures = load_references()
        if corrupt:
            # Fault injection for the benchmark's own tests: wrong
            # references must surface as counted failures.
            self.digests = {key: "0" * 64 for key in self.digests}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def note(self, reason: str) -> None:
        """Keep a failure reason for the report."""
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def record(self, ok: bool, reason: str | None = None) -> bool:
        """Count one operation and whether it succeeded (thread-safe)."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if reason:
                    self.note(reason)
        return ok

    def digest_ok(self, key: str, digest: str, what: str) -> bool:
        """Compare one digest; a cell without a reference is a mismatch."""
        expected = self.digests.get(key)
        if digest != expected:
            self.note(f"{what}: digest {digest[:12]} != reference "
                      f"{(expected or 'missing')[:12]} for {key[:12]}")
            return False
        return True

    def results_ok(self, pairs, what: str) -> bool:
        """Check every ``(key, result)`` pair (all are checked)."""
        oks = [self.digest_ok(key, result_digest(result), what)
               for key, result in pairs]
        return all(oks)

    def figure_ok(self, scale: float, seed: int, figure: str,
                  text: str) -> bool:
        """Compare one rendered figure with its reference text."""
        if text != self.figures.get(figure_id(scale, seed, figure)):
            self.note(f"{figure} text differs from the reference "
                      f"(scale {scale}, seed {seed})")
            return False
        return True

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
