"""Shared fixtures and workload-building helpers for the test suite."""

from __future__ import annotations

import errno
import json

import pytest

from repro.core.config import (
    CacheGeometry,
    CostModel,
    MachineConfig,
    NUMA_16,
    scaled_machine,
)
from repro.runner.cache import DirectoryBackend
from repro.runner.entry import encode_entry, entry_body, entry_digest
from repro.tls.task import OP_COMPUTE, OP_READ, OP_WRITE, TaskSpec
from repro.workloads.base import Workload

#: Word addresses that never collide with generated-region bases.
WORD_A = 0x10
WORD_B = 0x20
WORD_C = 0x400


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/digests.json from the current engine "
             "output instead of diffing against it",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-golden")


def make_task(task_id: int, *ops: tuple[int, int]) -> TaskSpec:
    """Build a TaskSpec from raw (kind, value) pairs."""
    return TaskSpec(task_id=task_id, ops=tuple(ops))


def compute(instr: int) -> tuple[int, int]:
    return (OP_COMPUTE, instr)


def read(word: int) -> tuple[int, int]:
    return (OP_READ, word)


def write(word: int) -> tuple[int, int]:
    return (OP_WRITE, word)


def make_workload(name: str, *tasks: TaskSpec) -> Workload:
    return Workload(name=name, tasks=tuple(tasks))


#: The bad entries a shared cache tier can hold: cut short; empty; an
#: intact entry (valid hash) whose summary no longer decodes into a
#: result; one digit of the memory image changed, still valid JSON; and
#: one hex digit of the stored canonical digest changed.
CORRUPTIONS = ("truncated", "empty", "missing-field", "bit-flip",
               "header-flip")


def _other_digit(digit: int) -> bytes:
    """A digit other than ``digit`` that is never ``0`` (no leading
    zero can make the JSON invalid)."""
    return b"2" if digit == ord("1") else b"1"


def corrupt(raw: bytes, kind: str) -> bytes:
    """A stored simulation entry spoiled the way ``kind`` names."""
    if kind == "truncated":
        return raw[:len(raw) // 2]
    if kind == "empty":
        return b""
    if kind == "missing-field":
        payload = json.loads(bytes(entry_body(raw)))
        del payload["total_cycles"]
        return encode_entry(payload)
    if kind == "bit-flip":
        image = raw.index(b'"memory_image":{')
        at = raw.index(b":", image + len(b'"memory_image":{')) + 1
        return raw[:at] + _other_digit(raw[at]) + raw[at + 1:]
    assert kind == "header-flip"
    at = raw.index(entry_digest(raw).encode())
    flipped = b"a" if raw[at] != ord("a") else b"b"
    return raw[:at] + flipped + raw[at + 1:]


def headerless(result) -> bytes:
    """A result stored the way entries were before they carried a
    header: its payload as plain compact JSON."""
    from repro.runner import payload_from_result

    return json.dumps(payload_from_result(result),
                      separators=(",", ":")).encode()


class FullDiskBackend(DirectoryBackend):
    """A directory tier on a full disk: every ``put`` fails."""

    def put(self, key, raw):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """A 2-processor NUMA-style machine for micro-scenarios."""
    return scaled_machine(NUMA_16, 2)


@pytest.fixture
def quad_machine() -> MachineConfig:
    """A 4-processor NUMA-style machine."""
    return scaled_machine(NUMA_16, 4)


@pytest.fixture
def small_cache() -> CacheGeometry:
    """4 sets x 2 ways (512 B): tiny enough to force displacements."""
    return CacheGeometry(size_bytes=512, assoc=2)


@pytest.fixture
def fast_costs() -> CostModel:
    """Cost model with small constants for readable hand-timed tests."""
    return CostModel(
        ipc=1.0,
        commit_writeback_per_line=10,
        token_pass=5,
        final_merge_per_line=2,
        overflow_penalty=4,
        vcl_combine=3,
        crl_select=1,
        ulog_insert=1,
        swlog_instructions=8,
        fmm_recovery_instructions_per_entry=20,
        amm_invalidate_per_line=1.0,
        squash_fixed=10,
    )
