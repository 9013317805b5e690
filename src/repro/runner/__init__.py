"""Sweep/runner subsystem: parallel execution + persistent result cache.

``SweepRunner`` fans (machine x scheme x workload x seed) simulation
grids out across a process pool and backs every run with a
content-addressed on-disk cache, so repeated figure and ablation runs
replay prior simulations instead of recomputing them. See
:mod:`repro.runner.runner` for the determinism contract.
"""

from repro.runner.cache import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    SHARD_PREFIX_LEN,
    CacheStats,
    DirectoryBackend,
    MemoryResultCache,
    ResultCache,
    ShardedResultCache,
    default_cache_root,
    shard_of,
)
from repro.runner.jobs import SimJob, WorkloadSpec
from repro.runner.runner import (
    DEFAULT_CHUNK_SIZE,
    PROGRESS_SOURCES,
    SweepRunner,
    canonical_payload_digest,
    decode_payload,
    default_jobs,
    execute_job,
    payload_from_result,
    result_from_payload,
)
from repro.runner.singleflight import SingleFlight, SingleFlightStats

__all__ = [
    "CACHE_ENV_VAR",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHUNK_SIZE",
    "DirectoryBackend",
    "MemoryResultCache",
    "PROGRESS_SOURCES",
    "ResultCache",
    "SHARD_PREFIX_LEN",
    "ShardedResultCache",
    "SimJob",
    "SingleFlight",
    "SingleFlightStats",
    "SweepRunner",
    "WorkloadSpec",
    "canonical_payload_digest",
    "decode_payload",
    "default_cache_root",
    "default_jobs",
    "execute_job",
    "payload_from_result",
    "result_from_payload",
    "shard_of",
]
