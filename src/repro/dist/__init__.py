"""Distributed sweep dispatch: a worker fleet behind the result cache.

The package splits along the wire:

* :mod:`repro.dist.protocol` — the length-prefixed TCP frame format,
  job/result packing, and the worker fingerprint.
* :mod:`repro.dist.dispatch` — the :class:`Dispatcher` seam the
  :class:`~repro.runner.runner.SweepRunner` computes through, plus the
  extracted single-host :class:`LocalPoolDispatcher`.
* :mod:`repro.dist.coordinator` — the asyncio work-queue server
  (:class:`FleetCoordinator`) and its runner-facing adapter
  (:class:`FleetDispatcher`): requeue-on-death, heartbeat eviction,
  chunk timeouts, capped backoff, receipt checks and digest
  cross-checks.
* :mod:`repro.dist.worker` — the blocking pull/compute/push agent
  behind ``repro-tls worker --connect``: a serial
  :class:`~repro.runner.runner.SweepRunner` over the worker's cache,
  with graceful SIGTERM drain.

See ``docs/distributed.md`` for the full protocol and fault contract.
"""

from repro.dist.coordinator import (
    FleetCoordinator,
    FleetDispatcher,
    FleetDivergenceError,
    FleetError,
    FleetStats,
)
from repro.dist.dispatch import (
    Dispatcher,
    LocalPoolDispatcher,
    LocalPoolStats,
)
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    worker_fingerprint,
)
from repro.dist.worker import (
    WorkerAgent,
    WorkerRefusedError,
    parse_address,
    spawn_local_workers,
)

__all__ = [
    "Dispatcher",
    "FleetCoordinator",
    "FleetDispatcher",
    "FleetDivergenceError",
    "FleetError",
    "FleetStats",
    "LocalPoolDispatcher",
    "LocalPoolStats",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerAgent",
    "WorkerRefusedError",
    "parse_address",
    "spawn_local_workers",
    "worker_fingerprint",
]
