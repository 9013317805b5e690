"""Per-key single-flight: one computation, any number of waiters.

Cache-stampede protection for the runner and the service layer. When
several callers — threads inside one process, or HTTP requests on one
service frontend — all miss the cache on the same content-address key at
the same time, exactly one of them (the *leader*) computes the result;
everyone else (the *joiners*) blocks on the leader's
:class:`~concurrent.futures.Future` and decodes the same payload bytes.

This generalizes the in-flight dedup that used to live inline in
:meth:`~repro.runner.runner.SweepRunner.run_many`:

* **Leadership is atomic.** :meth:`SingleFlight.claim` either installs a
  fresh flight and reports the caller as leader, or returns the live
  flight to join — under one lock, so two concurrent claimants can never
  both lead.
* **Leaders cannot leak a flight.** The contract is claim →
  (:meth:`resolve` | :meth:`abandon`): ``abandon`` is idempotent and
  safe to call from a ``finally`` block after ``resolve`` — it only
  propagates the failure if the flight never produced a value, so a
  crashed leader wakes its joiners with the exception instead of
  deadlocking them.
* **Joiners are timeout- and cancellation-safe.** :meth:`wait` bounds
  the wait; a joiner that gives up (timeout, dropped HTTP connection)
  simply stops waiting — the leader's computation and the flights of
  other joiners are unaffected, and the result still lands in the cache
  for the next request.

Flights carry serialized payload *bytes* (the same form the cache tiers
store), so every waiter decodes privately and shares no mutable state
with the leader — the property the bit-identity contract relies on.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass


@dataclass
class SingleFlightStats:
    """Counters describing how much duplicate work was collapsed."""

    #: Flights created (cache misses that actually computed).
    led: int = 0
    #: Claims that joined an existing flight instead of recomputing.
    joined: int = 0
    #: Flights that ended in an exception (propagated to all waiters).
    failed: int = 0
    #: Joiner waits that gave up on their timeout.
    timeouts: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counter snapshot (for ``/v1/cache/stats``)."""
        return asdict(self)


class SingleFlight:
    """Registry of in-flight computations keyed by content address."""

    def __init__(self) -> None:
        self._flights: dict[str, Future[bytes]] = {}
        self._lock = threading.Lock()
        self.stats = SingleFlightStats()

    # ------------------------------------------------------------------
    def claim(self, key: str) -> tuple[Future[bytes], bool]:
        """Lead or join the flight for ``key``.

        Returns ``(flight, is_leader)``. A leader must eventually call
        :meth:`resolve` or :meth:`abandon` with the returned flight; a
        joiner only :meth:`wait`\\ s on it.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self.stats.joined += 1
                return flight, False
            flight = Future()
            self._flights[key] = flight
            self.stats.led += 1
            return flight, True

    def resolve(self, key: str, flight: Future[bytes], raw: bytes) -> None:
        """Publish the leader's payload bytes and retire the flight."""
        self._retire(key, flight)
        flight.set_result(raw)

    def abandon(self, key: str, flight: Future[bytes],
                error: BaseException) -> None:
        """Retire a flight that produced no value, waking waiters.

        Idempotent: calling it on an already-resolved flight (the
        leader's ``finally`` path) retires nothing and propagates
        nothing.
        """
        self._retire(key, flight)
        if not flight.done():
            self.stats.failed += 1
            flight.set_exception(error)

    def wait(self, flight: Future[bytes],
             timeout: float | None = None) -> bytes:
        """A joiner's bounded wait for the leader's payload bytes.

        Raises :class:`concurrent.futures.TimeoutError` when ``timeout``
        elapses first; giving up never disturbs the flight itself.
        """
        try:
            return flight.result(timeout)
        except FutureTimeoutError:
            self.stats.timeouts += 1
            raise

    # ------------------------------------------------------------------
    def pending(self, key: str) -> bool:
        """Whether a computation for ``key`` is currently in flight."""
        with self._lock:
            return key in self._flights

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def _retire(self, key: str, flight: Future[bytes]) -> None:
        """Drop the registry entry iff it still names this flight."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
