"""In-flight request coalescing — N identical concurrent jobs, one run.

The daemon's core economy: every submitted job is fingerprinted with the
same content key the synthesis cache uses, so two requests for the same
work are *provably* the same work. The first request to arrive for a
fingerprint becomes the **leader** and actually executes; requests that
arrive while the leader is still running become **followers** and simply
wait on the leader's :class:`Flight`. When the leader finishes, every
follower is released with the same value (or the same failure).

This is one of two dedup layers, ordered by scope:

* **in-node** — this coalescer: identical jobs inside one daemon share
  one flight (zero extra worker slots);
* **cross-process** — the cache's fill lease
  (:meth:`repro.lab.cache.SynthesisCache.acquire_fill`): writers that
  share only the cache directory (several daemons, sweep workers, plain
  CLI runs) still cost exactly one synthesis fill per key.

Each layer composes with the on-disk cache rather than replacing it: the
cache dedupes *across time* (a result computed yesterday), the
coalescing layers dedupe *across concurrency* (a result currently being
computed). A follower never touches the worker pool at all, which is why
the daemon's admission control only charges global capacity to leaders.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["CoalesceStats", "Coalescer", "Flight"]


class Flight:
    """One in-flight execution of a fingerprinted job.

    The leader resolves (or rejects) the flight exactly once; any number
    of followers block in :meth:`wait`. Resolution is first-wins and
    idempotent so a racing timeout path and a late worker cannot fight.
    """

    __slots__ = ("key", "_done", "_lock", "value", "error", "waiters")

    def __init__(self, key: str) -> None:
        self.key = key
        self._done = threading.Event()
        self._lock = threading.Lock()
        self.value = None
        self.error: BaseException | None = None
        #: follower count, for stats/debugging (leader not included)
        self.waiters = 0

    def resolve(self, value) -> bool:
        with self._lock:
            if self._done.is_set():
                return False
            self.value = value
            self._done.set()
            return True

    def reject(self, error: BaseException) -> bool:
        with self._lock:
            if self._done.is_set():
                return False
            self.error = error
            self._done.set()
            return True

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None):
        """Block until the leader finishes; returns the value or re-raises
        the leader's error. Raises :class:`TimeoutError` if the follower's
        own deadline expires first (the flight itself keeps flying)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"timed out waiting on in-flight job {self.key}")
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class CoalesceStats:
    """Counters for the daemon's ``/stats`` verb."""

    leaders: int = 0
    followers: int = 0
    resolved: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "leaders": self.leaders,
            "followers": self.followers,
            "resolved": self.resolved,
            "rejected": self.rejected,
        }


class Coalescer:
    """The registry of in-flight fingerprints.

    ``join`` is the only decision point: under one lock it either attaches
    the caller to an existing flight (follower) or creates a new one
    (leader). ``can_lead`` — when given — runs *inside* that critical
    section, so "is there capacity for a new leader" and "does a flight
    already exist" are answered atomically; a request can never be
    refused for capacity when it could have ridden an existing flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}
        self.stats = CoalesceStats()

    def join(
        self,
        key: str,
        can_lead: Callable[[], None] | None = None,
    ) -> tuple[Flight, bool]:
        """Attach to ``key``; returns ``(flight, is_leader)``.

        ``can_lead`` may raise (e.g. an admission-control rejection) to
        refuse leadership; the refusal propagates and no flight is
        created. Followers never consult it.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and not flight.done:
                flight.waiters += 1
                self.stats.followers += 1
                return flight, False
            if can_lead is not None:
                can_lead()
            flight = Flight(key)
            self._flights[key] = flight
            self.stats.leaders += 1
            return flight, True

    def complete(self, flight: Flight, value=None,
                 error: BaseException | None = None) -> None:
        """Leader hand-off: publish the outcome and retire the flight.

        Tolerant of double completion (a timed-out leader's worker may
        still finish later) — only the first outcome is published, and
        the flight is only unregistered once.
        """
        if error is not None:
            first = flight.reject(error)
            if first:
                self.stats.rejected += 1
        else:
            first = flight.resolve(value)
            if first:
                self.stats.resolved += 1
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]

    def flight_info(self, key: str) -> tuple[bool, int]:
        """Is a flight for ``key`` live right now, and how many followers
        ride it (leader excluded)? The admission rider check asks."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None or flight.done:
                return False, 0
            return True, flight.waiters

    def abort_all(self, value=None,
                  error: BaseException | None = None) -> int:
        """Drain-time last rites: resolve (or reject) every still-open
        flight so no follower is left waiting on a leader that will
        never report. Returns the number of flights aborted."""
        with self._lock:
            flights = [f for f in self._flights.values() if not f.done]
        aborted = 0
        for flight in flights:
            if error is not None:
                first = flight.reject(error)
            else:
                first = flight.resolve(value)
            if first:
                aborted += 1
        with self._lock:
            for flight in flights:
                if self._flights.get(flight.key) is flight:
                    del self._flights[flight.key]
        return aborted

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._flights)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "inflight": len(self._flights),
                **self.stats.as_dict(),
            }
