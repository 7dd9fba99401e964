"""Peer registry for the multi-node serve fabric.

A *fabric* is N independent ``repro serve`` daemons behind one fabric
router (:mod:`repro.serve.fabric`); the daemons never talk to each
other. Nothing here elects a coordinator or replicates state — the
router keeps its own :class:`PeerRegistry` and forms its own opinion of
who is alive, from evidence it gathered itself: ping probes and the
outcomes of real requests. That keeps the failure model honest — there
is no membership service to be wrong about a partition.

Health is a three-state machine per peer, driven by *consecutive*
failures so one dropped packet never reroutes a campaign:

``up``       last contact succeeded; fully routable.
``suspect``  1..down_after-1 consecutive failures; still routable (the
             client's bounded reconnect retries absorb blips), but on
             notice.
``down``     ``down_after`` consecutive failures; **not** routable.
             :meth:`PeerRegistry.sweep` still pings it, and one
             successful contact returns it straight to ``up``.

The registry is fed from two directions: :meth:`PeerRegistry.sweep`
(one ping per peer, run by ``repro fabric status``) and the fabric
router's :meth:`PeerRegistry.record_success` /
:meth:`PeerRegistry.record_failure` calls on real traffic — a submit
that dies mid-stream is better evidence than any ping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ServeError

__all__ = ["PeerRegistry", "PeerState"]

#: consecutive failures that turn suspect into down
DOWN_AFTER = 3
#: health-probe socket budget (seconds) — pings must fail fast
PING_TIMEOUT_S = 2.0


def _default_client_factory(address: str):
    """One-shot client for health probes: no reconnect retries (a probe
    wants the fast truth, not a soothed answer)."""
    from repro.serve.client import ServeClient

    return ServeClient(address, client_id="peer-health", connect_attempts=1)


@dataclass
class PeerState:
    """Everything the registry believes about one peer."""

    address: str
    status: str = "up"  # up | suspect | down
    consecutive_failures: int = 0
    successes: int = 0
    failures: int = 0
    draining: bool = False
    last_error: str | None = None

    def as_dict(self) -> dict:
        return {
            "address": self.address,
            "status": self.status,
            "consecutive_failures": self.consecutive_failures,
            "successes": self.successes,
            "failures": self.failures,
            "draining": self.draining,
            "last_error": self.last_error,
        }


@dataclass
class PeerStats:
    """Counters for ``/stats`` and fabric summaries."""

    pings: int = 0
    ping_failures: int = 0
    transitions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pings": self.pings,
            "ping_failures": self.ping_failures,
            "transitions": self.transitions,
        }


class PeerRegistry:
    """The local, evidence-based view of a set of peers.

    ``client_factory(address)`` must return an object with a
    ``ping(timeout=...)`` method — injectable so tests can model any
    failure pattern without sockets.
    """

    def __init__(self, addresses, down_after: int = DOWN_AFTER,
                 client_factory=None) -> None:
        cleaned = sorted({str(a).strip() for a in addresses if str(a).strip()})
        if down_after < 1:
            raise ServeError(f"down_after must be >= 1, got {down_after}",
                             code="RPR-V005")
        self.down_after = down_after
        self.client_factory = client_factory or _default_client_factory
        self._peers = {a: PeerState(a) for a in cleaned}
        self._lock = threading.Lock()
        self.stats = PeerStats()

    # -- membership -----------------------------------------------------------

    @property
    def addresses(self) -> list[str]:
        """All known peers, sorted — the deterministic routing order."""
        with self._lock:
            return sorted(self._peers)

    def state(self, address: str) -> PeerState:
        with self._lock:
            try:
                return self._peers[address]
            except KeyError:
                raise ServeError(f"unknown peer {address!r}",
                                 code="RPR-V005") from None

    def routable(self) -> list[str]:
        """Peers a router may send work to (up or suspect), sorted."""
        with self._lock:
            return sorted(a for a, p in self._peers.items()
                          if p.status != "down")

    def survivor_after(self, address: str) -> str | None:
        """The deterministic failover target: the next routable peer in
        sorted cyclic order after ``address`` (itself excluded). None
        when no other peer is routable."""
        order = self.addresses
        if address in order:
            start = order.index(address) + 1
        else:
            start = 0
        n = len(order)
        for off in range(n):
            candidate = order[(start + off) % n]
            if candidate == address:
                continue
            with self._lock:
                state = self._peers.get(candidate)
                if state is not None and state.status != "down":
                    return candidate
        return None

    # -- evidence -------------------------------------------------------------

    def record_success(self, address: str, draining: bool = False) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is None:
                return
            if peer.status != "up":
                self.stats.transitions += 1
            peer.status = "up"
            peer.consecutive_failures = 0
            peer.successes += 1
            peer.draining = bool(draining)
            peer.last_error = None

    def record_failure(self, address: str,
                       error: BaseException | str | None = None) -> None:
        with self._lock:
            peer = self._peers.get(address)
            if peer is None:
                return
            peer.failures += 1
            peer.consecutive_failures += 1
            peer.last_error = str(error) if error is not None else None
            new = ("down" if peer.consecutive_failures >= self.down_after
                   else "suspect")
            if new != peer.status:
                self.stats.transitions += 1
                peer.status = new

    # -- probing --------------------------------------------------------------

    def check(self, address: str) -> bool:
        """One ping; feeds the state machine and returns liveness."""
        self.stats.pings += 1
        try:
            pong = self.client_factory(address).ping(timeout=PING_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - any failure = dead peer
            self.stats.ping_failures += 1
            self.record_failure(address, exc)
            return False
        self.record_success(address, draining=bool(pong.get("draining")))
        return True

    def sweep(self) -> dict[str, bool]:
        """One health pass: ping every peer, down ones included.
        Returns {address: alive}."""
        return {address: self.check(address) for address in self.addresses}

    # -- observability --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "peers": [p.as_dict()
                          for _, p in sorted(self._peers.items())],
                "routable": sorted(a for a, p in self._peers.items()
                                   if p.status != "down"),
                "down_after": self.down_after,
                **self.stats.as_dict(),
            }

