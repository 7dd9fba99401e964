"""Peer registry: the up/suspect/down state machine, deterministic
failover order, and ping sweeps."""

import threading

import pytest

from repro.errors import ServeError
from repro.serve.peers import PeerRegistry

ADDRS = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]


class FakeMesh:
    """An injectable client factory modelling any liveness pattern:
    ``alive[addr]`` flips peers dead/alive, ``pings[addr]`` counts."""

    def __init__(self, addrs):
        self.alive = {a: True for a in addrs}
        self.draining = {a: False for a in addrs}
        self.pings = {a: 0 for a in addrs}

    def __call__(self, address):
        mesh = self

        class _Client:
            def ping(self, timeout=None):
                mesh.pings[address] += 1
                if not mesh.alive[address]:
                    raise ConnectionRefusedError(f"{address} is dead")
                return {"event": "pong",
                        "draining": mesh.draining[address]}

        return _Client()


@pytest.fixture
def mesh():
    return FakeMesh(ADDRS)


@pytest.fixture
def registry(mesh):
    return PeerRegistry(ADDRS, down_after=3, client_factory=mesh)


# ---- the state machine ------------------------------------------------------


def test_everyone_starts_up_and_routable(registry):
    assert registry.addresses == sorted(ADDRS)
    assert registry.routable() == sorted(ADDRS)
    assert all(p["status"] == "up"
               for p in registry.snapshot()["peers"])


def test_one_failure_is_suspect_not_down(registry):
    registry.record_failure(ADDRS[1], "blip")
    state = registry.state(ADDRS[1])
    assert state.status == "suspect"
    # suspect peers stay routable: one dropped packet must never
    # reroute a campaign
    assert ADDRS[1] in registry.routable()


def test_consecutive_failures_take_a_peer_down(registry):
    for _ in range(3):
        registry.record_failure(ADDRS[1], "dead")
    assert registry.state(ADDRS[1]).status == "down"
    assert ADDRS[1] not in registry.routable()


def test_success_resets_the_failure_streak(registry):
    registry.record_failure(ADDRS[1])
    registry.record_failure(ADDRS[1])
    registry.record_success(ADDRS[1])
    assert registry.state(ADDRS[1]).status == "up"
    assert registry.state(ADDRS[1]).consecutive_failures == 0
    # the streak restarts: two more failures are still only suspect
    registry.record_failure(ADDRS[1])
    registry.record_failure(ADDRS[1])
    assert registry.state(ADDRS[1]).status == "suspect"


def test_interleaved_failures_never_take_a_peer_down(registry):
    """Non-consecutive failures (a flaky network, not a dead peer)
    keep oscillating between suspect and up."""
    for _ in range(10):
        registry.record_failure(ADDRS[0])
        registry.record_success(ADDRS[0])
    assert registry.state(ADDRS[0]).status == "up"


def test_unknown_peer_raises(registry):
    with pytest.raises(ServeError):
        registry.state("127.0.0.1:1")
    # evidence about unknown peers is ignored, not fatal
    registry.record_failure("127.0.0.1:1")
    registry.record_success("127.0.0.1:1")


# ---- deterministic failover order -------------------------------------------


def test_survivor_after_walks_sorted_cyclic_order(registry):
    order = sorted(ADDRS)
    assert registry.survivor_after(order[0]) == order[1]
    assert registry.survivor_after(order[1]) == order[2]
    assert registry.survivor_after(order[2]) == order[0]  # wraps


def test_survivor_after_skips_down_peers(registry):
    order = sorted(ADDRS)
    for _ in range(3):
        registry.record_failure(order[1])
    assert registry.survivor_after(order[0]) == order[2]


def test_survivor_after_none_when_alone(mesh):
    reg = PeerRegistry(ADDRS[:1], client_factory=mesh)
    assert reg.survivor_after(ADDRS[0]) is None


def test_survivor_after_none_when_everyone_else_is_down(registry):
    order = sorted(ADDRS)
    for addr in order[1:]:
        for _ in range(3):
            registry.record_failure(addr)
    assert registry.survivor_after(order[0]) is None


# ---- probing ----------------------------------------------------------------


def test_check_feeds_the_state_machine(registry, mesh):
    assert registry.check(ADDRS[0]) is True
    mesh.alive[ADDRS[0]] = False
    assert registry.check(ADDRS[0]) is False
    assert registry.state(ADDRS[0]).status == "suspect"


def test_sweep_pings_every_live_peer(registry, mesh):
    result = registry.sweep()
    assert result == {a: True for a in sorted(ADDRS)}
    assert all(mesh.pings[a] == 1 for a in ADDRS)


def test_sweep_pings_a_down_peer_and_one_success_returns_it_to_up(
        registry, mesh):
    victim = sorted(ADDRS)[1]
    mesh.alive[victim] = False
    for _ in range(3):
        registry.sweep()
    assert registry.state(victim).status == "down"
    assert victim not in registry.routable()
    pings_when_down = mesh.pings[victim]

    # a down peer is still pinged, and one success brings it back
    mesh.alive[victim] = True
    probed = registry.sweep()
    assert probed[victim] is True
    assert mesh.pings[victim] == pings_when_down + 1
    assert registry.state(victim).status == "up"
    assert victim in registry.routable()


def test_sweep_notices_draining_peers(registry, mesh):
    mesh.draining[ADDRS[2]] = True
    registry.sweep()
    assert registry.state(ADDRS[2]).draining is True
    assert registry.state(ADDRS[2]).status == "up"


def test_registry_is_thread_safe_under_concurrent_evidence(registry):
    def hammer(addr):
        for _ in range(200):
            registry.record_failure(addr)
            registry.record_success(addr)
            registry.routable()
            registry.survivor_after(addr)

    threads = [threading.Thread(target=hammer, args=(a,)) for a in ADDRS]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(p["status"] == "up"
               for p in registry.snapshot()["peers"])


def test_bad_registry_parameters_are_refused(mesh):
    with pytest.raises(ServeError):
        PeerRegistry(ADDRS, down_after=0, client_factory=mesh)
