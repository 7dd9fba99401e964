"""Coalescer semantics: leader election, follower waits, atomicity."""

import threading

import pytest

from repro.errors import ServeError
from repro.serve.coalesce import Coalescer


def test_first_join_leads_second_follows():
    c = Coalescer()
    f1, lead1 = c.join("k")
    f2, lead2 = c.join("k")
    assert lead1 and not lead2
    assert f1 is f2
    assert c.inflight == 1
    assert c.stats.leaders == 1 and c.stats.followers == 1


def test_distinct_keys_get_distinct_flights():
    c = Coalescer()
    f1, _ = c.join("a")
    f2, _ = c.join("b")
    assert f1 is not f2
    assert c.inflight == 2


def test_complete_releases_followers_with_the_value():
    c = Coalescer()
    flight, _ = c.join("k")
    got = []
    t = threading.Thread(target=lambda: got.append(flight.wait(5)))
    t.start()
    c.complete(flight, value=42)
    t.join(timeout=5)
    assert got == [42]
    assert c.inflight == 0
    assert c.stats.resolved == 1


def test_complete_with_error_reraises_in_followers():
    c = Coalescer()
    flight, _ = c.join("k")
    c.complete(flight, error=ServeError("boom", code="RPR-V001"))
    with pytest.raises(ServeError):
        flight.wait(1)
    assert c.stats.rejected == 1


def test_join_after_complete_elects_a_new_leader():
    c = Coalescer()
    flight, _ = c.join("k")
    c.complete(flight, value=1)
    flight2, lead2 = c.join("k")
    assert lead2 and flight2 is not flight


def test_can_lead_veto_creates_no_flight():
    c = Coalescer()

    def veto():
        raise ServeError("no capacity", code="RPR-V002")

    with pytest.raises(ServeError):
        c.join("k", can_lead=veto)
    assert c.inflight == 0
    # ...but a follower never consults the veto
    c.join("k")
    _, is_leader = c.join("k", can_lead=veto)
    assert not is_leader


def test_double_complete_is_first_wins():
    c = Coalescer()
    flight, _ = c.join("k")
    c.complete(flight, value="first")
    c.complete(flight, value="second")
    c.complete(flight, error=RuntimeError("late"))
    assert flight.wait(1) == "first"
    assert c.stats.resolved == 1 and c.stats.rejected == 0


def test_follower_wait_timeout_leaves_flight_flying():
    c = Coalescer()
    flight, _ = c.join("k")
    with pytest.raises(TimeoutError):
        flight.wait(0.01)
    assert not flight.done
    c.complete(flight, value=7)
    assert flight.wait(1) == 7


def test_concurrent_joins_elect_exactly_one_leader():
    c = Coalescer()
    barrier = threading.Barrier(16)
    results = []
    lock = threading.Lock()

    def join():
        barrier.wait()
        flight, is_leader = c.join("hot")
        with lock:
            results.append((flight, is_leader))

    threads = [threading.Thread(target=join) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    leaders = [f for f, lead in results if lead]
    assert len(leaders) == 1
    assert len({id(f) for f, _ in results}) == 1  # all on one flight
    assert c.stats.leaders == 1 and c.stats.followers == 15


def test_flight_waiters_counts_followers():
    c = Coalescer()
    flight, _ = c.join("k")
    c.join("k")
    c.join("k")
    assert flight.waiters == 2
