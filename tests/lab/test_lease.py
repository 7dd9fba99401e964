"""Cache fill leases: single-fill dedup, crash takeover, eviction safety.

The property under test (ISSUE 10 tentpole, part 2): N concurrent
cold-starts of one cache key perform exactly one fill — across threads
sharing a handle and across OS processes sharing only the directory —
and a filler that dies holding its lease (worker SIGKILL) never wedges
the waiters: they detect the dead owner pid and take the lease over.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.lab.cache import SynthesisCache
from repro.lab.chaos import ChaosSpec


class _WaitGate:
    """RetryPolicy stand-in for ``acquire_fill``: records the threads
    backing off on a held lease and sets ``all_waiting`` once ``n`` of
    them are, so a filler can hold its lease until every rival provably
    waits (a handshake instead of a sleep-timed window)."""

    def __init__(self, n):
        self.n = n
        self.waiting = set()
        self.lock = threading.Lock()
        self.all_waiting = threading.Event()

    def delay(self, attempt, token=None):
        with self.lock:
            self.waiting.add(threading.get_ident())
            if len(self.waiting) >= self.n:
                self.all_waiting.set()
        return 0.005


def _env_with(**kw):
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env.update(kw)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + str(root)
    return env


# ---- acquire/release basics ----------------------------------------------

def test_acquire_fill_and_release(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    lease = cache.acquire_fill("abcd1234")
    assert lease is not None and lease.owned
    assert lease.pid == os.getpid() and lease.epoch == 1
    assert lease.path.exists()
    info = json.loads(lease.path.read_text())
    assert info["key"] == "abcd1234" and info["pid"] == os.getpid()
    lease.release()
    assert not lease.path.exists()
    lease.release()  # idempotent


def test_acquire_returns_none_when_entry_already_filled(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    cache.put("feed0001", {"done": True})
    assert cache.acquire_fill("feed0001") is None


def test_disabled_cache_degrades_to_unleased_fill():
    cache = SynthesisCache(None)
    lease = cache.acquire_fill("k")
    assert lease is not None and not lease.owned and lease.path is None
    obj, filled = cache.get_or_fill("k", lambda: 41)
    assert obj == 41 and filled


def test_bounded_wait_degrades_to_duplicate_fill(tmp_path):
    """A wedged (live but never-releasing) owner must not deadlock the
    fleet: after the timeout the waiter fills unleased."""
    cache = SynthesisCache(tmp_path / "c")
    held = cache.acquire_fill("dead0002")
    assert held.owned
    t0 = time.monotonic()
    degraded = cache.acquire_fill("dead0002", timeout=0.3)
    assert time.monotonic() - t0 >= 0.3
    assert degraded is not None and not degraded.owned
    assert cache.stats.lease_waits == 1
    held.release()


# ---- stale-owner takeover -------------------------------------------------

def test_wedged_owner_is_taken_over_after_stale_window(tmp_path):
    """Even a *live* owner loses the lease once it exceeds the stale age
    (stuck in a syscall); the takeover bumps the epoch."""
    cache = SynthesisCache(tmp_path / "c", lease_stale_s=0.05)
    first = cache.acquire_fill("cafe0003")
    assert first.owned and first.epoch == 1
    # age the lease past the stale window by backdating its recorded
    # claim time (the clock the staleness check reads), not by sleeping
    info = json.loads(first.path.read_text())
    info["t"] -= 1.0
    first.path.write_text(json.dumps(info))
    second = cache.acquire_fill("cafe0003")
    assert second is not None and second.owned
    assert second.epoch == 2
    assert cache.stats.lease_takeovers == 1


def test_sigkilled_lease_holder_is_taken_over(tmp_path):
    """REPRO_CHAOS lease_kill: a subprocess claims the lease and SIGKILLs
    itself (the hook fires inside acquire_fill, right after the lease
    file lands) — exactly a crashed sweep worker. The parent must detect
    the dead owner pid, take over, and fill — well inside the stale
    window, which never applies to dead owners."""
    root = tmp_path / "shared"
    chaos = ChaosSpec(lease_kill=1.0, only=("9999aaaa",),
                      state_dir=str(tmp_path / "chaos"))
    victim = (
        "from repro.lab.cache import SynthesisCache\n"
        f"SynthesisCache({str(root)!r}).acquire_fill('9999aaaa')\n"
        "print('survived')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", victim], capture_output=True, text=True,
        env=_env_with(REPRO_CHAOS=chaos.to_env()),
    )
    assert out.returncode == -signal.SIGKILL
    assert "survived" not in out.stdout

    cache = SynthesisCache(root)  # generous default stale window
    leaked = cache._lease_path("9999aaaa")
    assert leaked.exists()
    dead_pid = json.loads(leaked.read_text())["pid"]
    assert dead_pid != os.getpid()

    obj, filled = cache.get_or_fill("9999aaaa", lambda: "refilled")
    assert obj == "refilled" and filled
    assert cache.stats.lease_takeovers == 1
    assert not leaked.exists()


# ---- concurrent single-fill ----------------------------------------------

def test_thread_fleet_performs_exactly_one_fill(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    fills = []
    results = []
    barrier = threading.Barrier(6)
    gate = _WaitGate(5)

    def produce():
        fills.append(threading.get_ident())
        # hold the lease until the five rivals are all backing off on it
        assert gate.all_waiting.wait(timeout=30)
        return {"value": 99}

    def worker():
        barrier.wait()
        obj, filled = cache.get_or_fill("beef0004", produce, retry=gate)
        results.append((obj, filled))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert len(fills) == 1
    assert sorted(f for _, f in results) == [False] * 5 + [True]
    assert all(obj == {"value": 99} for obj, _ in results)
    assert cache.stats.lease_waits >= 1


def test_process_fleet_performs_exactly_one_fill(tmp_path):
    """Cross-process cold start: 3 OS processes sharing only the cache
    directory race get_or_fill on one key; exactly one runs the producer
    (proved by marker files), the others wait out the lease and read.

    Pipe handshake: the filler announces ``filling`` and holds its lease
    until the parent answers on stdin, which it does only after both
    rivals have announced ``waiting`` from their lease backoff."""
    root = tmp_path / "shared"
    markers = tmp_path / "markers"
    markers.mkdir()
    prog = (
        "import json, os, sys\n"
        "from repro.lab.cache import SynthesisCache\n"
        f"c = SynthesisCache({str(root)!r})\n"
        "class Announce:\n"
        "    said = False\n"
        "    def delay(self, attempt, token=None):\n"
        "        if not self.said:\n"
        "            self.said = True\n"
        "            print('waiting', flush=True)\n"
        "        return 0.005\n"
        "def produce():\n"
        f"    open(os.path.join({str(markers)!r}, str(os.getpid())),"
        " 'w').write('fill')\n"
        "    print('filling', flush=True)\n"
        "    sys.stdin.readline()\n"
        "    return [7, 7, 7]\n"
        "obj, filled = c.get_or_fill('f00d0005', produce, retry=Announce())\n"
        "print(json.dumps({'obj': obj, 'filled': filled,"
        " 'waits': c.stats.lease_waits}))\n"
    )
    procs = [subprocess.Popen([sys.executable, "-c", prog],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, env=_env_with())
             for _ in range(3)]
    # every process's first line says which side of the lease it is on;
    # the filler blocks on stdin, so both rivals must find it held
    first = [p.stdout.readline().strip() for p in procs]
    assert sorted(first) == ["filling", "waiting", "waiting"]
    for p in procs:
        p.stdin.write("go\n")
        p.stdin.flush()
    outs = [json.loads(p.communicate(timeout=60)[0]) for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert len(list(markers.iterdir())) == 1
    assert sum(o["filled"] for o in outs) == 1
    assert all(o["obj"] == [7, 7, 7] for o in outs)
    # both losers waited on the winner's lease
    assert sum(o["waits"] for o in outs) == 2


# ---- eviction safety ------------------------------------------------------

def test_eviction_skips_entries_with_live_leases(tmp_path):
    """LRU must never evict an entry whose key is under a live fill lease
    (satellite a): the filler just wrote it and its waiters are about to
    read it."""
    cache = SynthesisCache(tmp_path / "c", max_entries=100)
    lease = cache.acquire_fill("aa000000")
    cache.put("aa000000", "protected")
    now = time.time()
    os.utime(cache._path("aa000000"), (now - 100, now - 100))  # oldest
    for i in range(4):
        cache.put(f"bb00000{i}", i)
        os.utime(cache._path(f"bb00000{i}"), (now + i, now + i))
    cache.max_entries = 3
    cache._evict()
    assert cache.get("aa000000") == "protected"  # survived as LRU victim
    assert len(cache) == 3

    lease.release()
    os.utime(cache._path("aa000000"), (now - 100, now - 100))  # re-age
    # (the surviving get() above LRU-touched it)
    cache.max_entries = 2
    cache._evict()  # without the lease the old entry is fair game
    assert cache.get("aa000000") is None


def test_dead_leases_are_garbage_collected_by_eviction(tmp_path):
    """A leaked lease file (dead pid) is reaped during the eviction scan
    rather than protecting its key forever."""
    cache = SynthesisCache(tmp_path / "c")
    path = cache._lease_path("dd000000")
    path.write_text(json.dumps(
        {"key": "dd000000", "pid": 2 ** 22 + 12345, "epoch": 1,
         "t": time.time()}))
    assert cache._live_lease_keys() == set()
    assert not path.exists()
    assert cache.stats.lease_takeovers == 1
