"""Cache-key invalidation and on-disk cache behavior (ISSUE satellite c).

The contract: changing the source text, *any* SynthesisOptions field, the
assertion level, or the device must produce a cache miss; byte-identical
inputs must hit — including across separate OS processes sharing one cache
directory.
"""

import dataclasses
import subprocess
import sys

import pytest

from repro.core.synth import SynthesisOptions
from repro.lab.cache import SynthesisCache, app_key_parts, cache_key
from repro.platform.device import EP2S60, EP2S180
from repro.runtime.taskgraph import Application

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""


def small_app(source: str = SRC) -> Application:
    app = Application("keytest")
    app.add_c_process(source, name="p", filename="k.c")
    app.feed("in", "p.input", data=[1, 2])
    app.sink("out", "p.output")
    return app


def test_identical_inputs_produce_identical_keys():
    assert cache_key(small_app(), "optimized") == \
        cache_key(small_app(), "optimized")


def test_source_text_change_invalidates():
    changed = SRC.replace("x < 100", "x < 101")
    assert cache_key(small_app(), "optimized") != \
        cache_key(small_app(changed), "optimized")


def test_assertion_level_invalidates():
    app = small_app()
    keys = {cache_key(app, lvl) for lvl in ("none", "unoptimized",
                                            "optimized")}
    assert len(keys) == 3


def test_device_invalidates():
    app = small_app()
    assert cache_key(app, "optimized", device=EP2S180) != \
        cache_key(app, "optimized", device=EP2S60)


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SynthesisOptions)])
def test_every_options_field_invalidates(field):
    """Flipping any single SynthesisOptions field must change the key."""
    app = small_app()
    base = SynthesisOptions()
    value = getattr(base, field)
    if isinstance(value, bool):
        flipped = not value
    elif isinstance(value, str):
        flipped = value + "-x"
    else:
        flipped = value + 1
    changed = dataclasses.replace(base, **{field: flipped})
    assert cache_key(app, "optimized", base) != \
        cache_key(app, "optimized", changed)


def test_every_options_field_declares_a_key_scope():
    scopes = {f.name: f.metadata.get("scope")
              for f in dataclasses.fields(SynthesisOptions)}
    assert set(scopes.values()) <= {"process", "app", "exec"}, scopes
    assert SynthesisOptions().process_key_parts() == (
        ("parallelize", True), ("replicate", True), ("share", True))


#: (app key, process keys...) per app/level/options, recorded before the
#: option key scopes moved into field metadata and lowered IR became
#: shared; refactors must not move them. A deliberate key change (the
#: package version, CACHE_SCHEMA or PROC_SCHEMA) re-records them.
PINNED_KEYS = {
    "loopback4/none/default": (
        "ec910ccd0c0d992f",
        "p674e25be31a4befa",
        "p2e9ff707cc181dba",
        "p249140839baff76a",
        "p56625128b73ff05d",
    ),
    "loopback4/unoptimized/default": (
        "03c9d748ca41d0be",
        "p62b8bb944a913cc8",
        "p9dad1e127b1f08b8",
        "pea20d14d8abdbf62",
        "pc26978154c82c4b6",
    ),
    "loopback4/optimized/default": (
        "6e54ff3e92f7f93f",
        "paaad2cdf9e0e7b3",
        "p2148c16dc499a9e7",
        "p8345f9955d344d42",
        "p164b042530f20d5f",
    ),
    "loopback4/optimized/noshare": (
        "b94f2281b64b259b",
        "p2e338b9d99422446",
        "p7ed4c88519d217fd",
        "pbd01ab1b952618d7",
        "pbd7d9ca6aa2cc22e",
    ),
    "tripledes/none/default": (
        "267a883b4737a700",
        "p8dca8f5381a635db",
    ),
    "tripledes/unoptimized/default": (
        "c1eccbdf4037bd70",
        "p63ac7b5beda6b902",
    ),
    "tripledes/optimized/default": (
        "0c0c1c202b286ffa",
        "p4b4a1228abb15f87",
    ),
    "tripledes/optimized/noshare": (
        "ed459292362f5858",
        "pacd5cf2b79453981",
    ),
}


def test_app_and_process_keys_are_pinned():
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app
    from repro.core.synth import LEVELS
    from repro.lab.cache import process_cache_key

    variants = {"default": SynthesisOptions(),
                "noshare": SynthesisOptions(share=False)}
    got = {}
    for app in (build_loopback(4), build_tdes_app()):
        for level in LEVELS:
            for tag, opts in variants.items():
                if tag == "noshare" and level != "optimized":
                    continue
                got[f"{app.name}/{level}/{tag}"] = (
                    cache_key(app, level, opts),
                    *(process_cache_key(pd.name, str(pd.func), level, opts,
                                        1 + 10 * i)
                      for i, pd in enumerate(app.fpga_processes())))
    assert got == PINNED_KEYS


def test_extra_parts_invalidate():
    app = small_app()
    assert cache_key(app, "optimized", extra=("campaign", 1)) != \
        cache_key(app, "optimized", extra=("campaign", 2))


def test_feeder_data_is_part_of_the_key():
    a = small_app()
    b = small_app()
    b.streams["in"].feeder_data = [9, 9]
    assert cache_key(a, "optimized") != cache_key(b, "optimized")


def test_app_key_parts_contain_no_memory_addresses():
    parts = app_key_parts(small_app())
    assert all("object at 0x" not in repr(p) for p in parts)


def test_key_is_stable_across_processes(tmp_path):
    """The fingerprint must not depend on PYTHONHASHSEED / process state."""
    prog = (
        "import sys; sys.path.insert(0, %r)\n"
        "from tests.lab.test_cache import small_app\n"
        "from repro.lab.cache import cache_key\n"
        "print(cache_key(small_app(), 'optimized'))\n"
    )
    keys = set()
    for seed in ("0", "1234"):
        out = subprocess.run(
            [sys.executable, "-c", prog % "src"],
            capture_output=True, text=True, check=True,
            cwd=str(_repo_root()),
            env=_env_with(PYTHONHASHSEED=seed),
        )
        keys.add(out.stdout.strip())
    assert len(keys) == 1
    assert keys == {cache_key(small_app(), "optimized")}


def _repo_root():
    import pathlib
    return pathlib.Path(__file__).resolve().parents[2]


def _env_with(**kw):
    import os
    env = dict(os.environ)
    env.update(kw)
    env["PYTHONPATH"] = str(_repo_root() / "src") + os.pathsep + \
        str(_repo_root())
    return env


def test_cache_roundtrip_and_stats(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", {"x": 1})
    assert cache.get("deadbeef") == {"x": 1}
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "evictions": 0, "errors": 0,
        "corrupt": 0, "proc_hits": 0, "proc_misses": 0, "lease_waits": 0,
        "lease_takeovers": 0, "partial_rebuilds": 0,
    }


def test_disabled_cache_never_hits():
    cache = SynthesisCache(None)
    cache.put("k", 1)
    assert cache.get("k") is None
    assert not cache.enabled
    assert cache.stats.misses == 1 and cache.stats.stores == 0


def test_corrupt_entry_heals_as_miss(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    cache.put("abcd", [1, 2, 3])
    path = cache._path("abcd")
    path.write_bytes(b"not a pickle")
    assert cache.get("abcd") is None
    assert cache.stats.errors == 1
    assert cache.stats.corrupt == 1
    assert not path.exists()  # the bad entry was dropped


def test_lru_eviction_bounds_entry_count(tmp_path):
    import os
    import time
    cache = SynthesisCache(tmp_path / "c", max_entries=100)
    for i in range(5):
        cache.put(f"k{i}", i)
        # force distinct mtimes without sleeping a full clock tick
        os.utime(cache._path(f"k{i}"), (time.time() + i, time.time() + i))
    cache.max_entries = 3
    cache._evict()
    assert len(cache) == 3
    assert cache.stats.evictions >= 2
    # the newest entry survives
    assert cache.get("k4") == 4


def test_cache_shared_across_processes(tmp_path):
    """A second OS process sees entries stored by the first (satellite c)."""
    root = tmp_path / "shared"
    writer = (
        "from repro.lab.cache import SynthesisCache\n"
        f"SynthesisCache({str(root)!r}).put('feedface', [7, 3, 9])\n"
    )
    reader = (
        "from repro.lab.cache import SynthesisCache\n"
        f"c = SynthesisCache({str(root)!r})\n"
        "print(c.get('feedface'))\n"
        "print(c.stats.hits)\n"
    )
    for prog in (writer, reader):
        out = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            check=True, env=_env_with(),
        )
    assert out.stdout.splitlines() == ["[7, 3, 9]", "1"]


def test_one_handle_is_safe_under_concurrent_threads(tmp_path):
    """Many threads hammer one shared handle — get/put/evict racing
    freely — with no exceptions and coherent stats. Before the cache grew
    its lock, concurrent _evict() calls crashed on files another thread
    had already unlinked."""
    import threading

    cache = SynthesisCache(tmp_path / "c", max_entries=8)
    errors = []
    n_threads, n_rounds = 8, 30
    barrier = threading.Barrier(n_threads)

    def hammer(tid):
        try:
            barrier.wait()
            for i in range(n_rounds):
                cache.put(f"shared{i % 4}", [tid, i])
                cache.put(f"t{tid}-{i}", i)  # churn forces evictions
                got = cache.get(f"shared{i % 4}")
                assert got is None or isinstance(got, list)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(cache) <= cache.max_entries
    stats = cache.stats.as_dict()
    assert stats["stores"] == n_threads * n_rounds * 2
    assert stats["hits"] + stats["misses"] == n_threads * n_rounds
    assert stats["errors"] == 0 and stats["corrupt"] == 0


def test_stats_counters_coherent_under_concurrent_updates(tmp_path):
    """hits+misses must equal total gets even when updated from many
    threads (CacheStats increments happen under the handle's lock)."""
    import threading

    cache = SynthesisCache(tmp_path / "c")
    cache.put("hot", 42)
    n_threads, n_gets = 8, 50
    barrier = threading.Barrier(n_threads)

    def reader():
        barrier.wait()
        for i in range(n_gets):
            assert cache.get("hot") == 42
            cache.get(f"cold-{i}")

    threads = [threading.Thread(target=reader) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert cache.stats.hits == n_threads * n_gets
    assert cache.stats.misses == n_threads * n_gets


# ---- eviction cost: a kept entry count instead of a scan per put ----------

def _count_object_scans(monkeypatch) -> list[str]:
    """Record every glob over ``objects/`` (the only way the cache lists
    its entries) from now on."""
    from pathlib import Path

    scans: list[str] = []
    real_glob = Path.glob

    def glob(self, pattern, *args, **kwargs):
        if pattern.startswith("objects"):
            scans.append(pattern)
        return real_glob(self, pattern, *args, **kwargs)

    monkeypatch.setattr(Path, "glob", glob)
    return scans


def test_puts_below_the_bound_scan_objects_once(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c", max_entries=100)
    scans = _count_object_scans(monkeypatch)
    for i in range(50):
        cache.put(f"k{i}", i)
    assert len(scans) == 1  # the first put's count, no eviction sweeps
    assert cache.stats.evictions == 0
    assert len(cache) == 50


def test_crossing_the_bound_runs_one_eviction_sweep(tmp_path, monkeypatch):
    import os
    import time
    cache = SynthesisCache(tmp_path / "c", max_entries=10)
    now = time.time()
    scans = _count_object_scans(monkeypatch)
    for i in range(11):
        before = len(scans)
        cache.put(f"k{i:02d}", i)
        os.utime(cache._path(f"k{i:02d}"), (now + i, now + i))
        # one count on the first put, one sweep on the put past the bound
        assert len(scans) - before == (1 if i in (0, 10) else 0), i
    monkeypatch.undo()
    assert cache.stats.evictions == 1
    assert len(cache) == cache.max_entries
    assert cache.get("k00") is None and cache.get("k10") == 10


def test_overwriting_a_key_does_not_grow_the_count(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c", max_entries=3)
    scans = _count_object_scans(monkeypatch)
    for i in range(20):
        cache.put(f"k{i % 3}", i)
    assert len(scans) == 1
    assert cache.stats.evictions == 0 and cache.stats.stores == 20


def test_corrupt_drop_and_clear_keep_the_count_honest(tmp_path, monkeypatch):
    cache = SynthesisCache(tmp_path / "c", max_entries=3)
    scans = _count_object_scans(monkeypatch)
    for key in ("a", "b", "c"):
        cache.put(key, key)
    cache._path("c").write_bytes(b"not a pickle")
    assert cache.get("c") is None  # dropped: the count falls to 2
    cache.put("d", "d")  # back to 3, still within the bound
    assert len(scans) == 1 and cache.stats.evictions == 0
    cache.clear()
    for key in ("e", "f", "g"):
        cache.put(key, key)
    assert len(scans) == 1 + 1  # clear()'s own listing, no sweep
    assert cache.stats.evictions == 0
    assert len(cache) == 3


def test_a_stale_count_costs_one_late_sweep(tmp_path, monkeypatch):
    """Another handle's puts leave this handle's count low; the cache can
    overshoot until the count catches up, then one sweep recounts."""
    a = SynthesisCache(tmp_path / "c", max_entries=6)
    b = SynthesisCache(tmp_path / "c", max_entries=6)
    for i in range(3):
        a.put(f"a{i}", i)
    for i in range(3):
        b.put(f"b{i}", i)
    scans = _count_object_scans(monkeypatch)
    for i in range(3, 6):
        a.put(f"a{i}", i)  # a believes 4, 5, 6 entries
    assert scans == [] and a.stats.evictions == 0
    a.put("a6", 6)  # a's count passes the bound: one recounting sweep
    assert len(scans) == 1
    monkeypatch.undo()
    assert len(a) == a.max_entries
    assert a.stats.evictions == 10 - 6
