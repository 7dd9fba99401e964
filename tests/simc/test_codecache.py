"""Content-addressed codegen caching (memo + lab-cache tiers)."""

import pytest

from repro.apps.loopback import build_loopback
from repro.hls.cyclemodel import Channel
from repro.lab.cache import SynthesisCache
from repro.simc import (
    CompiledProcessExec,
    clear_memo,
    sched_exec_source,
)
from tests.helpers import compile_one

SRC = """
void f(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    co_stream_write(output, x * 3 + 1);
  }
  co_stream_close(output);
}
"""


@pytest.fixture
def cp():
    return compile_one(SRC)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def test_second_codegen_hits_the_disk_cache(tmp_path, cp):
    """A second (cold-memo) generation must be a cache hit, not a
    re-walk of the design — this is what makes sweep workers cheap."""
    cache = SynthesisCache(tmp_path / "c")
    first = sched_exec_source(cp.schedule, cache=cache)
    assert cache.stats.misses == 1 and cache.stats.stores == 1
    clear_memo()  # simulate a fresh process sharing the cache dir
    second = sched_exec_source(cp.schedule, cache=cache)
    assert second == first
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1  # no second generation


def test_memo_hit_never_touches_the_disk_cache(tmp_path, cp):
    cache = SynthesisCache(tmp_path / "c")
    sched_exec_source(cp.schedule, cache=cache)
    before = cache.stats.as_dict()
    sched_exec_source(cp.schedule, cache=cache)
    assert cache.stats.as_dict() == before  # memo answered


def test_codegen_key_is_pinned(cp):
    """The memo / lab-cache key of one schedule, recorded while a second
    codegen kind still shared :func:`cached_source`: on-disk entries under
    ``CODEGEN_SCHEMA`` 2 stay reachable only while these bytes hold (the
    package version is part of the fingerprint, so a release re-records
    it)."""
    from repro import __version__
    from repro.simc.codecache import _SOURCE_MEMO

    sched_exec_source(cp.schedule)
    assert __version__ == "1.0.0"
    assert list(_SOURCE_MEMO) == ["simc-sched-59f16ac114eee085"]


def test_different_designs_generate_different_source(tmp_path):
    cache = SynthesisCache(tmp_path / "c")
    a = sched_exec_source(compile_one(SRC).schedule, cache=cache)
    b = sched_exec_source(
        compile_one(SRC.replace("x * 3 + 1", "x * 5 + 2")).schedule,
        cache=cache)
    assert a != b
    assert cache.stats.stores == 2


def test_cached_construction_still_executes_correctly(tmp_path, cp):
    """End to end through the cache: a compiled executor built from a
    disk-cached source behaves like a freshly generated one."""
    cache = SynthesisCache(tmp_path / "c")

    def run():
        cin = Channel("i", depth=64)
        cout = Channel("o", unbounded=True)
        for v in (1, 2, 3):
            cin.push(v)
        cin.close()
        pe = CompiledProcessExec(cp.schedule,
                                 {"input": cin, "output": cout},
                                 cache=cache)
        while not pe.done and pe.cycles < 10_000:
            pe.tick()
        return list(cout.queue)

    first = run()
    clear_memo()
    assert run() == first == [4, 7, 10]
    assert cache.stats.hits >= 1


def test_memo_stats_rise_across_repeated_jobs(tmp_path, cp):
    """Warm-process observability (serve daemon): repeated identical jobs
    in one process raise the memo hit counters while misses stay flat."""
    from repro.simc import memo_stats

    cache = SynthesisCache(tmp_path / "c")
    sched_exec_source(cp.schedule, cache=cache)
    assert memo_stats.source_misses == 1
    assert memo_stats.source_hits == 0
    for expect_hits in (1, 2, 3):
        sched_exec_source(cp.schedule, cache=cache)
        assert memo_stats.source_hits == expect_hits
    assert memo_stats.source_misses == 1  # never regenerated


def test_code_memo_counters_track_compiles(tmp_path, cp):
    from repro.simc import memo_stats
    from repro.simc.codecache import compile_source

    src = sched_exec_source(cp.schedule,
                            cache=SynthesisCache(tmp_path / "c"))
    compile_source(src, "<gen>")
    assert memo_stats.code_misses == 1 and memo_stats.code_hits == 0
    compile_source(src, "<gen>")
    compile_source(src, "<gen>")
    assert memo_stats.code_misses == 1 and memo_stats.code_hits == 2


def test_clear_memo_resets_stats(tmp_path, cp):
    from repro.simc import memo_stats

    sched_exec_source(cp.schedule, cache=SynthesisCache(tmp_path / "c"))
    assert memo_stats.as_dict() != {
        "source_hits": 0, "source_misses": 0,
        "code_hits": 0, "code_misses": 0}
    clear_memo()
    assert memo_stats.as_dict() == {
        "source_hits": 0, "source_misses": 0,
        "code_hits": 0, "code_misses": 0}


def test_memo_safe_under_concurrent_codegen(tmp_path, cp):
    """Serve-daemon shape: many threads generating cycle-model source for
    two designs through one shared memo. Every thread must get the bytes
    its design asked for — never the sibling's — and the memo must settle
    to one entry per design."""
    import threading

    from repro.simc.codecache import _SOURCE_MEMO

    cache = SynthesisCache(tmp_path / "c")
    other = compile_one(SRC.replace("x * 3 + 1", "x * 5 + 2"))

    def generate_both() -> dict:
        return {
            "a": sched_exec_source(cp.schedule, cache=cache),
            "b": sched_exec_source(other.schedule, cache=cache),
        }

    refs = generate_both()
    assert refs["a"] != refs["b"]
    clear_memo()  # hammer from a cold memo so threads race the misses
    errors: list[str] = []
    start = threading.Barrier(16)

    def hammer(tid: int) -> None:
        start.wait()
        for _ in range(20):
            for design, src in generate_both().items():
                if src != refs[design]:
                    errors.append(f"t{tid}: {design} got foreign source")

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert len(_SOURCE_MEMO) == 2  # one entry per design, no dupes


#: sha256 over the scalar generated source of every process of each app at
#: the ``optimized`` level (processes in name order), recorded before the
#: structure-of-arrays emitters were removed: scalar emission must stay
#: byte-identical so on-disk codegen entries under ``CODEGEN_SCHEMA`` stay
#: valid
SCALAR_SOURCE_DIGESTS = {
    "loopback:3":
        "586cf0a660708ce71769be77f0e2df502c1545c1eede7c6c25fb230acdf2da9e",
    "edge":
        "1f646c5ecf7ecb415879fc5cec2d16a70395eceb0df4ec76057b22e7fe9396e6",
    "tripledes":
        "8ef12504dd5f4886edea521ea9ece798d2bab438218ec6c291e0bd8e1c7dac9f",
}


@pytest.mark.parametrize("app_name", sorted(SCALAR_SOURCE_DIGESTS))
def test_scalar_source_is_byte_identical_to_recorded_digests(app_name):
    import hashlib

    from repro.apps.edge_detect import build_edge_app
    from repro.apps.tripledes import build_tdes_app
    from repro.core.synth import synthesize
    from repro.simc import generate_sched_source
    from repro.simc.codecache import CODEGEN_SCHEMA

    build = {
        "loopback:3": lambda: build_loopback(3),
        "edge": build_edge_app,
        "tripledes": lambda: build_tdes_app(b"In-circuit!"),
    }[app_name]
    image = synthesize(build(), assertions="optimized")

    sched = hashlib.sha256()
    for name in sorted(image.compiled):
        sched.update(
            generate_sched_source(image.compiled[name].schedule).encode())
    assert sched.hexdigest() == SCALAR_SOURCE_DIGESTS[app_name]
    assert CODEGEN_SCHEMA == 2


def test_memo_reuse_is_bit_identical_across_jobs(tmp_path, cp):
    """The warm path must return the exact bytes the cold path generated
    — a memo hit is an optimization, never a different artifact."""
    cache = SynthesisCache(tmp_path / "c")
    cold = sched_exec_source(cp.schedule, cache=cache)
    warm = sched_exec_source(cp.schedule, cache=cache)
    assert warm == cold
    clear_memo()  # fresh process, same disk cache
    disk = sched_exec_source(cp.schedule, cache=cache)
    assert disk == cold
