"""Content-addressed codegen caching (memo + lab-cache tiers)."""

import pytest

from repro.apps.loopback import build_loopback
from repro.hls.cyclemodel import Channel
from repro.lab.cache import SynthesisCache
from repro.simc import (
    CompiledProcessExec,
    clear_memo,
    rtl_sim_source,
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
    rtl_sim_source(cp.rtl, ("input",), ("output",), cache=cache)
    before = cache.stats.as_dict()
    rtl_sim_source(cp.rtl, ("input",), ("output",), cache=cache)
    assert cache.stats.as_dict() == before  # memo answered


def test_rtl_and_sched_keys_do_not_collide(tmp_path, cp):
    cache = SynthesisCache(tmp_path / "c")
    a = sched_exec_source(cp.schedule, cache=cache)
    b = rtl_sim_source(cp.rtl, ("input",), ("output",), cache=cache)
    assert a != b
    assert cache.stats.stores == 2


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


def test_memo_keys_embed_the_backend_kind(tmp_path, cp):
    """The memo key string carries the kind (``simc-sched-…`` vs
    ``simc-rtl-…``) *in addition to* the kind's slot in the fingerprint —
    aliasing would need both to collide at once."""
    from repro.simc.codecache import _SOURCE_MEMO

    cache = SynthesisCache(tmp_path / "c")
    sched_exec_source(cp.schedule, cache=cache)
    rtl_sim_source(cp.rtl, ("input",), ("output",), cache=cache)
    kinds = sorted(k.rsplit("-", 1)[0] for k in _SOURCE_MEMO)
    assert kinds == ["simc-rtl", "simc-sched"]


def test_memo_safe_under_concurrent_mixed_backend_codegen(tmp_path, cp):
    """Serve-daemon shape: many threads generating cycle-model *and* RTL
    source for the same design through one shared memo. Every thread
    must get the bytes its kind asked for — never the sibling kind's —
    and the memo must settle to one entry per kind."""
    import threading

    from repro.simc.codecache import _SOURCE_MEMO

    cache = SynthesisCache(tmp_path / "c")

    def generate_both() -> dict:
        return {
            "sched": sched_exec_source(cp.schedule, cache=cache),
            "rtl": rtl_sim_source(cp.rtl, ("input",), ("output",),
                                  cache=cache),
        }

    refs = generate_both()
    clear_memo()  # hammer from a cold memo so threads race the misses
    errors: list[str] = []
    start = threading.Barrier(16)

    def hammer(tid: int) -> None:
        start.wait()
        for _ in range(20):
            for kind, src in generate_both().items():
                if src != refs[kind]:
                    errors.append(f"t{tid}: {kind} got foreign source")

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert len(_SOURCE_MEMO) == 2  # one entry per kind, no dupes


#: sha256 over the scalar generated source of every process of each app at
#: the ``optimized`` level (processes in name order), recorded before the
#: structure-of-arrays emitters were removed: scalar emission must stay
#: byte-identical so on-disk codegen entries under ``CODEGEN_SCHEMA`` stay
#: valid
SCALAR_SOURCE_DIGESTS = {
    "loopback:3": (
        "586cf0a660708ce71769be77f0e2df502c1545c1eede7c6c25fb230acdf2da9e",
        "6859ac793e5c13338e55f64f296f4408c45dd9e5bab9a32b32641b01ac85b25b"),
    "edge": (
        "1f646c5ecf7ecb415879fc5cec2d16a70395eceb0df4ec76057b22e7fe9396e6",
        "b7a8b27ad02d1e1f5d5d2d698b6da99bf6fc7f8fe341df6f0766d734bc6e29be"),
    "tripledes": (
        "8ef12504dd5f4886edea521ea9ece798d2bab438218ec6c291e0bd8e1c7dac9f",
        "149a65c839f041c064ea6ed7ca55bb94b7dc1e313b3a3d8f4cfd54d1f57bf8f4"),
}


@pytest.mark.parametrize("app_name", sorted(SCALAR_SOURCE_DIGESTS))
def test_scalar_source_is_byte_identical_to_recorded_digests(app_name):
    import hashlib

    from repro.apps.edge_detect import build_edge_app
    from repro.apps.tripledes import build_tdes_app
    from repro.core.synth import synthesize
    from repro.simc import generate_rtl_source, generate_sched_source
    from repro.simc.codecache import CODEGEN_SCHEMA

    build = {
        "loopback:3": lambda: build_loopback(3),
        "edge": build_edge_app,
        "tripledes": lambda: build_tdes_app(b"In-circuit!"),
    }[app_name]
    image = synthesize(build(), assertions="optimized")

    def ports(module, suffix):
        return tuple(sorted(p.signal.name[:-len(suffix)]
                            for p in module.ports
                            if p.signal.name.endswith(suffix)))

    sched = hashlib.sha256()
    rtl = hashlib.sha256()
    for name in sorted(image.compiled):
        cp = image.compiled[name]
        sched.update(generate_sched_source(cp.schedule).encode())
        rtl.update(generate_rtl_source(
            cp.rtl, ports(cp.rtl, "_re"), ports(cp.rtl, "_we")).encode())
    assert (sched.hexdigest(), rtl.hexdigest()) == \
        SCALAR_SOURCE_DIGESTS[app_name]
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
