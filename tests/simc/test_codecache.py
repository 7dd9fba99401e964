"""Content-addressed codegen caching (memo + lab-cache tiers)."""

import pytest

from repro.apps.loopback import build_loopback
from repro.frontend.ctypes_ import U1
from repro.hls.cyclemodel import Channel
from repro.ir.values import Temp
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
    """The memo / lab-cache key of one schedule: on-disk entries under
    ``CODEGEN_SCHEMA`` 4 stay reachable only while these bytes hold (the
    package version is part of the fingerprint, so a release re-records
    it)."""
    from repro import __version__
    from repro.simc.codecache import _SOURCE_MEMO

    sched_exec_source(cp.schedule)
    assert __version__ == "1.0.0"
    assert list(_SOURCE_MEMO) == ["simc-sched-8811a66606520e51"]


def _first_instr(cp):
    return next(iter(cp.schedule.func.instructions()))


def _flip_pred(cp):
    _first_instr(cp).attrs["pred"] = Temp("flipped", U1)


def _flip_channel(cp):
    _first_instr(cp).attrs["channel"] = "elsewhere"


def _flip_force(cp):
    _first_instr(cp).attrs["force_compare_width"] = 3


def _flip_step(cp):
    bs = next(bs for bs in cp.schedule.blocks.values() if bs.steps[0])
    bs.steps.append(bs.steps[0])
    bs.steps[0] = []


@pytest.mark.parametrize("flip", [_flip_pred, _flip_channel, _flip_force,
                                  _flip_step])
def test_codegen_key_covers_what_the_printer_leaves_out(flip):
    """``Instr.__str__`` prints neither ``pred``, ``channel`` nor
    ``force_compare_width``, and the function text holds no schedule: the
    key must still change with each, or two designs share one source."""
    from repro.simc.codecache import _SOURCE_MEMO

    cp = compile_one(SRC)
    sched_exec_source(cp.schedule)
    flip(cp)
    sched_exec_source(cp.schedule)
    assert len(_SOURCE_MEMO) == 2


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


@pytest.fixture
def generations(monkeypatch):
    """Counts source generations: the memo's misses."""
    import repro.simc.schedgen as schedgen

    calls = []
    real = schedgen.generate_sched_source

    def counting(fsched):
        calls.append(fsched)
        return real(fsched)

    monkeypatch.setattr(schedgen, "generate_sched_source", counting)
    return calls


def test_memo_stats_rise_across_repeated_jobs(tmp_path, cp, generations):
    """Warm-process reuse: repeated identical jobs in one process
    generate the source once and never again."""
    cache = SynthesisCache(tmp_path / "c")
    first = sched_exec_source(cp.schedule, cache=cache)
    assert len(generations) == 1
    for _ in range(3):
        assert sched_exec_source(cp.schedule, cache=cache) == first
    assert len(generations) == 1  # never regenerated


def test_code_memo_counters_track_compiles(tmp_path, cp, monkeypatch):
    """One ``compile()`` per distinct source, however often it is asked
    for."""
    import repro.simc.codecache as codecache

    compiles = []

    def counting(source, filename, mode):
        compiles.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(codecache, "compile", counting, raising=False)
    src = sched_exec_source(cp.schedule,
                            cache=SynthesisCache(tmp_path / "c"))
    code = codecache.compile_source(src, "<gen>")
    assert len(compiles) == 1
    assert codecache.compile_source(src, "<gen>") is code
    assert codecache.compile_source(src, "<gen>") is code
    assert len(compiles) == 1


def test_clear_memo_forces_regeneration(cp, generations):
    """Without a disk cache, a job after :func:`clear_memo` generates the
    source again (the cold-codegen state tests rely on)."""
    off = SynthesisCache(None)
    sched_exec_source(cp.schedule, cache=off)
    sched_exec_source(cp.schedule, cache=off)
    assert len(generations) == 1
    clear_memo()
    sched_exec_source(cp.schedule, cache=off)
    assert len(generations) == 2


def test_memo_safe_under_concurrent_codegen(tmp_path, cp):
    """Many threads generating cycle-model source for two designs through
    one shared memo. Every thread must get the bytes its design asked for
    — never the sibling's — and the memo must settle to one entry per
    design."""
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
#: the ``optimized`` level (processes in name order), recorded with
#: ``CODEGEN_SCHEMA`` 4 (fused quiet loops): emission must stay
#: byte-identical so on-disk codegen entries under that schema stay valid
SCALAR_SOURCE_DIGESTS = {
    "loopback:3":
        "25ad3d8a2ad4577e8d28747627ad29cf2f5824ea466807ead371ce1b989a500f",
    "edge":
        "202f3bd325e891df037312b89cc8261de91e65d5f4c4e0c818be78b0e35aa5d1",
    "tripledes":
        "403cdb29872609dd09cefd90806da3095364edeb10e228ffcb016eea5938b1da",
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
    assert CODEGEN_SCHEMA == 4


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


TABLE_SRC = """
void f(co_stream input, co_stream output) {
  const uint32 t[4] = {5, 6, 7, 8};
  uint32 x;
  while (co_stream_read(input, &x)) { co_stream_write(output, t[x & 3]); }
  co_stream_close(output);
}
"""


def test_repeated_builds_of_one_schedule_reuse_its_template(monkeypatch):
    """The codegen digest, the exec'd ``_build`` and the memory images are
    made once per schedule object: a second executor re-derives none of
    them, gets its own copy of every image, and pickling drops them."""
    import pickle

    import repro.hls.cyclemodel as cyclemodel
    import repro.simc.schedgen as schedgen

    schedule = compile_one(TABLE_SRC).schedule
    calls = []

    def counted(name, real):
        def wrapper(*a, **kw):
            calls.append(name)
            return real(*a, **kw)
        return wrapper

    monkeypatch.setattr(schedgen, "_schedule_digest",
                        counted("digest", schedgen._schedule_digest))
    monkeypatch.setattr(cyclemodel, "truncate",
                        counted("truncate", cyclemodel.truncate))

    def build():
        return CompiledProcessExec(schedule, {"input": Channel("i"),
                                              "output": Channel("o")})

    first = build()
    assert calls.count("digest") == 1 and "truncate" in calls
    calls.clear()
    second = build()
    assert calls == []
    assert second.memories == first.memories
    assert second.memories["t"] == [5, 6, 7, 8]
    second.memories["t"][0] = 9
    assert first.memories["t"][0] == 5 == build().memories["t"][0]
    assert "_memo" not in pickle.loads(pickle.dumps(schedule)).__dict__
