"""End-to-end sweeps: cross products, caching, resume, interruption, CLI."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro.lab.sweep as sweep_mod
from repro.cli import main
from repro.lab.cache import SynthesisCache, cache_key
from repro.lab.shard import VOLATILE_RECORD_FIELDS, canonical_record
from repro.lab.sweep import (
    AppSpec,
    SweepError,
    SweepPoint,
    SweepSpec,
    build_app,
    evaluate_point,
    evaluate_point_cached,
    run_sweep,
    sweep_summary,
)

SMALL_SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""


def small_spec(name="unit", levels=("none", "optimized")):
    return SweepSpec.cross(
        name,
        [AppSpec.make("loopback", n=2), AppSpec.make("loopback", n=3)],
        levels=levels,
    )


def quiet_sweep(spec, tmp_path, **kw):
    kw.setdefault("store_root", tmp_path / "runs")
    kw.setdefault("cache_root", tmp_path / "cache")
    kw.setdefault("progress", False)
    return run_sweep(spec, **kw)


# ---- spec construction ---------------------------------------------------

def test_cross_product_shape_and_ids():
    spec = SweepSpec.cross(
        "s", [AppSpec.make("loopback", n=2)],
        levels=("none", "optimized"), variants=("default", "noshare"),
    )
    assert [p.point_id for p in spec.points] == [
        "loopback(n=2)/none",
        "loopback(n=2)/none/noshare",
        "loopback(n=2)/optimized",
        "loopback(n=2)/optimized/noshare",
    ]


def test_bad_level_and_variant_and_kind_rejected():
    with pytest.raises(SweepError, match="bad assertion level"):
        SweepSpec.cross("s", [AppSpec.make("loopback")], levels=("max",))
    with pytest.raises(SweepError, match="unknown option variant"):
        SweepSpec.cross("s", [AppSpec.make("loopback")],
                        variants=("turbo",))
    with pytest.raises(SweepError, match="unknown app kind"):
        AppSpec.make("fft")


def test_run_id_is_content_addressed():
    assert small_spec().run_id() == small_spec().run_id()
    assert small_spec().run_id() != \
        small_spec(levels=("none", "unoptimized")).run_id()


def test_csource_app_kind_builds():
    spec = AppSpec.make("csource", source=SMALL_SRC, feed=(1, 2, 3))
    app = spec.build()
    assert "in" in app.streams and "out" in app.streams


# ---- execution, caching, manifest ---------------------------------------

def test_sweep_completes_and_journal_matches(tmp_path):
    spec = small_spec()
    result = quiet_sweep(spec, tmp_path, jobs=1)
    assert result.ok
    m = result.manifest
    assert m["status"] == "completed"
    # per-process incremental accounting: every loopback stage is one
    # process up to relocation, so loopback(n=2) synthesizes stage0 and
    # relocates it to stage1 at each level (2 resyntheses, 2 hits, a
    # partial rebuild per level); loopback(n=3) then relocates that one
    # artifact to all three stages (6 hits)
    assert m["counters"] == {
        "total": 4, "skipped_resume": 0, "done": 4, "failed": 0,
        "retried": 0, "cache_hits": 0, "cache_misses": 4,
        "cache_corrupt": 0, "journal_corrupt": 0,
        "resyntheses": 2, "proc_hits": 8, "proc_misses": 2,
        "partial_rebuilds": 2, "lease_waits": 0, "lease_takeovers": 0,
    }
    assert m["wall_time_s"] >= 0
    assert set(result.records) == {p.point_id for p in spec.points}
    for rec in result.records.values():
        assert rec["status"] == "ok"
        assert rec["comb_aluts"] > 0 and rec["fmax_mhz"] > 0
    # the rendered table shows every point with real numbers
    table = result.render()
    for p in spec.points:
        assert p.point_id in table


def test_rerun_is_all_cache_hits_and_skips_nothing_new(tmp_path):
    spec = small_spec()
    quiet_sweep(spec, tmp_path, jobs=1)
    again = quiet_sweep(spec, tmp_path, jobs=1, resume=False)
    c = again.manifest["counters"]
    assert c["done"] == 4 and c["cache_hits"] == 4 \
        and c["cache_misses"] == 0


def test_resume_skips_completed_points(tmp_path):
    """Drop half the journal (as an interruption would) and rerun: only
    the missing points are evaluated."""
    spec = small_spec()
    first = quiet_sweep(spec, tmp_path, jobs=1)
    lines = first.run.results_path.read_text().splitlines()
    first.run.results_path.write_text("\n".join(lines[:2]) + "\n")
    second = quiet_sweep(spec, tmp_path, jobs=1)
    c = second.manifest["counters"]
    assert c["skipped_resume"] == 2 and c["done"] == 2
    assert c["failed"] == 0
    assert second.ok
    assert set(second.records) == {p.point_id for p in spec.points}


def test_worker_failure_is_recorded_and_retried_on_resume(tmp_path,
                                                          monkeypatch):
    spec = small_spec()
    victim = spec.points[2].point_id
    real = sweep_mod.synthesize_incremental

    def sabotaged(app, assertions="optimized", **kw):
        if app.name == "loopback3" and assertions == "none":
            raise ValueError("injected synthesis failure")
        return real(app, assertions, **kw)

    monkeypatch.setattr(sweep_mod, "synthesize_incremental", sabotaged)
    first = quiet_sweep(spec, tmp_path, jobs=1)
    assert not first.ok
    assert first.manifest["status"] == "completed-with-failures"
    assert first.manifest["counters"]["failed"] == 1
    assert first.records[victim]["status"] == "failed"
    assert "injected synthesis failure" in first.records[victim]["error"]

    monkeypatch.setattr(sweep_mod, "synthesize_incremental", real)
    second = quiet_sweep(spec, tmp_path, jobs=1)
    c = second.manifest["counters"]
    # only the failed point re-ran; the three good ones were skipped
    assert c["skipped_resume"] == 3 and c["done"] == 1
    assert second.ok
    assert second.records[victim]["status"] == "ok"


def test_interrupt_finalizes_manifest_then_resume_completes(tmp_path,
                                                            monkeypatch):
    """SIGINT mid-sweep: manifest says interrupted, journal keeps the
    finished points, and the rerun completes only the missing ones."""
    spec = small_spec()
    real = sweep_mod.synthesize_incremental
    seen = []

    def interrupting(app, assertions="optimized", **kw):
        seen.append(1)
        if len(seen) == 3:
            raise KeyboardInterrupt
        return real(app, assertions, **kw)

    monkeypatch.setattr(sweep_mod, "synthesize_incremental", interrupting)
    with pytest.raises(KeyboardInterrupt):
        quiet_sweep(spec, tmp_path, jobs=1)

    store_runs = tmp_path / "runs"
    from repro.lab.store import ResultStore
    run = ResultStore(store_runs).open_run(spec.run_id())
    assert run.read_manifest()["status"] == "interrupted"
    assert len(run.completed_ids()) == 2  # two points landed before SIGINT

    monkeypatch.setattr(sweep_mod, "synthesize_incremental", real)
    resumed = quiet_sweep(spec, tmp_path, jobs=1)
    c = resumed.manifest["counters"]
    assert c["skipped_resume"] == 2 and c["done"] == 2
    assert resumed.ok and resumed.manifest["status"] == "completed"


def test_parallel_sweep_matches_serial(tmp_path):
    """jobs=2 must produce the same per-point numbers as jobs=1."""
    spec = small_spec()
    serial = quiet_sweep(spec, tmp_path / "a", jobs=1)
    pooled = quiet_sweep(spec, tmp_path / "b", jobs=2)
    # Points share process artifacts, so which point records the fill
    # (proc miss) vs the lease-wait (proc hit) depends on worker
    # scheduling under jobs>1 — exactly the fields merge strips.
    strip = VOLATILE_RECORD_FIELDS
    for pid in (p.point_id for p in spec.points):
        a = {k: v for k, v in serial.records[pid].items() if k not in strip}
        b = {k: v for k, v in pooled.records[pid].items() if k not in strip}
        assert a == b, pid
    assert serial.render() == pooled.render()


# ---- the point-summary cache tier ----------------------------------------

@pytest.mark.parametrize("app", [
    AppSpec.make("tripledes"), AppSpec.make("loopback", n=8),
], ids=lambda a: a.label)
def test_cached_records_equal_the_uncached_point_summary(tmp_path, app):
    """Cold and warm records agree, and both carry exactly what
    ``point_summary`` reports for a plain, uncached synthesis."""
    import pickle

    from repro.core.synth import synthesize
    from repro.lab.cache import summary_key
    from repro.platform.report import point_summary

    point = SweepPoint(point_id="p", app=app, level="optimized")
    cache = SynthesisCache(tmp_path / "c")
    cold = evaluate_point_cached(point, cache)
    warm = evaluate_point_cached(point, SynthesisCache(tmp_path / "c"))
    assert cold["cache_hit"] is False and warm["cache_hit"] is True
    assert canonical_record(cold) == canonical_record(warm)
    expected = point_summary(synthesize(build_app(app), "optimized"),
                             point.device)
    for rec in (cold, warm):
        assert {k: rec[k] for k in expected} == expected
    # the point's entry is the summary dict itself, never an image
    raw = cache._path(summary_key(cold["key"])).read_bytes()
    assert b"HardwareImage" not in raw
    entry = pickle.loads(raw)
    assert type(entry) is dict and entry == expected
    assert not cache._path(cold["key"]).exists()


def test_sweep_point_and_bench_synth_keep_their_payload_shapes(
        tmp_path, monkeypatch):
    """``lab.bench.synth`` builds images from per-process artifacts and
    stores nothing under the bare point key: its second call synthesizes
    no process, and a sweep point on the same app, level and cache
    directory still misses and then hits its own summary."""
    from repro.lab import bench
    from repro.runtime.hwexec import HardwareImage

    monkeypatch.setenv(bench.CACHE_ENV, str(tmp_path / "c"))
    bench.reset_session_cache()
    try:
        point = SweepPoint(point_id="p", app=AppSpec.make("loopback", n=3),
                           level="optimized")
        image = bench.synth(build_app(point.app), "optimized")
        assert isinstance(image, HardwareImage)
        cache = bench.session_cache()
        assert cache.stats.proc_misses == 1
        assert not cache._path(cache_key(build_app(point.app),
                                         "optimized")).exists()
        before = cache.stats.snapshot()
        again = bench.synth(build_app(point.app), "optimized")
        assert isinstance(again, HardwareImage)
        delta = cache.stats.delta(before)
        # the cache counts reads: one per distinct process, not per stage
        assert delta["proc_misses"] == 0 and delta["proc_hits"] == 1
        assert delta["stores"] == 0
        rec = evaluate_point_cached(point, SynthesisCache(tmp_path / "c"))
        assert rec["cache_hit"] is False
        warm = evaluate_point_cached(point, SynthesisCache(tmp_path / "c"))
        assert warm["cache_hit"] is True
        assert canonical_record(warm) == canonical_record(rec)
    finally:
        bench.reset_session_cache()


def test_image_rebuilds_from_the_process_entries_a_cold_point_left(
        tmp_path):
    """A cold point stores only its summary, plus one entry per distinct
    process (the loopback's three stages are one). That entry alone
    rebuilds the image: no resynthesis, three process hits from one cache
    read, and the rebuilt image runs exactly like a fresh synthesis."""
    from repro.apps.loopback import build_loopback
    from repro.core.synth import synthesize
    from repro.lab.incremental import synthesize_incremental
    from repro.runtime.hwexec import execute
    from repro.simc.bench import _hw_signature

    point = SweepPoint(point_id="p", app=AppSpec.make("loopback", n=3),
                       level="optimized")
    cold = evaluate_point_cached(point, SynthesisCache(tmp_path / "c"))
    assert cold["cache_hit"] is False and cold["resyntheses"] == 1
    cache = SynthesisCache(tmp_path / "c")
    image, info = synthesize_incremental(
        build_app(point.app), point.level, options=point.options,
        cache=cache, device=point.device)
    assert info["resyntheses"] == 0 and info["proc_hits"] == 3
    assert cache.stats.proc_hits == 1 and cache.stats.proc_misses == 0
    fresh = synthesize(build_loopback(3), assertions="optimized")
    assert _hw_signature(execute(image)) == _hw_signature(execute(fresh))


def test_evaluate_point_record_shape(tmp_path):
    spec = small_spec()
    rec = evaluate_point((spec.points[0], None))
    assert rec["point_id"] == spec.points[0].point_id
    assert rec["cache_hit"] is False
    for field in ("processes", "comb_aluts", "registers", "bram_bits",
                  "fmax_mhz", "assertion_level", "device"):
        assert field in rec


# ---- sharding and journal damage ----------------------------------------

def test_sharded_sweep_merge_is_byte_identical_to_unsharded(tmp_path):
    """The tentpole identity: run each shard into the same store, merge,
    and compare against the merged unsharded run — byte for byte."""
    from repro.lab.shard import ShardSpec, merge_runs

    spec = small_spec()
    shard_points = []
    for k in (1, 2):
        res = quiet_sweep(spec, tmp_path, jobs=1, shard=ShardSpec(k, 2))
        assert res.ok
        assert res.manifest["shard"] == {"index": k, "total": 2}
        assert res.manifest["counters"]["done"] == len(res.points)
        shard_points.extend(p.point_id for p in res.points)
    # the shards partition the spec exactly (some may be empty — the
    # assignment is a hash, not round-robin)
    assert sorted(shard_points) == sorted(p.point_id for p in spec.points)

    plain_dir = tmp_path / "plain"
    quiet_sweep(spec, plain_dir, jobs=1,
                cache_root=tmp_path / "cache")  # shared cache, same work

    merged_sharded = merge_runs(tmp_path / "runs", spec.run_id())
    merged_plain = merge_runs(plain_dir / "runs", spec.run_id())
    assert merged_sharded.sources == [
        spec.run_id() + ".s1of2", spec.run_id() + ".s2of2",
    ]
    assert merged_sharded.run.results_path.read_bytes() == \
        merged_plain.run.results_path.read_bytes()
    assert merged_sharded.run.manifest_path.read_bytes() == \
        merged_plain.run.manifest_path.read_bytes()
    assert merged_sharded.counters == {"ok": 4}


def test_corrupt_journal_warns_and_counts(tmp_path, capsys):
    """Satellite: a torn journal line surfaces as a stderr warning and a
    journal_corrupt counter, never silently."""
    spec = small_spec()
    first = quiet_sweep(spec, tmp_path, jobs=1)
    # tear the journal tail, as a mid-write kill would
    with open(first.run.results_path, "a") as fh:
        fh.write('{"point_id": "loopback(n=9)/none", "stat')
    second = run_sweep(spec, jobs=1, store_root=tmp_path / "runs",
                       cache_root=tmp_path / "cache")  # progress → stderr
    err = capsys.readouterr().err
    assert "torn/corrupt journal line" in err
    assert second.manifest["counters"]["journal_corrupt"] == 1
    assert second.ok


# ---- CLI -----------------------------------------------------------------

def test_cli_sweep_smoke(tmp_path, capsys):
    rc = main([
        "sweep", "--name", "cli-unit", "--apps", "loopback:2,loopback:3",
        "--levels", "none,optimized", "--jobs", "2",
        "--store", str(tmp_path / "runs"), "--cache", str(tmp_path / "c"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SWEEP cli-unit (4 points" in out
    assert "loopback(n=2)/optimized" in out
    assert "manifest:" in out

    # second invocation: warm cache, every point a hit
    rc = main([
        "sweep", "--name", "cli-unit", "--apps", "loopback:2,loopback:3",
        "--levels", "none,optimized", "--jobs", "2", "--no-resume",
        "--store", str(tmp_path / "runs"), "--cache", str(tmp_path / "c"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count(" hit") >= 4 and " miss" not in out


def test_sweep_summary_shape_and_record_order():
    result = SimpleNamespace(
        spec=SimpleNamespace(name="s"), run=SimpleNamespace(run_id="r-1"),
        ok=True, manifest={"status": "completed"},
        records={"b": {"point_id": "b"}, "a": {"point_id": "a"}},
        points=[SimpleNamespace(point_id=p) for p in ("a", "b")])
    s = sweep_summary(result)
    assert s["kind"] == "sweep" and s["schema"] == 1
    assert s["points"] == ["a", "b"]
    assert [r["point_id"] for r in s["records"]] == ["a", "b"]
    json.dumps(s)  # must be JSON-able as-is


def _cli_sweep(tmp_path, name, cache):
    """A ``python -m repro sweep --json`` process for one pipeline point
    whose six stages are six distinct processes (one delta each)."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "--name", name,
         "--apps", "pipeline:6@0=1@1=2@2=3@3=4@4=5@5=6",
         "--levels", "optimized", "--json",
         "--store", str(tmp_path / "runs"), "--cache", str(tmp_path / cache)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def _finish(proc) -> dict:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out)


def test_concurrent_cli_sweeps_over_one_cache_fill_each_key_once(tmp_path):
    """Two ``repro sweep`` processes racing on one point over one cache
    directory do what one process alone does: the fill leases (or a warm
    hit) make the second process's synthesis free."""
    solo = _finish(_cli_sweep(tmp_path, "solo", "solo-cache"))
    assert solo["manifest"]["counters"]["resyntheses"] == 6

    pair = [_finish(p) for p in [_cli_sweep(tmp_path, name, "shared")
                                 for name in ("a", "b")]]
    counters = [doc["manifest"]["counters"] for doc in pair]
    assert sum(c["resyntheses"] for c in counters) == 6, counters
    assert sum(c["cache_misses"] for c in counters) == 1, counters
    canon = [[canonical_record(r) for r in doc["records"]]
             for doc in (solo, *pair)]
    assert canon[0] == canon[1] == canon[2]


# ---- stale-key regression ------------------------------------------------

TABLE_SRC = """
void p(co_stream input, co_stream output) {
  const uint32 t[4] = {1, 2, 3, 4};
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + t[x & 3]);
  }
  co_stream_close(output);
}
"""

#: edits synthesis consumes that the instruction printer does not show,
#: so the app key once missed them: a const table's contents and an
#: assertion's message text (spelling the constant in hex leaves the
#: instructions alone; respacing would not change the text at all, as the
#: frontend prints expressions in one normal form)
STALE_EDITS = {
    "const-table": ("{1, 2, 3, 4}", "{9, 2, 3, 4}"),
    "assert-text": ("x < 100", "x < 0x64"),
}


@pytest.mark.parametrize("edit", sorted(STALE_EDITS))
def test_warm_sweep_resynthesizes_an_edit_the_ir_printer_omits(tmp_path,
                                                               edit):
    old, new = STALE_EDITS[edit]
    edited = TABLE_SRC.replace(old, new)

    def sweep(source, run):
        spec = SweepSpec.cross(
            "stale", [AppSpec.make("csource", source=source, feed=(1, 2))],
            levels=("optimized",))
        result = quiet_sweep(spec, tmp_path, store_root=tmp_path / run,
                             jobs=1)
        [record] = result.records.values()
        return record, result.manifest["counters"], spec.points[0]

    first, _, point = sweep(TABLE_SRC, "a")
    warm, counters, _ = sweep(TABLE_SRC, "b")
    assert counters["cache_hits"] == 1 and warm["key"] == first["key"]
    again, counters, edited_point = sweep(edited, "c")
    assert cache_key(build_app(point.app), "optimized") != \
        cache_key(build_app(edited_point.app), "optimized")
    assert again["key"] != first["key"]
    assert counters["cache_misses"] == 1 and again["cache_hit"] is False
