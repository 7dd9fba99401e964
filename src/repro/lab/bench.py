"""Benchmark-harness glue: a process-wide cache handle + instrumented map.

The benchmark suite (``benchmarks/``) regenerates the paper's tables by
synthesizing the same design points on every run. This module gives it

* :func:`synth` — a drop-in for :func:`repro.core.synth.synthesize` that
  reuses per-process artifacts (:mod:`repro.lab.incremental`) from one
  process-wide :class:`SynthesisCache` whose location comes from the
  ``REPRO_LAB_CACHE`` environment variable (exported by
  ``benchmarks/conftest.py`` *before* any worker process starts, so pool
  workers inherit it);
* :func:`call_with_stats` — wraps a worker function so it returns
  ``(result, cache_stats_delta)``; the conftest aggregates the deltas from
  every worker into the session manifest, which is how a warm-cache rerun
  can *prove* it performed zero re-synthesis;
* :func:`run_synth_bench` — the incremental-synthesis perf bench (cold
  app vs warm, edit-one-process, rebuild and identical-stage builds),
  emitting the same JSON document
  shape as :func:`repro.simc.bench.run_bench` so the ``repro bench``
  baseline gate works on both suites unchanged.

Cache statistics are per-process counters; aggregation across pool
workers happens via the returned deltas, never via shared state.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

from repro.core.synth import SynthesisOptions, synthesize
from repro.lab.cache import SynthesisCache, cache_key
from repro.platform.device import EP2S180, DeviceModel

__all__ = [
    "session_cache", "synth", "call_with_stats", "CACHE_ENV",
    "run_synth_bench", "render_synth_bench",
]

CACHE_ENV = "REPRO_LAB_CACHE"

_CACHE: SynthesisCache | None = None


def session_cache() -> SynthesisCache:
    """The process-wide cache (disabled when ``REPRO_LAB_CACHE`` is unset)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = SynthesisCache(os.environ.get(CACHE_ENV) or None)
    return _CACHE


def reset_session_cache() -> None:
    """Drop the process-wide handle (tests re-point ``REPRO_LAB_CACHE``)."""
    global _CACHE
    _CACHE = None


def synth(
    app,
    assertions: str = "optimized",
    options: SynthesisOptions | None = None,
    device: DeviceModel = EP2S180,
):
    """Synthesize ``app`` through the process-wide cache's per-process
    artifacts, so a warm rerun assembles every image from cache hits
    with zero re-synthesis."""
    from repro.lab.incremental import synthesize_incremental

    image, _info = synthesize_incremental(
        app, assertions, options=options, cache=session_cache(),
        device=device)
    return image


def call_with_stats(packed: tuple) -> tuple:
    """Worker shim: ``(fn, item) -> (fn(item), cache stats delta)``."""
    fn, item = packed
    before = session_cache().stats.snapshot()
    result = fn(item)
    return result, session_cache().stats.delta(before)


# ---- incremental-synthesis perf bench ------------------------------------

def _report_signature(image) -> tuple:
    """Everything the warm/edit legs must reproduce bit-for-bit before
    their timings can be trusted: the full point summary (resources +
    timing) and the assertion decode table."""
    from repro.platform.report import point_summary

    return (
        point_summary(image, EP2S180),
        tuple(sorted(
            (stream, dec.mode, word, name, site.ordinal, site.expr_text)
            for stream, dec in image.assert_decode.items()
            for word, (name, site) in dec.table.items())),
    )


#: every leg is timed best of this many runs: the legs take only a few
#: milliseconds, so one slow read would otherwise decide a speedup
REPEATS = 3


def _bench_synth_app(stages: int) -> list[dict]:
    """Bench one pipeline app through the incremental seam.

    The base app gives every stage its own delta, so its ``stages``
    processes are distinct and a cold build synthesizes each of them.
    Five legs, each best of :data:`REPEATS` under a fresh cache root:

    * **cold** — empty cache, every process synthesized (the
      denominator: what a non-incremental toolchain pays every time);
    * **warm** — identical resubmission, every artifact a hit
      (``synth_warm`` speedup = cold / warm);
    * **edit** — one stage's delta constant changed, exactly one
      process rebuilt (``synth_edit`` speedup = cold / edit);
    * **rebuild** — what a warm sweep point pays end to end: rebuild the
      app from source (lowering memo warm), take its :func:`cache_key`
      and resubmit it, every artifact a hit (``synth_rebuild`` speedup =
      cold / rebuild). The frontend's share of a warm point shows here;
    * **relocate** — a cold build of the same pipeline with identical
      stages: one process synthesized and placed at the other
      ``stages - 1`` (``synth_relocate`` speedup = cold / relocate).

    Before any timing is recorded, the warm, edited, rebuilt and
    relocated images are checked against fresh full resyntheses
    (resource/timing summary and assertion decode table), mirroring the
    bit-identity discipline of the simulation bench.
    """
    from repro.apps.pipeline import build_pipeline
    from repro.lab.incremental import synthesize_incremental
    from repro.simc.bench import BenchMismatchError

    name = f"pipeline{stages}"
    distinct = {i: i + 1 for i in range(stages)}
    # a delta no stage has, so the edit is one new process
    edited = {**distinct, stages // 2: stages + 1}

    def rebuild(cache: SynthesisCache):
        app = build_pipeline(stages, deltas=distinct)
        cache_key(app, "optimized")
        return synthesize_incremental(app, cache=cache)

    def expect(info: dict, resyntheses: int, leg: str) -> None:
        if info["resyntheses"] != resyntheses:
            raise BenchMismatchError(
                f"{name}/{leg}: expected {resyntheses} resyntheses, "
                f"measured {info['resyntheses']}", code="RPR-M006")

    # correctness first: incremental warm/edit/relocated output must match
    # a full resynthesis of the same source
    with tempfile.TemporaryDirectory() as root:
        cache = SynthesisCache(root)
        _, info = synthesize_incremental(
            build_pipeline(stages, deltas=distinct), cache=cache)
        expect(info, stages, "cold")
        warm_img, info = synthesize_incremental(
            build_pipeline(stages, deltas=distinct), cache=cache)
        expect(info, 0, "warm")
        edit_img, info = synthesize_incremental(
            build_pipeline(stages, deltas=edited), cache=cache)
        expect(info, 1, "edit")
        rebuilt_img, info = rebuild(cache)
        expect(info, 0, "rebuild")
    with tempfile.TemporaryDirectory() as root:
        relocated_img, info = synthesize_incremental(
            build_pipeline(stages), cache=SynthesisCache(root))
        expect(info, 1, "relocate")
    for img, deltas in ((warm_img, distinct), (edit_img, edited),
                        (rebuilt_img, distinct), (relocated_img, None)):
        full = synthesize(build_pipeline(stages, deltas=deltas))
        if _report_signature(img) != _report_signature(full):
            raise BenchMismatchError(
                f"{name}: incremental image diverges from full "
                "resynthesis", code="RPR-M007")

    # the cold/warm/edit/relocate apps are built outside the timed
    # regions: those legs time synthesis alone (lowered IR is read-only,
    # so one app serves every leg); the rebuild leg times the app build too
    base_app = build_pipeline(stages, deltas=distinct)
    edit_app = build_pipeline(stages, deltas=edited)
    same_app = build_pipeline(stages)
    cold_s = warm_s = edit_s = rebuild_s = relocate_s = math.inf
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as root:
            cache = SynthesisCache(root)
            t0 = time.perf_counter()
            synthesize_incremental(base_app, cache=cache)
            cold_s = min(cold_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            synthesize_incremental(base_app, cache=cache)
            warm_s = min(warm_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            synthesize_incremental(edit_app, cache=cache)
            edit_s = min(edit_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            rebuild(cache)
            rebuild_s = min(rebuild_s, time.perf_counter() - t0)
        with tempfile.TemporaryDirectory() as root:
            cache = SynthesisCache(root)
            t0 = time.perf_counter()
            synthesize_incremental(same_app, cache=cache)
            relocate_s = min(relocate_s, time.perf_counter() - t0)

    return [
        {
            "name": name,
            "kind": "synth_warm",
            "processes": stages,
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "speedup": round(cold_s / warm_s, 3),
        },
        {
            "name": name,
            "kind": "synth_edit",
            "processes": stages,
            "cold_s": round(cold_s, 6),
            "edit_s": round(edit_s, 6),
            "resyntheses": 1,
            "speedup": round(cold_s / edit_s, 3),
        },
        {
            "name": name,
            "kind": "synth_rebuild",
            "processes": stages,
            "cold_s": round(cold_s, 6),
            "rebuild_s": round(rebuild_s, 6),
            "speedup": round(cold_s / rebuild_s, 3),
        },
        {
            "name": name,
            "kind": "synth_relocate",
            "processes": stages,
            "cold_s": round(cold_s, 6),
            "relocate_s": round(relocate_s, 6),
            "resyntheses": 1,
            "speedup": round(cold_s / relocate_s, 3),
        },
    ]


def run_synth_bench(quick: bool = False) -> dict:
    """Run the incremental-synthesis bench suite.

    Returns the same document shape as
    :func:`repro.simc.bench.run_bench` (``schema``/``quick``/``entries``/
    ``geomean_speedup``) so ``compare_bench`` and the committed-baseline
    CI gate apply unchanged; entries are keyed ``(name, kind)`` with
    kinds ``synth_warm``, ``synth_edit``, ``synth_rebuild`` and
    ``synth_relocate``. Both
    modes time the same legs the same number of times; ``quick`` only
    labels the document.
    """
    from repro.simc.bench import BENCH_SCHEMA

    entries = []
    for stages in (4, 8):
        entries.extend(_bench_synth_app(stages))
    speedups = [e["speedup"] for e in entries]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "entries": entries,
        "geomean_speedup": round(geomean, 3),
    }


def render_synth_bench(doc: dict) -> str:
    """Human-readable table for a :func:`run_synth_bench` document."""
    lines = [
        "INCREMENTAL SYNTHESIS BENCH (cold vs warm/edit/rebuild/relocate)"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'name':<12} {'kind':<14} {'procs':>5} "
        f"{'cold_s':>9} {'leg_s':>9} {'speedup':>8}",
    ]
    for e in doc["entries"]:
        leg_s = next(e[k] for k in ("warm_s", "edit_s", "rebuild_s",
                                    "relocate_s") if k in e)
        lines.append(
            f"{e['name']:<12} {e['kind']:<14} {e['processes']:>5} "
            f"{e['cold_s']:>9.4f} {leg_s:>9.4f} "
            f"{e['speedup']:>7.2f}x")
    lines.append(f"geomean speedup: {doc['geomean_speedup']:.2f}x")
    return "\n".join(lines)
