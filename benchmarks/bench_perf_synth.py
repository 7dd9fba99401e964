"""Incremental-synthesis perf bench (cold vs warm vs edit-one-process vs
rebuild-from-source vs identical stages relocated).

Like ``bench_perf_sim.py`` this measures *our own tooling*: how much of
an app resynthesis the per-process artifact cache
(:mod:`repro.lab.incremental`) saves when the cache is warm, and when
exactly one process of an N-process pipeline has been edited, what a
warm sweep point pays when it rebuilds the app from source first, and
how much cheaper a cold pipeline of N identical stages is than one of N
distinct stages (one synthesis, relocated to the rest). Every
timed leg is identity-checked first (``repro.lab.bench`` compares the
incremental images' resource/timing summaries and assertion decode
tables against fresh full resyntheses), so the numbers can only exist
if incremental and monolithic synthesis agree.

The run regenerates ``results/BENCH_synth.json``; that file is committed
as the CI baseline for ``repro bench --suite synth --baseline`` (speedup
*ratios* are machine-independent enough to gate on with a 30%
threshold).
"""

import json
import os

from conftest import RESULTS_DIR, save_and_print

from repro.lab.bench import render_synth_bench, run_synth_bench

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


def test_incremental_synth_speedup(benchmark):
    doc = benchmark.pedantic(lambda: run_synth_bench(quick=QUICK),
                             rounds=1, iterations=1)
    save_and_print("bench_synth", render_synth_bench(doc))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_synth.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    by_key = {(e["name"], e["kind"]): e for e in doc["entries"]}
    # acceptance floors are deliberately loose (the committed baseline
    # records the measured ratios; `repro bench --suite synth
    # --baseline` is the precise 30% regression gate): a warm hit skips
    # all N process syntheses and must beat cold by >=2x even with
    # assembly overhead; an edit rebuilds 1 of N and must still beat a
    # full cold resynthesis; a rebuild re-lowers nothing (memo warm), so
    # it pays the app build on top of a warm hit and must still beat cold;
    # identical stages synthesize one process of N and must beat N
    # distinct ones the way an edit does.
    for stages in (4, 8):
        warm = by_key[(f"pipeline{stages}", "synth_warm")]
        edit = by_key[(f"pipeline{stages}", "synth_edit")]
        rebuild = by_key[(f"pipeline{stages}", "synth_rebuild")]
        relocate = by_key[(f"pipeline{stages}", "synth_relocate")]
        assert warm["speedup"] > 2.0
        assert edit["speedup"] > 1.2
        assert edit["resyntheses"] == 1
        assert rebuild["speedup"] > 1.2
        assert relocate["speedup"] > 1.2
        assert relocate["resyntheses"] == 1
    assert doc["geomean_speedup"] > 1.5
