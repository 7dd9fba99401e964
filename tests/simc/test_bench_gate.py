"""Baseline-gate semantics of ``compare_bench`` (``repro bench``).

Regression suite for the gate's degraded modes: a freshly landed bench
has no baseline entry yet (the state every new bench ships in — it used
to key-error the whole gate), and a hand-edited or truncated baseline
can lack ``speedup`` fields entirely. Both must degrade to a recorded
note, never a crash, while real regressions still gate.
"""

from repro.simc.bench import compare_bench


def doc(entries, schema=1):
    return {"schema": schema, "quick": False, "entries": entries,
            "geomean_speedup": 5.0}


def entry(name, speedup, kind="hwexec", **extra):
    return {"name": name, "kind": kind, "speedup": speedup, **extra}


def test_clean_pass_with_matching_entries():
    base = doc([entry("loopback3", 6.0), entry("edge_detect", 10.0)])
    cur = doc([entry("loopback3", 5.9), entry("edge_detect", 11.2)])
    notes: list[str] = []
    assert compare_bench(cur, base, notes=notes) == []
    assert notes == []


def test_regression_below_threshold_floor_is_flagged():
    base = doc([entry("loopback3", 10.0)])
    cur = doc([entry("loopback3", 6.0)])  # floor at 30% is 7.0
    problems = compare_bench(cur, base, threshold=0.30)
    assert len(problems) == 1
    assert "loopback3/hwexec" in problems[0]
    assert "below" in problems[0]


def test_new_bench_without_baseline_entry_records_only():
    """The satellite bug: adding a bench before the baseline is
    regenerated must NOT fail the gate — it is noted as
    recorded-only and starts gating once the baseline includes it."""
    base = doc([entry("loopback3", 6.0)])
    cur = doc([entry("loopback3", 6.0),
               entry("loopback_wide", 8.9)])
    notes: list[str] = []
    assert compare_bench(cur, base, notes=notes) == []
    assert len(notes) == 1
    assert "loopback_wide/hwexec" in notes[0]
    assert "no baseline entry" in notes[0]
    # and without a notes sink it still just passes (cmd_bench's
    # pre-fix call shape)
    assert compare_bench(cur, base) == []


def test_entry_missing_from_current_still_gates():
    base = doc([entry("loopback3", 6.0), entry("tripledes", 5.5)])
    cur = doc([entry("loopback3", 6.0)])
    problems = compare_bench(cur, base)
    assert len(problems) == 1
    assert "tripledes/hwexec" in problems[0]
    assert "missing" in problems[0]


def test_unusable_speedup_notes_and_skips():
    """A truncated/hand-edited baseline without a numeric speedup must
    degrade the gate for that entry, not crash the whole run."""
    base = doc([{"name": "loopback3", "kind": "hwexec"},  # no speedup
                entry("tripledes", None),
                entry("edge_detect", 10.0)])
    cur = doc([entry("loopback3", 6.0), entry("tripledes", 5.5),
               entry("edge_detect", 10.1)])
    notes: list[str] = []
    assert compare_bench(cur, base, notes=notes) == []
    assert len(notes) == 2
    assert all("no usable speedup" in n for n in notes)


def test_malformed_entries_without_identity_are_ignored():
    base = doc([entry("loopback3", 6.0), {"speedup": 99.0}])
    cur = doc([entry("loopback3", 6.0), {"kind": "hwexec"}])
    notes: list[str] = []
    assert compare_bench(cur, base, notes=notes) == []
    assert notes == []


def test_schema_mismatch_short_circuits():
    base = doc([entry("loopback3", 6.0)], schema=0)
    cur = doc([entry("loopback3", 1.0)])
    problems = compare_bench(cur, base)
    assert len(problems) == 1
    assert "regenerate the baseline" in problems[0]


def test_committed_baseline_gates_itself_cleanly():
    """The repo's committed baseline must pass its own gate and carry
    exactly the three interp-vs-compiled entries, each above 1x."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "results", "BENCH_sim.json")
    with open(path) as fh:
        baseline = json.load(fh)
    notes: list[str] = []
    assert compare_bench(baseline, baseline, notes=notes) == []
    assert notes == []
    kinds = {e["name"]: e["kind"] for e in baseline["entries"]}
    assert kinds == {"loopback3": "hwexec", "edge_detect": "hwexec",
                     "tripledes": "hwexec"}
    assert all(e["speedup"] > 1.0 for e in baseline["entries"])
