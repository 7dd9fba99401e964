"""Perf-bench harness for the compiled-simulation backend.

Benches the interpreted cycle model against its :mod:`repro.simc`
specialization on the paper's three workloads (loopback chain, edge
detector, Triple-DES), asserting bit-identity between the legs before
trusting any timing. Emits a JSON document (``BENCH_sim.json``) whose
entries carry *speedup ratios* — a machine-independent quantity — so a
committed baseline can gate CI without caring how fast the runner is.

Entry points:

* :func:`run_bench` — run the suite, return the JSON-serializable dict;
* :func:`compare_bench` — diff a current run against a baseline, listing
  entries whose speedup regressed by more than ``threshold``;
* ``repro bench`` (:mod:`repro.cli`) — the command-line wrapper CI runs.
"""

from __future__ import annotations

import math
import time
from functools import partial
from typing import Callable

from repro.errors import ReproError

#: bump when the JSON layout changes incompatibly
BENCH_SCHEMA = 1

#: relative speedup loss (vs baseline) that counts as a regression
DEFAULT_THRESHOLD = 0.30


class BenchMismatchError(ReproError):
    """The interpreted and compiled legs of a bench disagreed."""

    code_prefix = "RPR-M"


def _time_best(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _hw_signature(res) -> tuple:
    """The observable outcome of an :func:`repro.runtime.hwexec.execute`
    run — everything a backend swap must preserve."""
    return (
        res.completed,
        res.reason,
        res.cycles,
        {k: list(v) for k, v in sorted(res.outputs.items())},
        sorted((name, site.ordinal, site.expr_text)
               for name, site in res.failures),
        {name: {k: v for k, v in st.items() if k != "backend"}
         for name, st in sorted(res.process_stats.items())},
    )


def _bench_hwexec(name: str, build_app, interp_repeats: int,
                  compiled_repeats: int) -> dict:
    """Bench one application end-to-end through ``execute()``.

    Synthesis and codegen are paid once up front (a warm-up run per
    backend), so the timed region measures simulation, not compilation —
    the quantity the compiled backend actually changes.
    """
    from repro.core.synth import synthesize
    from repro.runtime.hwexec import execute

    image = synthesize(build_app(), assertions="optimized")

    def run(backend: str):
        return execute(image, sim_backend=backend)

    sig = {}
    for backend in ("interp", "compiled"):
        res = run(backend)  # warm-up: codegen memo + import costs
        if backend == "compiled" and res.backend_diagnostics:
            raise BenchMismatchError(
                f"{name}: compiled leg silently fell back to the "
                f"interpreter: {res.backend_diagnostics}", code="RPR-M001")
        sig[backend] = _hw_signature(res)
    if sig["interp"] != sig["compiled"]:
        raise BenchMismatchError(
            f"{name}: interp/compiled execute() results differ:\n"
            f"  interp:   {sig['interp']}\n"
            f"  compiled: {sig['compiled']}", code="RPR-M002")

    interp_s, res = _time_best(lambda: run("interp"), interp_repeats)
    compiled_s, _ = _time_best(lambda: run("compiled"), compiled_repeats)
    return {
        "name": name,
        "kind": "hwexec",
        "cycles": res.cycles,
        "interp_s": round(interp_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(interp_s / compiled_s, 3),
    }


def _suite(quick: bool) -> list[tuple[str, Callable[[], dict]]]:
    # quick mode trades timing stability (fewer repeats), NOT workload
    # size — the speedup ratios stay comparable to a full-mode baseline,
    # which is what lets CI's --quick run gate against the committed
    # BENCH_sim.json. Only the interp leg drops to one run: a single slow
    # read of the compiled leg can only *lower* a speedup (the one way
    # the gate fails), and best of 3 compiled runs costs ~0.2 s on
    # Triple-DES against ~4 s for one interp run.
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app

    interp_repeats = 1 if quick else 3
    compiled_repeats = 3
    loop_data = list(range(1, 513))
    edge_wh = (32, 16)
    text = b"Now is the time for all good men to come to the aid!"
    builds = [
        ("loopback3", lambda: build_loopback(3, data=loop_data)),
        ("edge_detect",
         lambda: build_edge_app(width=edge_wh[0], height=edge_wh[1])),
        ("tripledes", lambda: build_tdes_app(text)),
    ]
    return [(name, partial(_bench_hwexec, name, build, interp_repeats,
                           compiled_repeats))
            for name, build in builds]


def run_bench(quick: bool = False) -> dict:
    """Run the full perf-bench suite; every entry is equality-checked
    between backends before its timing is recorded."""
    entries = [fn() for _, fn in _suite(quick)]
    speedups = [e["speedup"] for e in entries]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "entries": entries,
        "geomean_speedup": round(geomean, 3),
    }


def render_bench(doc: dict) -> str:
    """Human-readable table for a :func:`run_bench` document."""
    lines = [
        "SIMULATION BACKEND BENCH (interp vs compiled)"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'name':<14} {'kind':<7} {'cycles':>9} "
        f"{'interp_s':>10} {'compiled_s':>11} {'speedup':>8}",
    ]
    for e in doc["entries"]:
        lines.append(
            f"{e['name']:<14} {e['kind']:<7} {e['cycles']:>9} "
            f"{e['interp_s']:>10.4f} {e['compiled_s']:>11.4f} "
            f"{e['speedup']:>7.2f}x")
    lines.append(f"geomean speedup: {doc['geomean_speedup']:.2f}x")
    return "\n".join(lines)


def compare_bench(current: dict, baseline: dict,
                  threshold: float = DEFAULT_THRESHOLD,
                  notes: list[str] | None = None) -> list[str]:
    """Return regression messages (empty list = pass).

    An entry regresses when its speedup dropped more than ``threshold``
    (relative) below the baseline's, or disappeared from the run. An
    entry the baseline lacks — the normal state right after a new bench
    lands — is NOT a failure: it is recorded only, with an explanatory
    line appended to ``notes`` (when given), and starts gating once the
    baseline is regenerated to include it. A baseline entry without a
    usable ``speedup`` likewise notes-and-skips instead of raising — a
    hand-edited or truncated baseline must degrade the gate, not crash
    it.
    """
    if baseline.get("schema") != current.get("schema"):
        return [
            f"bench schema changed ({baseline.get('schema')} -> "
            f"{current.get('schema')}); regenerate the baseline"]

    def note(text: str) -> None:
        if notes is not None:
            notes.append(text)

    base = {(e["name"], e["kind"]): e for e in baseline.get("entries", [])
            if "name" in e and "kind" in e}
    cur = {(e["name"], e["kind"]): e for e in current.get("entries", [])
           if "name" in e and "kind" in e}
    problems = []
    for key, be in sorted(base.items()):
        ce = cur.get(key)
        if ce is None:
            problems.append(f"{key[0]}/{key[1]}: missing from current run")
            continue
        base_speedup = be.get("speedup")
        cur_speedup = ce.get("speedup")
        if not isinstance(base_speedup, (int, float)) \
                or not isinstance(cur_speedup, (int, float)):
            note(f"{key[0]}/{key[1]}: baseline or current entry has no "
                 "usable speedup; not gated (regenerate the baseline)")
            continue
        floor = base_speedup * (1.0 - threshold)
        if cur_speedup < floor:
            problems.append(
                f"{key[0]}/{key[1]}: speedup {cur_speedup:.2f}x below "
                f"floor {floor:.2f}x (baseline {base_speedup:.2f}x, "
                f"threshold {threshold:.0%})")
    for key in sorted(set(cur) - set(base)):
        note(f"{key[0]}/{key[1]}: no baseline entry; recorded only "
             "(regenerate the baseline to gate it)")
    return problems
