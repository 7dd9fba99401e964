"""Benchmark harness plumbing: results directory, lab session, reporting.

Every benchmark regenerates paper tables from a sweep of synthesis points.
The harness routes those points through :mod:`repro.lab`:

* synthesis goes through the per-process artifacts of a session-wide
  content-addressed cache (``repro.lab.bench.synth``), so a warm rerun of
  the whole suite performs zero re-synthesis;
* sweep-shaped benchmarks fan their points out with :func:`lab_map`, which
  wraps :class:`repro.lab.executor.LabExecutor` — ``REPRO_LAB_JOBS``
  selects the worker count (default: all cores, capped at 4); results come
  back in submission order, so the rendered tables are byte-identical to a
  serial run;
* cache statistics from every worker are aggregated and written to
  ``results/lab_manifest.json``: ``resyntheses`` is the summed process
  misses, and ``warm`` (no process miss and no ``misses``, which count
  only the generated-simulator-source lookups) is the proof of full
  cache coverage.

Set ``REPRO_LAB_JOBS=1`` to force the serial inline path and
``REPRO_LAB_CACHE`` to relocate (or pre-seed) the cache directory.
"""

import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# the cache location must be exported before any pool worker is spawned
os.environ.setdefault(
    "REPRO_LAB_CACHE", os.path.join(RESULTS_DIR, ".lab-cache")
)

from repro.lab import bench as lab_bench  # noqa: E402
from repro.lab.executor import LabExecutor  # noqa: E402

JOBS = int(os.environ.get("REPRO_LAB_JOBS")
           or min(4, os.cpu_count() or 1))

_SESSION_TABLES: list[str] = []
# seeded with the classic five; any newer CacheStats fields (the
# per-process/lease counters) merge in on first sight
_SESSION_STATS = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0,
                  "errors": 0}
_SESSION_T0 = time.monotonic()


def save_and_print(name: str, text: str) -> None:
    """Write a reproduction table both to stdout and to results/<name>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    _SESSION_TABLES.append(text)
    print()
    print(text)


def lab_map(fn, items):
    """Evaluate picklable ``fn`` over ``items`` through the lab executor.

    Results come back in item order. Worker-side cache statistics are
    merged into the session totals (that is what the warm-cache manifest
    assertion keys on). A failed point re-raises its error — benchmarks
    are correctness tests, not best-effort sweeps.
    """
    executor = LabExecutor(jobs=JOBS)
    outcomes = executor.map(lab_bench.call_with_stats,
                            [(fn, item) for item in items])
    results = []
    for oc in outcomes:
        if not oc.ok:
            raise RuntimeError(
                f"benchmark point {items[oc.index]!r} failed: {oc.error}\n"
                f"{oc.detail}"
            )
        value, stats_delta = oc.value
        for key, delta in stats_delta.items():
            _SESSION_STATS[key] = _SESSION_STATS.get(key, 0) + delta
        results.append(value)
    return results


def write_lab_manifest() -> dict:
    """Persist the session's cache/executor statistics for inspection."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    manifest = {
        "jobs": JOBS,
        "cache_root": os.environ.get("REPRO_LAB_CACHE"),
        "cache": dict(_SESSION_STATS),
        "wall_time_s": round(time.monotonic() - _SESSION_T0, 3),
        "resyntheses": _SESSION_STATS.get("proc_misses", 0),
        "warm": (_SESSION_STATS["misses"] == 0
                 and _SESSION_STATS.get("proc_misses", 0) == 0),
    }
    path = os.path.join(RESULTS_DIR, "lab_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def pytest_terminal_summary(terminalreporter):
    """Echo every regenerated paper table into the terminal report, so a
    plain ``pytest benchmarks/ --benchmark-only`` run records them."""
    if not _SESSION_TABLES:
        return
    manifest = write_lab_manifest()
    terminalreporter.write_sep("=", "reproduced paper tables and figures")
    for text in _SESSION_TABLES:
        terminalreporter.write_line("")
        for line in text.split("\n"):
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_sep("-", "lab session")
    terminalreporter.write_line(
        f"jobs={manifest['jobs']} cache hits={manifest['cache']['hits']} "
        f"misses={manifest['cache']['misses']} "
        f"(re-syntheses this run: {manifest['resyntheses']}) "
        f"wall={manifest['wall_time_s']}s"
    )
