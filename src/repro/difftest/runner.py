"""Differential-testing campaigns over the repro.lab infrastructure.

A campaign is a seed range evaluated in parallel through
:class:`repro.lab.executor.LabExecutor` (crash-isolated workers), with
every seed's verdict journaled in the :mod:`repro.lab.store` JSONL result
store (so an interrupted campaign resumes) and compilation memoized in
:class:`repro.lab.cache.SynthesisCache`. Diverging seeds are reduced
in-worker and saved as standalone JSON seed files under the run
directory's ``seeds/``, replayable with ``repro difftest --replay``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.diagnostics.bundle import bundle_name, write_bundle
from repro.difftest.generator import GenConfig, generate
from repro.difftest.oracle import (
    DiffReport,
    DifftestError,
    divergence_diagnostics,
    run_difftest,
)
from repro.difftest.reduce import reduce_program, same_bug
from repro.lab.cache import SynthesisCache
from repro.lab.executor import LabExecutor, PointOutcome
from repro.lab.store import ResultStore, RunHandle
from repro.utils.idgen import stable_fingerprint
from repro.utils.tables import render_table

__all__ = [
    "DifftestResult",
    "DifftestSpec",
    "evaluate_seed",
    "replay_seed_file",
    "run_difftest_campaign",
    "write_divergence_bundle",
]

SEED_SCHEMA = 1


@dataclass(frozen=True)
class DifftestSpec:
    """One campaign: a half-open seed range plus generator knobs."""

    name: str = "difftest"
    seeds: tuple[int, int] = (0, 50)
    gen: GenConfig = field(default_factory=GenConfig)
    max_cycles: int = 200_000
    reduce: bool = True
    reduce_checks: int = 300
    #: "interp" runs the classic three-way oracle; "compiled" adds the
    #: :mod:`repro.simc` compiled cycle model as a strict lockstep leg
    #: and a quiet-stretch leg
    sim_backend: str = "interp"

    def seed_list(self) -> list[int]:
        lo, hi = self.seeds
        return list(range(lo, hi))

    def fingerprint(self) -> str:
        fp = stable_fingerprint("difftest", self.name, self.seeds,
                                self.gen.key_parts(), self.max_cycles,
                                self.sim_backend)
        return f"{fp:012x}"

    def run_id(self) -> str:
        return f"{self.name}-{self.fingerprint()}"


# ---- worker (runs in ProcessPool children; must stay picklable) -------------


def evaluate_seed(args: tuple) -> dict:
    """Evaluate one seed; returns a JSON-able record.

    ``args`` is ``(spec, seed, cache_root)``. A diverging seed still
    returns status "ok" at the store level (the *evaluation* succeeded;
    resume must not retry it) with ``divergent: true`` and the full
    reproducer payload in the record.
    """
    spec, seed, cache_root = args
    cache = SynthesisCache(cache_root)
    prog = generate(seed, spec.gen)
    t0 = time.monotonic()
    report = run_difftest(
        prog.render(), prog.feed, filename=f"seed{seed}.c",
        max_cycles=spec.max_cycles, cache=cache,
        sim_backend=spec.sim_backend,
    )
    record = {
        "point_id": f"seed-{seed}",
        "seed": seed,
        "stmts": prog.stmt_count(),
        "feed_len": len(prog.feed),
        "assertions": report.assertions,
        "cm_cycles": report.cm_cycles,
        "rtl_cycles": report.rtl_cycles,
        "divergent": not report.ok,
        "cache_hit": cache.stats.hits > 0,
        "sim_backend": spec.sim_backend,
        "elapsed_s": round(time.monotonic() - t0, 4),
    }
    if report.ok:
        return record

    record["divergence"] = report.divergence.as_dict()
    # which program record["divergence"] localizes — the failure bundle
    # must pair the divergence with the program that produced it
    record["divergence_program"] = "original"
    record["source"] = prog.render()
    record["feed"] = list(prog.feed)
    if spec.reduce:
        original = report.divergence

        def still_fails(candidate) -> bool:
            r = run_difftest(candidate.render(), candidate.feed,
                             filename=f"seed{seed}-reduce.c",
                             max_cycles=spec.max_cycles, cache=cache,
                             sim_backend=spec.sim_backend)
            return same_bug(original, r.divergence)

        reduced = reduce_program(prog, still_fails,
                                 max_checks=spec.reduce_checks)
        final = run_difftest(reduced.render(), reduced.feed,
                             filename=f"seed{seed}-reduced.c",
                             max_cycles=spec.max_cycles, cache=cache,
                             sim_backend=spec.sim_backend)
        record["reduced_source"] = reduced.render()
        record["reduced_feed"] = list(reduced.feed)
        record["reduced_stmts"] = reduced.stmt_count()
        # the reduced program's localization is the one worth reading
        if final.divergence is not None:
            record["divergence"] = final.divergence.as_dict()
            record["divergence_program"] = "reduced"
    return record


def write_divergence_bundle(run: RunHandle, spec: DifftestSpec,
                            record: dict) -> Path:
    """Persist one diverging seed as a replayable failure bundle.

    Pairs the recorded divergence with the program that produced it (the
    reduced one when reduction re-confirmed the bug), so ``repro replay``
    re-runs exactly that program and compares diagnostics byte for byte.
    """
    if record.get("divergence_program") == "reduced":
        source, feed = record["reduced_source"], record["reduced_feed"]
    else:
        source, feed = record["source"], record["feed"]
    return write_bundle(
        run.dir / "bundles" / bundle_name(record["point_id"]),
        "difftest",
        divergence_diagnostics(record.get("divergence")),
        context={
            "seed": record["seed"],
            "feed": list(feed or []),
            "filename": f"seed{record['seed']}.c",
            "max_cycles": spec.max_cycles,
        },
        source=source,
    )


def write_seed_file(run: RunHandle, record: dict) -> Path:
    """Persist one diverging seed as a standalone replayable JSON file."""
    seeds_dir = run.dir / "seeds"
    seeds_dir.mkdir(exist_ok=True)
    payload = {
        "schema": SEED_SCHEMA,
        "seed": record["seed"],
        "divergence": record.get("divergence"),
        "source": record.get("source"),
        "feed": record.get("feed"),
    }
    for k in ("reduced_source", "reduced_feed"):
        if k in record:
            payload[k] = record[k]
    path = seeds_dir / f"seed-{record['seed']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay_seed_file(path: str, max_cycles: int = 200_000,
                     reduced: bool = True) -> DiffReport:
    """Re-run the program stored in a seed file through the oracle."""
    data = json.loads(Path(path).read_text())
    if reduced and data.get("reduced_source"):
        source, feed = data["reduced_source"], data["reduced_feed"]
    else:
        source, feed = data.get("source"), data.get("feed")
    if not source:
        raise DifftestError(f"{path}: no program source in seed file", code="RPR-Y007")
    return run_difftest(source, feed or [], filename=Path(path).name,
                        max_cycles=max_cycles)


# ---- the driver -------------------------------------------------------------


@dataclass
class DifftestResult:
    """Per-seed records plus the campaign manifest."""

    spec: DifftestSpec
    run: RunHandle
    manifest: dict
    records: dict[str, dict]
    seed_files: list[str] = field(default_factory=list)
    #: the seeds this run was responsible for (== spec.seed_list() unless
    #: the run was sharded with ``--shard K/N``)
    selected: list[int] | None = None

    @property
    def seeds(self) -> list[int]:
        return self.selected if self.selected is not None else \
            self.spec.seed_list()

    @property
    def divergent(self) -> list[dict]:
        return [r for r in self.records.values() if r.get("divergent")]

    @property
    def failed(self) -> list[dict]:
        return [r for r in self.records.values()
                if r.get("status") != "ok"]

    @property
    def ok(self) -> bool:
        return (not self.divergent and not self.failed
                and len(self.records) == len(self.seeds))

    def render(self) -> str:
        rows = []
        for rec in sorted(self.records.values(),
                          key=lambda r: r.get("seed", -1)):
            if rec.get("status") != "ok":
                rows.append([rec.get("point_id", "?"), "-", "-",
                             rec.get("status", "failed"),
                             str(rec.get("error", ""))[:60]])
            elif rec.get("divergent"):
                d = rec.get("divergence", {})
                what = (f"{d.get('phase', '?')}/{d.get('kind', '?')}"
                        + (f" @cycle {d['cycle']}" if "cycle" in d else "")
                        + (f" state {d['state']}" if "state" in d else "")
                        + (f" signal {d['signal']}" if "signal" in d else ""))
                rows.append([rec["point_id"], rec["stmts"],
                             rec.get("cm_cycles", "-"), "DIVERGENT", what])
        n = len(self.seeds)
        ndiv, nfail = len(self.divergent), len(self.failed)
        title = (f"DIFFTEST {self.spec.name} ({n} seeds, run "
                 f"{self.run.run_id}): {ndiv} divergent, {nfail} failed")
        if not rows:
            return f"{title}\nall {len(self.records)} evaluated seeds agree " \
                   "across interpreter / cycle model / RTL"
        return render_table(["seed", "stmts", "cycles", "status", "where"],
                            rows, title=title)


def run_difftest_campaign(
    spec: DifftestSpec,
    jobs: int = 1,
    store_root: str = "lab-runs",
    cache_root: str | None = None,
    resume: bool = True,
    timeout: float | None = None,
    progress=None,
    shard=None,
    retry=None,
) -> DifftestResult:
    """Evaluate every seed in ``spec``; journaled, resumable, cached.

    ``shard`` (:class:`repro.lab.shard.ShardSpec`) restricts the run to a
    deterministic K/N slice of the seed range in its own run directory;
    ``repro merge`` folds slices back together. ``retry`` configures
    executor fault tolerance.
    """
    out = sys.stderr if progress is None else progress
    store = ResultStore(store_root)
    all_seeds = spec.seed_list()
    selected = (shard.select(all_seeds, key=lambda s: f"seed-{s}")
                if shard is not None else all_seeds)
    run_id = shard.run_id(spec.run_id()) if shard is not None \
        else spec.run_id()
    run = store.open_run(run_id)
    if not resume and run.results_path.exists():
        run.results_path.unlink()
    done = run.completed_ids() if resume else set()
    journal_corrupt = run.stats.corrupt
    pending = [s for s in selected if f"seed-{s}" not in done]

    counters = {
        "total": len(selected),
        "skipped_resume": len(selected) - len(pending),
        "done": 0,
        "failed": 0,
        "retried": 0,
        "divergent": 0,
        "journal_corrupt": journal_corrupt,
    }
    seed_files: list[str] = []
    bundle_paths: list[str] = []
    executor = LabExecutor(jobs=jobs, timeout=timeout, retry=retry)

    def manifest(status: str, wall: float) -> dict:
        counters["retried"] = executor.stats.retries
        return {
            "kind": "difftest",
            "run_id": run.run_id,
            "name": spec.name,
            "difftest": spec.name,
            "fingerprint": spec.fingerprint(),
            "status": status,
            "jobs": jobs,
            "shard": shard.as_dict() if shard is not None else None,
            "seeds": list(spec.seeds),
            "cache_root": str(cache_root) if cache_root else None,
            "store_root": str(store_root),
            "counters": dict(counters),
            "executor": executor.stats.as_dict(),
            "retry": retry.as_dict() if retry is not None else None,
            "seed_files": list(seed_files),
            "bundles": list(bundle_paths),
            "wall_time_s": round(wall, 3),
        }

    def say(text: str) -> None:
        if out:
            print(text, file=out, flush=True)

    shard_note = f" [shard {shard.index}/{shard.total}]" \
        if shard is not None else ""
    say(f"difftest {spec.name}{shard_note}: {len(pending)}/"
        f"{counters['total']} seeds to run "
        f"({counters['skipped_resume']} already done), jobs={jobs}")
    if journal_corrupt:
        say(f"difftest {spec.name}: WARNING: skipped {journal_corrupt} "
            f"torn/corrupt journal line(s) in {run.results_path}; "
            "affected seeds re-run")
    t0 = time.monotonic()
    run.write_manifest(manifest("running", 0.0))

    def on_result(oc: PointOutcome) -> None:
        seed = pending[oc.index]
        if oc.ok:
            record = dict(oc.value)
            record["status"] = "ok"
            record["attempts"] = oc.attempts
            counters["done"] += 1
            if record.get("divergent"):
                counters["divergent"] += 1
                path = write_seed_file(run, record)
                seed_files.append(str(path))
                bdir = write_divergence_bundle(run, spec, record)
                record["bundle"] = str(bdir)
                bundle_paths.append(str(bdir))
                d = record.get("divergence", {})
                note = f"DIVERGENT {d.get('phase')}/{d.get('kind')}"
            else:
                note = f"agree ({record.get('cm_cycles')} cycles)"
        else:
            record = {"point_id": f"seed-{seed}", "seed": seed,
                      "status": oc.status, "error": oc.error,
                      "attempts": oc.attempts,
                      "diagnostics": list(oc.diagnostics)}
            counters["failed"] += 1
            note = oc.error
        run.append(record)
        finished = counters["done"] + counters["failed"]
        say(f"[{finished + counters['skipped_resume']}/{counters['total']}] "
            f"seed {seed}: {oc.status} ({note})")

    try:
        executor.map(evaluate_seed,
                     [(spec, s, cache_root) for s in pending],
                     on_result=on_result)
    except KeyboardInterrupt:
        run.write_manifest(manifest("interrupted", time.monotonic() - t0))
        say(f"difftest {spec.name}: interrupted after {counters['done']} "
            "seeds; rerun to resume")
        raise

    wall = time.monotonic() - t0
    status = "completed" if not counters["failed"] and \
        not counters["divergent"] else "completed-with-findings"
    run.write_manifest(manifest(status, wall))
    say(f"difftest {spec.name}: seeds total={counters['total']} "
        f"done={counters['done']} divergent={counters['divergent']} "
        f"failed={counters['failed']} skipped={counters['skipped_resume']}, "
        f"wall time {wall:.2f}s")

    latest: dict[str, dict] = {}
    for rec in run.records():
        pid = rec.get("point_id")
        if pid is not None:
            latest[pid] = rec
    # resumed diverging seeds keep their seed files from the earlier run
    for rec in latest.values():
        if rec.get("divergent"):
            path = run.dir / "seeds" / f"seed-{rec['seed']}.json"
            if path.exists() and str(path) not in seed_files:
                seed_files.append(str(path))
    return DifftestResult(spec=spec, run=run, manifest=run.read_manifest(),
                          records=latest, seed_files=sorted(seed_files),
                          selected=selected)
