"""Declarative design-space sweeps: cross-products, execution, tables.

A sweep is the paper's evaluation shape — app x assertion level x
optimization variant — declared as data (:class:`SweepSpec.cross`),
evaluated in parallel through :class:`repro.lab.executor.LabExecutor` with
every point memoized in :class:`repro.lab.cache.SynthesisCache`, and
journaled point-by-point in :class:`repro.lab.store.ResultStore` so an
interrupted run resumes where it stopped. ``repro sweep`` (see
:mod:`repro.cli`) is the command-line front end.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.apps.csource import build_csource_app
from repro.core.synth import LEVELS, SynthesisOptions
from repro.diagnostics.bundle import bundle_name, write_bundle
from repro.errors import ReproError
from repro.lab.cache import SynthesisCache, cache_key, summary_key
from repro.lab.incremental import synthesize_incremental
from repro.lab.executor import LabExecutor, PointOutcome
from repro.lab.retry import RetryPolicy
from repro.lab.shard import ShardSpec
from repro.lab.store import ResultStore, RunHandle
from repro.platform.device import EP2S180, DeviceModel
from repro.platform.report import point_summary
from repro.platform.resources import estimate_image
from repro.platform.timing import estimate_fmax
from repro.utils.idgen import stable_fingerprint
from repro.utils.tables import render_table

__all__ = [
    "AppSpec",
    "SweepPoint",
    "SweepSpec",
    "SweepResult",
    "OPTION_VARIANTS",
    "build_app",
    "evaluate_point",
    "evaluate_point_cached",
    "run_sweep",
]


class SweepError(ReproError):
    """Raised for malformed sweep specifications."""

    code_prefix = "RPR-W"


# ---- the swept space --------------------------------------------------------


def _build_loopback(params: dict):
    from repro.apps.loopback import build_loopback

    return build_loopback(int(params.get("n", 4)),
                          data=params.get("data"))


def _build_edge(params: dict):
    from repro.apps.edge_detect import build_edge_app

    return build_edge_app(width=int(params.get("width", 16)),
                          height=int(params.get("height", 8)))


def _build_tripledes(params: dict):
    from repro.apps.tripledes import build_tdes_app

    text = params.get("text", "In-circuit!")
    if isinstance(text, str):
        text = text.encode()
    return build_tdes_app(text=text)


def _build_pipeline(params: dict):
    from repro.apps.pipeline import build_pipeline

    deltas = {int(i): int(d) for i, d in dict(params.get("edits", ())).items()}
    return build_pipeline(int(params.get("stages", 3)), deltas=deltas,
                          data=params.get("data"))


#: app-spec kinds resolvable inside sweep workers (everything here must be
#: buildable from plain JSON-able params, which keeps points picklable)
APP_BUILDERS: dict[str, Callable[[dict], object]] = {
    "loopback": _build_loopback,
    "edge": _build_edge,
    "tripledes": _build_tripledes,
    "pipeline": _build_pipeline,
    "csource": build_csource_app,
}

#: named SynthesisOptions variants for ablation axes
OPTION_VARIANTS: dict[str, SynthesisOptions] = {
    "default": SynthesisOptions(),
    "noshare": SynthesisOptions(share=False),
    "noreplicate": SynthesisOptions(replicate=False),
    "noparallelize": SynthesisOptions(parallelize=False),
    "multichecker": SynthesisOptions(multichecker=True),
}


@dataclass(frozen=True)
class AppSpec:
    """A picklable recipe for building an Application inside a worker."""

    kind: str
    params: tuple = ()  # sorted (key, value) pairs

    @classmethod
    def make(cls, kind: str, **params) -> "AppSpec":
        if kind not in APP_BUILDERS:
            raise SweepError(
                f"unknown app kind {kind!r}; have {sorted(APP_BUILDERS)}", code="RPR-W001")
        return cls(kind, tuple(sorted(params.items())))

    @property
    def label(self) -> str:
        shown = [f"{k}={v}" for k, v in self.params
                 if k not in ("source", "data", "feed", "pixels")]
        return self.kind + (f"({','.join(shown)})" if shown else "")

    def build(self):
        return build_app(self)


def build_app(spec: AppSpec):
    try:
        builder = APP_BUILDERS[spec.kind]
    except KeyError:
        raise SweepError(f"unknown app kind {spec.kind!r}", code="RPR-W002") from None
    return builder(dict(spec.params))


@dataclass(frozen=True)
class SweepPoint:
    """One (app, level, options) coordinate of the swept space."""

    point_id: str
    app: AppSpec
    level: str
    variant: str = "default"
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    device: DeviceModel = EP2S180


@dataclass
class SweepSpec:
    """A named, ordered collection of sweep points."""

    name: str
    points: list[SweepPoint]

    @classmethod
    def cross(
        cls,
        name: str,
        apps: list[AppSpec],
        levels: tuple[str, ...] = ("none", "optimized"),
        variants: tuple[str, ...] = ("default",),
        device: DeviceModel = EP2S180,
    ) -> "SweepSpec":
        """The paper-shaped cross product app x level x variant."""
        for lv in levels:
            if lv not in LEVELS:
                raise SweepError(f"bad assertion level {lv!r}", code="RPR-W003")
        points = []
        for app in apps:
            for lv in levels:
                for var in variants:
                    try:
                        options = OPTION_VARIANTS[var]
                    except KeyError:
                        raise SweepError(
                            f"unknown option variant {var!r}; "
                            f"have {sorted(OPTION_VARIANTS)}", code="RPR-W004") from None
                    pid = f"{app.label}/{lv}"
                    if var != "default":
                        pid += f"/{var}"
                    points.append(SweepPoint(
                        point_id=pid, app=app, level=lv, variant=var,
                        options=options, device=device,
                    ))
        return cls(name, points)

    def fingerprint(self) -> str:
        """Content id of the swept space (drives the resumable run id)."""
        fp = stable_fingerprint(
            self.name,
            tuple(
                (p.point_id, p.app.kind, p.app.params, p.level, p.variant,
                 p.options.key_parts(), repr(p.device))
                for p in self.points
            ),
        )
        return f"{fp:012x}"

    def run_id(self) -> str:
        return f"{self.name}-{self.fingerprint()}"


# ---- point evaluation (runs inside workers) ---------------------------------


def evaluate_point_cached(point: SweepPoint, cache: SynthesisCache) -> dict:
    """Evaluate one point through an existing cache handle.

    This is the in-process reuse seam: sweep workers call it with a fresh
    per-call handle (via :func:`evaluate_point`), while the serve daemon
    (:mod:`repro.serve`) calls it with one long-lived, thread-safe handle
    so every request shares the same warm statistics and disk objects.
    Returns a JSON-able record whose ``cache_stats`` field is the *delta*
    this evaluation contributed (for a fresh handle that equals the
    handle's full stats, so journaled records are unchanged).

    The point's cache entry is its :func:`point_summary` (under
    :func:`repro.lab.cache.summary_key`), not the image: the record reads
    nothing else. A miss is filled *incrementally*
    (:func:`repro.lab.incremental.synthesize_incremental` — only the
    processes whose per-process fingerprints miss are resynthesized) and
    under a fill lease (concurrent workers/daemons cold-starting the same
    point perform exactly one fill; the rest wait and read it). The
    record reports ``resyntheses``/``proc_hits``/``proc_misses``/
    ``partial_rebuild`` for the incremental work and counts a
    lease-followed fill as a ``cache_hit`` (the point was not
    synthesized here).
    """
    app = build_app(point.app)
    key = cache_key(app, point.level, point.options, point.device)
    t0 = time.monotonic()
    before = cache.stats.snapshot()
    inc_info: dict = {}

    def _produce():
        image, info = synthesize_incremental(
            app, point.level, options=point.options, cache=cache,
            device=point.device)
        inc_info.update(info)
        resources = estimate_image(image, point.device)
        fmax = estimate_fmax(image, point.device, resources=resources)
        return point_summary(image, point.device, resources=resources,
                             fmax=fmax)

    summary, filled = cache.get_or_fill(summary_key(key), _produce)
    record = {
        "point_id": point.point_id,
        "app": point.app.label,
        "level": point.level,
        "variant": point.variant,
        "key": key,
        "cache_hit": not filled,
        "resyntheses": inc_info.get("resyntheses", 0),
        "proc_hits": inc_info.get("proc_hits", 0),
        "proc_misses": inc_info.get("proc_misses", 0),
        "partial_rebuild": inc_info.get("partial_rebuild", False),
        "cache_stats": cache.stats.delta(before),
        "elapsed_s": round(time.monotonic() - t0, 4),
    }
    record.update(summary)
    return record


def evaluate_point(args: tuple) -> dict:
    """Worker entry: evaluate one point through the synthesis cache.

    ``args`` is ``(point, cache_root)``; module-level and tuple-packed so
    it pickles into ProcessPool workers. Returns a JSON-able record.
    """
    point, cache_root = args
    return evaluate_point_cached(point, SynthesisCache(cache_root))


def point_bundle_context(point: SweepPoint) -> tuple[dict, str | None]:
    """(bundle context, source text) for one point — everything
    :func:`repro.diagnostics.bundle.replay_bundle` needs to re-evaluate it.

    The C source (when the app is a ``csource`` spec) is pulled out of the
    params so the bundle stores it as ``source.c`` rather than inlined in
    the manifest.
    """
    params = dict(point.app.params)
    source = params.pop("source", None)
    context = {
        "point": {
            "point_id": point.point_id,
            "app_kind": point.app.kind,
            "app_params": sorted(params.items()),
            "level": point.level,
            "variant": point.variant,
            "options": dataclasses.asdict(point.options),
        },
    }
    return context, source


# ---- the driver -------------------------------------------------------------


@dataclass
class SweepResult:
    """Latest record per point, plus the run's manifest."""

    spec: SweepSpec
    run: RunHandle
    manifest: dict
    records: dict[str, dict]
    #: the points this run was responsible for (== spec.points unless the
    #: run was sharded with ``--shard K/N``)
    selected: list[SweepPoint] | None = None

    @property
    def points(self) -> list[SweepPoint]:
        return self.selected if self.selected is not None else \
            self.spec.points

    def rows(self) -> list[list[object]]:
        rows = []
        for p in self.points:
            rec = self.records.get(p.point_id)
            if rec is None:
                rows.append([p.point_id, "-", "-", "-", "-", "-", "missing"])
                continue
            if rec.get("status") != "ok":
                rows.append([p.point_id, "-", "-", "-", "-", "-",
                             rec.get("status", "failed")])
                continue
            rows.append([
                p.point_id,
                rec["processes"],
                rec["comb_aluts"],
                rec["registers"],
                rec["bram_bits"],
                f"{rec['fmax_mhz']:.1f}",
                "hit" if rec.get("cache_hit") else "miss",
            ])
        return rows

    def render(self) -> str:
        return render_table(
            ["point", "procs", "ALUTs", "regs", "BRAM bits", "Fmax MHz",
             "cache"],
            self.rows(),
            title=f"SWEEP {self.spec.name} "
                  f"({len(self.points)} points, run {self.run.run_id})",
        )

    @property
    def ok(self) -> bool:
        return self.manifest.get("counters", {}).get("failed", 0) == 0 and \
            len(self.records) == len(self.points)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    store_root: str = "lab-runs",
    cache_root: str | None = None,
    resume: bool = True,
    timeout: float | None = None,
    progress=None,
    shard: ShardSpec | None = None,
    retry: RetryPolicy | None = None,
) -> SweepResult:
    """Evaluate ``spec``, journaling every point; resumable and cached.

    ``progress`` is a writable text stream (defaults to stderr; pass
    ``False`` to silence). On KeyboardInterrupt the manifest is finalized
    with ``status="interrupted"`` before the exception propagates; a rerun
    with ``resume=True`` picks up the missing points. ``shard`` restricts
    the run to one deterministic K/N slice of the space (own run
    directory; fold slices back with :func:`repro.lab.shard.merge_runs`);
    ``retry`` configures the executor's fault tolerance.
    """
    out = sys.stderr if progress is None else progress
    store = ResultStore(store_root)
    selected = (shard.select(spec.points, key=lambda p: p.point_id)
                if shard is not None else list(spec.points))
    run_id = shard.run_id(spec.run_id()) if shard is not None \
        else spec.run_id()
    run = store.open_run(run_id)
    if not resume and run.results_path.exists():
        run.results_path.unlink()
    done = run.completed_ids() if resume else set()
    journal_corrupt = run.stats.corrupt
    pending = [p for p in selected if p.point_id not in done]

    counters = {
        "total": len(selected),
        "skipped_resume": len(selected) - len(pending),
        "done": 0,
        "failed": 0,
        "retried": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_corrupt": 0,
        "journal_corrupt": journal_corrupt,
        # incremental-synthesis work: processes actually rebuilt vs
        # per-process artifacts reused, and fill-lease contention
        "resyntheses": 0,
        "proc_hits": 0,
        "proc_misses": 0,
        "partial_rebuilds": 0,
        "lease_waits": 0,
        "lease_takeovers": 0,
    }
    bundle_paths: list[str] = []
    executor = LabExecutor(jobs=jobs, timeout=timeout, retry=retry)

    def manifest(status: str, wall: float) -> dict:
        counters["retried"] = executor.stats.retries
        return {
            "kind": "sweep",
            "run_id": run.run_id,
            "name": spec.name,
            "sweep": spec.name,
            "fingerprint": spec.fingerprint(),
            "status": status,
            "jobs": jobs,
            "shard": shard.as_dict() if shard is not None else None,
            "cache_root": str(cache_root) if cache_root else None,
            "store_root": str(store_root),
            "counters": dict(counters),
            "executor": executor.stats.as_dict(),
            "retry": retry.as_dict() if retry is not None else None,
            "breaker_open": retry.breaker_open if retry is not None
            else False,
            "bundles": list(bundle_paths),
            "wall_time_s": round(wall, 3),
            "points": [p.point_id for p in selected],
            "spec_points": len(spec.points),
        }

    def say(text: str) -> None:
        if out:
            print(text, file=out, flush=True)

    shard_note = f" [shard {shard.index}/{shard.total}]" \
        if shard is not None else ""
    say(f"sweep {spec.name}{shard_note}: {len(pending)}/{len(selected)} "
        f"points to run ({counters['skipped_resume']} already done), "
        f"jobs={jobs}")
    if journal_corrupt:
        say(f"sweep {spec.name}: WARNING: skipped {journal_corrupt} "
            f"torn/corrupt journal line"
            f"{'' if journal_corrupt == 1 else 's'} in "
            f"{run.results_path} (a previous run died mid-write; the "
            "affected points re-run)")
    t0 = time.monotonic()
    run.write_manifest(manifest("running", 0.0))

    def on_result(oc: PointOutcome) -> None:
        point = pending[oc.index]
        if oc.ok:
            record = dict(oc.value)
            record["status"] = "ok"
            record["attempts"] = oc.attempts
            counters["done"] += 1
            if record.get("cache_hit"):
                counters["cache_hits"] += 1
            else:
                counters["cache_misses"] += 1
            cs = record.get("cache_stats") or {}
            corrupt = cs.get("corrupt", 0)
            counters["cache_corrupt"] += corrupt
            counters["resyntheses"] += record.get("resyntheses", 0)
            counters["proc_hits"] += record.get("proc_hits", 0)
            counters["proc_misses"] += record.get("proc_misses", 0)
            if record.get("partial_rebuild"):
                counters["partial_rebuilds"] += 1
            counters["lease_waits"] += cs.get("lease_waits", 0)
            counters["lease_takeovers"] += cs.get("lease_takeovers", 0)
            note = "hit" if record.get("cache_hit") else "miss"
            if corrupt:
                note += f", {corrupt} corrupt cache entr" \
                        + ("y evicted" if corrupt == 1 else "ies evicted")
        else:
            record = {
                "point_id": point.point_id,
                "status": oc.status,
                "error": oc.error,
                "attempts": oc.attempts,
                "diagnostics": list(oc.diagnostics),
            }
            counters["failed"] += 1
            note = oc.error
            context, source = point_bundle_context(point)
            bdir = write_bundle(
                run.dir / "bundles" / bundle_name(point.point_id),
                "sweep", list(oc.diagnostics),
                context=context, source=source,
            )
            record["bundle"] = str(bdir)
            bundle_paths.append(str(bdir))
            note += f" [bundle: {bdir}]"
        run.append(record)
        finished = counters["done"] + counters["failed"]
        say(f"[{finished + counters['skipped_resume']}/{counters['total']}] "
            f"{point.point_id}: {oc.status} ({note})")

    try:
        executor.map(evaluate_point,
                     [(p, cache_root) for p in pending],
                     on_result=on_result)
    except KeyboardInterrupt:
        run.write_manifest(manifest("interrupted", time.monotonic() - t0))
        say(f"sweep {spec.name}: interrupted after "
            f"{counters['done']} points; rerun to resume")
        raise

    wall = time.monotonic() - t0
    status = "completed" if counters["failed"] == 0 else "completed-with-failures"
    run.write_manifest(manifest(status, wall))
    say(f"sweep {spec.name}: points total={counters['total']} "
        f"done={counters['done']} failed={counters['failed']} "
        f"skipped={counters['skipped_resume']}, cache "
        f"hits={counters['cache_hits']} misses={counters['cache_misses']}, "
        f"wall time {wall:.2f}s")
    say(f"sweep {spec.name}: incremental resyntheses="
        f"{counters['resyntheses']} proc_hits={counters['proc_hits']} "
        f"proc_misses={counters['proc_misses']} "
        f"partial_rebuilds={counters['partial_rebuilds']} "
        f"lease_waits={counters['lease_waits']} "
        f"lease_takeovers={counters['lease_takeovers']}")
    if counters["cache_corrupt"]:
        say(f"sweep {spec.name}: WARNING: evicted "
            f"{counters['cache_corrupt']} corrupt cache "
            f"entr{'y' if counters['cache_corrupt'] == 1 else 'ies'} "
            f"under {cache_root} (affected points re-synthesized)")
    if bundle_paths:
        say(f"sweep {spec.name}: {len(bundle_paths)} failure bundle(s) "
            f"written; inspect with 'repro replay <bundle>'")

    latest: dict[str, dict] = {}
    for rec in run.records():
        pid = rec.get("point_id")
        if pid is not None:
            latest[pid] = rec
    return SweepResult(spec=spec, run=run, manifest=run.read_manifest(),
                       records=latest, selected=selected)
