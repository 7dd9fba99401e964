"""Job kinds the daemon executes, and how each is fingerprinted.

A job arrives as plain JSON — ``{"kind": ..., "params": {...}}`` — and is
normalized here into a :class:`JobSpec`, given a **content fingerprint**
(the coalescing key), and dispatched onto the existing drivers:

============  ==========================================================
kind          executes
============  ==========================================================
``synth``     one design point through :func:`evaluate_point_cached`,
              sharing the daemon's warm thread-safe cache handle
``sweep``     :func:`repro.lab.sweep.run_sweep` (journaled + resumable)
``campaign``  :func:`repro.faults.campaign.run_campaign`
``difftest``  :func:`repro.difftest.runner.run_difftest_campaign`
``sleep``     nothing — holds a worker slot; load/admission test probe
============  ==========================================================

Fingerprints reuse the content keys the rest of the lab already computes:
a ``synth`` job's fingerprint **is** :func:`repro.lab.cache.cache_key`
for that point, so "the coalescer saw these as identical" and "the cache
would have deduped them" are the same statement. Sweep and difftest jobs
reuse their spec fingerprints (which also drive resumable run ids).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.synth import LEVELS
from repro.errors import ServeError
from repro.lab.cache import SynthesisCache, cache_key
from repro.lab.sweep import (
    OPTION_VARIANTS,
    AppSpec,
    SweepPoint,
    SweepSpec,
    build_app,
    evaluate_point_cached,
)
from repro.serve import protocol
from repro.utils.idgen import stable_fingerprint

__all__ = ["JobContext", "JobSpec", "job_fingerprint", "parse_job",
           "run_job"]


@dataclass(frozen=True)
class JobSpec:
    """One validated job: a kind plus its JSON-able params."""

    kind: str
    params: dict = field(default_factory=dict)


def parse_job(obj: dict) -> JobSpec:
    """Normalize ``{"kind", "params"}``; raises :class:`ServeError`."""
    kind = obj.get("kind")
    if kind not in protocol.JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r}; have "
            f"{', '.join(protocol.JOB_KINDS)}", code="RPR-V001")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ServeError("job params must be an object", code="RPR-V001")
    return JobSpec(kind=kind, params=params)


# ---- param -> spec helpers --------------------------------------------------


def _app_spec(obj, what: str) -> AppSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ServeError(
            f"{what} needs an app object {{'kind': ..., 'params': {{...}}}}",
            code="RPR-V001")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ServeError(f"{what} app params must be an object",
                         code="RPR-V001")
    return AppSpec.make(obj["kind"], **params)


def _level(params: dict) -> str:
    level = params.get("level", "optimized")
    if level not in LEVELS:
        raise ServeError(
            f"bad assertion level {level!r}; have {', '.join(LEVELS)}",
            code="RPR-V001")
    return level


def _variant(params: dict) -> str:
    variant = params.get("variant", "default")
    if variant not in OPTION_VARIANTS:
        raise ServeError(
            f"unknown option variant {variant!r}; have "
            f"{sorted(OPTION_VARIANTS)}", code="RPR-V001")
    return variant


def _synth_point(params: dict) -> SweepPoint:
    app = _app_spec(params.get("app"), "synth job")
    level = _level(params)
    variant = _variant(params)
    return SweepPoint(
        point_id=f"{app.label}/{level}" +
                 (f"/{variant}" if variant != "default" else ""),
        app=app, level=level, variant=variant,
        options=OPTION_VARIANTS[variant],
    )


def _sweep_spec(params: dict) -> SweepSpec:
    apps = params.get("apps")
    if not isinstance(apps, list) or not apps:
        raise ServeError("sweep job needs a non-empty apps list",
                         code="RPR-V001")
    return SweepSpec.cross(
        str(params.get("name", "serve-sweep")),
        [_app_spec(a, "sweep job") for a in apps],
        levels=tuple(params.get("levels", ("none", "optimized"))),
        variants=tuple(params.get("variants", ("default",))),
    )


def _difftest_spec(params: dict):
    from repro.difftest.generator import GenConfig
    from repro.difftest.runner import DifftestSpec

    seeds = params.get("seeds", (0, 10))
    if (not isinstance(seeds, (list, tuple)) or len(seeds) != 2):
        raise ServeError("difftest seeds must be [lo, hi]",
                         code="RPR-V001")
    gen = GenConfig(max_stmts=int(params.get("max_stmts", 8)))
    return DifftestSpec(
        name=str(params.get("name", "serve-difftest")),
        seeds=(int(seeds[0]), int(seeds[1])),
        gen=gen,
        max_cycles=int(params.get("max_cycles", 200_000)),
        sim_backend=str(params.get("sim_backend", "interp")),
    )


# ---- fingerprinting ---------------------------------------------------------


def job_fingerprint(spec: JobSpec) -> str:
    """The coalescing key: identical work -> identical fingerprint.

    Validates the params as a side effect, so a malformed job is refused
    (RPR-V001) before it consumes any admission budget.
    """
    if spec.kind == "synth":
        point = _synth_point(spec.params)
        return cache_key(build_app(point.app), point.level, point.options,
                         point.device)
    if spec.kind == "sweep":
        return f"sweep-{_sweep_spec(spec.params).fingerprint()}"
    if spec.kind == "difftest":
        return f"difftest-{_difftest_spec(spec.params).fingerprint()}"
    # campaign and sleep: a stable hash over the normalized params
    fp = stable_fingerprint(
        "serve-job", spec.kind, tuple(sorted(
            (str(k), str(v)) for k, v in spec.params.items())))
    return f"{spec.kind}-{fp:012x}"


# ---- execution --------------------------------------------------------------


@dataclass
class JobContext:
    """What every job execution shares: the daemon's warm cache handle,
    the roots journaled runs land under, and the inner parallelism each
    driver may use (kept at 1 by default — the daemon's thread pool is
    the outer level of parallelism)."""

    cache: SynthesisCache
    cache_root: str | None = None
    store_root: str = "serve-runs"
    jobs: int = 1


def run_job(spec: JobSpec, ctx: JobContext) -> dict:
    """Execute one job; returns its JSON-able result record."""
    if spec.kind == "synth":
        return evaluate_point_cached(_synth_point(spec.params), ctx.cache)

    if spec.kind == "sweep":
        from repro.lab.sweep import run_sweep

        result = run_sweep(
            _sweep_spec(spec.params), jobs=ctx.jobs,
            store_root=ctx.store_root, cache_root=ctx.cache_root,
            progress=False,
        )
        return protocol.sweep_summary(result)

    if spec.kind == "campaign":
        from repro.faults.campaign import run_campaign

        params = spec.params
        result = run_campaign(
            target=str(params.get("app", "loopback")),
            levels=tuple(params.get("levels", ("none", "optimized"))),
            seed=int(params.get("seed", 0)),
            count=int(params.get("count", 4)),
            nabort=bool(params.get("nabort", False)),
            jobs=ctx.jobs,
            cache_root=ctx.cache_root,
            store_root=ctx.store_root,
        )
        return protocol.campaign_summary(result)

    if spec.kind == "difftest":
        from repro.difftest.runner import run_difftest_campaign

        result = run_difftest_campaign(
            _difftest_spec(spec.params), jobs=ctx.jobs,
            store_root=ctx.store_root, cache_root=ctx.cache_root,
            progress=False,
        )
        return protocol.difftest_summary(result)

    if spec.kind == "sleep":
        seconds = float(spec.params.get("seconds", 0.1))
        time.sleep(seconds)
        return {"kind": "sleep", "slept_s": seconds,
                "token": spec.params.get("token")}

    raise ServeError(f"unknown job kind {spec.kind!r}",
                     code="RPR-V001")  # pragma: no cover - parse_job guards
