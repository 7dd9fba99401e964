"""Self-contained, replayable failure bundles.

When a sweep point, campaign run, difftest seed or plain ``repro synth``
fails, the orchestration layer writes a *failure bundle*: a directory
holding everything needed to reproduce the failure on another machine —
the (preprocessed-input) C source, the synthesis options / seed / fault
configuration that selected the failing point, and the structured
diagnostics that were observed. ``repro replay <bundle>`` re-runs the
bundled configuration and compares the fresh diagnostics against the
recorded ones **byte for byte**; exit status 0 means the failure
reproduced exactly.

Layout::

    <bundle>/
      manifest.json      {schema, kind, context}
      diagnostics.json   {"diagnostics": [...]}  (stable JSON)
      source.c           present when the failure has a program attached

``kind`` selects the replay recipe: ``synth`` (frontend+synthesis of the
bundled source), ``sweep`` (one rebuilt sweep point), ``campaign`` (one
regenerated fault scenario at one assertion level) or ``difftest`` (one
three-way differential run).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.diagnostics.bridge import diagnostics_from_exception
from repro.errors import ReproError

__all__ = [
    "BUNDLE_SCHEMA",
    "FailureBundle",
    "ReplayResult",
    "bundle_name",
    "read_bundle",
    "replay_bundle",
    "write_bundle",
]

BUNDLE_SCHEMA = 1
MANIFEST_NAME = "manifest.json"
DIAGNOSTICS_NAME = "diagnostics.json"
SOURCE_NAME = "source.c"

KINDS = ("synth", "sweep", "campaign", "difftest")

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def bundle_name(point_id: str) -> str:
    """A filesystem-safe directory name for a point id."""
    return _UNSAFE_RE.sub("_", point_id).strip("_") or "point"


def _dump(obj) -> str:
    """The one canonical JSON spelling used on both sides of a replay
    comparison — byte-identical iff the structures are equal."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass
class FailureBundle:
    """An in-memory view of one bundle directory."""

    path: Path
    kind: str
    context: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    source: str | None = None

    def diagnostics_json(self) -> str:
        return _dump({"diagnostics": self.diagnostics})


@dataclass
class ReplayResult:
    """Outcome of re-running a bundle."""

    bundle: FailureBundle
    expected: str     # recorded diagnostics.json text
    actual: str       # freshly produced diagnostics, same canonical form
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the failure reproduced bit-identically."""
        return self.expected == self.actual


def write_bundle(
    directory: str | Path,
    kind: str,
    diagnostics: list,
    context: dict | None = None,
    source: str | None = None,
) -> Path:
    """Write one bundle; returns its directory path."""
    if kind not in KINDS:
        raise ReproError(f"unknown bundle kind {kind!r}; have {KINDS}",
                         code="RPR-E010")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_NAME).write_text(_dump({
        "schema": BUNDLE_SCHEMA,
        "kind": kind,
        "context": context or {},
        "has_source": source is not None,
    }))
    (path / DIAGNOSTICS_NAME).write_text(_dump({"diagnostics": diagnostics}))
    if source is not None:
        (path / SOURCE_NAME).write_text(source)
    return path


def read_bundle(path: str | Path) -> FailureBundle:
    """Load a bundle directory written by :func:`write_bundle`."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise ReproError(f"{path}: not a failure bundle (no {MANIFEST_NAME})",
                         code="RPR-E011")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ReproError(
            f"{path}: bundle schema {manifest.get('schema')!r} "
            f"!= supported {BUNDLE_SCHEMA}", code="RPR-E012")
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise ReproError(f"{path}: unknown bundle kind {kind!r}",
                         code="RPR-E013")
    diags = json.loads((path / DIAGNOSTICS_NAME).read_text())["diagnostics"] \
        if (path / DIAGNOSTICS_NAME).exists() else []
    source = (path / SOURCE_NAME).read_text() \
        if (path / SOURCE_NAME).exists() else None
    return FailureBundle(path=path, kind=kind,
                         context=manifest.get("context") or {},
                         diagnostics=diags, source=source)


# ---- replay recipes ---------------------------------------------------------


def _replay_synth(bundle: FailureBundle) -> list:
    from repro.diagnostics.engine import synth_diagnostics

    ctx = bundle.context
    _check, diags = synth_diagnostics(
        bundle.source or "",
        filename=ctx.get("filename", "<source>"),
        defines=ctx.get("defines"),
        level=ctx.get("level", "optimized"),
        options=ctx.get("options"),
        feed=ctx.get("feed"),
    )
    return diags


def _replay_sweep(bundle: FailureBundle) -> list:
    from repro.core.synth import SynthesisOptions, synthesize
    from repro.lab.sweep import AppSpec, build_app
    from repro.platform.resources import estimate_image
    from repro.platform.timing import estimate_fmax

    ctx = bundle.context
    point = ctx.get("point", {})
    params = {k: v for k, v in point.get("app_params", [])}
    if bundle.source is not None:
        params["source"] = bundle.source
    params = {k: tuple(v) if isinstance(v, list) else v
              for k, v in params.items()}
    try:
        # mirror repro.lab.sweep.evaluate_point, minus the cache
        app = build_app(AppSpec.make(point.get("app_kind", "csource"),
                                     **params))
        options = SynthesisOptions(**(point.get("options") or {}))
        image = synthesize(app, assertions=point.get("level", "optimized"),
                           options=options)
        resources = estimate_image(image)
        estimate_fmax(image, resources=resources)
    except Exception as exc:
        return diagnostics_from_exception(exc)
    return []


def _replay_campaign(bundle: FailureBundle) -> list:
    from repro.core.synth import SynthesisOptions
    from repro.faults.campaign import (
        _run_group,
        builtin_targets,
        generate_scenarios,
    )
    from repro.runtime.swsim import software_sim

    ctx = bundle.context
    targets = builtin_targets()
    name = ctx.get("target")
    if name not in targets:
        raise ReproError(
            f"bundle names campaign target {name!r}, which is not a "
            f"builtin; have {sorted(targets)}", code="RPR-E015")
    target = targets[name]
    app = target.build()
    sim = software_sim(app)
    golden = {n: list(words) for n, words in sim.outputs.items()}
    scenarios = generate_scenarios(app, seed=int(ctx.get("seed", 0)),
                                   count=int(ctx.get("count", 8)))
    wanted = [s for s in scenarios if s.name == ctx.get("scenario")]
    if not wanted:
        raise ReproError(
            f"scenario {ctx.get('scenario')!r} not regenerated by seed "
            f"{ctx.get('seed')} — bundle and code out of sync",
            code="RPR-E014")
    options = SynthesisOptions(**(ctx.get("options") or {})) \
        if ctx.get("options") is not None else None
    cell = (wanted[0], ctx.get("level", "optimized"))
    try:
        [outcome] = _run_group((target.watchdog, app, [cell], golden,
                                bool(ctx.get("nabort", False)), options,
                                None, 1))
    except Exception as exc:
        return diagnostics_from_exception(exc)
    return list(outcome.diagnostics)


def _faults_from_context(specs) -> tuple:
    """Rebuild translation-fault objects from ``[name, kwargs]`` pairs."""
    import repro.faults.ir as fault_ir

    faults = []
    for name, kwargs in specs or []:
        cls = getattr(fault_ir, str(name), None)
        if cls is None:
            raise ReproError(f"unknown translation fault {name!r} in bundle",
                             code="RPR-E016")
        faults.append(cls(**kwargs))
    return tuple(faults)


def _replay_difftest(bundle: FailureBundle) -> list:
    from repro.difftest.oracle import divergence_diagnostics, run_difftest

    ctx = bundle.context
    # a bundle naming an unknown fault is a bundle/code mismatch, not a
    # replay outcome — raise like the other context guards (E014/E015)
    faults = _faults_from_context(ctx.get("faults"))
    try:
        report = run_difftest(
            bundle.source or "",
            list(ctx.get("feed") or []),
            filename=ctx.get("filename", "bundle.c"),
            faults=faults,
            max_cycles=int(ctx.get("max_cycles", 200_000)),
        )
    except Exception as exc:
        return diagnostics_from_exception(exc)
    return divergence_diagnostics(report.divergence)


_REPLAYERS = {
    "synth": _replay_synth,
    "sweep": _replay_sweep,
    "campaign": _replay_campaign,
    "difftest": _replay_difftest,
}


def replay_bundle(bundle: str | Path | FailureBundle) -> ReplayResult:
    """Re-run ``bundle`` and compare fresh vs recorded diagnostics."""
    if not isinstance(bundle, FailureBundle):
        bundle = read_bundle(bundle)
    diags = _REPLAYERS[bundle.kind](bundle)
    return ReplayResult(
        bundle=bundle,
        expected=bundle.diagnostics_json(),
        actual=_dump({"diagnostics": diags}),
        diagnostics=diags,
    )
