"""Seeded fault-injection campaigns with assertion-coverage reporting.

A campaign turns the paper's two bug anecdotes into a measured robustness
evaluation: it sweeps a deterministic, seeded space of fault scenarios
(translation faults plus runtime upsets) across an application at several
assertion levels, executes each combination under the runtime watchdog,
and reports a detection-coverage matrix. Every run is classified as

* ``assertion-detected``  — a synthesized in-circuit assertion reported
  the fault (the paper's mechanism); latency is the cycle at which the
  first failure word reached the CPU notifier;
* ``watchdog-detected``   — the run hung (deadlock/livelock/timeout) or a
  process had to be quarantined: the fault was caught, but only by the
  runtime safety net, not by an assertion;
* ``silent-corruption``   — the run completed with outputs diverging from
  the software-simulation golden reference and nobody noticed — the
  coverage gap assertions are supposed to close;
* ``benign``              — completed with correct outputs (e.g. a
  back-pressure storm the schedule absorbed, or a fault whose selector
  found nothing to break at this optimization level).

Determinism: scenario generation uses only ``random.Random(seed)`` over
sorted structures, and the simulators are seedless, so the same seed
always reproduces the same matrix bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.synth import SynthesisOptions
from repro.errors import CampaignError, FaultError
from repro.faults.ir import NarrowCompare, ReadForWrite
from repro.faults.runtime import (
    ChannelBitFlip,
    DropWord,
    DuplicateWord,
    RegisterUpset,
    StreamStall,
    StuckAtBit,
)
from repro.ir.ops import COMPARISONS, OpKind
from repro.runtime.hwexec import execute, execute_batch
from repro.runtime.swsim import software_sim
from repro.runtime.taskgraph import Application
from repro.runtime.watchdog import HANG_REASONS, WatchdogConfig
from repro.utils.tables import render_table

__all__ = [
    "ASSERTION_DETECTED",
    "WATCHDOG_DETECTED",
    "SILENT_CORRUPTION",
    "BENIGN",
    "HARNESS_ERROR",
    "CLASSIFICATIONS",
    "Scenario",
    "RunOutcome",
    "CampaignResult",
    "CampaignTarget",
    "builtin_targets",
    "campaign_summary",
    "generate_scenarios",
    "matrix_from_records",
    "outcome_from_record",
    "record_from_outcome",
    "run_campaign",
]

ASSERTION_DETECTED = "assertion-detected"
WATCHDOG_DETECTED = "watchdog-detected"
SILENT_CORRUPTION = "silent-corruption"
BENIGN = "benign"
CLASSIFICATIONS = (
    ASSERTION_DETECTED,
    WATCHDOG_DETECTED,
    SILENT_CORRUPTION,
    BENIGN,
)
#: the harness itself failed on this cell (worker crash, synthesis bug);
#: deliberately NOT in CLASSIFICATIONS — it says nothing about fault
#: coverage, so it is excluded from detection rates, but the campaign
#: keeps going and the matrix shows the hole instead of aborting
HARNESS_ERROR = "harness-error"


@dataclass
class Scenario:
    """One injected-fault configuration, reusable across assertion levels.

    ``ir_faults`` maps process names to translation-fault tuples (passed
    to :func:`repro.core.synth.synthesize`); ``runtime_faults`` are
    :mod:`repro.faults.runtime` objects (passed to
    :func:`repro.runtime.hwexec.execute`, which rearms them per run).
    """

    name: str
    description: str
    ir_faults: dict[str, tuple] = field(default_factory=dict)
    runtime_faults: tuple = ()


@dataclass(frozen=True)
class RunOutcome:
    """One (scenario, assertion level) execution, classified."""

    scenario: str
    level: str
    classification: str
    reason: str
    cycles: int
    detection_latency: int | None = None
    failures: int = 0
    quarantined: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    #: structured diagnostic dicts, populated for harness-error cells
    diagnostics: tuple = ()

    @property
    def cell(self) -> str:
        """Compact matrix-cell rendering."""
        if self.classification == ASSERTION_DETECTED:
            return f"assert@{self.detection_latency}"
        if self.classification == WATCHDOG_DETECTED:
            return f"watchdog@{self.detection_latency}"
        if self.classification == SILENT_CORRUPTION:
            return "SILENT"
        if self.classification == HARNESS_ERROR:
            return "ERROR"
        return "benign"


@dataclass
class CampaignResult:
    """Everything a campaign measured, plus table renderers."""

    app: str
    seed: int
    levels: tuple[str, ...]
    scenarios: list[Scenario]
    outcomes: list[RunOutcome]
    #: the journaled store run this campaign wrote (None when it ran
    #: without a ``store_root``); shard-suffixed for ``--shard`` slices
    run_id: str | None = None

    def outcome(self, scenario: str, level: str) -> RunOutcome:
        oc = self.find(scenario, level)
        if oc is None:
            raise CampaignError(f"no outcome for {scenario!r} at {level!r}", code="RPR-G001")
        return oc

    def find(self, scenario: str, level: str) -> RunOutcome | None:
        """Like :meth:`outcome` but None for cells this run did not
        execute (a ``--shard K/N`` slice holds only its own cells)."""
        for oc in self.outcomes:
            if oc.scenario == scenario and oc.level == level:
                return oc
        return None

    def summary(self, level: str | None = None) -> dict[str, int]:
        counts = {c: 0 for c in CLASSIFICATIONS}
        for oc in self.outcomes:
            if level is None or oc.level == level:
                # tolerant of classifications outside the coverage matrix
                # (harness-error cells, future taxonomy growth)
                counts[oc.classification] = \
                    counts.get(oc.classification, 0) + 1
        return counts

    @property
    def harness_errors(self) -> list[RunOutcome]:
        return [oc for oc in self.outcomes
                if oc.classification == HARNESS_ERROR]

    def detection_rate(self, level: str) -> float:
        """Fraction of non-benign scenarios detected (assertion or watchdog).

        Harness-error cells measure nothing about fault coverage and are
        excluded from both numerator and denominator.
        """
        harmful = detected = 0
        for oc in self.outcomes:
            if oc.level != level or \
                    oc.classification in (BENIGN, HARNESS_ERROR):
                continue
            harmful += 1
            if oc.classification in (ASSERTION_DETECTED, WATCHDOG_DETECTED):
                detected += 1
        return detected / harmful if harmful else 1.0

    def matrix(self) -> str:
        headers = ["scenario"] + [f"level={lv}" for lv in self.levels]
        rows = []
        for sc in self.scenarios:
            cells = []
            for lv in self.levels:
                oc = self.find(sc.name, lv)
                # cells outside this shard's slice render as a hole
                cells.append(oc.cell if oc is not None else "-")
            rows.append([sc.name] + cells)
        return render_table(
            headers, rows,
            title=f"FAULT CAMPAIGN {self.app} (seed={self.seed}, "
                  f"{len(self.scenarios)} scenarios)",
        )

    def render(self) -> str:
        lines = [self.matrix(), ""]
        for lv in self.levels:
            counts = self.summary(lv)
            shown = list(CLASSIFICATIONS) + sorted(
                c for c in counts if c not in CLASSIFICATIONS)
            parts = ", ".join(f"{c}={counts[c]}" for c in shown)
            lines.append(
                f"level={lv}: {parts}; "
                f"detection rate {100.0 * self.detection_rate(lv):.0f}%"
            )
        lines.append("")
        for sc in self.scenarios:
            lines.append(f"{sc.name}: {sc.description}")
        return "\n".join(lines)


# ---- journal records --------------------------------------------------------


def record_from_outcome(oc: RunOutcome) -> dict:
    """One JSON-able journal record for a (scenario, level) cell.

    Harness-error cells get ``status="failed"`` so a resumed run retries
    them; every real classification (even silent corruption) is a
    successfully *measured* cell and counts as done.
    """
    return {
        "point_id": f"{oc.scenario}@{oc.level}",
        "status": "failed" if oc.classification == HARNESS_ERROR else "ok",
        "scenario": oc.scenario,
        "level": oc.level,
        "classification": oc.classification,
        "reason": oc.reason,
        "cycles": oc.cycles,
        "detection_latency": oc.detection_latency,
        "failures": oc.failures,
        "quarantined": list(oc.quarantined),
        "events": list(oc.events),
        "diagnostics": list(oc.diagnostics),
    }


def campaign_summary(result: CampaignResult) -> dict:
    """One JSON object for a finished campaign (``repro campaign
    --json``): the coverage matrix as records, per-level classification
    counts and detection rates."""
    return {
        "schema": 1,
        "kind": "campaign",
        "app": result.app,
        "seed": result.seed,
        "run_id": result.run_id,
        "levels": list(result.levels),
        "ok": not result.harness_errors,
        "scenarios": [{"name": sc.name, "description": sc.description}
                      for sc in result.scenarios],
        "summary": {lv: result.summary(lv) for lv in result.levels},
        "detection_rate": {lv: result.detection_rate(lv)
                           for lv in result.levels},
        "outcomes": [record_from_outcome(oc) for oc in result.outcomes],
    }


def outcome_from_record(rec: dict) -> RunOutcome:
    """Inverse of :func:`record_from_outcome` (JSON lists -> tuples)."""
    return RunOutcome(
        scenario=rec["scenario"],
        level=rec["level"],
        classification=rec.get("classification", HARNESS_ERROR),
        reason=rec.get("reason", ""),
        cycles=int(rec.get("cycles", 0)),
        detection_latency=rec.get("detection_latency"),
        failures=int(rec.get("failures", 0)),
        quarantined=tuple(rec.get("quarantined") or ()),
        events=tuple(rec.get("events") or ()),
        diagnostics=tuple(rec.get("diagnostics") or ()),
    )


def matrix_from_records(records: list[dict], context: dict) -> str:
    """Render the coverage matrix + per-level summaries from journal
    records alone — what ``repro merge`` writes as ``matrix.txt``.

    Pure function of (records, manifest context), so merging the shards
    of a K/N split and merging the unsharded run emit byte-identical
    matrices. Cells absent from ``records`` render as holes.
    """
    cells: dict[tuple[str, str], RunOutcome] = {}
    for rec in records:
        if "scenario" not in rec or "level" not in rec:
            continue
        oc = outcome_from_record(rec)
        cells[(oc.scenario, oc.level)] = oc
    names = list(context.get("scenarios") or [])
    levels = list(context.get("levels") or [])
    if not names:
        names = sorted({s for s, _ in cells})
    if not levels:
        levels = sorted({lv for _, lv in cells})
    result = CampaignResult(
        app=context.get("target", "?"),
        seed=context.get("seed", 0),
        levels=tuple(levels),
        scenarios=[Scenario(name, "") for name in names],
        outcomes=list(cells.values()),
    )
    lines = [result.matrix(), ""]
    for lv in levels:
        counts = result.summary(lv)
        shown = list(CLASSIFICATIONS) + sorted(
            c for c in counts if c not in CLASSIFICATIONS)
        parts = ", ".join(f"{c}={counts[c]}" for c in shown)
        lines.append(
            f"level={lv}: {parts}; "
            f"detection rate {100.0 * result.detection_rate(lv):.0f}%"
        )
    return "\n".join(lines)


@dataclass
class CampaignTarget:
    """An application under campaign, with execution budgets tuned to it."""

    name: str
    build: Callable[[], Application]
    watchdog: WatchdogConfig


def builtin_targets() -> dict[str, CampaignTarget]:
    """The paper's applications, sized for quick sweeps.

    ``livelock_window`` is tuned per app: Triple-DES legitimately computes
    ~30k stream-quiet cycles per block, the loopback is stream-chatty.
    """
    from repro.apps.edge_detect import build_edge_app
    from repro.apps.loopback import build_loopback
    from repro.apps.tripledes import build_tdes_app

    return {
        "loopback": CampaignTarget(
            "loopback",
            lambda: build_loopback(3, data=list(range(1, 17))),
            WatchdogConfig(max_cycles=60_000, idle_limit=64,
                           livelock_window=4_000, quarantine=True),
        ),
        "edge": CampaignTarget(
            "edge",
            lambda: build_edge_app(width=16, height=8),
            WatchdogConfig(max_cycles=120_000, idle_limit=64,
                           livelock_window=8_000, quarantine=True),
        ),
        "tripledes": CampaignTarget(
            "tripledes",
            lambda: build_tdes_app(text=b"In-circuit!"),
            WatchdogConfig(max_cycles=400_000, idle_limit=64,
                           livelock_window=60_000, quarantine=True),
        ),
    }


# ---- scenario generation ---------------------------------------------------


def _ir_candidates(app: Application):
    """(process, width) narrow-compare and (process, array) store targets."""
    compares: list[tuple[str, int]] = []
    stores: list[tuple[str, str]] = []
    for pd in sorted(app.fpga_processes(), key=lambda p: p.name):
        widths = {
            max(a.ty.width for a in instr.args)
            for instr in pd.func.instructions()
            if instr.op in COMPARISONS
        }
        for w in (4, 5, 8):
            if any(mw > w for mw in widths):
                compares.append((pd.name, w))
        stored = {
            instr.attrs.get("array")
            for instr in pd.func.instructions()
            if instr.op == OpKind.STORE
        }
        for arr in sorted(a for a in stored if a):
            stores.append((pd.name, arr))
    return compares, stores


def generate_scenarios(
    app: Application,
    seed: int = 0,
    count: int = 8,
    include_ir: bool = True,
) -> list[Scenario]:
    """Deterministically derive ``count`` fault scenarios for ``app``.

    Only the seed and the (sorted) application structure feed the RNG, so
    the same ``(app, seed, count)`` always yields the same scenarios.
    """
    rng = random.Random(seed)
    streams = sorted(
        sd.name for sd in app.streams.values() if sd.role is None
    )
    if not streams:
        raise CampaignError(f"{app.name}: no data streams to inject into", code="RPR-G002")
    procs = sorted(pd.name for pd in app.fpga_processes())
    widths = {sd.name: sd.width for sd in app.streams.values()}
    fed_lengths = [
        len(sd.feeder_data or ()) for sd in app.streams.values() if sd.cpu_fed
    ]
    words_hint = max(1, min(fed_lengths or [8]))

    compares, stores = _ir_candidates(app) if include_ir else ([], [])
    kinds = ["bitflip", "stuckat", "drop", "duplicate", "stall", "upset"]
    if compares:
        kinds.append("narrow_compare")
    if stores:
        kinds.append("read_for_write")

    scenarios: list[Scenario] = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        stream = rng.choice(streams)
        word = rng.randrange(words_hint)
        bit = rng.randrange(widths.get(stream, 32))
        if kind == "bitflip":
            sc = Scenario(
                f"s{i:02d}-bitflip",
                f"flip bit {bit} of word {word} on stream {stream!r}",
                runtime_faults=(
                    ChannelBitFlip(target=stream, word_index=word, bit=bit),
                ),
            )
        elif kind == "stuckat":
            stuck = rng.randrange(2)
            sc = Scenario(
                f"s{i:02d}-stuckat",
                f"bit {bit} of stream {stream!r} stuck at {stuck}",
                runtime_faults=(
                    StuckAtBit(target=stream, bit=bit, stuck_value=stuck),
                ),
            )
        elif kind == "drop":
            sc = Scenario(
                f"s{i:02d}-drop",
                f"drop word {word} of stream {stream!r}",
                runtime_faults=(DropWord(target=stream, word_index=word),),
            )
        elif kind == "duplicate":
            sc = Scenario(
                f"s{i:02d}-duplicate",
                f"duplicate word {word} of stream {stream!r}",
                runtime_faults=(DuplicateWord(target=stream, word_index=word),),
            )
        elif kind == "stall":
            start = rng.randrange(16, 400)
            duration = rng.randrange(8, 128)
            sc = Scenario(
                f"s{i:02d}-stall",
                f"back-pressure storm on {stream!r}: cycles "
                f"{start}..{start + duration}",
                runtime_faults=(
                    StreamStall(target=stream, start_cycle=start,
                                duration=duration),
                ),
            )
        elif kind == "upset":
            proc = rng.choice(procs)
            cycle = rng.randrange(32, 2_000)
            reg_index = rng.randrange(16)
            sc = Scenario(
                f"s{i:02d}-upset",
                f"register upset in {proc!r} at cycle {cycle} "
                f"(reg index {reg_index}, bit {bit % 32})",
                runtime_faults=(
                    RegisterUpset(target=proc, cycle=cycle,
                                  reg_index=reg_index, bit=bit % 32),
                ),
            )
        elif kind == "narrow_compare":
            proc, width = rng.choice(compares)
            sc = Scenario(
                f"s{i:02d}-narrowcmp",
                f"comparisons in {proc!r} mistranslated to {width} bits",
                ir_faults={proc: (NarrowCompare(width=width),)},
            )
        else:  # read_for_write
            proc, arr = rng.choice(stores)
            sc = Scenario(
                f"s{i:02d}-readforwrite",
                f"stores to {proc!r}.{arr} emitted as reads",
                ir_faults={proc: (ReadForWrite(array=arr),)},
            )
        scenarios.append(sc)
    return scenarios


# ---- execution -------------------------------------------------------------


def classify_outcome(result, golden: dict) -> tuple[str, int | None]:
    """Map one HwResult onto the coverage taxonomy (with latency)."""
    if result.failures:
        return ASSERTION_DETECTED, result.first_failure_cycle
    if result.reason in HANG_REASONS or result.quarantined:
        latency = (
            result.watchdog.fired_at_cycle
            if result.watchdog is not None else result.cycles
        )
        return WATCHDOG_DETECTED, latency
    if any(result.outputs.get(name) != words for name, words in golden.items()):
        return SILENT_CORRUPTION, None
    return BENIGN, None


def _measured(sc: Scenario, level: str, result, golden: dict) -> RunOutcome:
    """Classify one scalar run of ``sc`` at ``level``."""
    classification, latency = classify_outcome(result, golden)
    return RunOutcome(
        scenario=sc.name,
        level=level,
        classification=classification,
        reason=result.reason,
        cycles=result.cycles,
        detection_latency=latency,
        failures=len(result.failures),
        quarantined=tuple(result.quarantined),
        events=tuple(result.fault_events),
    )


def _cell_error(sc: Scenario, level: str, exc: Exception) -> RunOutcome:
    """A harness-error outcome for a cell whose run raised ``exc``: the
    exception's own diagnostic (its RPR code), then RPR-G010."""
    from repro.diagnostics.bridge import diagnostics_from_exception
    from repro.diagnostics.core import Diagnostic

    diag = Diagnostic(
        code="RPR-G010",
        severity="error",
        message=f"campaign cell failed: {type(exc).__name__}: {exc}",
    ).to_dict()
    return RunOutcome(
        scenario=sc.name, level=level, classification=HARNESS_ERROR,
        reason=f"{type(exc).__name__}: {exc}", cycles=0,
        diagnostics=(*diagnostics_from_exception(exc), diag),
    )


def _run_group(args: tuple) -> list[RunOutcome]:
    """Cells of one image group, as outcomes aligned with its cells --
    module-level and tuple-packed so it fans out through
    :class:`repro.lab.executor.LabExecutor` workers.

    The cells share a level and translation faults (runtime faults are
    injected at execute time and do not shape the image), so the call
    synthesizes one image through the per-process artifacts of the cache
    at ``cache_root`` and runs every cell on it, ``batch_lanes`` at a
    time: through :func:`repro.runtime.hwexec.execute` when
    ``batch_lanes`` is 1, else through
    :func:`repro.runtime.hwexec.execute_batch`, one scalar run per cell
    either way. A translation fault whose selector finds nothing at this
    level leaves every cell ``not-injected``; a chunk whose run raises
    makes only its own cells harness errors.
    """
    from repro.lab.cache import SynthesisCache
    from repro.lab.incremental import synthesize_incremental

    (watchdog, app, cells, golden, nabort, options, cache_root,
     batch_lanes) = args
    first, level = cells[0]
    try:
        image, _info = synthesize_incremental(
            app, level, options=options, cache=SynthesisCache(cache_root),
            faults=first.ir_faults or None, nabort=True if nabort else None)
    except FaultError:
        # the fault's selector found nothing at this level (e.g. the
        # targeted comparison was optimized away): nothing was injected
        return [RunOutcome(scenario=sc.name, level=lv, classification=BENIGN,
                           reason="not-injected", cycles=0)
                for sc, lv in cells]
    outcomes: list[RunOutcome] = []
    for start in range(0, len(cells), batch_lanes):
        chunk = cells[start:start + batch_lanes]
        try:
            if batch_lanes == 1:
                results = [execute(image, watchdog=watchdog,
                                   faults=chunk[0][0].runtime_faults)]
            else:
                results = execute_batch(
                    image, [sc.runtime_faults for sc, _ in chunk],
                    watchdog=watchdog)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            outcomes.extend(_cell_error(sc, lv, exc) for sc, lv in chunk)
            continue
        outcomes.extend(_measured(sc, lv, result, golden)
                        for (sc, lv), result in zip(chunk, results))
    return outcomes


def run_campaign(
    target: str | CampaignTarget = "loopback",
    levels: tuple[str, ...] = ("none", "optimized"),
    seed: int = 0,
    count: int = 8,
    nabort: bool = False,
    scenarios: list[Scenario] | None = None,
    options: SynthesisOptions | None = None,
    jobs: int = 1,
    cache_root: str | None = None,
    bundle_dir: str | None = None,
    store_root: str | None = None,
    shard=None,
    resume: bool = True,
    retry=None,
    timeout: float | None = None,
    batch_lanes: int = 1,
) -> CampaignResult:
    """Sweep ``count`` seeded scenarios across assertion ``levels``.

    ``target`` is a :func:`builtin_targets` key or a custom
    :class:`CampaignTarget`. ``nabort`` runs the whole campaign in
    report-don't-halt mode, enabling watchdog quarantine (graceful
    degradation) for hanging scenarios. The cells that share a level and
    translation faults form an image group, and every cell runs inside
    one :func:`_run_group` task of the lab executor, which synthesizes the
    group's image once and runs the task's cells on it. At ``jobs=1`` a
    task is a whole group; ``jobs`` > 1 fans the grid out across worker
    processes one chunk of ``batch_lanes`` cells per task. Outcomes are
    collected in cell order, so the detection matrix for a given seed is
    identical at any job count. ``cache_root`` points at a
    :mod:`repro.lab.cache` directory of per-process artifacts, so a
    process is synthesized once per distinct (level, faults) build across
    tasks, runs and concurrent workers.

    A task whose *worker* fails (crash, timeout, an unexpected synthesis
    error), or a cell whose run raises, is recorded as a
    ``harness-error`` outcome with structured diagnostics instead of
    aborting the whole campaign; with ``bundle_dir`` set, each such cell
    also writes a replayable failure bundle there.

    With ``store_root`` the campaign journals every cell into a
    :class:`repro.lab.store.ResultStore` run (content-addressed by the
    campaign configuration) as its task finishes, so an interrupted
    campaign resumes by re-running only missing and harness-error cells.
    ``shard`` (:class:`repro.lab.shard.ShardSpec`) restricts this
    invocation to one deterministic K/N slice of the grid, journaled to
    its own run directory; ``repro merge`` folds the slices back together.
    ``retry``/``timeout`` configure executor fault tolerance per task
    (the timeout, as always, only across worker processes).

    ``batch_lanes`` is how many of a group's cells run per call: 1 runs
    each through :func:`repro.runtime.hwexec.execute`, more run through
    :func:`repro.runtime.hwexec.execute_batch`, one scalar run each. The
    matrix is bit-identical at every ``batch_lanes`` and ``jobs`` value.
    """
    import dataclasses as _dc
    import sys
    from pathlib import Path

    from repro.diagnostics.bundle import bundle_name, write_bundle
    from repro.lab.executor import LabExecutor
    from repro.lab.store import ResultStore
    from repro.utils.idgen import stable_fingerprint

    requested = target if isinstance(target, str) else None
    if isinstance(target, str):
        try:
            target = builtin_targets()[target]
        except KeyError:
            raise CampaignError(
                f"unknown campaign target {target!r}; "
                f"have {sorted(builtin_targets())}", code="RPR-G003") from None
    app = target.build()
    sim = software_sim(app)
    if not sim.completed:
        raise CampaignError(
            f"{target.name}: golden software simulation did not complete", code="RPR-G004")
    golden = {name: list(words) for name, words in sim.outputs.items()}
    generated = scenarios is None
    scenarios = (
        list(scenarios) if scenarios is not None
        else generate_scenarios(app, seed=seed, count=count)
    )

    cells = [(scenario, level)
             for scenario in scenarios for level in levels]
    if shard is not None:
        cells = [(sc, lv) for sc, lv in cells
                 if shard.contains(f"{sc.name}@{lv}")]

    context = {
        "target": target.name,
        "seed": seed,
        "count": count,
        "levels": list(levels),
        "nabort": nabort,
        "options": _dc.asdict(options) if options is not None else None,
        "scenarios": [sc.name for sc in scenarios],
        "batch_lanes": batch_lanes,
    }
    run = None
    resumed: dict[str, RunOutcome] = {}
    counters = {"total": len(cells), "skipped_resume": 0, "done": 0,
                "failed": 0, "journal_corrupt": 0}
    if store_root is not None:
        fp = stable_fingerprint(
            "campaign", target.name, seed, count, tuple(levels), nabort,
            options.key_parts() if options is not None else None,
            tuple((sc.name, sc.description) for sc in scenarios),
        )
        base_id = f"campaign-{target.name}-{fp:012x}"
        run_id = shard.run_id(base_id) if shard is not None else base_id
        run = ResultStore(store_root).open_run(run_id)
        if not resume and run.results_path.exists():
            run.results_path.unlink()
        if resume:
            wanted = {f"{sc.name}@{lv}" for sc, lv in cells}
            for rec in run.records():
                pid = rec.get("point_id")
                if pid in wanted and rec.get("status") == "ok":
                    resumed[pid] = outcome_from_record(rec)
        counters["journal_corrupt"] = run.stats.corrupt
        if run.stats.corrupt:
            print(f"campaign {target.name}: WARNING: skipped "
                  f"{run.stats.corrupt} torn/corrupt journal line(s) in "
                  f"{run.results_path}; affected cells re-run",
                  file=sys.stderr)
        counters["skipped_resume"] = len(resumed)

    pending = [(sc, lv) for sc, lv in cells
               if f"{sc.name}@{lv}" not in resumed]
    groups: dict[tuple[str, str], list[tuple[Scenario, str]]] = {}
    for sc, lv in pending:
        groups.setdefault((lv, repr(sorted(sc.ir_faults.items()))),
                          []).append((sc, lv))
    executor = LabExecutor(jobs=jobs, timeout=timeout, retry=retry)
    lanes = max(1, batch_lanes)
    # in this process a task is a whole group, so the group synthesizes
    # once; across workers a task is one chunk of ``lanes`` cells, so the
    # cells spread over the workers and ``timeout`` bounds one chunk
    tasks = list(groups.values()) if executor.jobs == 1 else [
        group[start:start + lanes]
        for group in groups.values()
        for start in range(0, len(group), lanes)
    ]

    def manifest(status: str) -> dict:
        return {
            "kind": "campaign",
            "run_id": run.run_id,
            "name": target.name,
            "fingerprint": f"{fp:012x}",
            "status": status,
            "jobs": jobs,
            "shard": shard.as_dict() if shard is not None else None,
            "context": context,
            "counters": dict(counters),
            "executor": executor.stats.as_dict(),
            "retry": retry.as_dict() if retry is not None else None,
            "points": sorted(f"{sc.name}@{lv}" for sc, lv in cells),
        }

    if run is not None:
        run.write_manifest(manifest("running"))

    by_id: dict[str, RunOutcome] = dict(resumed)

    def settle(scenario: Scenario, level: str, outcome: RunOutcome,
               attempts: int) -> None:
        if outcome.classification == HARNESS_ERROR:
            counters["failed"] += 1
            # the cell is replayable only when its scenario can be
            # regenerated from (target name, seed); custom targets and
            # explicit scenario lists still get the outcome, just no bundle
            if bundle_dir is not None and generated and requested is not None:
                write_bundle(
                    Path(bundle_dir)
                    / bundle_name(f"{scenario.name}@{level}"),
                    "campaign", list(outcome.diagnostics),
                    context={
                        "target": requested,
                        "seed": seed,
                        "count": count,
                        "scenario": scenario.name,
                        "level": level,
                        "nabort": nabort,
                        "options": (_dc.asdict(options)
                                    if options is not None else None),
                    },
                )
        else:
            counters["done"] += 1
        by_id[f"{scenario.name}@{level}"] = outcome
        if run is not None:
            record = record_from_outcome(outcome)
            record["attempts"] = attempts
            run.append(record)

    def task_done(oc) -> None:
        task = tasks[oc.index]
        if oc.ok:
            measured = oc.value
        else:
            measured = [RunOutcome(
                scenario=sc.name, level=lv, classification=HARNESS_ERROR,
                reason=oc.error, cycles=0, diagnostics=tuple(oc.diagnostics),
            ) for sc, lv in task]
        for (scenario, level), outcome in zip(task, measured):
            settle(scenario, level, outcome, oc.attempts)

    executor.map(_run_group, [
        (target.watchdog, app, cells, golden, nabort, options, cache_root,
         lanes)
        for cells in tasks
    ], on_result=task_done)

    if run is not None:
        counters["retried"] = executor.stats.retries
        run.write_manifest(manifest(
            "completed" if counters["failed"] == 0
            else "completed-with-failures"))
    outcomes = [by_id[f"{sc.name}@{lv}"] for sc, lv in cells]
    return CampaignResult(
        app=target.name,
        seed=seed,
        levels=tuple(levels),
        scenarios=scenarios,
        outcomes=outcomes,
        run_id=run.run_id if run is not None else None,
    )
