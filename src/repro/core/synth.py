"""Assertion synthesis orchestration — the toolchain's public entry point.

``synthesize(app, assertions=...)`` clones the application, implements its
``assert()`` statements as in-circuit checkers at the requested level, and
hardware-compiles every process:

* ``"none"``     — ``NDEBUG``: assertions are stripped; this is the
  baseline ("Original") column of the paper's tables.
* ``"unoptimized"`` — each assertion becomes an inline if-statement plus a
  per-process failure stream (Section 4.1).
* ``"optimized"``   — assertion parallelization (separate checker
  processes, Section 3.1), resource replication for array operands in
  pipelined loops (Section 3.2), and shared failure channels packing 32
  assertions per 32-bit stream (Sections 3.3/4.2). Each optimization can be
  disabled individually for ablation studies.

The pipeline is split at a per-process seam so synthesis can be
*incremental* (:mod:`repro.lab.incremental`):

* :func:`synth_process` instruments and hardware-compiles ONE process in
  isolation, producing a :class:`ProcessArtifact` — a self-contained,
  picklable unit addressed by :func:`repro.lab.cache.process_cache_key`
  and movable to another instance of the same process by
  :func:`repro.lab.incremental.relocate`;
* :func:`assemble_image` replays the app-level wiring (registry codes,
  checker taps, multichecker merging, shared failure collectors) over a
  set of artifacts, producing a :class:`HardwareImage` identical to a
  monolithic run;
* :func:`synthesize` is now exactly ``synth_process`` per process followed
  by ``assemble_image`` — full and incremental synthesis share one code
  path, so their outputs cannot drift apart.

The only cross-process coupling is the error-code numbering: the
:class:`AssertionRegistry` assigns globally sequential codes in process
iteration order, so each artifact is built with an explicit ``code_base``
(the first code its assertions receive). :func:`synthesize` builds every
process at its real base; the incremental path builds a cache artifact
from base 1 and relocates it, so the process key holds no base.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.instrument import FAIL_PARAM, instrument_unoptimized, strip_assertions
from repro.core.parallelize import CHECK_FAIL_PARAM, CheckerPlan, parallelize_function
from repro.core.registry import AssertionRegistry
from repro.core.replicate import replicate_arrays
from repro.core.share import build_collectors
from repro.core.timing_assert import (
    extract_latency_regions,
    has_latency_markers,
    strip_latency_markers,
)
from repro.errors import AssertionSynthesisError
from repro.hls.compiler import CompiledProcess, compile_process
from repro.hls.constraints import HLSConfig
from repro.ir.instr import AssertionSite
from repro.ir.transform import eliminate_dead_code
from repro.runtime.hwexec import FailStreamDecode, HardwareImage
from repro.runtime.taskgraph import Application, ProcessDef

LEVELS = ("none", "unoptimized", "optimized")


@dataclass(frozen=True)
class SynthesisOptions:
    """Fine-grained switches for ablation experiments.

    Every field declares the scope its value matters at, in its
    ``metadata["scope"]``:

    * ``"process"`` — changes what :func:`synth_process` produces for ONE
      process, so it keys per-process artifacts;
    * ``"app"`` — app assembly only (collector grouping, merging checkers
      across processes);
    * ``"exec"`` — execution only (the simulation backend).

    Only process-scope fields enter
    :func:`repro.lab.cache.process_cache_key`, so per-process artifacts
    are reused across the app and exec variants.
    """

    parallelize: bool = field(default=True, metadata={"scope": "process"})
    replicate: bool = field(default=True, metadata={"scope": "process"})
    share: bool = field(default=True, metadata={"scope": "process"})
    share_word_width: int = field(default=32, metadata={"scope": "app"})
    #: Section 3.3 future-work extension: merge all (division-free) checkers
    #: into one round-robin pipelined checker fed by per-assertion FIFOs.
    multichecker: bool = field(default=False, metadata={"scope": "app"})
    multichecker_group: int = field(default=32, metadata={"scope": "app"})
    #: simulation backend for execution (:mod:`repro.simc`): "compiled"
    #: specializes each schedule to Python bytecode (interp fallback on
    #: unsupported constructs), "interp" forces the tree-walking model
    sim_backend: str = field(default="compiled", metadata={"scope": "exec"})

    def key_parts(self) -> tuple:
        """Stable (name, value) tuple of *every* field, for cache keying.

        Enumerating fields dynamically means a newly added option can
        never be forgotten in :func:`repro.lab.cache.cache_key` — any
        field change invalidates cached synthesis artifacts.
        """
        return tuple(sorted(dataclasses.asdict(self).items()))

    def process_key_parts(self) -> tuple:
        """The :meth:`key_parts` subset that affects a single process:
        the process-scope fields, in declaration order."""
        return tuple(
            (f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
            if f.metadata["scope"] == "process"
        )


@dataclass
class ProcessArtifact:
    """Everything :func:`synth_process` produces for ONE process.

    Self-contained and picklable: :mod:`repro.lab.cache` stores these
    under :func:`repro.lab.cache.process_cache_key` so an app rebuild only
    re-synthesizes the processes whose IR (or options slice) changed.
    Every name, file and error code in it is the position it was built
    at (``name``, ``func.name``, ``func.source_file`` and the first code
    in ``codes``); :func:`repro.lab.incremental.relocate` moves it to
    another instance of the same process.
    """

    name: str
    #: effective assertion level this artifact was built at
    level: str
    #: the instrumented process IR (assertions stripped/converted/tapped)
    func: object
    #: hardware compilation of ``func``
    compiled: CompiledProcess
    #: checker plans, with the error codes of the ``code_base`` this
    #: artifact was built or relocated at
    plans: list[CheckerPlan] = field(default_factory=list)
    #: per-plan checker compilations under the default
    #: :class:`HLSConfig` — :func:`assemble_image` recompiles a checker
    #: only when a config/fault override names it
    compiled_checkers: dict[str, CompiledProcess] = field(default_factory=dict)
    #: (code, site) pairs in registration order; replayed into the
    #: app-level :class:`AssertionRegistry` at assembly time
    codes: list[tuple[int, AssertionSite]] = field(default_factory=list)
    #: per-process failure stream name ("unoptimized" level only)
    fail_stream: str | None = None
    #: latency-monitor regions extracted from timing assertions
    latency_regions: list = field(default_factory=list)

    @property
    def n_codes(self) -> int:
        """How many error codes this process consumed (the next process's
        ``code_base`` is ``code_base + n_codes``)."""
        return len(self.codes)


def effective_level(assertions: str, options: SynthesisOptions) -> str:
    """The level actually synthesized after degeneration rules.

    Without parallelization the "optimized" level degenerates to the
    if-statement conversion: replication and sharing both require detached
    checker processes to act on.
    """
    if assertions not in LEVELS:
        raise AssertionSynthesisError(
            f"assertions={assertions!r}; expected one of {LEVELS}", code="RPR-A002")
    if assertions == "optimized" and not options.parallelize:
        return "unoptimized"
    return assertions


def synth_process(
    pd: ProcessDef,
    assertions: str = "optimized",
    options: SynthesisOptions | None = None,
    code_base: int = 1,
    config: HLSConfig | None = None,
    fault_spec: tuple | None = None,
) -> ProcessArtifact:
    """Instrument and hardware-compile ONE process in isolation.

    ``code_base`` is the first error code this process's assertions
    receive; codes are assigned sequentially in site-registration order,
    mirroring :class:`AssertionRegistry` (dedup by site ordinal), so
    assembling artifacts with contiguous bases reproduces the exact global
    numbering of a monolithic :func:`synthesize` run.

    ``config``/``fault_spec`` are this process's resolved HLS-config
    override and translation-fault tuple (both key-relevant: the cache
    layer folds them into :func:`repro.lab.cache.process_cache_key`;
    ``code_base`` is not, because the cache layer always builds from 1
    and relocates).
    """
    options = options or SynthesisOptions()
    level = effective_level(assertions, options)
    # the passes below rewrite IR, and lowered IR is shared read-only
    func = pd.func.clone()

    codes: list[tuple[int, AssertionSite]] = []
    by_ordinal: dict[int, int] = {}

    def code_for(site: AssertionSite) -> int:
        if site.ordinal in by_ordinal:
            return by_ordinal[site.ordinal]
        code = code_base + len(codes)
        by_ordinal[site.ordinal] = code
        codes.append((code, site))
        return code

    # timing assertions (future-work extension): extract the latency
    # monitor at any level except 'none'
    latency_regions: list = []
    if has_latency_markers(func):
        if level == "none":
            strip_latency_markers(func)
        else:
            spec = extract_latency_regions(func, pd.name)
            latency_regions.extend(spec.regions)

    plans: list[CheckerPlan] = []
    fail_stream: str | None = None
    if level == "none":
        strip_assertions(func)
    elif level == "unoptimized":
        n = instrument_unoptimized(func, code_for)
        if n:
            fail_stream = f"{pd.name}__afail"
    else:  # optimized
        res = parallelize_function(func, pd.name, code_for, share=options.share)
        # DCE must precede replication: the inline condition logic that
        # parallelization orphaned still consumes the extract loads, and
        # replication targets loads whose only consumers are taps
        eliminate_dead_code(func)
        if options.replicate:
            replicate_arrays(func)
        plans = list(res.checkers)
    eliminate_dead_code(func)

    cfg = config or pd.config or HLSConfig()
    if fault_spec:
        cfg = HLSConfig(schedule=cfg.schedule, faults=tuple(fault_spec))
    compiled = compile_process(func, cfg)
    compiled_checkers = {
        plan.name: compile_process(plan.checker, HLSConfig())
        for plan in plans
    }
    return ProcessArtifact(
        name=pd.name,
        level=level,
        func=func,
        compiled=compiled,
        plans=plans,
        compiled_checkers=compiled_checkers,
        codes=codes,
        fail_stream=fail_stream,
        latency_regions=latency_regions,
    )


def assemble_image(
    app: Application,
    artifacts: dict[str, ProcessArtifact],
    assertions: str,
    options: SynthesisOptions | None = None,
    nabort: bool | None = None,
    faults: dict[str, tuple] | None = None,
    configs: dict[str, HLSConfig] | None = None,
) -> HardwareImage:
    """Assemble per-process artifacts into a :class:`HardwareImage`.

    Replays the app-level wiring — failure sinks, checker taps,
    multichecker merging, shared-failure collectors, registry codes —
    exactly as the monolithic pipeline did, so the result is independent
    of which artifacts came from cache and which were just built.

    ``artifacts`` must cover every FPGA process of ``app`` and have been
    built (or relocated) at contiguous ``code_base`` values in process
    iteration order (a mismatch raises ``RPR-A005``).
    """
    options = options or SynthesisOptions()
    level = effective_level(assertions, options)

    hw_app = app.clone(f"{app.name}@{level}")
    if nabort is not None:
        hw_app.nabort = nabort

    registry = AssertionRegistry()
    decode: dict[str, FailStreamDecode] = {}
    plans: list[CheckerPlan] = []
    latency_regions: list = []

    for pd in list(hw_app.fpga_processes()):
        art = artifacts.get(pd.name)
        if art is None:
            raise AssertionSynthesisError(
                f"no artifact for process {pd.name!r}", code="RPR-A005")
        # no copy: synth_process owns art.func and nothing downstream
        # rewrites it
        pd.func = art.func
        for region in art.latency_regions:
            hw_app.add_tap(region.start_channel, pd.name, "__latmon", (1,))
            hw_app.add_tap(region.end_channel, pd.name, "__latmon", (1,))
            latency_regions.append(region)
        for code, site in art.codes:
            got = registry.register(pd.name, site)
            if got != code:
                raise AssertionSynthesisError(
                    f"artifact for {pd.name!r} was built with code base "
                    f"{art.codes[0][0]} but assembly assigned {got}; "
                    "artifacts must be built or relocated at contiguous "
                    "code bases in process order", code="RPR-A005")
        if art.fail_stream is not None:
            hw_app.sink(art.fail_stream, f"{pd.name}.{FAIL_PARAM}",
                        role="assert_code")
            table = FailStreamDecode(mode="code")
            for code, site in art.codes:
                table.table[code] = (pd.name, site)
            decode[art.fail_stream] = table
        plans.extend(art.plans)

    # wire checker processes into the graph
    merged_plans: set[str] = set()
    if plans and options.multichecker and options.share:
        from repro.core.multichecker import build_multichecker, partition_plans

        mergeable, _individual = partition_plans(plans)
        for gi in range(0, len(mergeable), options.multichecker_group):
            group = mergeable[gi:gi + options.multichecker_group]
            if len(group) < 2:
                continue  # a singleton group gains nothing
            mc = build_multichecker(f"__mchk{gi // options.multichecker_group}",
                                    group)
            arbiter = ProcessDef(name=f"{mc.checker.name}__arb", func=None,
                                 kind="arbiter", daemon=True,
                                 collector_spec=mc.arbiter)
            hw_app.processes[arbiter.name] = arbiter
            slot_widths = []
            for plan in group:
                slot_widths.extend(plan.tap_widths)
            hw_app.add_tap(mc.arbiter.output, arbiter.name, mc.checker.name,
                           (8, *slot_widths))
            hw_app.add_ir_process(mc.checker, daemon=True)
            for plan in group:
                hw_app.add_tap(plan.tap_channel, plan.app_process,
                               arbiter.name, plan.tap_widths)
                merged_plans.add(plan.name)

    for plan in plans:
        if plan.name in merged_plans:
            continue
        hw_app.add_tap(plan.tap_channel, plan.app_process, plan.name,
                       plan.tap_widths)
        hw_app.add_ir_process(plan.checker, name=plan.name, daemon=True)
        if plan.fail_mode == "stream":
            stream_name = f"{plan.name}_out"
            hw_app.sink(stream_name, f"{plan.name}.{CHECK_FAIL_PARAM}",
                        role="assert_code")
            decode[stream_name] = FailStreamDecode(
                mode="code", table={plan.code: (plan.app_process, plan.site)}
            )
    if plans and options.share:
        share_res = build_collectors(
            hw_app, plans, registry.lookup, options.share_word_width
        )
        decode.update(share_res.fail_streams)

    # hardware-compile every process, preferring artifact precompilations;
    # a config/fault override naming a checker forces a fresh compile (the
    # artifact compiled it under the default config)
    checker_pre: dict[str, CompiledProcess] = {}
    for art in artifacts.values():
        checker_pre.update(art.compiled_checkers)
    compiled: dict[str, CompiledProcess] = {}
    for pd in hw_app.fpga_processes():
        art = artifacts.get(pd.name)
        if art is not None:
            compiled[pd.name] = art.compiled
            continue
        overridden = bool((configs or {}).get(pd.name)) or bool(
            faults and pd.name in faults)
        pre = checker_pre.get(pd.name)
        if pre is not None and not overridden:
            compiled[pd.name] = pre
            continue
        config = (configs or {}).get(pd.name) or pd.config or HLSConfig()
        if faults and pd.name in faults:
            config = HLSConfig(schedule=config.schedule,
                               faults=tuple(faults[pd.name]))
        # scheduling adds predicate temps to the function it compiles: an
        # artifact's checker stays as the artifact built it
        func = pd.func.clone() if pre is not None else pd.func
        compiled[pd.name] = compile_process(func, config)

    image = HardwareImage(
        app=hw_app,
        compiled=compiled,
        assert_decode=decode,
        nabort=hw_app.nabort,
        assertion_level=level,
        latency_regions=latency_regions,
        sim_backend=options.sim_backend,
    )
    image.registry = registry  # type: ignore[attr-defined]
    return image


def synthesize(
    app: Application,
    assertions: str = "optimized",
    options: SynthesisOptions | None = None,
    nabort: bool | None = None,
    faults: dict[str, tuple] | None = None,
    configs: dict[str, HLSConfig] | None = None,
) -> HardwareImage:
    """Synthesize ``app`` into a :class:`HardwareImage`.

    ``faults`` maps process names to translation-fault tuples
    (:mod:`repro.hls.faults`), injected into the hardware side only.
    ``configs`` overrides per-process HLS configuration.

    Implemented as :func:`synth_process` per FPGA process, each at its
    real name and ``code_base``, followed by :func:`assemble_image`.
    :func:`repro.lab.incremental.synthesize_incremental` runs the same two
    steps with a cache lookup and a relocation in between; this function
    is its per-position oracle.
    """
    options = options or SynthesisOptions()
    level = effective_level(assertions, options)

    artifacts: dict[str, ProcessArtifact] = {}
    code_base = 1
    for pd in app.fpga_processes():
        art = synth_process(
            pd, level, options, code_base,
            config=(configs or {}).get(pd.name),
            fault_spec=(faults or {}).get(pd.name),
        )
        artifacts[pd.name] = art
        code_base += art.n_codes
    return assemble_image(app, artifacts, level, options, nabort=nabort,
                          faults=faults, configs=configs)
