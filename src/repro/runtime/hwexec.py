"""Hardware execution: cycle-accurate co-simulation of the whole system.

The synthesized application runs as a set of :class:`ProcessExec` circuit
models connected by FIFO channels, a board model with **one time-multiplexed
physical CPU<->FPGA link** (the paper's portability mechanism: all logical
streams, including assertion-failure streams, share it round-robin, one
word per direction per cycle), collector pseudo-processes for shared
failure channels, and the CPU-side assertion notification function that
decodes failure words, prints the ANSI-C message and halts the application
(unless ``NABORT``).

Terminations are classified by the runtime watchdog
(:mod:`repro.runtime.watchdog`): ``completed``, ``aborted`` (assertion
halt), ``deadlock`` (everything stalled — reported with per-process traces
naming the blocked source lines, exactly the debugging workflow of the
paper's Section 5.1 second example), ``livelock`` (active but no stream
progress — the DES polling hang), and ``timeout`` (cycle budget exhausted
mid-progress). Runtime faults (:mod:`repro.faults.runtime`) can be
injected into the channel fabric and process registers, and under
``NABORT`` the watchdog can quarantine stuck processes so the rest of the
application — including in-flight assertion notifications — drains to
completion.

Quiet cycles are paid for once. Most Triple-DES cycles move nothing
outside one process: it computes a DES round while the board, the
collectors and every other process (the parked checker pipelines) wait.
After a cycle in which the board and collectors did nothing, no feeder
is left open, the image has no latency monitor, exactly one process was
active and it is a compiled one (``CompiledProcessExec.run_quiet``),
no stream word moved, and no channel was pushed, popped or closed since
the previous cycle, the next cycles can only repeat it: every stalled
process stalls again without changing state. So the active process
runs its quiet (channel-free) steps back to back, one call per cycle:
each quiet step function returns the next one, resolved when the
schedule was compiled, and a quiet inner loop (the DES rounds' bit
permutations) runs whole iterations in one call over Python locals,
counting a cycle per step and stopping at the budget. The cycle,
fault-clock, watchdog and stall counters of the rest of the system are
advanced by the stretch's length in bulk. A stretch stops before the cycle budget, before the livelock
window fires, and before any fault's next time edge
(:meth:`RuntimeFault.next_edge`), so ``HwResult`` is byte-identical to
ticking every cycle. The interpreter backend always ticks every cycle
and is the oracle for this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.faults.runtime import RuntimeFaultInjector
from repro.hls.compiler import CompiledProcess
from repro.hls.cyclemodel import Channel, ProcessExec, ProcessTrace
from repro.ir.instr import AssertionSite
from repro.runtime.taskgraph import Application
from repro.runtime.watchdog import (
    ABORTED,
    COMPLETED,
    HANG_REASONS,
    TIMEOUT,
    Watchdog,
    WatchdogConfig,
    WatchdogReport,
)


@dataclass
class CollectorSpec:
    """Shared-failure-channel collector (repro.core.share).

    ``inputs`` maps tap channels carrying failure events to bit positions of
    the packed word sent on ``output`` ("a single bit of the stream is used
    per assertion", Section 4.2).
    """

    inputs: list[tuple[str, int]] = field(default_factory=list)
    output: str = ""


@dataclass
class FailStreamDecode:
    """How the notifier interprets words arriving on one failure stream.

    ``mode='code'``: the word is an assertion error code (unoptimized
    framework, Section 4.1). ``mode='bitmask'``: each set bit identifies an
    assertion on this shared channel (resource sharing, Section 4.2).
    """

    mode: str
    table: dict[int, tuple[str, AssertionSite]] = field(default_factory=dict)


@dataclass
class HardwareImage:
    """A fully synthesized application, ready to execute or to estimate."""

    app: Application
    compiled: dict[str, CompiledProcess]
    assert_decode: dict[str, FailStreamDecode] = field(default_factory=dict)
    nabort: bool = False
    assertion_level: str = "none"
    #: timing assertions (repro.core.timing_assert.LatencyRegion)
    latency_regions: list = field(default_factory=list)
    #: simulation backend requested at synthesis time ("interp"/"compiled");
    #: execute() can still override per run
    sim_backend: str = "compiled"
    #: ``(artifact, name, function, filename, code_base)`` per placement
    placements: list = field(default_factory=list)

    def materialize(self) -> None:
        """Give each placed process instance and its checkers their own
        relocated IR; running or emitting an image's IR needs it first."""
        if not self.placements:
            return
        from repro.lab.incremental import materialize

        for art in materialize(self.placements):
            self.compiled[art.name] = art.compiled
            self.app.processes[art.name].func = art.func
            for plan in art.plans:
                self.compiled[plan.name] = art.compiled_checkers[plan.name]
                self.app.processes[plan.name].func = plan.checker
        self.placements = []

    def decode_failure(self, stream: str, word: int) -> list[tuple[str, AssertionSite]]:
        decode = self.assert_decode.get(stream)
        if decode is None:
            return []
        if decode.mode == "code":
            hit = decode.table.get(word)
            return [hit] if hit is not None else []
        # the bit range is defined by the decode table itself: a shared
        # failure channel wider than 32 assertions (wide share_word_width)
        # must not silently drop the high bits
        hits = []
        for bit in sorted(decode.table):
            if (word >> bit) & 1:
                hits.append(decode.table[bit])
        return hits


@dataclass
class HwResult:
    """Outcome of a hardware execution.

    ``reason`` is one of :data:`repro.runtime.watchdog.TERMINATIONS`:
    ``completed`` / ``aborted`` / ``deadlock`` / ``livelock`` /
    ``timeout`` — the legacy ``hung`` flag (which conflated the last
    three) survives as a derived property.
    """

    completed: bool
    cycles: int
    outputs: dict[str, list[int]] = field(default_factory=dict)
    #: warning dicts from compiled->interp backend fallbacks (RPR-K101)
    backend_diagnostics: list[dict] = field(default_factory=list)
    stderr: list[str] = field(default_factory=list)
    failures: list[tuple[str, AssertionSite]] = field(default_factory=list)
    aborted_by: AssertionSite | None = None
    reason: str = COMPLETED
    traces: list[ProcessTrace] = field(default_factory=list)
    process_stats: dict[str, dict] = field(default_factory=dict)
    #: cycle at which the first assertion failure reached the CPU notifier
    #: (detection latency for fault campaigns); None if none arrived
    first_failure_cycle: int | None = None
    #: processes retired by the watchdog's NABORT graceful degradation
    quarantined: list[str] = field(default_factory=list)
    watchdog: WatchdogReport | None = None
    #: what injected runtime faults actually did, in firing order
    fault_events: list[str] = field(default_factory=list)

    @property
    def aborted(self) -> bool:
        return self.aborted_by is not None

    @property
    def hung(self) -> bool:
        return self.reason in HANG_REASONS


class _Arbiter:
    """Round-robin merge of per-assertion tap FIFOs (the paper's Section
    3.3 future-work extension): one record per cycle moves from a member
    FIFO onto the merged channel, tagged with the assertion index and with
    the member's values placed at its slot offsets."""

    pending = 0  # drain-condition compatibility with _Collector

    def __init__(self, spec, taps: dict[str, Channel]):
        self.spec = spec
        self.taps = taps
        self.rr = 0

    def tick(self) -> bool:
        n = len(self.spec.inputs)
        for k in range(n):
            idx = (self.rr + k) % n
            ch = self.taps[self.spec.inputs[idx]]
            if ch.can_pop():
                record = ch.pop()
                slots = [0] * self.spec.total_slots
                base = self.spec.offsets[idx]
                for i, v in enumerate(record):
                    slots[base + i] = v
                self.taps[self.spec.output].push((idx, *slots))
                self.rr = (idx + 1) % n
                return True
        return False


class _LatencyMonitor:
    """Hardware latency monitor: a cycle counter per measured region plus a
    bound comparator (the paper's future-work timing assertions)."""

    pending = 0

    def __init__(self, region, taps: dict[str, Channel]):
        self.region = region
        self.taps = taps
        self.start_cycle: int | None = None
        self.violations: list[tuple[object, int]] = []

    def tick(self, cycle: int) -> bool:
        active = False
        start_ch = self.taps[self.region.start_channel]
        while start_ch.can_pop():
            start_ch.pop()
            self.start_cycle = cycle
            active = True
        end_ch = self.taps[self.region.end_channel]
        while end_ch.can_pop():
            end_ch.pop()
            active = True
            if self.start_cycle is None:
                continue  # end without start: extraction rejects this shape
            elapsed = cycle - self.start_cycle
            if elapsed > self.region.bound:
                self.violations.append((self.region, elapsed))
            self.start_cycle = None
        return active


class _Collector:
    """Cycle behaviour of a CollectorSpec: OR arriving failure bits into a
    sticky word and push it on the shared failure stream when non-zero."""

    def __init__(self, spec: CollectorSpec, taps: dict[str, Channel],
                 out: Channel):
        self.spec = spec
        self.inputs = [(taps[name], 1 << bit) for name, bit in spec.inputs]
        self.out = out
        self.pending = 0

    def tick(self) -> bool:
        active = False
        for ch, bit in self.inputs:
            while ch.queue:
                ch.pop()
                self.pending |= bit
                active = True
        if self.pending and self.out.can_push():
            self.out.push(self.pending)
            self.pending = 0
            active = True
        return active


def execute(
    image: HardwareImage,
    max_cycles: int = 2_000_000,
    idle_limit: int = 64,
    watchdog: WatchdogConfig | None = None,
    faults=(),
    sim_backend: str | None = None,
) -> HwResult:
    """Run the synthesized application cycle by cycle.

    ``watchdog`` overrides the termination watchdog configuration (the
    ``max_cycles``/``idle_limit`` arguments are folded into a default
    config when it is None). ``faults`` is an iterable of runtime faults
    (:mod:`repro.faults.runtime`) injected into the channel fabric and
    process registers for this run only. ``sim_backend`` overrides the
    image's synthesis-time backend choice (``None`` keeps it); fallbacks
    to the interpreter are recorded in ``HwResult.backend_diagnostics``.
    """
    cfg = watchdog or WatchdogConfig(max_cycles=max_cycles,
                                     idle_limit=idle_limit)
    image.materialize()
    return _execute(image, cfg, _backend(image, sim_backend), faults)


def execute_batch(
    image: HardwareImage,
    lane_faults: list,
    watchdog: WatchdogConfig | None = None,
    sim_backend: str | None = None,
) -> list[HwResult]:
    """One scalar run of ``image`` per entry of ``lane_faults``.

    Lane ``i`` is exactly ``execute(image, watchdog=watchdog,
    faults=lane_faults[i], sim_backend=sim_backend)``. The config and
    backend are resolved once for the batch, and the runs go through
    :func:`_execute` rather than :func:`execute`, so a span wrapped
    around either entry point counts each lane's cycles once.
    """
    cfg = watchdog or WatchdogConfig()
    backend = _backend(image, sim_backend)
    image.materialize()
    return [_execute(image, cfg, backend, faults) for faults in lane_faults]


def _backend(image: HardwareImage, sim_backend: str | None) -> str:
    from repro import simc

    return simc.resolve_backend(
        sim_backend or getattr(image, "sim_backend", None))


def _execute(image: HardwareImage, cfg: WatchdogConfig, backend: str,
             faults) -> HwResult:
    """The body of :func:`execute`, under a resolved config and backend."""
    from repro import simc

    app = image.app
    app.validate()

    channels: dict[str, Channel] = {}
    cpu_outputs: dict[str, list[int]] = {}
    feeders: dict[str, list[int]] = {}
    for sd in app.streams.values():
        channels[sd.name] = Channel(sd.name, width=sd.width, depth=sd.depth)
        if sd.cpu_fed:
            feeders[sd.name] = list(sd.feeder_data or [])
        if sd.cpu_bound:
            cpu_outputs[sd.name] = []
    taps: dict[str, Channel] = {
        name: Channel(name, unbounded=True) for name in app.taps
    }

    execs: dict[str, ProcessExec] = {}
    backend_diags: list[dict] = []
    for pd in app.fpga_processes():
        binding = {
            param: channels[sd.name]
            for param, sd in app.stream_binding(pd.name).items()
        }
        execs[pd.name] = simc.make_process_exec(
            image.compiled[pd.name].schedule,
            binding,
            taps=taps,
            ext_funcs=pd.ext_hw,
            name=pd.name,
            backend=backend,
            diagnostics=backend_diags,
        )

    collectors = [
        _Collector(pd.collector_spec, taps, channels[pd.collector_spec.output])
        for pd in app.processes.values()
        if pd.kind == "collector" and pd.collector_spec is not None
    ]
    collectors.extend(
        _Arbiter(pd.collector_spec, taps)
        for pd in app.processes.values()
        if pd.kind == "arbiter" and pd.collector_spec is not None
    )

    injector = RuntimeFaultInjector(faults)
    injector.attach(channels, execs)

    result = HwResult(completed=False, cycles=0, reason=TIMEOUT,
                      backend_diagnostics=backend_diags)
    # per-run invariants of the cycle loop
    fed_order = sorted(feeders)
    sink_order = sorted(cpu_outputs)
    feeds = [(channels[name], deque(feeders[name])) for name in fed_order]
    sinks = [(name, channels[name]) for name in sink_order]
    procs = [(pe, pe.tick) for pe in execs.values()]
    collector_ticks = [c.tick for c in collectors]
    # non-daemon executors not yet known to be done, last one checked
    # first; ``done`` never resets, so a finished executor is dropped once
    waited = [execs[pd.name] for pd in reversed(app.fpga_processes())
              if not pd.daemon]
    # feeders the board has not yet drained and closed; only the board
    # closes a feeder, so the scan stops for good once this reaches 0
    unclosed = len(feeds)
    feed_rr = 0
    sink_rr = 0
    halted = False

    def board_tick() -> bool:
        nonlocal feed_rr, sink_rr, unclosed
        moved = False
        # CPU -> FPGA: one word per cycle across all feeder streams
        if unclosed:
            n = len(feeds)
            for k in range(n):
                ch, data = feeds[(feed_rr + k) % n]
                if data and ch.can_push():
                    ch.push(data.popleft())
                    if not data:
                        ch.close()
                        unclosed -= 1
                    feed_rr = (feed_rr + k + 1) % n
                    moved = True
                    break
                if not data and not ch.closed:
                    ch.close()
                    unclosed -= 1
                    moved = True
        # FPGA -> CPU: one word per cycle across all sink streams
        n = len(sinks)
        for k in range(n):
            name, ch = sinks[(sink_rr + k) % n]
            if ch.queue:
                _deliver(name, ch.pop())
                sink_rr = (sink_rr + k + 1) % n
                return True
        return moved

    def _deliver(stream: str, word: int) -> None:
        nonlocal halted
        sd = app.streams[stream]
        if sd.role in ("assert_code", "assert_bitmask"):
            hits = image.decode_failure(stream, word)
            if hits and result.first_failure_cycle is None:
                result.first_failure_cycle = result.cycles
            for proc, site in hits:
                result.failures.append((proc, site))
                result.stderr.append(site.message())
                if not image.nabort:
                    result.aborted_by = site
                    halted = True
        else:
            cpu_outputs[stream].append(word)

    monitors = [
        _LatencyMonitor(region, taps) for region in image.latency_regions
    ]
    wd = Watchdog(cfg, app=app, execs=execs, channels=channels)
    observe = wd.observe
    inject = injector.tick
    quarantine_rounds = 0
    # every channel, and its push/pop/close count at the end of the last
    # quiet cycle
    all_chs = (*channels.values(), *taps.values())
    quiet_at = -1
    quiet_sig = -1

    while result.cycles < cfg.max_cycles:
        result.cycles += 1
        inject()
        fabric = board_tick()
        for tick in collector_ticks:
            if tick():
                fabric = True
        acting = [pe for pe, tick in procs if tick() == "active"]
        active = fabric or bool(acting)
        for monitor in monitors:
            if monitor.tick(result.cycles):
                active = True
            for region, elapsed in monitor.violations:
                if result.first_failure_cycle is None:
                    result.first_failure_cycle = result.cycles
                result.failures.append((region.process, region.site))
                result.stderr.append(region.message(elapsed))
                if not image.nabort:
                    result.aborted_by = region.site
                    halted = True
            monitor.violations.clear()
        if halted:
            result.reason = ABORTED
            break
        while waited and waited[-1].done:
            waited.pop()
        if not waited:
            # the application is done, but failure notifications may still
            # be in flight through checker pipelines, collectors and the
            # board link — drain everything before declaring completion
            drained = (
                all(not ch.queue for _name, ch in sinks)
                and all(not ch.queue for ch in taps.values())
                and all(c.pending == 0 for c in collectors)
                and not active
            )
            if drained:
                result.completed = True
                result.reason = COMPLETED
                break
        verdict = observe(active)
        if verdict is not None:
            # graceful degradation: under NABORT the stuck processes are
            # quarantined (retired, their output streams closed) so the
            # survivors — and every failure word still in flight — drain
            if (cfg.quarantine and image.nabort
                    and quarantine_rounds < cfg.max_quarantine_rounds):
                victims = wd.victims(verdict)
                if victims:
                    quarantine_rounds += 1
                    if result.watchdog is None:
                        # triage snapshot from the moment the watchdog
                        # fired, even if the run then drains to completion
                        result.watchdog = wd.report(verdict)
                    for name in victims:
                        execs[name].quarantine()
                        for sd in app.streams.values():
                            if (sd.source is not None
                                    and sd.source.process == name):
                                channels[sd.name].close()
                    result.quarantined.extend(victims)
                    wd.reset_after_quarantine(victims)
                    continue
            result.reason = verdict
            result.traces = [pe.trace() for pe in execs.values()]
            result.watchdog = wd.report(verdict)
            break
        if (len(acting) == 1 and not fabric and not unclosed
                and not monitors and wd.stagnant
                and hasattr(acting[0], "run_quiet")):
            # a quiet cycle repeats until something outside the lone
            # process can change (module docstring); the channel count
            # tells whether anything moved since the previous cycle
            sig = sum([ch.pushes + ch.pops + ch.closed for ch in all_chs])
            if quiet_at == result.cycles - 1 and sig == quiet_sig:
                lone = acting[0]
                budget = min(cfg.max_cycles - result.cycles,
                             cfg.livelock_window - wd.stagnant) - 1
                edge = injector.next_edge()
                if edge is not None:
                    budget = min(budget, edge - injector.cycle - 1)
                n = lone.run_quiet(budget)
                result.cycles += n
                injector.cycle += n
                wd.skip(n)
                for pe in execs.values():
                    if pe is not lone and not pe.done:
                        pe.cycles += n
                        pe.stall_cycles += n
            quiet_at, quiet_sig = result.cycles, sig
    else:
        result.reason = TIMEOUT
        result.traces = [pe.trace() for pe in execs.values()]
        result.watchdog = wd.report(TIMEOUT)

    for name in sink_order:
        sd = app.streams[name]
        if sd.role is None:
            result.outputs[name] = cpu_outputs[name]
    for name, pe in execs.items():
        result.process_stats[name] = {
            "cycles": pe.cycles,
            "stalls": pe.stall_cycles,
            "iterations": pe.iterations_started,
            "stream_ops": pe.stream_ops,
            "quarantined": pe.quarantined,
            "backend": getattr(pe, "backend", "interp"),
        }
    result.fault_events = injector.event_log()
    injector.detach()
    return result
