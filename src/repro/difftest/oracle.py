"""Three-way lockstep oracle: interpreter vs cycle model vs RTL simulator.

One program, three executable semantics:

1. the IR interpreter (:mod:`repro.ir.interp`) — the software-simulation
   reference, exact C width rules, idealized timing;
2. the HLS cycle model (:mod:`repro.hls.cyclemodel`) — the schedule-level
   semantics of the synthesized FSMD;
3. the RTL simulator (:mod:`repro.rtl.sim`) — the generated
   register-transfer structure itself.

The oracle first checks interpreter outputs against a standalone cycle
model run (functional equivalence of software and hardware semantics),
then replays the cycle model against the RTL simulator *in lockstep*,
clock tick by clock tick, comparing stream traffic as it appears and
tracking the first register whose value disagrees with its scheduled
temp. A divergence report therefore names the phase that disagreed, the
stream/index or cycle/FSM-state/signal where it first became visible and
both values — the localization the reducer and CI artifacts carry.

Assertions are handled by instrumenting the IR once
(:func:`repro.core.instrument.instrument_unoptimized`) and running **all
three** models on the instrumented function: ``assert`` becomes a branch
plus an error-code write to the appended ``__afail`` stream, which the
comparison then treats as just another output. This sidesteps the cycle
model's (deliberate) refusal to execute raw ``assert_check`` ops and
makes assertion behaviour itself differential-tested.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.instrument import instrument_unoptimized
from repro.errors import ReproError, SimCompileError, SimulationError
from repro.frontend.lowering import lower_source
from repro.hls.compiler import CompiledProcess, compile_process
from repro.hls.constraints import HLSConfig
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.ir.function import IRFunction
from repro.ir.interp import run_to_completion
from repro.ir.ops import OpKind
from repro.rtl.sim import RtlSim
from repro.utils.bitops import truncate
from repro.utils.idgen import stable_fingerprint

__all__ = ["DiffReport", "DifftestError", "Divergence",
           "divergence_diagnostics", "run_difftest"]

#: error codes for instrumented assertions start here (matches nothing a
#: generated program writes on its own data stream)
ASSERT_CODE_BASE = 0xA000


class DifftestError(ReproError):
    """The harness itself failed (bad program, compile error) — distinct
    from a genuine model divergence."""

    code_prefix = "RPR-Y"


@dataclass
class Divergence:
    """First observable disagreement between two execution models."""

    # 'interp-vs-cyclemodel' | 'cyclemodel-vs-rtl' (plus the strict
    # compiled legs 'cyclemodel-vs-quiet' and 'cyclemodel-vs-compiled')
    phase: str
    kind: str   # 'stream-data' | 'stream-count' | 'cycle-count' | 'hang' | 'error'
    message: str
    stream: str | None = None
    index: int | None = None
    cycle: int | None = None
    state: str | None = None     # RTL FSM state label
    location: str | None = None  # cycle-model block[step]
    signal: str | None = None    # first diverging register, if localized
    values: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"phase": self.phase, "kind": self.kind,
               "message": self.message}
        for k in ("stream", "index", "cycle", "state", "location", "signal"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.values:
            out["values"] = dict(self.values)
        return out

    def describe(self) -> str:
        bits = [f"{self.phase}: {self.kind}"]
        if self.stream is not None:
            bits.append(f"stream={self.stream}[{self.index}]")
        if self.cycle is not None:
            bits.append(f"cycle={self.cycle}")
        if self.state is not None:
            bits.append(f"state={self.state}")
        if self.signal is not None:
            bits.append(f"signal={self.signal}")
        if self.values:
            vals = ", ".join(f"{k}={v}" for k, v in self.values.items())
            bits.append(f"({vals})")
        return " ".join(bits)


#: diagnostic code for a genuine model divergence (harness errors keep
#: their own RPR-Y00x codes)
DIVERGENCE_CODE = "RPR-Y100"


def divergence_diagnostics(div) -> list[dict]:
    """Structured diagnostic dicts for a divergence (or ``[]`` for None).

    Accepts a :class:`Divergence` or its :meth:`Divergence.as_dict` form.
    Deterministic for a fixed divergence, which is what lets difftest
    failure bundles replay bit-identically: the bundle stores the dicts
    this produced at campaign time, and ``repro replay`` compares them
    against a fresh run through the same function.
    """
    from repro.diagnostics.core import Diagnostic

    if div is None:
        return []
    if isinstance(div, dict):
        fields = {k: div[k] for k in ("phase", "kind", "message", "stream",
                                      "index", "cycle", "state", "location",
                                      "signal", "values") if k in div}
        div = Divergence(**fields)
    return [Diagnostic(
        code=DIVERGENCE_CODE,
        severity="error",
        message=div.describe(),
        notes=(div.message,),
        hint="replay the failure bundle with 'repro replay' to confirm "
             "the divergence reproduces",
    ).to_dict()]


#: how many recent per-cycle register snapshots the lockstep loop retains
#: for divergence context (ring buffer; tuples, not dict copies)
REG_WINDOW = 8


@dataclass
class DiffReport:
    """Outcome of one three-way differential run."""

    divergence: Divergence | None
    outputs: dict[str, list[int]]  # interpreter-side reference outputs
    interp_steps: int = 0
    cm_cycles: int = 0
    rtl_cycles: int = 0
    assertions: int = 0  # instrumented assertion count
    #: last :data:`REG_WINDOW` register-file snapshots before a
    #: cyclemodel-vs-rtl divergence (empty when the run agreed)
    reg_window: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None


# ---- helpers ----------------------------------------------------------------


def _stream_roles(func: IRFunction) -> tuple[set[str], set[str]]:
    reads, writes = set(), set()
    for instr in func.instructions():
        if instr.op == OpKind.STREAM_READ:
            reads.add(instr.attrs["stream"])
        elif instr.op in (OpKind.STREAM_WRITE, OpKind.STREAM_CLOSE):
            writes.add(instr.attrs["stream"])
    return reads, writes


def _fresh_channels(func: IRFunction, reads: set[str], writes: set[str],
                    feed: dict[str, list[int]]) -> dict[str, Channel]:
    channels: dict[str, Channel] = {}
    for s in func.stream_names():
        depth = 1_000_000 if s in writes and s not in reads else 4096
        channels[s] = Channel(s, depth=depth)
    for s, data in feed.items():
        for v in data:
            channels[s].push(v)
        channels[s].close()
    return channels


def _prepare(source: str, filename: str) -> tuple[IRFunction, int]:
    """Lower and (if needed) instrument; returns (func, assertion count)."""
    try:
        module = lower_source(source, filename=filename)
    except ReproError as exc:
        raise DifftestError(f"frontend rejected program: {exc}", code="RPR-Y001") from exc
    names = sorted(module.functions)
    if len(names) != 1:
        raise DifftestError(f"expected one process, got {names}", code="RPR-Y002")
    func = module.functions[names[0]].clone()
    has_asserts = any(i.op == OpKind.ASSERT_CHECK
                      for i in func.instructions())
    n = 0
    if has_asserts:
        codes = itertools.count(ASSERT_CODE_BASE)
        n = instrument_unoptimized(func, lambda site: next(codes))
    return func, n


def _compile(func: IRFunction, faults: tuple, cache) -> CompiledProcess:
    key = None
    if cache is not None and cache.enabled:
        fp = stable_fingerprint("difftest-compile", str(func), repr(faults))
        key = f"dt-{fp:016x}"
        cached = cache.get(key)
        if cached is not None:
            return cached
    try:
        config = HLSConfig(faults=tuple(faults)) if faults else None
        cp = compile_process(func, config)
        cp.rtl  # force codegen inside the cacheable unit
    except ReproError as exc:
        raise DifftestError(f"HLS compile failed: {exc}", code="RPR-Y003") from exc
    if key is not None:
        cache.put(key, cp)
    return cp


# ---- the oracle -------------------------------------------------------------


def run_difftest(
    source: str,
    feed,
    *,
    filename: str = "difftest.c",
    faults: tuple = (),
    max_cycles: int = 200_000,
    cache=None,
    sim_backend: str = "interp",
) -> DiffReport:
    """Run ``source`` through all three models; report the first divergence.

    ``feed`` is the word sequence for the single input stream. ``faults``
    are :mod:`repro.faults.ir` translation faults applied to the
    hardware-side IR only (the interpreter keeps the clean function), so a
    non-empty tuple *should* produce a divergence — that is how the oracle
    itself is tested. ``cache`` is an optional
    :class:`repro.lab.cache.SynthesisCache` memoizing compilation.

    ``sim_backend="compiled"`` adds the :mod:`repro.simc` compiled cycle
    model twice: in the lockstep loop, compared tick-for-tick against
    the interpreted cycle model (phase ``cyclemodel-vs-compiled``); then
    run as ``execute`` runs a lone process, its quiet steps and fused
    quiet loops in bulk, and compared at the end (phase
    ``cyclemodel-vs-quiet``). Either way the RTL side is the
    interpreted :class:`RtlSim`. The compiled leg is constructed in
    strict mode: a schedule the code generator cannot specialize is a
    harness error (RPR-Y008), not a silent fallback.
    """
    if sim_backend not in ("interp", "compiled"):
        raise DifftestError(
            f"unknown sim backend {sim_backend!r}; expected "
            "interp/compiled", code="RPR-Y009")
    func, n_asserts = _prepare(source, filename)
    reads, writes = _stream_roles(func)
    if len(reads) > 1:
        raise DifftestError(f"expected at most one input stream, got {reads}", code="RPR-Y004")
    in_stream = next(iter(reads)) if reads else None
    out_streams = sorted(writes - reads)
    stimulus = {in_stream: list(feed)} if in_stream else {}

    # -- phase 0: software reference ---------------------------------------
    try:
        ires, sw_out = run_to_completion(func, stimulus)
    except SimulationError as exc:
        raise DifftestError(f"interpreter failed on program: {exc}", code="RPR-Y005") from exc
    sw_out = {s: sw_out.get(s, []) for s in out_streams}

    cp = _compile(func, faults, cache)
    report = DiffReport(divergence=None, outputs=sw_out,
                        interp_steps=ires.steps, assertions=n_asserts)

    # -- phase 1: interpreter vs standalone cycle model ---------------------
    channels = _fresh_channels(cp.hw_func, reads, writes, stimulus)
    pe = ProcessExec(cp.schedule, channels)
    error: str | None = None
    try:
        while not pe.done and pe.cycles < max_cycles:
            pe.tick()
    except SimulationError as exc:
        error = str(exc)
    report.cm_cycles = pe.cycles
    if error is not None:
        report.divergence = Divergence(
            phase="interp-vs-cyclemodel", kind="error",
            message=f"cycle model raised: {error}",
            cycle=pe.cycles, location=f"{pe.block}[{pe.step}]",
        )
        return report
    if not pe.done:
        report.divergence = Divergence(
            phase="interp-vs-cyclemodel", kind="hang",
            message=f"cycle model not done after {max_cycles} cycles "
                    f"(interpreter finished in {ires.steps} steps)",
            cycle=pe.cycles, location=f"{pe.block}[{pe.step}]",
        )
        return report
    for s in out_streams:
        hw = list(channels[s].queue)
        ref = sw_out[s]
        for i, (a, b) in enumerate(zip(ref, hw)):
            if truncate(a, channels[s].width) != b:
                report.divergence = Divergence(
                    phase="interp-vs-cyclemodel", kind="stream-data",
                    message=f"output {s}[{i}]: interpreter wrote "
                            f"{truncate(a, channels[s].width)}, "
                            f"cycle model wrote {b}",
                    stream=s, index=i,
                    values={"interp": truncate(a, channels[s].width),
                            "cyclemodel": b},
                )
                return report
        if len(ref) != len(hw):
            report.divergence = Divergence(
                phase="interp-vs-cyclemodel", kind="stream-count",
                message=f"output {s}: interpreter wrote {len(ref)} words, "
                        f"cycle model wrote {len(hw)}",
                stream=s, index=min(len(ref), len(hw)),
                values={"interp": len(ref), "cyclemodel": len(hw)},
            )
            return report

    # -- phase 2: cycle model vs RTL, in lockstep ---------------------------
    d = _lockstep(cp, reads, writes, stimulus, out_streams, max_cycles,
                  report, sim_backend=sim_backend)
    if d is None and sim_backend == "compiled":
        d = _quiet_leg(cp, reads, writes, stimulus, out_streams, max_cycles,
                       pe, channels)
    report.divergence = d

    return report


def _strict_exec(cp: CompiledProcess, channels: dict[str, Channel]):
    """The compiled cycle model of ``cp``; a schedule the code generator
    cannot specialize is a harness error, not a silent fallback."""
    from repro import simc

    try:
        return simc.make_process_exec(cp.schedule, channels, strict=True)
    except (SimCompileError, SimulationError) as exc:
        raise DifftestError(
            f"compiled backend rejected design: {exc}", code="RPR-Y008"
        ) from exc


def _quiet_leg(cp: CompiledProcess, reads, writes, stimulus, out_streams,
               max_cycles: int, pe: ProcessExec,
               channels: dict[str, Channel]) -> Divergence | None:
    """Run the compiled cycle model as ``execute`` runs a lone process:
    after each tick, every quiet step and fused quiet loop it reaches in
    one ``run_quiet`` call (the lockstep leg ticks and never takes one).
    Its output streams and cycle count must equal the interpreted cycle
    model's, ``pe`` on ``channels`` from phase 1."""
    ch = _fresh_channels(cp.hw_func, reads, writes, stimulus)
    cpe = _strict_exec(cp, ch)
    try:
        while not cpe.done and cpe.cycles < max_cycles:
            cpe.tick()
            if not cpe.done:
                cpe.run_quiet(max_cycles - cpe.cycles)
    except SimulationError as exc:
        return Divergence(phase="cyclemodel-vs-quiet", kind="error",
                          message=f"compiled cycle model raised: {exc}",
                          cycle=cpe.cycles)
    got = {s: list(ch[s].queue) for s in out_streams}
    want = {s: list(channels[s].queue) for s in out_streams}
    if got != want or cpe.cycles != pe.cycles:
        return Divergence(
            phase="cyclemodel-vs-quiet", kind="backend",
            message=f"compiled cycle model run in quiet stretches wrote "
                    f"{sum(map(len, got.values()))} words in {cpe.cycles} "
                    f"cycles, the interpreted one "
                    f"{sum(map(len, want.values()))} in {pe.cycles} (or "
                    "contents differ)",
            values={"interp": pe.cycles, "compiled": cpe.cycles},
            cycle=min(cpe.cycles, pe.cycles))
    return None


def _lockstep(cp: CompiledProcess, reads, writes, stimulus, out_streams,
              max_cycles: int, report: DiffReport,
              sim_backend: str = "interp") -> Divergence | None:
    func = cp.hw_func
    ch_cm = _fresh_channels(func, reads, writes, stimulus)
    ch_rt = _fresh_channels(func, reads, writes, stimulus)
    pe = ProcessExec(cp.schedule, ch_cm)
    try:
        sim = RtlSim(cp.rtl, ch_rt)
    except SimulationError as exc:
        raise DifftestError(f"RTL simulator rejected module: {exc}", code="RPR-Y006") from exc

    # optional compiled leg: the simc-specialized cycle model replays the
    # identical stimulus on its own channels; any tick where its status,
    # environment or stream traffic differs from the interpreted cycle
    # model is a backend divergence
    cpe = None
    ch_ccm = None
    if sim_backend == "compiled":
        ch_ccm = _fresh_channels(func, reads, writes, stimulus)
        cpe = _strict_exec(cp, ch_ccm)

    labels = {sc.index: sc.label for sc in cp.rtl.states}
    checked = {s: 0 for s in out_streams}
    # first (cycle, reg, cm value, rtl value) where a scheduled temp and
    # its register disagree — used to *localize* a later observable
    # divergence, never to declare one by itself (transient skew between
    # the models' update points within a cycle is legal)
    reg_delta: tuple[int, str, int, int] | None = None
    scalars = {n: t for n, t in func.scalars.items()
               if f"r_{n}" in sim.regs}
    # lazy per-cycle capture: one itemgetter call per side builds a value
    # tuple at C speed; the per-register truncate/compare scan only runs
    # on the (at most one) cycle where the tuples first disagree. The
    # ring buffer keeps the last few snapshots for divergence context.
    reg_names = list(scalars)
    cm_get = rt_get = None
    if reg_names:
        cm_get = itemgetter(*reg_names)
        rt_get = itemgetter(*[f"r_{n}" for n in reg_names])
        if len(reg_names) == 1:  # itemgetter of one key returns a scalar
            _cg, _rg = cm_get, rt_get
            cm_get = lambda d, g=_cg: (g(d),)  # noqa: E731
            rt_get = lambda d, g=_rg: (g(d),)  # noqa: E731
    ring: deque = deque(maxlen=REG_WINDOW)

    def flush_ring() -> None:
        report.reg_window = [
            {"cycle": c,
             "cyclemodel": dict(zip(reg_names, a)),
             "rtl": dict(zip(reg_names, b))}
            for c, a, b in ring
        ]

    def here(cycle: int) -> dict:
        state = labels.get(sim.regs.get("state"), "?")
        loc = "done" if pe.done else f"{pe.block}[{pe.step}]"
        d = {"cycle": cycle, "state": state, "location": loc}
        if reg_delta is not None:
            d["cycle"] = reg_delta[0]
            d["signal"] = reg_delta[1]
        flush_ring()
        return d

    for cycle in range(1, max_cycles + 1):
        try:
            s_cm = pe.tick() if not pe.done else "done"
        except SimulationError as exc:
            return Divergence(phase="cyclemodel-vs-rtl", kind="error",
                              message=f"cycle model raised: {exc}",
                              **here(cycle))
        try:
            s_rt = sim.tick() if not sim.done else "done"
        except SimulationError as exc:
            return Divergence(phase="cyclemodel-vs-rtl", kind="error",
                              message=f"RTL simulator raised: {exc}",
                              **here(cycle))

        if cpe is not None:
            d = _compiled_step(cycle, s_cm, pe, cpe, here)
            if d is not None:
                return d

        for s in out_streams:
            qa, qb = list(ch_cm[s].queue), list(ch_rt[s].queue)
            n = min(len(qa), len(qb))
            for i in range(checked[s], n):
                if qa[i] != qb[i]:
                    loc = here(cycle)
                    values = {"cyclemodel": qa[i], "rtl": qb[i]}
                    if reg_delta is not None:
                        values["cyclemodel_reg"] = reg_delta[2]
                        values["rtl_reg"] = reg_delta[3]
                    return Divergence(
                        phase="cyclemodel-vs-rtl", kind="stream-data",
                        message=f"output {s}[{i}]: cycle model wrote "
                                f"{qa[i]}, RTL wrote {qb[i]}",
                        stream=s, index=i, values=values, **loc,
                    )
            checked[s] = n

        if reg_delta is None and cm_get is not None \
                and not pe.done and not sim.done:
            cm_t = cm_get(pe.env)
            rt_t = rt_get(sim.regs)
            ring.append((cycle, cm_t, rt_t))
            if cm_t != rt_t:
                # localize with the exact historical semantics: compare
                # width-truncated env values in declaration order, first
                # mismatch wins (a raw-pattern difference that truncates
                # equal is not a delta)
                for name, ty in scalars.items():
                    cm_v = truncate(pe.env.get(name, 0), ty.width)
                    rt_v = sim.regs[f"r_{name}"]
                    if cm_v != rt_v:
                        reg_delta = (cycle, f"r_{name}", cm_v, rt_v)
                        break

        if s_cm == "done" and s_rt == "done":
            break
    else:
        who = ("cycle model" if not pe.done else
               "RTL simulator" if not sim.done else "both")
        return Divergence(phase="cyclemodel-vs-rtl", kind="hang",
                          message=f"{who} not done after {max_cycles} "
                                  f"lockstep cycles", **here(max_cycles))

    report.rtl_cycles = sim.cycles
    report.cm_cycles = pe.cycles

    for s in out_streams:
        qa, qb = list(ch_cm[s].queue), list(ch_rt[s].queue)
        if len(qa) != len(qb):
            return Divergence(
                phase="cyclemodel-vs-rtl", kind="stream-count",
                message=f"output {s}: cycle model wrote {len(qa)} words, "
                        f"RTL wrote {len(qb)}",
                stream=s, index=min(len(qa), len(qb)),
                values={"cyclemodel": len(qa), "rtl": len(qb)},
                **here(sim.cycles),
            )
    if pe.cycles != sim.cycles:
        return Divergence(
            phase="cyclemodel-vs-rtl", kind="cycle-count",
            message=f"cycle model finished in {pe.cycles} cycles, "
                    f"RTL in {sim.cycles}",
            values={"cyclemodel": pe.cycles, "rtl": sim.cycles},
            **here(sim.cycles),
        )

    if cpe is not None:
        d = _compiled_final(pe, cpe, ch_cm, ch_ccm, out_streams, here)
        if d is not None:
            return d
    return None


def _compiled_step(cycle, s_cm, pe, cpe, here):
    """One lockstep tick of the compiled cycle model, compared to the
    interpreted one. Status, exception text, FSM position and the full
    environment must match every cycle — the environment comparison is
    plain dict equality, so the common all-agree case costs one C-level
    compare."""
    try:
        s_ccm = cpe.tick() if not cpe.done else "done"
        e_ccm = None
    except SimulationError as exc:
        s_ccm, e_ccm = "error", str(exc)

    if s_ccm != s_cm or e_ccm is not None \
            or (pe.block, pe.step) != (cpe.block, cpe.step):
        return Divergence(
            phase="cyclemodel-vs-compiled", kind="backend",
            message=f"compiled cycle model diverged at cycle {cycle}: "
                    f"interp {s_cm} at {pe.block}[{pe.step}], "
                    f"compiled {s_ccm} at {cpe.block}[{cpe.step}]"
                    + (f" ({e_ccm})" if e_ccm else ""),
            values={"interp": s_cm, "compiled": e_ccm or s_ccm},
            **here(cycle))
    if pe.env != cpe.env:
        diffs = {k: (pe.env.get(k), cpe.env.get(k))
                 for k in set(pe.env) | set(cpe.env)
                 if pe.env.get(k) != cpe.env.get(k)}
        name = sorted(diffs)[0]
        return Divergence(
            phase="cyclemodel-vs-compiled", kind="backend",
            message=f"compiled cycle model env diverged at cycle {cycle}: "
                    f"{name} interp={diffs[name][0]} "
                    f"compiled={diffs[name][1]}",
            signal=name,
            values={"interp": diffs[name][0], "compiled": diffs[name][1]},
            cycle=cycle)
    return None


def _compiled_final(pe, cpe, ch_cm, ch_ccm, out_streams, here):
    """End-of-run checks for the compiled leg: stream contents and the
    cycle and stall counters must be bit-identical."""
    for s in out_streams:
        a, b = ch_cm[s], ch_ccm[s]
        if list(a.queue) != list(b.queue):
            return Divergence(
                phase="cyclemodel-vs-compiled", kind="backend",
                message=f"output {s}: interp backend wrote "
                        f"{len(a.queue)} words, compiled wrote "
                        f"{len(b.queue)} (or contents differ)",
                stream=s,
                values={"interp": len(a.queue),
                        "compiled": len(b.queue)},
                **here(pe.cycles))
    for what, a, b in (("cycles", pe.cycles, cpe.cycles),
                       ("stalls", pe.stall_cycles, cpe.stall_cycles)):
        if a != b:
            return Divergence(
                phase="cyclemodel-vs-compiled", kind="backend",
                message=f"{what}: interp backend counted {a}, "
                        f"compiled counted {b}",
                values={"interp": a, "compiled": b},
                **here(pe.cycles))
    return None
