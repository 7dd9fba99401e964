"""Cycle-accurate execution of scheduled processes ("hardware execution").

This is the authoritative timing model of the generated circuits: it
executes :class:`FunctionSchedule` objects state-by-state and pipelines
stage-by-stage, with the same stall behaviour the generated RTL has
(stream handshakes, block-RAM port reservations, pipeline initiation every
II cycles). Values are evaluated through :mod:`repro.ir.semantics`, so a
divergence from software simulation can only come from *timing* or from a
deliberately injected translation fault — the two bug classes the paper's
in-circuit assertions target.

Register semantics: within a clock cycle, instructions execute in schedule
order (combinational chaining); cross-iteration pipeline values commit at
the end of the cycle, so concurrent iterations observe start-of-cycle
state, as flip-flops do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.ir import semantics
from repro.ir.function import IRFunction
from repro.ir.instr import Branch, Instr, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, Temp, Value
from repro.hls.schedule import FunctionSchedule
from repro.utils.bitops import truncate


class Channel:
    """A FIFO channel: co_stream between processes/CPU, or a tap channel.

    Tap channels carry tuples and are unbounded in the model: the paper's
    HDL instrumentation connects assertion data with dedicated wires/FIFOs
    sized so the checker (which pipelines at the application's rate) never
    back-pressures the application; the area model charges a fixed FIFO.

    ``faults`` holds runtime-fault hooks (:mod:`repro.faults.runtime`)
    attached by a :class:`~repro.faults.runtime.RuntimeFaultInjector`;
    ``clock`` is that injector (supplying the current cycle). Both the
    cycle model and the RTL simulator move words through these methods, so
    an attached fault is honored identically by either backend. A
    duplicated word may transiently exceed ``depth`` by one entry; the
    FIFO then back-pressures until it drains.
    """

    def __init__(self, name: str, width: int = 32, depth: int = 16,
                 unbounded: bool = False):
        self.name = name
        self.width = width
        self.depth = depth
        self.unbounded = unbounded
        self.queue: deque = deque()
        self.closed = False
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0
        self.faults: list = []
        self.clock = None

    def _now(self) -> int:
        return self.clock.cycle if self.clock is not None else 0

    def can_push(self) -> bool:
        if self.faults:
            now = self._now()
            if any(f.blocks_push(self, now) for f in self.faults):
                return False
        return self.unbounded or len(self.queue) < self.depth

    def push(self, value) -> None:
        if not self.can_push():
            raise SimulationError(f"push to full channel {self.name}", code="RPR-X201")
        self.pushes += 1
        values = [value]
        if self.faults:
            now = self._now()
            for fault in self.faults:
                values = [out for v in values for out in fault.on_push(v, self, now)]
        self.queue.extend(values)
        self.max_occupancy = max(self.max_occupancy, len(self.queue))

    def can_pop(self) -> bool:
        return bool(self.queue)

    def pop(self):
        self.pops += 1
        return self.queue.popleft()

    def close(self) -> None:
        self.closed = True

    @property
    def at_eos(self) -> bool:
        return self.closed and not self.queue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Channel {self.name} n={len(self.queue)}"
                f"{' closed' if self.closed else ''}>")


@dataclass
class ProcessTrace:
    """Where a process is, for hang reports (paper Section 5.1, example 2)."""

    process: str
    mode: str
    location: str
    waiting_on: list[str] = field(default_factory=list)
    source_lines: list[tuple[str, int]] = field(default_factory=list)

    def __str__(self) -> str:
        wait = f" waiting on {', '.join(self.waiting_on)}" if self.waiting_on else ""
        src = ""
        if self.source_lines:
            src = " at " + "; ".join(f"{f}:{line}" for f, line in self.source_lines)
        return f"{self.process}: {self.mode} {self.location}{wait}{src}"


_STREAMLIKE = (OpKind.STREAM_READ, OpKind.STREAM_WRITE, OpKind.STREAM_CLOSE,
               OpKind.TAP_READ)


def _images(fsched: FunctionSchedule) -> dict[str, list[int]]:
    """Every array's initial memory image, built once per schedule and
    copied for each run."""
    memo = fsched.memo()
    images = memo.get("images")
    if images is None:
        images = memo["images"] = {}
        for name, arr in fsched.func.arrays.items():
            image = images[name] = [0] * arr.size
            for i, v in enumerate(arr.init or ()):
                image[i] = truncate(v, arr.elem.width)
    return images


class ProcessExec:
    """Executes one scheduled process cycle by cycle.

    ``streams`` binds each co_stream parameter to a :class:`Channel`;
    ``taps`` binds tap channel names (both the producing TAP side and the
    consuming TAP_READ side use the same mapping).
    """

    #: which simulation backend this class implements (repro.simc overrides)
    backend = "interp"

    def __init__(
        self,
        fsched: FunctionSchedule,
        streams: dict[str, Channel],
        taps: dict[str, Channel] | None = None,
        ext_funcs: dict[str, Callable[[int], int]] | None = None,
        name: str | None = None,
    ) -> None:
        self.fsched = fsched
        self.func: IRFunction = fsched.func
        self.name = name or self.func.name
        self.streams = streams
        self.taps = taps or {}
        self.ext_funcs = ext_funcs or {}
        missing = [s for s in self.func.stream_names() if s not in streams]
        if missing:
            raise SimulationError(f"{self.name}: unbound streams {missing}", code="RPR-X202")

        self.env: dict[str, int] = {n: 0 for n in self.func.scalars}
        self.memories: dict[str, list[int]] = {
            name: list(image) for name, image in _images(fsched).items()}

        self.mode = "seq"
        self.block = self.func.entry
        self.step = 0
        self.cycles = 0
        self.stall_cycles = 0
        self.iterations_started = 0
        #: successful stream handshakes (reads that popped, writes) — the
        #: forward-progress signal the runtime watchdog monitors
        self.stream_ops = 0
        self.done = False
        self.quarantined = False
        # pipeline state
        self._pipe = None
        self._inflight: list[dict] = []
        self._since_init = 10 ** 9
        self._draining = False
        self._pending_env: list[tuple[str, int]] = []
        self._pending_mem: list[tuple[str, int, int]] = []
        self._enter_block(self.func.entry)

    # ---- value plumbing -------------------------------------------------------

    def _read(self, value: Value, overlay: dict | None = None) -> int:
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Temp):
            if overlay is not None and value.name in overlay:
                return overlay[value.name]
            return self.env[value.name]
        raise SimulationError(f"{self.name}: bad operand {value!r}", code="RPR-X203")

    def _write(self, temp: Temp, pattern: int, overlay: dict | None) -> None:
        pattern = truncate(pattern, temp.ty.width)
        if overlay is None:
            self.env[temp.name] = pattern
        else:
            overlay[temp.name] = pattern
            self._pending_env.append((temp.name, pattern))

    # ---- instruction execution ---------------------------------------------------

    def _channel_for(self, instr: Instr) -> Channel:
        if "stream" in instr.attrs:
            return self.streams[instr.attrs["stream"]]
        return self.taps[instr.attrs["channel"]]

    def _pred_value(self, instr: Instr, overlay: dict | None) -> bool:
        pred = instr.attrs.get("pred")
        if pred is None:
            return True
        return self._read(pred, overlay) != 0

    def _stream_ready(self, instr: Instr, overlay: dict | None) -> bool:
        if instr.op not in _STREAMLIKE:
            return True
        if not self._pred_value(instr, overlay):
            return True  # squashed handshake never stalls
        ch = self._channel_for(instr)
        if instr.op in (OpKind.STREAM_READ, OpKind.TAP_READ):
            return ch.can_pop() or ch.closed
        if instr.op == OpKind.STREAM_WRITE:
            return ch.can_push()
        return True  # close

    def _exec(self, instr: Instr, overlay: dict | None) -> None:
        """Execute one instruction; assumes readiness was established."""
        if not self._pred_value(instr, overlay):
            return
        op = instr.op
        if op in (OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT):
            src = instr.args[0]
            self._write(instr.dest,
                        semantics.cast(op, self._read(src, overlay), src.ty),
                        overlay)
        elif op in (OpKind.NEG, OpKind.NOT, OpKind.LNOT):
            src = instr.args[0]
            self._write(instr.dest,
                        semantics.unop(op, self._read(src, overlay), src.ty),
                        overlay)
        elif op == OpKind.SELECT:
            cond, a, b = instr.args
            chosen = a if self._read(cond, overlay) != 0 else b
            self._write(instr.dest,
                        semantics.interpret(self._read(chosen, overlay), chosen.ty),
                        overlay)
        elif op in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
                    OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR):
            a, b = instr.args
            r = semantics.binop(op, self._read(a, overlay), a.ty,
                                self._read(b, overlay), b.ty, where=self.name)
            self._write(instr.dest, r, overlay)
        elif op in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE,
                    OpKind.GT, OpKind.GE):
            a, b = instr.args
            # ``force_compare_width`` is the narrow-compare translation
            # fault (paper Section 5.1): present only on hardware-side IR.
            r = semantics.compare(
                op, self._read(a, overlay), a.ty, self._read(b, overlay), b.ty,
                force_width=instr.attrs.get("force_compare_width"),
            )
            self._write(instr.dest, r, overlay)
        elif op == OpKind.LOAD:
            mem = self.memories[instr.attrs["array"]]
            idx = semantics.interpret(self._read(instr.args[0], overlay),
                                      instr.args[0].ty)
            # Hardware address decoding wraps rather than trapping.
            self._write(instr.dest, mem[idx % len(mem)], overlay)
        elif op == OpKind.STORE:
            mem_name = instr.attrs["array"]
            mem = self.memories[mem_name]
            idx = semantics.interpret(self._read(instr.args[0], overlay),
                                      instr.args[0].ty)
            value = truncate(self._read(instr.args[1], overlay),
                             self.func.arrays[mem_name].elem.width)
            if overlay is None:
                mem[idx % len(mem)] = value
            else:
                self._pending_mem.append((mem_name, idx % len(mem), value))
        elif op == OpKind.STREAM_READ:
            ch = self._channel_for(instr)
            ok_t, val_t = instr.dests
            if ch.can_pop():
                self.stream_ops += 1
                self._write(ok_t, 1, overlay)
                self._write(val_t, int(ch.pop()), overlay)
            else:  # closed and drained: end of stream
                self._write(ok_t, 0, overlay)
                self._write(val_t, 0, overlay)
        elif op == OpKind.TAP_READ:
            ch = self._channel_for(instr)
            if ch.can_pop():
                record = ch.pop()
                self._write(instr.dests[0], 1, overlay)
                for dest, v in zip(instr.dests[1:], record):
                    self._write(dest, int(v), overlay)
            else:
                for dest in instr.dests:
                    self._write(dest, 0, overlay)
        elif op == OpKind.STREAM_WRITE:
            ch = self._channel_for(instr)
            ch.push(truncate(self._read(instr.args[0], overlay), ch.width))
            self.stream_ops += 1
        elif op == OpKind.STREAM_CLOSE:
            self._channel_for(instr).close()
        elif op == OpKind.TAP:
            ch = self._channel_for(instr)
            record = tuple(
                truncate(self._read(a, overlay), a.ty.width) for a in instr.args
            )
            ch.push(record)
        elif op == OpKind.EXT_HDL:
            fn = self.ext_funcs.get("ext_hdl", lambda v: v)
            self._write(instr.dest,
                        fn(truncate(self._read(instr.args[0], overlay), 64)),
                        overlay)
        else:
            raise SimulationError(f"{self.name}: op {op} reached hardware model", code="RPR-X204")

    # ---- control ---------------------------------------------------------------

    def _enter_block(self, name: str) -> None:
        if name in self.fsched.pipelines:
            self.mode = "pipe"
            self._pipe = self.fsched.pipelines[name]
            self._inflight = []
            self._since_init = 10 ** 9  # initiate immediately
            self._draining = False
            self.block = name
        else:
            self.mode = "seq"
            self.block = name
            self.step = 0

    def tick(self) -> str:
        """Advance one clock. Returns 'active', 'stalled' or 'done'."""
        if self.done:
            return "done"
        self.cycles += 1
        if self.mode == "seq":
            status = self._tick_seq()
        else:
            status = self._tick_pipe()
        if status == "stalled":
            self.stall_cycles += 1
        return status

    def _tick_seq(self) -> str:
        bs = self.fsched.blocks[self.block]
        block = self.func.blocks[self.block]
        indices = bs.steps[self.step] if self.step < len(bs.steps) else []
        instrs = [block.instrs[i] for i in indices]
        if not all(self._stream_ready(i, None) for i in instrs):
            return "stalled"
        for instr in instrs:
            self._exec(instr, None)
        self.step += 1
        if self.step >= bs.length:
            term = block.term
            if isinstance(term, Jump):
                self._enter_block(term.target)
            elif isinstance(term, Branch):
                taken = self._read(term.cond, None) != 0
                self._enter_block(term.iftrue if taken else term.iffalse)
            elif isinstance(term, Return):
                self.done = True
                return "done"
        return "active"

    def _tick_pipe(self) -> str:
        ps = self._pipe
        plan: list[tuple[dict, list[Instr]]] = []
        for it in self._inflight:
            ops = [ps.instrs[i] for i, s in ps.instr_step.items()
                   if s == it["stage"]]
            plan.append((it, ops))

        # a handshake stuck mid-pipeline stalls everything (stage registers
        # hold their values)
        for it, ops in plan:
            if it["squashed"]:
                continue
            for instr in ops:
                if not self._stream_ready(instr, it["overlay"]):
                    return "stalled"

        # initiation: input starvation merely skips this cycle's initiation
        # (a bubble enters the pipeline); in-flight iterations still advance
        new_iter = None
        if not self._draining and self._since_init + 1 >= ps.ii:
            candidate = {"stage": 0, "overlay": {}, "squashed": False}
            ops = [ps.instrs[i] for i, s in ps.instr_step.items() if s == 0]
            if all(self._stream_ready(instr, candidate["overlay"])
                   for instr in ops):
                new_iter = candidate
                plan.append((new_iter, ops))
            elif not self._inflight:
                return "stalled"  # nothing to advance: the pipeline idles

        for it, ops in plan:
            if it["squashed"]:
                continue
            for instr in ops:
                self._exec(instr, it["overlay"])
            if ps.ok is not None and it["stage"] == 0:
                ok_val = it["overlay"].get(ps.ok.name, self.env.get(ps.ok.name, 0))
                if ok_val == 0:
                    it["squashed"] = True
                    self._draining = True

        if new_iter is not None:
            if not new_iter["squashed"]:
                self.iterations_started += 1
            self._inflight.append(new_iter)
            self._since_init = 0
        else:
            self._since_init += 1

        for it in self._inflight:
            it["stage"] += 1
        self._inflight = [
            it for it in self._inflight
            if it["stage"] < ps.latency and not it["squashed"]
        ]

        # commit end-of-cycle register/memory writes
        for name, value in self._pending_env:
            self.env[name] = value
        self._pending_env.clear()
        for mem_name, idx, value in self._pending_mem:
            self.memories[mem_name][idx] = value
        self._pending_mem.clear()

        if self._draining and not self._inflight:
            self._enter_block(ps.exit_block)
        return "active"

    # ---- fault / watchdog hooks -------------------------------------------

    def upset_register(self, reg_index: int, bit: int) -> tuple[str, int]:
        """Single-event-upset hook: flip one bit of one live register.

        The register is addressed by index into the sorted register file
        (names are unstable across instrumentation levels; indices are
        stable for a given compiled design). Returns what was flipped.
        """
        names = sorted(self.env)
        if not names:
            return "", 0
        reg = names[reg_index % len(names)]
        ty = self.func.scalars.get(reg)
        width = ty.width if ty is not None else 32
        pos = bit % width
        self.env[reg] = truncate(self.env[reg] ^ (1 << pos), width)
        return reg, pos

    def quarantine(self) -> None:
        """Graceful-degradation hook: retire this process immediately.

        The watchdog quarantines a faulted process (under ``NABORT``) so
        the rest of the application can drain to completion; the caller is
        responsible for closing the channels this process produced.
        """
        self.done = True
        self.quarantined = True

    # ---- diagnostics ----------------------------------------------------------

    def trace(self) -> ProcessTrace:
        waiting: list[str] = []
        lines: list[tuple[str, int]] = []
        if self.quarantined:
            return ProcessTrace(self.name, "quarantined", "-")
        if self.done:
            return ProcessTrace(self.name, "done", "-")
        if self.mode == "seq":
            bs = self.fsched.blocks[self.block]
            block = self.func.blocks[self.block]
            indices = bs.steps[self.step] if self.step < len(bs.steps) else []
            for i in indices:
                instr = block.instrs[i]
                if not self._stream_ready(instr, None):
                    waiting.append(self._channel_for(instr).name)
                coord = instr.attrs.get("coord")
                if coord:
                    lines.append(coord)
            loc = f"{self.block}[{self.step}]"
            return ProcessTrace(self.name, "state", loc, waiting, sorted(set(lines)))
        ps = self._pipe
        for it in self._inflight:
            for i, s in ps.instr_step.items():
                if s == it["stage"]:
                    instr = ps.instrs[i]
                    if not self._stream_ready(instr, it["overlay"]):
                        waiting.append(self._channel_for(instr).name)
                    coord = instr.attrs.get("coord")
                    if coord:
                        lines.append(coord)
        loc = f"pipeline {ps.header} ({len(self._inflight)} in flight)"
        return ProcessTrace(self.name, "pipe", loc, sorted(set(waiting)),
                            sorted(set(lines)))
