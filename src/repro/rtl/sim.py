"""RTL simulator: executes generated :class:`repro.rtl.core.Module` objects.

Used to cross-validate the emitted RTL against the schedule-level cycle
model: for sequential (non-pipelined) processes the two must agree cycle
for cycle on outputs and cycle counts — a strong end-to-end check that the
Verilog we print means what the cycle model measured. Pipelined regions
are not simulated here (their executable semantics are owned by
:mod:`repro.hls.cyclemodel`); passing a module with pipeline metadata
raises :class:`SimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.hls.cyclemodel import Channel
from repro.rtl import core as R
from repro.utils.bitops import sign_extend, truncate


def _value_operands(a: int, b: int, expr: "R.BinExpr") -> tuple[int, int]:
    """Recover mathematical operand values for value-dependent ops.

    ``signed_cmp`` marks expressions the code generator synthesized with
    signed semantics (``$signed`` in the emitted Verilog); for those the
    unsigned patterns are sign-extended at their declared widths. Kept as
    a module-level seam so the differential tester can re-introduce the
    historical unsigned-division bug and prove it would be caught.
    """
    if expr.signed_cmp:
        return (sign_extend(a, expr.left.width),
                sign_extend(b, expr.right.width))
    return a, b


def _peek_fn(ch: Channel) -> Callable[[], int]:
    return lambda: int(ch.queue[0]) if ch.queue else 0


def _empty_fn(ch: Channel) -> Callable[[], int]:
    return lambda: int(not ch.can_pop())


def _eos_fn(ch: Channel) -> Callable[[], int]:
    return lambda: int(ch.closed)


def _full_fn(ch: Channel) -> Callable[[], int]:
    return lambda: int(not ch.can_push())


@dataclass
class RtlRunResult:
    cycles: int
    done: bool
    stalled_cycles: int = 0
    taps: dict[str, list[int]] = field(default_factory=dict)


class RtlSim:
    """Cycle simulator for one sequential module bound to channels."""

    def __init__(
        self,
        module: R.Module,
        streams: dict[str, Channel],
        ext_hdl: Callable[[int], int] | None = None,
        injector=None,
    ) -> None:
        if module.meta.get("pipelines"):
            raise SimulationError(
                f"{module.name}: RTL simulation of pipelined regions is not "
                "supported; use the cycle model", code="RPR-X101")
        self.module = module
        self.streams = streams
        self.ext_hdl = ext_hdl or (lambda v: v)
        #: runtime-fault injector (repro.faults.runtime); channel faults it
        #: attached to ``streams`` are honored because this simulator moves
        #: every word through Channel.push/pop, and ticking it here keeps
        #: cycle-armed faults (stalls) aligned with the RTL clock
        self.injector = injector
        if injector is not None:
            injector.attach(streams, execs={})
        self.regs: dict[str, int] = {"state": 0}
        port_set = set()
        for p in module.ports:
            port_set.add(p.signal.name)
        for sig in module.regs:
            self.regs[sig.name] = 0
        self.memories: dict[str, list[int]] = {}
        for mem in module.memories:
            image = [0] * mem.depth
            for i, v in enumerate(mem.init or ()):
                image[i] = truncate(v, mem.width)
            self.memories[mem.name] = image
        self.cycles = 0
        self.stalled = 0
        self.done = False
        self.taps: dict[str, list[int]] = {}
        self._state_by_index = {sc.index: sc for sc in module.states}

        # identify stream roles from port names; a bound stream must be
        # wired to a read strobe or a write strobe — silently treating an
        # unconnected binding as a writer would swallow typos in the
        # harness and "verify" a stream the module never drives
        self._readers: dict[str, Channel] = {}
        self._writers: dict[str, Channel] = {}
        for name, ch in streams.items():
            if f"{name}_re" in port_set:
                self._readers[name] = ch
            elif f"{name}_we" in port_set:
                self._writers[name] = ch
            else:
                raise SimulationError(
                    f"{module.name}: stream {name!r} matches neither a "
                    f"{name}_re nor a {name}_we port; module streams are "
                    f"{sorted(self._stream_port_names(port_set))}", code="RPR-X102")

        # port-value dispatch: name -> zero-arg callable, precomputed once
        # so the per-access cost is a dict hit instead of a linear scan over
        # every bound stream.
        self._port_fns: dict[str, Callable[[], int]] = {}
        for stream, ch in self._readers.items():
            self._port_fns[f"{stream}_data"] = _peek_fn(ch)
            self._port_fns[f"{stream}_empty"] = _empty_fn(ch)
            self._port_fns[f"{stream}_eos"] = _eos_fn(ch)
        for stream, ch in self._writers.items():
            self._port_fns[f"{stream}_full"] = _full_fn(ch)

    @staticmethod
    def _stream_port_names(port_set: set[str]) -> set[str]:
        """Stream names implied by the module's strobe ports."""
        return {
            p[: -len(suffix)]
            for p in port_set
            for suffix in ("_re", "_we")
            if p.endswith(suffix)
        }

    # ---- evaluation -----------------------------------------------------------

    def _port_value(self, name: str) -> int:
        fn = self._port_fns.get(name)
        if fn is None:
            raise SimulationError(f"{self.module.name}: unknown port {name!r}", code="RPR-X103")
        return fn()

    def eval(self, expr: R.Expr) -> int:
        if isinstance(expr, R.Ref):
            name = expr.signal.name
            if name in self.regs:
                return truncate(self.regs[name], expr.width)
            return truncate(self._port_value(name), expr.width)
        if isinstance(expr, R.Lit):
            return truncate(expr.value, expr.width)
        if isinstance(expr, R.UnExpr):
            v = self.eval(expr.operand)
            if expr.op == "-":
                return truncate(-v, expr.width)
            if expr.op == "~":
                return truncate(~v, expr.width)
            if expr.op == "!":
                return int(v == 0)
            if expr.op in ("zext",):
                return truncate(v, expr.width)
            if expr.op == "sext":
                return truncate(sign_extend(v, expr.operand.width), expr.width)
            raise SimulationError(f"unknown unary {expr.op}", code="RPR-X104")
        if isinstance(expr, R.BinExpr):
            a = self.eval(expr.left)
            b = self.eval(expr.right)
            op = expr.op
            # ``a``/``b`` are unsigned bit patterns here. Pattern ops
            # (+, -, *, bitwise, <<) are congruent modulo 2**width, so they
            # run on the raw patterns; ops whose *result* depends on the
            # mathematical value (division, modulo, comparisons, arithmetic
            # shift) must first recover signed operands when the expression
            # was synthesized signed ($signed in the emitted Verilog) —
            # otherwise e.g. (-13)/3 would compute on the pattern
            # 0xFFFFFFF3 and the truncate-toward-zero sign correction
            # could never fire.
            if op == "+":
                return truncate(a + b, expr.width)
            if op == "-":
                return truncate(a - b, expr.width)
            if op == "*":
                return truncate(a * b, expr.width)
            if op in ("/", "%"):
                a, b = _value_operands(a, b, expr)
                if b == 0:
                    raise SimulationError(f"{self.module.name}: divide by zero", code="RPR-X105")
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                r = a - q * b
                return truncate(q if op == "/" else r, expr.width)
            if op == "&":
                return truncate(a & b, expr.width)
            if op == "|":
                return truncate(a | b, expr.width)
            if op == "^":
                return truncate(a ^ b, expr.width)
            if op == "<<":
                return truncate(a << (b % 64), expr.width)
            if op == ">>":
                return truncate(a >> (b % 64), expr.width)
            if op == ">>>":
                a_s = sign_extend(a, expr.left.width)
                return truncate(a_s >> (b % 64), expr.width)
            if op in ("==", "!=", "<", "<=", ">", ">="):
                a, b = _value_operands(a, b, expr)
                table = {
                    "==": a == b, "!=": a != b, "<": a < b,
                    "<=": a <= b, ">": a > b, ">=": a >= b,
                }
                return int(table[op])
            if op == "&&":
                return int(bool(a) and bool(b))
            if op == "||":
                return int(bool(a) or bool(b))
            if op == "concat":
                return truncate(
                    (a << expr.right.width) | b, expr.width
                )
            raise SimulationError(f"unknown binop {op}", code="RPR-X106")
        if isinstance(expr, R.CondExpr):
            return truncate(
                self.eval(expr.iftrue) if self.eval(expr.cond) else
                self.eval(expr.iffalse),
                expr.width,
            )
        if isinstance(expr, R.SliceExpr):
            v = self.eval(expr.operand)
            return (v >> expr.lsb) & ((1 << (expr.msb - expr.lsb + 1)) - 1)
        if isinstance(expr, R.MemRead):
            if expr.memory == "$ext_hdl":
                return truncate(self.ext_hdl(self.eval(expr.index)), expr.width)
            mem = self.memories[expr.memory]
            return mem[self.eval(expr.index) % len(mem)]
        raise SimulationError(f"unknown expr {expr!r}", code="RPR-X107")

    def _exec(self, stmt: R.Stmt, deferred: list) -> None:
        if isinstance(stmt, R.BlockingAssign):
            self.regs[stmt.target.name] = truncate(
                self.eval(stmt.expr), stmt.target.width
            )
        elif isinstance(stmt, R.RegAssign):
            deferred.append(
                (stmt.target.name, stmt.target.width, self.eval(stmt.expr))
            )
        elif isinstance(stmt, R.MemWrite):
            mem = self.memories[stmt.memory]
            mem[self.eval(stmt.index) % len(mem)] = self.eval(stmt.value)
        elif isinstance(stmt, R.If):
            branch = stmt.then if self.eval(stmt.cond) else stmt.otherwise
            for s in branch:
                self._exec(s, deferred)
        else:
            raise SimulationError(f"unknown stmt {stmt!r}", code="RPR-X108")

    # ---- clocking --------------------------------------------------------------

    def tick(self) -> str:
        if self.done:
            return "done"
        state = self.regs["state"]
        if state == self.module.meta.get("done_state"):
            self.done = True
            return "done"
        self.cycles += 1
        if self.injector is not None:
            self.injector.tick()
        sc = self._state_by_index.get(state)
        if sc is None:
            raise SimulationError(f"{self.module.name}: no state {state}", code="RPR-X109")
        if sc.stall is not None and self.eval(sc.stall):
            self.stalled += 1
            return "stalled"
        deferred: list = []
        for stmt in sc.body:
            self._exec(stmt, deferred)
        next_state = self.eval(sc.next_state) if sc.next_state is not None \
            else state
        # interface strobes evaluate against the post-datapath values but
        # the *pre-transition* state
        for sig, expr in self.module.assigns:
            value = self.eval(expr)
            self._interface_strobe(sig.name, value)
        for name, width, value in deferred:
            self.regs[name] = truncate(value, width)
        self.regs["state"] = next_state
        return "active"

    def _interface_strobe(self, name: str, value: int) -> None:
        for stream, ch in self._readers.items():
            if name == f"{stream}_re" and value and ch.can_pop():
                ch.pop()
                return
        for stream, ch in self._writers.items():
            if name == f"{stream}_we" and value:
                ch.push(truncate(self.regs[f"{stream}_data_r"], ch.width))
                return
            if name == f"{stream}_close" and value:
                ch.close()
                return
        if name.startswith("tap_") and name.endswith("_valid") and value:
            channel = name[len("tap_"):-len("_valid")]
            self.taps.setdefault(channel, []).append(
                self.regs.get(f"tap_{channel}_r", 0)
            )

    def run(self, max_cycles: int = 1_000_000) -> RtlRunResult:
        for _ in range(max_cycles):
            if self.tick() == "done":
                break
        return RtlRunResult(
            cycles=self.cycles,
            done=self.done,
            stalled_cycles=self.stalled,
            taps=self.taps,
        )
