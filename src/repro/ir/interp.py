"""IR interpreter: the *software simulation* semantics of a process.

This is the reproduction's stand-in for Impulse-C's CPU-side simulation of
FPGA processes: it executes the source-level semantics (exact C width
rules, idealized timing) as a coroutine that yields on stream operations.
The cooperative scheduler in :mod:`repro.runtime.swsim` drives many such
coroutines; the hardware path executes the *synthesized circuit* instead,
so behavioural divergence between the two is exactly the class of bug the
paper's in-circuit assertions exist to catch.

Event protocol (values yielded to the driver):

``("read", stream)``            → driver sends ``(ok, value)``
``("write", stream, value)``    → driver sends ``None``
``("close", stream)``           → driver sends ``None``
``("assert_fail", site)``       → driver sends ``"abort"`` or ``"continue"``

The generator's return value is an :class:`InterpResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.errors import SimulationError
from repro.ir import semantics
from repro.ir.function import IRFunction
from repro.ir.instr import AssertionSite, Branch, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, Temp, Value
from repro.utils.bitops import mask, truncate


@dataclass
class InterpResult:
    """Outcome of one process execution."""

    returned: bool
    aborted_by: AssertionSite | None = None
    steps: int = 0
    assert_failures: list[AssertionSite] = field(default_factory=list)


class Interp:
    """Interprets one :class:`IRFunction` with C semantics."""

    def __init__(
        self,
        func: IRFunction,
        ext_funcs: dict[str, Callable[[int], int]] | None = None,
        max_steps: int = 10_000_000,
    ) -> None:
        self.func = func
        self.ext_funcs = ext_funcs or {}
        self.max_steps = max_steps
        self.env: dict[str, int] = {name: 0 for name in func.scalars}
        self.memories: dict[str, list[int]] = {}
        for name, arr in func.arrays.items():
            image = [0] * arr.size
            for i, v in enumerate(arr.init or ()):
                image[i] = truncate(v, arr.elem.width)
            self.memories[name] = image

    # ---- value access ------------------------------------------------------

    def read(self, value: Value) -> int:
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Temp):
            return self.env[value.name]
        raise SimulationError(f"bad operand {value!r}", code="RPR-X001")

    def write(self, temp: Temp, pattern: int) -> None:
        self.env[temp.name] = truncate(pattern, temp.ty.width)

    # ---- pre-decoding --------------------------------------------------------

    def _getter(self, value: Value) -> Callable[[], int]:
        """A thunk reading ``value`` (raising RPR-X001 when executed if it
        is not an operand)."""
        if isinstance(value, Const):
            c = value.value
            return lambda: c
        if isinstance(value, Temp):
            env, name = self.env, value.name
            return lambda: env[name]
        return lambda: self.read(value)

    def _decode(self, instr) -> Callable[[], None] | None:
        """One computation or memory access with its operand types, common
        type, masks and handler resolved; None for the operations that talk
        to the driver, which :meth:`run` executes itself."""
        func, env, op, args = self.func, self.env, instr.op, instr.args
        get = [self._getter(a) for a in args]
        if op in (OpKind.LOAD, OpKind.STORE):
            return self._access(instr, get)
        if op in (OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT):
            # the hardware cycle model evaluates casts through
            # semantics.cast; using the same definition here means the two
            # paths cannot drift apart
            h = semantics.cast_fn(op, args[0].ty)
        elif op in (OpKind.NEG, OpKind.NOT, OpKind.LNOT):
            h = semantics.unop_fn(op, args[0].ty)
        elif op in _BINOPS:
            h = semantics.binop_fn(op, args[0].ty, args[1].ty, where=func.name)
        elif op in _COMPARES:
            h = semantics.compare_fn(op, args[0].ty, args[1].ty)
        elif op == OpKind.SELECT:
            cond, a, b = get
            ia, ib = (semantics.interpreter(v.ty) for v in args[1:])
            get = [lambda: ia(a()) if cond() != 0 else ib(b())]
            h = _identity
        else:
            return None
        d, dm = instr.dest.name, mask(instr.dest.ty.width)
        if len(get) == 1:
            (g,) = get

            def unary() -> None:
                env[d] = h(g()) & dm
            return unary
        ga, gb = get

        def binary() -> None:
            env[d] = h(ga(), gb()) & dm
        return binary

    def _access(self, instr, get) -> Callable[[], None]:
        """A decoded LOAD or STORE, bounds-checked like C on the host."""
        func, env, name = self.func, self.env, instr.attrs["array"]
        mem, ii = self.memories[name], semantics.interpreter(instr.args[0].ty)
        idx = get[0]
        if instr.op == OpKind.LOAD:
            d, dm = instr.dest.name, mask(instr.dest.ty.width)

            def load() -> None:
                i = ii(idx())
                if not (0 <= i < len(mem)):
                    raise SimulationError(
                        f"{func.name}: out-of-bounds read "
                        f"{name}[{i}] (size {len(mem)})", code="RPR-X003")
                env[d] = mem[i] & dm
            return load
        value, em = get[1], mask(func.arrays[name].elem.width)

        def store() -> None:
            i = ii(idx())
            if not (0 <= i < len(mem)):
                raise SimulationError(
                    f"{func.name}: out-of-bounds write "
                    f"{name}[{i}] (size {len(mem)})", code="RPR-X004")
            mem[i] = value() & em
        return store

    # ---- main loop -----------------------------------------------------------

    def run(self) -> Generator[tuple, object, InterpResult]:
        func = self.func
        code = {
            name: [(instr, self._decode(instr)) for instr in block.instrs]
            for name, block in func.blocks.items()
        }
        result = InterpResult(returned=False)
        block = func.blocks[func.entry]
        ops = code[func.entry]
        max_steps = self.max_steps
        steps = 0
        while True:
            for instr, decoded in ops:
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"{func.name}: exceeded {max_steps} interpreter steps", code="RPR-X002")
                if decoded is not None:
                    decoded()
                    continue
                op = instr.op
                if op == OpKind.STREAM_READ:
                    reply = yield ("read", instr.attrs["stream"])
                    ok, value = reply  # type: ignore[misc]
                    ok_t, val_t = instr.dests
                    self.write(ok_t, int(bool(ok)))
                    self.write(val_t, int(value))
                elif op == OpKind.STREAM_WRITE:
                    yield ("write", instr.attrs["stream"],
                           truncate(self.read(instr.args[0]), 64))
                elif op == OpKind.STREAM_CLOSE:
                    yield ("close", instr.attrs["stream"])
                elif op == OpKind.ASSERT_CHECK:
                    cond = self.read(instr.args[0])
                    if cond == 0:
                        site: AssertionSite = instr.attrs["assertion"]
                        result.assert_failures.append(site)
                        decision = yield ("assert_fail", site)
                        if decision == "abort":
                            result.aborted_by = site
                            result.steps = steps
                            return result
                elif op == OpKind.TAP_READ:
                    reply = yield ("tap_read", instr.attrs["channel"])
                    ok, *values = reply  # type: ignore[misc]
                    self.write(instr.dests[0], int(bool(ok)))
                    for dest, v in zip(instr.dests[1:], values):
                        self.write(dest, int(v))
                elif op == OpKind.TAP:
                    values = tuple(
                        truncate(self.read(a), a.ty.width) for a in instr.args
                    )
                    yield ("tap", instr.attrs["channel"], values)
                elif op == OpKind.EXT_HDL:
                    fn = self.ext_funcs.get("ext_hdl", lambda v: v)
                    self.write(instr.dest,
                               fn(truncate(self.read(instr.args[0]), 64)))
                else:
                    raise SimulationError(f"unhandled op {op}", code="RPR-X005")

            term = block.term
            if isinstance(term, Jump):
                target = term.target
            elif isinstance(term, Branch):
                taken = self.read(term.cond) != 0
                target = term.iftrue if taken else term.iffalse
            elif isinstance(term, Return):
                result.returned = True
                result.steps = steps
                return result
            else:  # pragma: no cover - verifier excludes this
                raise SimulationError(f"bad terminator {term!r}", code="RPR-X006")
            block, ops = func.blocks[target], code[target]


_BINOPS = frozenset((OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                     OpKind.MOD, OpKind.AND, OpKind.OR, OpKind.XOR,
                     OpKind.SHL, OpKind.SHR))
_COMPARES = frozenset((OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE,
                       OpKind.GT, OpKind.GE))


def _identity(v: int) -> int:
    return v


def run_to_completion(
    func: IRFunction,
    stream_inputs: dict[str, list[int]] | None = None,
    ext_funcs: dict[str, Callable[[int], int]] | None = None,
    nabort: bool = False,
    max_steps: int = 10_000_000,
) -> tuple[InterpResult, dict[str, list[int]]]:
    """Convenience driver for single-process tests.

    ``stream_inputs`` maps stream names to the full value sequence available
    on them (end-of-stream after exhaustion). Returns the interpreter result
    and everything written per output stream.
    """
    interp = Interp(func, ext_funcs=ext_funcs, max_steps=max_steps)
    inputs = {k: list(v) for k, v in (stream_inputs or {}).items()}
    outputs: dict[str, list[int]] = {s: [] for s in func.stream_names()}
    gen = interp.run()
    try:
        event = next(gen)
        while True:
            kind = event[0]
            if kind == "read":
                queue = inputs.get(event[1])
                if queue:
                    event = gen.send((1, queue.pop(0)))
                else:
                    event = gen.send((0, 0))
            elif kind == "write":
                outputs[event[1]].append(event[2])
                event = gen.send(None)
            elif kind == "tap":
                outputs.setdefault(f"tap:{event[1]}", []).append(event[2])
                event = gen.send(None)
            elif kind == "close":
                event = gen.send(None)
            elif kind == "assert_fail":
                event = gen.send("continue" if nabort else "abort")
            else:  # pragma: no cover
                raise SimulationError(f"unknown event {event!r}", code="RPR-X007")
    except StopIteration as stop:
        return stop.value, outputs
