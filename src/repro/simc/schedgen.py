"""Compiled cycle-model simulation: specialize a ``FunctionSchedule``.

The interpreted :class:`repro.hls.cyclemodel.ProcessExec` dispatches every
instruction of every control step through :mod:`repro.ir.semantics` on
every cycle — re-deriving C usual-arithmetic-conversion types, widths and
masks that are all compile-time constants of the schedule. This module
walks the schedule **once**, emitting one Python function per
``(block, step)`` pair with those conversions constant-folded: operand
interpretation becomes a branchless sign-extension or nothing, masks
become hex literals, constant operands fold to their converted values, and
stream handshakes become direct bound-method calls on the
:class:`Channel` objects.

Pipelined regions compile too: each modulo-scheduled stage becomes one
overlay-passing function (stage-register semantics via the same
``overlay`` + ``_pending_env`` discipline the interpreter uses), and the
per-block tick function replays ``_tick_pipe``'s initiation / squash /
drain protocol with the per-stage instruction lists resolved at compile
time. Any block the codegen skipped falls back to the interpreted path
mid-run.

A quiet loop (a header whose ``Branch`` is the only exit, a ``Jump``
chain back to it, every step channel-free) also compiles to one function
that keeps the loop's scalars in Python locals and runs whole iterations
for :meth:`CompiledProcessExec.run_quiet`, counting one cycle per step;
the per-step functions stay for ``tick`` and for entry mid-loop. Everything observable (``env`` contents, stall/cycle counters,
``stream_ops``, channel stats, watchdog/fault hooks including
``upset_register``) is shared with the base class, which is what lets the
difftest lockstep oracle compare the two backends cycle by cycle.
"""

from __future__ import annotations

from repro.errors import SimCompileError, SimulationError
from repro.frontend.ctypes_ import CType, common_type
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.hls.schedule import FunctionSchedule
from repro.ir import semantics
from repro.ir.instr import Branch, Instr, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, Temp, Value
from repro.utils.bitops import mask, truncate

from . import codecache
from .codecache import cached_source, compile_source

__all__ = ["CompiledProcessExec", "generate_sched_source",
           "sched_exec_source"]

#: ops that touch a channel: a step holding one is never run quietly
_LOUD = frozenset((OpKind.STREAM_READ, OpKind.STREAM_WRITE,
                   OpKind.STREAM_CLOSE, OpKind.TAP, OpKind.TAP_READ))


def _identity(v):
    return v


class _Emitter:
    """Accumulates generated source lines with explicit indentation."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0
        self._temp = 0

    def fresh(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def put(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)


def _table_src(table: dict[str, list[str]]) -> str:
    """A dict literal mapping each block to the tuple of its step names."""
    rows = (f"{name!r}: ({', '.join(fns)},)" for name, fns in table.items())
    return f"{{{', '.join(rows)}}}"


def _sext_src(var: str, width: int) -> str:
    """Branchless sign extension of an already-masked ``width``-bit value."""
    if width <= 0:
        return "0"
    c = 1 << (width - 1)
    return f"(({var} ^ {hex(c)}) - {hex(c)})"


class _Opnd:
    """One IR operand: either a literal (folded) or a source fragment.

    For :class:`Temp` operands the fragment reads ``env`` and — by the
    ``_write`` invariant — always holds the unsigned pattern truncated to
    the temp's declared width. :class:`Const` operands keep their raw
    value so the exact interpreter conversions can be replayed on them at
    compile time.
    """

    __slots__ = ("src", "ty", "lit")

    def __init__(self, src: str | None, ty: CType, lit: int | None) -> None:
        self.src = src
        self.ty = ty
        self.lit = lit


class _SchedCompiler:
    def __init__(self, fsched: FunctionSchedule) -> None:
        self.fsched = fsched
        self.func = fsched.func
        self.name = self.func.name
        # ("stream"|"tap", channel name) -> local variable prefix
        self.channels: dict[tuple[str, str], str] = {}
        self.mem_locals: dict[str, str] = {
            name: f"_m{i}" for i, name in enumerate(self.func.arrays)
        }
        self.mem_sizes: dict[str, int] = {
            name: arr.size for name, arr in self.func.arrays.items()
        }
        self.mem_widths: dict[str, int] = {
            name: arr.elem.width for name, arr in self.func.arrays.items()
        }
        #: when set (pipelined-stage codegen), reads check the iteration
        #: overlay dict of this name first and writes go through it plus
        #: ``_pending_env`` — the interpreter's ``_read``/``_write``
        #: overlay discipline, resolved at compile time
        self.ov: str | None = None
        #: sequential block -> per step, its function's name when the step
        #: is quiet, else "None": the quiet table ``_build`` returns
        self.quiet: dict[str, list[str]] = {}
        #: when set (fused-loop codegen), scalar -> the Python local that
        #: holds it for the whole loop, and the scalars the loop writes
        self.loc: dict[str, str] | None = None
        self.wrote: set[str] = set()

    # ---- operands -------------------------------------------------------------

    def opnd(self, v: Value) -> _Opnd:
        if isinstance(v, Const):
            return _Opnd(None, v.ty, v.value)
        if isinstance(v, Temp):
            if self.loc is not None:
                return _Opnd(self._local(v.name), v.ty, None)
            if self.ov is not None:
                n = v.name
                return _Opnd(
                    f"({self.ov}[{n!r}] if {n!r} in {self.ov} "
                    f"else E[{n!r}])", v.ty, None)
            return _Opnd(f"E[{v.name!r}]", v.ty, None)
        raise SimCompileError(
            f"{self.name}: bad operand {v!r}", code="RPR-K020")

    def _local(self, name: str) -> str:
        local = self.loc.get(name)
        if local is None:
            local = self.loc[name] = f"_v{len(self.loc)}"
        return local

    def chan(self, instr: Instr) -> str:
        if "stream" in instr.attrs:
            key = ("stream", instr.attrs["stream"])
        else:
            key = ("tap", instr.attrs["channel"])
        local = self.channels.get(key)
        if local is None:
            local = f"_c{len(self.channels)}"
            self.channels[key] = local
        return local

    def value_src(self, em: _Emitter, o: _Opnd, ct: CType) -> str:
        """Source for ``interpret(truncate(interpret(x, xty), ct.w), ct)``.

        The mathematical value of the operand after the C usual arithmetic
        conversions to ``ct`` — possibly negative when ``ct`` is signed.
        """
        if o.lit is not None:
            return repr(semantics.interpret(
                truncate(semantics.interpret(o.lit, o.ty), ct.width), ct))
        cm = mask(ct.width)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(cm)}")
            masked_at = ct.width
        elif ct.width < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(cm)}")
            masked_at = ct.width
        else:
            s = o.src
            masked_at = o.ty.width
        if ct.signed and masked_at >= ct.width:
            if s == o.src:
                v = em.fresh()
                em.put(f"{v} = {s}")
                s = v
            out = em.fresh()
            em.put(f"{out} = {_sext_src(s, ct.width)}")
            return out
        return s

    def pattern_src(self, em: _Emitter, o: _Opnd, ct: CType) -> str:
        """Like :meth:`value_src` but stops at the ``ct``-width pattern
        (the final signed interpretation elided) — for bitwise ops, which
        re-truncate both converted operands anyway."""
        if o.lit is not None:
            return hex(truncate(
                truncate(semantics.interpret(o.lit, o.ty), ct.width),
                ct.width))
        cm = mask(ct.width)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(cm)}")
            return s
        if ct.width < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(cm)}")
            return s
        return o.src

    # ---- instruction execution -------------------------------------------------

    def _store(self, em: _Emitter, dest: Temp, src: str,
               fits_width: int | None = None) -> None:
        """``E[dest] = src`` with the ``_write`` truncation; the mask is
        elided when the value provably fits (non-negative, ``fits_width``
        bits). In overlay mode the write lands in the iteration overlay
        and is journaled for the end-of-cycle ``_pending_env`` commit."""
        if fits_width is not None and fits_width <= dest.ty.width:
            rhs = src
        else:
            rhs = f"{src} & {hex(mask(dest.ty.width))}"
        if self.loc is not None:
            self.wrote.add(dest.name)
            em.put(f"{self._local(dest.name)} = {rhs}")
        elif self.ov is None:
            em.put(f"E[{dest.name!r}] = {rhs}")
        else:
            v = em.fresh()
            em.put(f"{v} = {rhs}")
            em.put(f"{self.ov}[{dest.name!r}] = {v}")
            em.put(f"_pend(({dest.name!r}, {v}))")

    def _store_lit(self, em: _Emitter, dest: Temp, value: int) -> None:
        lit = truncate(value, dest.ty.width)
        if self.loc is not None:
            self.wrote.add(dest.name)
            em.put(f"{self._local(dest.name)} = {lit}")
        elif self.ov is None:
            em.put(f"E[{dest.name!r}] = {lit}")
        else:
            em.put(f"{self.ov}[{dest.name!r}] = {lit}")
            em.put(f"_pend(({dest.name!r}, {lit}))")

    def exec_instr(self, em: _Emitter, instr: Instr) -> None:
        pred = instr.attrs.get("pred")
        if pred is not None:
            p = self.opnd(pred)
            if p.lit is not None:
                if p.lit == 0:
                    return  # statically squashed
            else:
                em.put(f"if {p.src}:")
                em.indent += 1
                self._exec_body(em, instr)
                em.indent -= 1
                return
        self._exec_body(em, instr)

    def _exec_body(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        if op in (OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT):
            o = self.opnd(instr.args[0])
            d = instr.dest
            if o.lit is not None:
                self._store_lit(em, d, semantics.cast(op, o.lit, o.ty))
            elif op == OpKind.SEXT:
                self._store(em, d, f"({_sext_src(o.src, o.ty.width)})")
            else:
                self._store(em, d, o.src, fits_width=o.ty.width)
            return
        if op in (OpKind.NEG, OpKind.NOT, OpKind.LNOT):
            o = self.opnd(instr.args[0])
            d = instr.dest
            if o.lit is not None:
                self._store_lit(em, d, semantics.unop(op, o.lit, o.ty))
            elif op == OpKind.NEG:
                v = (_sext_src(o.src, o.ty.width) if o.ty.signed else o.src)
                self._store(em, d, f"(-({v}))")
            elif op == OpKind.NOT:
                self._store(em, d, f"(~{o.src})")
            else:  # LNOT
                self._store(em, d, f"(1 if {o.src} == 0 else 0)",
                            fits_width=1)
            return
        if op == OpKind.SELECT:
            cond, a, b = (self.opnd(x) for x in instr.args)
            d = instr.dest
            chosen = []
            for o in (a, b):
                if o.lit is not None:
                    chosen.append((repr(semantics.interpret(o.lit, o.ty)),
                                   None))
                elif o.ty.signed:
                    chosen.append((f"({_sext_src(o.src, o.ty.width)})", None))
                else:
                    chosen.append((o.src, o.ty.width))
            if cond.lit is not None:
                src, fits = chosen[0] if cond.lit != 0 else chosen[1]
                self._store(em, d, src, fits_width=fits)
                return
            em.put(f"if {cond.src}:")
            em.indent += 1
            self._store(em, d, chosen[0][0], fits_width=chosen[0][1])
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            self._store(em, d, chosen[1][0], fits_width=chosen[1][1])
            em.indent -= 1
            return
        if op in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
                  OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR):
            self._binop(em, instr)
            return
        if op in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE,
                  OpKind.GT, OpKind.GE):
            self._compare(em, instr)
            return
        if op == OpKind.LOAD:
            arr = instr.attrs["array"]
            local = self.mem_locals.get(arr)
            if local is None:
                raise SimCompileError(
                    f"{self.name}: load from unknown array {arr!r}",
                    code="RPR-K020")
            idx = self._index_src(em, self.opnd(instr.args[0]), arr)
            self._store(em, instr.dest, f"{local}[{idx}]",
                        fits_width=self.mem_widths[arr])
            return
        if op == OpKind.STORE:
            arr = instr.attrs["array"]
            local = self.mem_locals.get(arr)
            if local is None:
                raise SimCompileError(
                    f"{self.name}: store to unknown array {arr!r}",
                    code="RPR-K020")
            idx = self._index_src(em, self.opnd(instr.args[0]), arr)
            o = self.opnd(instr.args[1])
            ew = self.mem_widths[arr]
            if o.lit is not None:
                val = hex(truncate(o.lit, ew))
            elif ew < o.ty.width:
                val = f"({o.src} & {hex(mask(ew))})"
            else:
                val = o.src
            if self.ov is None:
                em.put(f"{local}[{idx}] = {val}")
            else:  # stage writes commit at end of cycle
                em.put(f"_pendm(({arr!r}, {idx}, {val}))")
            return
        if op == OpKind.STREAM_READ:
            ch = self.chan(instr)
            ok_t, val_t = instr.dests
            em.put(f"if {ch}_q:")
            em.indent += 1
            em.put("P.stream_ops += 1")
            self._store_lit(em, ok_t, 1)
            self._store(em, val_t, f"{ch}_pop()")
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            self._store_lit(em, ok_t, 0)
            self._store_lit(em, val_t, 0)
            em.indent -= 1
            return
        if op == OpKind.TAP_READ:
            ch = self.chan(instr)
            em.put(f"if {ch}_q:")
            em.indent += 1
            rec = em.fresh()
            em.put(f"{rec} = {ch}_pop()")
            self._store_lit(em, instr.dests[0], 1)
            for k, dest in enumerate(instr.dests[1:]):
                # zip() semantics: a short record leaves later dests alone
                em.put(f"if {k} < _len({rec}):")
                em.indent += 1
                self._store(em, dest, f"{rec}[{k}]")
                em.indent -= 1
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            for dest in instr.dests:
                self._store_lit(em, dest, 0)
            em.indent -= 1
            return
        if op == OpKind.STREAM_WRITE:
            ch = self.chan(instr)
            o = self.opnd(instr.args[0])
            if o.lit is not None:
                em.put(f"{ch}_push({o.lit} & {ch}_m)")
            else:
                em.put(f"{ch}_push({o.src} & {ch}_m)")
            em.put("P.stream_ops += 1")
            return
        if op == OpKind.STREAM_CLOSE:
            em.put(f"{self.chan(instr)}_close()")
            return
        if op == OpKind.TAP:
            ch = self.chan(instr)
            parts = []
            for a in instr.args:
                o = self.opnd(a)
                if o.lit is not None:
                    parts.append(repr(truncate(o.lit, o.ty.width)))
                else:
                    parts.append(o.src)
            tup = ", ".join(parts)
            if len(parts) == 1:
                tup += ","
            em.put(f"{ch}_push(({tup}))")
            return
        if op == OpKind.EXT_HDL:
            o = self.opnd(instr.args[0])
            if o.lit is not None:
                arg = hex(truncate(o.lit, 64))
            elif o.ty.width > 64:
                arg = f"({o.src} & {hex(mask(64))})"
            else:
                arg = o.src
            self._store(em, instr.dest, f"_ext({arg})")
            return
        raise SimCompileError(
            f"{self.name}: op {op} is outside the compiled-model subset",
            code="RPR-K020")

    def _index_src(self, em: _Emitter, o: _Opnd, arr: str) -> str:
        size = self.mem_sizes[arr]
        if o.lit is not None:
            return repr(semantics.interpret(o.lit, o.ty) % size)
        if o.ty.signed:
            return f"{_sext_src(o.src, o.ty.width)} % {size}"
        return f"{o.src} % {size}"

    def _binop(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        a, b = (self.opnd(x) for x in instr.args)
        d = instr.dest
        if a.lit is not None and b.lit is not None:
            try:
                self._store_lit(em, d, semantics.binop(
                    op, a.lit, a.ty, b.lit, b.ty, where=self.name))
                return
            except SimulationError:
                pass  # e.g. constant division by zero: must raise at runtime
        if op in (OpKind.SHL, OpKind.SHR):
            if b.lit is not None:
                amt = repr(truncate(b.lit, b.ty.width) % 64)
            else:
                amt = f"({b.src} % 64)"
            if op == OpKind.SHL:
                x = (repr(semantics.interpret(a.lit, a.ty))
                     if a.lit is not None else
                     f"({_sext_src(a.src, a.ty.width)})" if a.ty.signed
                     else a.src)
                self._store(em, d, f"({x} << {amt})")
            elif a.ty.signed:
                x = (repr(semantics.interpret(a.lit, a.ty))
                     if a.lit is not None else
                     f"({_sext_src(a.src, a.ty.width)})")
                self._store(em, d, f"({x} >> {amt})")
            else:
                x = (hex(truncate(a.lit, a.ty.width))
                     if a.lit is not None else a.src)
                self._store(em, d, f"({x} >> {amt})",
                            fits_width=a.ty.width)
            return
        ct = common_type(a.ty, b.ty)
        if op in (OpKind.AND, OpKind.OR, OpKind.XOR):
            pya = self.pattern_src(em, a, ct)
            pyb = self.pattern_src(em, b, ct)
            pyop = {OpKind.AND: "&", OpKind.OR: "|", OpKind.XOR: "^"}[op]
            self._store(em, d, f"({pya} {pyop} {pyb})", fits_width=ct.width)
            return
        va = self.value_src(em, a, ct)
        vb = self.value_src(em, b, ct)
        if op == OpKind.ADD:
            self._store(em, d, f"({va} + {vb})")
        elif op == OpKind.SUB:
            self._store(em, d, f"({va} - {vb})")
        elif op == OpKind.MUL:
            self._store(em, d, f"({va} * {vb})")
        elif op == OpKind.DIV:
            self._store(em, d, f"_div({va}, {vb})")
        else:  # MOD
            self._store(em, d, f"_mod({va}, {vb})")

    def _compare(self, em: _Emitter, instr: Instr) -> None:
        op = instr.op
        a, b = (self.opnd(x) for x in instr.args)
        d = instr.dest
        force = instr.attrs.get("force_compare_width")
        if a.lit is not None and b.lit is not None:
            self._store_lit(em, d, semantics.compare(
                op, a.lit, a.ty, b.lit, b.ty, force_width=force))
            return
        if force is not None:
            va = self._forced_src(em, a, force)
            vb = self._forced_src(em, b, force)
        else:
            ct = common_type(a.ty, b.ty)
            va = self.value_src(em, a, ct)
            vb = self.value_src(em, b, ct)
        pyop = {OpKind.EQ: "==", OpKind.NE: "!=", OpKind.LT: "<",
                OpKind.LE: "<=", OpKind.GT: ">", OpKind.GE: ">="}[op]
        self._store(em, d, f"(1 if {va} {pyop} {vb} else 0)", fits_width=1)

    def _forced_src(self, em: _Emitter, o: _Opnd, force: int) -> str:
        """``truncate(interpret(x, xty), force)`` — the narrow-compare
        translation fault."""
        if o.lit is not None:
            return hex(truncate(semantics.interpret(o.lit, o.ty), force))
        fm = mask(force)
        if o.ty.signed:
            s = em.fresh()
            em.put(f"{s} = {_sext_src(o.src, o.ty.width)} & {hex(fm)}")
            return s
        if force < o.ty.width:
            s = em.fresh()
            em.put(f"{s} = {o.src} & {hex(fm)}")
            return s
        return o.src

    # ---- readiness --------------------------------------------------------------

    def ready_check(self, em: _Emitter, instr: Instr,
                    fail: str = "return 'stalled'") -> None:
        if instr.op not in (OpKind.STREAM_READ, OpKind.STREAM_WRITE,
                            OpKind.TAP_READ):
            return  # close (and non-stream ops) never stall
        pred = instr.attrs.get("pred")
        indent = 0
        if pred is not None:
            p = self.opnd(pred)
            if p.lit is not None:
                if p.lit == 0:
                    return  # squashed handshake never stalls
            else:
                em.put(f"if {p.src}:")
                em.indent += 1
                indent = 1
        ch = self.chan(instr)
        if instr.op in (OpKind.STREAM_READ, OpKind.TAP_READ):
            cond = f"not ({ch}_q or {ch}.closed)"
        else:
            cond = f"not {ch}_can()"
        em.put(f"if {cond}:")
        em.indent += 1
        em.put(fail)
        em.indent -= 1 + indent

    @staticmethod
    def _is_streamlike(instr: Instr) -> bool:
        return instr.op in (OpKind.STREAM_READ, OpKind.STREAM_WRITE,
                            OpKind.TAP_READ)

    # ---- step functions ---------------------------------------------------------

    def _instrs(self, block_name: str, step: int) -> list[Instr]:
        bs = self.fsched.blocks[block_name]
        block = self.func.blocks[block_name]
        indices = bs.steps[step] if step < len(bs.steps) else ()
        return [block.instrs[i] for i in indices]

    def _is_quiet(self, block_name: str, step: int) -> bool:
        """A quiet step touches no channel and does not return."""
        if (step + 1 >= self.fsched.blocks[block_name].length
                and isinstance(self.func.blocks[block_name].term, Return)):
            return False
        return not any(i.op in _LOUD for i in self._instrs(block_name, step))

    def _enter(self, em: _Emitter, target: str, quiet: bool,
               step: int | None = None) -> str:
        """:meth:`ProcessExec._enter_block`, inlined for a sequential
        target; a quiet step then returns the target's first quiet step,
        whose name this returns either way. ``step`` is the index the
        interpreter leaves behind before it enters a pipelined block
        (None when leaving a pipeline)."""
        nxt = "None"
        if target in self.fsched.pipelines:
            if step is not None:
                em.put(f"P.step = {step}")
            em.put(f"P._enter_block({target!r})")
        else:
            if step is None:
                em.put("P.mode = 'seq'")
            em.put(f"P.block = {target!r}")
            em.put("P.step = 0")
            nxt = self.quiet.get(target, ("None",))[0]
        if quiet:
            em.put(f"return {nxt}")
        return nxt

    def step_fn(self, em: _Emitter, fid: int, block_name: str,
                step: int) -> str:
        """One ``(block, step)`` function. A loud one returns its tick
        status; a quiet one returns the next quiet step function, or None
        when the next step is loud, pipelined or interpreted."""
        bs = self.fsched.blocks[block_name]
        block = self.func.blocks[block_name]
        instrs = self._instrs(block_name, step)
        quiet = self.quiet[block_name][step] != "None"
        fname = f"_f{fid}"
        em.put(f"def {fname}():")
        em.indent += 1
        em.put(f"# {block_name}[{step}]")
        for instr in instrs:
            self.ready_check(em, instr)
        for instr in instrs:
            self.exec_instr(em, instr)
        term = block.term
        if step + 1 < bs.length:
            em.put(f"P.step = {step + 1}")
            if quiet:
                em.put(f"return {self.quiet[block_name][step + 1]}")
        elif isinstance(term, Jump):
            self._enter(em, term.target, quiet, step + 1)
        elif isinstance(term, Branch):
            c = self.opnd(term.cond)
            if c.lit is not None:
                target = term.iftrue if c.lit != 0 else term.iffalse
                self._enter(em, target, quiet, step + 1)
            else:
                em.put(f"if {c.src}:")
                em.indent += 1
                self._enter(em, term.iftrue, quiet, step + 1)
                em.indent -= 1
                em.put("else:")
                em.indent += 1
                self._enter(em, term.iffalse, quiet, step + 1)
                em.indent -= 1
        elif isinstance(term, Return):
            em.put(f"P.step = {step + 1}")
            em.put("P.done = True")
            em.put("return 'done'")
        else:
            raise SimCompileError(
                f"{self.name}: unsupported terminator "
                f"{type(term).__name__}", code="RPR-K020")
        if not quiet:
            em.put("return 'active'")
        em.indent -= 1
        em.put("")
        return fname

    # ---- fused quiet loops ------------------------------------------------------

    def _quiet_loop(self, header: str) -> tuple[list[str], bool] | None:
        """The blocks of the loop ``header`` heads, header first, and
        whether a true branch stays in it; None unless the header ends in
        the loop's only exit ``Branch``, the other blocks form one ``Jump``
        chain back to the header and every step of them is quiet."""
        term = self.func.blocks[header].term
        if not isinstance(term, Branch) or isinstance(term.cond, Const):
            return None
        for b, stay in ((term.iftrue, True), (term.iffalse, False)):
            chain = [header]
            while (b in self.quiet and b not in chain
                   and isinstance(self.func.blocks[b].term, Jump)):
                chain.append(b)
                b = self.func.blocks[b].term.target
            if b == header and all("None" not in self.quiet[c]
                                   for c in chain):
                return chain, stay
        return None

    def loop_fn(self, em: _Emitter, lid: int, chain: list[str],
                stay: bool) -> str | None:
        """One quiet loop as a single function of a cycle budget ``n``,
        entered at the header's step 0: its scalars live in Python locals
        and whole iterations run inside ``while True``, one cycle per
        step. It stops at the loop exit or when the budget runs out at a
        step boundary, writes back every scalar the loop wrote, leaves
        ``P.block``/``P.step`` where ``n`` ticks would, and returns the
        cycles it ran and the next quiet step (None at the budget).
        Returns the name of that exit successor ("None" when it is loud),
        or None, emitting nothing, when the loop names an undeclared
        scalar."""
        header = chain[0]
        term = self.func.blocks[header].term
        pos = [(b, s) for b in chain for s in range(len(self.quiet[b]))]
        last = len(self.quiet[header]) - 1
        body = _Emitter()
        body.indent = em.indent + 2
        self.loc, self.wrote = {}, set()
        try:
            for k, (b, s) in enumerate(pos):
                body.put(f"# {b}[{s}]")
                for instr in self._instrs(b, s):
                    self.exec_instr(body, instr)
                body.put("m -= 1")
                if k == last:
                    cond = self.opnd(term.cond).src
                    body.put(f"if {'not ' if stay else ''}{cond}: break")
                body.put(f"if not m: k = {(k + 1) % len(pos)}; break")
            names, wrote = self.loc, self.wrote
        finally:
            self.loc = None
        if not names.keys() <= self.func.scalars.keys():
            return None
        em.put(f"def _L{lid}(n):")
        em.indent += 1
        em.put(f"# fused loop {' '.join(chain)}")
        for name, local in names.items():
            em.put(f"{local} = E[{name!r}]")
        em.put("m = n")
        em.put("k = -1")
        em.put("while True:")
        em.lines.extend(body.lines)
        for name, local in names.items():
            if name in wrote:
                em.put(f"E[{name!r}] = {local}")
        em.put("if k < 0:")
        em.indent += 1
        nxt = self._enter(em, term.iffalse if stay else term.iftrue,
                          False, last + 1)
        em.put(f"return n - m, {nxt}")
        em.indent -= 1
        em.put(f"P.block, P.step = {tuple(pos)!r}[k]")
        em.put("return n - m, None")
        em.indent -= 1
        em.put("")
        return nxt

    # ---- pipelined blocks -------------------------------------------------------

    def pipe_fn(self, em: _Emitter, fid: int, block_name: str) -> str:
        """Compile one modulo-scheduled loop: per-stage ready/exec
        functions plus a tick function replaying the interpreter's
        initiation / squash / drain protocol with the stage instruction
        lists resolved at compile time."""
        ps = self.fsched.pipelines[block_name]
        stage_ops: dict[int, list[Instr]] = {}
        for stage in range(ps.latency):
            # same comprehension as the interpreted _tick_pipe: plan order
            # is instr_step iteration order, one list per stage
            ops = [ps.instrs[i] for i, s in ps.instr_step.items()
                   if s == stage]
            if ops:
                stage_ops[stage] = ops

        self.ov = "o"
        rdy_fns: dict[int, str] = {}
        ex_fns: dict[int, str] = {}
        try:
            for stage, ops in stage_ops.items():
                if any(self._is_streamlike(i) for i in ops):
                    fname = f"_p{fid}r{stage}"
                    em.put(f"def {fname}(o):")
                    em.indent += 1
                    for instr in ops:
                        self.ready_check(em, instr, fail="return False")
                    em.put("return True")
                    em.indent -= 1
                    em.put("")
                    rdy_fns[stage] = fname
                fname = f"_p{fid}x{stage}"
                em.put(f"def {fname}(o):")
                em.indent += 1
                em.put(f"# {block_name} stage {stage}")
                for instr in ops:
                    self.exec_instr(em, instr)
                em.put("return None")
                em.indent -= 1
                em.put("")
                ex_fns[stage] = fname
        finally:
            self.ov = None

        rdy_tbl = ", ".join(f"{s}: {f}" for s, f in rdy_fns.items())
        ex_tbl = ", ".join(f"{s}: {f}" for s, f in ex_fns.items())
        fname = f"_pipe{fid}"
        ok = ps.ok.name if ps.ok is not None else None
        em.put(f"_p{fid}rd = {{{rdy_tbl}}}")
        em.put(f"_p{fid}ex = {{{ex_tbl}}}")
        em.put(f"def {fname}():")
        em.indent += 1
        em.put(f"# pipelined block {block_name!r} "
               f"(ii={ps.ii}, latency={ps.latency})")
        em.put("inflight = P._inflight")
        em.put(f"_rd = _p{fid}rd")
        em.put(f"_ex = _p{fid}ex")
        # a handshake stuck mid-pipeline stalls everything
        em.put("for it in inflight:")
        em.indent += 1
        em.put("if it['squashed']:")
        em.indent += 1
        em.put("continue")
        em.indent -= 1
        em.put("r = _rd.get(it['stage'])")
        em.put("if r is not None and not r(it['overlay']):")
        em.indent += 1
        em.put("return 'stalled'")
        em.indent -= 2
        # initiation: starvation skips this cycle's initiation (a bubble)
        em.put("new_iter = None")
        em.put(f"if not P._draining and P._since_init + 1 >= {ps.ii}:")
        em.indent += 1
        em.put("o = {}")
        rdy0 = rdy_fns.get(0)
        if rdy0 is not None:
            em.put(f"if {rdy0}(o):")
            em.indent += 1
            em.put("new_iter = {'stage': 0, 'overlay': o, "
                   "'squashed': False}")
            em.indent -= 1
            em.put("elif not inflight:")
            em.indent += 1
            em.put("return 'stalled'  # nothing to advance: pipeline idles")
            em.indent -= 1
        else:
            em.put("new_iter = {'stage': 0, 'overlay': o, "
                   "'squashed': False}")
        em.indent -= 1
        em.put("for it in inflight:")
        em.indent += 1
        em.put("if it['squashed']:")
        em.indent += 1
        em.put("continue")
        em.indent -= 1
        em.put("f = _ex.get(it['stage'])")
        em.put("if f is not None:")
        em.indent += 1
        em.put("f(it['overlay'])")
        em.indent -= 2
        em.put("if new_iter is not None:")
        em.indent += 1
        ex0 = ex_fns.get(0)
        if ex0 is not None:
            em.put(f"{ex0}(new_iter['overlay'])")
        if ok is not None:
            em.put(f"if (new_iter['overlay'][{ok!r}] if {ok!r} in "
                   f"new_iter['overlay'] else E.get({ok!r}, 0)) == 0:")
            em.indent += 1
            em.put("new_iter['squashed'] = True")
            em.put("P._draining = True")
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            em.put("P.iterations_started += 1")
            em.indent -= 1
        else:
            em.put("P.iterations_started += 1")
        em.put("inflight.append(new_iter)")
        em.put("P._since_init = 0")
        em.indent -= 1
        em.put("else:")
        em.indent += 1
        em.put("P._since_init += 1")
        em.indent -= 1
        em.put("for it in inflight:")
        em.indent += 1
        em.put("it['stage'] += 1")
        em.indent -= 1
        em.put(f"P._inflight = [it for it in inflight if it['stage'] < "
               f"{ps.latency} and not it['squashed']]")
        # commit end-of-cycle register/memory writes
        em.put("_pel = P._pending_env")
        em.put("if _pel:")
        em.indent += 1
        em.put("for name, value in _pel:")
        em.indent += 1
        em.put("E[name] = value")
        em.indent -= 1
        em.put("_pel.clear()")
        em.indent -= 1
        em.put("_pml = P._pending_mem")
        em.put("if _pml:")
        em.indent += 1
        em.put("_mems = P.memories")
        em.put("for mem_name, idx, value in _pml:")
        em.indent += 1
        em.put("_mems[mem_name][idx] = value")
        em.indent -= 1
        em.put("_pml.clear()")
        em.indent -= 1
        em.put("if P._draining and not P._inflight:")
        em.indent += 1
        self._enter(em, ps.exit_block, quiet=False)
        em.indent -= 1
        em.put("return 'active'")
        em.indent -= 1
        em.put("")
        return fname

    # ---- whole schedule ---------------------------------------------------------

    def generate(self) -> str:
        body = _Emitter()
        body.indent = 1
        table: dict[str, list[str]] = {}
        pipe_table: dict[str, str] = {}
        # number every function first: a quiet step names its successor
        first: dict[str, int] = {}
        fid = 0
        for block_name in self.func.blocks:
            first[block_name] = fid
            if block_name in self.fsched.pipelines:
                fid += 1
            elif block_name in self.fsched.blocks:
                n = self.fsched.blocks[block_name].length
                self.quiet[block_name] = [
                    f"_f{fid + s}" if self._is_quiet(block_name, s) else "None"
                    for s in range(n)]
                fid += n
        for block_name, f0 in first.items():
            if block_name in self.fsched.pipelines:
                pipe_table[block_name] = self.pipe_fn(body, f0, block_name)
            elif block_name in self.quiet:
                table[block_name] = [
                    self.step_fn(body, f0 + s, block_name, s)
                    for s in range(len(self.quiet[block_name]))]
        # fused loops go to a second top-level function, ``_loops``, that
        # ``_build`` calls with the names they share (see ``_template``)
        lp = _Emitter()
        lp.indent = 1
        loops: list[str] = []
        shared = dict.fromkeys(["P", "E", "_div", "_mod", "_ext",
                                *self.mem_locals.values()])
        for block_name in self.quiet:
            found = self._quiet_loop(block_name)
            nxt = found and self.loop_fn(lp, len(loops), *found)
            if nxt:
                loops.append(table[block_name][0])
                shared.update(dict.fromkeys((loops[-1], nxt)))
        shared.pop("None", None)
        args = ", ".join(shared)

        em = _Emitter()
        em.put(f"# compiled cycle model of process {self.name!r} "
               f"({fid} step/pipeline functions)")
        em.put("def _build(pe):")
        em.indent += 1
        em.put("P = pe")
        em.put("E = pe.env")
        em.put("_div = pe._sc_div")
        em.put("_mod = pe._sc_mod")
        em.put("_ext = pe.ext_funcs.get('ext_hdl', _IDENT)")
        em.put("_pend = pe._pending_env.append")
        em.put("_pendm = pe._pending_mem.append")
        for (kind, name), local in self.channels.items():
            src = "streams" if kind == "stream" else "taps"
            em.put(f"{local} = pe.{src}[{name!r}]")
            em.put(f"{local}_q = {local}.queue")
            em.put(f"{local}_pop = {local}.pop")
            em.put(f"{local}_push = {local}.push")
            em.put(f"{local}_can = {local}.can_push")
            em.put(f"{local}_close = {local}.close")
            em.put(f"{local}_m = (1 << {local}.width) - 1")
        for name, local in self.mem_locals.items():
            em.put(f"{local} = pe.memories[{name!r}]")
        em.put("")
        em.lines.extend(body.lines)
        prows = [f"{name!r}: {fn}" for name, fn in pipe_table.items()]
        em.put(f"return ({_table_src(table)}, {{{', '.join(prows)}}},")
        em.put(f"        {_table_src(self.quiet)},")
        em.put(f"        {f'_loops({args})' if loops else '{}'})")
        em.indent -= 1
        if loops:
            em.put(f"def _loops({args}):")
            em.lines.extend(lp.lines)
            rows = ", ".join(f"{f}: _L{i}" for i, f in enumerate(loops))
            em.put(f"    return {{{rows}}}")
        return "\n".join(em.lines) + "\n"


#: instruction attrs the codegen reads that ``Instr.__str__`` does not print
_UNPRINTED = ("pred", "channel", "force_compare_width")


def _unprinted(instrs: list[Instr]) -> list[str]:
    return [f"{i} {k}={instr.attrs[k]}" for i, instr in enumerate(instrs)
            for k in _UNPRINTED if k in instr.attrs]


def _schedule_digest(fsched: FunctionSchedule) -> str:
    """Deterministic textual identity of everything the codegen consumes:
    the printed function (streams, arrays, typed operands, terminators),
    the instruction attrs its printer leaves out, and the schedule."""
    func = fsched.func
    parts = [str(func), func.entry]
    for bname, block in func.blocks.items():
        bs = fsched.blocks.get(bname)
        parts.append(f"== {bname} {bs.length}: {bs.steps}" if bs is not None
                     else f"== {bname} pipelined")
        parts += _unprinted(block.instrs)
    for bname, ps in fsched.pipelines.items():
        parts.append(repr((bname, ps.header, ps.exit_block,
                           ps.ok.name if ps.ok is not None else None,
                           ps.ii, ps.latency, list(ps.instr_step.items()))))
        parts += map(str, ps.instrs)
        parts += _unprinted(ps.instrs)
    return "\n".join(parts)


def generate_sched_source(fsched: FunctionSchedule) -> str:
    """Generate (uncached) compiled cycle-model source for ``fsched``."""
    return _SchedCompiler(fsched).generate()


def sched_exec_source(fsched: FunctionSchedule, cache=None) -> str:
    """Cached variant of :func:`generate_sched_source`."""
    return cached_source(
        (_schedule_digest(fsched),),
        lambda: generate_sched_source(fsched),
        cache=cache,
    )


def _template(fsched: FunctionSchedule, cache) -> tuple[str, object]:
    """``fsched``'s generated source and its exec'd ``_build``, made once
    per schedule object (a compiled schedule is never modified) until
    :func:`~repro.simc.codecache.clear_memo`; each run binds ``_build`` to
    its own state."""
    memo = fsched.memo()
    hit = memo.get("build")
    if hit is not None and hit[0] == codecache.generation:
        return hit[1:]
    source = sched_exec_source(fsched, cache=cache)
    ns = {"__builtins__": {}, "_IDENT": _identity, "_len": len}
    # the fused loops compile apart: compile() holds about 100 bytes per
    # source character, so the peak is the larger part's, not the sum's
    head, sep, tail = source.partition("\ndef _loops(")
    for part in filter(None, (head, sep + tail)):
        exec(compile_source(part, f"<simc-sched:{fsched.func.name}>"), ns)
    memo["build"] = (codecache.generation, source, ns["_build"])
    return source, ns["_build"]


class CompiledProcessExec(ProcessExec):
    """Hybrid :class:`ProcessExec` with blocks compiled to bytecode.

    ``tick`` dispatches to a compiled per-``(block, step)`` function or a
    compiled per-pipeline tick function; any block the codegen skipped
    falls back to the interpreted path mid-run (same semantics, shared
    state). Raises :class:`SimCompileError` when the schedule cannot be
    specialized.
    """

    backend = "compiled"

    def __init__(
        self,
        fsched: FunctionSchedule,
        streams: dict[str, Channel],
        taps: dict[str, Channel] | None = None,
        ext_funcs=None,
        name: str | None = None,
        cache=None,
    ) -> None:
        super().__init__(fsched, streams, taps, ext_funcs, name)
        self.source, build = _template(fsched, cache)
        try:
            (self._seq_fns, self._pipe_fns, self._quiet_fns,
             self._loops) = build(self)
        except KeyError as exc:
            # an unbound tap channel the interpreter would only touch on
            # first use; fall back so the lazier behaviour is preserved
            raise SimCompileError(
                f"{self.name}: cannot bind channel {exc} during "
                "specialization", code="RPR-K021") from exc

    # Subclassing ProcessExec is what makes the hybrid work: a block the
    # codegen skipped ticks through the inherited interpreter on the same
    # state, and the watchdog, fault hooks (``upset_register``,
    # ``quarantine``) and ``trace()`` see one object whichever path ran.

    # ---- helpers referenced from generated code -------------------------------

    def _sc_div(self, a: int, b: int) -> int:
        """C truncating division."""
        return semantics.c_div(a, b, self.name)

    def _sc_mod(self, a: int, b: int) -> int:
        return a - semantics.c_div(a, b, self.name) * b

    # ---- clocking --------------------------------------------------------------

    def tick(self) -> str:
        """:meth:`ProcessExec.tick`, calling the compiled step or pipeline
        function directly; a block the codegen skipped ticks through the
        inherited interpreter."""
        if self.done:
            return "done"
        self.cycles += 1
        if self.mode == "seq":
            fns = self._seq_fns.get(self.block)
            if fns is None:
                status = self._tick_seq()
            else:
                status = fns[self.step]()
                if status.__class__ is not str:
                    return "active"  # a quiet step returned its successor
        else:
            fn = self._pipe_fns.get(self.block)
            status = fn() if fn is not None else self._tick_pipe()
        if status == "stalled":
            self.stall_cycles += 1
        return status

    def run_quiet(self, limit: int) -> int:
        """Tick through up to ``limit`` consecutive quiet (channel-free,
        non-returning) steps, one cycle each, and return how many ran.
        Each such tick returns 'active' and touches nothing outside this
        process, so the caller can account the rest of the system for
        those cycles in bulk. Every quiet step function returns the next
        one, resolved at codegen time across jumps and branches, so a
        stretch costs one call per cycle; a step whose successor is loud,
        pipelined or interpreted returns None, which ends the stretch.
        Reaching the header of a fused quiet loop hands the rest of the
        budget to that loop's function, which runs whole iterations over
        Python locals and returns the cycles it ran and the step to go on
        with; the stretch then continues from there."""
        fns = self._quiet_fns.get(self.block)
        fn = None if fns is None else fns[self.step]
        loops = self._loops
        n = 0
        while fn is not None and n < limit:
            loop = loops.get(fn)
            if loop is None:
                fn = fn()
                n += 1
            else:
                k, fn = loop(limit - n)
                n += k
        self.cycles += n
        return n
