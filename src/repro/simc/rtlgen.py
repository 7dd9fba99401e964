"""Compiled RTL simulation: specialize an :class:`R.Module` to Python source.

The interpreted :class:`repro.rtl.sim.RtlSim` re-walks the expression AST
of every datapath assignment on every clock cycle. This module performs
that walk **once**, at simulator construction, emitting one specialized
Python function per FSM state — truncation masks folded to hex literals,
sign extension as the branchless ``(v ^ C) - C`` pattern, stream ports
resolved to direct :class:`Channel` attribute references, and the
deferred register-update protocol compiled to sentinel locals — then
compiles the whole thing with :func:`compile` and drives it from an
inherited ``tick``/``run`` API.

Bit-identity with the interpreter is the contract: every construct is
translated to code with exactly the interpreter's masking, evaluation
order, laziness (``CondExpr`` branches), strictness (``&&``/``||``
operands are eager, as in ``RtlSim.eval``), error codes, and side-effect
ordering — enforced end to end by the difftest lockstep oracle running
both backends in the same cycle loop. Anything outside the translatable
subset raises :class:`SimCompileError` (``RPR-K``) at construction, which
backend selection turns into an interpreter fallback plus a warning
diagnostic.

Fault-injector hooks survive compilation because word movement still goes
through :meth:`Channel.push`/:meth:`Channel.pop`/:meth:`Channel.can_push`
method calls (those carry the hooks), while hook-free predicates
(``can_pop`` is ``bool(queue)``) are inlined as deque truthiness.
"""

from __future__ import annotations

from repro.errors import SimCompileError, SimulationError
from repro.hls.cyclemodel import Channel
from repro.rtl import core as R
from repro.rtl.sim import RtlSim
from repro.utils.bitops import mask

from .codecache import cached_source, compile_source

__all__ = ["CompiledRtlSim", "generate_rtl_source", "rtl_sim_source"]


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


def _sext_src(var: str, width: int) -> str:
    """Branchless sign extension of an already-masked ``width``-bit value."""
    if width <= 0:
        return "0"
    c = 1 << (width - 1)
    return f"(({var} ^ {hex(c)}) - {hex(c)})"


class _RtlCompiler:
    """Translates one module (with a fixed stream classification) to source."""

    def __init__(self, module: R.Module, readers: tuple[str, ...],
                 writers: tuple[str, ...]) -> None:
        self.module = module
        self.readers = tuple(readers)
        self.writers = tuple(writers)
        self.static_regs = {"state"}
        for sig in module.regs:
            self.static_regs.add(sig.name)
        self.mem_locals: dict[str, str] = {
            mem.name: f"_m{i}" for i, mem in enumerate(module.memories)
        }
        self.mem_depths: dict[str, int] = {
            mem.name: mem.depth for mem in module.memories
        }
        # stream ports resolvable at compile time -> inline source fragments
        self.port_exprs: dict[str, str] = {}
        # strobe name -> action emitter
        self.strobes: dict[str, tuple[str, str]] = {}
        for i, name in enumerate(self.readers):
            q = f"_r{i}_q"
            self.port_exprs[f"{name}_data"] = f"({q}[0] if {q} else 0)"
            self.port_exprs[f"{name}_empty"] = f"(0 if {q} else 1)"
            self.port_exprs[f"{name}_eos"] = f"(1 if _r{i}.closed else 0)"
            self.strobes[f"{name}_re"] = ("pop", f"_r{i}")
        for i, name in enumerate(self.writers):
            self.port_exprs[f"{name}_full"] = f"(0 if _w{i}_can() else 1)"
            self.strobes[f"{name}_we"] = ("push", f"_w{i}")
            self.strobes[f"{name}_close"] = ("close", f"_w{i}")

    # ---- expressions ----------------------------------------------------------

    def expr(self, em: _Emitter, e: R.Expr) -> str:
        """Emit code computing ``e``; returns the variable/literal source.

        The returned fragment always holds exactly what ``RtlSim.eval``
        would return for this node: the unsigned pattern truncated to the
        node's width (comparisons and logical ops yield raw 0/1).
        """
        m = mask(e.width)
        if isinstance(e, R.Lit):
            return hex(e.value & m)
        if isinstance(e, R.Ref):
            name = e.signal.name
            if name in self.static_regs:
                return self._bind(em, f"(R[{name!r}] & {hex(m)})")
            port = self.port_exprs.get(name)
            if port is not None:
                return self._bind(em, f"({port} & {hex(m)})")
            # resolved at run time like the interpreter: a dynamically
            # created register if present, else a port (unknown ports
            # raise RPR-X103 from the shared dispatch table)
            return self._bind(em, f"(_dyn({name!r}) & {hex(m)})")
        if isinstance(e, R.UnExpr):
            v = self.expr(em, e.operand)
            if e.op == "-":
                return self._bind(em, f"((-{v}) & {hex(m)})")
            if e.op == "~":
                return self._bind(em, f"((~{v}) & {hex(m)})")
            if e.op == "!":
                return self._bind(em, f"(1 if {v} == 0 else 0)")
            if e.op == "zext":
                if e.width >= e.operand.width:
                    return v
                return self._bind(em, f"({v} & {hex(m)})")
            if e.op == "sext":
                s = _sext_src(v, e.operand.width)
                return self._bind(em, f"({s} & {hex(m)})")
            raise SimCompileError(
                f"{self.module.name}: unsupported unary op {e.op!r}",
                code="RPR-K010")
        if isinstance(e, R.BinExpr):
            return self._binexpr(em, e, m)
        if isinstance(e, R.CondExpr):
            c = self.expr(em, e.cond)
            out = em.fresh()
            em.put(f"if {c}:")
            em.indent += 1
            t = self.expr(em, e.iftrue)
            em.put(f"{out} = {t} & {hex(m)}")
            em.indent -= 1
            em.put("else:")
            em.indent += 1
            f = self.expr(em, e.iffalse)
            em.put(f"{out} = {f} & {hex(m)}")
            em.indent -= 1
            return out
        if isinstance(e, R.SliceExpr):
            v = self.expr(em, e.operand)
            sm = mask(e.msb - e.lsb + 1)
            if e.lsb:
                return self._bind(em, f"(({v} >> {e.lsb}) & {hex(sm)})")
            return self._bind(em, f"({v} & {hex(sm)})")
        if isinstance(e, R.MemRead):
            idx = self.expr(em, e.index)
            if e.memory == "$ext_hdl":
                return self._bind(em, f"(_X({idx}) & {hex(m)})")
            local = self.mem_locals.get(e.memory)
            if local is None:
                raise SimCompileError(
                    f"{self.module.name}: read of unknown memory "
                    f"{e.memory!r}", code="RPR-K011")
            depth = self.mem_depths[e.memory]
            return self._bind(em, f"{local}[{idx} % {depth}]")
        raise SimCompileError(
            f"{self.module.name}: unsupported RTL expression "
            f"{type(e).__name__}", code="RPR-K010")

    def _bind(self, em: _Emitter, src: str) -> str:
        var = em.fresh()
        em.put(f"{var} = {src}")
        return var

    def _binexpr(self, em: _Emitter, e: R.BinExpr, m: int) -> str:
        # both operands evaluate eagerly, left first — RtlSim.eval does the
        # same even for '&&'/'||', so a poisoned right operand (division by
        # zero, unknown port) must still raise
        a = self.expr(em, e.left)
        b = self.expr(em, e.right)
        op = e.op
        if op == "+":
            return self._bind(em, f"(({a} + {b}) & {hex(m)})")
        if op == "-":
            return self._bind(em, f"(({a} - {b}) & {hex(m)})")
        if op == "*":
            return self._bind(em, f"(({a} * {b}) & {hex(m)})")
        if op in ("/", "%"):
            if e.signed_cmp:
                a = self._bind(em, _sext_src(a, e.left.width))
                b = self._bind(em, _sext_src(b, e.right.width))
            fn = "_div" if op == "/" else "_mod"
            return self._bind(em, f"({fn}({a}, {b}) & {hex(m)})")
        if op in ("&", "|", "^"):
            src = f"({a} {op} {b})"
            if e.width < max(e.left.width, e.right.width):
                src = f"({src} & {hex(m)})"
            return self._bind(em, src)
        if op == "<<":
            return self._bind(em, f"(({a} << ({b} % 64)) & {hex(m)})")
        if op == ">>":
            src = f"({a} >> ({b} % 64))"
            if e.width < e.left.width:
                src = f"({src} & {hex(m)})"
            return self._bind(em, src)
        if op == ">>>":
            s = _sext_src(a, e.left.width)
            return self._bind(em, f"(({s} >> ({b} % 64)) & {hex(m)})")
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if e.signed_cmp:
                a = self._bind(em, _sext_src(a, e.left.width))
                b = self._bind(em, _sext_src(b, e.right.width))
            return self._bind(em, f"(1 if {a} {op} {b} else 0)")
        if op == "&&":
            return self._bind(em, f"(1 if {a} and {b} else 0)")
        if op == "||":
            return self._bind(em, f"(1 if {a} or {b} else 0)")
        if op == "concat":
            return self._bind(
                em, f"((({a} << {e.right.width}) | {b}) & {hex(m)})")
        raise SimCompileError(
            f"{self.module.name}: unsupported binary op {op!r}",
            code="RPR-K010")

    # ---- statements -----------------------------------------------------------

    def stmt(self, em: _Emitter, s: R.Stmt, pending: dict[str, str]) -> None:
        if isinstance(s, R.BlockingAssign):
            v = self.expr(em, s.expr)
            tm = mask(s.target.width)
            em.put(f"R[{s.target.name!r}] = {v} & {hex(tm)}")
            return
        if isinstance(s, R.RegAssign):
            v = self.expr(em, s.expr)
            tm = mask(s.target.width)
            slot = pending.get(s.target.name)
            if slot is None:
                slot = f"_p{len(pending)}"
                pending[s.target.name] = slot
            em.put(f"{slot} = {v} & {hex(tm)}")
            return
        if isinstance(s, R.MemWrite):
            local = self.mem_locals.get(s.memory)
            if local is None:
                raise SimCompileError(
                    f"{self.module.name}: write to unknown memory "
                    f"{s.memory!r}", code="RPR-K011")
            idx = self.expr(em, s.index)
            val = self.expr(em, s.value)
            em.put(f"{local}[{idx} % {self.mem_depths[s.memory]}] = {val}")
            return
        if isinstance(s, R.If):
            c = self.expr(em, s.cond)
            em.put(f"if {c}:")
            em.indent += 1
            if s.then:
                for sub in s.then:
                    self.stmt(em, sub, pending)
            else:
                em.put("pass")
            em.indent -= 1
            if s.otherwise:
                em.put("else:")
                em.indent += 1
                for sub in s.otherwise:
                    self.stmt(em, sub, pending)
                em.indent -= 1
            return
        raise SimCompileError(
            f"{self.module.name}: unsupported RTL statement "
            f"{type(s).__name__}", code="RPR-K010")

    # ---- states ---------------------------------------------------------------

    def _collect_pending(self, stmts, out: set[str]) -> None:
        for s in stmts:
            if isinstance(s, R.RegAssign):
                out.add(s.target.name)
            elif isinstance(s, R.If):
                self._collect_pending(s.then, out)
                self._collect_pending(s.otherwise, out)

    def state_fn(self, em: _Emitter, sc: R.StateCase) -> str:
        fname = f"_s{sc.index}"
        em.put(f"def {fname}():")
        em.indent += 1
        em.put(f"# state {sc.index} ({sc.label})")
        if sc.stall is not None:
            c = self.expr(em, sc.stall)
            em.put(f"if {c}:")
            em.indent += 1
            em.put("S.stalled += 1")
            em.put("return 'stalled'")
            em.indent -= 1
        # deferred register updates: one sentinel local per target,
        # initialized before the body so an untaken conditional assign
        # leaves it unset (matching the interpreter's deferred list)
        targets: set[str] = set()
        self._collect_pending(sc.body, targets)
        pending: dict[str, str] = {
            name: f"_p{i}" for i, name in enumerate(sorted(targets))
        }
        for slot in pending.values():
            em.put(f"{slot} = _U")
        for s in sc.body:
            self.stmt(em, s, pending)
        if sc.next_state is not None:
            ns = self.expr(em, sc.next_state)
        else:
            ns = str(sc.index)
        # interface strobes see post-datapath blocking values but the
        # pre-transition registers; commits and the state write come after
        for sig, expr in self.module.assigns:
            v = self.expr(em, expr)
            self._strobe(em, sig.name, v)
        for name, slot in pending.items():
            em.put(f"if {slot} is not _U:")
            em.indent += 1
            em.put(f"R[{name!r}] = {slot}")
            em.indent -= 1
        em.put(f"R['state'] = {ns}")
        em.put("return 'active'")
        em.indent -= 1
        em.put("")
        return fname

    def _strobe(self, em: _Emitter, name: str, value: str) -> None:
        action = self.strobes.get(name)
        if action is not None:
            kind, ch = action
            if kind == "pop":
                em.put(f"if {value} and {ch}_q:")
                em.indent += 1
                em.put(f"{ch}_pop()")
                em.indent -= 1
            elif kind == "push":
                stream = name[: -len("_we")]
                em.put(f"if {value}:")
                em.indent += 1
                em.put(f"{ch}_push(R[{stream + '_data_r'!r}] & {ch}_m)")
                em.indent -= 1
            else:  # close
                em.put(f"if {value}:")
                em.indent += 1
                em.put(f"{ch}_close()")
                em.indent -= 1
            return
        if name.startswith("tap_") and name.endswith("_valid"):
            channel = name[len("tap_"):-len("_valid")]
            reg = f"tap_{channel}_r"
            em.put(f"if {value}:")
            em.indent += 1
            # setdefault keeps tap dict keys lazy: a channel appears only
            # once its valid strobe actually fires, exactly like the
            # interpreter's taps dict
            em.put(f"T.setdefault({channel!r}, []).append"
                   f"(R.get({reg!r}, 0))")
            em.indent -= 1
        # any other assign target: value computed (side effects/errors
        # preserved), no interface action — same as _interface_strobe

    # ---- whole module ---------------------------------------------------------

    def generate(self) -> str:
        em = _Emitter()
        em.put(f"# compiled RTL simulation of module "
               f"{self.module.name!r} ({len(self.module.states)} states)")
        em.put("def _build(sim):")
        em.indent += 1
        em.put("R = sim.regs")
        em.put("T = sim.taps")
        em.put("S = sim")
        em.put("_U = _SENTINEL")
        em.put("_dyn = sim._dyn_ref")
        em.put("_div = sim._div")
        em.put("_mod = sim._mod")
        em.put("_X = sim.ext_hdl")
        for i, name in enumerate(self.readers):
            em.put(f"_r{i} = sim.streams[{name!r}]")
            em.put(f"_r{i}_q = _r{i}.queue")
            em.put(f"_r{i}_pop = _r{i}.pop")
        for i, name in enumerate(self.writers):
            em.put(f"_w{i} = sim.streams[{name!r}]")
            em.put(f"_w{i}_push = _w{i}.push")
            em.put(f"_w{i}_can = _w{i}.can_push")
            em.put(f"_w{i}_close = _w{i}.close")
            em.put(f"_w{i}_m = (1 << _w{i}.width) - 1")
        for mem in self.module.memories:
            em.put(f"{self.mem_locals[mem.name]} = "
                   f"sim.memories[{mem.name!r}]")
        em.put("")
        fnames = {}
        for sc in self.module.states:
            fnames[sc.index] = self.state_fn(em, sc)
        table = ", ".join(f"{idx}: {fn}" for idx, fn in fnames.items())
        em.put(f"return {{{table}}}")
        em.indent -= 1
        return "\n".join(em.lines) + "\n"


def generate_rtl_source(module: R.Module, readers: tuple[str, ...],
                        writers: tuple[str, ...]) -> str:
    """Generate (uncached) specialized simulation source for ``module``."""
    return _RtlCompiler(module, readers, writers).generate()


def rtl_sim_source(module: R.Module, readers: tuple[str, ...],
                   writers: tuple[str, ...], cache=None) -> str:
    """Cached variant of :func:`generate_rtl_source`.

    The key covers the full module structure plus the stream
    classification (the generated source hard-codes both).
    """
    return cached_source(
        "rtl",
        (repr(module), tuple(readers), tuple(writers)),
        lambda: generate_rtl_source(module, readers, writers),
        cache=cache,
    )


#: unique "no deferred write" marker bound into generated builders
_SENTINEL = object()


class CompiledRtlSim(RtlSim):
    """Drop-in :class:`RtlSim` with the FSM compiled to Python bytecode.

    Construction performs (or fetches from cache) the specialization and
    raises :class:`SimCompileError` on untranslatable designs; after that
    every ``tick`` dispatches straight into the compiled state function.
    All observable state (``regs``, ``taps``, ``memories``, ``cycles``,
    ``stalled``, channel contents/stats) matches the interpreter bit for
    bit.
    """

    backend = "compiled"

    def __init__(
        self,
        module: R.Module,
        streams: dict[str, Channel],
        ext_hdl=None,
        injector=None,
        cache=None,
    ) -> None:
        super().__init__(module, streams, ext_hdl, injector)
        source = rtl_sim_source(
            module,
            tuple(sorted(self._readers)),
            tuple(sorted(self._writers)),
            cache=cache,
        )
        self.source = source
        code = compile_source(source, f"<simc-rtl:{module.name}>")
        ns = {"__builtins__": {}, "_SENTINEL": _SENTINEL}
        exec(code, ns)
        self._state_fns = ns["_build"](self)
        self._done_state = module.meta.get("done_state")

    # Subclassing RtlSim shares construction (register file, memory
    # images, stream classification, the port table ``_dyn_ref`` falls back
    # on) and the inherited ``run`` loop with the interpreter; only ``tick``
    # differs.

    # ---- helpers referenced from generated code -------------------------------

    def _dyn_ref(self, name: str) -> int:
        """Interpreter-identical dynamic name resolution (reg, then port)."""
        regs = self.regs
        if name in regs:
            return regs[name]
        return self._port_value(name)

    def _div(self, a: int, b: int) -> int:
        if b == 0:
            raise SimulationError(
                f"{self.module.name}: divide by zero", code="RPR-X105")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q

    def _mod(self, a: int, b: int) -> int:
        if b == 0:
            raise SimulationError(
                f"{self.module.name}: divide by zero", code="RPR-X105")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return a - q * b

    # ---- clocking --------------------------------------------------------------

    def tick(self) -> str:
        if self.done:
            return "done"
        state = self.regs["state"]
        if state == self._done_state:
            self.done = True
            return "done"
        self.cycles += 1
        if self.injector is not None:
            self.injector.tick()
        fn = self._state_fns.get(state)
        if fn is None:
            raise SimulationError(
                f"{self.module.name}: no state {state}", code="RPR-X109")
        return fn()
