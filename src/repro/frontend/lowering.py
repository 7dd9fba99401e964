"""Lowering: C AST (:mod:`repro.frontend.parser`) → typed three-address IR.

One :class:`~repro.ir.function.IRFunction` is produced per C function; a
function whose parameters include ``co_stream`` values is a *process* in
the Impulse-C sense and is the unit of hardware synthesis.

Synthesizable dialect (everything the paper's case studies need):

* integer scalars and fixed-size local arrays (``const`` arrays → ROMs)
* assignments including compound forms, ``++``/``--``
* ``if``/``else``, ``while``, ``do``/``while``, ``for``, ``break``,
  ``continue``, ``return``
* integer expressions: arithmetic, bitwise, shifts, comparisons, logical
  ``&&``/``||``/``!`` (evaluated without short-circuit, as synthesized
  datapaths do), ``?:``, casts
* intrinsics: ``co_stream_read/write/close``, ``assert``, ``ext_hdl``
* ``#pragma CO PIPELINE`` ahead of a loop marks it for pipelining

``assert(expr)`` lowers to the evaluation of ``expr`` followed by an
``assert_check`` pseudo-instruction carrying an :class:`AssertionSite`
(file, line, function, expression text — the ANSI-C failure message
fields). How that pseudo-op becomes hardware is the subject of
:mod:`repro.core`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.diagnostics.sink import DiagnosticSink
from repro.errors import LoweringError, ReproError, ReproTypeError
from repro.frontend import ctypes_
from repro.frontend import parser as c_ast
from repro.frontend.ctypes_ import CType, U1, common_type, lookup_type
from repro.frontend.intrinsics import INTRINSICS
from repro.frontend.parser import STREAM_TYPE_NAME, ParsedSource, expr_text, span_of
from repro.ir.function import IRFunction, IRModule
from repro.ir.instr import AssertionSite, BasicBlock, Branch, Instr, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, StreamParam, Temp, Value
from repro.utils.bitops import truncate

#: distinct strict-mode units :func:`lower_source` keeps (a Figs 4/5
#: sweep lowers about 140)
_MEMO_UNITS = 512
#: (source, filename, sorted defines) -> module of shared, read-only
#: functions, in LRU order
_MEMO: OrderedDict[tuple, IRModule] = OrderedDict()
_MEMO_LOCK = threading.Lock()

_BINOPS: dict[str, OpKind] = {
    "+": OpKind.ADD,
    "-": OpKind.SUB,
    "*": OpKind.MUL,
    "/": OpKind.DIV,
    "%": OpKind.MOD,
    "&": OpKind.AND,
    "|": OpKind.OR,
    "^": OpKind.XOR,
    "<<": OpKind.SHL,
    ">>": OpKind.SHR,
    "==": OpKind.EQ,
    "!=": OpKind.NE,
    "<": OpKind.LT,
    "<=": OpKind.LE,
    ">": OpKind.GT,
    ">=": OpKind.GE,
}

_COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}


@dataclass
class _LoopCtx:
    break_target: str
    continue_target: str


class FunctionLowerer:
    """Lowers a single ``c_ast.FuncDef``."""

    def __init__(self, parsed: ParsedSource, func_def: c_ast.FuncDef,
                 sink: DiagnosticSink | None = None) -> None:
        self.parsed = parsed
        self.func_def = func_def
        self.sink = sink if sink is not None else DiagnosticSink(strict=True)
        self.func = IRFunction(
            name=func_def.decl.name, source_file=parsed.filename
        )
        self.cur: BasicBlock | None = None
        self.loops: list[_LoopCtx] = []
        self.pending_pipeline = False
        self._assert_ordinal = 0

    # ---- plumbing ----------------------------------------------------------

    def _err(self, node: c_ast.Node, msg: str, *, code: str,
             hint: str | None = None) -> LoweringError:
        return LoweringError(msg, code=code,
                             span=span_of(node, self.parsed.filename),
                             hint=hint)

    def _coord(self, node: c_ast.Node) -> tuple[str, int]:
        """(filename, line) of a node, the IR's ``coord`` attribute."""
        return (self.parsed.filename or "?", node.line)

    def _type(self, name: str, node: c_ast.Node) -> CType:
        """:func:`lookup_type` attaching the node's span to type errors."""
        try:
            return lookup_type(name)
        except ReproTypeError as exc:
            if exc.span is None:
                exc.span = span_of(node, self.parsed.filename)
            raise

    def emit(self, instr: Instr, node: c_ast.Node | None = None) -> Instr:
        if self.cur is None:
            raise LoweringError("emit with no current block", code="RPR-L001")
        if node is not None:
            instr.attrs.setdefault("coord", self._coord(node))
        return self.cur.append(instr)

    def _seal(self, term) -> None:
        if self.cur is not None and self.cur.term is None:
            self.cur.term = term

    def _start(self, block: BasicBlock) -> None:
        self.cur = block

    def _bool(self, value: Value, node: c_ast.Node | None = None) -> Value:
        """Normalize a value to uint1 (C truthiness: != 0)."""
        if value.ty.width == 1 and not value.ty.signed:
            return value
        dest = self.func.new_temp(U1, "b")
        self.emit(Instr(OpKind.NE, [dest], [value, Const(0, value.ty)]), node)
        return dest

    # ---- declarations --------------------------------------------------------

    def lower(self) -> IRFunction:
        decl = self.func_def.decl
        params = []
        if decl.type.args is not None:
            params = list(decl.type.args.params)
        for p in params:
            if isinstance(p, c_ast.Typename) or p.name is None:
                continue  # (void)
            tyname = _type_name_of(p, self)
            if tyname == STREAM_TYPE_NAME:
                self.func.streams.append(StreamParam(p.name))
            else:
                self.func.declare_scalar(p.name, self._type(tyname, p))

        entry = BasicBlock("entry")
        self.func.blocks[entry.name] = entry
        self.func.entry = entry.name
        self._start(entry)
        if self.func_def.body.block_items:
            for stmt in self.func_def.body.block_items:
                try:
                    # recovery point: skip the bad statement, keep lowering
                    # the rest of the function body
                    self.stmt(stmt)
                except ReproError as exc:
                    self.sink.capture(exc)
        self._seal(Return())
        return self.func

    def _lower_decl(self, node: c_ast.Decl) -> None:
        quals = set(node.quals or []) | set(getattr(node, "storage", []) or [])
        is_const = "const" in quals
        if isinstance(node.type, c_ast.ArrayDecl):
            elem = self._type(_type_name_of(node, self), node)
            dim = node.type.dim
            init_values: tuple[int, ...] | None = None
            if node.init is not None:
                if not isinstance(node.init, c_ast.InitList):
                    raise self._err(node, "array initializer must be a list",
                                    code="RPR-L002")
                init_values = tuple(
                    truncate(_const_int(e, self), elem.width)
                    for e in node.init.exprs
                )
            if dim is None:
                if init_values is None:
                    raise self._err(node, f"array {node.name!r} has no size",
                                    code="RPR-L003")
                size = len(init_values)
            else:
                size = _const_int(dim, self)
            if size <= 0:
                raise self._err(node, f"array {node.name!r} has size {size}",
                                code="RPR-L004")
            if init_values is not None and len(init_values) > size:
                raise self._err(node, "too many initializers", code="RPR-L005")
            from repro.ir.values import ArrayDecl as IRArrayDecl

            arr = IRArrayDecl(node.name, elem, size, init=init_values, const=is_const)
            if node.name in self.func.scalars or node.name in self.func.arrays:
                raise self._err(node, f"redeclaration of {node.name!r}",
                                code="RPR-L006")
            self.func.arrays[node.name] = arr
        elif isinstance(node.type, c_ast.TypeDecl):
            ty = self._type(_type_name_of(node, self), node)
            temp = self.func.declare_scalar(node.name, ty)
            if node.init is not None:
                value = self.expr(node.init)
                self.emit(Instr(OpKind.MOV, [temp], [value]), node)
        else:
            raise self._err(node, f"unsupported declaration for {node.name!r}",
                            code="RPR-L007")

    # ---- statements ------------------------------------------------------------

    def stmt(self, node: c_ast.Node) -> None:
        if isinstance(node, c_ast.Decl):
            self._lower_decl(node)
        elif isinstance(node, c_ast.DeclList):
            for d in node.decls:
                self._lower_decl(d)
        elif isinstance(node, c_ast.Assignment):
            self._lower_assignment(node)
        elif isinstance(node, c_ast.UnaryOp) and node.op in (
            "p++", "p--", "++", "--",
        ):
            self._lower_incdec(node)
        elif isinstance(node, c_ast.FuncCall):
            self._lower_call(node, as_stmt=True)
        elif isinstance(node, c_ast.If):
            self._lower_if(node)
        elif isinstance(node, c_ast.While):
            self._lower_while(node)
        elif isinstance(node, c_ast.DoWhile):
            self._lower_dowhile(node)
        elif isinstance(node, c_ast.For):
            self._lower_for(node)
        elif isinstance(node, c_ast.Break):
            if not self.loops:
                raise self._err(node, "break outside loop", code="RPR-L008")
            self._seal(Jump(self.loops[-1].break_target))
            self._start(self.func.new_block("dead"))
        elif isinstance(node, c_ast.Continue):
            if not self.loops:
                raise self._err(node, "continue outside loop", code="RPR-L009")
            self._seal(Jump(self.loops[-1].continue_target))
            self._start(self.func.new_block("dead"))
        elif isinstance(node, c_ast.Return):
            value = self.expr(node.expr) if node.expr is not None else None
            self._seal(Return(value))
            self._start(self.func.new_block("dead"))
        elif isinstance(node, c_ast.Compound):
            for item in node.block_items or []:
                try:
                    # recovery point: one bad statement does not take down
                    # the enclosing compound
                    self.stmt(item)
                except ReproError as exc:
                    self.sink.capture(exc)
        elif isinstance(node, c_ast.Pragma):
            text = (node.string or "").strip().upper()
            if "PIPELINE" in text:
                self.pending_pipeline = True
        elif isinstance(node, c_ast.EmptyStatement):
            pass
        else:
            raise self._err(
                node, f"unsupported statement {type(node).__name__}",
                code="RPR-L010",
                hint="the synthesizable dialect has no goto/switch/labels",
            )

    def _take_pipeline_flag(self) -> bool:
        flag = self.pending_pipeline
        self.pending_pipeline = False
        return flag

    def _lower_assignment(self, node: c_ast.Assignment) -> None:
        rhs = self.expr(node.rvalue)
        if node.op != "=":
            binop = node.op[:-1]
            if binop not in _BINOPS:
                raise self._err(node, f"unsupported assignment op {node.op!r}",
                                code="RPR-L011")
            lhs_value = self.expr(node.lvalue)
            ct = common_type(lhs_value.ty, rhs.ty)
            dest = self.func.new_temp(ct, "t")
            self.emit(Instr(_BINOPS[binop], [dest], [lhs_value, rhs]), node)
            rhs = dest
        self._store_lvalue(node.lvalue, rhs)

    def _lower_incdec(self, node: c_ast.UnaryOp) -> None:
        kind = OpKind.ADD if "++" in node.op else OpKind.SUB
        value = self.expr(node.expr)
        dest = self.func.new_temp(value.ty, "t")
        self.emit(Instr(kind, [dest], [value, Const(1, value.ty)]), node)
        self._store_lvalue(node.expr, dest)

    def _store_lvalue(self, lvalue: c_ast.Node, value: Value) -> None:
        if isinstance(lvalue, c_ast.ID):
            ty = self.func.scalars.get(lvalue.name)
            if ty is None:
                raise self._err(lvalue,
                                f"assignment to undeclared {lvalue.name!r}",
                                code="RPR-L012")
            self.emit(Instr(OpKind.MOV, [Temp(lvalue.name, ty)], [value]), lvalue)
        elif isinstance(lvalue, c_ast.ArrayRef):
            name = _array_name(lvalue, self)
            arr = self.func.arrays.get(name)
            if arr is None:
                raise self._err(lvalue, f"store to undeclared array {name!r}",
                                code="RPR-L013")
            if arr.const:
                raise self._err(lvalue, f"store to const array {name!r}",
                                code="RPR-L014",
                                hint="const arrays synthesize to ROMs and "
                                     "cannot be written")
            idx = self.expr(lvalue.subscript)
            self.emit(
                Instr(OpKind.STORE, [], [idx, value], {"array": name}), lvalue
            )
        else:
            raise self._err(lvalue, "unsupported lvalue", code="RPR-L015")

    def _lower_if(self, node: c_ast.If) -> None:
        cond = self._bool(self.expr(node.cond), node)
        then_b = self.func.new_block("then")
        join_b = self.func.new_block("join")
        else_b = self.func.new_block("else") if node.iffalse is not None else join_b
        self._seal(Branch(cond, then_b.name, else_b.name))
        self._start(then_b)
        if node.iftrue is not None:
            self.stmt(node.iftrue)
        self._seal(Jump(join_b.name))
        if node.iffalse is not None:
            self._start(else_b)
            self.stmt(node.iffalse)
            self._seal(Jump(join_b.name))
        self._start(join_b)

    def _lower_while(self, node: c_ast.While) -> None:
        pipelined = self._take_pipeline_flag()
        header = self.func.new_block("while")
        body = self.func.new_block("body")
        exit_b = self.func.new_block("exit")
        header.pipeline = pipelined
        self._seal(Jump(header.name))
        self._start(header)
        cond = self._bool(self.expr(node.cond), node)
        self._seal(Branch(cond, body.name, exit_b.name))
        self.loops.append(_LoopCtx(exit_b.name, header.name))
        self._start(body)
        self.stmt(node.stmt)
        self._seal(Jump(header.name))
        self.loops.pop()
        self._start(exit_b)

    def _lower_dowhile(self, node: c_ast.DoWhile) -> None:
        pipelined = self._take_pipeline_flag()
        body = self.func.new_block("do")
        latch = self.func.new_block("latch")
        exit_b = self.func.new_block("exit")
        body.pipeline = pipelined
        self._seal(Jump(body.name))
        self.loops.append(_LoopCtx(exit_b.name, latch.name))
        self._start(body)
        self.stmt(node.stmt)
        self._seal(Jump(latch.name))
        self.loops.pop()
        self._start(latch)
        cond = self._bool(self.expr(node.cond), node)
        self._seal(Branch(cond, body.name, exit_b.name))
        self._start(exit_b)

    def _lower_for(self, node: c_ast.For) -> None:
        pipelined = self._take_pipeline_flag()
        if node.init is not None:
            self.stmt(node.init)
        header = self.func.new_block("for")
        body = self.func.new_block("body")
        step = self.func.new_block("step")
        exit_b = self.func.new_block("exit")
        header.pipeline = pipelined
        self._seal(Jump(header.name))
        self._start(header)
        if node.cond is not None:
            cond = self._bool(self.expr(node.cond), node)
            self._seal(Branch(cond, body.name, exit_b.name))
        else:
            self._seal(Jump(body.name))
        self.loops.append(_LoopCtx(exit_b.name, step.name))
        self._start(body)
        if node.stmt is not None:
            self.stmt(node.stmt)
        self._seal(Jump(step.name))
        self.loops.pop()
        self._start(step)
        if node.next is not None:
            self.stmt(node.next)
        self._seal(Jump(header.name))
        self._start(exit_b)

    # ---- calls -------------------------------------------------------------------

    def _lower_call(self, node: c_ast.FuncCall, as_stmt: bool) -> Value | None:
        if not isinstance(node.name, c_ast.ID):
            raise self._err(node, "indirect calls are not synthesizable",
                            code="RPR-L016")
        name = node.name.name
        info = INTRINSICS.get(name)
        if info is None:
            raise self._err(
                node,
                f"call to {name!r}: only dialect intrinsics are synthesizable "
                f"({sorted(INTRINSICS)})",
                code="RPR-L017",
                hint="inline the helper; user function calls do not map to "
                     "the paper's process model",
            )
        args = list(node.args.exprs) if node.args is not None else []
        if not (info.min_args <= len(args) <= info.max_args):
            raise self._err(node, f"{name} expects {info.min_args} args",
                            code="RPR-L018")

        if name == "co_stream_read":
            stream = self._stream_arg(args[0])
            target = args[1]
            if not (isinstance(target, c_ast.UnaryOp) and target.op == "&"
                    and isinstance(target.expr, c_ast.ID)):
                raise self._err(node, "co_stream_read needs &scalar as 2nd arg",
                                code="RPR-L019")
            var = target.expr.name
            ty = self.func.scalars.get(var)
            if ty is None:
                raise self._err(node,
                                f"co_stream_read into undeclared {var!r}",
                                code="RPR-L020")
            ok = self.func.new_temp(U1, "ok")
            self.emit(
                Instr(OpKind.STREAM_READ, [ok, Temp(var, ty)], [],
                      {"stream": stream}),
                node,
            )
            return ok
        if name == "co_stream_write":
            stream = self._stream_arg(args[0])
            value = self.expr(args[1])
            self.emit(
                Instr(OpKind.STREAM_WRITE, [], [value], {"stream": stream}), node
            )
            return None
        if name == "co_stream_close":
            stream = self._stream_arg(args[0])
            self.emit(Instr(OpKind.STREAM_CLOSE, [], [], {"stream": stream}), node)
            return None
        if name == "assert":
            return self._lower_assert(node, args[0])
        if name in ("co_latency_start", "co_latency_end"):
            return self._lower_latency(node, name, args)
        if name == "ext_hdl":
            value = self.expr(args[0])
            dest = self.func.new_temp(ctypes_.U32, "ext")
            self.emit(Instr(OpKind.EXT_HDL, [dest], [value]), node)
            return dest
        raise self._err(node, f"unhandled intrinsic {name}",
                        code="RPR-L022")  # pragma: no cover

    def _stream_arg(self, node: c_ast.Node) -> str:
        if isinstance(node, c_ast.ID) and node.name in self.func.stream_names():
            return node.name
        raise self._err(node, "expected a co_stream parameter",
                        code="RPR-L021")

    def _lower_assert(self, node: c_ast.FuncCall, cond_ast: c_ast.Node) -> None:
        fname, line = self._coord(node)
        site = AssertionSite(
            ordinal=self._assert_ordinal,
            file=fname,
            line=line,
            function=self.func.name,
            expr_text=expr_text(cond_ast),
        )
        self._assert_ordinal += 1
        self.func.assertion_sites.append(site)
        cond = self._bool(self.expr(cond_ast), node)
        self.emit(
            Instr(OpKind.ASSERT_CHECK, [], [cond], {"assertion": site}), node
        )
        return None

    def _lower_latency(self, node: c_ast.FuncCall, name: str, args) -> None:
        from repro.core.timing_assert import make_marker

        if self.parsed.ndebug:
            return None  # NDEBUG compiles timing assertions out, like assert
        region_id = _const_int(args[0], self)
        if name == "co_latency_start":
            marker = make_marker("start", region_id, None, None)
        else:
            bound = _const_int(args[1], self)
            fname, line = self._coord(node)
            site = AssertionSite(
                ordinal=-1,
                file=fname,
                line=line,
                function=self.func.name,
                expr_text=f"latency(region {region_id}) <= {bound}",
            )
            marker = make_marker("end", region_id, bound, site)
        self.emit(marker, node)
        return None

    # ---- expressions -----------------------------------------------------------

    def expr(self, node: c_ast.Node) -> Value:
        if isinstance(node, c_ast.Constant):
            return _lower_constant(node, self)
        if isinstance(node, c_ast.ID):
            ty = self.func.scalars.get(node.name)
            if ty is None:
                raise self._err(node, f"use of undeclared {node.name!r}",
                                code="RPR-L023")
            return Temp(node.name, ty)
        if isinstance(node, c_ast.ArrayRef):
            name = _array_name(node, self)
            arr = self.func.arrays.get(name)
            if arr is None:
                raise self._err(node, f"read of undeclared array {name!r}",
                                code="RPR-L024")
            idx = self.expr(node.subscript)
            dest = self.func.new_temp(arr.elem, "ld")
            self.emit(Instr(OpKind.LOAD, [dest], [idx], {"array": name}), node)
            return dest
        if isinstance(node, c_ast.BinaryOp):
            return self._lower_binop(node)
        if isinstance(node, c_ast.UnaryOp):
            return self._lower_unop(node)
        if isinstance(node, c_ast.TernaryOp):
            cond = self._bool(self.expr(node.cond), node)
            a = self.expr(node.iftrue)
            b = self.expr(node.iffalse)
            ct = common_type(a.ty, b.ty)
            dest = self.func.new_temp(ct, "sel")
            self.emit(Instr(OpKind.SELECT, [dest], [cond, a, b]), node)
            return dest
        if isinstance(node, c_ast.Cast):
            ty = self._type(_cast_type_name(node, self), node)
            value = self.expr(node.expr)
            dest = self.func.new_temp(ty, "cast")
            if ty.width <= value.ty.width:
                self.emit(Instr(OpKind.TRUNC, [dest], [value]), node)
            elif value.ty.signed:
                self.emit(Instr(OpKind.SEXT, [dest], [value]), node)
            else:
                self.emit(Instr(OpKind.ZEXT, [dest], [value]), node)
            return dest
        if isinstance(node, c_ast.FuncCall):
            value = self._lower_call(node, as_stmt=False)
            if value is None:
                raise self._err(node, "void intrinsic used as a value",
                                code="RPR-L025")
            return value
        raise self._err(node, f"unsupported expression {type(node).__name__}",
                        code="RPR-L026")

    def _lower_binop(self, node: c_ast.BinaryOp) -> Value:
        if node.op in ("&&", "||"):
            # Synthesized datapaths evaluate both operands; no short-circuit.
            a = self._bool(self.expr(node.left), node)
            b = self._bool(self.expr(node.right), node)
            dest = self.func.new_temp(U1, "l")
            kind = OpKind.AND if node.op == "&&" else OpKind.OR
            self.emit(Instr(kind, [dest], [a, b]), node)
            return dest
        kind = _BINOPS.get(node.op)
        if kind is None:
            raise self._err(node, f"unsupported operator {node.op!r}",
                            code="RPR-L027")
        a = self.expr(node.left)
        b = self.expr(node.right)
        if node.op in _COMPARE_OPS:
            dest = self.func.new_temp(U1, "c")
        elif node.op in ("<<", ">>"):
            dest = self.func.new_temp(a.ty if a.ty.width >= 32 else
                                      common_type(a.ty, a.ty), "t")
        else:
            dest = self.func.new_temp(common_type(a.ty, b.ty), "t")
        self.emit(Instr(kind, [dest], [a, b]), node)
        return dest

    def _lower_unop(self, node: c_ast.UnaryOp) -> Value:
        if node.op in ("p++", "p--", "++", "--"):
            # value-position inc/dec: return pre/post value
            value = self.expr(node.expr)
            pre = self.func.new_temp(value.ty, "t")
            self.emit(Instr(OpKind.MOV, [pre], [value]), node)
            self._lower_incdec(node)
            return pre if node.op.startswith("p") else self.expr(node.expr)
        value_ast = node.expr
        if node.op == "+":
            return self.expr(value_ast)
        if node.op == "-":
            value = self.expr(value_ast)
            ct = common_type(value.ty, value.ty)
            dest = self.func.new_temp(CType(ct.width, True), "neg")
            self.emit(Instr(OpKind.NEG, [dest], [value]), node)
            return dest
        if node.op == "~":
            value = self.expr(value_ast)
            ct = common_type(value.ty, value.ty)
            dest = self.func.new_temp(ct, "not")
            self.emit(Instr(OpKind.NOT, [dest], [value]), node)
            return dest
        if node.op == "!":
            value = self.expr(value_ast)
            dest = self.func.new_temp(U1, "ln")
            self.emit(Instr(OpKind.LNOT, [dest], [value]), node)
            return dest
        if node.op == "sizeof":
            if isinstance(value_ast, c_ast.Typename):
                ty = self._type(_type_name_of(value_ast, self), node)
            else:
                ty = self.expr(value_ast).ty
            return Const((ty.width + 7) // 8, ctypes_.U32)
        raise self._err(node, f"unsupported unary operator {node.op!r}",
                        code="RPR-L028")


# ---- small AST helpers -----------------------------------------------------


def _type_name_of(node, ctx: FunctionLowerer) -> str:
    ty = node.type
    while isinstance(ty, (c_ast.ArrayDecl, c_ast.PtrDecl)):
        ty = ty.type
    if isinstance(ty, c_ast.TypeDecl) and isinstance(ty.type, c_ast.IdentifierType):
        return " ".join(ty.type.names)
    raise ctx._err(node, f"unsupported type for {getattr(node, 'name', '?')!r}",
                   code="RPR-L029")


def _cast_type_name(node: c_ast.Cast, ctx: FunctionLowerer) -> str:
    tn = node.to_type
    if isinstance(tn, c_ast.Typename):
        return _type_name_of(tn, ctx)
    raise ctx._err(node, "unsupported cast", code="RPR-L030")


def _array_name(node: c_ast.ArrayRef, ctx: FunctionLowerer) -> str:
    if isinstance(node.name, c_ast.ID):
        return node.name.name
    raise ctx._err(node, "only direct array references are synthesizable",
                   code="RPR-L031")


def _lower_constant(node: c_ast.Constant, ctx: FunctionLowerer) -> Const:
    if node.type in ("int", "long int", "long long int", "unsigned int",
                     "unsigned long int", "unsigned long long int"):
        text = node.value.rstrip("uUlL")
        # C spells octal with a bare leading zero, Python with 0o
        octal = len(text) > 1 and text[0] == "0" and text[1].isdigit()
        value = int(text, 8 if octal else 0)
        unsigned = "u" in node.value.lower()
        if value <= 0x7FFFFFFF and not unsigned:
            ty = ctypes_.I32
        elif value <= 0xFFFFFFFF and unsigned:
            ty = ctypes_.U32
        elif value <= 0x7FFFFFFFFFFFFFFF and not unsigned:
            ty = ctypes_.I64
        else:
            ty = ctypes_.U64
        return Const(value, ty)
    if node.type == "char":
        body = node.value[1:-1]
        text = ""  # an escape C does not define has no value
        if body[0] != "\\" or body[1] in "abfnrtv\\'\"01234567x":
            text = body.encode().decode("unicode_escape")
        if len(text) != 1:
            raise ctx._err(node, f"unsupported character constant {node.value}",
                           code="RPR-L032")
        return Const(ord(text), ctypes_.I8)
    raise ctx._err(node, f"unsupported constant type {node.type!r}",
                   code="RPR-L032")


def _const_int(node: c_ast.Node, ctx: FunctionLowerer) -> int:
    """Evaluate a compile-time integer expression (array dims, init lists)."""
    if isinstance(node, c_ast.Constant):
        return _lower_constant(node, ctx).value
    if isinstance(node, c_ast.UnaryOp) and node.op == "-":
        return -_const_int(node.expr, ctx)
    if isinstance(node, c_ast.BinaryOp):
        a, b = _const_int(node.left, ctx), _const_int(node.right, ctx)
        table = {
            "+": a + b, "-": a - b, "*": a * b,
            "/": a // b if b else 0, "%": a % b if b else 0,
            "<<": a << b, ">>": a >> b, "&": a & b, "|": a | b, "^": a ^ b,
        }
        if node.op in table:
            return table[node.op]
    raise ctx._err(node, "expression is not a compile-time constant",
                   code="RPR-L033")


# ---- module entry point --------------------------------------------------------


def lower_source(
    source: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
    sink: DiagnosticSink | None = None,
) -> IRModule:
    """Parse and lower dialect C text into an :class:`IRModule`.

    When ``NDEBUG`` is among the ``defines``, assertion sites are still
    recorded (the registry needs them for reporting "compiled out") but no
    ``assert_check`` instructions or condition evaluation are emitted,
    matching ANSI-C semantics of ``assert`` under ``NDEBUG``.

    With a collect-mode ``sink``, errors recover per directive, per
    statement and per function, so one call reports every problem in the
    translation unit; the returned module then only contains the functions
    that lowered cleanly and must not be synthesized if
    ``sink.has_errors``.

    Without a ``sink`` (strict mode) the caller sees only the module or a
    raise, so each distinct unit is lowered once per process; errors are
    not memoized. A collect-mode call always lowers in full (its
    diagnostics are never replayed), and when it ends without errors its
    module is the strict-mode one, so it seeds that memo entry: checking a
    source and then synthesizing it parses it once.

    Every call returns a fresh :class:`IRModule` container, but a clean
    lowering's functions are shared: each later call for the same unit
    returns the same :class:`IRFunction` objects. Lowered IR is therefore
    read-only; a caller that rewrites it must ``clone()`` it first.
    """
    key = (source, filename, tuple(sorted(defines.items())) if defines else ())
    if sink is not None:
        module = _lower(source, filename, defines, sink)
        if not sink.has_errors:
            _remember(key, module)
        return _fresh(module)
    with _MEMO_LOCK:
        module = _MEMO.get(key)
        if module is not None:
            _MEMO.move_to_end(key)
    if module is None:
        module = _lower(source, filename, defines, DiagnosticSink(strict=True))
        _remember(key, module)
    return _fresh(module)


def _fresh(module: IRModule) -> IRModule:
    """A new container holding ``module``'s (shared) functions."""
    return IRModule(functions=dict(module.functions),
                    source_file=module.source_file)


def _remember(key: tuple, module: IRModule) -> None:
    """Memoize ``module`` under ``key``, marking its functions shared and
    evicting the least recently used unit beyond :data:`_MEMO_UNITS`."""
    for func in module.functions.values():
        func.mark_shared()
    with _MEMO_LOCK:
        _MEMO[key] = module
        _MEMO.move_to_end(key)
        if len(_MEMO) > _MEMO_UNITS:
            _MEMO.popitem(last=False)


def clear_memo() -> None:
    """Forget every memoized unit."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _lower(
    source: str,
    filename: str,
    defines: dict[str, str] | None,
    sink: DiagnosticSink,
) -> IRModule:
    from repro.frontend.parser import parse_source

    parsed = parse_source(source, filename=filename, defines=defines, sink=sink)
    module = IRModule(source_file=filename)
    for _name, func_def in parsed.functions.items():
        lowerer = FunctionLowerer(parsed, func_def, sink=sink)
        if parsed.ndebug:
            lowerer._lower_assert = _skip_assert.__get__(lowerer)  # type: ignore
        try:
            # recovery point: a function that fails to lower is dropped
            # from the module; the others still produce IR
            module.add(lowerer.lower())
        except ReproError as exc:
            sink.capture(exc)
    return module


def _skip_assert(self: FunctionLowerer, node: c_ast.FuncCall, cond_ast) -> None:
    """NDEBUG replacement for assert lowering: record the site, emit nothing."""
    fname, line = self._coord(node)
    site = AssertionSite(
        ordinal=self._assert_ordinal,
        file=fname,
        line=line,
        function=self.func.name,
        expr_text=expr_text(cond_ast),
    )
    self._assert_ordinal += 1
    self.func.assertion_sites.append(site)
    return None


__all__ = ["FunctionLowerer", "lower_source"]
