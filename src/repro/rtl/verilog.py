"""Verilog-2001 emission for generated RTL modules.

The output is Impulse-C-flavoured FSMD Verilog: one clocked process with a
state machine, blocking-assignment datapath chains inside states,
flow-through memories, and ready/valid stream endpoints. Pipelined loop
regions are emitted as stage-valid-guarded blocks.

The emitted text is meant to be read (and fed to a synthesis tool); the
bit-exact executable semantics of the same RTL live in
:mod:`repro.rtl.sim`.
"""

from __future__ import annotations

from repro.rtl import core as R


def _sig_decl(sig: R.Signal) -> str:
    if sig.width == 1:
        return sig.name
    return f"[{sig.width - 1}:0] {sig.name}"


def emit_expr(expr: R.Expr) -> str:
    if isinstance(expr, R.Ref):
        return expr.signal.name
    if isinstance(expr, R.Lit):
        return f"{expr.width}'d{expr.value}"
    if isinstance(expr, R.UnExpr):
        inner = emit_expr(expr.operand)
        if expr.op == "zext":
            pad = expr.width - expr.operand.width
            return f"{{{{{pad}{{1'b0}}}}, {inner}}}"
        if expr.op == "sext":
            pad = expr.width - expr.operand.width
            msb = expr.operand.width - 1
            return f"{{{{{pad}{{{inner}[{msb}]}}}}, {inner}}}"
        return f"({expr.op}{inner})"
    if isinstance(expr, R.BinExpr):
        a, b = emit_expr(expr.left), emit_expr(expr.right)
        if expr.op == "concat":
            return f"{{{a}, {b}}}"
        if expr.signed_cmp:
            return f"($signed({a}) {expr.op} $signed({b}))"
        return f"({a} {expr.op} {b})"
    if isinstance(expr, R.CondExpr):
        return (f"({emit_expr(expr.cond)} ? {emit_expr(expr.iftrue)}"
                f" : {emit_expr(expr.iffalse)})")
    if isinstance(expr, R.SliceExpr):
        inner = emit_expr(expr.operand)
        if expr.msb == expr.lsb:
            return f"{inner}[{expr.msb}]"
        return f"{inner}[{expr.msb}:{expr.lsb}]"
    if isinstance(expr, R.MemRead):
        if expr.memory == "$ext_hdl":
            return f"ext_hdl({emit_expr(expr.index)})"
        return f"{expr.memory}[{emit_expr(expr.index)}]"
    raise TypeError(f"unknown expr {expr!r}")


def _emit_stmt(stmt: R.Stmt, indent: str, out: list[str]) -> None:
    if isinstance(stmt, R.BlockingAssign):
        out.append(f"{indent}{stmt.target.name} = {emit_expr(stmt.expr)};")
    elif isinstance(stmt, R.RegAssign):
        out.append(f"{indent}{stmt.target.name} <= {emit_expr(stmt.expr)};")
    elif isinstance(stmt, R.MemWrite):
        out.append(
            f"{indent}{stmt.memory}[{emit_expr(stmt.index)}] = "
            f"{emit_expr(stmt.value)};"
        )
    elif isinstance(stmt, R.If):
        out.append(f"{indent}if ({emit_expr(stmt.cond)}) begin")
        for s in stmt.then:
            _emit_stmt(s, indent + "  ", out)
        if stmt.otherwise:
            out.append(f"{indent}end else begin")
            for s in stmt.otherwise:
                _emit_stmt(s, indent + "  ", out)
        out.append(f"{indent}end")
    else:
        raise TypeError(f"unknown stmt {stmt!r}")


def emit_module(module: R.Module) -> str:
    """Emit one module as Verilog-2001 text."""
    out: list[str] = []
    port_names = ", ".join(p.signal.name for p in module.ports)
    out.append(f"module {module.name} ({port_names});")
    for p in module.ports:
        out.append(f"  {p.direction.value} {_sig_decl(p.signal)};")
    out.append("")
    out.append(f"  reg [{module.state_width - 1}:0] state;")
    port_set = {p.signal.name for p in module.ports}
    for sig in module.regs:
        if sig.name not in port_set:
            out.append(f"  reg {_sig_decl(sig)};")
    for mem in module.memories:
        out.append(
            f"  reg [{mem.width - 1}:0] {mem.name} [0:{mem.depth - 1}];"
        )
    out.append("")
    if any(mem.init for mem in module.memories):
        out.append("  integer init_i;")
        out.append("  initial begin")
        for mem in module.memories:
            if mem.init:
                for i, v in enumerate(mem.init):
                    out.append(f"    {mem.name}[{i}] = {v};")
        out.append("  end")
        out.append("")

    for sig, expr in module.assigns:
        decl = "" if sig.name in port_set else f"  wire {_sig_decl(sig)};\n"
        if decl:
            out.append(decl.rstrip())
        out.append(f"  assign {sig.name} = {emit_expr(expr)};")
    out.append("")

    out.append("  always @(posedge clk) begin")
    out.append("    if (rst) begin")
    out.append("      state <= 0;")
    out.append("    end else begin")
    out.append("      case (state)")
    for sc in module.states:
        out.append(f"        {sc.index}: begin // {sc.label}")
        body: list[str] = []
        for stmt in sc.body:
            _emit_stmt(stmt, "            ", body)
        if sc.stall is not None:
            out.append(f"          if (!({emit_expr(sc.stall)})) begin")
            out.extend(body)
            if sc.next_state is not None:
                out.append(
                    f"            state <= {emit_expr(sc.next_state)};"
                )
            out.append("          end")
        else:
            out.extend(body)
            if sc.next_state is not None:
                out.append(f"          state <= {emit_expr(sc.next_state)};")
        out.append("        end")
    done = module.meta.get("done_state")
    if done is not None:
        out.append(f"        {done}: begin // done")
        out.append("          state <= state;")
        out.append("        end")
    out.append("      endcase")
    out.append("    end")
    out.append("  end")

    # pipelined regions: stage-registered datapath with valid bits
    for header, info in module.meta.get("pipelines", {}).items():
        latency = info["latency"]
        ii = info["ii"]
        stages = info.get("stages", [])
        out.append("")
        out.append(
            f"  // pipelined loop {header}: II={ii}, depth={latency} stages"
        )
        out.append(f"  reg [{max(latency - 1, 0)}:0] {header}_valid;")
        ii_bits = max(1, (ii - 1).bit_length())
        out.append(f"  reg [{ii_bits - 1}:0] {header}_ii;")
        out.append(
            f"  wire {header}_go = ({header}_ii == 0); "
            f"// initiation every {ii} cycle(s); stall gating in the wrapper"
        )
        out.append("  always @(posedge clk) begin")
        out.append("    if (rst) begin")
        out.append(f"      {header}_valid <= 0;")
        out.append(f"      {header}_ii <= 0;")
        out.append("    end else if (state == "
                   f"{module.state_width}'d{info['state']}) begin")
        out.append(
            f"      {header}_ii <= ({header}_ii == {ii - 1}) ? 0 : "
            f"{header}_ii + 1;"
        )
        if latency > 1:
            out.append(
                f"      {header}_valid <= "
                f"{{{header}_valid[{latency - 2}:0], {header}_go}};"
            )
        else:
            out.append(f"      {header}_valid <= {header}_go;")
        for stage_index, stmts in enumerate(stages):
            guard = (f"{header}_go" if stage_index == 0
                     else f"{header}_valid[{stage_index - 1}]")
            out.append(f"      if ({guard}) begin // stage {stage_index}")
            body: list[str] = []
            for stmt in stmts:
                _emit_stmt(stmt, "        ", body)
            out.extend(body)
            out.append("      end")
        out.append("    end")
        out.append("  end")
    out.append("endmodule")
    return "\n".join(out) + "\n"


def emit_image(image) -> dict[str, str]:
    """Verilog for every compiled process of a hardware image."""
    image.materialize()
    return {name: cp.verilog() for name, cp in image.compiled.items()}
