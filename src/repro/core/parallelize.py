"""Assertion parallelization (paper Section 3.1).

"High-level synthesis tools can minimize the effect of assertions on the
application's control flow graph by executing the assertions in parallel
with the original application … Instead of waiting for the assertion, the
application simply transfers data needed by the assertion task, and then
proceeds."

For each assertion this pass:

1. computes the *support* of the condition — the values a detached checker
   cannot recompute (scalars live at the site, loaded array elements);
2. replaces the inline ``assert_check`` with a single ``tap`` instruction
   wiring those values into a dedicated channel (scalars cost nothing: the
   tap merges into an existing state; array operands keep their extract
   load, which is where the paper's residual 1-cycle overhead comes from);
3. deletes the now-dead inline condition logic (DCE);
4. generates a *checker process*: a pipelined loop that pops tap records,
   re-evaluates the condition, and on failure either writes the assertion's
   error code to its own CPU failure stream (``share=False``) or raises a
   1-bit failure event consumed by a collector (``share=True``,
   Section 4.2) — the latter keeps the checker free of predicated stream
   sends so it can accept a new assertion every cycle (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssertionSynthesisError
from repro.frontend.ctypes_ import U1, U32, CType
from repro.ir.dataflow import condition_support
from repro.ir.function import IRFunction
from repro.ir.instr import AssertionSite, BasicBlock, Branch, Instr, Jump, Return
from repro.ir.ops import OpKind
from repro.ir.values import Const, StreamParam, Temp
from repro.core.instrument import find_assert_checks

#: checker failure stream parameter (direct mode)
CHECK_FAIL_PARAM = "__cfail"


@dataclass
class CheckerPlan:
    """One generated checker process and its plumbing."""

    checker: IRFunction
    name: str  # the checker's process name: ``checker.name`` unless placed
    tap_channel: str
    tap_widths: tuple[int, ...]
    app_process: str
    site: AssertionSite
    code: int
    #: 'stream' => checker writes the code on its own CPU stream param;
    #: 'bit'    => checker raises a 1-bit event on ``fail_tap``
    fail_mode: str = "stream"
    fail_tap: str | None = None


@dataclass
class ParallelizeResult:
    checkers: list[CheckerPlan] = field(default_factory=list)
    taps_added: int = 0


def _collect_condition_slice(
    block: BasicBlock, root: Temp, support: set[str]
) -> list[int]:
    """Indices (program order) of the instructions computing ``root`` from
    the support values, within ``block``."""
    def_site: dict[str, int] = {}
    for idx, instr in enumerate(block.instrs):
        for d in instr.defs():
            def_site[d.name] = idx
    keep: set[int] = set()
    stack = [root.name]
    while stack:
        name = stack.pop()
        if name in support or name not in def_site:
            continue
        idx = def_site[name]
        if idx in keep:
            continue
        keep.add(idx)
        for u in block.instrs[idx].uses():
            stack.append(u.name)
    return sorted(keep)


def _build_checker(
    name: str,
    tap_channel: str,
    support_order: list[tuple[str, CType]],
    slice_instrs: list[Instr],
    root: Temp,
    code: int,
    fail_mode: str,
    fail_tap: str | None,
    source_file: str,
) -> IRFunction:
    """Construct the checker process IR: a pipelined pop/evaluate loop."""
    chk = IRFunction(name=name, source_file=source_file)
    if fail_mode == "stream":
        chk.streams.append(StreamParam(CHECK_FAIL_PARAM, 32))

    ok = chk.declare_scalar("ok", U1)
    rename: dict[str, Temp] = {}
    dests: list[Temp] = [ok]
    for i, (src_name, ty) in enumerate(support_order):
        v = chk.declare_scalar(f"v{i}", ty)
        rename[src_name] = v
        dests.append(v)

    entry = BasicBlock("entry")
    hdr = BasicBlock("hdr", pipeline=True)
    body = BasicBlock("body")
    failb = BasicBlock("failb")
    latch = BasicBlock("latch")
    exitb = BasicBlock("exitb")
    for b in (entry, hdr, body, failb, latch, exitb):
        chk.blocks[b.name] = b
    chk.entry = "entry"

    entry.term = Jump("hdr")
    hdr.instrs.append(
        Instr(OpKind.TAP_READ, dests, [], {"channel": tap_channel})
    )
    hdr.term = Branch(ok, "body", "exitb")

    # re-materialize the condition from tapped values
    def remap(value):
        if isinstance(value, Temp):
            if value.name in rename:
                return rename[value.name]
            return value  # checker-local temp (renamed below)
        return value

    local: dict[str, Temp] = {}
    for instr in slice_instrs:
        copy = instr.copy()
        copy.args = [
            local.get(a.name, remap(a)) if isinstance(a, Temp) else a
            for a in copy.args
        ]
        new_dests = []
        for d in copy.dests:
            nd = chk.new_temp(d.ty, "c")
            local[d.name] = nd
            new_dests.append(nd)
        copy.dests = new_dests
        copy.attrs.pop("pred", None)
        body.instrs.append(copy)
    cond = local.get(root.name, rename.get(root.name))
    if cond is None:
        raise AssertionSynthesisError(
            f"{name}: condition root {root.name} neither tapped nor recomputed", code="RPR-A020")
    ln = chk.new_temp(U1, "ln")
    body.instrs.append(Instr(OpKind.LNOT, [ln], [cond]))
    body.term = Branch(ln, "failb", "latch")

    if fail_mode == "stream":
        failb.instrs.append(
            Instr(OpKind.STREAM_WRITE, [], [Const(code, U32)],
                  {"stream": CHECK_FAIL_PARAM})
        )
    else:
        failb.instrs.append(
            Instr(OpKind.TAP, [], [Const(1, U1)], {"channel": fail_tap})
        )
    failb.term = Jump("latch")
    latch.term = Jump("hdr")
    exitb.term = Return()
    return chk


def parallelize_function(
    func: IRFunction,
    process_name: str,
    code_for,
    share: bool,
) -> ParallelizeResult:
    """Replace each assert_check in ``func`` with a tap; return checker plans.

    The caller wires the plans into the application graph (tap channels,
    checker processes, failure streams/collectors) and runs DCE on ``func``.
    """
    result = ParallelizeResult()
    for ordinal, (bname, idx) in enumerate(find_assert_checks(func)):
        block = func.blocks[bname]
        instr = block.instrs[idx]
        site: AssertionSite = instr.attrs["assertion"]
        root = instr.args[0]
        if not isinstance(root, Temp):
            raise AssertionSynthesisError(
                f"{func.name}: assert condition is not a temp (lowering bug)", code="RPR-A021")
        support = condition_support(func, bname, root)
        support_order = sorted(support)
        types: list[tuple[str, CType]] = []
        for n in support_order:
            ty = func.scalars.get(n)
            if ty is None:
                raise AssertionSynthesisError(
                    f"{func.name}: support value {n!r} has no scalar type", code="RPR-A022")
            types.append((n, ty))
        slice_idx = _collect_condition_slice(block, root, support)
        slice_instrs = [block.instrs[i] for i in slice_idx]

        tap_channel = f"{process_name}__tap{site.ordinal}"
        tap_args = [Temp(n, ty) for n, ty in types] or [Const(1, U1)]
        tap_widths = tuple(a.ty.width for a in tap_args)
        block.instrs[idx] = Instr(
            OpKind.TAP,
            [],
            tap_args,
            {"channel": tap_channel, "coord": (site.file, site.line)},
        )
        result.taps_added += 1

        code = code_for(site)
        checker_name = f"{process_name}__chk{site.ordinal}"
        fail_mode = "bit" if share else "stream"
        fail_tap = f"{checker_name}__fail" if share else None
        chk = _build_checker(
            checker_name,
            tap_channel,
            types,
            slice_instrs,
            root,
            code,
            fail_mode,
            fail_tap,
            func.source_file,
        )
        result.checkers.append(
            CheckerPlan(
                checker=chk,
                name=checker_name,
                tap_channel=tap_channel,
                tap_widths=tap_widths,
                app_process=process_name,
                site=site,
                code=code,
                fail_mode=fail_mode,
                fail_tap=fail_tap,
            )
        )
        _ = ordinal
    return result
