"""Shared test utilities: compile snippets, run both execution models."""

from __future__ import annotations

import ast
import pathlib

from repro.frontend.lowering import lower_source
from repro.hls.compiler import CompiledProcess, compile_process
from repro.hls.constraints import HLSConfig, ScheduleConfig
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.ir.function import IRFunction
from repro.ir.interp import run_to_completion


def lower_one(source: str, name: str | None = None,
              filename: str = "test.c", defines=None) -> IRFunction:
    module = lower_source(source, filename=filename, defines=defines)
    if name is None:
        assert len(module.functions) == 1, sorted(module.functions)
        name = next(iter(module.functions))
    # a private copy: unit tests rewrite what they get, and lowered IR is
    # shared read-only
    return module[name].clone()


def module_sources(path: pathlib.Path, root: pathlib.Path) -> dict[str, str]:
    """Module-level string constants of ``path`` that hold dialect C, keyed
    ``<path relative to root, no suffix>.<NAME>``."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and "co_stream" in node.value.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    rel = path.relative_to(root).with_suffix("")
                    found[f"{rel}.{target.id}"] = node.value.value
    return found


def example_sources() -> dict[str, str]:
    """The dialect C constants of ``examples/*.py``, keyed ``<stem>.<NAME>``."""
    examples = pathlib.Path(__file__).resolve().parents[1] / "examples"
    found = {}
    for path in sorted(examples.glob("*.py")):
        found.update(module_sources(path, examples))
    return found


def compile_one(source: str, name: str | None = None,
                config: HLSConfig | None = None,
                filename: str = "test.c") -> CompiledProcess:
    return compile_process(lower_one(source, name, filename), config)


def interp_outputs(func: IRFunction, inputs=None, **kw):
    result, outs = run_to_completion(func, inputs or {}, **kw)
    return result, outs


def run_cycle_model(
    cp: CompiledProcess,
    inputs: dict[str, list[int]] | None = None,
    max_cycles: int = 200_000,
    ext_funcs=None,
):
    """Run one compiled process standalone; returns (exec, outputs dict)."""
    func = cp.hw_func
    channels: dict[str, Channel] = {}
    from repro.ir.ops import OpKind

    reads, writes = set(), set()
    for instr in func.instructions():
        if instr.op == OpKind.STREAM_READ:
            reads.add(instr.attrs["stream"])
        elif instr.op in (OpKind.STREAM_WRITE, OpKind.STREAM_CLOSE):
            writes.add(instr.attrs["stream"])
    for s in func.stream_names():
        depth = 1_000_000 if s in writes and s not in reads else 4096
        channels[s] = Channel(s, depth=depth)
    taps = {}
    for instr in func.instructions():
        if instr.op in (OpKind.TAP, OpKind.TAP_READ):
            ch = instr.attrs["channel"]
            taps.setdefault(ch, Channel(ch, unbounded=True))
    for s, data in (inputs or {}).items():
        for v in data:
            channels[s].push(v)
        channels[s].close()
    pe = ProcessExec(cp.schedule, channels, taps=taps, ext_funcs=ext_funcs)
    while not pe.done and pe.cycles < max_cycles:
        pe.tick()
    outs = {
        s: list(channels[s].queue)
        for s in func.stream_names()
        if s in writes and s not in reads
    }
    for name, ch in taps.items():
        outs[f"tap:{name}"] = list(ch.queue)
    return pe, outs


def default_config(**kw) -> HLSConfig:
    return HLSConfig(schedule=ScheduleConfig(**kw))
