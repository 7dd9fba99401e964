"""Compiled->interp fallback: silent in results, loud in diagnostics."""

import pytest

from repro import simc
from repro.apps.loopback import build_loopback, expected_output
from repro.core.synth import synthesize
from repro.errors import SimCompileError
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.runtime.hwexec import execute
from tests.helpers import compile_one

SRC = """
void f(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) { co_stream_write(output, x + 7); }
  co_stream_close(output);
}
"""


@pytest.fixture(autouse=True)
def fresh_memo():
    simc.clear_memo()
    yield
    simc.clear_memo()


@pytest.fixture
def broken_codegen(monkeypatch):
    """Make every codegen attempt fail as if on an unsupported construct."""

    def boom(*a, **kw):
        raise SimCompileError("synthetic unsupported construct",
                              code="RPR-K020")

    monkeypatch.setattr("repro.simc.schedgen.generate_sched_source", boom)


def test_fallback_returns_working_interpreter(broken_codegen):
    cp = compile_one(SRC)
    diags = []
    cin = Channel("i", depth=16)
    cout = Channel("o", unbounded=True)
    pe = simc.make_process_exec(cp.schedule, {"input": cin, "output": cout},
                                backend="compiled", diagnostics=diags)
    assert type(pe) is ProcessExec  # the plain interpreter, not a subclass
    assert pe.backend == "interp"
    assert len(diags) == 1
    assert diags[0]["code"] == simc.FALLBACK_CODE == "RPR-K101"
    assert diags[0]["severity"] == "warning"
    assert "RPR-K020" in " ".join(diags[0].get("notes", ()))


def test_strict_mode_raises_instead_of_falling_back(broken_codegen):
    cp = compile_one(SRC)
    with pytest.raises(SimCompileError) as ei:
        simc.make_process_exec(cp.schedule, {"input": Channel("i"),
                                             "output": Channel("o")},
                               backend="compiled", strict=True)
    assert ei.value.code == "RPR-K020"


def test_execute_surfaces_fallback_and_still_completes(broken_codegen):
    """The product path: a design the compiled backend rejects must run
    to the same answer on the interpreter, with an RPR-K101 warning in
    ``HwResult.backend_diagnostics`` (never a hard failure)."""
    data = list(range(1, 17))
    image = synthesize(build_loopback(2, data=data), assertions="optimized")
    res = execute(image, sim_backend="compiled")
    assert res.completed
    assert res.outputs["drain"] == expected_output(data)
    assert res.backend_diagnostics, "fallback must be recorded"
    assert all(d["code"] == "RPR-K101" for d in res.backend_diagnostics)
    assert all(st["backend"] == "interp"
               for st in res.process_stats.values())


def test_unknown_backend_name_is_rejected():
    with pytest.raises(SimCompileError) as ei:
        simc.resolve_backend("jit")
    assert ei.value.code == "RPR-K001"
    assert simc.resolve_backend(None) == simc.DEFAULT_BACKEND
    assert simc.resolve_backend("interp") == "interp"
