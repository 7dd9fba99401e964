"""Difftest with the compiled lockstep leg, and the lazy register capture.

Two properties are pinned here:

* ``--sim-backend=compiled`` adds the specialized cycle model as a
  strict leg of the lockstep oracle, and again run in quiet stretches
  as ``execute`` runs it — it must agree with the interpreted cycle
  model on clean programs and seeds, and a bug in its code generator
  shows up as a backend divergence;
* the lazy per-cycle register capture (itemgetter + ring buffer) must
  not change what divergences look like — same first-register
  localization as the eager scan, plus the new ``reg_window`` context.
"""

import pytest

from repro.difftest.generator import generate
from repro.difftest.oracle import REG_WINDOW, run_difftest

IDENTITY = """
void dt(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) { co_stream_write(output, x); }
  co_stream_close(output);
}
"""

DIV8 = """
void dt(co_stream input, co_stream output) {
  uint32 x; int8 v;
  while (co_stream_read(input, &x)) {
    v = ((int8)x) / 3;
    co_stream_write(output, (uint32)(v));
  }
  co_stream_close(output);
}
"""


def test_clean_program_agrees_with_compiled_legs():
    r = run_difftest(IDENTITY, [1, 2, 3], sim_backend="compiled")
    assert r.ok
    assert r.outputs["output"] == [1, 2, 3]


def test_generated_seeds_agree_with_compiled_legs():
    for seed in range(8):
        prog = generate(seed)
        r = run_difftest(prog.render(), prog.feed, filename=f"s{seed}.c",
                         sim_backend="compiled")
        assert r.ok, f"seed {seed}: {r.divergence.describe()}"


def test_compiled_codegen_bug_caught_as_backend_divergence(monkeypatch):
    """Drop sign extension from the compiled cycle model's code generator
    only: the interpreted cycle model and the RTL stay correct, so the
    oracle must report the compiled leg — it is a real oracle, not a
    mirror of the interpreter."""
    from repro import simc

    # the mutated source must not reach a shared on-disk codegen cache
    monkeypatch.delenv("REPRO_LAB_CACHE", raising=False)
    monkeypatch.setattr("repro.simc.schedgen._sext_src",
                        lambda var, width: var)
    simc.clear_memo()  # regenerate through the mutated emitter
    try:
        r = run_difftest(DIV8, [0xF3], sim_backend="compiled")
    finally:
        simc.clear_memo()  # never leave mutated source in the memo
    assert not r.ok
    d = r.divergence
    assert (d.phase, d.kind) == ("cyclemodel-vs-compiled", "backend")


def test_localization_is_unchanged_by_lazy_capture(monkeypatch):
    """The ring-buffer capture must reproduce the eager scan's verdict
    byte for byte: same phase/kind/stream/signal on the historical
    signed-division reproduction (see tests/difftest/test_oracle.py)."""
    monkeypatch.setattr("repro.rtl.sim._value_operands",
                        lambda a, b, expr: (a, b))
    r = run_difftest(DIV8, [0xF3])
    assert not r.ok
    d = r.divergence
    assert d.phase == "cyclemodel-vs-rtl"
    assert d.kind == "stream-data"
    assert d.stream == "output"
    assert d.signal is not None and d.signal.startswith("r_")
    assert d.values["cyclemodel"] != d.values["rtl"]

    # the new context: a bounded window of pre-divergence register state
    assert r.reg_window
    assert len(r.reg_window) <= REG_WINDOW
    last = r.reg_window[-1]
    assert set(last) == {"cycle", "cyclemodel", "rtl"}
    assert last["cycle"] <= d.cycle
    # the window's final snapshot contains the diverging register
    reg = d.signal[2:]  # strip the r_ prefix
    assert last["cyclemodel"][reg] != last["rtl"][reg]


def test_reg_window_is_empty_on_agreement():
    r = run_difftest(IDENTITY, [5, 6], sim_backend="compiled")
    assert r.ok
    assert r.reg_window == []


def test_unknown_backend_is_a_harness_error():
    from repro.difftest.oracle import DifftestError

    with pytest.raises(DifftestError):
        run_difftest(IDENTITY, [1], sim_backend="jit")


LOOP = """
void dt(co_stream input, co_stream output) {
  uint32 x; uint32 i; uint32 acc;
  while (co_stream_read(input, &x)) {
    acc = x;
    for (i = 0; i < 5; i++) { acc = acc * 3 + i; }
    co_stream_write(output, acc);
  }
  co_stream_close(output);
}
"""


def test_a_fused_quiet_loop_bug_is_caught_by_the_quiet_leg(monkeypatch):
    """The lockstep leg ticks, so it never runs a fused quiet loop; the
    quiet leg runs the compiled cycle model in quiet stretches and
    catches a loop that miscounts its cycles."""
    from repro import simc
    from repro.simc import schedgen

    assert run_difftest(LOOP, [1, 2], sim_backend="compiled").ok
    real = schedgen._SchedCompiler.loop_fn
    fused = []

    def miscounting(self, em, *args):
        start = len(em.lines)
        nxt = real(self, em, *args)
        fused.append(start < len(em.lines))
        em.lines[start:] = [line.replace("return n - m, ",
                                         "return n - m - 1, ")
                            for line in em.lines[start:]]
        return nxt

    monkeypatch.delenv("REPRO_LAB_CACHE", raising=False)
    monkeypatch.setattr(schedgen._SchedCompiler, "loop_fn", miscounting)
    simc.clear_memo()
    try:
        r = run_difftest(LOOP, [1, 2], sim_backend="compiled")
    finally:
        simc.clear_memo()
    assert any(fused)
    assert (r.divergence.phase, r.divergence.kind) == \
        ("cyclemodel-vs-quiet", "backend")
