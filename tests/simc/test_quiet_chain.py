"""State-level check of the chained quiet steps and the fused loops.

A quiet step function (channel-free, non-returning) returns the next
quiet step function, resolved at codegen time, and
``CompiledProcessExec.run_quiet`` just calls what it is handed. So a
successor wired to the wrong function shows up only in state: from every
quiet ``(block, step)`` a real run reaches, ``run_quiet(n)`` must leave a
process exactly where ``n`` calls of ``tick()`` do.

A fused quiet loop runs whole iterations over Python locals and writes
them back on exit, so from each loop header a run reaches,
``run_quiet(k)`` for every budget ``k`` up to two iterations and a step
must leave the process where ``k`` interpreter ticks do; three emitter
mutants (a dropped write-back, an uncounted cycle, a wrong exit state)
must fail that check.
"""

import re
from collections import deque

import pytest

from repro import simc
from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.difftest.generator import generate
from repro.difftest.oracle import (
    _compile,
    _fresh_channels,
    _prepare,
    _stream_roles,
)
from repro.hls.cyclemodel import Channel, ProcessExec
from repro.runtime.hwexec import execute
from repro.simc import CompiledProcessExec
from repro.simc.schedgen import _SchedCompiler

APPS = {
    "loopback3": lambda: build_loopback(3, data=list(range(1, 9))),
    "edge16x8": lambda: build_edge_app(16, 8),
    "tdes1": lambda: build_tdes_app(text=b"quiet"),  # one DES block
}

#: longest stretch asked of ``run_quiet``: long enough to cross several
#: blocks and loop back-edges, short enough to replay tick by tick
LIMIT = 300

_FIELDS = ("block", "step", "mode", "cycles", "stall_cycles", "stream_ops",
           "iterations_started", "done")


def _is_quiet(pe) -> bool:
    fns = pe._quiet_fns.get(pe.block)
    return pe.mode == "seq" and fns is not None and fns[pe.step] is not None


def _state(pe) -> dict:
    state = {f: getattr(pe, f) for f in _FIELDS}
    state["env"] = dict(pe.env)
    state["memories"] = {k: list(v) for k, v in pe.memories.items()}
    return state


def _reached_quiet_states(image, monkeypatch, headers=None) -> dict:
    """(process, block, step) -> (process, its state) at the first time
    a run ticks that quiet step, with the fast path off so every cycle
    goes through ``tick``; ``headers`` also sees every tick."""
    seen: dict = {}
    tick = CompiledProcessExec.tick

    def recording_tick(pe):
        if not pe.done and _is_quiet(pe):
            seen.setdefault((pe.name, pe.block, pe.step), (pe, _state(pe)))
            if headers is not None:
                headers.see(pe)
        return tick(pe)

    with monkeypatch.context() as m:
        m.setattr(CompiledProcessExec, "tick", recording_tick)
        m.setattr(CompiledProcessExec, "run_quiet", lambda pe, limit: 0)
        res = execute(image, sim_backend="compiled")
    assert res.completed and res.backend_diagnostics == []
    return seen


def _restored(pe, state, cls=CompiledProcessExec):
    """A fresh twin of ``pe`` (compiled unless ``cls`` says otherwise)
    put into ``state``; its channels are fresh too, as a quiet step
    touches none."""
    twin = cls(
        pe.fsched,
        {k: Channel(k, width=ch.width, unbounded=True)
         for k, ch in pe.streams.items()},
        {k: Channel(k, unbounded=True) for k in pe.taps},
        pe.ext_funcs, pe.name)
    twin.env.update(state["env"])
    for name, words in state["memories"].items():
        twin.memories[name][:] = words  # the step functions hold the lists
    for f in _FIELDS:
        setattr(twin, f, state[f])
    return twin


@pytest.mark.parametrize("level", ["none", "unoptimized", "optimized"])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_run_quiet_equals_ticking_from_every_reached_quiet_step(
        app_name, level, monkeypatch):
    image = synthesize(APPS[app_name](), assertions=level)
    seen = _reached_quiet_states(image, monkeypatch)
    crossed = 0
    for (name, block, step), (pe, state) in seen.items():
        chained = _restored(pe, state)
        ticked = _restored(pe, state)
        n = chained.run_quiet(LIMIT)
        assert n >= 1, (name, block, step)
        statuses = {ticked.tick() for _ in range(n)}
        assert statuses == {"active"}, (name, block, step)
        assert _state(chained) == _state(ticked), (name, block, step, n)
        # a stretch ends only at its budget or where a tick must run
        assert n == LIMIT or not _is_quiet(ticked), (name, block, step, n)
        crossed += chained.block != block
    # edge at "none" is all pipelines and handshakes: nothing is quiet
    assert crossed or not seen, "no stretch crossed into another block"


# ---- fused quiet loops ---------------------------------------------------


def _at_header(pe) -> bool:
    """``pe`` sits at step 0 of a fused loop's header."""
    return _is_quiet(pe) and pe._quiet_fns[pe.block][pe.step] in pe._loops


class _Headers:
    """Per fused loop header a run reaches: its first visit, where the
    loop starts, and the visit two iterations before its last, from
    which the loop exits within two iterations."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.last: dict = {}

    def see(self, pe) -> None:
        if _at_header(pe):
            key = (pe.name, pe.block)
            snap = (pe, _state(pe))
            self.first.setdefault(key, snap)
            self.last.setdefault(key, deque(maxlen=3)).append(snap)

    def states(self) -> list:
        return [snap for key in self.first
                for snap in (self.first[key], self.last[key][0])]


def _check_fused(pe, state) -> int:
    """From a header ``state`` of ``pe``: ``run_quiet(k)`` against ``k``
    interpreter ticks for every k from 1 to two iterations + 1. Returns
    the cycles of one iteration."""
    ticked = _restored(pe, state, ProcessExec)
    period = 0
    while period < LIMIT:
        assert ticked.tick() == "active"
        period += 1
        if (ticked.block, ticked.step) == (state["block"], 0):
            break
    for k in range(1, 2 * period + 2):
        fused = _restored(pe, state)
        ticked = _restored(pe, state, ProcessExec)
        n = fused.run_quiet(k)
        assert 1 <= n <= k
        for _ in range(n):
            assert ticked.tick() == "active"
        where = (pe.name, state["block"], k, n)
        assert _state(fused) == _state(ticked), where
        assert n == k or not _is_quiet(fused), where
    return period


def _app_headers(app_name, level, monkeypatch) -> _Headers:
    headers = _Headers()
    image = synthesize(APPS[app_name](), assertions=level)
    _reached_quiet_states(image, monkeypatch, headers)
    return headers


#: fused loops a run reaches, per app and level: only Triple-DES computes
#: between its stream handshakes, and at the assertion levels one of its
#: six loops writes a tap; every loopback and edge loop touches a stream
#: or runs pipelined
FUSED_REACHED = {"tdes1": {"none": 6, "unoptimized": 5, "optimized": 5}}


@pytest.mark.parametrize("level", ["none", "unoptimized", "optimized"])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_fused_loop_equals_interpreter_ticks_at_every_budget(
        app_name, level, monkeypatch):
    headers = _app_headers(app_name, level, monkeypatch)
    want = FUSED_REACHED.get(app_name, {}).get(level, 0)
    assert len(headers.first) == want
    for pe, state in headers.states():
        assert _check_fused(pe, state) >= 2


def _seed_headers(seed) -> list:
    """Header states a compiled run of difftest program ``seed`` reaches,
    fed as the difftest oracle feeds it."""
    prog = generate(seed)
    func, _ = _prepare(prog.render(), f"s{seed}.c")
    cp = _compile(func, (), None)
    reads, writes = _stream_roles(func)
    feed = {next(iter(reads)): list(prog.feed)} if reads else {}
    pe = CompiledProcessExec(
        cp.schedule, _fresh_channels(cp.hw_func, reads, writes, feed))
    headers = _Headers()
    while not pe.done and pe.cycles < 200_000:
        headers.see(pe)
        pe.tick()
    return headers.states()


def test_fused_loops_of_difftest_programs_equal_interpreter_ticks():
    """The difftest lockstep leg ticks every cycle, so it never runs a
    fused loop; check the loops its generated programs reach here."""
    checked = 0
    for seed in range(60):
        for pe, state in _seed_headers(seed):
            _check_fused(pe, state)
            checked += 1
    assert checked >= 15


def _mutate(edit):
    """Wrap the loop emitter so ``edit`` rewrites each fused loop's lines."""
    real = _SchedCompiler.loop_fn

    def loop_fn(self, em, *args):
        start = len(em.lines)
        nxt = real(self, em, *args)
        em.lines[start:] = edit(em.lines[start:])
        return nxt

    return loop_fn


def _drop_first(pattern):
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if re.search(pattern, line))
        return lines[:i] + lines[i + 1:]
    return edit


MUTANTS = {
    # the first scalar the loop writes keeps its value from loop entry
    "missing-write-back": _drop_first(r"^\s*E\[.*\] = _v\d+$"),
    # the header's step runs without being counted against the budget
    "miscounted-cycle": _drop_first(r"^\s*m -= 1$"),
    # the loop exit lands on the last budget position, not the exit block
    "wrong-exit-state": lambda lines: [
        line.replace("if k < 0:", "if k < -1:") for line in lines],
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_fused_loop_check_catches_emitter_mutants(mutant, monkeypatch):
    # the mutated source must reach neither the disk cache nor later tests
    monkeypatch.delenv("REPRO_LAB_CACHE", raising=False)
    monkeypatch.setattr(_SchedCompiler, "loop_fn", _mutate(MUTANTS[mutant]))
    simc.clear_memo()
    try:
        headers = _app_headers("tdes1", "optimized", monkeypatch).states()
        assert headers
        with pytest.raises(AssertionError):
            for pe, state in headers:
                _check_fused(pe, state)
    finally:
        simc.clear_memo()
