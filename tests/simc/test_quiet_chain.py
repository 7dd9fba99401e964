"""State-level check of the chained quiet steps.

A quiet step function (channel-free, non-returning) returns the next
quiet step function, resolved at codegen time, and
``CompiledProcessExec.run_quiet`` just calls what it is handed. So a
successor wired to the wrong function shows up only in state: from every
quiet ``(block, step)`` a real run reaches, ``run_quiet(n)`` must leave a
process exactly where ``n`` calls of ``tick()`` do.
"""

import pytest

from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import synthesize
from repro.hls.cyclemodel import Channel
from repro.runtime.hwexec import execute
from repro.simc import CompiledProcessExec

APPS = {
    "loopback3": lambda: build_loopback(3, data=list(range(1, 9))),
    "edge16x8": lambda: build_edge_app(16, 8),
    "tdes1": lambda: build_tdes_app(text=b"quiet"),  # one DES block
}

#: longest stretch asked of ``run_quiet``: long enough to cross several
#: blocks and loop back-edges, short enough to replay tick by tick
LIMIT = 300

_FIELDS = ("block", "step", "mode", "cycles", "stall_cycles", "stream_ops",
           "done")


def _is_quiet(pe) -> bool:
    fns = pe._quiet_fns.get(pe.block)
    return pe.mode == "seq" and fns is not None and fns[pe.step] is not None


def _state(pe) -> dict:
    state = {f: getattr(pe, f) for f in _FIELDS}
    state["env"] = dict(pe.env)
    state["memories"] = {k: list(v) for k, v in pe.memories.items()}
    return state


def _reached_quiet_states(image, monkeypatch) -> dict:
    """(process, block, step) -> (process, its state) at the first time
    a run ticks that quiet step, with the fast path off so every cycle
    goes through ``tick``."""
    seen: dict = {}
    tick = CompiledProcessExec.tick

    def recording_tick(pe):
        if not pe.done and _is_quiet(pe):
            seen.setdefault((pe.name, pe.block, pe.step), (pe, _state(pe)))
        return tick(pe)

    with monkeypatch.context() as m:
        m.setattr(CompiledProcessExec, "tick", recording_tick)
        m.setattr(CompiledProcessExec, "run_quiet", lambda pe, limit: 0)
        res = execute(image, sim_backend="compiled")
    assert res.completed and res.backend_diagnostics == []
    return seen


def _restored(pe, state) -> CompiledProcessExec:
    """A fresh compiled twin of ``pe`` put into ``state``; its channels
    are fresh too, as a quiet step touches none."""
    twin = CompiledProcessExec(
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
