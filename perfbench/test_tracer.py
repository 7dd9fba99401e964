"""Tests for the benchmark's span tracer.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


class FakeClock:
    """Returns the queued readings in order (nanoseconds)."""

    def __init__(self, *readings: int) -> None:
        self.readings = list(readings)

    def __call__(self) -> int:
        return self.readings.pop(0)


def test_self_time_subtracts_nested_children():
    # origin, then enter/exit readings:
    # a [0, 100) > b [10, 40) > c [20, 30); a > d [50, 70)
    clock = FakeClock(0, 0, 10, 20, 30, 40, 50, 70, 100)
    t = tracing.Tracer(clock=clock)
    with t.span("a"):
        with t.span("b"):
            with t.span("c"):
                pass
        with t.span("d"):
            pass
    assert t.stats == {
        "a": [1, 100, 100 - 30 - 20],
        "b": [1, 30, 30 - 10],
        "c": [1, 10, 10],
        "d": [1, 20, 20],
    }
    # self times partition the root span's wall time
    assert sum(st[2] for st in t.stats.values()) == 100
    events = t.chrome_events(pid=1, label="test")[1:]
    parents = {ev["name"]: ev["args"]["parent"] for ev in events}
    index = {ev["name"]: ev["args"]["span"] for ev in events}
    assert parents == {"a": None, "b": index["a"], "c": index["b"],
                       "d": index["a"]}


def test_recursive_spans_and_wrapped_errors_keep_the_tree_consistent():
    # root [0, 30) > layer [5, 25) > layer (raising) [10, 20)
    clock = FakeClock(0, 0, 5, 10, 20, 25, 30)
    t = tracing.Tracer(clock=clock)

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("layer", boom)
    with t.span("root"):
        with t.span("layer"):
            try:
                wrapped()
            except ValueError:
                pass
    assert t.stats["layer"] == [2, 20 + 10, (20 - 10) + 10]
    assert t.stats["root"] == [1, 30, 30 - 20]
    assert wrapped.__perfbench_original__ is boom


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # that one runs the cli
            importlib.import_module(info.name)


def test_install_leaves_no_unwrapped_layer_binding():
    _import_all_repro_modules()
    assert tracing.unwrapped_bindings(), "nothing to wrap before install"
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        assert tracing.unwrapped_bindings() == []
        # the ``from X import f`` binding sites known to exist
        from repro import cli
        from repro.core import synth
        from repro.faults import campaign
        from repro.lab import sweep
        from repro.runtime import taskgraph

        for fn in (taskgraph.lower_source, synth.compile_process,
                   campaign.execute, campaign.software_sim,
                   sweep.estimate_image, sweep.estimate_fmax,
                   cli.estimate_image, cli.estimate_fmax):
            assert hasattr(fn, "__perfbench_original__"), fn
    finally:
        uninstall()
    stale = tracing.unwrapped_bindings()
    assert "repro.runtime.taskgraph.lower_source" in stale
    assert "repro.lab.cache.SynthesisCache.get" in stale


def test_traced_calls_are_counted_with_simulated_cycles():
    from repro.apps.loopback import build_loopback
    from repro.core.synth import synthesize
    from repro.runtime import hwexec

    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        result = hwexec.execute(synthesize(build_loopback(2)))
    finally:
        uninstall()
    assert t.calls("runtime.execute") == 1
    assert t.calls("frontend.parse") == 2
    assert t.counters["runtime.execute.sim_cycles"] == result.cycles > 0
