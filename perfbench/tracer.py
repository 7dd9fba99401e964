"""Span tracer for the benchmark's traced runs.

The tracer times calls into each layer's public functions from outside
the program: :func:`install` replaces every binding of a layer function
(the defining module *and* every module that did ``from X import f``)
with a wrapper that records a span. Spans nest per thread; a span's self
time is its duration minus the time covered by its child spans, so the
self times of one run partition its wall time. Spans are kept in memory
and exported as Chrome trace-event JSON (viewable in Perfetto).

Nothing here imports the program at module import time, so the unit
tests can exercise the arithmetic without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

#: (layer name, module, attribute) for every traced layer function; an
#: attribute of the form ``Class.method`` patches the class
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("frontend.preprocess", "repro.frontend.cpp", "preprocess"),
    ("frontend.parse", "repro.frontend.parser", "parse_source"),
    ("frontend.lower", "repro.frontend.lowering", "lower_source"),
    ("core.synth_process", "repro.core.synth", "synth_process"),
    ("core.assemble_image", "repro.core.synth", "assemble_image"),
    ("hls.compile_process", "repro.hls.compiler", "compile_process"),
    ("platform.estimate_image", "repro.platform.resources", "estimate_image"),
    ("platform.estimate_fmax", "repro.platform.timing", "estimate_fmax"),
    ("diagnostics.synth_diagnostics", "repro.diagnostics.engine",
     "synth_diagnostics"),
    ("lab.cache.get", "repro.lab.cache", "SynthesisCache.get"),
    ("lab.cache.get", "repro.lab.cache", "SynthesisCache.get_process"),
    ("lab.cache.put", "repro.lab.cache", "SynthesisCache.put"),
    ("simc.make_process_exec", "repro.simc", "make_process_exec"),
    ("runtime.execute", "repro.runtime.hwexec", "execute"),
    ("runtime.execute_batch", "repro.runtime.hwexec", "execute_batch"),
    ("runtime.software_sim", "repro.runtime.swsim", "software_sim"),
    ("faults.generate_scenarios", "repro.faults.campaign",
     "generate_scenarios"),
    ("faults.classify_outcome", "repro.faults.campaign", "classify_outcome"),
)

#: layers whose results carry simulated cycles: name -> counter name
_CYCLE_COUNTERS = {
    "runtime.execute": "runtime.execute.sim_cycles",
    "runtime.execute_batch": "runtime.execute_batch.lane_cycles",
}


class _Frame:
    __slots__ = ("name", "start", "child_ns", "index")

    def __init__(self, name: str, start: int, index: int) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.index = index


class Tracer:
    """Per-run span tree with per-layer totals and named counters.

    ``stats[name]`` is ``[calls, total_ns, self_ns]``; ``events`` holds
    one ``(name, start_ns, dur_ns, self_ns, parent_index, tid)`` tuple per
    finished span, indexed in start order so parents precede children.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.origin = clock()
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.events: list[tuple | None] = []
        self._local = threading.local()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock(), len(self.events))
        self.events.append(None)  # reserved: parents precede children
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        dur = end - frame.start
        self_ns = dur - frame.child_ns
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_ns += dur
        st = self.stats.setdefault(frame.name, [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += self_ns
        self.events[frame.index] = (
            frame.name, frame.start - self.origin, dur, self_ns,
            parent.index if parent is not None else None,
            threading.get_ident(),
        )

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records one ``name`` span per call."""
        counter = _CYCLE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if counter is not None:
                runs = result if isinstance(result, list) else [result]
                self.count(counter, sum(r.cycles for r in runs))
            return result

        traced.__perfbench_original__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def summary(self) -> dict:
        """JSON-able per-layer totals plus counters."""
        return {
            "layers": {name: {"calls": c, "total_s": t / 1e9,
                              "self_s": s / 1e9}
                       for name, (c, t, s) in self.stats.items()},
            "counters": dict(self.counters),
        }

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        """Finished spans as Chrome trace-event complete (``X``) events."""
        out = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label}}]
        for index, ev in enumerate(self.events):
            if ev is None:
                continue  # still open (the run raised inside it)
            name, start, dur, self_ns, parent, tid = ev
            out.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start / 1e3, "dur": dur / 1e3, "pid": pid,
                "tid": tid, "args": {"span": index, "parent": parent,
                                     "self_us": self_ns / 1e3},
            })
        return out


def _resolve(module: str, attr: str):
    """(owner object, attribute name, original function) for one layer."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    fn = owner.__dict__[name] if isinstance(owner, type) else \
        getattr(owner, name)
    return owner, name, getattr(fn, "__perfbench_original__", fn)


def layer_functions() -> dict[int, tuple[str, object]]:
    """id(original function) -> (layer name, function) for every layer."""
    out = {}
    for layer, module, attr in LAYERS:
        _owner, _name, fn = _resolve(module, attr)
        out[id(fn)] = (layer, fn)
    return out


def install(tracer: Tracer):
    """Wrap every layer function at every binding site; returns a
    callable that restores the originals.

    The defining module (or class) is patched, so modules imported later
    bind the wrapper; every module already in ``sys.modules`` that holds
    the original under any name is patched too.
    """
    originals = layer_functions()
    wrappers = {key: tracer.wrap(layer, fn)
                for key, (layer, fn) in originals.items()}
    patched: list[tuple[object, str, object]] = []
    for _layer, module, attr in LAYERS:
        owner, name, fn = _resolve(module, attr)
        patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrappers[id(fn)])
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and originals[id(value)][1] is value:
                patched.append((mod, name, value))
                setattr(mod, name, wrapper)

    def uninstall() -> None:
        for owner, name, value in reversed(patched):
            setattr(owner, name, value)

    return uninstall


def unwrapped_bindings() -> list[str]:
    """``module.name`` of every module-level binding that still holds an
    original (unwrapped) layer function."""
    originals = layer_functions()
    stale = []
    for mod_name, mod in list(sys.modules.items()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                stale.append(f"{mod_name}.{name}")
    for _layer, module, attr in LAYERS:
        owner, name, fn = _resolve(module, attr)
        if isinstance(owner, type) and owner.__dict__[name] is fn:
            stale.append(f"{module}.{attr}")
    return sorted(stale)
