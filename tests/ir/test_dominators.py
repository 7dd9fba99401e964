"""Dominators and loops checked against brute force and paper-app snapshots.

The random digraphs cover self-loops, duplicate edges (a branch with equal
targets) and unreachable blocks; the reference is the textbook fixed point
dom(n) = {n} ∪ ⋂ dom(preds), with no graph library involved.
"""

import json
import os

from hypothesis import given, settings, strategies as st

from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.apps.pipeline import build_pipeline
from repro.apps.tripledes import build_tdes_app
from repro.apps.verification import build_divergence_app, build_hang_app
from repro.core.synth import synthesize
from repro.diagnostics.engine import synth_diagnostics
from repro.frontend.ctypes_ import U1
from repro.ir.cfg import CFG
from repro.ir.function import IRFunction
from repro.ir.instr import BasicBlock, Branch, Jump, Return
from repro.ir.values import Const


@st.composite
def digraphs(draw):
    """(block count, per-block successor tuple); block 0 is the entry."""
    n = draw(st.integers(min_value=1, max_value=14))
    node = st.integers(min_value=0, max_value=n - 1)
    succs = draw(st.lists(
        st.one_of(st.just(()), st.tuples(node), st.tuples(node, node)),
        min_size=n, max_size=n))
    return n, succs


def build_function(n, succs) -> IRFunction:
    func = IRFunction(name="g", entry="b0")
    for i, targets in enumerate(succs):
        names = [f"b{t}" for t in targets]
        term = (Return() if not names else Jump(names[0]) if len(names) == 1
                else Branch(Const(1, U1), names[0], names[1]))
        func.add_block(BasicBlock(name=f"b{i}", term=term))
    return func


def brute_force(func: IRFunction):
    """(reachable set, {block: dominator set}, {block: successor set})
    by plain fixed points."""
    edges = {name: set(b.term.targets()) for name, b in func.blocks.items()}
    reach, frontier = {func.entry}, [func.entry]
    while frontier:
        for t in edges[frontier.pop()]:
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    preds = {n: {p for p in reach if n in edges[p]} for n in reach}
    dom = {n: set(reach) for n in reach}
    dom[func.entry] = {func.entry}
    changed = True
    while changed:
        changed = False
        for n in reach - {func.entry}:
            new = {n} | set.intersection(*(dom[p] for p in preds[n]))
            if new != dom[n]:
                dom[n], changed = new, True
    return reach, dom, edges


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_dominators_match_the_brute_force_fixed_point(graph):
    func = build_function(*graph)
    cfg = CFG.build(func)
    reach, dom, edges = brute_force(func)

    assert cfg.reachable() == reach
    rpo = cfg.reverse_postorder()
    assert rpo[0] == func.entry and sorted(rpo) == sorted(reach)
    for name, block in func.blocks.items():
        assert cfg.successors(name) == list(dict.fromkeys(block.term.targets()))

    idom = cfg.immediate_dominators()
    assert set(idom) == reach - {func.entry}
    for n, d in idom.items():
        # the closest strict dominator: dominated by every other one
        assert dom[d] == dom[n] - {n}
    for a in func.blocks:
        for b in func.blocks:
            expected = a in dom[b] if b in reach else a == b
            assert cfg.dominates(a, b) == expected, (a, b)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_natural_loops_match_the_brute_force_back_edges(graph):
    func = build_function(*graph)
    reach, dom, edges = brute_force(func)
    expected: dict[str, set[str]] = {}
    for tail in reach:
        for head in edges[tail]:
            if head in dom[tail]:  # back edge: the body reaches the tail
                body, stack = {head}, [tail]
                while stack:
                    node = stack.pop()
                    if node not in body:
                        body.add(node)
                        stack.extend(p for p, s in edges.items() if node in s)
                expected.setdefault(head, set()).update(body)
    loops = CFG.build(func).natural_loops()
    assert {loop.header: set(loop.body) for loop in loops} == expected
    assert [loop.header for loop in loops] == sorted(expected)


# ---- paper apps ---------------------------------------------------------------

SNAPSHOTS = os.path.join(os.path.dirname(__file__), "loop_snapshots.json")

APPS = {
    "tripledes": build_tdes_app,
    "edge": build_edge_app,
    "loopback:8": lambda: build_loopback(8),
    "pipeline:3": lambda: build_pipeline(3),
    "divergence": build_divergence_app,
    "hang": build_hang_app,
}


def _loops(func: IRFunction) -> dict:
    cfg = CFG.build(func)

    def rows(loops):
        return [[loop.header, sorted(loop.body)] for loop in loops]

    return {"natural": rows(cfg.natural_loops()),
            "pipelined": rows(cfg.pipelined_loops())}


def test_paper_app_loops_match_the_snapshots():
    """(header, sorted body) of every natural and pipelined loop, in the
    lowered functions and after optimized assertion synthesis."""
    actual = {}
    for app_name, build in APPS.items():
        app, faults = build(), None
        if isinstance(app, tuple):
            app, faults = app
        for name, pd in app.processes.items():
            if pd.func is not None:
                actual[f"{app_name}/{name}/lowered"] = _loops(pd.func)
        image = synthesize(app, assertions="optimized", faults=faults)
        for name, cp in image.compiled.items():
            actual[f"{app_name}/{name}/optimized"] = _loops(cp.hw_func)
    with open(SNAPSHOTS) as fh:
        assert actual == json.load(fh)


# ---- size -----------------------------------------------------------------------


def test_a_deep_cfg_synthesizes_without_recursion():
    """1,200 sequential ifs make a 2,404-block function: every CFG walk
    must stay iterative for synthesis to finish cleanly."""
    body = "    if (x > i) { x = x - 1; }\n" * 1200
    src = ("void proc(co_stream input, co_stream output) {\n"
           "  uint32 x;\n  uint32 i;\n  i = 3;\n"
           "  while (co_stream_read(input, &x)) {\n" + body +
           "    co_stream_write(output, x);\n  }\n"
           "  co_stream_close(output);\n}\n")
    check, diags = synth_diagnostics(src, filename="deep.c")
    assert diags == []
    cfg = CFG.build(check.module["proc"])
    assert len(cfg.reverse_postorder()) == len(cfg.func.blocks) == 2404
