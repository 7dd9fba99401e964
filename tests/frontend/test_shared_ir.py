"""Lowered IR is shared read-only: no flow may rewrite a memoized function.

Strict-mode ``lower_source`` hands every caller the same ``IRFunction``
objects for one unit, and a memoized function caches its printed text
(the cache keys' process identity). Every pass that rewrites IR clones
first; these tests run each flow that reads IR and then require each
memoized function to still equal a fresh lowering of its unit.
"""

import pickle

import pytest

from repro.apps.edge_detect import build_edge_app
from repro.apps.loopback import build_loopback
from repro.apps.pipeline import build_pipeline
from repro.apps.tripledes import build_tdes_app
from repro.core.synth import LEVELS, SynthesisOptions, synthesize
from repro.diagnostics.sink import DiagnosticSink
from repro.difftest.generator import generate
from repro.difftest.oracle import run_difftest
from repro.faults.campaign import Scenario, run_campaign
from repro.faults.ir import ReadForWrite
from repro.frontend import lowering
from repro.frontend.lowering import lower_source
from repro.lab.cache import SynthesisCache
from repro.lab.incremental import synthesize_incremental
from repro.runtime.hwexec import execute
from repro.runtime.swsim import software_sim

SRC = """
void proc(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""

VARIANTS = {
    "default": SynthesisOptions(),
    "noshare": SynthesisOptions(share=False),
    "noparallelize": SynthesisOptions(parallelize=False),
    "multichecker": SynthesisOptions(multichecker=True),
}


@pytest.fixture
def memo():
    lowering.clear_memo()
    yield lowering._MEMO
    lowering.clear_memo()


def _state(func) -> tuple:
    """Everything lowering produces for one function."""
    return (func.canonical_text(), func.scalars, func.arrays,
            func.temp_names, func.assertion_sites, vars(func.ids))


def test_no_flow_rewrites_shared_ir(memo, tmp_path):
    apps = [build_loopback(4), build_edge_app(width=16, height=8),
            build_tdes_app(), build_pipeline(4)]
    cache = SynthesisCache(str(tmp_path / "cache"))
    for app in apps:
        for level in LEVELS:
            for options in VARIANTS.values():
                synthesize(app, level, options)
        for _ in range(2):  # a cold, then a warm pass
            image, _info = synthesize_incremental(app, cache=cache)
        software_sim(app)
        for backend in ("interp", "compiled"):
            execute(image, sim_backend=backend)
    rfw = Scenario("rfw", "store to stage0.buf emitted as read",
                   ir_faults={"stage0": (ReadForWrite(array="buf"),)})
    run_campaign("loopback", levels=("none", "optimized"), scenarios=[rfw])
    prog = generate(1)  # one with assertions: the oracle instruments it
    assert run_difftest(prog.render(), prog.feed, filename="s1.c").ok

    # loopback 4, edge, Triple-DES, pipeline 4 and the difftest program
    # (the campaign's loopback 3 reuses loopback 4's units)
    assert len(memo) == 4 + 1 + 1 + 4 + 1
    for (source, filename, defines), module in memo.items():
        fresh = lowering._lower(source, filename, dict(defines),
                                DiagnosticSink(strict=True))
        assert sorted(module.functions) == sorted(fresh.functions)
        for name, func in module.functions.items():
            assert str(func) == func.canonical_text(), (filename, name)
            assert _state(func) == _state(fresh[name]), (filename, name)


def test_a_clone_is_private_and_prints_afresh(memo):
    shared = lower_source(SRC, filename="p.c")["proc"]
    text = str(shared)
    copy = shared.clone()
    assert str(copy) == text
    copy.name = "renamed"
    assert str(copy).startswith("func renamed(")
    assert str(shared) == text


def test_an_unpickled_function_is_private_and_prints_afresh(memo):
    shared = lower_source(SRC, filename="p.c")["proc"]
    text = str(shared)
    copy = pickle.loads(pickle.dumps(shared))
    assert str(copy) == text
    copy.name = "renamed"
    copy.blocks.clear()
    assert str(copy) == ("func renamed(@input/32, @output/32)\n"
                         "  sites [(0, 'x < 100')]")
    assert str(shared) == text
