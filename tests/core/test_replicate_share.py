"""Unit tests for resource replication (3.2) and channel sharing (3.3/4.2)."""

from repro.core.parallelize import parallelize_function
from repro.core.replicate import replicate_arrays
from repro.core.share import build_collectors
from repro.core.registry import AssertionRegistry
from repro.hls.compiler import compile_process
from repro.ir.transform import eliminate_dead_code
from repro.ir.verify import verify_function
from repro.runtime.taskgraph import Application
from tests.helpers import lower_one

PIPE_ARRAY_SRC = """
void f(co_stream input, co_stream output) {
  uint32 x; uint32 i; uint32 buf[16];
  i = 0;
  #pragma CO PIPELINE
  while (co_stream_read(input, &x)) {
    buf[i & 15] = x;
    assert(buf[i & 15] < 1000);
    co_stream_write(output, buf[(i + 8) & 15]);
    i = i + 1;
  }
  co_stream_close(output);
}
"""


def prepared(src):
    func = lower_one(src)
    res = parallelize_function(func, "f", lambda s: 1, share=True)
    eliminate_dead_code(func)
    return func, res


def test_replication_creates_shadow_array():
    func, _ = prepared(PIPE_ARRAY_SRC)
    rep = replicate_arrays(func)
    assert rep.shadows == {"buf": "buf__shadow"}
    assert "buf__shadow" in func.arrays
    assert rep.loads_retargeted == 1
    assert rep.stores_duplicated == 1
    verify_function(func)


def test_replication_restores_rate_at_one_extra_latency():
    # paper Table 4: optimized array assertion = +1 latency, +0 rate
    base_func = lower_one(PIPE_ARRAY_SRC, defines={"NDEBUG": ""})
    eliminate_dead_code(base_func)
    base = next(iter(compile_process(base_func).schedule.pipelines.values()))

    func, _ = prepared(PIPE_ARRAY_SRC)
    noreplicate = next(iter(compile_process(func.clone()).schedule.pipelines.values()))
    replicate_arrays(func)
    opt = next(iter(compile_process(func).schedule.pipelines.values()))

    assert opt.ii == base.ii                 # rate overhead 0
    assert opt.latency == base.latency + 1   # latency overhead 1
    # without replication the extract load costs rate instead
    assert noreplicate.ii == base.ii + 1


def test_replication_skips_sequential_code():
    src = """
void f(co_stream input, co_stream output) {
  uint32 x; uint32 buf[8];
  while (co_stream_read(input, &x)) {
    buf[x & 7] = x;
    assert(buf[x & 7] < 100);
    co_stream_write(output, x);
  }
}
"""
    func, _ = prepared(src)
    rep = replicate_arrays(func)
    assert rep.shadows == {}


def test_replication_skips_untouched_arrays():
    src = """
void f(co_stream input, co_stream output) {
  uint32 x;
  const uint8 rom[4] = {1, 2, 3, 4};
  #pragma CO PIPELINE
  while (co_stream_read(input, &x)) {
    assert(rom[x & 3] > 0);
    co_stream_write(output, x);
  }
}
"""
    func, _ = prepared(src)
    rep = replicate_arrays(func)
    # the ROM has no app accesses competing with the assertion
    assert rep.shadows == {}


def test_shadow_mirrors_initializer():
    func, _ = prepared(PIPE_ARRAY_SRC)
    replicate_arrays(func)
    assert func.arrays["buf__shadow"].size == func.arrays["buf"].size
    assert func.arrays["buf__shadow"].elem == func.arrays["buf"].elem


def _app_with_checkers(n_asserts: int):
    lines = "\n".join(f"    assert(x != {100 + i});" for i in range(n_asserts))
    src = f"""
void f(co_stream input, co_stream output) {{
  uint32 x;
  while (co_stream_read(input, &x)) {{
{lines}
    co_stream_write(output, x);
  }}
}}
"""
    app = Application("t")
    app.add_c_process(src, name="f", filename="t.c")
    app.feed("in", "f.input", data=[1])
    app.sink("out", "f.output")
    registry = AssertionRegistry()
    # lowered IR is shared read-only: parallelize a private copy
    pd = app.processes["f"]
    func = pd.func = pd.func.clone()
    res = parallelize_function(func, "f",
                               lambda s: registry.register("f", s), share=True)
    eliminate_dead_code(func)
    for plan in res.checkers:
        app.add_tap(plan.tap_channel, "f", plan.checker.name, plan.tap_widths)
        app.add_ir_process(plan.checker, daemon=True)
    return app, res.checkers, registry


def test_collectors_pack_32_assertions_per_stream():
    app, plans, registry = _app_with_checkers(40)
    share = build_collectors(app, plans, registry.lookup, word_width=32)
    assert len(share.collectors) == 2
    assert len(share.fail_streams) == 2
    first = share.fail_streams["__collect0_out"]
    assert first.mode == "bitmask"
    assert len(first.table) == 32
    second = share.fail_streams["__collect1_out"]
    assert len(second.table) == 8


def test_collector_decode_table_maps_bits_to_sites():
    app, plans, registry = _app_with_checkers(3)
    share = build_collectors(app, plans, registry.lookup)
    table = share.fail_streams["__collect0_out"].table
    assert {proc for proc, _ in table.values()} == {"f"}
    lines = [site.expr_text for _p, site in table.values()]
    assert "x != 100" in lines and "x != 102" in lines


def test_collector_streams_are_cpu_bound():
    app, plans, registry = _app_with_collectors_helper()
    for name in app.streams:
        if name.startswith("__collect"):
            assert app.streams[name].cpu_bound
            assert app.streams[name].role == "assert_bitmask"


def _app_with_collectors_helper():
    app, plans, registry = _app_with_checkers(2)
    build_collectors(app, plans, registry.lookup)
    return app, plans, registry
