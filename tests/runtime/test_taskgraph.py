"""Unit tests for the application/task-graph model."""

import pytest

from repro.runtime.taskgraph import Application, Endpoint, GraphError

SRC = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) { co_stream_write(output, x); }
  co_stream_close(output);
}
"""


def test_endpoint_parse():
    ep = Endpoint.parse("proc.port")
    assert ep.process == "proc" and ep.port == "port"
    with pytest.raises(GraphError):
        Endpoint.parse("noport")


def test_add_c_process_infers_single_function():
    app = Application("t")
    pd = app.add_c_process(SRC)
    assert pd.name == "p"
    assert pd.stream_params == ["input", "output"]


def test_ambiguous_function_requires_name():
    app = Application("t")
    two = SRC + "\nvoid q(co_stream s) { co_stream_close(s); }"
    with pytest.raises(GraphError):
        app.add_c_process(two)
    pd = app.add_c_process(two, function="q")
    assert pd.name == "q"


def test_duplicate_process_rejected():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    with pytest.raises(GraphError):
        app.add_c_process(SRC, name="a")


def test_feed_connect_sink_wiring():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    app.add_c_process(SRC, name="b")
    app.feed("in", "a.input", data=[1])
    app.connect("mid", "a.output", "b.input")
    app.sink("out", "b.output")
    app.validate()
    binding = app.stream_binding("a")
    assert binding["input"].name == "in"
    assert binding["output"].name == "mid"
    assert app.streams["in"].cpu_fed
    assert app.streams["out"].cpu_bound
    assert not app.streams["mid"].cpu_fed


def test_unbound_stream_param_rejected():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    app.feed("in", "a.input", data=[])
    with pytest.raises(GraphError):
        app.validate()


def test_double_binding_rejected():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    app.feed("in", "a.input", data=[])
    app.feed("in2", "a.input", data=[])
    app.sink("out", "a.output")
    with pytest.raises(GraphError):
        app.validate()


def test_direction_mismatch_rejected():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    # 'input' is read by the process but declared here as its producer
    app.sink("bad", "a.input")
    app.feed("in2", "a.output", data=[])
    with pytest.raises(GraphError):
        app.validate()


def test_duplicate_stream_rejected():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    app.feed("s", "a.input", data=[])
    with pytest.raises(GraphError):
        app.sink("s", "a.output")


def test_nabort_define_sets_app_flag():
    app = Application("t")
    app.add_c_process(SRC, name="a", defines={"NABORT": ""})
    assert app.nabort


def test_assertion_sites_collected():
    src = SRC.replace("co_stream_write(output, x);",
                      "assert(x > 0); co_stream_write(output, x);")
    app = Application("t")
    app.add_c_process(src, name="a")
    sites = app.assertion_sites()
    assert len(sites) == 1 and sites[0][0] == "a"


def test_clone_is_independent():
    app = Application("t")
    app.add_c_process(SRC, name="a")
    app.feed("in", "a.input", data=[1, 2])
    app.sink("out", "a.output")
    text = app.processes["a"].func.canonical_text()
    clone = app.clone()
    clone.streams["in"].feeder_data.append(99)
    # process functions are shared read-only; a rewriter swaps in its own
    # copy, as assertion synthesis does
    assert clone.processes["a"].func is app.processes["a"].func
    func = clone.processes["a"].func = clone.processes["a"].func.clone()
    func.blocks.clear()
    assert app.streams["in"].feeder_data == [1, 2]
    assert app.processes["a"].func.canonical_text() == text
