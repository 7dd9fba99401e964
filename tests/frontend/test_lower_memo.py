"""Strict-mode ``lower_source`` lowers each distinct unit once per process."""

import pytest

from repro.apps.loopback import build_loopback
from repro.diagnostics.sink import DiagnosticSink
from repro.errors import ReproError
from repro.frontend import lowering, parser
from repro.frontend.lowering import lower_source

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

BAD = "void proc(co_stream s) {\n  float y;\n  goto done;\n}\n"


@pytest.fixture
def parses(monkeypatch):
    """Count ``parse_source`` calls, starting from an empty memo."""
    lowering._lowered_blob.cache_clear()
    calls = []
    real = parser.parse_source

    def counting(*args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_source", counting)
    yield calls
    lowering._lowered_blob.cache_clear()


def test_hit_returns_a_fresh_module(parses):
    first = lower_source(SRC, filename="p.c")
    text = first["proc"].canonical_text()
    first["proc"].blocks.clear()
    first["proc"].name = "mutated"
    del first.functions["proc"]

    second = lower_source(SRC, filename="p.c")
    assert second is not first
    assert second["proc"].name == "proc"
    assert second["proc"].canonical_text() == text
    assert len(parses) == 1


def test_hit_and_miss_agree_with_an_unmemoized_lowering(parses):
    miss = lower_source(SRC, filename="p.c")
    hit = lower_source(SRC, filename="p.c")
    direct = lower_source(SRC, filename="p.c",
                          sink=DiagnosticSink(strict=False))
    assert len(parses) == 2  # the collect-mode call bypassed the memo
    assert (miss["proc"].canonical_text()
            == hit["proc"].canonical_text()
            == direct["proc"].canonical_text())
    assert miss["proc"].assertion_sites == hit["proc"].assertion_sites


def test_filename_and_defines_are_part_of_the_key(parses):
    a = lower_source(SRC, filename="a.c")
    b = lower_source(SRC, filename="b.c")
    assert a["proc"].assertion_sites[0].file == "a.c"
    assert b["proc"].assertion_sites[0].file == "b.c"

    ndebug = lower_source(SRC, filename="a.c", defines={"NDEBUG": ""})
    lower_source(SRC, filename="a.c", defines={"NABORT": ""})
    assert len(parses) == 4
    assert "assert_check" in a["proc"].canonical_text()
    assert "assert_check" not in ndebug["proc"].canonical_text()

    # repeats hit, and no defines is the same unit as empty defines
    lower_source(SRC, filename="a.c", defines={})
    lower_source(SRC, filename="b.c")
    lower_source(SRC, filename="a.c", defines={"NDEBUG": ""})
    lower_source(SRC, filename="a.c", defines={"NABORT": ""})
    assert len(parses) == 4


def test_errors_are_raised_on_every_strict_call(parses):
    for _ in range(3):
        with pytest.raises(ReproError):
            lower_source(BAD, filename="bad.c")
    assert len(parses) == 3


def test_collect_mode_reports_on_every_call(parses):
    reports = []
    for _ in range(2):
        sink = DiagnosticSink(strict=False)
        lower_source(BAD, filename="bad.c", sink=sink)
        reports.append(sink.to_dicts())
    assert reports[0] and reports[0] == reports[1]
    assert {d["code"] for d in reports[0]} >= {"RPR-T003", "RPR-L010"}
    assert len(parses) == 2


def test_rebuilding_a_loopback_parses_each_stage_once(parses):
    apps = [build_loopback(8) for _ in range(3)]
    assert len(parses) == 8
    assert sorted(parses) == sorted(f"stage{i}.c" for i in range(8))
    assert apps[0].processes["stage0"].func is not \
        apps[1].processes["stage0"].func
