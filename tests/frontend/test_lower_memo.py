"""Strict-mode ``lower_source`` lowers each distinct unit once per process."""

import pickle
import sys
import threading

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
    lowering.clear_memo()
    calls = []
    real = parser.parse_source

    def counting(*args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_source", counting)
    yield calls
    lowering.clear_memo()


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


def test_a_clean_collect_mode_lowering_seeds_the_strict_memo(parses):
    lower_source(SRC, filename="p.c", sink=DiagnosticSink(strict=False))
    seeded = lowering._MEMO[(SRC, "p.c", ())]
    lower_source(SRC, filename="p.c")
    assert len(parses) == 1
    lowering.clear_memo()
    lower_source(SRC, filename="p.c")
    assert lowering._MEMO[(SRC, "p.c", ())] == seeded  # the strict blob


def test_a_failed_collect_mode_lowering_seeds_nothing(parses):
    lower_source(BAD, filename="bad.c", sink=DiagnosticSink(strict=False))
    assert not lowering._MEMO
    with pytest.raises(ReproError):
        lower_source(BAD, filename="bad.c")
    assert len(parses) == 2


def test_a_clean_synth_check_parses_once_and_keeps_the_image(parses):
    from repro.apps.csource import build_csource_app
    from repro.apps.tripledes import DEFAULT_KEYS, tdes_source
    from repro.core.synth import synthesize
    from repro.diagnostics.engine import synth_diagnostics

    source = tdes_source(*DEFAULT_KEYS)
    _check, diags = synth_diagnostics(source, filename="tdes.c")
    assert diags == []
    assert parses == ["tdes.c"]

    def image_bytes():
        app = build_csource_app({"source": source, "filename": "tdes.c"})
        return pickle.dumps(synthesize(app))

    seeded = image_bytes()
    lowering.clear_memo()
    assert image_bytes() == seeded


def test_concurrent_lowerings_keep_the_memo_consistent(monkeypatch):
    """Strict and collect-mode callers racing on a tiny memo: every call
    returns its own source's module and the memo stays bounded."""
    lowering.clear_memo()
    monkeypatch.setattr(lowering, "_MEMO_UNITS", 3)
    bounds = list(range(100, 106))
    sources = {b: SRC.replace("x < 100", f"x < {b}") for b in bounds}
    errors = []

    def work(k):
        try:
            for j in range(24):
                bound = bounds[(k + j) % len(bounds)]
                sink = DiagnosticSink(strict=False) if j % 3 == 0 else None
                module = lower_source(sources[bound], filename="p.c",
                                      sink=sink)
                if f"{bound}" not in module["proc"].canonical_text():
                    errors.append((k, j, bound))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(lowering._MEMO) <= 3
    lowering.clear_memo()
