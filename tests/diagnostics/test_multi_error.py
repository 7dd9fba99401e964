"""Multi-error recovery: one frontend run reports every error, located."""

from repro.diagnostics.engine import check_source, synth_diagnostics

MULTI_ERROR_SRC = """#include "missing.h"

void proc(co_stream input, co_stream output) {
  uint32 x;
  float y;
  while (co_stream_read(input, &x)) {
    if (x > 10) goto done;
    co_stream_write(output, x);
  }
done:
  co_stream_close(output);
}
"""


def test_three_plus_distinct_errors_in_one_run():
    res = check_source(MULTI_ERROR_SRC, filename="multi.c")
    assert res.has_errors
    errors = [d for d in res.diagnostics if d.is_error]
    # bad include (preprocessor) + unknown type + goto + label (lowering):
    # three phases survive each other's failures in a single pass
    assert len(errors) >= 3
    codes = {d.code for d in errors}
    assert {"RPR-P005", "RPR-T003", "RPR-L010"} <= codes


def test_every_error_is_span_located_in_source_order():
    res = check_source(MULTI_ERROR_SRC, filename="multi.c")
    errors = [d for d in res.diagnostics if d.is_error]
    assert all(d.span is not None and d.span.file == "multi.c"
               for d in errors)
    lines = [d.span.line for d in errors]
    assert lines == sorted(lines)
    by_code = {d.code: d.span.line for d in errors}
    assert by_code["RPR-P005"] == 1   # the #include line
    assert by_code["RPR-T003"] == 5   # 'float y;'


def test_render_shows_carets_and_codes():
    res = check_source(MULTI_ERROR_SRC, filename="multi.c")
    text = res.render(color=False)
    assert "RPR-T003" in text
    assert "float y;" in text     # the source excerpt
    assert "^" in text            # the caret underline


def test_hard_parse_error_still_reported_once():
    # the parser drops a function with a syntax error, so lowering adds
    # no follow-on errors for it: one coded diagnostic remains
    res = check_source("void p(co_stream a) { uint32 x = ; }",
                       filename="broken.c")
    errors = [d for d in res.diagnostics if d.is_error]
    assert len(errors) == 1
    assert errors[0].code.startswith("RPR-S")


def test_clean_source_has_no_diagnostics_and_synthesizes():
    src = """
void p(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""
    check, diags = synth_diagnostics(src, filename="ok.c")
    assert not check.has_errors
    assert diags == []


def test_synth_diagnostics_covers_frontend_errors():
    check, diags = synth_diagnostics(MULTI_ERROR_SRC, filename="multi.c")
    assert check.has_errors
    assert {d["code"] for d in diags} >= {"RPR-P005", "RPR-T003", "RPR-L010"}
