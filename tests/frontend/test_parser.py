"""Unit tests for the dialect parser."""

import pytest

from repro.diagnostics.engine import check_source
from repro.diagnostics.sink import DiagnosticSink
from repro.errors import ParseError
from repro.frontend.parser import parse_source, span_of


def test_parses_stream_process():
    src = """
void p(co_stream a, co_stream b) {
  uint32 x;
  while (co_stream_read(a, &x)) { co_stream_write(b, x); }
}
"""
    parsed = parse_source(src)
    assert list(parsed.functions) == ["p"]


def test_line_numbers_refer_to_user_source():
    src = "#include \"co.h\"\nvoid f(co_stream s) {\n  co_stream_close(s);\n}\n"
    parsed = parse_source(src, filename="user.c")
    span = span_of(parsed.functions["f"].decl, parsed.filename)
    assert span.file == "user.c"
    assert span.line == 2


def test_explicit_width_types_parse():
    src = "void f(co_stream s) { uint5 a; int33 b; a = 1; b = 2; co_stream_write(s, a + b); }"
    parsed = parse_source(src)
    assert "f" in parsed.functions


def test_syntax_error_raises_parse_error():
    with pytest.raises(ParseError):
        parse_source("void f( { }")


def test_duplicate_function_rejected():
    src = "void f(co_stream s) {}\nvoid f(co_stream s) {}"
    with pytest.raises(ParseError):
        parse_source(src)


def test_multiple_functions_collected():
    src = "void a(co_stream s) {}\nvoid b(co_stream s) {}"
    parsed = parse_source(src)
    assert sorted(parsed.functions) == ["a", "b"]


def test_ndebug_flag_from_defines():
    parsed = parse_source("void f(co_stream s) {}", defines={"NDEBUG": ""})
    assert parsed.ndebug


def test_assert_parses_as_call():
    src = "void f(co_stream s) { uint32 x; x = 1; assert(x > 0); }"
    parsed = parse_source(src)
    assert "f" in parsed.functions


def test_pragma_preserved_in_ast():
    src = """
void f(co_stream s) {
  uint32 x;
  x = 0;
  #pragma CO PIPELINE
  while (x < 4) { x = x + 1; }
}
"""
    parsed = parse_source(src)
    assert "f" in parsed.functions


def test_syntax_error_has_a_span():
    res = check_source("void p(co_stream a) { uint32 x = ; }",
                       filename="broken.c")
    [err] = res.diagnostics
    assert err.code == "RPR-S001"
    assert (err.span.file, err.span.line, err.span.col) == ("broken.c", 1, 34)
    assert "';'" in err.message


def test_collect_mode_recovers_and_keeps_other_functions():
    src = """void bad(co_stream s) {
  uint32 x;
  x = 1 +;
  x = (2;
  co_stream_close(s);
}
void good(co_stream s) {
  uint32 y;
  y = 3;
  co_stream_write(s, y);
}
void typo(co_stream s) { float q; }
"""
    res = check_source(src, filename="multi.c")
    codes = [(d.code, d.span.line) for d in res.diagnostics]
    # both syntax errors in 'bad' are reported; 'bad' itself is dropped,
    # so lowering adds nothing for it, while 'typo' still lowers and fails
    assert codes == [("RPR-S001", 3), ("RPR-S001", 4), ("RPR-T003", 12)]
    sink = DiagnosticSink(strict=False)
    parsed = parse_source(src, sink=sink)
    assert list(parsed.functions) == ["good", "typo"]


@pytest.mark.parametrize("stmt, code, col", [
    ("switch (x) { case 1: break; default: ; }", "RPR-L010", 33),
    ("goto out; out: ;", "RPR-L010", 33),
    ("float y;", "RPR-T003", 39),
    ("uint32 *p;", "RPR-L007", 40),
    ("x = s.f;", "RPR-L026", 37),
])
def test_constructs_lowering_rejects_keep_their_code_and_span(stmt, code,
                                                              col):
    # the statement starts at column 33; the spans are pycparser's
    res = check_source(f"void f(co_stream s) {{ uint32 x; {stmt} }}",
                       filename="x.c")
    first = res.diagnostics[0]
    assert (first.code, first.span.line, first.span.col) == (code, 1, col)


@pytest.mark.parametrize("source", [
    "void f(co_stream s) { struct pt p; }",
    "void f(co_stream s) { uint32 a[] = {[0] = 1}; }",
    "void f(co_stream s) { uint32 x; x = (uint32){1}; }",
    "void f(co_stream s) { uint32 (*fp)(int); }",
    "void f(co_stream s) { uint32 x; x = 1\r; }",
    "void f(co_stream s) { uint32 x; x = 09; }",
    "void f(co_stream s) { uint32 x; x = 'ab'; }",
    "void f(co_stream s) { uint32 x; x = 1; # 3\n }",
    "void f(co_stream s) { uint32 x; x = (1",
])
def test_non_dialect_syntax_is_a_located_s001(source):
    sink = DiagnosticSink(strict=False)
    parsed = parse_source(source, filename="x.c", sink=sink)
    assert parsed.functions == {}
    assert sink.diagnostics
    for diag in sink.diagnostics:
        assert diag.code == "RPR-S001"
        assert diag.span.file == "x.c" and diag.span.line >= 1
        assert diag.span.col >= 1
