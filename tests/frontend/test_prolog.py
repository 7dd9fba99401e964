"""The parser needs no typedef prolog: it knows the dialect's type names.

pycparser only parsed dialect C behind a prolog of ``typedef``s for the
``intN``/``uintN`` and ``co_stream`` names. The in-tree parser treats
exactly those 129 names as type names itself, so a source must parse the
same with and without that prolog in front: the same functions, every
node at the same column and (shifted by the prolog's lines) the same
line, and the same diagnostics.
"""

import pytest

from repro.apps import edge_detect, loopback, pipeline, tripledes, verification
from repro.diagnostics.sink import DiagnosticSink
from repro.difftest.generator import generate
from repro.frontend import ctypes_, parser
from repro.frontend.parser import parse_source
from tests.helpers import example_sources

FULL_PROLOG = "\n".join(
    [f"typedef unsigned int {name};"
     for name in ctypes_.all_dialect_typedef_names()]
    + ["typedef int co_stream;"])
PROLOG_LINES = len(FULL_PROLOG.splitlines())


def _sources() -> dict[str, str]:
    sources = {
        "tdes": tripledes.tdes_source(0x0123456789ABCDEF, 0x23456789ABCDEF01,
                                      0x456789ABCDEF0123),
        "tdes_noassert": tripledes.tdes_source(1, 2, 3,
                                               with_assertions=False),
        "edge": edge_detect.edge_source(),
        "edge_small": edge_detect.edge_source(16, 8),
        "loopback_stage": loopback.stage_source("stage7"),
        "pipeline_stage": pipeline.stage_source("stage3", delta=5),
        "divergence": verification.DIVERGENCE_SOURCE,
        "hang": verification.HANG_SOURCE,
        "odd_widths": """
void odd(co_stream input, co_stream output) {
  int7 a; uint64 b; uint32 x;
  while (co_stream_read(input, &x)) {
    a = (int7)x; b = (uint64)a << 40;
    co_stream_write(output, (uint32)(b >> 40));
  }
  co_stream_close(output);
}
""",
        "no_dialect_type": """
int sum(int a, int b) {
  int s;
  s = a + b;
  return s;
}
""",
    }
    sources.update(example_sources())
    for seed in range(50):
        sources[f"difftest{seed}"] = generate(seed).render()
    return sources


SOURCES = _sources()


def _dump(node, shift: int):
    """Kind, line (minus ``shift``), column and fields of every node."""
    if isinstance(node, list):
        return [_dump(item, shift) for item in node]
    if not isinstance(node, parser.Node):
        return node
    line = node.line - shift if node.line else 0
    return (type(node).__name__, line, node.col,
            *[(name, _dump(getattr(node, name), shift))
              for name in node._fields])


def _parse_both(source, filename, defines=None):
    """(shipped, its diagnostics, behind the prolog, its diagnostics), the
    prolog's line shift already taken out of the second pair."""
    bare_sink = DiagnosticSink(strict=False)
    bare = parse_source(source, filename=filename, defines=defines,
                        sink=bare_sink)
    full_sink = DiagnosticSink(strict=False)
    full = parse_source(f"{FULL_PROLOG}\n{source}", filename=filename,
                        defines=defines, sink=full_sink)
    diags = full_sink.to_dicts()
    for diag in diags:
        diag["span"]["line"] -= PROLOG_LINES
    return bare, bare_sink.to_dicts(), full, diags


def _signature(parsed, shift: int = 0) -> list:
    return [(name, _dump(fd, shift)) for name, fd in parsed.functions.items()]


def test_full_prolog_declares_all_129_names():
    assert PROLOG_LINES == 129
    declared = {line.split()[-1].rstrip(";")
                for line in FULL_PROLOG.splitlines()}
    assert declared == parser._TYPE_NAMES


def test_covers_the_example_sources():
    assert len(example_sources()) >= 2
    assert set(example_sources()) <= set(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_trimmed_prolog_parses_like_the_full_one(name):
    bare, bare_diags, full, full_diags = _parse_both(SOURCES[name],
                                                     f"{name}.c")
    assert bare.functions, name
    assert _signature(bare) == _signature(full, PROLOG_LINES)
    assert bare_diags == full_diags


@pytest.mark.parametrize("defines", [{"NDEBUG": ""}, {"NABORT": ""}])
def test_trimmed_prolog_under_defines(defines):
    bare, _, full, _ = _parse_both(SOURCES["tdes"], "tdes.c", defines)
    assert _signature(bare) == _signature(full, PROLOG_LINES)


@pytest.mark.parametrize("source", [
    "void f( { }",
    "void f(co_stream s) {\n  uint32 x;\n  x = 1 +;\n}\n",
    # a typedef name where an expression must go
    "void f(co_stream s) {\n  uint32 x;\n  x = uint8 + 1;\n}\n",
    # a constant glued to a type name: lexes as 1u followed by int7
    "void f(co_stream s) {\n  uint32 x;\n  x = 1uint7;\n}\n",
    "void f(co_stream s) {\n  int7 int7;\n  co_stream_close(s)\n}\n",
])
def test_syntax_error_diagnostics_are_unchanged(source):
    bare, bare_diags, full, full_diags = _parse_both(source, "bad.c")
    assert [d["code"] for d in bare_diags] == ["RPR-S001"]
    assert all(d["span"]["line"] >= 1 for d in bare_diags)
    assert bare_diags == full_diags
    assert bare.functions == full.functions == {}


def test_prolog_names_only_what_the_source_uses():
    # exactly the dialect names are types; look-alikes are identifiers,
    # and a declaration may reuse a type name for a variable in its scope
    assert {"uint1", "int64", "co_stream"} <= parser._TYPE_NAMES
    assert not {"uint0", "int65", "a9", "x_int8"} & parser._TYPE_NAMES
    src = ("void f(co_stream s) { uint8 a; int a9; int x_int8; int uint16;"
           " uint16 = a + a9 + x_int8; co_stream_write(s, uint16); }")
    body = parse_source(src).functions["f"].body.block_items
    assert [type(item).__name__ for item in body] == [
        "Decl", "Decl", "Decl", "Decl", "Assignment", "FuncCall"]
    sink = DiagnosticSink(strict=False)
    parse_source("void f(co_stream s) { uint0 a; }", sink=sink)
    assert [d.code for d in sink] == ["RPR-S001"]
