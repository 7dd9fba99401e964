"""The trimmed parser prolog parses exactly like the full one.

``parse_source`` declares only the dialect typedefs a source mentions.
Every source here is parsed twice — once as shipped, once behind the
full prolog of all 128 ``intN``/``uintN`` names plus ``co_stream`` — and
the function definitions (printed C plus every node coordinate) and the
diagnostics must be identical.
"""

import ast
import pathlib

import pytest
from pycparser import c_generator

from repro.apps import edge_detect, loopback, pipeline, tripledes, verification
from repro.diagnostics.sink import DiagnosticSink
from repro.difftest.generator import generate
from repro.frontend import ctypes_, parser
from repro.frontend.parser import parse_source

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

FULL_PROLOG = "\n".join(
    [f"typedef unsigned int {name};"
     for name in ctypes_.all_dialect_typedef_names()]
    + ["typedef int co_stream;"])

_CGEN = c_generator.CGenerator()


def _example_sources() -> dict[str, str]:
    """Module-level dialect C string constants of ``examples/*.py``."""
    found = {}
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and "co_stream" in node.value.value):
                found[f"{path.stem}.{node.targets[0].id}"] = node.value.value
    return found


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
    sources.update(_example_sources())
    for seed in range(50):
        sources[f"difftest{seed}"] = generate(seed).render()
    return sources


SOURCES = _sources()


def _signature(parsed) -> list:
    """Printed C and every node coordinate of each function definition."""
    def coords(node, out):
        out.append((type(node).__name__, str(node.coord)))
        for _name, child in node.children():
            coords(child, out)
        return out

    return [(name, _CGEN.visit(fd), coords(fd, []))
            for name, fd in parsed.functions.items()]


def _parse_both(monkeypatch, source, filename, defines=None):
    trimmed_sink = DiagnosticSink(strict=False)
    trimmed = parse_source(source, filename=filename, defines=defines,
                           sink=trimmed_sink)
    with monkeypatch.context() as m:
        m.setattr(parser, "_build_prolog", lambda text: FULL_PROLOG)
        full_sink = DiagnosticSink(strict=False)
        full = parse_source(source, filename=filename, defines=defines,
                            sink=full_sink)
    return trimmed, trimmed_sink, full, full_sink


def test_full_prolog_declares_all_129_names():
    assert len(FULL_PROLOG.splitlines()) == 129


def test_covers_the_example_sources():
    assert len(_example_sources()) >= 2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_trimmed_prolog_parses_like_the_full_one(monkeypatch, name):
    trimmed, tsink, full, fsink = _parse_both(
        monkeypatch, SOURCES[name], f"{name}.c")
    assert trimmed.functions, name
    assert _signature(trimmed) == _signature(full)
    assert tsink.to_dicts() == fsink.to_dicts()


@pytest.mark.parametrize("defines", [{"NDEBUG": ""}, {"NABORT": ""}])
def test_trimmed_prolog_under_defines(monkeypatch, defines):
    trimmed, _, full, _ = _parse_both(
        monkeypatch, SOURCES["tdes"], "tdes.c", defines)
    assert _signature(trimmed) == _signature(full)


@pytest.mark.parametrize("source", [
    "void f( { }",
    "void f(co_stream s) {\n  uint32 x;\n  x = 1 +;\n}\n",
    # a typedef name where an expression must go
    "void f(co_stream s) {\n  uint32 x;\n  x = uint8 + 1;\n}\n",
    # a constant glued to a type name: lexes as 1u followed by int7
    "void f(co_stream s) {\n  uint32 x;\n  x = 1uint7;\n}\n",
    "void f(co_stream s) {\n  int7 int7;\n  co_stream_close(s)\n}\n",
])
def test_syntax_error_diagnostics_are_unchanged(monkeypatch, source):
    trimmed, tsink, full, fsink = _parse_both(monkeypatch, source, "bad.c")
    codes = [d["code"] for d in tsink.to_dicts()]
    assert "RPR-S001" in codes
    assert tsink.to_dicts() == fsink.to_dicts()


def test_prolog_names_only_what_the_source_uses():
    prolog = parser._build_prolog("void f(co_stream s) { uint8 a; int a9; }")
    assert prolog.splitlines() == ["typedef int co_stream;",
                                   "typedef int uint8;"]
    assert parser._build_prolog("int main(void) { return 0; }") == ""
