"""The in-tree parser against pycparser, kept as a dev-only oracle.

Every source of the corpus — the apps, the dialect C constants of
``examples/*.py`` and of the test modules, and difftest seeds 0:200 — is
parsed by both. pycparser's tree is converted into
:mod:`repro.frontend.parser` nodes field by field, and the two trees must
match exactly: node kinds, every field, and every node's line and column.
Every assertion condition must print exactly as pycparser's
``CGenerator`` prints it (``AssertionSite.expr_text`` feeds failure
messages and bench signatures), and every lowered function must have the
same canonical IR text.
"""

import pathlib

import pytest

pycparser = pytest.importorskip("pycparser")
from pycparser import c_ast, c_generator  # noqa: E402

from repro.diagnostics.sink import DiagnosticSink  # noqa: E402
from repro.difftest.generator import generate  # noqa: E402
from repro.frontend import ctypes_, parser  # noqa: E402
from repro.frontend.cpp import preprocess  # noqa: E402
from repro.frontend.lowering import FunctionLowerer  # noqa: E402
from repro.frontend.parser import ParsedSource, parse_source  # noqa: E402
from tests.frontend.test_prolog import SOURCES as PROLOG_TEST_SOURCES  # noqa: E402
from tests.helpers import example_sources, module_sources  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: every dialect type name as a typedef, so pycparser lexes them as types
PROLOG = "\n".join(
    [f"typedef int {name};" for name in ctypes_.all_dialect_typedef_names()]
    + ["typedef int co_stream;"])
PROLOG_DECLS = len(PROLOG.splitlines())

_CGEN = c_generator.CGenerator()


def _sources() -> dict[str, str]:
    """The prolog test's sources, plus every module-level dialect C string
    in the test modules, difftest seeds up to 200 and odd syntax."""
    sources = dict(PROLOG_TEST_SOURCES)
    sources["odd_syntax"] = """
#pragma CO top
const uint8 TABLE[] = {1, 2, 3,};
uint32 proto(co_stream s, uint32 *p, uint8 [4], unsigned);
void odd(co_stream in, co_stream out) {
  uint32 x, y = 2, z[2][3]; const int8 c = -1; unsigned long long w;
  register short r; static uint4 t = (uint4)~0x3u;
  for (uint32 i = 0, j = 1; i < 4; i++, j <<= 1)
    #pragma CO PIPELINE
    while (co_stream_read(in, &x)) { x += sizeof(uint32) + sizeof x; }
  do x--; while (!x && (x ^ y) || -x > +y);
  if (x) ; else { ; }
  x = y = (x, y);
  x = c ? (y ? 1 : 2) : z[1][x % 2] >> 'a';
  x = (uint32 *) 0 == (int) 1L ? 0x1FuLL : 07;
  a.b = s->c + f()[1]++;
  goto done;
done:
  co_stream_close(out);
}
"""
    for path in sorted((ROOT / "tests").rglob("*.py")):
        sources.update(module_sources(path, ROOT))
    for seed in range(200):
        sources[f"difftest{seed}"] = generate(seed).render()
    return sources


SOURCES = _sources()


# ---- pycparser side ------------------------------------------------------------


def _pycparser_parse(source: str, filename: str, defines=None):
    """(FileAST minus the prolog, functions) as the retired flow built them."""
    pre = preprocess(source, defines=defines, filename=filename,
                     sink=DiagnosticSink(strict=False))
    text = f'{PROLOG}\n#line 1 "{filename}"\n{pre.text}'
    tree = pycparser.CParser().parse(text, filename=filename)
    ext = tree.ext[PROLOG_DECLS:]
    functions = {}
    for node in ext:
        if isinstance(node, c_ast.FuncDef):
            functions.setdefault(node.decl.name, node)
    return ext, functions, pre


def _convert(node):
    """pycparser node (or list/str/None) -> the same tree of our nodes."""
    if isinstance(node, list):
        return [_convert(item) for item in node]
    if not isinstance(node, c_ast.Node):
        return node
    cls = getattr(parser, type(node).__name__)
    coord = node.coord
    line = coord.line if coord is not None else 0
    col = (coord.column or 0) if coord is not None else 0
    values = [_convert(getattr(node, name)) for name in cls._fields]
    return cls(*values, line=line, col=col)


def _dump(node):
    """A comparable nested-tuple form: kind, line, col, then every field."""
    if isinstance(node, list):
        return [_dump(item) for item in node]
    if not isinstance(node, parser.Node):
        return node
    return (type(node).__name__, node.line, node.col,
            *[(name, _dump(getattr(node, name))) for name in node._fields])


def _assert_conditions(node, out):
    """Every ``assert(cond)`` condition below ``node``, in source order."""
    if isinstance(node, list):
        for item in node:
            _assert_conditions(item, out)
        return out
    if isinstance(node, (c_ast.Node, parser.Node)):
        if (type(node).__name__ == "FuncCall"
                and type(node.name).__name__ == "ID"
                and node.name.name == "assert" and node.args is not None):
            out.append(node.args.exprs[0])
        fields = (node.__slots__ if isinstance(node, c_ast.Node)
                  else node._fields)
        for name in fields:
            if name not in ("coord", "__weakref__"):
                _assert_conditions(getattr(node, name, None), out)
    return out


# ---- tests --------------------------------------------------------------------
#
# Each test walks the whole corpus and reports every source that differs,
# so the oracle is a handful of test ids however large the corpus grows.


def test_corpus_covers_every_source_kind():
    assert sum(name.startswith("difftest") for name in SOURCES) == 200
    assert any(name.startswith("tests/") for name in SOURCES)
    assert set(example_sources()) <= set(SOURCES)


def _tree_mismatch(name: str) -> str | None:
    """Why ``name`` parses differently from pycparser, or None."""
    source, filename = SOURCES[name], f"{name}.c"
    sink = DiagnosticSink(strict=False)
    ours = parse_source(source, filename=filename, sink=sink)
    syntax = [d for d in sink.diagnostics if d.code == "RPR-S001"]
    try:
        ext, functions, _ = _pycparser_parse(source, filename)
    except pycparser.c_parser.ParseError:
        # pycparser rejects it: so must we, with a located RPR-S001
        if syntax and all(d.span and d.span.line >= 1 for d in syntax):
            return None
        return "pycparser rejects it, we do not"
    if syntax:
        return f"we reject it: {syntax[0].message}"
    if _dump(ours.ast.ext) != _dump(_convert(ext)):
        return "trees differ"
    if list(ours.functions) != list(functions):
        return "functions differ"
    theirs = _assert_conditions(list(functions.values()), [])
    mine = _assert_conditions(list(ours.functions.values()), [])
    if [parser.expr_text(c) for c in mine] != [_CGEN.visit(c)
                                               for c in theirs]:
        return "assertion texts differ"
    return None


def test_trees_match_pycparser():
    mismatches = {name: why for name in sorted(SOURCES)
                  if (why := _tree_mismatch(name)) is not None}
    assert mismatches == {}


def test_lowered_ir_matches_pycparser_tree():
    """Lowering the converted pycparser tree gives the same canonical IR."""
    differ = []
    for name in sorted(SOURCES):
        source, filename = SOURCES[name], f"{name}.c"
        try:
            _, functions, pre = _pycparser_parse(source, filename)
        except pycparser.c_parser.ParseError:
            continue
        theirs = ParsedSource(ast=parser.FileAST([]), preprocessed=pre,
                              filename=filename,
                              functions={n: _convert(fd)
                                         for n, fd in functions.items()})
        ours = parse_source(source, filename=filename,
                            sink=DiagnosticSink(strict=False))
        for fname, func_def in theirs.functions.items():
            if (_lower_text(ours, ours.functions[fname])
                    != _lower_text(theirs, func_def)):
                differ.append(f"{name}:{fname}")
    assert differ == []


def _lower_text(parsed, func_def):
    sink = DiagnosticSink(strict=False)
    try:
        func = FunctionLowerer(parsed, func_def, sink=sink).lower()
    except Exception as exc:  # the same failure on both sides is a match
        return ("raised", type(exc).__name__, str(exc))
    return func.canonical_text(), sink.to_dicts()


def test_trees_match_under_defines():
    source = SOURCES["tdes"]
    for defines in ({"NDEBUG": ""}, {"NABORT": ""}):
        ours = parse_source(source, filename="tdes.c", defines=defines)
        ext, _, _ = _pycparser_parse(source, "tdes.c", defines)
        assert _dump(ours.ast.ext) == _dump(_convert(ext)), defines


EXPRESSIONS = (
    "(a < b) == 1", "(x[i + 1] >> 2) & 3", "a - (b - c)", "c ? 1 : 2",
    "a = b = c", "-(a + b) * ~c", "!(a && b) || a[b[c]]", "f(a, (b, c))",
    "(uint8) (a + 1)", "(const uint32 *) a", "sizeof(uint16 [4])",
    "sizeof a++", "x++ + --y", "a ? b , c : d", "'\\n' + 0x1Fu + 10L",
)


def test_expr_text_matches_cgenerator():
    for expr in EXPRESSIONS:
        source = (f"void f(co_stream s) {{ uint32 a, b, c, x, y; "
                  f"uint32 d[2]; assert({expr}); }}")
        ours = parse_source(source, sink=DiagnosticSink(strict=False))
        _, functions, _ = _pycparser_parse(source, "<source>")
        [mine] = _assert_conditions(list(ours.functions.values()), [])
        [theirs] = _assert_conditions(list(functions.values()), [])
        assert parser.expr_text(mine) == _CGEN.visit(theirs), expr
        assert _dump(mine) == _dump(_convert(theirs)), expr
