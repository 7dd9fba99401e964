"""pycparser-based parser for the synthesizable C dialect.

Pipeline: :func:`repro.frontend.cpp.preprocess` → prolog injection
(typedefs for the ``intN``/``uintN`` and ``co_stream`` names the source
uses, so pycparser's lexer classifies them as type names) →
``pycparser.CParser``.

The prolog holds only the dialect names that occur in the preprocessed
text. pycparser consults its typedef table only for identifier tokens
that appear in the input, so a typedef for an absent name cannot change
the AST, the coordinates or the diagnostics — and parsing all 129 would
cost about as much as parsing a whole small process.

The prolog is followed by a ``#line`` marker resetting coordinates, so all
AST coordinates refer to the user's original source — assertion error codes
(file name + line number) must match the unpreprocessed file exactly, as in
ANSI-C ``assert``.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

import pycparser
from pycparser import c_ast

from repro.diagnostics.sink import DiagnosticSink
from repro.diagnostics.span import Span
from repro.errors import ParseError
from repro.frontend import ctypes_
from repro.frontend.cpp import PreprocessResult, preprocess

#: Type name used for stream-typed parameters in dialect sources.
STREAM_TYPE_NAME = "co_stream"


_PROLOG_NAMES = frozenset(ctypes_.all_dialect_typedef_names()) | {
    STREAM_TYPE_NAME}
#: candidate prolog names; no left boundary, so every identifier token
#: pycparser can see is found (over-matches like ``x_int8`` are harmless)
_PROLOG_NAME_RE = re.compile(r"(?:u?int\d+|co_stream)(?!\w)")


def _build_prolog(text: str) -> str:
    # The underlying builtin chosen here is irrelevant; only the typedef
    # *name* matters to the lexer, and our own type table supplies widths.
    used = _PROLOG_NAMES.intersection(_PROLOG_NAME_RE.findall(text))
    return "\n".join(f"typedef int {name};" for name in sorted(used))


_PARSER = pycparser.CParser()
#: pycparser's generated LALR parser keeps mutable state on the instance
#: (symbol stack, lexer position), so concurrent parses through the shared
#: instance corrupt each other. The serve daemon synthesizes on a thread
#: pool; serializing just the parse step keeps it correct — with the
#: trimmed prolog the lock is held about 2 ms per small process.
_PARSER_LOCK = threading.Lock()


@dataclass
class ParsedSource:
    """A parsed translation unit plus preprocessing facts."""

    ast: c_ast.FileAST
    preprocessed: PreprocessResult
    filename: str
    functions: dict[str, c_ast.FuncDef] = field(default_factory=dict)

    @property
    def ndebug(self) -> bool:
        return self.preprocessed.ndebug

    @property
    def nabort(self) -> bool:
        return self.preprocessed.nabort


def parse_source(
    source: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
    sink: DiagnosticSink | None = None,
) -> ParsedSource:
    """Parse dialect C ``source`` into a :class:`ParsedSource`.

    ``defines`` seeds preprocessor macros — pass ``{"NDEBUG": ""}`` to
    compile assertions out, ``{"NABORT": ""}`` for report-and-continue.
    With a collect-mode ``sink``, recoverable problems (preprocessor
    directives, duplicate definitions) are reported and skipped; a
    pycparser syntax error is unrecoverable either way but still gets a
    real :class:`Span` parsed out of the ``file:line:col`` message prefix.
    """
    sink = sink if sink is not None else DiagnosticSink(strict=True)
    pre = preprocess(source, defines=defines, filename=filename, sink=sink)
    full = f'{_build_prolog(pre.text)}\n#line 1 "{filename}"\n{pre.text}'
    try:
        with _PARSER_LOCK:
            ast = _PARSER.parse(full, filename=filename)
    except Exception as exc:  # pycparser's ParseError module moved across
        # releases (plyparser -> c_parser); match by name to stay compatible
        if type(exc).__name__ != "ParseError":
            raise
        # pycparser formats errors as "file:line:col: message"; recover the
        # coordinates into a Span instead of burying them in the text
        span, message = Span.parse_prefix(str(exc))
        err = ParseError(message or str(exc), code="RPR-S001", span=span)
        err.__cause__ = exc
        sink.capture(err)
        # syntax errors leave no AST to walk — return an empty unit so
        # collect-mode callers still get the preprocessor diagnostics
        return ParsedSource(ast=c_ast.FileAST(ext=[]), preprocessed=pre,
                            filename=filename)

    parsed = ParsedSource(ast=ast, preprocessed=pre, filename=filename)
    for ext in ast.ext:
        if isinstance(ext, c_ast.FuncDef):
            name = ext.decl.name
            if name in parsed.functions:
                first = parsed.functions[name]
                sink.capture(ParseError(
                    f"duplicate function definition {name!r}",
                    code="RPR-S002",
                    span=span_of(ext.decl),
                    notes=(f"first defined at {span_of(first.decl)}",),
                ))
                continue  # keep the first definition, skip the duplicate
            parsed.functions[name] = ext
    return parsed


def declared_type_name(decl: c_ast.Decl) -> str:
    """Extract the scalar/array element type spelling from a declaration."""
    node = decl.type
    while isinstance(node, (c_ast.ArrayDecl, c_ast.PtrDecl)):
        node = node.type
    if isinstance(node, c_ast.TypeDecl) and isinstance(node.type, c_ast.IdentifierType):
        return " ".join(node.type.names)
    raise ParseError(f"unsupported declaration shape for {decl.name!r}",
                     code="RPR-S003", span=span_of(decl))


def coord_of(node: c_ast.Node) -> tuple[str, int]:
    """(filename, line) for a node; (``"?"``, 0) when pycparser lacks it."""
    coord = getattr(node, "coord", None)
    if coord is None:
        return ("?", 0)
    return (coord.file or "?", coord.line or 0)


def span_of(node: c_ast.Node) -> Span | None:
    """Full :class:`Span` (incl. column) for a node, or None if unknown."""
    coord = getattr(node, "coord", None)
    if coord is None:
        return None
    return Span.from_coord(coord)
