"""In-tree parser for the synthesizable C dialect.

Pipeline: :func:`repro.frontend.cpp.preprocess` → one compiled-regex
tokenizer → recursive descent for declarations and statements, with
precedence climbing for expressions.

The parser accepts exactly the dialect (integer types, ``intN``/``uintN``
and ``co_stream`` type names, arrays, the C statements and operators)
plus the constructs :mod:`repro.frontend.lowering` turns into coded
diagnostics (``goto``/labels/``switch``, ``float``, pointers, non-dialect
calls), so those keep their RPR-L/RPR-T codes. Syntax outside the dialect
(``struct``/``union``/``enum``, parenthesized declarators, designated
initializers, compound literals, K&R definitions, ...) is a syntax error.

Nodes are small ``__slots__`` classes whose field names and tree shape
follow the classic C AST layout (``Decl.type``/``init``, ``TypeDecl``
under ``ArrayDecl``/``PtrDecl``, ``FuncCall.name``/``args``, ...). Each
carries the 1-based ``line`` and ``col`` of the token that starts it
(0 for the few implicit nodes with no token); the preprocessor keeps
line numbering, so these refer to the user's original source — assertion
error codes (file name + line number) must match the unpreprocessed file
exactly, as in ANSI-C ``assert``.

Every syntax error is an ``RPR-S001`` diagnostic with a span. In collect
mode the parser recovers at the next ``;`` or ``}`` and keeps going; a
function that had a syntax error is left out of
:attr:`ParsedSource.functions`, so lowering reports nothing spurious for
it. Parsing is stateless per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.diagnostics.sink import DiagnosticSink
from repro.diagnostics.span import Span
from repro.errors import ParseError
from repro.frontend import ctypes_
from repro.frontend.cpp import PreprocessResult, preprocess

#: Type name used for stream-typed parameters in dialect sources.
STREAM_TYPE_NAME = "co_stream"

# ---- AST nodes ---------------------------------------------------------------


class Node:
    """Base of every AST node: ``_fields`` names the non-location slots."""

    __slots__ = ("line", "col")
    _fields: tuple[str, ...] = ()


class FileAST(Node):
    __slots__ = _fields = ("ext",)

    def __init__(self, ext, line=0, col=0):
        self.ext, self.line, self.col = ext, line, col


class FuncDef(Node):
    __slots__ = _fields = ("decl", "param_decls", "body")

    def __init__(self, decl, param_decls, body, line=0, col=0):
        self.decl, self.param_decls, self.body = decl, param_decls, body
        self.line, self.col = line, col


class Decl(Node):
    __slots__ = _fields = ("name", "quals", "storage", "funcspec", "type",
                           "init")

    def __init__(self, name, quals, storage, funcspec, type, init,
                 line=0, col=0):
        self.name, self.quals, self.storage = name, quals, storage
        self.funcspec, self.type, self.init = funcspec, type, init
        self.line, self.col = line, col


class Typedef(Node):
    __slots__ = _fields = ("name", "quals", "storage", "type")

    def __init__(self, name, quals, storage, type, line=0, col=0):
        self.name, self.quals, self.storage, self.type = (
            name, quals, storage, type)
        self.line, self.col = line, col


class Typename(Node):
    __slots__ = _fields = ("name", "quals", "type")

    def __init__(self, name, quals, type, line=0, col=0):
        self.name, self.quals, self.type = name, quals, type
        self.line, self.col = line, col


class TypeDecl(Node):
    __slots__ = _fields = ("declname", "quals", "type")

    def __init__(self, declname, quals, type, line=0, col=0):
        self.declname, self.quals, self.type = declname, quals, type
        self.line, self.col = line, col


class ArrayDecl(Node):
    __slots__ = _fields = ("type", "dim")

    def __init__(self, type, dim, line=0, col=0):
        self.type, self.dim, self.line, self.col = type, dim, line, col


class PtrDecl(Node):
    __slots__ = _fields = ("quals", "type")

    def __init__(self, quals, type, line=0, col=0):
        self.quals, self.type, self.line, self.col = quals, type, line, col


class FuncDecl(Node):
    __slots__ = _fields = ("args", "type")

    def __init__(self, args, type, line=0, col=0):
        self.args, self.type, self.line, self.col = args, type, line, col


class ParamList(Node):
    __slots__ = _fields = ("params",)

    def __init__(self, params, line=0, col=0):
        self.params, self.line, self.col = params, line, col


class IdentifierType(Node):
    __slots__ = _fields = ("names",)

    def __init__(self, names, line=0, col=0):
        self.names, self.line, self.col = names, line, col


class Compound(Node):
    __slots__ = _fields = ("block_items",)

    def __init__(self, block_items, line=0, col=0):
        self.block_items, self.line, self.col = block_items, line, col


class DeclList(Node):
    __slots__ = _fields = ("decls",)

    def __init__(self, decls, line=0, col=0):
        self.decls, self.line, self.col = decls, line, col


class If(Node):
    __slots__ = _fields = ("cond", "iftrue", "iffalse")

    def __init__(self, cond, iftrue, iffalse, line=0, col=0):
        self.cond, self.iftrue, self.iffalse = cond, iftrue, iffalse
        self.line, self.col = line, col


class While(Node):
    __slots__ = _fields = ("cond", "stmt")

    def __init__(self, cond, stmt, line=0, col=0):
        self.cond, self.stmt, self.line, self.col = cond, stmt, line, col


class DoWhile(Node):
    __slots__ = _fields = ("cond", "stmt")

    def __init__(self, cond, stmt, line=0, col=0):
        self.cond, self.stmt, self.line, self.col = cond, stmt, line, col


class For(Node):
    __slots__ = _fields = ("init", "cond", "next", "stmt")

    def __init__(self, init, cond, next, stmt, line=0, col=0):
        self.init, self.cond, self.next, self.stmt = init, cond, next, stmt
        self.line, self.col = line, col


class Switch(Node):
    __slots__ = _fields = ("cond", "stmt")

    def __init__(self, cond, stmt, line=0, col=0):
        self.cond, self.stmt, self.line, self.col = cond, stmt, line, col


class Case(Node):
    __slots__ = _fields = ("expr", "stmts")

    def __init__(self, expr, stmts, line=0, col=0):
        self.expr, self.stmts, self.line, self.col = expr, stmts, line, col


class Default(Node):
    __slots__ = _fields = ("stmts",)

    def __init__(self, stmts, line=0, col=0):
        self.stmts, self.line, self.col = stmts, line, col


class Label(Node):
    __slots__ = _fields = ("name", "stmt")

    def __init__(self, name, stmt, line=0, col=0):
        self.name, self.stmt, self.line, self.col = name, stmt, line, col


class Goto(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name, line=0, col=0):
        self.name, self.line, self.col = name, line, col


class Break(Node):
    __slots__ = ()

    def __init__(self, line=0, col=0):
        self.line, self.col = line, col


class Continue(Node):
    __slots__ = ()

    def __init__(self, line=0, col=0):
        self.line, self.col = line, col


class EmptyStatement(Node):
    __slots__ = ()

    def __init__(self, line=0, col=0):
        self.line, self.col = line, col


class Return(Node):
    __slots__ = _fields = ("expr",)

    def __init__(self, expr, line=0, col=0):
        self.expr, self.line, self.col = expr, line, col


class Pragma(Node):
    __slots__ = _fields = ("string",)

    def __init__(self, string, line=0, col=0):
        self.string, self.line, self.col = string, line, col


class Assignment(Node):
    __slots__ = _fields = ("op", "lvalue", "rvalue")

    def __init__(self, op, lvalue, rvalue, line=0, col=0):
        self.op, self.lvalue, self.rvalue = op, lvalue, rvalue
        self.line, self.col = line, col


class BinaryOp(Node):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op, left, right, line=0, col=0):
        self.op, self.left, self.right = op, left, right
        self.line, self.col = line, col


class UnaryOp(Node):
    __slots__ = _fields = ("op", "expr")

    def __init__(self, op, expr, line=0, col=0):
        self.op, self.expr, self.line, self.col = op, expr, line, col


class TernaryOp(Node):
    __slots__ = _fields = ("cond", "iftrue", "iffalse")

    def __init__(self, cond, iftrue, iffalse, line=0, col=0):
        self.cond, self.iftrue, self.iffalse = cond, iftrue, iffalse
        self.line, self.col = line, col


class Cast(Node):
    __slots__ = _fields = ("to_type", "expr")

    def __init__(self, to_type, expr, line=0, col=0):
        self.to_type, self.expr, self.line, self.col = to_type, expr, line, col


class FuncCall(Node):
    __slots__ = _fields = ("name", "args")

    def __init__(self, name, args, line=0, col=0):
        self.name, self.args, self.line, self.col = name, args, line, col


class ArrayRef(Node):
    __slots__ = _fields = ("name", "subscript")

    def __init__(self, name, subscript, line=0, col=0):
        self.name, self.subscript = name, subscript
        self.line, self.col = line, col


class StructRef(Node):
    __slots__ = _fields = ("name", "type", "field")

    def __init__(self, name, type, field, line=0, col=0):
        self.name, self.type, self.field = name, type, field
        self.line, self.col = line, col


class ID(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name, line=0, col=0):
        self.name, self.line, self.col = name, line, col


class Constant(Node):
    __slots__ = _fields = ("type", "value")

    def __init__(self, type, value, line=0, col=0):
        self.type, self.value, self.line, self.col = type, value, line, col


class ExprList(Node):
    __slots__ = _fields = ("exprs",)

    def __init__(self, exprs, line=0, col=0):
        self.exprs, self.line, self.col = exprs, line, col


class InitList(Node):
    __slots__ = _fields = ("exprs",)

    def __init__(self, exprs, line=0, col=0):
        self.exprs, self.line, self.col = exprs, line, col


# ---- tokenizer ---------------------------------------------------------------

#: integer suffixes: at most one ``u`` and one ``l``/``ll``, in either order
_SUFFIX = r"(?:[uU]ll|[uU]LL|ll[uU]?|LL[uU]?|[uU][lL]|[lL][uU]?|[uU])?"
_ESCAPE = (r"\\(?:[a-wyzA-Z._~!=&^\-\\?'\"]|x(?![0-9a-fA-F])|\d+(?!\d)"
           r"|x[0-9a-fA-F]+(?![0-9a-fA-F]))")
#: one alternation, tried in order (the common kinds first); ``bad``
#: catches whatever nothing else lexes, so the parser reports it where it
#: stands
_TOKEN_RE = re.compile(rf"""
    (?P<id>[A-Za-z_$][0-9A-Za-z_$]*)
  | (?P<op>\.\.\.|<<=|>>=|->|\+\+|--|&&|\|\||<<|>>|<=|>=|==|!=
          |[-+*/%&|^]=|[-+*/%&|^~!<>=?()\[\]{{}},;:]|\.(?![0-9]))
  | (?P<ws>[ \t]+) | (?P<nl>\n)
  | (?P<float>(?:(?:[0-9]*\.[0-9]+|[0-9]+\.)(?:[eE][-+]?[0-9]+)?
               |[0-9]+[eE][-+]?[0-9]+)[FfLl]?)
  | (?P<hex>0[xX][0-9a-fA-F]+{_SUFFIX}|0[bB][01]+{_SUFFIX})
  | (?P<badoct>0[0-7]*[89])
  | (?P<int>0[0-7]*{_SUFFIX}|[1-9][0-9]*{_SUFFIX})
  | (?P<char>'(?:[^'\\\n]|{_ESCAPE})')
  | (?P<string>"(?:[^"\\\n]|\\[0-9a-zA-Z._~!=&^\-\\?'"])*")
  | (?P<pragma>\#[ \t]*(?P<pword>pragma)(?=\W)[ \t]*(?P<ptext>[^\n]*))
  | (?P<badchar>'[^'\n]*'?)
  | (?P<bad>.)
""", re.VERBOSE)

_KIND_OF_GROUP = {"float": "FLOAT", "hex": "INT", "int": "INT",
                  "char": "CHAR", "string": "STRING",
                  "badoct": "BAD", "badchar": "BAD", "bad": "BAD"}

_TYPE_KEYWORDS = frozenset({"void", "_Bool", "char", "short", "int", "long",
                            "float", "double", "signed", "unsigned"})
_QUALIFIERS = frozenset({"const", "volatile", "restrict"})
_STORAGE = frozenset({"auto", "register", "static", "extern", "typedef"})
#: keywords of C that the dialect has no syntax for
_UNSUPPORTED = frozenset({
    "struct", "union", "enum", "_Complex", "__int128", "_Noreturn",
    "_Thread_local", "_Static_assert", "_Atomic", "_Alignof", "_Alignas",
    "_Pragma", "offsetof"})
_KEYWORDS = (_TYPE_KEYWORDS | _QUALIFIERS | _STORAGE | _UNSUPPORTED | {
    "inline", "if", "else", "while", "do", "for", "switch", "case",
    "default", "goto", "break", "continue", "return", "sizeof"})
_DECL_START = _TYPE_KEYWORDS | _QUALIFIERS | _STORAGE | _UNSUPPORTED | {
    "inline"}

#: identifiers that name a type without a typedef in the source
_TYPE_NAMES = frozenset(ctypes_.all_dialect_typedef_names()) | {
    STREAM_TYPE_NAME}

_EOF = "EOF"


def _tokenize(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """(kinds, texts, lines, cols) of every token, ending in one ``EOF``.

    A kind is the token text for keywords and punctuators, else one of
    ``ID INT FLOAT CHAR STRING PRAGMA BAD``.
    """
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        start = m.start()
        if group == "id":
            value = m.group()
            kinds.append(value if value in _KEYWORDS else "ID")
        elif group == "op":
            value = m.group()
            kinds.append(value)
        elif group == "ws":
            continue
        elif group == "nl":
            line += 1
            line_start = m.end()
            continue
        elif group == "pragma":
            # the node sits at the pragma's text, or at the word when bare
            value = m.group("ptext")
            if value:
                start = m.start("ptext")
            else:
                start = m.start("pword")
            kinds.append("PRAGMA")
        else:
            value = m.group()
            kinds.append(_KIND_OF_GROUP[group])
        texts.append(value)
        lines.append(line)
        cols.append(start - line_start + 1)
    kinds.append(_EOF)
    texts.append("")
    lines.append(line)
    cols.append(len(text) - line_start + 1)
    return kinds, texts, lines, cols


# ---- parser -------------------------------------------------------------------

_ASSIGN_OPS = frozenset({"=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=",
                         "&=", "^=", "|="})
#: binary operator binding strength (higher binds tighter)
_PREC = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
         ">": 6, ">=": 6, "<": 6, "<=": 6, ">>": 7, "<<": 7,
         "+": 8, "-": 8, "*": 9, "/": 9, "%": 9}
_UNARY_OPS = frozenset({"&", "*", "+", "-", "~", "!"})
_STMT_START = frozenset({"{", "if", "switch", "while", "do", "for", "goto",
                         "break", "continue", "return", "case", "default",
                         "PRAGMA", ";"})
_EXPR_START = frozenset({"ID", "INT", "FLOAT", "CHAR", "STRING", "(", "++",
                         "--", "sizeof"}) | _UNARY_OPS
#: tokens that start a cast or a prefix operator, and that may follow a
#: primary expression
_PREFIX_START = frozenset({"(", "++", "--", "sizeof"}) | _UNARY_OPS
_POSTFIX_START = frozenset({"[", "(", ".", "->", "++", "--"})


class _SyntaxError(Exception):
    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.message = message
        self.index = index


class _Spec:
    """Declaration specifiers: qualifiers, storage, type names."""

    __slots__ = ("quals", "storage", "funcspec", "names", "line", "col",
                 "type_line", "type_col")

    def __init__(self) -> None:
        self.quals: list[str] = []
        self.storage: list[str] = []
        self.funcspec: list[str] = []
        self.names: list[str] = []
        self.line = self.col = self.type_line = self.type_col = 0


def _modify(decl: Node, modifier: Node) -> Node:
    """Attach ``modifier`` (an array/function/pointer chain) just above the
    declarator's innermost :class:`TypeDecl`, as C declarator syntax nests."""
    tail = modifier
    while tail.type is not None:
        tail = tail.type
    if isinstance(decl, TypeDecl):
        tail.type = decl
        return modifier
    inner = decl
    while not isinstance(inner.type, TypeDecl):
        inner = inner.type
    tail.type = inner.type
    inner.type = modifier
    return decl


def _innermost(declarator: Node) -> TypeDecl:
    while not isinstance(declarator, TypeDecl):
        declarator = declarator.type
    return declarator


class _Parser:
    def __init__(self, text: str, filename: str, sink: DiagnosticSink) -> None:
        self.kinds, self.texts, self.lines, self.cols = _tokenize(text)
        self.pos = 0
        self.filename = filename
        self.sink = sink
        #: innermost last; name -> names a type, only for names whose
        #: meaning a declaration changed (typedefs, shadowed type names)
        self.scopes: list[dict[str, bool]] = [{}]
        self.shadowed = False  # any scope entry yet; most units have none
        self.errors = 0

    # ---- errors and recovery ------------------------------------------------

    def _fail(self, what: str) -> _SyntaxError:
        """A syntax error at the current token, which is not ``what``."""
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "BAD":
            if text.startswith("#"):
                message = "preprocessor directives are not allowed here"
            elif text.startswith("'"):
                message = f"invalid character constant {text}"
            elif text[0].isdigit():
                message = f"invalid octal constant {text!r}"
            else:
                message = f"illegal character {text!r}"
        elif kind == _EOF:
            message = f"expected {what} at end of input"
        elif kind in _UNSUPPORTED:
            message = f"'{kind}' is not part of the synthesizable dialect"
        else:
            message = f"expected {what} before '{text}'"
        return _SyntaxError(message, i)

    def _report(self, err: _SyntaxError) -> None:
        self.errors += 1
        i = err.index
        col = self.cols[i]
        span = Span(file=self.filename or "<source>", line=self.lines[i],
                    col=col, end_col=col + max(len(self.texts[i]), 1))
        self.sink.capture(ParseError(err.message, code="RPR-S001", span=span))

    def _skip(self, top: bool) -> None:
        """Skip past the broken statement: through the next ``;`` or
        balanced ``{...}``, stopping before a ``}`` that closes an enclosing
        block (a stray one at file scope is consumed)."""
        kinds = self.kinds
        depth = 0
        while True:
            kind = kinds[self.pos]
            if kind == _EOF:
                return
            if kind == "{":
                depth += 1
            elif kind == "}":
                if depth == 0:
                    if top:
                        self.pos += 1
                    return
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return
            elif kind == ";" and depth == 0:
                self.pos += 1
                return
            self.pos += 1

    def _expect(self, kind: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self._fail(f"'{kind}'")
        self.pos = i + 1
        return i

    # ---- names ---------------------------------------------------------------

    def _is_type(self, name: str) -> bool:
        if self.shadowed:
            for scope in reversed(self.scopes):
                if name in scope:
                    return scope[name]
        return name in _TYPE_NAMES

    def _declare(self, name: str, is_type: bool) -> None:
        if self._is_type(name) != is_type:
            self.scopes[-1][name] = is_type
            self.shadowed = True

    def _starts_decl(self, i: int) -> bool:
        kind = self.kinds[i]
        if kind == "ID":
            return self._is_type(self.texts[i])
        return kind in _DECL_START

    # ---- translation unit ----------------------------------------------------

    def unit(self) -> list[Node]:
        ext: list[Node] = []
        while self.kinds[self.pos] != _EOF:
            errors = self.errors
            try:
                nodes = self._external()
            except _SyntaxError as err:
                self._report(err)
                del self.scopes[1:]
                self._skip(top=True)
                continue
            if self.errors == errors:  # drop a function with a syntax error
                ext.extend(nodes)
        return ext

    def _external(self) -> list[Node]:
        kind = self.kinds[self.pos]
        if kind == "PRAGMA":
            return [self._pragma()]
        if kind == ";":
            self.pos += 1
            return []
        if not self._starts_decl(self.pos):
            raise self._fail("a declaration")
        spec = self._specifiers()
        if not spec.names:
            raise self._fail("a type name")
        declarator = self._declarator()
        if isinstance(declarator, FuncDecl) and self.kinds[self.pos] == "{":
            decl = self._decl(spec, declarator, None)
            params = declarator.args.params if declarator.args else ()
            body = self._compound(params)
            return [FuncDef(decl, None, body, decl.line, decl.col)]
        return self._init_declarators(spec, declarator)

    # ---- declarations ----------------------------------------------------------

    def _specifiers(self) -> _Spec:
        kinds, texts = self.kinds, self.texts
        spec = _Spec()
        while True:
            i = self.pos
            kind = kinds[i]
            if kind in _QUALIFIERS:
                spec.quals.append(kind)
            elif kind in _STORAGE:
                spec.storage.append(kind)
            elif kind == "inline":
                spec.funcspec.append(kind)
            elif kind in _TYPE_KEYWORDS or (
                    kind == "ID" and not spec.names
                    and self._is_type(texts[i])):
                if not spec.names:
                    spec.type_line, spec.type_col = self.lines[i], self.cols[i]
                spec.names.append(texts[i])
            elif kind in _UNSUPPORTED:
                raise self._fail("a type")
            else:
                return spec
            if not spec.line:
                spec.line, spec.col = self.lines[i], self.cols[i]
            self.pos = i + 1

    def _declaration(self) -> list[Node]:
        """A block-scope declaration, through its ``;``."""
        spec = self._specifiers()
        if not spec.names:
            raise self._fail("a type name")
        return self._init_declarators(spec, self._declarator())

    def _init_declarators(self, spec: _Spec, first: Node) -> list[Node]:
        decls = []
        declarator = first
        while True:
            init = None
            if self.kinds[self.pos] == "=":
                self.pos += 1
                init = self._initializer()
            decls.append(self._decl(spec, declarator, init, declare=True))
            if self.kinds[self.pos] != ",":
                break
            self.pos += 1
            declarator = self._declarator()
        self._expect(";")
        return decls

    def _decl(self, spec: _Spec, declarator: Node, init, declare=False):
        """Build the Decl (or Typedef) for one declarator of ``spec``."""
        inner = _innermost(declarator)
        inner.quals = list(spec.quals)
        inner.type = IdentifierType(list(spec.names), spec.type_line,
                                    spec.type_col)
        name = inner.declname
        if "typedef" in spec.storage:
            if declare:
                self._declare(name, True)
            return Typedef(name, spec.quals, spec.storage, declarator,
                           declarator.line, declarator.col)
        if declare:
            self._declare(name, False)
        return Decl(name, spec.quals, spec.storage, spec.funcspec, declarator,
                    init, declarator.line, declarator.col)

    def _declarator(self, name: bool | None = True) -> Node:
        """``*``-prefixed name with ``[dim]``/``(params)`` suffixes. The
        name is required (``True``), optional (``None``: parameters) or
        absent (``False``: the abstract declarator of a type name)."""
        kinds = self.kinds
        stars = []
        while kinds[self.pos] == "*":
            star = self.pos
            self.pos += 1
            quals = []
            while kinds[self.pos] in _QUALIFIERS:
                quals.append(kinds[self.pos])
                self.pos += 1
            stars.append(PtrDecl(quals, None, self.lines[star],
                                 self.cols[star]))
        i = self.pos
        named = kinds[i] == "ID" and name is not False
        if named:
            decl = TypeDecl(self.texts[i], None, None, self.lines[i],
                            self.cols[i])
            self.pos = i + 1
        elif name:
            raise self._fail("an identifier")
        else:
            decl = TypeDecl(None, None, None)
        while True:
            kind = kinds[self.pos]
            if kind == "[":
                decl = _modify(decl, self._array_suffix(decl))
            elif kind == "(" and named:
                decl = _modify(decl, self._params(decl))
            else:
                break
        if stars:
            ptr = None
            for star in stars:  # the last star is the outermost pointer
                star.type = ptr
                ptr = star
            decl = _modify(decl, ptr)
        return decl

    def _array_suffix(self, base: Node) -> ArrayDecl:
        lbrack = self._expect("[")
        dim = None
        if self.kinds[self.pos] != "]":
            dim = self._assignment()
        self._expect("]")
        if base.line:
            return ArrayDecl(None, dim, base.line, base.col)
        return ArrayDecl(None, dim, self.lines[lbrack], self.cols[lbrack])

    def _params(self, base: Node) -> FuncDecl:
        self._expect("(")
        args = None
        if self.kinds[self.pos] == ")":
            self.pos += 1
        else:
            params = [self._param()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                params.append(self._param())
            self._expect(")")
            args = ParamList(params, params[0].line, params[0].col)
        return FuncDecl(args, None, base.line, base.col)

    def _param(self) -> Node:
        if not self._starts_decl(self.pos):
            raise self._fail("a parameter declaration")
        spec = self._specifiers()
        if not spec.names:
            spec.names.append("int")
            spec.type_line, spec.type_col = spec.line, spec.col
        declarator = self._declarator(name=None)
        if _innermost(declarator).declname is not None:
            return self._decl(spec, declarator, None)
        return self._typename(spec, declarator, spec.line, spec.col)

    def _typename(self, spec: _Spec, declarator: Node, line: int,
                  col: int) -> Typename:
        inner = _innermost(declarator)
        inner.quals = list(spec.quals)
        inner.type = IdentifierType(list(spec.names), spec.type_line,
                                    spec.type_col)
        return Typename(None, list(spec.quals), declarator, line, col)

    def _type_name(self) -> Typename:
        """A cast's or ``sizeof``'s type: specifiers + abstract declarator."""
        spec = self._specifiers()
        if not spec.names:
            raise self._fail("a type name")
        declarator = self._declarator(name=False)
        if declarator.line:
            line, col = declarator.line, declarator.col
        else:
            line, col = spec.type_line, spec.type_col
        return self._typename(spec, declarator, line, col)

    def _initializer(self) -> Node:
        if self.kinds[self.pos] != "{":
            return self._assignment()
        lbrace = self.pos
        self.pos += 1
        if self.kinds[self.pos] == "}":
            self.pos += 1
            return InitList([], self.lines[lbrace], self.cols[lbrace])
        items = [self._initializer()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            if self.kinds[self.pos] == "}":
                break
            items.append(self._initializer())
        self._expect("}")
        return InitList(items, items[0].line, items[0].col)

    # ---- statements ------------------------------------------------------------

    def _compound(self, params=()) -> Compound:
        lbrace = self._expect("{")
        depth = len(self.scopes)
        self.scopes.append({})
        for param in params:
            if isinstance(param, Decl):
                self._declare(param.name, False)
        kinds = self.kinds
        items: list[Node] = []
        while kinds[self.pos] not in ("}", _EOF):
            try:
                if self._starts_decl(self.pos):
                    items.extend(self._declaration())
                else:
                    items.append(self._statement())
            except _SyntaxError as err:
                # recovery point: skip the broken statement, keep parsing
                # the rest of the block
                self._report(err)
                del self.scopes[depth + 1:]
                self._skip(top=False)
        del self.scopes[depth:]
        self._expect("}")
        return Compound(items or None, self.lines[lbrace], self.cols[lbrace])

    def _statement(self) -> Node:
        kinds = self.kinds
        i = self.pos
        kind = kinds[i]
        line, col = self.lines[i], self.cols[i]
        if kind == "ID":  # the common case: an expression statement
            if kinds[i + 1] == ":" and not self._is_type(self.texts[i]):
                self.pos = i + 2
                return Label(self.texts[i], self._labeled_body(i), line, col)
        elif kind == "{":
            return self._compound()
        elif kind == "if":
            self.pos += 1
            cond = self._paren_expression()
            iftrue = self._body()
            iffalse = None
            if kinds[self.pos] == "else":
                self.pos += 1
                iffalse = self._body()
            return If(cond, iftrue, iffalse, line, col)
        elif kind == "while":
            self.pos += 1
            cond = self._paren_expression()
            return While(cond, self._body(), line, col)
        elif kind == "do":
            self.pos += 1
            stmt = self._body()
            self._expect("while")
            cond = self._paren_expression()
            self._expect(";")
            return DoWhile(cond, stmt, line, col)
        elif kind == "for":
            return self._for()
        elif kind == "switch":
            self.pos += 1
            cond = self._paren_expression()
            return Switch(cond, self._body(), line, col)
        elif kind == "case":
            self.pos += 1
            expr = self._conditional()
            self._expect(":")
            return Case(expr, [self._labeled_body(i)], line, col)
        elif kind == "default":
            self.pos += 1
            self._expect(":")
            return Default([self._labeled_body(i)], line, col)
        elif kind == "goto":
            self.pos += 1
            name = self._expect("ID")
            self._expect(";")
            return Goto(self.texts[name], line, col)
        elif kind in ("break", "continue"):
            self.pos += 1
            self._expect(";")
            return Break(line, col) if kind == "break" else Continue(line, col)
        elif kind == "return":
            self.pos += 1
            expr = None
            if kinds[self.pos] != ";":
                expr = self._expression()
            self._expect(";")
            return Return(expr, line, col)
        elif kind == "PRAGMA":
            return self._pragma()
        elif kind == ";":
            self.pos += 1
            return EmptyStatement(line, col)
        expr = self._expression()
        self._expect(";")
        return expr

    def _labeled_body(self, label: int) -> Node:
        """The statement after ``label:``; an empty one when a declaration
        or the closing ``}`` follows."""
        i = self.pos
        kind = self.kinds[i]
        if kind in _STMT_START or (kind in _EXPR_START and not (
                kind == "ID" and self._is_type(self.texts[i]))):
            return self._body()
        return EmptyStatement(self.lines[label], self.cols[label])

    def _body(self) -> Node:
        """A loop/branch body; leading pragmas wrap it in a Compound."""
        if self.kinds[self.pos] != "PRAGMA":
            return self._statement()
        pragmas = []
        while self.kinds[self.pos] == "PRAGMA":
            pragmas.append(self._pragma())
        pragmas.append(self._statement())
        return Compound(pragmas, pragmas[0].line, pragmas[0].col)

    def _pragma(self) -> Pragma:
        i = self.pos
        self.pos = i + 1
        return Pragma(self.texts[i], self.lines[i], self.cols[i])

    def _for(self) -> For:
        i = self.pos
        self.pos += 1
        self._expect("(")
        if self._starts_decl(self.pos):
            init = DeclList(self._declaration(), self.lines[i], self.cols[i])
        else:
            init = self._optional_expression()
            self._expect(";")
        cond = self._optional_expression()
        self._expect(";")
        step = None
        if self.kinds[self.pos] != ")":
            step = self._expression()
        self._expect(")")
        return For(init, cond, step, self._body(), self.lines[i], self.cols[i])

    def _optional_expression(self) -> Node | None:
        if self.kinds[self.pos] == ";":
            return None
        return self._expression()

    def _paren_expression(self) -> Node:
        self._expect("(")
        expr = self._expression()
        self._expect(")")
        return expr

    # ---- expressions -----------------------------------------------------------

    def _expression(self) -> Node:
        expr = self._assignment()
        if self.kinds[self.pos] != ",":
            return expr
        exprs = [expr]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            exprs.append(self._assignment())
        return ExprList(exprs, expr.line, expr.col)

    def _assignment(self) -> Node:
        expr = self._conditional()
        op = self.kinds[self.pos]
        if op in _ASSIGN_OPS:
            self.pos += 1
            return Assignment(op, expr, self._assignment(), expr.line,
                              expr.col)
        return expr

    def _conditional(self) -> Node:
        expr = self._binary(0, self._cast())
        if self.kinds[self.pos] != "?":
            return expr
        self.pos += 1
        iftrue = self._expression()
        self._expect(":")
        return TernaryOp(expr, iftrue, self._conditional(), expr.line,
                         expr.col)

    def _binary(self, min_prec: int, lhs: Node) -> Node:
        """Precedence climbing over left-associative binary operators."""
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            prec = _PREC.get(op)
            if prec is None or prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self._cast()
            while True:
                next_prec = _PREC.get(kinds[self.pos])
                if next_prec is None or next_prec <= prec:
                    break
                rhs = self._binary(next_prec, rhs)
            lhs = BinaryOp(op, lhs, rhs, lhs.line, lhs.col)

    def _cast(self) -> Node:
        i = self.pos
        kind = self.kinds[i]
        if kind not in _PREFIX_START:
            return self._postfix()
        if kind == "(" and self._starts_decl(i + 1):
            self.pos = i + 1
            to_type = self._type_name()
            if self.kinds[self.pos] == ")":
                self.pos += 1
                if self.kinds[self.pos] == "{":
                    raise _SyntaxError("compound literals are not part of "
                                       "the synthesizable dialect", i)
                return Cast(to_type, self._cast(), self.lines[i], self.cols[i])
            self.pos = i  # not a cast after all
        return self._unary()

    def _unary(self) -> Node:
        i = self.pos
        kind = self.kinds[i]
        if kind in ("++", "--"):
            self.pos = i + 1
            expr = self._unary()
            return UnaryOp(kind, expr, expr.line, expr.col)
        if kind in _UNARY_OPS:
            self.pos = i + 1
            expr = self._cast()
            return UnaryOp(kind, expr, expr.line, expr.col)
        if kind == "sizeof":
            self.pos = i + 1
            if self.kinds[i + 1] == "(" and self._starts_decl(i + 2):
                self.pos = i + 2
                to_type = self._type_name()
                if self.kinds[self.pos] == ")":
                    self.pos += 1
                    return UnaryOp(kind, to_type, self.lines[i], self.cols[i])
                self.pos = i + 1
            return UnaryOp(kind, self._unary(), self.lines[i], self.cols[i])
        return self._postfix()

    def _postfix(self) -> Node:
        kinds = self.kinds
        expr = self._primary()
        if kinds[self.pos] not in _POSTFIX_START:
            return expr
        while True:
            kind = kinds[self.pos]
            if kind == "[":
                self.pos += 1
                sub = self._expression()
                self._expect("]")
                expr = ArrayRef(expr, sub, expr.line, expr.col)
            elif kind == "(":
                self.pos += 1
                args = None
                if kinds[self.pos] == ")":
                    self.pos += 1
                else:
                    first = self._assignment()
                    exprs = [first]
                    while kinds[self.pos] == ",":
                        self.pos += 1
                        exprs.append(self._assignment())
                    self._expect(")")
                    args = ExprList(exprs, first.line, first.col)
                expr = FuncCall(expr, args, expr.line, expr.col)
            elif kind in (".", "->"):
                self.pos += 1
                name = self._expect("ID")
                member = ID(self.texts[name], self.lines[name], self.cols[name])
                expr = StructRef(expr, kind, member, expr.line, expr.col)
            elif kind in ("++", "--"):
                self.pos += 1
                expr = UnaryOp("p" + kind, expr, expr.line, expr.col)
            else:
                return expr

    def _primary(self) -> Node:
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        line, col = self.lines[i], self.cols[i]
        if kind == "ID" and not self._is_type(text):
            self.pos = i + 1
            return ID(text, line, col)
        if kind == "INT":
            self.pos = i + 1
            if text[-1] not in "uUlL":
                return Constant("int", text, line, col)
            tail = text[-3:]
            unsigned = tail.count("u") + tail.count("U")
            longs = tail.count("l") + tail.count("L")
            return Constant("unsigned " * unsigned + "long " * longs + "int",
                            text, line, col)
        if kind == "CHAR":
            self.pos = i + 1
            return Constant("char", text, line, col)
        if kind == "FLOAT":
            self.pos = i + 1
            last = text[-1]
            ctype = ("float" if last in "fF" else
                     "long double" if last in "lL" else "double")
            return Constant(ctype, text, line, col)
        if kind == "STRING":
            self.pos = i + 1
            while self.kinds[self.pos] == "STRING":  # "a" "b" -> "ab"
                text = text[:-1] + self.texts[self.pos][1:]
                self.pos += 1
            return Constant("string", text, line, col)
        if kind == "(":
            self.pos = i + 1
            expr = self._expression()
            self._expect(")")
            return expr
        raise self._fail("an expression")


# ---- expression printer --------------------------------------------------------

#: nodes that bind tighter than any operator, so never need parentheses
_SIMPLE = (Constant, ID, ArrayRef, StructRef, FuncCall)


def expr_text(node: Node) -> str:
    """C text of an expression, as an assertion-failure message prints it.

    Every non-trivial operand is parenthesized (``(a < b) == 1``,
    ``a - (b - c)``) and a ternary has each of its three parts wrapped,
    so the text never depends on operator precedence.
    """
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, ID):
        return node.name
    if isinstance(node, BinaryOp):
        return f"{_operand(node.left)} {node.op} {_operand(node.right)}"
    if isinstance(node, UnaryOp):
        if node.op == "sizeof":
            return f"sizeof({expr_text(node.expr)})"
        if node.op in ("p++", "p--"):
            return _operand(node.expr) + node.op[1:]
        return node.op + _operand(node.expr)
    if isinstance(node, ArrayRef):
        return f"{_operand(node.name)}[{expr_text(node.subscript)}]"
    if isinstance(node, FuncCall):
        args = expr_text(node.args) if node.args is not None else ""
        return f"{_operand(node.name)}({args})"
    if isinstance(node, StructRef):
        return _operand(node.name) + node.type + expr_text(node.field)
    if isinstance(node, TernaryOp):
        return (f"({_nested(node.cond)}) ? ({_nested(node.iftrue)}) : "
                f"({_nested(node.iffalse)})")
    if isinstance(node, Cast):
        return f"({expr_text(node.to_type)}) {_operand(node.expr)}"
    if isinstance(node, Assignment):
        rvalue = _nested(node.rvalue)
        if isinstance(node.rvalue, Assignment):
            rvalue = f"({rvalue})"
        return f"{expr_text(node.lvalue)} {node.op} {rvalue}"
    if isinstance(node, (ExprList, InitList)):
        return ", ".join(_nested(e) for e in node.exprs)
    if isinstance(node, Typename):
        return _type_text(node.type)
    raise TypeError(f"not an expression: {type(node).__name__}")


def _nested(node: Node) -> str:
    """An expression inside another: lists get their brackets back."""
    if isinstance(node, InitList):
        return "{" + expr_text(node) + "}"
    if isinstance(node, ExprList):
        return "(" + expr_text(node) + ")"
    return expr_text(node)


def _operand(node: Node) -> str:
    text = _nested(node)
    return text if isinstance(node, _SIMPLE) else f"({text})"


def _type_text(node: Node) -> str:
    """An abstract declarator's C spelling, e.g. ``uint32 *`` or ``int [4]``."""
    modifiers = []
    while not isinstance(node, TypeDecl):
        modifiers.append(node)
        node = node.type
    text = " ".join([*node.quals, " ".join(node.type.names)])
    suffix = ""
    for i, mod in enumerate(modifiers):
        if isinstance(mod, ArrayDecl):
            if i and isinstance(modifiers[i - 1], PtrDecl):
                suffix = f"({suffix})"
            dim = expr_text(mod.dim) if mod.dim is not None else ""
            suffix += f"[{dim}]"
        elif mod.quals:
            suffix = f"* {' '.join(mod.quals)}" + (f" {suffix}" if suffix
                                                    else "")
        else:
            suffix = "*" + suffix
    return f"{text} {suffix}" if suffix else text


# ---- entry point ---------------------------------------------------------------


@dataclass
class ParsedSource:
    """A parsed translation unit plus preprocessing facts."""

    ast: FileAST
    preprocessed: PreprocessResult
    filename: str
    functions: dict[str, FuncDef] = field(default_factory=dict)

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
    directives, syntax errors, duplicate definitions) are reported and
    skipped; without one the first error raises.
    """
    sink = sink if sink is not None else DiagnosticSink(strict=True)
    pre = preprocess(source, defines=defines, filename=filename, sink=sink)
    ext = _Parser(pre.text, filename, sink).unit()
    parsed = ParsedSource(ast=FileAST(ext), preprocessed=pre,
                          filename=filename)
    for node in ext:
        if isinstance(node, FuncDef):
            name = node.decl.name
            if name in parsed.functions:
                first = parsed.functions[name]
                sink.capture(ParseError(
                    f"duplicate function definition {name!r}",
                    code="RPR-S002",
                    span=span_of(node.decl, filename),
                    notes=("first defined at "
                           f"{span_of(first.decl, filename)}",),
                ))
                continue  # keep the first definition, skip the duplicate
            parsed.functions[name] = node
    return parsed


def span_of(node: Node, filename: str) -> Span | None:
    """:class:`Span` (incl. column) of ``node`` in ``filename``, or None
    for an implicit node with no source token."""
    if not node.line:
        return None
    return Span(file=filename or "<source>", line=node.line, col=node.col)
