"""Minimal C preprocessor for the synthesizable dialect.

Supports the directives the paper's flow relies on:

* ``#define NAME [value]`` (object-like macros) and ``#undef``
* ``#ifdef`` / ``#ifndef`` / ``#else`` / ``#endif`` / ``#if defined(X)``
* ``#include "co.h"`` (resolved against a virtual header set; the dialect
  header only provides intrinsics already known to the parser, so inclusion
  is recorded and the line dropped)
* ``#pragma`` lines are passed through (the parser turns them into Pragma
  nodes; ``#pragma CO PIPELINE`` drives the pipeliner)

The two paper-specific knobs are ordinary macros:

* ``NDEBUG``  — defined: all assertions compile out (ANSI-C semantics).
* ``NABORT``  — defined: assertion failures are reported but do not halt
  the application (the paper's non-standard extension used for the hang
  trace in Section 5.1).

Line numbers are preserved exactly: disabled conditional regions are
replaced by blank lines rather than removed, so assertion error codes
(file/line) match the original source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.diagnostics.sink import DiagnosticSink
from repro.errors import PreprocessorError

_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*?)\s*$")
_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
_DEFINED_RE = re.compile(r"\bdefined\s*(?:\(\s*(\w+)\s*\)|(\w+))")
#: a line comment, or a block comment (group 1 set when it is closed)
_COMMENT_RE = re.compile(r"//[^\n]*|/\*(?:.*?(\*/)|.*)", re.DOTALL)

#: Headers the dialect knows about. Their contents are intrinsic to the
#: parser, so "including" them contributes no tokens.
KNOWN_HEADERS = {"co.h", "assert.h", "stdio.h", "stdlib.h", "stdint.h"}


@dataclass
class PreprocessResult:
    """Output of :func:`preprocess`."""

    text: str
    defines: dict[str, str]
    included: list[str] = field(default_factory=list)

    @property
    def ndebug(self) -> bool:
        return "NDEBUG" in self.defines

    @property
    def nabort(self) -> bool:
        return "NABORT" in self.defines


def _expand(line: str, defines: dict[str, str]) -> str:
    """Expand object-like macros in a line (single pass, then fixpoint).

    A macro defined empty (``#define NDEBUG``) is a flag and expands to
    nothing visible: its name is left in place.
    """
    if not any(defines.values()):
        return line  # no macro has replacement text
    for _ in range(16):  # bounded fixpoint; nested macros are shallow here
        new = _IDENT_RE.sub(lambda m: defines.get(m.group(0)) or m.group(0),
                            line)
        if new == line:
            return new
        line = new
    return line


def _eval_condition(expr: str, defines: dict[str, str], filename: str, lineno: int) -> bool:
    """Evaluate a ``#if`` condition. Supports ``defined(X)``, integers,
    macro names (expanding to their values), ``!``, ``&&``, ``||``,
    comparisons, and parentheses."""
    expr = _DEFINED_RE.sub(
        lambda m: "1" if (m.group(1) or m.group(2)) in defines else "0", expr
    )
    expr = _IDENT_RE.sub(
        lambda m: defines.get(m.group(0), "0") if m.group(0) not in ("0", "1") else m.group(0),
        expr,
    )
    expr = expr.replace("&&", " and ").replace("||", " or ").replace("!", " not ")
    expr = expr.replace("not =", "!=")  # restore != damaged by the replace
    if not re.fullmatch(r"[\d\s()<>=!*+/%-]+|.*\b(and|or|not)\b.*", expr):
        raise PreprocessorError(f"unsupported #if expression {expr!r}",
                                filename, lineno, code="RPR-P001")
    try:
        return bool(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - sanitized
    except Exception as exc:
        raise PreprocessorError(f"bad #if expression: {exc}", filename, lineno,
                                code="RPR-P002") from exc


def strip_comments(source: str) -> str:
    """Remove ``//`` and ``/* */`` comments, preserving line numbering.

    A block comment becomes its newlines plus one space; an unterminated
    one swallows the rest of the file but keeps its newlines, so
    diagnostics still point at real lines. The dialect has no string
    literals, so no quoting-awareness is needed; a comment delimiter
    inside a character constant is not supported.
    """
    return _COMMENT_RE.sub(_blank_comment, source)


def _blank_comment(m: re.Match[str]) -> str:
    text = m.group()
    if text[1] == "/":
        return ""
    newlines = "\n" * text.count("\n")
    return newlines + " " if m.group(1) else newlines


def preprocess(
    source: str,
    defines: dict[str, str] | None = None,
    filename: str = "<source>",
    sink: DiagnosticSink | None = None,
) -> PreprocessResult:
    """Preprocess ``source``; ``defines`` are predefined macros (e.g. NDEBUG).

    Returns text with identical line numbering to the input. With a
    collect-mode ``sink``, a malformed directive is reported and replaced
    by a blank line (numbering intact) instead of aborting the whole
    preprocess, so one run surfaces every directive error; without a sink
    (or with a strict one) the first error raises, as before.
    """
    sink = sink if sink is not None else DiagnosticSink(strict=True)
    source = strip_comments(source)
    macros: dict[str, str] = dict(defines or {})
    included: list[str] = []
    out_lines: list[str] = []
    # Conditional stack entries: (taken_now, any_branch_taken, seen_else)
    stack: list[list[bool]] = []

    def active() -> bool:
        return all(frame[0] for frame in stack)

    def handle(directive: str, rest: str, lineno: int) -> None:
        if directive == "define":
            if active():
                parts = rest.split(None, 1)
                if not parts:
                    raise PreprocessorError("#define needs a name",
                                            filename, lineno, code="RPR-P003")
                if "(" in parts[0]:
                    raise PreprocessorError(
                        "function-like macros are not supported by the dialect",
                        filename,
                        lineno,
                        code="RPR-P004",
                        hint="expand the macro by hand; only object-like "
                             "#define NAME [value] is synthesizable",
                    )
                macros[parts[0]] = parts[1] if len(parts) > 1 else ""
        elif directive == "undef":
            if active():
                macros.pop(rest.strip(), None)
        elif directive == "include":
            if active():
                name = rest.strip().strip('"<>')
                if name not in KNOWN_HEADERS:
                    raise PreprocessorError(
                        f"unknown include {name!r} (dialect headers: "
                        f"{sorted(KNOWN_HEADERS)})",
                        filename,
                        lineno,
                        code="RPR-P005",
                    )
                included.append(name)
        elif directive == "ifdef":
            taken = active() and rest.strip() in macros
            stack.append([taken, taken, False])
        elif directive == "ifndef":
            taken = active() and rest.strip() not in macros
            stack.append([taken, taken, False])
        elif directive == "if":
            taken = active() and _eval_condition(rest, macros, filename, lineno)
            stack.append([taken, taken, False])
        elif directive in ("elif", "else"):
            if not stack:
                raise PreprocessorError(f"#{directive} without #if",
                                        filename, lineno, code="RPR-P006")
            frame = stack[-1]
            if frame[2]:
                raise PreprocessorError(f"#{directive} after #else",
                                        filename, lineno, code="RPR-P007")
            parent_active = all(f[0] for f in stack[:-1])
            if directive == "else":
                frame[2] = True
                frame[0] = parent_active and not frame[1]
                frame[1] = frame[1] or frame[0]
            else:
                cond = parent_active and not frame[1] and _eval_condition(
                    rest, macros, filename, lineno
                )
                frame[0] = cond
                frame[1] = frame[1] or cond
        elif directive == "endif":
            if not stack:
                raise PreprocessorError("#endif without #if",
                                        filename, lineno, code="RPR-P008")
            stack.pop()
        else:
            raise PreprocessorError(
                f"unsupported directive #{directive}", filename, lineno,
                code="RPR-P009",
            )

    lines = source.split("\n")
    i = 0
    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        # Directive continuation lines are not supported (the dialect does
        # not need function-like macros or multi-line defines).
        m = _DIRECTIVE_RE.match(raw)
        if m and m.group(1) != "pragma":
            try:
                # recovery point: a bad #if still pushes its frame inside
                # handle(), so later #endif lines keep matching up
                handle(m.group(1), m.group(2), lineno)
            except PreprocessorError as exc:
                sink.capture(exc)
            out_lines.append("")
        else:
            if active():
                out_lines.append(_expand(raw, macros))
            else:
                out_lines.append("")
        i += 1

    if stack:
        try:
            raise PreprocessorError("unterminated #if/#ifdef", filename,
                                    len(lines), code="RPR-P010")
        except PreprocessorError as exc:
            sink.capture(exc)
    return PreprocessResult(text="\n".join(out_lines), defines=macros, included=included)
