"""Human rendering of diagnostics: caret-underlined excerpts, color, JSON.

The text format follows the shape users know from production compilers::

    demo.c:4:5: error[RPR-T003]: unknown type 'floot'
      4 |     floot x = 1;
        |     ^^^^^
        = help: supported types are the C integer types and intN/uintN

``sources`` maps filenames to original source text so the excerpt shows
the *unpreprocessed* line (line numbers are preserved exactly by the
preprocessor, so the coordinates line up).
"""

from __future__ import annotations

import json
import re

from repro.diagnostics.core import Diagnostic

__all__ = ["diagnostics_to_json", "render_diagnostic", "render_diagnostics",
           "summary_line"]

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_SEV_COLOR = {"error": "\x1b[31m", "warning": "\x1b[33m", "note": "\x1b[36m"}
_CARET_COLOR = "\x1b[32m"

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def _underline_width(line: str, col: int, end_col: int) -> int:
    """How many columns to underline, 1-based ``col`` into ``line``."""
    if end_col > col:
        return end_col - col
    m = _WORD_RE.match(line, col - 1)
    if m:
        return max(1, m.end() - (col - 1))
    return 1


def render_diagnostic(
    diag: Diagnostic,
    sources: dict[str, str] | None = None,
    color: bool = False,
) -> str:
    """One diagnostic as multi-line text with an optional source excerpt."""
    sev_c = _SEV_COLOR.get(diag.severity, "") if color else ""
    bold = _BOLD if color else ""
    reset = _RESET if color else ""
    caret_c = _CARET_COLOR if color else ""

    head = f"{sev_c}{diag.severity}{reset}{bold}[{diag.code}]{reset}: " \
           f"{diag.message}"
    if diag.span is not None and diag.span.known:
        head = f"{bold}{diag.span}{reset}: {head}"
    lines = [head]

    span = diag.span
    source = (sources or {}).get(span.file) if span is not None else None
    if source is not None and span.known:
        src_lines = source.split("\n")
        if 1 <= span.line <= len(src_lines):
            text = src_lines[span.line - 1]
            gutter = f"{span.line} | "
            lines.append(f"  {gutter}{text}")
            if span.col:
                width = _underline_width(text, span.col, span.end_col)
                pad = " " * (len(str(span.line)) + 1) + "| "
                lines.append(
                    f"  {pad}{' ' * (span.col - 1)}"
                    f"{caret_c}{'^' * width}{reset}"
                )
    for note in diag.notes:
        lines.append(f"    = note: {note}")
    if diag.hint:
        lines.append(f"    = help: {diag.hint}")
    return "\n".join(lines)


def render_diagnostics(
    diags: list[Diagnostic],
    sources: dict[str, str] | None = None,
    color: bool = False,
) -> str:
    """All diagnostics in source order, blank-line separated, with a
    summary line."""
    ordered = sorted(diags, key=Diagnostic.sort_key)
    blocks = [render_diagnostic(d, sources=sources, color=color)
              for d in ordered]
    blocks.append(summary_line(ordered, color=color))
    return "\n".join(blocks)


def summary_line(diags: list[Diagnostic], color: bool = False) -> str:
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = sum(1 for d in diags if d.severity == "warning")
    parts = []
    if errors:
        parts.append(f"{errors} error{'s' if errors != 1 else ''}")
    if warnings:
        parts.append(f"{warnings} warning{'s' if warnings != 1 else ''}")
    if not parts:
        return "no diagnostics"
    text = " and ".join(parts) + " generated"
    if color and errors:
        return f"{_SEV_COLOR['error']}{text}{_RESET}"
    return text


def diagnostics_to_json(diags: list[Diagnostic], **extra) -> str:
    """Stable JSON for ``--json`` output and failure bundles."""
    payload = dict(extra)
    payload["diagnostics"] = [d.to_dict()
                              for d in sorted(diags, key=Diagnostic.sort_key)]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
