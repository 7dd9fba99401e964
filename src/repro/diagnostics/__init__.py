"""Structured diagnostics: coded, source-located, collectable, replayable.

The error-handling backbone of the toolchain:

* :class:`Span` — file/line/col source coordinates threaded from the
  preprocessor through the parser into lowered IR;
* :class:`Diagnostic` — one structured finding (stable ``RPR-###`` code,
  severity, message, span, notes, fix hint), JSON round-trippable;
* :class:`DiagnosticSink` — collects diagnostics so the frontend can
  recover per-declaration/per-statement and report *all* errors in one
  run, with a strict mode preserving raise-on-first behavior;
* :mod:`~repro.diagnostics.render` — caret-underlined source excerpts
  with optional ANSI color, plus JSON output;
* :mod:`~repro.diagnostics.bundle` — self-contained, replayable failure
  bundles (``repro replay <bundle>``).

Submodules are loaded lazily: :mod:`repro.errors` imports
``repro.diagnostics.span`` while the rest of this package imports
``repro.errors``, and PEP 562 lazy attributes break that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "Span": "repro.diagnostics.span",
    "Diagnostic": "repro.diagnostics.core",
    "SEVERITIES": "repro.diagnostics.core",
    "DiagnosticSink": "repro.diagnostics.sink",
    "diagnostics_from_exception": "repro.diagnostics.bridge",
    "render_diagnostic": "repro.diagnostics.render",
    "render_diagnostics": "repro.diagnostics.render",
    "diagnostics_to_json": "repro.diagnostics.render",
    "FailureBundle": "repro.diagnostics.bundle",
    "write_bundle": "repro.diagnostics.bundle",
    "read_bundle": "repro.diagnostics.bundle",
    "replay_bundle": "repro.diagnostics.bundle",
    "check_source": "repro.diagnostics.engine",
    "CheckResult": "repro.diagnostics.engine",
    "describe_code": "repro.diagnostics.codes",
    "is_valid_code": "repro.diagnostics.codes",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
