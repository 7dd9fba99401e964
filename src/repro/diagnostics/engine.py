"""Collect-mode compilation drivers.

:func:`check_source` runs the whole frontend (preprocess → parse → lower →
IR verify) with a collect-mode sink, so a source with several independent
problems — a bad directive, a duplicate definition, an unknown type, an
unsupported statement — reports *all* of them in one run, Clang-style.
:func:`synth_diagnostics` goes further and attempts full assertion
synthesis when the frontend is clean, bridging any hard error into
diagnostics; it is the engine behind ``repro synth`` and behind replaying
``synth`` failure bundles, so both construct byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics.bridge import diagnostic_from_exception
from repro.diagnostics.core import Diagnostic
from repro.diagnostics.render import diagnostics_to_json, render_diagnostics
from repro.diagnostics.sink import DiagnosticSink
from repro.errors import ReproError

__all__ = ["CheckResult", "check_source", "synth_diagnostics"]


@dataclass
class CheckResult:
    """Everything one collect-mode frontend run produced."""

    filename: str
    source: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: functions that lowered cleanly (unusable for synthesis when
    #: ``has_errors`` — parts of the unit may be missing)
    module: object = None

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def to_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self.diagnostics]

    def to_json(self, **extra) -> str:
        return diagnostics_to_json(self.diagnostics, **extra)

    def render(self, color: bool = False) -> str:
        return render_diagnostics(self.diagnostics,
                                  sources={self.filename: self.source},
                                  color=color)


def check_source(
    source: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
) -> CheckResult:
    """Frontend-check ``source``, reporting every error in one pass."""
    from repro.frontend.lowering import lower_source
    from repro.ir.verify import verify_module

    sink = DiagnosticSink(strict=False)
    module = None
    try:
        module = lower_source(source, filename=filename, defines=defines,
                              sink=sink)
        if not sink.has_errors:
            verify_module(module, sink=sink)
    except ReproError as exc:  # a raise that escaped the recovery points
        sink.capture(exc)
    except Exception as exc:  # internal error — still report, coded E999
        sink.emit(diagnostic_from_exception(exc))
    return CheckResult(filename=filename, source=source,
                       diagnostics=sink.sorted(), module=module)


def synth_diagnostics(
    source: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
    level: str = "optimized",
    options: dict | None = None,
    feed: list[int] | None = None,
) -> tuple[CheckResult, list[dict]]:
    """Frontend-check, then synthesize if clean.

    Returns ``(check_result, diagnostics_dicts)`` where the dicts cover
    the whole attempt — frontend diagnostics plus any bridged synthesis
    failure. An empty list means the design synthesized cleanly.
    Deterministic for fixed inputs, which is what makes ``synth`` failure
    bundles replay bit-identically.
    """
    check = check_source(source, filename=filename, defines=defines)
    if check.has_errors:
        return check, check.to_dicts()
    diags = [d.to_dict() for d in check.diagnostics]  # warnings/notes
    try:
        from repro.apps.csource import build_csource_app
        from repro.core.synth import SynthesisOptions, synthesize

        # the app a sweep ``csource`` point with these params builds
        app = build_csource_app({"source": source, "filename": filename,
                                 "feed": feed or ()})
        opts = SynthesisOptions(**(options or {}))
        synthesize(app, assertions=level, options=opts)
    except Exception as exc:
        diags.append(diagnostic_from_exception(exc).to_dict())
    return check, diags
