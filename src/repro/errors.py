"""Exception hierarchy for the repro HLS toolchain.

Every error raised by the library derives from :class:`ReproError` so
callers can catch toolchain failures without masking programming errors.

Each subclass owns a stable error-code prefix (``RPR-P`` preprocessor,
``RPR-S`` syntax, ``RPR-T`` types, ...) and every raise site supplies a
specific code like ``RPR-L017`` (enforced by ``tools/lint_diagnostics.py``
in CI), plus an optional source :class:`~repro.diagnostics.span.Span`.
This makes every toolchain failure convertible to a structured
:class:`~repro.diagnostics.core.Diagnostic` — machine-readable, renderable
with a caret-underlined source excerpt, and serializable into lab/
campaign/difftest result records and failure bundles.

Errors must survive a ``pickle`` round-trip unchanged (lab executor
workers raise them inside ``ProcessPoolExecutor`` children), which the
``__reduce__`` below guarantees even for subclasses with custom
constructor signatures.
"""

from __future__ import annotations

from repro.diagnostics.span import Span

__all__ = [
    "CODE_PREFIXES",
    "AssertionSynthesisError",
    "BindingError",
    "CampaignError",
    "CodegenError",
    "DeadlockError",
    "DiagnosticError",
    "FaultError",
    "IRError",
    "LoweringError",
    "ParseError",
    "PlatformError",
    "PreprocessorError",
    "ReproError",
    "ReproTypeError",
    "SchedulingError",
    "ServeError",
    "SimCompileError",
    "SimulationError",
    "TypeError_",
]


def _rebuild_error(cls, args, state):
    """Unpickle helper: bypass subclass ``__init__`` signatures entirely."""
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(state)
    return exc


class ReproError(Exception):
    """Base class for all toolchain errors.

    ``code`` is a stable machine-readable identifier (``RPR-X123``);
    ``span`` locates the error in the user's C source when known;
    ``notes`` are secondary explanation lines and ``hint`` a fix
    suggestion — all carried into the structured diagnostic.
    """

    #: per-subclass error-code prefix; see :data:`CODE_PREFIXES`
    code_prefix = "RPR-E"

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        span: Span | None = None,
        notes: tuple[str, ...] = (),
        hint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = str(message)
        self.code = code or f"{self.code_prefix}000"
        self.span = span
        self.notes = tuple(notes)
        self.hint = hint

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.__dict__))

    def diagnostic(self):
        """This error as a structured :class:`Diagnostic` record."""
        from repro.diagnostics.core import Diagnostic

        return Diagnostic(
            code=self.code,
            severity="error",
            message=self.message,
            span=self.span,
            notes=self.notes,
            hint=self.hint,
        )


class PreprocessorError(ReproError):
    """Raised for malformed preprocessor directives or unbalanced conditionals."""

    code_prefix = "RPR-P"

    def __init__(self, message: str, filename: str = "<source>", line: int = 0,
                 **kwargs) -> None:
        kwargs.setdefault("span", Span(file=filename, line=line))
        super().__init__(f"{filename}:{line}: {message}", **kwargs)
        self.filename = filename
        self.line = line
        #: the message without the location prefix (the span carries that)
        self.plain_message = str(message)

    def diagnostic(self):
        diag = super().diagnostic()
        # the span already locates the error; don't repeat file:line in text
        return diag.replace(message=self.plain_message)


class ParseError(ReproError):
    """Raised when the C dialect parser rejects the input."""

    code_prefix = "RPR-S"


class ReproTypeError(ReproError):
    """Raised for C-level type violations (name kept distinct from builtins)."""

    code_prefix = "RPR-T"


#: deprecated alias, kept for callers written against the pre-diagnostics
#: API; new code should spell it ReproTypeError
TypeError_ = ReproTypeError


class LoweringError(ReproError):
    """Raised when the AST-to-IR lowering encounters unsupported constructs."""

    code_prefix = "RPR-L"


class IRError(ReproError):
    """Raised by the IR verifier for malformed IR."""

    code_prefix = "RPR-I"


class SchedulingError(ReproError):
    """Raised when a legal schedule cannot be constructed."""

    code_prefix = "RPR-H"


class BindingError(ReproError):
    """Raised when resource binding fails (e.g. conflicting lifetimes)."""

    code_prefix = "RPR-B"


class CodegenError(ReproError):
    """Raised when RTL generation encounters an unsupported IR shape."""

    code_prefix = "RPR-C"


class SimulationError(ReproError):
    """Raised by the RTL or software simulators for illegal states."""

    code_prefix = "RPR-X"


class SimCompileError(ReproError):
    """Raised by the compiled-simulation backend (:mod:`repro.simc`) when a
    design cannot be specialized to Python bytecode.

    Backend selection (:func:`repro.simc.make_process_exec`) catches this
    and falls back to the interpreted cycle model, surfacing the reason as
    an ``RPR-K101`` warning diagnostic; strict call sites (the difftest
    ``cyclemodel-vs-compiled`` leg) let it propagate."""

    code_prefix = "RPR-K"


class DeadlockError(SimulationError):
    """Raised when every process in a simulation is blocked (hang detected).

    Carries a per-process trace so the hang can be located, mirroring the
    paper's Section 5.1 debugging methodology.
    """

    def __init__(self, message: str, traces: dict | None = None, **kwargs):
        kwargs.setdefault("code", "RPR-X900")
        super().__init__(message, **kwargs)
        self.traces = dict(traces or {})


class FaultError(ReproError):
    """Raised when a fault injection is misconfigured — an IR fault whose
    selector matches nothing, or a runtime fault naming an unknown channel,
    process or register."""

    code_prefix = "RPR-F"


class CampaignError(ReproError):
    """Raised for malformed fault-injection campaign configurations."""

    code_prefix = "RPR-G"


class ServeError(ReproError):
    """Raised by the synthesis service (:mod:`repro.serve`) — malformed
    protocol messages, admission-control rejections, a draining daemon, or
    client-side connection failures."""

    code_prefix = "RPR-V"


class PlatformError(ReproError):
    """Raised when a design does not fit the target device."""

    code_prefix = "RPR-D"


class AssertionSynthesisError(ReproError):
    """Raised by the assertion instrumentation/optimization passes."""

    code_prefix = "RPR-A"


class DiagnosticError(ReproError):
    """A diagnostic emitted into a strict sink, re-raised as an exception.

    Used when a component produces a :class:`Diagnostic` directly (rather
    than raising) but the caller asked for raise-on-first behavior.
    """

    code_prefix = "RPR-E"

    @classmethod
    def from_diagnostic(cls, diag) -> "DiagnosticError":
        return cls(
            diag.message,
            code=diag.code,
            span=diag.span,
            notes=diag.notes,
            hint=diag.hint,
        )


def error_classes() -> dict[str, type[ReproError]]:
    """Every concrete error class defined here, by name (for tooling)."""
    out: dict[str, type[ReproError]] = {"ReproError": ReproError}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub.__name__ not in out:
                out[sub.__name__] = sub
                stack.append(sub)
    return out


#: code-prefix table: one row per error category, in pipeline order.
#: ``repro synth --help-codes`` and the README error-code section render it.
CODE_PREFIXES: dict[str, str] = {
    "RPR-P": "preprocessor (directives, conditionals, includes)",
    "RPR-S": "syntax / parse (pycparser rejection, duplicate definitions)",
    "RPR-T": "C type system (unknown types, illegal widths)",
    "RPR-L": "AST-to-IR lowering (unsupported constructs)",
    "RPR-I": "IR verifier (malformed IR)",
    "RPR-H": "HLS scheduling / pipelining",
    "RPR-B": "resource binding",
    "RPR-C": "RTL code generation",
    "RPR-X": "simulation (interpreter, cycle model, RTL sim; X9xx = hangs)",
    "RPR-K": "compiled-simulation backend (codegen, backend selection)",
    "RPR-A": "assertion synthesis passes",
    "RPR-F": "fault-injection configuration",
    "RPR-G": "campaign orchestration",
    "RPR-D": "platform / device fit",
    "RPR-R": "task-graph construction (processes, streams, taps)",
    "RPR-W": "design-space sweeps",
    "RPR-V": "synthesis service (serve daemon: protocol, admission, client)",
    "RPR-Y": "differential-testing harness",
    "RPR-M": "performance-bench harness (backend mismatch, baseline gate)",
    "RPR-E": "generic / internal (E999 = bridged non-toolchain exception)",
}
