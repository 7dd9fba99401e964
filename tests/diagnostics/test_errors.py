"""ReproError carrier fields, pickling, and the exception bridge."""

import pickle

import pytest

from repro.diagnostics.bridge import (
    INTERNAL_ERROR_CODE,
    diagnostic_from_exception,
    diagnostics_from_exception,
)
from repro.diagnostics.span import Span
from repro.errors import (
    CODE_PREFIXES,
    DeadlockError,
    LoweringError,
    PreprocessorError,
    ReproError,
    ReproTypeError,
    TypeError_,
    error_classes,
)
from repro.lab.executor import LabExecutor


def test_default_code_is_category_prefix_000():
    assert LoweringError("x").code == "RPR-L000"
    assert ReproError("x").code == "RPR-E000"


def test_deadlock_error_defaults_to_hang_code():
    err = DeadlockError("all blocked", traces={"p": ["read a"]})
    assert err.code == "RPR-X900"
    assert err.traces == {"p": ["read a"]}


def test_typeerror_alias_is_repro_type_error():
    assert TypeError_ is ReproTypeError


def test_every_category_prefix_is_claimed_by_a_class():
    # W/Y/R/M prefixes live on classes defined outside repro.errors
    import repro.difftest.oracle    # noqa: F401
    import repro.lab.sweep          # noqa: F401
    import repro.runtime.taskgraph  # noqa: F401
    import repro.simc.bench         # noqa: F401

    prefixes = {cls.code_prefix for cls in error_classes().values()}
    assert prefixes == set(CODE_PREFIXES)


def test_pickle_round_trip_preserves_all_carrier_fields():
    err = LoweringError(
        "unsupported statement Goto",
        code="RPR-L010",
        span=Span(file="t.c", line=7, col=17),
        notes=("while lowering 'proc'",),
        hint="restructure the control flow",
    )
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is LoweringError
    assert back.message == err.message
    assert back.code == "RPR-L010"
    assert back.span == err.span
    assert back.notes == err.notes
    assert back.hint == err.hint


def test_pickle_round_trip_survives_custom_init_signatures():
    # PreprocessorError and DeadlockError have non-standard __init__s;
    # __reduce__ must bypass them (pool workers pickle these)
    pp = PreprocessorError("bad directive", filename="a.c", line=3,
                           code="RPR-P001")
    back = pickle.loads(pickle.dumps(pp))
    assert back.plain_message == "bad directive"
    assert back.span == Span(file="a.c", line=3)

    dl = DeadlockError("hang", traces={"p": ["x"]})
    back = pickle.loads(pickle.dumps(dl))
    assert back.traces == {"p": ["x"]}
    assert back.code == "RPR-X900"


def test_bridge_keeps_repro_error_codes_without_tracebacks():
    try:
        raise LoweringError("no goto", code="RPR-L010",
                            span=Span(file="t.c", line=7))
    except LoweringError as exc:
        diag = diagnostic_from_exception(exc)
    assert diag.code == "RPR-L010"
    assert diag.span.line == 7
    assert not any("Traceback" in n for n in diag.notes)


def test_bridge_wraps_foreign_exceptions_as_internal_errors():
    try:
        raise ValueError("boom")
    except ValueError as exc:
        diag = diagnostic_from_exception(exc)
    assert diag.code == INTERNAL_ERROR_CODE
    assert "ValueError: boom" in diag.message
    assert any("ValueError" in n for n in diag.notes)  # traceback kept
    assert "failure bundle" in diag.hint


def test_bridge_notes_foreign_causes_of_toolchain_errors():
    try:
        try:
            raise KeyError("width")
        except KeyError as cause:
            raise LoweringError("bad widths", code="RPR-L020") from cause
    except LoweringError as exc:
        diag = diagnostic_from_exception(exc)
    assert any("caused by KeyError" in n for n in diag.notes)


def _raise_coded(_item):
    raise ReproTypeError("unknown type 'float'", code="RPR-T003")


def test_executor_outcomes_carry_structured_diagnostics():
    outcomes = LabExecutor(jobs=1).map(_raise_coded, [0])
    (oc,) = outcomes
    assert oc.status == "failed"
    assert [d["code"] for d in oc.diagnostics] == ["RPR-T003"]
    assert diagnostics_from_exception(
        ReproTypeError("unknown type 'float'", code="RPR-T003")
    ) == oc.diagnostics


def test_diagnostic_rejects_unknown_severity():
    from repro.diagnostics.core import Diagnostic

    with pytest.raises(ValueError, match="severity"):
        Diagnostic(code="RPR-E000", severity="fatal", message="x")
