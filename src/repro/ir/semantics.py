"""Shared evaluation semantics for IR operations.

Both the software-simulation interpreter (:mod:`repro.ir.interp`) and the
hardware cycle model (:mod:`repro.hls.cyclemodel`) evaluate operations
through these functions, so the two paths agree *by construction*. The one
sanctioned divergence is the ``force_width`` hook on :func:`compare`, used
by the translation-fault injector to reproduce the paper's Section 5.1 bug
(a 64-bit comparison erroneously synthesized at 5 bits).

Each operation is defined once, by a memoized specializer (``binop_fn``
etc.) that resolves types and masks up front and returns a function of the
operand bit patterns; :func:`binop` etc. apply one to a single value pair.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

from repro.errors import SimulationError
from repro.frontend.ctypes_ import CType, common_type
from repro.ir.ops import OpKind
from repro.utils.bitops import mask, sign_extend, truncate

#: bounded, since a long-lived process may see many designs' types and names
_memo = functools.lru_cache(maxsize=4096)

_SHIFTS = {OpKind.SHL: operator.lshift, OpKind.SHR: operator.rshift}
_ARITH = {OpKind.ADD: operator.add, OpKind.SUB: operator.sub,
          OpKind.MUL: operator.mul}
#: the bitwise ops act on the operands' common-width bit patterns
_BITWISE = {OpKind.AND: operator.and_, OpKind.OR: operator.or_,
            OpKind.XOR: operator.xor}
_RELATIONS = {OpKind.EQ: operator.eq, OpKind.NE: operator.ne,
              OpKind.LT: operator.lt, OpKind.LE: operator.le,
              OpKind.GT: operator.gt, OpKind.GE: operator.ge}


def interpret(pattern: int, ty: CType) -> int:
    """Bit pattern -> mathematical value under the type's signedness."""
    return sign_extend(pattern, ty.width) if ty.signed else truncate(pattern, ty.width)


def c_div(x: int, y: int, where: str = "?") -> int:
    """C integer division of two values: truncates toward zero."""
    if y == 0:
        raise SimulationError(f"{where}: division by zero", code="RPR-X010")
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


def interpreter(ty: CType) -> Callable[[int], int]:
    """:func:`interpret` with ``ty`` resolved."""
    m = mask(ty.width)
    if not ty.signed:
        return lambda x: x & m
    s = 1 << (ty.width - 1)
    return lambda x: ((x & m) ^ s) - s


def converter(xty: CType, ct: CType) -> Callable[[int], int]:
    """The value of an ``xty`` operand converted to the common type ``ct``:
    ``interpret(truncate(interpret(x, xty), ct.width), ct)``."""
    xi = interpreter(xty)
    if (ct.width >= xty.width and ct.signed == xty.signed) or (
            ct.width > xty.width and not xty.signed):
        return xi  # every xty value is representable in ct
    cm = mask(ct.width)
    ci = interpreter(ct)
    return lambda x: ci(xi(x) & cm)


@_memo
def binop_fn(op: OpKind, xty: CType, yty: CType,
             where: str = "?") -> Callable[[int, int], int]:
    """``(x, y) -> pattern`` evaluating an arithmetic/bitwise/shift op
    (the caller truncates to the destination width on write-back)."""
    if op in _SHIFTS:
        # C promotes the left operand before shifting, so a negative
        # signed value shifts as its (sign-extended) value, not as its
        # source-width bit pattern; the generated RTL widens the operand
        # the same way. Found by repro.difftest (seed 151).
        f, xi, ym = _SHIFTS[op], interpreter(xty), mask(yty.width)
        return lambda x, y: f(xi(x), (y & ym) % 64)

    ct = common_type(xty, yty)
    cx, cy = converter(xty, ct), converter(yty, ct)
    if op in _ARITH:
        f = _ARITH[op]
        return lambda x, y: f(cx(x), cy(y))
    if op in _BITWISE:
        f, cm = _BITWISE[op], mask(ct.width)
        return lambda x, y: f(cx(x), cy(y)) & cm
    if op == OpKind.DIV:
        return lambda x, y: c_div(cx(x), cy(y), where)
    if op == OpKind.MOD:
        def mod(x: int, y: int) -> int:
            xv, yv = cx(x), cy(y)
            return xv - c_div(xv, yv, where) * yv
        return mod
    raise SimulationError(f"{where}: {op} is not a binary arithmetic op", code="RPR-X011")


@_memo
def compare_fn(op: OpKind, xty: CType, yty: CType,
               force_width: int | None = None) -> Callable[[int, int], int]:
    """``(x, y) -> 0/1`` evaluating a comparison.

    ``force_width`` truncates both operands to that many bits *before*
    comparing (unsigned interpretation) — the faulty narrow comparison the
    paper's first in-circuit debugging example exposes. ``None`` (default)
    follows the C usual arithmetic conversions.
    """
    rel = _RELATIONS[op]
    if force_width is not None:
        fm = mask(force_width)
        xi, yi = interpreter(xty), interpreter(yty)
        return lambda x, y: int(rel(xi(x) & fm, yi(y) & fm))
    ct = common_type(xty, yty)
    cx, cy = converter(xty, ct), converter(yty, ct)
    return lambda x, y: int(rel(cx(x), cy(y)))


@_memo
def unop_fn(op: OpKind, xty: CType) -> Callable[[int], int]:
    """``x -> pattern`` evaluating a unary op."""
    xi, xm = interpreter(xty), mask(xty.width)
    if op == OpKind.NEG:
        return lambda x: -xi(x)
    if op == OpKind.NOT:
        return lambda x: ~(x & xm)
    if op == OpKind.LNOT:
        return lambda x: int((x & xm) == 0)
    raise SimulationError(f"{op} is not a unary op", code="RPR-X012")


@_memo
def cast_fn(op: OpKind, xty: CType) -> Callable[[int], int]:
    """MOV/TRUNC/ZEXT/SEXT source-side normalization (pattern result)."""
    return interpreter(CType(xty.width, op == OpKind.SEXT))


def binop(op: OpKind, x: int, xty: CType, y: int, yty: CType, where: str = "?") -> int:
    """Evaluate an arithmetic/bitwise/shift op; returns a bit pattern
    (caller truncates to the destination width on write-back)."""
    return binop_fn(op, xty, yty, where)(x, y)


def compare(op: OpKind, x: int, xty: CType, y: int, yty: CType,
            force_width: int | None = None) -> int:
    """Evaluate a comparison to 0/1 (see :func:`compare_fn`)."""
    return compare_fn(op, xty, yty, force_width)(x, y)


def unop(op: OpKind, x: int, xty: CType) -> int:
    return unop_fn(op, xty)(x)


def cast(op: OpKind, x: int, xty: CType) -> int:
    """MOV/TRUNC/ZEXT/SEXT source-side normalization (pattern result)."""
    return cast_fn(op, xty)(x)
