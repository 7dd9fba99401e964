"""Property tests: IR op semantics agree with Python big-int arithmetic."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.frontend.ctypes_ import CType, common_type
from repro.ir import semantics
from repro.ir.function import IRFunction
from repro.ir.instr import BasicBlock, Instr, Return
from repro.ir.interp import Interp
from repro.ir.ops import OpKind
from repro.ir.values import Const
from repro.utils.bitops import sign_extend, truncate

widths = st.integers(min_value=1, max_value=64)


@st.composite
def typed_value(draw):
    w = draw(widths)
    signed = draw(st.booleans())
    v = draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    return v, CType(w, signed)


def as_math(v, ty):
    return sign_extend(v, ty.width) if ty.signed else v


@given(typed_value(), typed_value())
def test_add_matches_python(a, b):
    (av, at), (bv, bt) = a, b
    from repro.frontend.ctypes_ import common_type

    ct = common_type(at, bt)
    r = semantics.binop(OpKind.ADD, av, at, bv, bt)
    expected = truncate(
        semantics.interpret(truncate(as_math(av, at), ct.width), ct)
        + semantics.interpret(truncate(as_math(bv, bt), ct.width), ct),
        ct.width,
    )
    assert truncate(r, ct.width) == expected


@given(typed_value(), typed_value())
def test_compare_antisymmetry(a, b):
    (av, at), (bv, bt) = a, b
    lt = semantics.compare(OpKind.LT, av, at, bv, bt)
    gt = semantics.compare(OpKind.GT, av, at, bv, bt)
    eq = semantics.compare(OpKind.EQ, av, at, bv, bt)
    assert lt + gt + eq == 1


@given(typed_value(), typed_value())
def test_compare_le_is_lt_or_eq(a, b):
    (av, at), (bv, bt) = a, b
    le = semantics.compare(OpKind.LE, av, at, bv, bt)
    lt = semantics.compare(OpKind.LT, av, at, bv, bt)
    eq = semantics.compare(OpKind.EQ, av, at, bv, bt)
    assert le == (lt or eq)


@given(typed_value(), typed_value(), st.integers(min_value=1, max_value=63))
def test_force_width_compare_only_sees_low_bits(a, b, fw):
    (av, at), (bv, bt) = a, b
    r = semantics.compare(OpKind.EQ, av, at, bv, bt, force_width=fw)
    assert r == int(
        truncate(as_math(av, at), fw) == truncate(as_math(bv, bt), fw)
    )


@given(typed_value())
def test_double_negation_identity(a):
    av, at = a
    r = semantics.unop(OpKind.NEG, truncate(semantics.unop(OpKind.NEG, av, at),
                                            at.width), at)
    assert truncate(r, at.width) == av


@given(typed_value())
def test_lnot_is_boolean(a):
    av, at = a
    r = semantics.unop(OpKind.LNOT, av, at)
    assert r == (0 if av else 1)


@given(typed_value(), typed_value())
def test_division_reconstruction(a, b):
    (av, at), (bv, bt) = a, b
    from repro.frontend.ctypes_ import common_type

    if truncate(bv, bt.width) == 0:
        return
    ct = common_type(at, bt)
    q = semantics.binop(OpKind.DIV, av, at, bv, bt)
    r = semantics.binop(OpKind.MOD, av, at, bv, bt)
    x = semantics.interpret(truncate(as_math(av, at), ct.width), ct)
    y = semantics.interpret(truncate(as_math(bv, bt), ct.width), ct)
    if y != 0:
        assert q * y + r == x
        assert abs(r) < abs(y)


# ---- C-reference properties (difftest satellite): binop/cast must match
# an independently written model of the C rules, not just reconstruct.


def _c_div(x, y):
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


@given(typed_value(), typed_value())
def test_div_mod_match_c_reference(a, b):
    (av, at), (bv, bt) = a, b
    from fractions import Fraction

    from repro.frontend.ctypes_ import common_type

    ct = common_type(at, bt)
    x = semantics.interpret(truncate(as_math(av, at), ct.width), ct)
    y = semantics.interpret(truncate(as_math(bv, bt), ct.width), ct)
    if y == 0:
        return
    q = semantics.binop(OpKind.DIV, av, at, bv, bt)
    r = semantics.binop(OpKind.MOD, av, at, bv, bt)
    assert q == _c_div(x, y)
    assert q == int(Fraction(x, y))  # trunc toward zero, independently
    assert r == x - _c_div(x, y) * y


@given(typed_value(), st.integers(min_value=0, max_value=63))
def test_shr_matches_c_reference(a, amt):
    av, at = a
    r = semantics.binop(OpKind.SHR, av, at, amt, CType(32, False))
    if at.signed:
        # arithmetic shift: floor division of the signed value
        assert r == sign_extend(av, at.width) >> amt
    else:
        assert r == av >> amt


@given(typed_value(), st.integers(min_value=0, max_value=63))
def test_shl_promotes_signed_operand(a, amt):
    # C promotes the left operand before shifting: a negative int16
    # shifts as its value, not as its 16-bit pattern (difftest seed 151)
    av, at = a
    r = semantics.binop(OpKind.SHL, av, at, amt, CType(32, False))
    assert r == as_math(av, at) << amt


@given(typed_value(), st.integers(min_value=1, max_value=64))
def test_zext_sext_match_c_reference(a, dw):
    av, at = a
    z = truncate(semantics.cast(OpKind.ZEXT, av, at), dw)
    s = truncate(semantics.cast(OpKind.SEXT, av, at), dw)
    assert z == truncate(av, min(at.width, dw)) or dw >= at.width
    assert z == truncate(truncate(av, at.width), dw)
    assert s == truncate(sign_extend(av, at.width), dw)
    if not (av >> (at.width - 1)) & 1:  # non-negative: both agree
        assert z == s


@given(typed_value())
def test_mov_trunc_normalize_at_source_width(a):
    av, at = a
    wide = av | (1 << 65)  # junk above the source width must be dropped
    assert semantics.cast(OpKind.MOV, wide, at) == truncate(wide, at.width)
    assert semantics.cast(OpKind.TRUNC, wide, at) == truncate(wide, at.width)


# ---- pre-decoded interpreter handlers ----------------------------------------
# ``Interp`` resolves each instruction's types, common type, masks and
# handler once, before it runs. Each handler must agree with the one-shot
# evaluators in ``semantics``, and both with the per-call definition of the
# C rules written out below as an oracle (the evaluators' form before the
# specializers existed).

BINOPS = [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
          OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR]
COMPARES = [OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE, OpKind.GT,
            OpKind.GE]
UNOPS = [OpKind.NEG, OpKind.NOT, OpKind.LNOT]
CASTS = [OpKind.MOV, OpKind.TRUNC, OpKind.ZEXT, OpKind.SEXT]


def _ref_operands(x, xty, y, yty):
    ct = common_type(xty, yty)
    xv = semantics.interpret(truncate(semantics.interpret(x, xty), ct.width), ct)
    yv = semantics.interpret(truncate(semantics.interpret(y, yty), ct.width), ct)
    return xv, yv, ct


def _ref_binop(op, x, xty, y, yty):
    if op in (OpKind.SHL, OpKind.SHR):
        amt = truncate(y, yty.width) % 64
        if op == OpKind.SHL:
            return semantics.interpret(x, xty) << amt
        if xty.signed:
            return semantics.interpret(x, xty) >> amt
        return truncate(x, xty.width) >> amt
    xv, yv, ct = _ref_operands(x, xty, y, yty)
    if op in (OpKind.DIV, OpKind.MOD):
        if yv == 0:
            return None  # division by zero
        q = _c_div(xv, yv)
        return q if op == OpKind.DIV else xv - q * yv
    return {
        OpKind.ADD: lambda: xv + yv,
        OpKind.SUB: lambda: xv - yv,
        OpKind.MUL: lambda: xv * yv,
        OpKind.AND: lambda: truncate(xv, ct.width) & truncate(yv, ct.width),
        OpKind.OR: lambda: truncate(xv, ct.width) | truncate(yv, ct.width),
        OpKind.XOR: lambda: truncate(xv, ct.width) ^ truncate(yv, ct.width),
    }[op]()


def _ref_compare(op, x, xty, y, yty):
    xv, yv, _ct = _ref_operands(x, xty, y, yty)
    return int({
        OpKind.EQ: xv == yv, OpKind.NE: xv != yv, OpKind.LT: xv < yv,
        OpKind.LE: xv <= yv, OpKind.GT: xv > yv, OpKind.GE: xv >= yv,
    }[op])


def _ref_unop(op, x, xty):
    if op == OpKind.NEG:
        return -semantics.interpret(x, xty)
    if op == OpKind.NOT:
        return ~truncate(x, xty.width)
    return int(truncate(x, xty.width) == 0)


def _ref_cast(op, x, xty):
    if op == OpKind.SEXT:
        return sign_extend(x, xty.width)
    return truncate(x, xty.width)


ctypes = st.builds(CType, widths, st.booleans())


@st.composite
def operand(draw):
    """(pattern, type, is_const): a Temp or a Const operand."""
    v, ty = draw(typed_value())
    return v, ty, draw(st.booleans())


def run_decoded(op, dest_ty, operands):
    """Execute one pre-decoded ``dest = op(operands)`` through ``Interp``."""
    func = IRFunction(name="h")
    args = [Const(v, ty) if is_const else func.declare_scalar(f"a{i}", ty)
            for i, (v, ty, is_const) in enumerate(operands)]
    dest = func.declare_scalar("d", dest_ty)
    func.add_block(BasicBlock("entry", [Instr(op, [dest], args)], Return()))
    interp = Interp(func)
    for i, (v, _ty, is_const) in enumerate(operands):
        if not is_const:
            interp.env[f"a{i}"] = v
    with pytest.raises(StopIteration):
        next(interp.run())
    return interp.env["d"]


@settings(max_examples=400)
@given(st.sampled_from(BINOPS), operand(), operand(), ctypes)
@example(OpKind.SHL, (0xFFFF, CType(16, True), False),
         (3, CType(32, False), True), CType(32, True))  # seed 151
@example(OpKind.SHL, (0x8000, CType(16, True), True),
         (4, CType(8, False), False), CType(64, True))
@example(OpKind.DIV, (7, CType(32, True), False),
         (0, CType(32, True), False), CType(32, True))  # RPR-X010
@example(OpKind.MOD, (7, CType(8, False), True),
         (0, CType(16, True), True), CType(16, False))
def test_predecoded_binop_matches_semantics(op, a, b, dest_ty):
    (av, at, _), (bv, bt, _) = a, b
    ref = _ref_binop(op, av, at, bv, bt)
    if ref is None:
        for run in (lambda: semantics.binop(op, av, at, bv, bt, where="h"),
                    lambda: run_decoded(op, dest_ty, [a, b])):
            with pytest.raises(SimulationError,
                               match="h: division by zero") as exc:
                run()
            assert exc.value.code == "RPR-X010"
        return
    r = semantics.binop(op, av, at, bv, bt)
    assert r == ref
    assert run_decoded(op, dest_ty, [a, b]) == truncate(r, dest_ty.width)


@settings(max_examples=300)
@given(st.sampled_from(COMPARES), operand(), operand(), ctypes)
def test_predecoded_compare_matches_semantics(op, a, b, dest_ty):
    (av, at, _), (bv, bt, _) = a, b
    r = semantics.compare(op, av, at, bv, bt)
    assert r == _ref_compare(op, av, at, bv, bt)
    assert type(r) is int
    assert run_decoded(op, dest_ty, [a, b]) == truncate(r, dest_ty.width)


@settings(max_examples=300)
@given(st.sampled_from(UNOPS + CASTS), operand(), ctypes)
def test_predecoded_unop_and_cast_match_semantics(op, a, dest_ty):
    av, at, _ = a
    if op in UNOPS:
        r = semantics.unop(op, av, at)
        assert r == _ref_unop(op, av, at)
    else:
        r = semantics.cast(op, av, at)
        assert r == _ref_cast(op, av, at)
    assert run_decoded(op, dest_ty, [a]) == truncate(r, dest_ty.width)
