"""Unit tests for AST -> IR lowering, checked by executing the IR."""

import pytest

from repro.errors import LoweringError
from repro.ir.ops import OpKind
from repro.ir.verify import verify_function
from tests.helpers import interp_outputs, lower_one


def run_expr(expr: str, decls: str = "", setup: str = "") -> int:
    src = f"""
void f(co_stream output) {{
  {decls}
  {setup}
  co_stream_write(output, {expr});
}}
"""
    func = lower_one(src)
    verify_function(func)
    _, outs = interp_outputs(func)
    return outs["output"][0]


def test_arithmetic_precedence():
    assert run_expr("2 + 3 * 4") == 14
    assert run_expr("(2 + 3) * 4") == 20


def test_division_and_modulo():
    assert run_expr("17 / 5") == 3
    assert run_expr("17 % 5") == 2


def test_signed_division_truncates_toward_zero():
    v = run_expr("a / 2", decls="int32 a;", setup="a = -7;")
    assert v == (-3) & 0xFFFFFFFFFFFFFFFF & ((1 << 64) - 1) or v == 0xFFFFFFFD


def test_bitwise_operators():
    assert run_expr("(12 & 10) | (1 ^ 3)") == 10


def test_shifts():
    assert run_expr("1 << 10") == 1024
    assert run_expr("1024 >> 3") == 128


def test_comparisons_produce_bool():
    assert run_expr("5 > 3") == 1
    assert run_expr("5 < 3") == 0
    assert run_expr("(5 >= 5) + (4 <= 3)") == 1


def test_logical_and_or_not():
    assert run_expr("(1 && 0) | (0 || 1)") == 1
    assert run_expr("!7") == 0
    assert run_expr("!0") == 1


def test_ternary_operator():
    assert run_expr("a > 2 ? 10 : 20", decls="uint32 a;", setup="a = 5;") == 10
    assert run_expr("a > 2 ? 10 : 20", decls="uint32 a;", setup="a = 1;") == 20


def test_cast_truncates():
    assert run_expr("(uint8)300") == 44


def test_cast_sign_extends():
    v = run_expr("(int32)a", decls="int8 a;", setup="a = -1;")
    assert v == 0xFFFFFFFF


def test_char_constant():
    assert run_expr("'A'") == 65
    assert run_expr("'\\x1' + '\\101'") == 66


def test_hex_constant():
    assert run_expr("0xFF00 >> 8") == 0xFF


def test_octal_constant():
    assert run_expr("017 + 00") == 15


def test_unknown_char_escape_rejected():
    with pytest.raises(LoweringError) as exc:
        lower_one("void f(co_stream output) { co_stream_write(output, '\\q'); }")
    assert exc.value.code == "RPR-L032"
    assert exc.value.span.line == 1


@pytest.mark.parametrize("const", ["0x1FFFFFFFFFFFFFFFF", "'\\777'"])
def test_constant_too_wide_rejected(const):
    """A constant its type cannot hold is an error, not a truncation."""
    with pytest.raises(LoweringError) as exc:
        lower_one("void f(co_stream output) {\n"
                  f"  co_stream_write(output, {const});\n}}")
    assert exc.value.code == "RPR-L032"
    assert (exc.value.span.line, exc.value.span.col) == (2, 27)


def test_compound_assignment_ops():
    src = """
void f(co_stream output) {
  uint32 a;
  a = 10;
  a += 5; a -= 2; a *= 3; a /= 2; a %= 11; a <<= 2; a >>= 1; a |= 64; a &= 127; a ^= 3;
  co_stream_write(output, a);
}
"""
    func = lower_one(src)
    _, outs = interp_outputs(func)
    a = 10
    a += 5; a -= 2; a *= 3; a //= 2; a %= 11; a <<= 2; a >>= 1; a |= 64; a &= 127; a ^= 3
    assert outs["output"][0] == a


def test_increment_decrement_statements():
    src = """
void f(co_stream output) {
  uint32 a;
  a = 5;
  a++;
  ++a;
  a--;
  co_stream_write(output, a);
}
"""
    _, outs = interp_outputs(lower_one(src))
    assert outs["output"][0] == 6


def test_if_else_control_flow():
    src = """
void f(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    if (x > 10) { co_stream_write(output, 1); }
    else if (x > 5) { co_stream_write(output, 2); }
    else { co_stream_write(output, 3); }
  }
}
"""
    _, outs = interp_outputs(lower_one(src), {"input": [20, 7, 1]})
    assert outs["output"] == [1, 2, 3]


def test_for_loop_with_break_continue():
    src = """
void f(co_stream output) {
  uint32 i;
  uint32 acc;
  acc = 0;
  for (i = 0; i < 100; i++) {
    if (i == 7) { break; }
    if (i % 2 == 0) { continue; }
    acc += i;
  }
  co_stream_write(output, acc);
}
"""
    _, outs = interp_outputs(lower_one(src))
    assert outs["output"][0] == 1 + 3 + 5


def test_do_while_executes_at_least_once():
    src = """
void f(co_stream output) {
  uint32 i;
  i = 100;
  do { i = i + 1; } while (i < 5);
  co_stream_write(output, i);
}
"""
    _, outs = interp_outputs(lower_one(src))
    assert outs["output"][0] == 101


def test_array_declaration_and_access():
    src = """
void f(co_stream output) {
  uint16 a[4] = {10, 20, 30};
  a[3] = a[0] + a[1];
  co_stream_write(output, a[3] + a[2]);
}
"""
    _, outs = interp_outputs(lower_one(src))
    assert outs["output"][0] == 60


def test_const_array_store_rejected():
    src = """
void f(co_stream output) {
  const uint8 rom[2] = {1, 2};
  rom[0] = 5;
}
"""
    with pytest.raises(LoweringError):
        lower_one(src)


def test_array_size_from_initializer():
    src = "void f(co_stream o) { uint8 a[] = {1,2,3}; co_stream_write(o, a[2]); }"
    func = lower_one(src)
    assert func.arrays["a"].size == 3


def test_too_many_initializers_rejected():
    with pytest.raises(LoweringError):
        lower_one("void f(co_stream o) { uint8 a[2] = {1,2,3}; }")


def test_assert_records_site_metadata():
    src = '#include "co.h"\nvoid f(co_stream o) {\n  uint32 x;\n  x = 1;\n  assert(x > 0);\n}\n'
    func = lower_one(src, filename="meta.c")
    assert len(func.assertion_sites) == 1
    site = func.assertion_sites[0]
    assert site.file == "meta.c"
    assert site.line == 5
    assert site.function == "f"
    assert site.expr_text == "x > 0"
    assert "meta.c" in site.message() and "line 5" in site.message()


def test_ndebug_strips_assert_but_keeps_site():
    src = "void f(co_stream o) { uint32 x; x = 0; assert(x > 0); co_stream_write(o, x); }"
    func = lower_one(src, defines={"NDEBUG": ""})
    assert len(func.assertion_sites) == 1
    assert func.count_ops(OpKind.ASSERT_CHECK) == 0
    result, outs = interp_outputs(func)
    assert result.returned and outs["o"] == [0]


def test_stream_read_requires_address_of_scalar():
    with pytest.raises(LoweringError):
        lower_one("void f(co_stream s) { uint32 x; co_stream_read(s, x); }")


def test_unknown_function_call_rejected():
    with pytest.raises(LoweringError):
        lower_one("void f(co_stream s) { printf(1); }")


def test_undeclared_variable_rejected():
    with pytest.raises(LoweringError):
        lower_one("void f(co_stream s) { x = 1; }")


def test_pipeline_pragma_marks_loop_header():
    src = """
void f(co_stream input, co_stream output) {
  uint32 x;
  #pragma CO PIPELINE
  while (co_stream_read(input, &x)) { co_stream_write(output, x); }
}
"""
    func = lower_one(src)
    assert any(b.pipeline for b in func.blocks.values())


def test_pragma_applies_only_to_next_loop():
    src = """
void f(co_stream input, co_stream output) {
  uint32 x;
  uint32 i;
  #pragma CO PIPELINE
  while (co_stream_read(input, &x)) { co_stream_write(output, x); }
  for (i = 0; i < 3; i++) { co_stream_write(output, i); }
}
"""
    func = lower_one(src)
    pipelined = [b.name for b in func.blocks.values() if b.pipeline]
    assert len(pipelined) == 1


def test_sizeof_type_and_expression():
    assert run_expr("sizeof(uint32)") == 4
    assert run_expr("sizeof(a)", decls="uint64 a;") == 8


def test_ext_hdl_intrinsic_lowered():
    func = lower_one("void f(co_stream o) { co_stream_write(o, ext_hdl(5)); }")
    assert func.count_ops(OpKind.EXT_HDL) == 1


def test_user_variable_named_like_compiler_temp():
    # regression: temps must never collide with user names like c0/t0/s0
    src = """
void f(co_stream output) {
  uint32 c0;
  uint32 t0;
  uint32 s0;
  c0 = 3;
  t0 = c0 > 1 ? 7 : 9;
  s0 = t0 + (c0 > 2);
  co_stream_write(output, s0);
}
"""
    _, outs = interp_outputs(lower_one(src))
    assert outs["output"][0] == 8


def test_unsigned_wraparound_semantics():
    assert run_expr("a - 5", decls="uint32 a;", setup="a = 2;") == (2 - 5) % 2**32


def test_narrow_type_truncates_on_assignment():
    v = run_expr("a", decls="uint5 a;", setup="a = 40;")
    assert v == 40 % 32
