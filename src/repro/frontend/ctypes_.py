"""C type system with exact bit widths.

The dialect accepted by the toolchain is ANSI C restricted to what the
paper's Impulse-C flow synthesizes, extended with explicit-width integer
type names (``int5``, ``uint33``, ...) mirroring Impulse-C's ``co_intN`` /
``co_uintN``. Exact widths matter twice:

* the resource estimator charges area per bit, and
* the paper's Section 5.1 translation bug is a *width* bug (a 64-bit
  comparison erroneously emitted as a 5-bit comparison), which we can only
  reproduce if widths are first-class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproTypeError

MAX_WIDTH = 64


@dataclass(frozen=True)
class CType:
    """An integer type of exact ``width`` bits, signed or unsigned."""

    width: int
    signed: bool

    def __post_init__(self) -> None:
        if not (1 <= self.width <= MAX_WIDTH):
            raise ReproTypeError(
                f"unsupported width {self.width} (1..{MAX_WIDTH})",
                code="RPR-T001",
            )

    @property
    def name(self) -> str:
        return f"{'int' if self.signed else 'uint'}{self.width}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# Canonical instances for the common widths.
U1 = CType(1, False)
U8 = CType(8, False)
U16 = CType(16, False)
U32 = CType(32, False)
U64 = CType(64, False)
I8 = CType(8, True)
I16 = CType(16, True)
I32 = CType(32, True)
I64 = CType(64, True)

#: Builtin C type spellings -> CType. Multi-keyword forms are normalized by
#: the parser before lookup (sorted keyword order).
BUILTIN_TYPES: dict[str, CType] = {
    "char": I8,
    "signed char": I8,
    "unsigned char": U8,
    "short": I16,
    "short int": I16,
    "unsigned short": U16,
    "int": I32,
    "signed": I32,
    "signed int": I32,
    "unsigned": U32,
    "unsigned int": U32,
    "long": I32,  # ILP32, matching the paper's 32-bit Impulse-C default
    "long int": I32,
    "unsigned long": U32,
    "long long": I64,
    "long long int": I64,
    "unsigned long long": U64,
    "_Bool": U1,
}


def explicit_width_type(name: str) -> CType | None:
    """Parse ``intN``/``uintN`` spellings; return None if not that shape."""
    for prefix, signed in (("uint", False), ("int", True)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            width = int(name[len(prefix):])
            if not (1 <= width <= MAX_WIDTH):
                raise ReproTypeError(
                    f"width out of range in type name {name!r}",
                    code="RPR-T002",
                    hint=f"widths 1..{MAX_WIDTH} are synthesizable",
                )
            return CType(width, signed)
    return None


def lookup_type(name: str) -> CType:
    """Resolve a type spelling to a :class:`CType` or raise."""
    if name in BUILTIN_TYPES:
        return BUILTIN_TYPES[name]
    t = explicit_width_type(name)
    if t is not None:
        return t
    raise ReproTypeError(
        f"unknown type {name!r}",
        code="RPR-T003",
        hint="supported: the C integer types and intN/uintN (N = 1..64)",
    )


def common_type(a: CType, b: CType) -> CType:
    """The usual arithmetic conversions, restricted to our integer types.

    Both operands are promoted to at least ``int`` (32 bits) and then to the
    wider of the two; unsignedness wins at equal width, as in C.
    """
    width = max(a.width, b.width, 32)
    if a.width == b.width and a.width >= 32:
        signed = a.signed and b.signed
    else:
        wider, narrower = (a, b) if a.width > b.width else (b, a)
        if wider.width >= 32:
            signed = wider.signed
        else:
            signed = True  # both promoted to int
        if a.width == b.width:
            signed = a.signed and b.signed
        _ = narrower
    return CType(width, signed)


def all_dialect_typedef_names() -> list[str]:
    """Every ``intN``/``uintN`` name: the parser lexes these as type names."""
    names = []
    for width in range(1, MAX_WIDTH + 1):
        names.append(f"int{width}")
        names.append(f"uint{width}")
    return names
