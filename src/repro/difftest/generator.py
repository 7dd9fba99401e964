"""Deterministic seeded program generator over the supported dialect.

Programs are built as a tiny structured AST (so the reducer can shrink
them) and rendered to dialect C accepted by
:func:`repro.frontend.lowering.lower_source`. Every program has the
paper's canonical process shape::

    void dt(co_stream input, co_stream output) {
        <decls>
        while (co_stream_read(input, &x)) { <body> }
        co_stream_close(output);
    }

Generation is a pure function of ``(seed, GenConfig)`` — the only entropy
source is one :class:`random.Random` seeded from those — so campaigns are
reproducible and seed files replayable.

Constraints baked in so that a *correct* toolchain can never diverge on a
generated program (anything the oracle flags is then a real bug):

* array indices are masked to the (power-of-two) array size — the
  interpreter traps out-of-bounds while hardware wraps;
* every divisor and shift amount is a non-zero / in-range constant —
  division by zero raises in all three models but at different "times";
* stream writes are rendered with an explicit ``(uint32)`` cast so the
  interpreter's 64-bit event value matches the 32-bit channel;
* loop bounds are small constants and nesting is bounded, keeping cycle
  counts low enough for lockstep comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

__all__ = ["GenConfig", "Program", "generate", "SCALAR_TYPES"]

#: widths offered for locals — deliberately includes odd widths, which
#: stress the promote-to-32 C conversion rules in both directions
SCALAR_TYPES = (
    "int8", "uint8", "int13", "uint13", "int16", "uint16",
    "int24", "uint24", "int32", "uint32",
)

ARRAY_TYPES = ("uint8", "int16", "uint16", "int32", "uint32")

#: bit patterns worth feeding: sign boundaries at every common width
CORNER_WORDS = (
    0, 1, 2, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
    0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFF3, 0xAAAAAAAA,
)


# ---- mini AST ---------------------------------------------------------------
# Plain mutable dataclasses: the reducer deep-copies programs and edits
# nodes in place, and render() is the only consumer.


@dataclass
class Num:
    value: int

    def render(self) -> str:
        return str(self.value) if self.value >= 0 else f"(-{-self.value})"


@dataclass
class Var:
    name: str

    def render(self) -> str:
        return self.name


@dataclass
class Bin:
    op: str
    left: object
    right: object

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass
class Un:
    op: str
    operand: object

    def render(self) -> str:
        return f"({self.op}{self.operand.render()})"


@dataclass
class Cond:
    cond: object
    iftrue: object
    iffalse: object

    def render(self) -> str:
        return (f"({self.cond.render()} ? {self.iftrue.render()}"
                f" : {self.iffalse.render()})")


@dataclass
class Cast:
    type_name: str
    operand: object

    def render(self) -> str:
        return f"(({self.type_name}){self.operand.render()})"


@dataclass
class Load:
    array: str
    index: object
    mask: int

    def render(self) -> str:
        return f"{self.array}[({self.index.render()} & {self.mask})]"


@dataclass
class Assign:
    var: str
    op: str  # '=', '+=', '^=', ...
    expr: object

    def render(self, indent: str) -> list[str]:
        return [f"{indent}{self.var} {self.op} {self.expr.render()};"]


@dataclass
class Store:
    array: str
    index: object
    mask: int
    expr: object

    def render(self, indent: str) -> list[str]:
        return [f"{indent}{self.array}[({self.index.render()} & "
                f"{self.mask})] = {self.expr.render()};"]


@dataclass
class IfS:
    cond: object
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)

    def render(self, indent: str) -> list[str]:
        lines = [f"{indent}if ({self.cond.render()}) {{"]
        lines += _render_body(self.then, indent + "  ")
        if self.els:
            lines += [f"{indent}}} else {{"]
            lines += _render_body(self.els, indent + "  ")
        lines += [f"{indent}}}"]
        return lines


@dataclass
class ForS:
    var: str
    bound: int
    body: list = field(default_factory=list)

    def render(self, indent: str) -> list[str]:
        v = self.var
        lines = [f"{indent}for ({v} = 0; {v} < {self.bound}; {v}++) {{"]
        lines += _render_body(self.body, indent + "  ")
        lines += [f"{indent}}}"]
        return lines


@dataclass
class Write:
    expr: object

    def render(self, indent: str) -> list[str]:
        # the (uint32) cast is part of the statement's rendering, not the
        # expression tree, so the reducer can never strip it and introduce
        # a spurious 64-vs-32-bit write mismatch
        return [f"{indent}co_stream_write(output, "
                f"(uint32)({self.expr.render()}));"]


@dataclass
class AssertS:
    cond: object

    def render(self, indent: str) -> list[str]:
        return [f"{indent}assert({self.cond.render()});"]


def _render_body(stmts: list, indent: str) -> list[str]:
    out: list[str] = []
    for s in stmts:
        out += s.render(indent)
    return out


# ---- program ----------------------------------------------------------------


@dataclass
class Program:
    """One generated test program plus the stimulus to feed it."""

    seed: int
    decls: dict[str, str]  # var -> dialect type name (insertion order)
    arrays: dict[str, tuple[str, int, tuple[int, ...]]]
    body: list
    feed: tuple[int, ...]
    name: str = "dt"

    def render(self) -> str:
        lines = [f"void {self.name}(co_stream input, co_stream output) {{"]
        lines.append("  uint32 x;")
        for var, ty in self.decls.items():
            lines.append(f"  {ty} {var};")
        for arr, (ety, size, init) in self.arrays.items():
            if init:
                vals = ", ".join(str(v) for v in init)
                lines.append(f"  {ety} {arr}[{size}] = {{{vals}}};")
            else:
                lines.append(f"  {ety} {arr}[{size}];")
        lines.append("  while (co_stream_read(input, &x)) {")
        lines += _render_body(self.body, "    ")
        lines.append("  }")
        lines.append("  co_stream_close(output);")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def stmt_count(self) -> int:
        def count(stmts: list) -> int:
            n = 0
            for s in stmts:
                n += 1
                if isinstance(s, IfS):
                    n += count(s.then) + count(s.els)
                elif isinstance(s, ForS):
                    n += count(s.body)
            return n

        return count(self.body)


# ---- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the generator; hashable so it fingerprints into run ids."""

    max_stmts: int = 8
    max_depth: int = 3        # expression nesting
    max_block_depth: int = 2  # if/for nesting
    arrays: bool = True
    loops: bool = True
    asserts: bool = True
    #: always append a signed division/modulo kernel so every seed
    #: exercises the historical RtlSim sign-extension bug class
    signed_kernel: bool = True
    min_feed: int = 2
    max_feed: int = 6

    def key_parts(self) -> tuple:
        """Every field's value, in declaration order, for the run
        fingerprint: a field added later cannot be left out of it."""
        return tuple(getattr(self, f.name) for f in fields(self))


# ---- generation -------------------------------------------------------------


class _Gen:
    def __init__(self, seed: int, cfg: GenConfig) -> None:
        # seed with a str: Random() hashes it with sha512, which is stable
        # across processes (tuple seeding would go through PYTHONHASHSEED)
        self.rng = random.Random(f"repro-difftest-{seed}")
        self.cfg = cfg
        self.decls: dict[str, str] = {}
        self.arrays: dict[str, tuple[str, int, tuple[int, ...]]] = {}
        self.loop_vars: list[str] = []

    # -- leaves ---------------------------------------------------------------

    def _const(self) -> Num:
        r = self.rng
        pick = r.random()
        if pick < 0.4:
            return Num(r.randint(0, 15))
        if pick < 0.7:
            return Num(r.choice((0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                                 0xFFFF, 0x12345, 0x7FFFFFFF)))
        return Num(-r.randint(1, 1 << 16))

    def _var_ref(self) -> Var:
        pool = ["x", *self.decls, *self.loop_vars]
        return Var(self.rng.choice(pool))

    def _nonzero_divisor(self) -> Num:
        r = self.rng
        mag = r.choice((1, 2, 3, 5, 7, 9, 13, 100, 1000))
        return Num(-mag if r.random() < 0.4 else mag)

    # -- expressions ----------------------------------------------------------

    def expr(self, depth: int = 0):
        r = self.rng
        if depth >= self.cfg.max_depth or r.random() < 0.3:
            return self._var_ref() if r.random() < 0.6 else self._const()
        pick = r.random()
        if pick < 0.50:
            op = r.choice(("+", "-", "*", "&", "|", "^", "+", "-"))
            return Bin(op, self.expr(depth + 1), self.expr(depth + 1))
        if pick < 0.62:
            op = r.choice(("/", "%"))
            return Bin(op, self.expr(depth + 1), self._nonzero_divisor())
        if pick < 0.70:
            op = r.choice(("<<", ">>"))
            return Bin(op, self.expr(depth + 1), Num(r.randint(0, 15)))
        if pick < 0.80:
            op = r.choice(("==", "!=", "<", "<=", ">", ">="))
            return Bin(op, self.expr(depth + 1), self.expr(depth + 1))
        if pick < 0.86:
            op = r.choice(("&&", "||"))
            return Bin(op, self.expr(depth + 1), self.expr(depth + 1))
        if pick < 0.92:
            return Cast(r.choice(SCALAR_TYPES), self.expr(depth + 1))
        if pick < 0.96 and self.arrays:
            arr = r.choice(list(self.arrays))
            _, size, _ = self.arrays[arr]
            return Load(arr, self.expr(depth + 1), size - 1)
        if pick < 0.98:
            return Un(r.choice(("-", "~", "!")), self.expr(depth + 1))
        return Cond(self.expr(depth + 1), self.expr(depth + 1),
                    self.expr(depth + 1))

    # -- statements -----------------------------------------------------------

    def stmt(self, block_depth: int):
        r = self.rng
        pick = r.random()
        # never assign to a loop variable whose loop is still open: the
        # three models would agree on the resulting infinite loop, and a
        # consistent hang is a harness failure, not a divergence
        targets = [d for d in self.decls if d not in self.loop_vars] or ["x"]
        if pick < 0.45 or not self.decls:
            var = r.choice(targets)
            op = r.choice(("=", "=", "=", "+=", "-=", "^=", "|="))
            return Assign(var, op, self.expr())
        if pick < 0.60:
            return Write(self.expr())
        if pick < 0.72 and block_depth < self.cfg.max_block_depth:
            s = IfS(self.expr(1))
            s.then = self.stmts(r.randint(1, 2), block_depth + 1)
            if r.random() < 0.5:
                s.els = self.stmts(r.randint(1, 2), block_depth + 1)
            return s
        if pick < 0.82 and self.cfg.loops and \
                block_depth < self.cfg.max_block_depth:
            lv = f"i{len(self.loop_vars)}"
            self.decls.setdefault(lv, "uint8")
            self.loop_vars.append(lv)
            s = ForS(lv, r.randint(2, 6),
                     self.stmts(r.randint(1, 2), block_depth + 1))
            self.loop_vars.pop()
            return s
        if pick < 0.90 and self.arrays:
            arr = r.choice(list(self.arrays))
            _, size, _ = self.arrays[arr]
            return Store(arr, self.expr(1), size - 1, self.expr())
        if self.cfg.asserts:
            op = self.rng.choice(("<", "<=", ">", ">=", "!=", "=="))
            return AssertS(Bin(op, self.expr(1), self._const()))
        return Assign(r.choice(targets), "=", self.expr())

    def stmts(self, n: int, block_depth: int) -> list:
        return [self.stmt(block_depth) for _ in range(n)]

    # -- whole program --------------------------------------------------------

    def program(self, seed: int) -> Program:
        r = self.rng
        for i in range(r.randint(2, 5)):
            self.decls[f"v{i}"] = r.choice(SCALAR_TYPES)
        if self.cfg.arrays and r.random() < 0.6:
            ety = r.choice(ARRAY_TYPES)
            size = 8
            init = tuple(r.randint(0, 255) for _ in range(r.randint(0, size)))
            self.arrays["a0"] = (ety, size, init)

        body = self.stmts(r.randint(2, self.cfg.max_stmts), 0)
        if self.cfg.signed_kernel:
            sv = "sdk"
            sty = r.choice(("int8", "int16", "int32"))
            self.decls[sv] = sty
            body.append(Assign(
                sv, "=",
                Bin(r.choice(("/", "%")), Cast(sty, Var("x")),
                    self._nonzero_divisor()),
            ))
            body.append(Write(Var(sv)))
        if not any(isinstance(s, Write) for s in body):
            body.append(Write(self._var_ref()))

        n = r.randint(self.cfg.min_feed, self.cfg.max_feed)
        feed = tuple(
            r.choice(CORNER_WORDS) if r.random() < 0.5
            else r.getrandbits(32)
            for _ in range(n)
        )
        return Program(seed=seed, decls=self.decls, arrays=self.arrays,
                       body=body, feed=feed)


def generate(seed: int, cfg: GenConfig | None = None) -> Program:
    """Generate the program for ``seed`` — same seed, same program."""
    cfg = cfg or GenConfig()
    return _Gen(seed, cfg).program(seed)
