"""IR functions (one per hardware process) and modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError
from repro.frontend.ctypes_ import CType
from repro.ir.instr import AssertionSite, BasicBlock, Instr
from repro.ir.ops import OpKind
from repro.ir.values import ArrayDecl, StreamParam, Temp
from repro.utils.idgen import IdGenerator


@dataclass
class IRFunction:
    """A lowered C function: the unit compiled to one FPGA process.

    * ``streams`` — stream parameters, in declaration order.
    * ``scalars`` — every named scalar (parameters and locals) by name.
    * ``arrays``  — local arrays (block-RAM candidates) by name.
    * ``blocks``  — basic blocks in layout order; ``entry`` names the first.
    * ``assertion_sites`` — the ``assert()`` occurrences found during
      lowering, in source order. Their synthesis strategy is decided later
      by :mod:`repro.core`.
    """

    name: str
    streams: list[StreamParam] = field(default_factory=list)
    scalars: dict[str, CType] = field(default_factory=dict)
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    assertion_sites: list[AssertionSite] = field(default_factory=list)
    source_file: str = "<source>"
    ids: IdGenerator = field(default_factory=IdGenerator)
    #: names created by new_temp (compiler temporaries, as opposed to
    #: user-declared C variables) — the assertion parallelizer taps user
    #: variables rather than recomputing arbitrarily deep expression trees
    temp_names: set[str] = field(default_factory=set)

    # ---- construction helpers -------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        name = self.ids.next(hint)
        block = BasicBlock(name)
        self.blocks[name] = block
        return block

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self.blocks:
            raise IRError(f"duplicate block {block.name!r}", code="RPR-I030")
        self.blocks[block.name] = block
        return block

    def new_temp(self, ty: CType, hint: str = "t") -> Temp:
        # compiler temporaries must never collide with user-declared names
        # (a user variable called "c2" is perfectly legal C)
        name = self.ids.next(hint)
        while name in self.scalars or name in self.arrays:
            name = self.ids.next(hint)
        t = Temp(name, ty)
        self.scalars[name] = ty
        self.temp_names.add(name)
        return t

    def declare_scalar(self, name: str, ty: CType) -> Temp:
        if name in self.scalars or name in self.arrays:
            raise IRError(f"redeclaration of {name!r}", code="RPR-I031")
        self.scalars[name] = ty
        return Temp(name, ty)

    def declare_array(self, name: str, elem: CType, size: int) -> ArrayDecl:
        if name in self.scalars or name in self.arrays:
            raise IRError(f"redeclaration of {name!r}", code="RPR-I032")
        arr = ArrayDecl(name, elem, size)
        self.arrays[name] = arr
        return arr

    def mark_shared(self) -> None:
        """Declare this function shared, read-only IR (the frontend memo's
        functions are): from now on :meth:`__str__` and
        :meth:`relocatable_text` print it once and return that text on
        every later call. Neither the mark nor the texts survive
        :meth:`clone` or pickling, so a copy is private, mutable and
        printed afresh."""
        self._shared_text = None
        self._shared_reloc = None

    def clone(self, name: str | None = None) -> "IRFunction":
        """Deep-copy this function (instructions and terminators are fresh
        objects; assertion sites and types are shared immutables). A pass
        that rewrites IR -- assertion synthesis, fault injection -- clones
        first: lowered IR is shared read-only between every application
        built from the same source."""
        import copy as _copy

        other = IRFunction(
            name=name or self.name,
            streams=list(self.streams),
            scalars=dict(self.scalars),
            arrays=dict(self.arrays),
            entry=self.entry,
            assertion_sites=list(self.assertion_sites),
            source_file=self.source_file,
            ids=_copy.deepcopy(self.ids),
            temp_names=set(self.temp_names),
        )
        for bname, block in self.blocks.items():
            nb = BasicBlock(
                bname,
                instrs=[i.copy() for i in block.instrs],
                term=_copy.copy(block.term),
                pipeline=block.pipeline,
            )
            other.blocks[bname] = nb
        return other

    # ---- queries ---------------------------------------------------------

    def block_order(self) -> list[BasicBlock]:
        return list(self.blocks.values())

    def instructions(self):
        for block in self.blocks.values():
            yield from block.instrs

    def stream_names(self) -> list[str]:
        return [s.name for s in self.streams]

    def stream(self, name: str) -> StreamParam:
        for s in self.streams:
            if s.name == name:
                return s
        raise IRError(f"{self.name}: no stream parameter {name!r}", code="RPR-I033")

    def count_ops(self, *kinds: OpKind) -> int:
        wanted = set(kinds)
        return sum(1 for i in self.instructions() if i.op in wanted)

    def array_accesses(self, array: str) -> list[Instr]:
        return [
            i
            for i in self.instructions()
            if i.op in (OpKind.LOAD, OpKind.STORE) and i.attrs.get("array") == array
        ]

    def canonical_text(self) -> str:
        """The canonical printed form of this function.

        This text is the function's *identity* for a sweep point's
        summary: :func:`repro.lab.cache.cache_key` fingerprints it, so it
        must be a pure function of the IR (no ids, memory addresses or
        interpreter state) and must change whenever anything a point
        summary reads changes. It leaves out instruction coords, so it
        keys no synthesized image; per-process artifacts are keyed on
        :meth:`relocatable_text`, which prints them.
        """
        header = (
            f"func {self.name}("
            + ", ".join(map(str, self.streams))
            + ")"
        )
        # ``repr`` prints an array's contents and ``const``, and each site
        # its message text: the instruction printer shows neither
        parts = [header]
        parts += [f"  array {arr!r}" for arr in self.arrays.values()]
        sites = [(s.ordinal, s.expr_text) for s in self.assertion_sites]
        parts.append(f"  sites {sites!r}")
        for block in self.blocks.values():
            parts.append(str(block))
        return "\n".join(parts)

    def relocatable_text(self) -> str:
        """The canonical form of this function *up to relocation*.

        :func:`repro.lab.cache.process_cache_key` fingerprints this text,
        so every instance of one process (the loopback's stages, an
        unedited pipeline) shares one synthesis artifact, which
        :func:`repro.lab.incremental.relocate` moves to each instance. It
        prints everything synthesis consumes -- what
        :meth:`canonical_text` prints plus the entry block, the scalar
        declarations, array contents, the id counters, every instruction
        attribute (coords, latency markers) and the full assertion sites
        -- with the two things an instance changes abstracted
        structurally: the function name prints as ``$func`` wherever the
        header or a site names it, and the source file as ``$file``
        wherever a site or coord names it. A name or file that merely
        starts with either prints literally.
        """
        try:
            text = self._shared_reloc
        except AttributeError:  # not shared: may be rewritten, print anew
            return self._relocatable_text()
        if text is None:
            text = self._shared_reloc = self._relocatable_text()
        return text

    def _relocatable_text(self) -> str:
        name, src = self.name, self.source_file

        def site(s: AssertionSite) -> tuple:
            return (s.ordinal, "$file" if s.file == src else s.file, s.line,
                    "$func" if s.function == name else s.function,
                    s.expr_text)

        def attr(key: str, value: object) -> object:
            if isinstance(value, AssertionSite):
                return site(value)
            if key == "coord" and value and value[0] == src:
                return ("$file", value[1])
            return value

        parts = [
            "func $func(" + ", ".join(map(str, self.streams)) + ")",
            f"  entry {self.entry}",
            f"  scalars {sorted(self.scalars.items())!r}",
            f"  temps {sorted(self.temp_names)!r}",
            f"  ids {self.ids.state()!r}",
            f"  sites {[site(s) for s in self.assertion_sites]!r}",
        ]
        parts += [f"  array {arr!r}" for arr in self.arrays.values()]
        for block in self.blocks.values():
            parts.append(f"{block.name}:"
                         + ("  ; pipeline" if block.pipeline else ""))
            for i in block.instrs:
                dests = ", ".join(map(str, i.dests))
                args = ", ".join(map(str, i.args))
                attrs = sorted((k, attr(k, v)) for k, v in i.attrs.items())
                parts.append(f"  {dests} = {i.op.value} {args} {attrs!r}")
            parts.append(f"  {block.term}")
        return "\n".join(parts)

    def __str__(self) -> str:
        try:
            text = self._shared_text
        except AttributeError:  # not shared: may be rewritten, print anew
            return self.canonical_text()
        if text is None:
            text = self._shared_text = self.canonical_text()
        return text

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_shared_text", None)
        state.pop("_shared_reloc", None)
        return state


@dataclass
class IRModule:
    """A set of functions lowered from one translation unit."""

    functions: dict[str, IRFunction] = field(default_factory=dict)
    source_file: str = "<source>"

    def add(self, func: IRFunction) -> IRFunction:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}", code="RPR-I034")
        self.functions[func.name] = func
        return func

    def __getitem__(self, name: str) -> IRFunction:
        return self.functions[name]
