"""Compile-time (translation) faults: defects injected into hardware IR.

These reproduce the paper's Section 5.1 bug class — behaviour that differs
between software simulation and the synthesized circuit because the HLS
tool mistranslated the source. Since our HLS flow is (intentionally)
correct, the defects are *injected* into the hardware-side IR only;
software simulation still executes the clean source semantics, so an
assertion passes in simulation and fails in circuit — exactly the scenario
of the paper's Figure 3.

* :class:`NarrowCompare` — "Impulse-C performs an erroneous 5-bit
  comparison of c2 and c1 … The 64-bit comparison of 4294967286 >
  4294967296 (which evaluates to false) becomes a 5-bit comparison of
  22 > 0 (which evaluates to true)". We tag matching comparison
  instructions with ``force_compare_width``; the cycle model and the
  emitted Verilog then compare only the low bits.

* :class:`ReadForWrite` — the DES hang: "the memory read should have been
  a memory write". A selected store is turned into a read, so the flag the
  loop polls is never written and the process hangs in hardware while
  completing in software simulation.

Every IR fault implements the :class:`Fault` protocol: ``apply(func)``
mutates a hardware-side clone and returns the number of sites hit.
:func:`apply_faults` enforces that each fault matched at least once, so a
stale selector (renamed array, moved source line) fails loudly instead of
silently injecting nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import FaultError
from repro.ir.function import IRFunction
from repro.ir.instr import Instr
from repro.ir.ops import COMPARISONS, OpKind
from repro.ir.verify import verify_function

__all__ = [
    "Fault",
    "FaultError",
    "NarrowCompare",
    "ReadForWrite",
    "apply_faults",
]


@runtime_checkable
class Fault(Protocol):
    """Common protocol of compile-time faults.

    ``apply`` mutates the (already cloned) hardware IR and returns how many
    sites it changed; zero is treated as a misconfiguration by
    :func:`apply_faults`.
    """

    def apply(self, func: IRFunction) -> int: ...


def _coord_line(instr: Instr) -> int | None:
    coord = instr.attrs.get("coord")
    return coord[1] if coord else None


@dataclass(frozen=True)
class NarrowCompare:
    """Truncate matching comparisons to ``width`` bits in hardware.

    ``line`` restricts the fault to comparisons lowered from that source
    line; ``None`` hits every comparison whose operands are wider than
    ``width`` (rarely what an experiment wants, but useful for chaos
    testing).
    """

    width: int = 5
    line: int | None = None

    def apply(self, func: IRFunction) -> int:
        hits = 0
        for block in func.blocks.values():
            for instr in block.instrs:
                if instr.op not in COMPARISONS:
                    continue
                if self.line is not None and _coord_line(instr) != self.line:
                    continue
                if max(a.ty.width for a in instr.args) <= self.width:
                    continue
                instr.attrs["force_compare_width"] = self.width
                hits += 1
        return hits


@dataclass(frozen=True)
class ReadForWrite:
    """Replace a store to ``array`` with a read (write is lost) in hardware."""

    array: str
    line: int | None = None

    def apply(self, func: IRFunction) -> int:
        hits = 0
        for block in func.blocks.values():
            for idx, instr in enumerate(block.instrs):
                if instr.op != OpKind.STORE or instr.attrs.get("array") != self.array:
                    continue
                if self.line is not None and _coord_line(instr) != self.line:
                    continue
                dummy = func.new_temp(func.arrays[self.array].elem, "fault")
                replacement = Instr(
                    OpKind.LOAD,
                    [dummy],
                    [instr.args[0]],
                    {"array": self.array, "coord": instr.attrs.get("coord")},
                )
                block.instrs[idx] = replacement
                hits += 1
        return hits


def apply_faults(func: IRFunction, faults) -> IRFunction:
    """Clone ``func``, apply each fault and verify the faulted copy; raises
    if a fault matched nothing."""
    hw = func.clone()
    for fault in faults:
        hits = fault.apply(hw)
        if hits == 0:
            raise FaultError(f"{fault!r} matched nothing in {func.name!r}", code="RPR-F001")
    verify_function(hw)
    return hw
