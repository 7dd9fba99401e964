"""Source locations carried through the whole compile pipeline.

A :class:`Span` is the file/line/column coordinate of a diagnostic,
created in the preprocessor or the parser from token positions, and
attached to lowered IR instructions — so an error surfaced by the
scheduler or the RTL simulator can still point at the C line that caused
it (the paper's Section 5.1 "where did it hang" methodology applied to
the toolchain itself).

This module must stay import-free of the rest of :mod:`repro` —
:mod:`repro.errors` imports it, and everything imports ``repro.errors``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Span"]


@dataclass(frozen=True)
class Span:
    """A source location: ``file:line[:col]``, optionally with an extent.

    ``col`` is 1-based like compiler output; 0 means "column unknown".
    ``end_col`` is exclusive; 0 means "no extent known" (renderers then
    underline the token starting at ``col``).
    """

    file: str = "<source>"
    line: int = 0
    col: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        if self.col:
            return f"{self.file}:{self.line}:{self.col}"
        if self.line:
            return f"{self.file}:{self.line}"
        return self.file

    @property
    def known(self) -> bool:
        return bool(self.line)

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "end_col": self.end_col,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "Span | None":
        if not data:
            return None
        return cls(
            file=str(data.get("file", "<source>")),
            line=int(data.get("line", 0)),
            col=int(data.get("col", 0)),
            end_col=int(data.get("end_col", 0)),
        )
