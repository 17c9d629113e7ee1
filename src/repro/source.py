"""Source locations and source-file bookkeeping.

Every token, AST node and diagnostic carries a :class:`Loc` so that errors
and undefined-behaviour reports can point back at the offending C source,
mirroring Cerberus's C-source location annotations (paper, Fig. 2 caption).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Loc:
    """A half-open source region ``[line:col, ...)`` in a named file."""

    file: str = "<unknown>"
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        if self.line <= 0:
            return self.file
        return f"{self.file}:{self.line}:{self.col}"

    @staticmethod
    def unknown() -> "Loc":
        return _UNKNOWN


_UNKNOWN = Loc()


@dataclass
class SourceFile:
    """A source buffer plus the machinery to map offsets to line/column."""

    name: str
    text: str

    def __post_init__(self) -> None:
        self._line_starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def loc_of_offset(self, offset: int) -> Loc:
        """Binary-search the line table for the location of ``offset``."""
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return Loc(self.name, lo + 1, offset - self._line_starts[lo] + 1)
