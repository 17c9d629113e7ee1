"""The definite-UB linter: static diagnostics ahead of evaluation.

A thin client of :class:`.summary.AbsInterp` — the same abstract run
that computes footprint annotations surfaces, through the interpreter's
hooks, every undefined behaviour the analysis can witness statically:
uninitialized-scalar reads (definite-assignment dataflow), constant
out-of-bounds accesses and pointer arithmetic, over-wide/negative
shifts and other constant-foldable ``undef`` guards, null
dereferences, and unsequenced races between sibling ``unseq``
operands (the paper's §3 question).

Severity is ``definite`` — the abstract path to the fault involved no
approximation (every branch constant-resolved, every offset known), so
*every* execution reaching that point exhibits the behaviour — or
``possible`` otherwise.  Since the memory models disagree on which UB
name a given fault surfaces as (e.g. a constant OOB access is
``Access_out_of_bounds`` under concrete/CHERI but
``Access_wrong_provenance`` under the provenance models), a finding
carries the *candidate* name set; the conformance gate in
``tests/test_statics_lint.py`` checks each definite finding against
the golden verdicts of all five models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import ast as K
from ..source import Loc
from .. import ub as UB
from .summary import AbsInterp, AbsState, analyze_program

_SEV_RANK = {"possible": 0, "definite": 1}

# Candidate UB names for a statically-detected OOB access: the models
# disagree on classification (concrete/cheri report the access itself,
# provenance models a provenance violation, strict faults at the
# earlier out-of-bounds arithmetic).
_OOB_NAMES = (
    UB.ACCESS_OUT_OF_BOUNDS.name,
    UB.ACCESS_WRONG_PROVENANCE.name,
    UB.OUT_OF_BOUNDS_POINTER_ARITHMETIC.name,
)


@dataclass(frozen=True)
class Finding:
    """One source-located static diagnostic.

    ``names`` is the candidate UB-name set (any one of which a memory
    model may report for this fault); ``severity`` is ``"definite"``
    (every execution reaching this point exhibits the behaviour) or
    ``"possible"``."""

    kind: str
    names: Tuple[str, ...]
    loc: Loc
    severity: str
    detail: str

    @property
    def definite(self) -> bool:
        return self.severity == "definite"

    def format(self) -> str:
        names = "|".join(self.names)
        return f"{self.loc}: {self.severity}: {self.detail} [{names}]"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "names": list(self.names),
            "loc": str(self.loc),
            "severity": self.severity,
            "detail": self.detail,
        }


class LintInterp(AbsInterp):
    """The findings-collecting client of the summary framework."""

    def __init__(self, program: K.Program, impl=None) -> None:
        super().__init__(program, impl)
        self._found: Dict[tuple, Finding] = {}

    def _emit(self, kind: str, names: Tuple[str, ...], loc: Loc,
              definite: bool, detail: str) -> None:
        severity = "definite" if definite else "possible"
        key = (kind, names, loc)
        prev = self._found.get(key)
        if prev is None or _SEV_RANK[severity] > _SEV_RANK[prev.severity]:
            self._found[key] = Finding(kind, names, loc, severity,
                                       detail)

    def findings(self) -> List[Finding]:
        return sorted(
            self._found.values(),
            key=lambda f: (f.loc.file, f.loc.line, f.loc.col,
                           f.kind, f.names))

    # -- hooks -------------------------------------------------------------

    def on_undef(self, ub: UB.UBName, loc: Loc,
                 st: AbsState) -> None:
        self._emit("undef", (ub.name,), loc, st.definite,
                   ub.description)

    def on_uninit_load(self, base: str, loc: Loc, definite: bool,
                       st: AbsState) -> None:
        self._emit("uninit-read", (UB.READ_UNINITIALISED.name,), loc,
                   definite,
                   "read of an uninitialized object")

    def on_oob(self, base, off, size, loc: Loc, write: bool,
               st: AbsState) -> None:
        what = "store" if write else "load"
        self._emit("oob", _OOB_NAMES, loc, st.definite,
                   f"out-of-bounds {what} at constant offset {off} "
                   f"(object size {self._obj_size(base)})")

    def on_oob_shift(self, base, off, loc: Loc,
                     st: AbsState) -> None:
        self._emit("oob-arith", _OOB_NAMES, loc, st.definite,
                   f"pointer arithmetic to constant offset {off} "
                   f"outside the object (size {self._obj_size(base)})")

    def on_null_access(self, loc: Loc, st: AbsState) -> None:
        self._emit("null-deref", (UB.NULL_POINTER_DEREF.name,), loc,
                   st.definite, "null pointer dereference")

    def on_race(self, e: K.EUnseq, pair, definite: bool,
                st: AbsState) -> None:
        ra, rb = pair
        what = "write/write" if ra.write and rb.write \
            else "read/write"
        self._emit("unseq-race", (UB.UNSEQUENCED_RACE.name,), e.loc,
                   definite,
                   f"unsequenced {what} conflict on object "
                   f"'{ra.base}'")


def lint_program(program: K.Program, impl=None) -> List[Finding]:
    """All static findings for one elaborated Core program, sorted by
    source location.  Best-effort: analysis failure yields no
    findings, never an exception."""
    report = analyze_program(program, impl, interp_cls=LintInterp)
    return list(report.findings)
