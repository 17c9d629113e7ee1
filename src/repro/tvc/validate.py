"""Behaviour-inclusion validation (paper §6: "the behaviours of the IR
produced by the compiler are a subset of those allowed by Cerberus")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ctypes.implementation import LP64
from ..pipeline import compile_c
from .minir import IRTrap, run_ir
from .translate import translate_main, TvcUnsupported


@dataclass
class TvcReport:
    source: str
    supported: bool
    validated: Optional[bool] = None
    ir_result: Optional[str] = None        # "ret:<n>" or "trap:<why>"
    cerberus_behaviours: List[str] = field(default_factory=list)
    reason: str = ""
    ir_text: str = ""


def validate(source: str, max_paths: int = 64) -> TvcReport:
    """Translate ``source``'s main to IR, run both semantics, and check
    that the IR behaviour is included in Cerberus's behaviour set.

    Undefined behaviour on the Cerberus side licenses anything on the
    IR side (refinement), so a Cerberus-UB program always validates.
    """
    pipeline = compile_c(source, LP64)
    try:
        ir = translate_main(pipeline.ail)
    except TvcUnsupported as exc:
        return TvcReport(source, supported=False, reason=str(exc))
    try:
        ret = run_ir(ir)
        ir_result = f"ret:{ret & 0xFF}"
    except IRTrap as exc:
        ir_result = f"trap:{exc}"
    exploration = pipeline.explore("provenance", max_paths=max_paths)
    behaviours = []
    ub = False
    for outcome in exploration.distinct():
        if outcome.is_ub:
            ub = True
            behaviours.append(f"ub:{outcome.ub.name}")
        elif outcome.status in ("done", "exit"):
            behaviours.append(f"ret:{(outcome.exit_code or 0) & 0xFF}")
        else:
            behaviours.append(outcome.status)
    if ub:
        validated = True   # UB licenses any IR behaviour
    else:
        validated = ir_result in behaviours
    return TvcReport(source, supported=True, validated=validated,
                     ir_result=ir_result,
                     cerberus_behaviours=sorted(behaviours),
                     ir_text=ir.pretty())
