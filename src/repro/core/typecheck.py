"""A structural well-formedness checker for Core programs.

The paper's elaboration "is total and designed to produce well-typed Core
programs" (§5.1); this checker enforces the structural half of that
property on our Core: every symbol referenced is bound, every ``run``
targets a (statically) enclosing ``save`` with matching arity, case
branches are non-empty, and actions carry the right argument counts.
(A full bTy-level type reconstruction would add little safety on top of
Python's runtime checks, so this deliberately checks binding/arity
structure — the properties whose violation would make the dynamics
raise ``InternalError``.)
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import ast as K

_ACTION_ARITY = {"create": (3, 4), "alloc": (2, 2), "kill": (2, 2),
                 "store": (3, 4), "load": (2, 3), "rmw": (3, 6),
                 # Bit-field member accesses: (ctype, ptr, bit-offset,
                 # width[, value]).
                 "loadbf": (4, 4), "storebf": (5, 5)}


class _Checker:
    def __init__(self, program: K.Program):
        self.program = program
        self.errors: List[str] = []

    def error(self, msg: str, loc) -> None:
        self.errors.append(f"{loc}: {msg}")

    # -- pure ------------------------------------------------------------------

    def pure(self, pe: K.Pexpr, bound: Set[str]) -> None:
        if isinstance(pe, K.PSym):
            if pe.name not in bound:
                self.error(f"unbound Core symbol '{pe.name}'", pe.loc)
        elif isinstance(pe, K.PCtor):
            for a in pe.args:
                self.pure(a, bound)
        elif isinstance(pe, K.PCase):
            self.pure(pe.scrutinee, bound)
            if not pe.branches:
                self.error("empty case", pe.loc)
            for pat, body in pe.branches:
                self.pure(body, bound | _pattern_syms(pat))
        elif isinstance(pe, K.PArrayShift):
            self.pure(pe.ptr, bound)
            self.pure(pe.index, bound)
        elif isinstance(pe, K.PMemberShift):
            self.pure(pe.ptr, bound)
            defn = self.program.tags.get(pe.tag)
            if defn is None or defn.member(pe.member) is None:
                self.error(f"member_shift to unknown "
                           f"{pe.tag}.{pe.member}", pe.loc)
        elif isinstance(pe, K.PNot):
            self.pure(pe.operand, bound)
        elif isinstance(pe, K.PBinop):
            self.pure(pe.lhs, bound)
            self.pure(pe.rhs, bound)
        elif isinstance(pe, (K.PStruct,)):
            for _, v in pe.members:
                self.pure(v, bound)
        elif isinstance(pe, K.PUnion):
            self.pure(pe.value, bound)
        elif isinstance(pe, K.PCall):
            for a in pe.args:
                self.pure(a, bound)
            fun = self.program.funs.get(pe.name)
            if fun is not None and len(fun.params) != len(pe.args):
                self.error(f"pure call arity mismatch for {pe.name}",
                           pe.loc)
        elif isinstance(pe, K.PLet):
            self.pure(pe.bound, bound)
            self.pure(pe.body, bound | _pattern_syms(pe.pat))
        elif isinstance(pe, K.PIf):
            self.pure(pe.cond, bound)
            self.pure(pe.then, bound)
            self.pure(pe.els, bound)

    # -- effectful ---------------------------------------------------------------

    def expr(self, e: K.Expr, bound: Set[str],
             saves: Dict[str, int]) -> None:
        if isinstance(e, K.EPure):
            self.pure(e.pe, bound)
        elif isinstance(e, K.EPtrOp):
            for a in e.args:
                self.pure(a, bound)
        elif isinstance(e, K.EAction):
            self.action(e.action, bound)
        elif isinstance(e, K.ECase):
            self.pure(e.scrutinee, bound)
            if not e.branches:
                self.error("empty case", e.loc)
            for pat, body in e.branches:
                self.expr(body, bound | _pattern_syms(pat), saves)
        elif isinstance(e, K.ELet):
            self.pure(e.bound, bound)
            self.expr(e.body, bound | _pattern_syms(e.pat), saves)
        elif isinstance(e, K.EIf):
            self.pure(e.cond, bound)
            self.expr(e.then, bound, saves)
            self.expr(e.els, bound, saves)
        elif isinstance(e, K.ESkip):
            pass
        elif isinstance(e, K.EProc):
            for a in e.args:
                self.pure(a, bound)
            if e.name not in self.program.procs:
                from ..libc.builtins import NATIVE_PROCS
                if e.name not in NATIVE_PROCS:
                    self.error(f"pcall of unknown procedure {e.name}",
                               e.loc)
        elif isinstance(e, K.ECcall):
            self.pure(e.fn, bound)
            for a in e.args:
                self.pure(a, bound)
        elif isinstance(e, K.EUnseq):
            if len(e.exprs) < 2:
                self.error("unseq with fewer than 2 components", e.loc)
            for sub in e.exprs:
                self.expr(sub, bound, saves)
        elif isinstance(e, (K.EWseq, K.ESseq)):
            self.expr(e.first, bound, saves)
            self.expr(e.second, bound | _pattern_syms(e.pat), saves)
        elif isinstance(e, K.EAtomicSeq):
            self.action(e.first, bound)
            self.action(e.second, bound | {e.sym})
        elif isinstance(e, (K.EIndet, K.EBound)):
            self.expr(e.body, bound, saves)
        elif isinstance(e, K.ENd):
            for sub in e.exprs:
                self.expr(sub, bound, saves)
        elif isinstance(e, K.ESave):
            for _, d in e.params:
                self.pure(d, bound)
            inner = dict(saves)
            inner[e.label] = len(e.params)
            self.expr(e.body, bound | {n for n, _ in e.params}, inner)
        elif isinstance(e, K.ERun):
            for a in e.args:
                self.pure(a, bound)
            if e.label not in saves:
                self.error(f"run of label '{e.label}' with no "
                           "enclosing save", e.loc)
            elif saves[e.label] != len(e.args):
                self.error(f"run {e.label} arity {len(e.args)} != "
                           f"save arity {saves[e.label]}", e.loc)
        elif isinstance(e, K.EPar):
            for sub in e.exprs:
                self.expr(sub, bound, saves)
        elif isinstance(e, K.EWait):
            self.pure(e.thread, bound)
        elif isinstance(e, K.EReturn):
            self.pure(e.pe, bound)
        elif isinstance(e, K.EScope):
            inner_bound = bound | {c.sym for c in e.creates}
            self.expr(e.body, inner_bound, saves)
        elif isinstance(e, K.EVlaCreate):
            self.pure(e.size, bound)
        else:
            self.error(f"unknown Core expression {type(e).__name__}",
                       e.loc)

    def action(self, a: K.Action, bound: Set[str]) -> None:
        arity = _ACTION_ARITY.get(a.kind)
        if arity is None:
            self.error(f"unknown action kind {a.kind}", a.loc)
            return
        lo, hi = arity
        if not (lo <= len(a.args) <= hi):
            self.error(f"action {a.kind} arity {len(a.args)}", a.loc)
        for x in a.args:
            if isinstance(x, K.Pexpr):
                self.pure(x, bound)


def _pattern_syms(pat: K.Pattern) -> Set[str]:
    if isinstance(pat, K.PatSym):
        return {pat.name}
    if isinstance(pat, K.PatCtor):
        out: Set[str] = set()
        for sub in pat.args:
            out |= _pattern_syms(sub)
        return out
    return set()


def typecheck_program(program: K.Program) -> List[str]:
    """Check a Core program; returns a list of error strings (empty when
    well-formed)."""
    checker = _Checker(program)
    globals_bound = {g.name for g in program.globs}
    globals_bound |= set(program.procs)
    from ..libc.builtins import NATIVE_PROCS
    globals_bound |= set(NATIVE_PROCS)
    for fun in program.funs.values():
        checker.pure(fun.body, globals_bound | set(fun.params))
    for proc in program.procs.values():
        checker.expr(proc.body, globals_bound | set(proc.params), {})
    for g in program.globs:
        if g.init is not None:
            checker.expr(g.init, globals_bound, {})
    return checker.errors
