"""Bottom-up static action summaries over elaborated Core.

One abstract interpretation of a Core program (entered at ``main``,
inlining direct calls to a bounded depth) drives both clients in this
package: per-``unseq`` footprint/purity annotations for the explorer's
static pre-pruning, and the definite-UB findings of :mod:`.lint`.

The abstract value domain mirrors the evaluator's value domain with a
flat ⊤: mathematical-integer/boolean/ctype constants, ``Specified`` /
``Unspecified`` wrappers, tuples, function designators, the null
pointer, and — the load-bearing case — *object-relative pointers*
``("ptr", base_sym, offset)`` whose base is the Core symbol an
``EScope`` create (or a global definition) bound.  Every memory action
whose target resolves to such a pointer contributes an
object-relative byte range to the enclosing summaries; everything
else degrades to ⊤ exactly where the dynamic machinery would treat it
as dependent-on-everything.

See the package docstring for the lattice, cache-keying and soundness
contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import ast as K
from ..core.ast import collect_unseqs
from ..ctypes.types import CType, Integer
from ..source import Loc
from .. import ub as UB
from ..ub import UndefinedBehaviour

TOP = ("top",)
UNIT = ("unit",)
UNSPEC = ("unspec",)
NULL = ("null",)

# Native procedures that terminate the program: control never returns,
# so an opaque call to one ends the abstract path instead of
# havocking it.
_NORETURN = {"exit", "abort", "_Exit", "__cerberus_assert_fail"}


# --------------------------------------------------------------------------
# Summaries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ARange:
    """One object-relative byte range touched by a subterm.

    ``base`` is the Core symbol of the object (an ``EScope`` create or
    a global); ``off``/``size`` are byte offsets within it, ``None``
    meaning statically unknown (⊤ — resolved to the whole object at
    run time).  ``definite`` says the access executes on every run
    that reaches the enclosing term; ``region`` says it happened
    inside an indeterminately-sequenced function call (exempt from
    the unsequenced-race UB, §5.6 point 6)."""

    base: Optional[str]
    off: Optional[int]
    size: Optional[int]
    write: bool
    definite: bool = True
    region: bool = False


@dataclass(frozen=True)
class StaticSummary:
    """The action summary of one subterm (see package docstring for
    the lattice)."""

    ranges: Tuple[ARange, ...] = ()
    barrier: bool = False
    fault: bool = False
    actions: bool = False


class _Sink:
    """A mutable summary under construction; every notification
    reaches all sinks on the stack, so summaries nest for free."""

    __slots__ = ("ranges", "barrier", "fault", "actions")

    def __init__(self) -> None:
        self.ranges: List[ARange] = []
        self.barrier = False
        self.fault = False
        self.actions = False

    def summary(self) -> StaticSummary:
        ranges = self.ranges
        if len(ranges) > 16:
            # Collapse pathological range lists per (base, write):
            # whole-object hulls keep the pairwise test linear.
            merged = {}
            for r in ranges:
                key = (r.base, r.write)
                prev = merged.get(key)
                merged[key] = ARange(
                    r.base, None, None, r.write,
                    r.definite and (prev is None or prev.definite),
                    r.region and (prev is None or prev.region))
            ranges = list(merged.values())
        return StaticSummary(tuple(ranges), self.barrier, self.fault,
                             self.actions)


def ranges_may_overlap(a: ARange, b: ARange) -> bool:
    """Whether two ranges may touch a common byte (⊤ components are
    assumed to overlap; distinct known bases never do)."""
    if a.base is None or b.base is None:
        return True
    if a.base != b.base:
        return False
    if a.off is None or a.size is None or b.off is None \
            or b.size is None:
        return True
    return a.off < b.off + b.size and b.off < a.off + a.size


def summaries_conflict(a: StaticSummary, b: StaticSummary) -> bool:
    """Whether two sibling summaries may contain a conflicting pair
    (overlapping ranges, at least one a write)."""
    for ra in a.ranges:
        for rb in b.ranges:
            if not (ra.write or rb.write):
                continue
            if ranges_may_overlap(ra, rb):
                return True
    return False


def _commutes(children: List[StaticSummary]) -> bool:
    """Whether all interleavings of the children are equivalent to the
    sequential order: no barrier child, pairwise non-conflicting, and
    at most one child that may fault (two possibly-faulting children
    could surface either UB depending on schedule)."""
    if len(children) < 2:
        return False
    if any(c.barrier for c in children):
        return False
    if sum(1 for c in children if c.fault) > 1:
        return False
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            if summaries_conflict(children[i], children[j]):
                return False
    return True


def _child_info(s: StaticSummary):
    """The runtime-facing classification of one unseq child:
    ``None`` (⊤ — trust nothing), ``"pure"`` (completes without an
    action), or a tuple of ``(base, off, size, write)`` ranges whose
    bases are all known."""
    if s.barrier or s.fault:
        return None
    if not s.actions:
        return "pure"
    out = []
    for r in s.ranges:
        if r.base is None:
            return None
        out.append((r.base, r.off, r.size, r.write))
    return tuple(out)


def _merge_child_info(a, b):
    if a is None or b is None:
        return None
    if a == "pure" and b == "pure":
        return "pure"
    if a == "pure" or b == "pure":
        # One context pure, another performing actions: keep the
        # union of ranges (a pure execution touches a subset).
        return a if b == "pure" else b
    return tuple(dict.fromkeys(a + b))


def _merge_unseq_info(a, b):
    """Join annotations of one ``unseq`` node reached in several
    calling contexts — the merged claim must hold for all of them."""
    if a is None or b is None:
        return None
    ac, ach = a
    bc, bch = b
    if len(ach) != len(bch):
        return None
    return (ac and bc,
            tuple(_merge_child_info(x, y) for x, y in zip(ach, bch)))


# --------------------------------------------------------------------------
# Runtime resolution (consumed by the evaluator / POR scheduler)
# --------------------------------------------------------------------------

def resolve_hull(info, env, global_env, model):
    """Resolve one annotated child classification against the live
    environment: ``(addr, size, is_write)`` — the convex hull over the
    child's ranges, a superset of its next action's footprint — or
    ``(0, 0, False)`` for a pure child, or ``None`` when any base
    fails to resolve.  A zero-size footprint conflicts with nothing
    (matching :data:`~repro.dynamics.explore.por.PURE`)."""
    if info is None:
        return None
    if info == "pure":
        return (0, 0, False)
    lo = None
    hi = None
    write = False
    for base, off, size, wr in info:
        v = env.get(base)
        if v is None:
            v = global_env.get(base)
        ptr = getattr(v, "ptr", None)
        if ptr is None:
            return None
        if off is None or size is None:
            alloc = model.allocations.get(ptr.prov)
            if alloc is None:
                return None
            a, s = alloc.base, alloc.size
        else:
            a, s = ptr.addr + off, size
        lo = a if lo is None else min(lo, a)
        hi = a + s if hi is None else max(hi, a + s)
        write = write or wr
    if lo is None:
        return (0, 0, False)
    return (lo, hi - lo, write)


# --------------------------------------------------------------------------
# Abstract state
# --------------------------------------------------------------------------

# Cell states: "uninit" | "partial" | "init" | "maybe" | ("val", av)
_CELL_RANK = {"uninit": 0, "partial": 1, "init": 2, "maybe": 3}


def _join_cell(a, b):
    if a == b:
        return a
    at = a if isinstance(a, str) else "val"
    bt = b if isinstance(b, str) else "val"
    if at == "val" and bt == "val":
        return "init"
    if "uninit" in (at, bt) or "maybe" in (at, bt):
        # Joining a possibly-uninitialized side with anything else
        # leaves the whole object possibly uninitialized.
        return "maybe" if at != bt else a
    if "partial" in (at, bt):
        return "partial"
    return "init"


def _join_av(a, b):
    if a == b:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple) and a and b:
        if a[0] == "ptr" and b[0] == "ptr" and a[1] == b[1]:
            return ("ptr", a[1], a[2] if a[2] == b[2] else None)
        if a[0] == "spec" and b[0] == "spec":
            return ("spec", _join_av(a[1], b[1]))
        if a[0] == "tuple" and b[0] == "tuple" \
                and len(a[1]) == len(b[1]):
            return ("tuple", tuple(_join_av(x, y)
                                   for x, y in zip(a[1], b[1])))
    return TOP


class AbsState:
    """The threaded dataflow state: per-object cells, definiteness of
    the current path, reachability, seen-uninit flag, and pending
    ``run`` jumps (label -> joined (args, state))."""

    __slots__ = ("cells", "definite", "reachable", "uninit_seen",
                 "jumps")

    def __init__(self) -> None:
        self.cells: Dict[str, object] = {}
        self.definite = True
        self.reachable = True
        self.uninit_seen = False
        self.jumps: Dict[str, tuple] = {}

    def copy(self) -> "AbsState":
        st = AbsState.__new__(AbsState)
        st.cells = dict(self.cells)
        st.definite = self.definite
        st.reachable = self.reachable
        st.uninit_seen = self.uninit_seen
        st.jumps = dict(self.jumps)
        return st

    def absorb(self, other: "AbsState") -> None:
        """In-place join with a sibling branch's exit state."""
        self.uninit_seen = self.uninit_seen or other.uninit_seen
        for label, rec in other.jumps.items():
            self.jumps[label] = _join_jump(self.jumps.get(label), rec)
        if not other.reachable:
            return
        if not self.reachable:
            self.cells = other.cells
            self.definite = other.definite
            self.reachable = True
            return
        cells = {}
        for key in set(self.cells) | set(other.cells):
            a = self.cells.get(key)
            b = other.cells.get(key)
            if a is None or b is None:
                cells[key] = a if b is None else b
            else:
                cells[key] = _join_cell(a, b)
        self.cells = cells
        self.definite = self.definite and other.definite

    def havoc(self, readonly=()) -> None:
        for key, cell in list(self.cells.items()):
            if key in readonly:
                continue
            # An opaque callee may overwrite but cannot un-initialize.
            self.cells[key] = "init" if cell in ("init", "partial") \
                or not isinstance(cell, str) else _join_cell(cell,
                                                             "init")


def _join_jump(a, b):
    if a is None:
        return b
    if b is None:
        return a
    aargs, ast_ = a
    bargs, bst = b
    args = tuple(_join_av(x, y) for x, y in zip(aargs, bargs))
    st = ast_.copy()
    st.absorb(bst)
    return (args, st)


class _Budget(Exception):
    """Raised when the per-program analysis step budget is exhausted;
    findings so far are kept, annotations are discarded (a partial
    walk may have missed a context that would degrade a join)."""


@dataclass
class StaticsReport:
    """The result of one whole-program analysis."""

    findings: List[object] = field(default_factory=list)
    unseq_info: Dict[int, object] = field(default_factory=dict)
    annotated: int = 0
    complete: bool = True


# --------------------------------------------------------------------------
# The abstract interpreter
# --------------------------------------------------------------------------

class AbsInterp:
    """One abstract execution of a Core program from ``main``.

    Control flow mirrors the evaluator: sequencing threads the state,
    branches fork and join it, ``save``/``run`` iterate to a small
    bound then havoc, direct calls inline to a bounded depth and
    anything else is opaque (barrier + havoc).  Subclass hooks receive
    findings-grade events; the sink stack collects action summaries
    for every enclosing ``unseq`` child."""

    MAX_STEPS = 300_000
    CALL_DEPTH = 8
    LOOP_ITERS = 3

    def __init__(self, program: K.Program,
                 impl=None) -> None:
        from ..dynamics.evaluator import Evaluator   # lazy: no cycle
        self.program = program
        self.impl = impl if impl is not None else program.impl
        self.tags = program.tags
        native = Evaluator.__new__(Evaluator)
        native.program = program
        native.impl = self.impl
        native.tags = self.tags
        self._native = native
        self.obj_types: Dict[str, CType] = {}
        self._readonly: set = set()
        self._sinks: List[_Sink] = []
        self._region_depth = 0
        self._callstack: List[str] = []
        self._ret_stack: List[list] = []
        self._steps = self.MAX_STEPS
        self._unseq_info: Dict[int, object] = {}
        self._sizeof_cache: Dict[CType, Optional[int]] = {}

    # -- driving ----------------------------------------------------------

    def analyze(self) -> StaticsReport:
        report = StaticsReport()
        st = AbsState()
        try:
            self._setup_globals(st)
            main = self.program.procs.get(self.program.main)
            if main is not None:
                args = [TOP] * len(main.params)
                self._inline(main, args, st, region=False)
            report.unseq_info = dict(self._unseq_info)
            report.annotated = len(self._unseq_info)
        except _Budget:
            report.complete = False
            report.unseq_info = {}
        except Exception:
            # The analysis is best-effort: any internal surprise
            # yields an empty (sound) report, never a crash.
            report.complete = False
            report.unseq_info = {}
            report.findings = []
            return report
        report.findings = self.findings()
        return report

    def findings(self) -> List[object]:
        return []

    def _tick(self) -> None:
        self._steps -= 1
        if self._steps <= 0:
            raise _Budget()

    def _setup_globals(self, st: AbsState) -> None:
        for g in self.program.globs:
            ty = g.qty.ty
            self.obj_types[g.name] = ty
            if isinstance(ty, Integer):
                st.cells[g.name] = ("val", ("spec", ("int", 0)))
            else:
                st.cells[g.name] = "init"
        for g in self.program.globs:
            if g.init is not None:
                self.eval_expr(g.init, {}, st)
        for g in self.program.globs:
            if g.readonly:
                self._readonly.add(g.name)

    # -- hooks (overridden by the lint client) ----------------------------

    def on_undef(self, ub: UB.UBName, loc: Loc, st: AbsState) -> None:
        pass

    def on_uninit_load(self, base: str, loc: Loc, definite: bool,
                       st: AbsState) -> None:
        pass

    def on_oob(self, base, off, size, loc: Loc, write: bool,
               st: AbsState) -> None:
        pass

    def on_oob_shift(self, base, off, loc: Loc, st: AbsState) -> None:
        pass

    def on_null_access(self, loc: Loc, st: AbsState) -> None:
        pass

    def on_race(self, e: K.EUnseq, pair, definite: bool,
                st: AbsState) -> None:
        pass

    # -- sink notifications ----------------------------------------------

    def _note_range(self, base, off, size, write, st) -> None:
        if self._sinks:
            r = ARange(base, off, size, write,
                       definite=st.definite,
                       region=self._region_depth > 0)
            for s in self._sinks:
                s.ranges.append(r)
                s.actions = True

    def _note_barrier(self) -> None:
        for s in self._sinks:
            s.barrier = True
            s.actions = True

    def _note_fault(self) -> None:
        for s in self._sinks:
            s.fault = True

    # -- helpers ----------------------------------------------------------

    def _sizeof(self, ty) -> Optional[int]:
        if not isinstance(ty, CType):
            return None
        if ty not in self._sizeof_cache:
            try:
                self._sizeof_cache[ty] = self.impl.sizeof(ty, self.tags)
            except Exception:
                self._sizeof_cache[ty] = None
        return self._sizeof_cache[ty]

    def _obj_size(self, base: Optional[str]) -> Optional[int]:
        if base is None:
            return None
        return self._sizeof(self.obj_types.get(base))

    @staticmethod
    def _ptr_parts(av):
        """``(base, off)`` of a (possibly Specified-wrapped) abstract
        pointer, ``("null", None)`` for null, else ``(None, None)``."""
        if isinstance(av, tuple):
            if av[0] == "spec":
                return AbsInterp._ptr_parts(av[1])
            if av[0] == "ptr":
                return av[1], av[2]
            if av[0] == "null":
                return "null", None
        return None, None

    @contextmanager
    def _possible(self, st: AbsState):
        saved = st.definite
        st.definite = False
        try:
            yield
        finally:
            st.definite = saved and st.definite

    # -- abstract values of runtime constants -----------------------------

    def absof(self, value) -> tuple:
        from ..dynamics import values as V
        if isinstance(value, V.VInteger):
            return ("int", value.ival.value)
        if isinstance(value, V.VBool):
            return ("bool", value.b)
        if isinstance(value, V.VCtype):
            return ("ctype", value.ty)
        if isinstance(value, V.VSpecified):
            return ("spec", self.absof(value.value))
        if isinstance(value, V.VUnspecified):
            return UNSPEC
        if isinstance(value, V.VTuple):
            return ("tuple", tuple(self.absof(v)
                                   for v in value.items))
        if isinstance(value, V.VUnit):
            return UNIT
        if isinstance(value, V.VFunction):
            return ("fn", value.name)
        if isinstance(value, V.VPointer):
            if value.ptr.addr == 0:
                return NULL
            meta = value.ptr.meta
            if isinstance(meta, tuple) and meta \
                    and meta[0] == "func":
                return ("fn", meta[1])
            return TOP
        return TOP

    def concretize(self, av):
        from ..dynamics import values as V
        from ..memory.values import IntegerValue
        if not isinstance(av, tuple):
            return None
        if av[0] == "int":
            return V.VInteger(IntegerValue(av[1]))
        if av[0] == "bool":
            return V.TRUE if av[1] else V.FALSE
        if av[0] == "ctype":
            return V.VCtype(av[1])
        if av[0] == "spec":
            inner = self.concretize(av[1])
            return None if inner is None else V.VSpecified(inner)
        if av[0] == "tuple":
            items = [self.concretize(x) for x in av[1]]
            if any(i is None for i in items):
                return None
            return V.VTuple(tuple(items))
        if av[0] == "unit":
            return V.UNIT
        return None

    # -- pattern matching --------------------------------------------------

    def match_abs(self, pat: K.Pattern, av):
        """Three-valued abstract match: ``("yes"|"no"|"maybe",
        bindings)``."""
        if isinstance(pat, K.PatWild):
            return "yes", {}
        if isinstance(pat, K.PatSym):
            return "yes", {pat.name: av}
        assert isinstance(pat, K.PatCtor)
        ctor = pat.ctor
        known = isinstance(av, tuple) and av[0] != "top"
        if ctor == "Specified":
            if known and av[0] == "spec":
                return self.match_abs(pat.args[0], av[1])
            if known and av[0] in ("unspec",):
                return "no", {}
            if known and av[0] in ("ptr", "null", "fn", "int",
                                   "bool"):
                # A bare (unwrapped) value never matches Specified
                # patterns in elaborated code; be conservative.
                return "maybe", self._top_bindings(pat)
            return "maybe", self._top_bindings(pat)
        if ctor == "Unspecified":
            if known and av[0] == "unspec":
                return "yes", self._top_bindings(pat)
            if known and av[0] == "spec":
                return "no", {}
            return "maybe", self._top_bindings(pat)
        if ctor == "Tuple":
            if known and av[0] == "tuple" \
                    and len(av[1]) == len(pat.args):
                kind = "yes"
                bindings: Dict[str, object] = {}
                for sub, sav in zip(pat.args, av[1]):
                    k, b = self.match_abs(sub, sav)
                    if k == "no":
                        return "no", {}
                    if k == "maybe":
                        kind = "maybe"
                    bindings.update(b)
                return kind, bindings
            return "maybe", self._top_bindings(pat)
        if ctor in ("True", "False"):
            if known and av[0] == "bool":
                return ("yes", {}) if av[1] == (ctor == "True") \
                    else ("no", {})
            return "maybe", {}
        if ctor == "Unit":
            if known:
                return ("yes", {}) if av == UNIT else ("no", {})
            return "maybe", {}
        return "maybe", self._top_bindings(pat)

    def _top_bindings(self, pat: K.Pattern) -> Dict[str, object]:
        out: Dict[str, object] = {}

        def walk(p):
            if isinstance(p, K.PatSym):
                out[p.name] = TOP
            elif isinstance(p, K.PatCtor):
                for sub in p.args:
                    walk(sub)
        walk(pat)
        return out

    # -- pure evaluation ---------------------------------------------------

    def eval_pure(self, pe: K.Pexpr, env: Dict[str, object],
                  st: AbsState):
        self._tick()
        if isinstance(pe, K.PSym):
            v = env.get(pe.name)
            if v is not None:
                return v
            if pe.name in self.obj_types:
                return ("ptr", pe.name, 0)
            if pe.name in self.program.procs:
                return ("fn", pe.name)
            return TOP
        if isinstance(pe, K.PVal):
            return self.absof(pe.value)
        if isinstance(pe, K.PImpl):
            value = self.program.impl_constants.get(pe.name)
            return TOP if value is None else self.absof(value)
        if isinstance(pe, K.PUndef):
            self._note_fault()
            self.on_undef(pe.ub, pe.loc, st)
            if st.definite:
                st.reachable = False
            return TOP
        if isinstance(pe, K.PError):
            self._note_fault()
            if st.definite:
                st.reachable = False
            return TOP
        if isinstance(pe, K.PCtor):
            return self._ctor(pe, env, st)
        if isinstance(pe, K.PCase):
            return self._case(pe.scrutinee, pe.branches, env, st,
                              self.eval_pure)
        if isinstance(pe, K.PArrayShift):
            return self._array_shift(pe, env, st)
        if isinstance(pe, K.PMemberShift):
            return self._member_shift(pe, env, st)
        if isinstance(pe, K.PNot):
            v = self.eval_pure(pe.operand, env, st)
            if isinstance(v, tuple) and v[0] == "bool":
                return ("bool", not v[1])
            return TOP
        if isinstance(pe, K.PBinop):
            return self._binop(pe, env, st)
        if isinstance(pe, K.PLet):
            bound = self.eval_pure(pe.bound, env, st)
            _, bindings = self.match_abs(pe.pat, bound)
            env2 = dict(env)
            env2.update(bindings)
            return self.eval_pure(pe.body, env2, st)
        if isinstance(pe, K.PIf):
            cond = self.eval_pure(pe.cond, env, st)
            if isinstance(cond, tuple) and cond[0] == "bool":
                return self.eval_pure(pe.then if cond[1] else pe.els,
                                      env, st)
            with self._possible(st):
                a = self.eval_pure(pe.then, env, st)
                b = self.eval_pure(pe.els, env, st)
            return _join_av(a, b)
        if isinstance(pe, K.PCall):
            return self._pure_call(pe, env, st)
        return TOP

    def _ctor(self, pe: K.PCtor, env, st):
        ctor = pe.ctor
        if ctor == "Specified":
            return ("spec", self.eval_pure(pe.args[0], env, st))
        if ctor == "Unspecified":
            self.eval_pure(pe.args[0], env, st)
            return UNSPEC
        if ctor == "Tuple":
            return ("tuple", tuple(self.eval_pure(a, env, st)
                                   for a in pe.args))
        for a in pe.args:
            self.eval_pure(a, env, st)
        if ctor == "True":
            return ("bool", True)
        if ctor == "False":
            return ("bool", False)
        if ctor == "Unit":
            return UNIT
        return TOP

    def _case(self, scrutinee, branches, env, st, eval_branch):
        scrut = self.eval_pure(scrutinee, env, st)
        live = []
        for pat, body in branches:
            kind, bindings = self.match_abs(pat, scrut)
            if kind == "no":
                continue
            live.append((kind, bindings, body))
            if kind == "yes":
                break
        if not live:
            return TOP
        if len(live) == 1 and live[0][0] == "yes":
            _, bindings, body = live[0]
            env2 = dict(env)
            env2.update(bindings)
            return eval_branch(body, env2, st)
        result = None
        exits = []
        base_st = st
        for _, bindings, body in live:
            env2 = dict(env)
            env2.update(bindings)
            branch_st = base_st.copy()
            branch_st.definite = False
            v = eval_branch(body, env2, branch_st)
            result = v if result is None else _join_av(result, v)
            exits.append(branch_st)
        merged = exits[0]
        for other in exits[1:]:
            merged.absorb(other)
        st.cells = merged.cells
        st.reachable = merged.reachable
        st.uninit_seen = merged.uninit_seen
        st.jumps = merged.jumps
        # A forked branch can never make the path *more* definite.
        st.definite = st.definite and merged.definite
        return result if result is not None else TOP

    def _array_shift(self, pe: K.PArrayShift, env, st):
        ptr = self.eval_pure(pe.ptr, env, st)
        idx = self.eval_pure(pe.index, env, st)
        base, off = self._ptr_parts(ptr)
        elem = self._sizeof(pe.elem_ty)
        if base is None or base == "null":
            self._note_fault()
            return TOP
        if off is None or elem is None or not (
                isinstance(idx, tuple) and idx[0] == "int"):
            self._note_fault()
            return ("ptr", base, None)
        new_off = off + idx[1] * elem
        objsize = self._obj_size(base)
        if objsize is None:
            self._note_fault()
        elif not (0 <= new_off <= objsize):
            # One-past-the-end is fine for the shift itself; beyond
            # it the strict model faults at the shift (§6.5.6).
            self._note_fault()
            self.on_oob_shift(base, new_off, pe.loc, st)
        return ("ptr", base, new_off)

    def _member_shift(self, pe: K.PMemberShift, env, st):
        ptr = self.eval_pure(pe.ptr, env, st)
        base, off = self._ptr_parts(ptr)
        if base is None or base == "null":
            self._note_fault()
            return TOP
        delta: Optional[int]
        try:
            # field_layout resolves the tag's own kind (struct members
            # at their laid-out offsets, union members all at 0).
            delta = self.impl.field_layout(pe.tag, pe.member,
                                           self.tags).offset
        except Exception:
            delta = None
        if off is None or delta is None:
            return ("ptr", base, None)
        return ("ptr", base, off + delta)

    def _binop(self, pe: K.PBinop, env, st):
        op = pe.op
        a = self.eval_pure(pe.lhs, env, st)
        if op in ("/\\", "\\/"):
            if isinstance(a, tuple) and a[0] == "bool":
                if op == "/\\" and not a[1]:
                    return ("bool", False)
                if op == "\\/" and a[1]:
                    return ("bool", True)
                return self.eval_pure(pe.rhs, env, st)
            self.eval_pure(pe.rhs, env, st)
            return TOP
        b = self.eval_pure(pe.rhs, env, st)
        if isinstance(a, tuple) and isinstance(b, tuple):
            if a[0] == "int" and b[0] == "int":
                ia, ib = a[1], b[1]
                if op in ("==", "!=", "<", "<=", ">", ">="):
                    table = {"==": ia == ib, "!=": ia != ib,
                             "<": ia < ib, "<=": ia <= ib,
                             ">": ia > ib, ">=": ia >= ib}
                    return ("bool", table[op])
                try:
                    return ("int", self._native._int_math(op, ia, ib,
                                                          pe.loc))
                except UndefinedBehaviour as exc:
                    self._note_fault()
                    self.on_undef(exc.ub, pe.loc, st)
                    if st.definite:
                        st.reachable = False
                    return TOP
                except Exception:
                    return TOP
            if a[0] == "bool" and b[0] == "bool":
                if op == "==":
                    return ("bool", a[1] == b[1])
                if op == "!=":
                    return ("bool", a[1] != b[1])
        return TOP

    def _pure_call(self, pe: K.PCall, env, st):
        name = pe.name
        fun = self.program.funs.get(name)
        args = [self.eval_pure(a, env, st) for a in pe.args]
        if fun is not None:
            if name in self._callstack \
                    or len(self._callstack) >= self.CALL_DEPTH:
                return TOP
            self._callstack.append(name)
            try:
                env2 = dict(zip(fun.params, args))
                return self.eval_pure(fun.body, env2, st)
            finally:
                self._callstack.pop()
        values = [self.concretize(a) for a in args]
        if any(v is None for v in values):
            return TOP
        try:
            return self.absof(self._native._native_pure(name, values,
                                                        pe))
        except UndefinedBehaviour as exc:
            self._note_fault()
            self.on_undef(exc.ub, pe.loc, st)
            if st.definite:
                st.reachable = False
            return TOP
        except Exception:
            return TOP

    # -- effectful evaluation ----------------------------------------------

    def eval_expr(self, e: K.Expr, env: Dict[str, object],
                  st: AbsState):
        self._tick()
        if not st.reachable:
            return TOP
        if isinstance(e, K.EPure):
            return self.eval_pure(e.pe, env, st)
        if isinstance(e, K.EAction):
            return self._do_action(e.action, env, st)
        if isinstance(e, K.ECase):
            return self._case(e.scrutinee, e.branches, env, st,
                              self.eval_expr)
        if isinstance(e, K.ELet):
            bound = self.eval_pure(e.bound, env, st)
            _, bindings = self.match_abs(e.pat, bound)
            env2 = dict(env)
            env2.update(bindings)
            return self.eval_expr(e.body, env2, st)
        if isinstance(e, K.EIf):
            cond = self.eval_pure(e.cond, env, st)
            if isinstance(cond, tuple) and cond[0] == "bool":
                return self.eval_expr(e.then if cond[1] else e.els,
                                      env, st)
            a_st = st.copy()
            a_st.definite = False
            b_st = st.copy()
            b_st.definite = False
            a = self.eval_expr(e.then, env, a_st)
            b = self.eval_expr(e.els, env, b_st)
            a_st.absorb(b_st)
            st.cells = a_st.cells
            st.reachable = a_st.reachable
            st.uninit_seen = a_st.uninit_seen
            st.jumps = a_st.jumps
            st.definite = st.definite and a_st.definite
            return _join_av(a, b)
        if isinstance(e, K.ESkip):
            return UNIT
        if isinstance(e, K.EProc):
            args = [self.eval_pure(a, env, st) for a in e.args]
            return self._call(e.name, args, st, region=False)
        if isinstance(e, K.ECcall):
            fn = self.eval_pure(e.fn, env, st)
            args = [self.eval_pure(a, env, st) for a in e.args]
            if isinstance(fn, tuple) and fn[0] == "spec":
                fn = fn[1]
            if isinstance(fn, tuple) and fn[0] == "fn":
                return self._call(fn[1], args, st, region=True)
            return self._opaque("<indirect>", st)
        if isinstance(e, K.EUnseq):
            return self._unseq(e, env, st)
        if isinstance(e, (K.EWseq, K.ESseq)):
            v1 = self.eval_expr(e.first, env, st)
            _, bindings = self.match_abs(e.pat, v1)
            env2 = dict(env)
            env2.update(bindings)
            return self.eval_expr(e.second, env2, st)
        if isinstance(e, K.EAtomicSeq):
            v1 = self._do_action(e.first, env, st)
            env2 = dict(env)
            env2[e.sym] = v1
            self._do_action(e.second, env2, st)
            return v1
        if isinstance(e, (K.EIndet, K.EBound)):
            return self.eval_expr(e.body, env, st)
        if isinstance(e, K.ENd):
            return self._nd(e, env, st)
        if isinstance(e, K.ESave):
            return self._save(e, env, st)
        if isinstance(e, K.ERun):
            args = tuple(self.eval_pure(a, env, st) for a in e.args)
            snap = st.copy()
            snap.jumps = {}
            st.jumps[e.label] = _join_jump(st.jumps.get(e.label),
                                           (args, snap))
            st.reachable = False
            return TOP
        if isinstance(e, K.EPar):
            self._note_barrier()
            for sub in e.exprs:
                branch = st.copy()
                branch.definite = False
                self.eval_expr(sub, env, branch)
                st.uninit_seen = st.uninit_seen or branch.uninit_seen
            st.havoc(self._readonly)
            return TOP
        if isinstance(e, K.EWait):
            self.eval_pure(e.thread, env, st)
            self._note_barrier()
            st.havoc(self._readonly)
            return TOP
        if isinstance(e, K.EReturn):
            v = self.eval_pure(e.pe, env, st)
            if self._ret_stack:
                snap = st.copy()
                snap.jumps = {}
                self._ret_stack[-1].append((v, snap))
            st.reachable = False
            return TOP
        if isinstance(e, K.EScope):
            return self._scope(e, env, st)
        if isinstance(e, K.EVlaCreate):
            self.eval_pure(e.size, env, st)
            self._note_barrier()
            return TOP
        return TOP

    # -- memory actions ----------------------------------------------------

    def _const_ctype(self, pe, env, st) -> Optional[CType]:
        av = self.eval_pure(pe, env, st)
        if isinstance(av, tuple) and av[0] == "ctype":
            return av[1]
        return None

    def _do_action(self, a: K.Action, env, st):
        kind = a.kind
        if kind in ("create", "alloc"):
            for arg in a.args:
                self.eval_pure(arg, env, st)
            self._note_barrier()
            return TOP
        if kind == "kill":
            base, _ = self._ptr_parts(
                self.eval_pure(a.args[0], env, st))
            if base not in (None, "null"):
                st.cells.pop(base, None)
            self._note_barrier()
            return UNIT
        if kind == "store":
            cty = self._const_ctype(a.args[0], env, st)
            ptr = self.eval_pure(a.args[1], env, st)
            value = self.eval_pure(a.args[2], env, st)
            size = self._sizeof(cty)
            self._access(ptr, size, True, a.loc, st, value)
            return UNIT
        if kind == "load":
            cty = self._const_ctype(a.args[0], env, st)
            ptr = self.eval_pure(a.args[1], env, st)
            size = self._sizeof(cty)
            return self._access(ptr, size, False, a.loc, st, None)
        if kind == "rmw":
            cty = self._const_ctype(a.args[0], env, st) \
                if a.args else None
            ptr = self.eval_pure(a.args[1], env, st) \
                if len(a.args) > 1 else TOP
            size = self._sizeof(cty)
            v = self._access(ptr, size, False, a.loc, st, None)
            self._access(ptr, size, True, a.loc, st, TOP)
            return v
        if kind == "fence":
            self._note_barrier()
            return UNIT
        if kind == "storebf":
            # A bit-field store writes part of its object, so an
            # uninitialised cell becomes partial; it stays a barrier.
            base, _ = self._ptr_parts(self.eval_pure(a.args[1], env, st))
            if base not in (None, "null"):
                self._store_cell(base, None, None, None, TOP, st)
        self._note_barrier()
        return TOP

    def _access(self, ptr_av, size, write, loc, st, value):
        """One load/store: range note, bounds/null/uninit checks and
        cell updates.  Returns the loaded abstract value."""
        base, off = self._ptr_parts(ptr_av)
        if base == "null":
            self._note_fault()
            self.on_null_access(loc, st)
            if st.definite:
                st.reachable = False
            return TOP
        objsize = self._obj_size(base)
        in_bounds = False
        if off is not None and size is not None \
                and objsize is not None:
            if 0 <= off and off + size <= objsize:
                in_bounds = True
            else:
                self._note_fault()
                self.on_oob(base, off, size, loc, write, st)
                self._note_range(base, off, size, write, st)
                if st.definite:
                    st.reachable = False
                return TOP
        if base is None or not in_bounds:
            self._note_fault()
        self._note_range(base, off, size, write, st)
        if write:
            self._store_cell(base, off, size, objsize, value, st)
            return UNIT
        return self._load_cell(base, off, size, objsize, in_bounds,
                               loc, st)

    def _store_cell(self, base, off, size, objsize, value, st):
        if base is None:
            st.havoc(self._readonly)
            return
        cell = st.cells.get(base)
        if off == 0 and size is not None and size == objsize:
            st.cells[base] = ("val", value)
        elif cell in ("uninit", "partial"):
            st.cells[base] = "partial"
        elif cell == "maybe":
            st.cells[base] = "maybe"
        else:
            st.cells[base] = "init"

    def _load_cell(self, base, off, size, objsize, in_bounds, loc,
                   st):
        if base is None:
            self._note_fault()
            return TOP
        cell = st.cells.get(base, "init")
        if cell == "uninit":
            self._note_fault()
            self.on_uninit_load(base, loc, st.definite
                                and not st.uninit_seen, st)
            st.uninit_seen = True
            return UNSPEC
        if cell in ("partial", "maybe"):
            self._note_fault()
            self.on_uninit_load(base, loc, False, st)
            return TOP
        if not in_bounds:
            self._note_fault()
        if isinstance(cell, tuple) and cell[0] == "val" \
                and off == 0 and size is not None \
                and size == objsize:
            return cell[1]
        return TOP

    # -- structured control ------------------------------------------------

    def _scope(self, e: K.EScope, env, st):
        env2 = dict(env)
        for sc in e.creates:
            self.obj_types[sc.sym] = sc.ty
            st.cells[sc.sym] = "uninit"
            if sc.readonly:
                self._readonly.add(sc.sym)
            env2[sc.sym] = ("ptr", sc.sym, 0)
            self._note_barrier()
        v = self.eval_expr(e.body, env2, st)
        for sc in e.creates:
            st.cells.pop(sc.sym, None)
            self._note_barrier()
        return v

    def _nd(self, e: K.ENd, env, st):
        result = None
        exits = []
        for sub in e.exprs:
            branch = st.copy()
            branch.definite = False
            v = self.eval_expr(sub, env, branch)
            result = v if result is None else _join_av(result, v)
            exits.append(branch)
        merged = exits[0]
        for other in exits[1:]:
            merged.absorb(other)
        st.cells = merged.cells
        st.reachable = merged.reachable
        st.uninit_seen = merged.uninit_seen
        st.jumps = merged.jumps
        st.definite = st.definite and merged.definite
        return result if result is not None else TOP

    def _save(self, e: K.ESave, env, st):
        names = [name for name, _ in e.params]
        params = tuple(self.eval_pure(d, env, st)
                       for _, d in e.params)
        result = None
        # What follows joins every iteration's normal exit: a re-entry
        # starts from its jump's state, never from an earlier exit's.
        out = st.copy()
        out.reachable = False
        for iteration in range(self.LOOP_ITERS + 1):
            env2 = dict(env)
            env2.update(zip(names, params))
            if iteration > 0:
                st.definite = False
            v = self.eval_expr(e.body, env2, st)
            jump = st.jumps.pop(e.label, None)
            if st.reachable:
                result = v if result is None else _join_av(result, v)
                out.absorb(st)
            if jump is None:
                st.cells, st.definite = out.cells, out.definite
                st.reachable = out.reachable
                return result if result is not None else TOP
            args, jst = jump
            jst.jumps = dict(st.jumps)
            jst.uninit_seen = jst.uninit_seen or st.uninit_seen
            st.cells = jst.cells
            st.reachable = True
            st.uninit_seen = jst.uninit_seen
            st.jumps = jst.jumps
            st.definite = st.definite and jst.definite
            # The first re-entry takes its jump's arguments exact, as
            # its state (``run ret(True, v)`` keeps ``v``); later ones
            # join, so the parameters ascend to the check below.
            new_params = args if iteration == 0 else tuple(
                _join_av(p, a) for p, a in zip(params, args))
            if iteration >= self.LOOP_ITERS:
                st.havoc(self._readonly)
                st.definite = False
                params = tuple(TOP for _ in params)
            elif new_params == params and iteration > 0:
                st.havoc(self._readonly)
                st.definite = False
                params = new_params
            else:
                params = new_params
        # Bounded iteration exhausted without quiescing: give up on
        # precision for whatever follows.
        st.jumps.pop(e.label, None)
        st.havoc(self._readonly)
        st.reachable = True
        st.absorb(out)
        st.definite = False
        return TOP

    # -- calls -------------------------------------------------------------

    def _call(self, name: str, args, st, region: bool):
        proc = self.program.procs.get(name)
        if proc is None or proc.variadic \
                or name in self._callstack \
                or len(self._callstack) >= self.CALL_DEPTH:
            return self._opaque(name, st)
        return self._inline(proc, args, st, region)

    def _inline(self, proc: K.ProcDef, args, st, region: bool):
        self._callstack.append(proc.name)
        self._ret_stack.append([])
        if region:
            self._region_depth += 1
        try:
            env = dict(zip(proc.params, args))
            v = self.eval_expr(proc.body, env, st)
        finally:
            if region:
                self._region_depth -= 1
            rets = self._ret_stack.pop()
            self._callstack.pop()
        result = v if st.reachable else None
        for rv, rst in rets:
            result = rv if result is None else _join_av(result, rv)
            st.absorb(rst)
        return result if result is not None else TOP

    def _opaque(self, name: str, st: AbsState):
        self._note_barrier()
        self._note_fault()
        if name in _NORETURN:
            st.reachable = False
            return TOP
        st.havoc(self._readonly)
        return TOP

    # -- unseq -------------------------------------------------------------

    def _unseq(self, e: K.EUnseq, env, st):
        vals = []
        childs: List[StaticSummary] = []
        for child in e.exprs:
            sink = _Sink()
            self._sinks.append(sink)
            try:
                vals.append(self.eval_expr(child, env, st))
            finally:
                self._sinks.pop()
            summary = sink.summary()
            childs.append(summary)
            # Propagate into enclosing sinks (nested unseqs).
            for outer in self._sinks:
                outer.ranges.extend(summary.ranges)
                outer.barrier = outer.barrier or summary.barrier
                outer.fault = outer.fault or summary.fault
                outer.actions = outer.actions or summary.actions
        info = (_commutes(childs),
                tuple(_child_info(c) for c in childs))
        key = id(e)
        if key in self._unseq_info:
            info = _merge_unseq_info(self._unseq_info[key], info)
        self._unseq_info[key] = info
        self._check_race(e, childs, st)
        return ("tuple", tuple(vals))

    def _check_race(self, e: K.EUnseq, childs, st):
        best = None     # (definite, pair)
        for i in range(len(childs)):
            for j in range(i + 1, len(childs)):
                for ra in childs[i].ranges:
                    for rb in childs[j].ranges:
                        if not (ra.write or rb.write):
                            continue
                        if ra.region or rb.region:
                            continue    # indet-sequenced: exempt
                        if ra.base is None or rb.base is None:
                            continue    # too weak a claim to report
                        if ra.base != rb.base:
                            continue
                        precise = (ra.off is not None
                                   and rb.off is not None
                                   and ra.size is not None
                                   and rb.size is not None)
                        if precise and not (
                                ra.off < rb.off + rb.size
                                and rb.off < ra.off + ra.size):
                            continue
                        definite = (precise and ra.definite
                                    and rb.definite and st.definite)
                        if best is None or (definite
                                            and not best[0]):
                            best = (definite, (ra, rb))
        if best is not None:
            self.on_race(e, best[1], best[0], st)
            if best[0]:
                st.reachable = False


# --------------------------------------------------------------------------
# Whole-program entry points
# --------------------------------------------------------------------------

def analyze_program(program: K.Program, impl=None,
                    interp_cls=None) -> StaticsReport:
    """Run the abstract interpretation once and attach the resulting
    ``_static_unseq`` annotations to the program's ``unseq`` nodes."""
    cls = interp_cls if interp_cls is not None else AbsInterp
    report = cls(program, impl).analyze()
    for node in collect_unseqs(program):
        info = report.unseq_info.get(id(node))
        if info is not None:
            node._static_unseq = info           # type: ignore[attr-defined]
    program._statics_annotated = True           # type: ignore[attr-defined]
    return report


def annotate_program(program: K.Program, impl=None) -> StaticsReport:
    """Public alias of :func:`analyze_program` (footprint client)."""
    return analyze_program(program, impl)


def ensure_annotated(program: K.Program) -> None:
    """Annotate once per program object (the explorer's entry)."""
    if not getattr(program, "_statics_annotated", False):
        analyze_program(program)


def serialize_unseq_info(program: K.Program,
                         report: StaticsReport) -> List[object]:
    """The positional annotation table for store caching."""
    return [report.unseq_info.get(id(node))
            for node in collect_unseqs(program)]


def apply_annotations(program: K.Program,
                      table: List[object]) -> bool:
    """Re-attach a cached annotation table; ``False`` (and no-op) on
    shape mismatch (stale cache)."""
    nodes = collect_unseqs(program)
    if len(nodes) != len(table):
        return False
    for node, info in zip(nodes, table):
        if info is not None:
            node._static_unseq = (
                info[0], tuple(
                    c if c in (None, "pure")
                    else tuple(tuple(r) for r in c)
                    for c in info[1]))          # type: ignore[attr-defined]
    program._statics_annotated = True           # type: ignore[attr-defined]
    return True
