"""Core → linear code for the compiled back end's explicit-stack
machine (:class:`repro.dynamics.compile.evaluator.CompiledEvaluator`).

One pass over an elaborated :class:`repro.core.ast.Program` lowers
every procedure, pure function and global initialiser:

* **Pure expressions** become closures ``p(ev, fr) -> Value``.  The
  per-node ``isinstance`` dispatch is resolved at lower time, and
  every name is resolved to a **frame slot**: frames are flat Python
  lists, one per procedure/function invocation, with a fresh slot per
  binder (compile-time alpha-renaming), so shadowing is safe and no
  environment is ever copied.  Names with no lexical binder compile
  to a ``global_env`` lookup, matching the tree evaluator's
  env-then-global fallback.
* **Effectful expressions** become one flat instruction list per
  procedure (``LoweredProc.code``).  An instruction is a closure
  ``i(ev, fr) -> pc`` returning the next pc, or a machine status
  (``RELOAD``/``YIELD``/``BLOCK``/``DONE``/``GEN``) after storing its
  resume pc in the running context.  Every value lands in a frame
  slot; ``if``/``case``/``nd`` branch by pc; ``save``/``run`` loops
  are jumps (a ``run`` first kills the objects of the scopes it
  leaves); a C call pushes a heap frame onto the context's stack
  instead of a Python frame; an ``unseq`` lays its children out as
  code regions that run one after the other when the oracle cannot
  tell interleavings apart, and that the machine interleaves
  otherwise (as contexts of their own, or inline in the parent when
  only one child is effectful).

Requests reach the driver by a direct call (``ev.handle`` is
:meth:`repro.dynamics.driver.Driver._handle`) with the exact shapes
the tree evaluator yields — actions with their scheduling chain,
``("choose", "unseq", n, (frame, cands[, hulls]))`` — so the
explorer and partial-order reduction see byte-identical traces.

Action records are only kept where a race check reads them: the
children of an ``unseq`` with two or more recording children, and
both halves of a ``let weak`` whose first half performs a negative
action.  A C call's records are never kept: the tree evaluator tags
them with a fresh indeterminate-sequencing region, and a tagged
record can only race with one carrying the same regions, which lies
in the same call and so in the same group of every check.

**The call protocol.**  An ``ECcall`` resolves its callee through a
one-element per-site cache and writes the arguments straight into
the callee frame; natives fall back to the generic route (a request
generator the machine drives).  Both routes are counted
(``compile.call_fast`` / ``compile.call_generic``).

**Operand fusion.**  Comparison and arithmetic operands that are
frame slots or constants are read directly; an ``unseq`` destructured
by a tuple of binders writes its children's values straight into the
binders' slots; ``let x = y`` of a slot-bound ``y`` aliases the slot.
Hit counts live in ``LoweredProgram.fused``.

Static-analysis annotations (:mod:`repro.statics`) are re-keyed from
AST node identity onto **stable instruction ids**: every ``unseq``
captures its positional index in :func:`repro.statics.collect_unseqs`
order (the basis the persisted ``"statics"`` tables use), and
resolves footprint hulls through a slot-backed environment view.

Lowering is cached on the program object (``program._lowered``) and,
per process, in the warm-closure cache behind
:meth:`repro.pipeline.CompiledProgram.lowered`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...core import ast as K
from ...ctypes.types import IntKind, Integer
from ...errors import InternalError, StaticError
from ...memory.base import MemoryError_
from ...memory.values import (
    IntegerValue, MVStruct, MVUnion, combine_provenance,
)
from ... import ub as UB
from ...ub import UndefinedBehaviour
from ..actions import find_unsequenced_race
from ..evaluator import ProcReturn, RunSignal, _SCOPE_CREATED
from ..values import (
    FALSE, TRUE, UNIT, VBool, VCtype, VFloating, VInteger, VList,
    VMemStruct, VPointer, VScopeList, VSpecified, VTuple, VUnit,
    VUnspecified, core_to_mem, truthy,
)

# Version of the lowering scheme itself, folded into warm-closure
# keys: bump when the slot layout, instruction-id basis, or closure
# protocol changes.
#   1: slotted closure-threaded code.
#   2: the specialized call protocol and fusion counters.
#   3: one explicit-stack machine runs linear instruction lists.
LOWERED_VERSION = 3

# Machine statuses an instruction may return instead of a pc.
RELOAD = -1   # the context's code, frame and pc changed (call/return)
YIELD = -2    # an action was performed: a scheduling point
BLOCK = -3    # the context blocked on an interleaved unseq
DONE = -4     # the context's base computation finished
GEN = -5      # the context now drives a request generator

# Shared singleton request for loop-tick accounting.
_TICK = ("tick",)

# Actions whose records never take part in a race (``conflicting``
# exempts them), so no check ever needs them kept.
_LIFETIME = frozenset(("create", "create_vla", "kill", "alloc"))

_CMP_OPS = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


class _FrameAlloc:
    """Slot allocator for one frame (one proc / fun / glob-init)."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def alloc(self) -> int:
        slot = self.n
        self.n += 1
        return slot


class LoweredProc:
    __slots__ = ("name", "params", "param_slots", "varargs_slot",
                 "variadic", "frame_size", "code")

    def __init__(self, name, params, variadic):
        self.name = name
        self.params = params
        self.variadic = variadic
        self.param_slots: List[int] = []
        self.varargs_slot: Optional[int] = None
        self.frame_size = 0
        self.code: List[Callable] = []


class LoweredFun:
    __slots__ = ("name", "params", "param_slots", "frame_size", "body")

    def __init__(self, name, params):
        self.name = name
        self.params = params
        self.param_slots: List[int] = []
        self.frame_size = 0
        self.body: Optional[Callable] = None


class UnseqSite:
    """What the machine needs to interleave one ``unseq``: its stable
    instruction id, per child a ``(closure, result slot)`` pair when it
    is pure or its start pc when it is not, the mode slot, the join pc,
    and the scope for hull resolution."""

    __slots__ = ("uidx", "kids", "eff", "us", "join", "env_slots")

    def __init__(self, uidx, kids, us, join, env_slots):
        self.uidx = uidx
        self.kids = kids
        self.eff = tuple(i for i, k in enumerate(kids)
                         if k.__class__ is int)
        self.us = us
        self.join = join
        self.env_slots = env_slots


class LoweredProgram:
    """The compiled back end of one Core program: linear code per
    procedure and global initialiser, pure closures per function, plus
    the positional ``unseq`` instruction table that re-keys static
    annotations onto stable ids."""

    __slots__ = ("procs", "funs", "globs", "unseq_nodes", "fused")

    def __init__(self):
        self.procs: Dict[str, LoweredProc] = {}
        self.funs: Dict[str, LoweredFun] = {}
        #: Global initialisers, lowered as parameterless procedures.
        self.globs: Dict[str, LoweredProc] = {}
        #: ``collect_unseqs`` order: position == stable instruction id.
        self.unseq_nodes: List[K.EUnseq] = []
        #: Fusion hit counts (lower-time).
        self.fused: Dict[str, int] = {}

    def layout(self) -> dict:
        """The positional layout (frame sizes, arity, instruction
        counts): two lowerings of one Core program agree on it, which
        pins stable instruction ids and frame shapes."""
        return {
            "procs": {name: (p.frame_size, len(p.code), len(p.params),
                             p.variadic)
                      for name, p in sorted(self.procs.items())},
            "funs": {name: (f.frame_size, len(f.params))
                     for name, f in sorted(self.funs.items())},
            "globs": {name: (g.frame_size, len(g.code))
                      for name, g in sorted(self.globs.items())},
            "n_unseqs": len(self.unseq_nodes),
            "fused": dict(sorted(self.fused.items())),
        }


def lower_program(program: K.Program) -> LoweredProgram:
    """Lower every definition of an elaborated Core program."""
    return _Lowerer(program).lower()


def ensure_lowered(program: K.Program) -> LoweredProgram:
    """Lower once per program object (cached on ``program._lowered``,
    the same idiom as the statics ``_statics_annotated`` flag)."""
    lp = getattr(program, "_lowered", None)
    if lp is None:
        lp = lower_program(program)
        program._lowered = lp  # type: ignore[attr-defined]
    return lp


class _Lowerer:
    def __init__(self, program: K.Program):
        self.program = program
        self.impl = program.impl
        self.tags = program.tags
        self.out = LoweredProgram()
        from ...statics import collect_unseqs
        self.out.unseq_nodes = collect_unseqs(program)
        self._unseq_ids = {id(node): i for i, node
                           in enumerate(self.out.unseq_nodes)}
        self.fused: Dict[str, int] = {
            "cmp_operand": 0, "arith_operand": 0, "unseq_bind": 0,
            "slot_alias": 0,
        }
        # Per-node static facts, memoised by node identity.
        self._facts: Dict[int, tuple] = {}
        # The code list being emitted, and the lexically enclosing
        # saves ``(label, slots, body_pc, scope_depth)`` and scopes
        # (their created-list slots) of the current definition.
        self.code: List[Callable] = []
        self._saves: List[tuple] = []
        self._scopes: List[tuple] = []
        self._in_par = 0

    def lower(self) -> LoweredProgram:
        out = self.out
        # Definitions are registered before their bodies are lowered so
        # (mutually) recursive calls resolve to the in-progress object.
        for name, fun in self.program.funs.items():
            out.funs[name] = LoweredFun(name, list(fun.params))
        for name, proc in self.program.procs.items():
            out.procs[name] = LoweredProc(name, list(proc.params),
                                          proc.variadic)
        for name, fun in self.program.funs.items():
            lf = out.funs[name]
            falloc = _FrameAlloc()
            scope: Dict[str, int] = {}
            for p in fun.params:
                slot = falloc.alloc()
                scope[p] = slot
                lf.param_slots.append(slot)
            lf.body = self._pure(fun.body, scope, falloc)
            lf.frame_size = falloc.n
        for name, proc in self.program.procs.items():
            lp = out.procs[name]
            falloc = _FrameAlloc()
            scope = {}
            for p in proc.params:
                slot = falloc.alloc()
                scope[p] = slot
                lp.param_slots.append(slot)
            if proc.variadic:
                lp.varargs_slot = falloc.alloc()
                scope["__varargs__"] = lp.varargs_slot
            self._body(lp.code, proc.body, scope, falloc)
            lp.frame_size = falloc.n
        for g in self.program.globs:
            if g.init is None:
                continue
            lg = LoweredProc(g.name, [], False)
            falloc = _FrameAlloc()
            self._body(lg.code, g.init, {}, falloc)
            lg.frame_size = falloc.n
            out.globs[g.name] = lg
        out.fused = self.fused
        return out

    def _body(self, code, e, scope, falloc) -> None:
        """Emit one definition's code: its body, then a return of the
        body's value (the end of the context at the base frame)."""
        self.code = code
        self._saves = []
        self._scopes = []
        slot = falloc.alloc()
        self._emit(e, scope, falloc, slot, False)
        code.append(_ret(slot))

    # ==================== patterns =========================================

    def _tuple_writes(self, args, scope, falloc):
        """The per-element ``(index, slot, op)`` plan for a tuple
        pattern whose elements are all plain binders, wildcards, or
        ``Specified``/``Unspecified``-wrapped ones; ``None`` when any
        element needs the generic matcher.  Ops: 0 binds the element
        directly, 1 unwraps ``Specified``, 2 checks ``Unspecified``
        (binding the carried ctype, like the generic matcher does).
        Plain wildcards are dropped entirely; wrapped wildcards keep
        a slot-less entry because the wrapper check is refutable."""
        plan = []
        for i, a in enumerate(args):
            op = 0
            if isinstance(a, K.PatCtor) and \
                    a.ctor in ("Specified", "Unspecified") and \
                    len(a.args) == 1 and \
                    isinstance(a.args[0], (K.PatSym, K.PatWild)):
                op = 1 if a.ctor == "Specified" else 2
                a = a.args[0]
            if isinstance(a, K.PatSym):
                plan.append((i, a, op))
            elif isinstance(a, K.PatWild):
                if op:
                    plan.append((i, None, op))
            else:
                return None
        writes = []
        for i, a, op in plan:
            if a is None:
                writes.append((i, None, op))
            else:
                slot = falloc.alloc()
                scope[a.name] = slot
                writes.append((i, slot, op))
        return tuple(writes)

    def _pattern(self, pat: K.Pattern, scope: Dict[str, int],
                 falloc: _FrameAlloc):
        """Compile a pattern to a slot-writing matcher
        ``m(value, fr) -> bool``; binders get fresh slots in ``scope``.
        A failed match may have written some of its (branch-private)
        slots — harmless, since a branch's slots are only read by its
        own body."""
        if isinstance(pat, K.PatWild):
            return _match_any
        if isinstance(pat, K.PatSym):
            slot = falloc.alloc()
            scope[pat.name] = slot

            def m_sym(value, fr, _s=slot):
                fr[_s] = value
                return True

            return m_sym
        assert isinstance(pat, K.PatCtor)
        ctor = pat.ctor
        if ctor == "Tuple":
            writes = self._tuple_writes(pat.args, scope, falloc)
            if writes is not None:
                # The hot shapes: `(a, b, ...)` of plain binders and
                # `Specified`-unwrapped binders — write the slots
                # directly, no per-element matcher calls.
                def m_tuple_syms(value, fr, _w=writes,
                                 _n=len(pat.args)):
                    if not isinstance(value, VTuple):
                        return False
                    items = value.items
                    if len(items) != _n:
                        return False
                    for i, slot, op in _w:
                        item = items[i]
                        if op == 1:
                            if not isinstance(item, VSpecified):
                                return False
                            item = item.value
                        elif op == 2:
                            if not isinstance(item, VUnspecified):
                                return False
                            if slot is None:
                                continue
                            item = VCtype(item.ty)
                        if slot is not None:
                            fr[slot] = item
                    return True

                return m_tuple_syms
            subs = [self._pattern(a, scope, falloc) for a in pat.args]

            def m_tuple(value, fr, _subs=subs, _n=len(subs)):
                if not isinstance(value, VTuple) or \
                        len(value.items) != _n:
                    return False
                for sub, item in zip(_subs, value.items):
                    if not sub(item, fr):
                        return False
                return True

            return m_tuple
        if ctor == "Specified":
            sub = self._pattern(pat.args[0], scope, falloc)

            def m_spec(value, fr, _sub=sub):
                if not isinstance(value, VSpecified):
                    return False
                return _sub(value.value, fr)

            return m_spec
        if ctor == "Unspecified":
            sub = self._pattern(pat.args[0], scope, falloc)

            def m_unspec(value, fr, _sub=sub):
                if not isinstance(value, VUnspecified):
                    return False
                return _sub(VCtype(value.ty), fr)

            return m_unspec
        if ctor == "True":
            return lambda value, fr: value == TRUE
        if ctor == "False":
            return lambda value, fr: value == FALSE
        if ctor == "Unit":
            return lambda value, fr: isinstance(value, VUnit)
        if ctor == "Nil":
            return lambda value, fr: isinstance(value, VList) \
                and not value.items
        if ctor == "Cons":
            head = self._pattern(pat.args[0], scope, falloc)
            tail = self._pattern(pat.args[1], scope, falloc)

            def m_cons(value, fr, _h=head, _t=tail):
                if not isinstance(value, VList) or not value.items:
                    return False
                if not _h(value.items[0], fr):
                    return False
                return _t(VList(value.items[1:]), fr)

            return m_cons

        def m_unknown(value, fr, _c=ctor):
            raise InternalError(
                f"match_pattern: unknown constructor {_c}")

        return m_unknown

    # ==================== pure lowering ====================================

    def _pure_list(self, pes, scope, falloc):
        return [self._pure(pe, scope, falloc) for pe in pes]

    def _pure(self, pe: K.Pexpr, scope: Dict[str, int],
              falloc: _FrameAlloc):
        if isinstance(pe, K.PSym):
            slot = scope.get(pe.name)
            if slot is not None:
                def p_slot(ev, fr, _s=slot, _n=pe.name, _l=pe.loc):
                    v = fr[_s]
                    if v is None:
                        raise InternalError(
                            f"unbound Core symbol {_n}", _l)
                    return v

                return p_slot

            def p_glob(ev, fr, _n=pe.name, _l=pe.loc):
                v = ev.global_env.get(_n)
                if v is None:
                    raise InternalError(f"unbound Core symbol {_n}", _l)
                return v

            return p_glob
        if isinstance(pe, K.PVal):
            return lambda ev, fr, _v=pe.value: _v
        if isinstance(pe, K.PImpl):
            value = self.program.impl_constants.get(pe.name)
            if value is not None:
                return lambda ev, fr, _v=value: _v

            def p_impl(ev, fr, _n=pe.name, _l=pe.loc):
                raise InternalError(f"unknown impl constant {_n}", _l)

            return p_impl
        if isinstance(pe, K.PUndef):
            def p_undef(ev, fr, _ub=pe.ub, _l=pe.loc):
                raise UndefinedBehaviour(_ub, _l)

            return p_undef
        if isinstance(pe, K.PError):
            def p_err(ev, fr, _m=pe.msg, _l=pe.loc):
                raise StaticError(_m, _l)

            return p_err
        if isinstance(pe, K.PCtor):
            return self._ctor(pe, scope, falloc)
        if isinstance(pe, K.PCase):
            scrut = self._pure(pe.scrutinee, scope, falloc)
            branches = []
            for pat, body in pe.branches:
                s2 = dict(scope)
                m = self._pattern(pat, s2, falloc)
                branches.append((m, self._pure(body, s2, falloc)))

            def p_case(ev, fr, _s=scrut, _b=branches, _l=pe.loc):
                v = _s(ev, fr)
                for m, body in _b:
                    if m(v, fr):
                        return body(ev, fr)
                raise InternalError(
                    f"no matching case branch for {v!r}", _l)

            return p_case
        if isinstance(pe, K.PArrayShift):
            pp = self._pure(pe.ptr, scope, falloc)
            pi = self._pure(pe.index, scope, falloc)

            def p_ashift(ev, fr, _p=pp, _i=pi, _t=pe.elem_ty,
                         _l=pe.loc):
                ptr = ev._as_pointer(_p(ev, fr), _l)
                idx = ev._as_integer(_i(ev, fr), _l)
                try:
                    return VPointer(ev.model.array_shift(ptr, _t, idx))
                except MemoryError_ as me:
                    raise UndefinedBehaviour(me.entry, _l,
                                             me.detail) from None

            return p_ashift
        if isinstance(pe, K.PMemberShift):
            pp = self._pure(pe.ptr, scope, falloc)

            def p_mshift(ev, fr, _p=pp, _tag=pe.tag, _m=pe.member,
                         _l=pe.loc):
                ptr = ev._as_pointer(_p(ev, fr), _l)
                try:
                    return VPointer(ev.model.member_shift(ptr, _tag,
                                                          _m))
                except MemoryError_ as me:
                    raise UndefinedBehaviour(me.entry, _l,
                                             me.detail) from None

            return p_mshift
        if isinstance(pe, K.PNot):
            sub = self._pure(pe.operand, scope, falloc)
            return lambda ev, fr, _s=sub: VBool(not truthy(_s(ev, fr)))
        if isinstance(pe, K.PBinop):
            return self._binop(pe, scope, falloc)
        if isinstance(pe, K.PLet):
            bound = self._pure(pe.bound, scope, falloc)
            s2 = dict(scope)
            m = self._pattern(pe.pat, s2, falloc)
            body = self._pure(pe.body, s2, falloc)

            def p_let(ev, fr, _b=bound, _m=m, _body=body, _l=pe.loc):
                v = _b(ev, fr)
                if not _m(v, fr):
                    raise InternalError("refutable pure let pattern",
                                        _l)
                return _body(ev, fr)

            return p_let
        if isinstance(pe, K.PIf):
            cond = self._pure(pe.cond, scope, falloc)
            then = self._pure(pe.then, scope, falloc)
            els = self._pure(pe.els, scope, falloc)

            def p_if(ev, fr, _c=cond, _t=then, _e=els):
                return _t(ev, fr) if truthy(_c(ev, fr)) \
                    else _e(ev, fr)

            return p_if
        if isinstance(pe, K.PCall):
            return self._pure_call(pe, scope, falloc)
        if isinstance(pe, K.PStruct):
            subs = [(name, self._pure(sub, scope, falloc))
                    for name, sub in pe.members]

            def p_struct(ev, fr, _tag=pe.tag, _subs=subs):
                defn = ev.tags.require(_tag)
                members = []
                for name, sub in _subs:
                    v = sub(ev, fr)
                    m = defn.member(name)
                    members.append((name, core_to_mem(m.qty.ty, v)))
                return VMemStruct(MVStruct(_tag, tuple(members)))

            return p_struct
        if isinstance(pe, K.PUnion):
            sub = self._pure(pe.value, scope, falloc)

            def p_union(ev, fr, _tag=pe.tag, _m=pe.member, _s=sub):
                defn = ev.tags.require(_tag)
                m = defn.member(_m)
                v = _s(ev, fr)
                return VMemStruct(MVUnion(_tag, _m,
                                          core_to_mem(m.qty.ty, v)))

            return p_union
        raise InternalError(
            f"lower: unhandled pure {type(pe).__name__}", pe.loc)

    def _ctor(self, pe: K.PCtor, scope, falloc):
        args = self._pure_list(pe.args, scope, falloc)
        ctor = pe.ctor
        if ctor == "Specified":
            a0 = args[0]
            return lambda ev, fr, _a=a0: VSpecified(_a(ev, fr))
        if ctor == "Unspecified":
            a0 = args[0]

            def p_unspec(ev, fr, _a=a0):
                ty = _a(ev, fr)
                assert isinstance(ty, VCtype)
                return VUnspecified(ty.ty)

            return p_unspec
        if ctor == "Tuple":
            def p_tuple(ev, fr, _args=args):
                return VTuple(tuple(a(ev, fr) for a in _args))

            return p_tuple
        if ctor == "Nil":
            nil = VList(())
            return lambda ev, fr, _v=nil: _v
        if ctor == "Cons":
            head, tail = args

            def p_cons(ev, fr, _h=head, _t=tail):
                h = _h(ev, fr)
                t = _t(ev, fr)
                assert isinstance(t, VList)
                return VList((h,) + t.items)

            return p_cons
        if ctor == "Unit":
            return lambda ev, fr: UNIT
        if ctor == "True":
            return lambda ev, fr: TRUE
        if ctor == "False":
            return lambda ev, fr: FALSE

        def p_unknown(ev, fr, _args=args, _c=ctor, _l=pe.loc):
            for a in _args:
                a(ev, fr)
            raise InternalError(f"unknown constructor {_c}", _l)

        return p_unknown

    def _binop(self, pe: K.PBinop, scope, falloc):
        op = pe.op
        lhs = self._pure(pe.lhs, scope, falloc)
        if op == "/\\":
            rhs = self._pure(pe.rhs, scope, falloc)

            def p_and(ev, fr, _a=lhs, _b=rhs):
                if not truthy(_a(ev, fr)):
                    return FALSE
                return VBool(truthy(_b(ev, fr)))

            return p_and
        if op == "\\/":
            rhs = self._pure(pe.rhs, scope, falloc)

            def p_or(ev, fr, _a=lhs, _b=rhs):
                if truthy(_a(ev, fr)):
                    return TRUE
                return VBool(truthy(_b(ev, fr)))

            return p_or
        rhs = self._pure(pe.rhs, scope, falloc)
        cmp = _CMP_OPS.get(op)
        minus = op == "-"

        def p_binop(ev, fr, _a=lhs, _b=rhs, _op=op, _cmp=cmp,
                    _minus=minus, _pe=pe, _l=pe.loc):
            a = _a(ev, fr)
            b = _b(ev, fr)
            if isinstance(a, VBool) or isinstance(b, VBool):
                if _op == "==":
                    return VBool(a == b)
                if _op == "!=":
                    return VBool(a != b)
                raise InternalError(f"boolean binop {_op}", _l)
            if isinstance(a, VFloating) or isinstance(b, VFloating):
                return ev._float_binop(_op, a, b, _pe)
            ia = ev._as_integer(a, _l)
            ib = ev._as_integer(b, _l)
            if _cmp is not None:
                return VBool(_cmp(ia.value, ib.value))
            math = ev._int_math(_op, ia.value, ib.value, _l)
            hooked = ev._int_hook
            if hooked is not None:
                special = hooked(_op, ia, ib, math)
                if special is not None:
                    return VInteger(special)
            prov = combine_provenance(ia.prov, ib.prov)
            if _minus and ia.prov is not None and ia.prov == ib.prov:
                prov = None  # intra-object difference (§5.9)
            return VInteger(IntegerValue(math, prov))

        # Fast paths for the dominant VInteger/VInteger case, bailing
        # to the generic closure on any other shape.  The fallback
        # re-evaluates the operands, which is safe: pure closures are
        # deterministic and effect-free, so the rare non-integer
        # shape just pays one duplicate read.
        #
        # Operand fusion: when an operand is a bound symbol or an
        # integer literal, the fetch is resolved at lower time into a
        # direct frame read / captured constant — no operand-closure
        # call at all.  An unbound slot (None) fails the VInteger type
        # test and falls into the generic closure, which re-evaluates
        # through the original operand closures and raises the proper
        # diagnostic.
        ls = self._operand_slot(pe.lhs, scope)
        rs = self._operand_slot(pe.rhs, scope)
        liv = self._operand_const(pe.lhs)
        riv = self._operand_const(pe.rhs)
        if cmp is not None:
            if ls is not None and rs is not None:
                self.fused["cmp_operand"] += 1

                def p_cmp_ss(ev, fr, _i=ls, _j=rs, _cmp=cmp,
                             _slow=p_binop):
                    a = fr[_i]
                    b = fr[_j]
                    if type(a) is VInteger and type(b) is VInteger:
                        return VBool(_cmp(a.ival.value, b.ival.value))
                    return _slow(ev, fr)

                return p_cmp_ss
            if ls is not None and riv is not None:
                self.fused["cmp_operand"] += 1

                def p_cmp_sc(ev, fr, _i=ls, _c=riv.value, _cmp=cmp,
                             _slow=p_binop):
                    a = fr[_i]
                    if type(a) is VInteger:
                        return VBool(_cmp(a.ival.value, _c))
                    return _slow(ev, fr)

                return p_cmp_sc
            if liv is not None and rs is not None:
                self.fused["cmp_operand"] += 1

                def p_cmp_cs(ev, fr, _c=liv.value, _j=rs, _cmp=cmp,
                             _slow=p_binop):
                    b = fr[_j]
                    if type(b) is VInteger:
                        return VBool(_cmp(_c, b.ival.value))
                    return _slow(ev, fr)

                return p_cmp_cs

            def p_cmp(ev, fr, _a=lhs, _b=rhs, _cmp=cmp,
                      _slow=p_binop):
                a = _a(ev, fr)
                b = _b(ev, fr)
                if type(a) is VInteger and type(b) is VInteger:
                    return VBool(_cmp(a.ival.value, b.ival.value))
                return _slow(ev, fr)

            return p_cmp
        if ls is not None and riv is not None:
            self.fused["arith_operand"] += 1

            def p_arith_sc(ev, fr, _i=ls, _ib=riv, _op=op,
                           _minus=minus, _l=pe.loc, _slow=p_binop):
                a = fr[_i]
                if type(a) is VInteger:
                    ia = a.ival
                    math = ev._int_math(_op, ia.value, _ib.value, _l)
                    hooked = ev._int_hook
                    if hooked is not None:
                        special = hooked(_op, ia, _ib, math)
                        if special is not None:
                            return VInteger(special)
                    prov = combine_provenance(ia.prov, _ib.prov)
                    if _minus and ia.prov is not None and \
                            ia.prov == _ib.prov:
                        prov = None  # intra-object difference (§5.9)
                    return VInteger(IntegerValue(math, prov))
                return _slow(ev, fr)

            return p_arith_sc
        if ls is not None and rs is not None:
            self.fused["arith_operand"] += 1

            def p_arith_ss(ev, fr, _i=ls, _j=rs, _op=op,
                           _minus=minus, _l=pe.loc, _slow=p_binop):
                a = fr[_i]
                b = fr[_j]
                if type(a) is VInteger and type(b) is VInteger:
                    ia = a.ival
                    ib = b.ival
                    math = ev._int_math(_op, ia.value, ib.value, _l)
                    hooked = ev._int_hook
                    if hooked is not None:
                        special = hooked(_op, ia, ib, math)
                        if special is not None:
                            return VInteger(special)
                    prov = combine_provenance(ia.prov, ib.prov)
                    if _minus and ia.prov is not None and \
                            ia.prov == ib.prov:
                        prov = None  # intra-object difference (§5.9)
                    return VInteger(IntegerValue(math, prov))
                return _slow(ev, fr)

            return p_arith_ss

        def p_arith(ev, fr, _a=lhs, _b=rhs, _op=op, _minus=minus,
                    _l=pe.loc, _slow=p_binop):
            a = _a(ev, fr)
            b = _b(ev, fr)
            if type(a) is VInteger and type(b) is VInteger:
                ia = a.ival
                ib = b.ival
                math = ev._int_math(_op, ia.value, ib.value, _l)
                hooked = ev._int_hook
                if hooked is not None:
                    special = hooked(_op, ia, ib, math)
                    if special is not None:
                        return VInteger(special)
                prov = combine_provenance(ia.prov, ib.prov)
                if _minus and ia.prov is not None and \
                        ia.prov == ib.prov:
                    prov = None  # intra-object difference (§5.9)
                return VInteger(IntegerValue(math, prov))
            return _slow(ev, fr)

        return p_arith

    @staticmethod
    def _operand_slot(pe: K.Pexpr, scope) -> Optional[int]:
        """The frame slot of a binop operand that is a locally bound
        symbol (``None`` for anything else — globals included, since
        their lookup needs the evaluator)."""
        if isinstance(pe, K.PSym):
            return scope.get(pe.name)
        return None

    @staticmethod
    def _operand_const(pe: K.Pexpr) -> Optional[IntegerValue]:
        """The integer literal payload of a binop operand, when it is
        one (the captured :class:`IntegerValue` keeps provenance
        semantics identical to the closure path)."""
        if isinstance(pe, K.PVal) and type(pe.value) is VInteger:
            return pe.value.ival
        return None

    def _pure_call(self, pe: K.PCall, scope, falloc):
        lf = self.out.funs.get(pe.name)
        if lf is not None:
            args = self._pure_list(pe.args, scope, falloc)

            def p_fun(ev, fr, _lf=lf, _args=args):
                vals = [a(ev, fr) for a in _args]
                ffr = [None] * _lf.frame_size
                for slot, v in zip(_lf.param_slots, vals):
                    ffr[slot] = v
                return _lf.body(ev, ffr)

            return p_fun
        spec = self._specialize_native(pe, scope, falloc)
        if spec is not None:
            return spec
        args = self._pure_list(pe.args, scope, falloc)

        def p_native(ev, fr, _n=pe.name, _args=args, _pe=pe):
            vals = [a(ev, fr) for a in _args]
            return ev._native_pure(_n, vals, _pe)

        return p_native

    @staticmethod
    def _const_int_ctype(pe: K.Pexpr) -> Optional[Integer]:
        """An integer C type known at lower time (elaboration emits
        them as ``PVal(VCtype(...))`` literals)."""
        if isinstance(pe, K.PVal) and isinstance(pe.value, VCtype) \
                and isinstance(pe.value.ty, Integer):
            return pe.value.ty
        return None

    def _specialize_native(self, pe: K.PCall, scope, falloc):
        """Lower-time constant folding for the hot integer-conversion
        natives: when the C type operand is a literal, its range /
        width / signedness (fixed by the program's ``impl``) are
        resolved once here, replacing per-call ``_native_pure``
        dispatch and ``Implementation`` method lookups.  The folded
        arithmetic mirrors :func:`repro.ctypes.convert.
        convert_integer_value` / ``is_representable`` exactly; any
        shape this doesn't recognise falls back to the shared
        ``_native_pure``."""
        name = pe.name
        impl = self.impl
        if name in ("conv_int", "wrapI") and len(pe.args) == 2:
            ty = self._const_int_ctype(pe.args[0])
            if ty is None:
                return None
            arg = self._pure(pe.args[1], scope, falloc)
            loc = pe.loc
            if name == "wrapI":
                mask = (1 << impl.width(ty.kind)) - 1

                def p_wrap(ev, fr, _a=arg, _mask=mask, _l=loc):
                    v = _a(ev, fr)
                    iv = v.ival if type(v) is VInteger \
                        else ev._as_integer(v, _l)
                    return VInteger(IntegerValue(iv.value & _mask,
                                                 iv.prov, iv.meta))

                return p_wrap
            if ty.kind is IntKind.BOOL:
                def p_conv_bool(ev, fr, _a=arg, _l=loc):
                    iv = ev._as_integer(_a(ev, fr), _l)
                    return VInteger(IntegerValue(
                        0 if iv.value == 0 else 1, iv.prov, iv.meta))

                return p_conv_bool
            lo = impl.int_min(ty.kind)
            hi = impl.int_max(ty.kind)
            w = impl.width(ty.kind)
            mask = (1 << w) - 1
            sign_bit = 1 << (w - 1) if impl.is_signed(ty.kind) else None

            def p_conv(ev, fr, _a=arg, _lo=lo, _hi=hi, _mask=mask,
                       _sb=sign_bit, _l=loc):
                a = _a(ev, fr)
                iv = a.ival if type(a) is VInteger \
                    else ev._as_integer(a, _l)
                v = iv.value
                if v < _lo or v > _hi:
                    v &= _mask
                    if _sb is not None and v >= _sb:
                        v -= _sb << 1
                return VInteger(IntegerValue(v, iv.prov, iv.meta))

            return p_conv
        if name == "is_representable" and len(pe.args) == 2:
            ty = self._const_int_ctype(pe.args[1])
            if ty is None:
                return None
            arg = self._pure(pe.args[0], scope, falloc)
            lo = impl.int_min(ty.kind)
            hi = impl.int_max(ty.kind)

            def p_repr(ev, fr, _a=arg, _lo=lo, _hi=hi, _l=pe.loc):
                a = _a(ev, fr)
                iv = a.ival if type(a) is VInteger \
                    else ev._as_integer(a, _l)
                return VBool(_lo <= iv.value <= _hi)

            return p_repr
        if name in ("ctype_width", "ivmax", "ivmin", "is_unsigned",
                    "is_signed") and len(pe.args) == 1:
            ty = self._const_int_ctype(pe.args[0])
            if ty is None:
                return None
            if name == "ctype_width":
                const = VInteger(IntegerValue(impl.width(ty.kind)))
            elif name == "ivmax":
                const = VInteger(IntegerValue(impl.int_max(ty.kind)))
            elif name == "ivmin":
                const = VInteger(IntegerValue(impl.int_min(ty.kind)))
            elif name == "is_unsigned":
                const = VBool(not impl.is_signed(ty.kind))
            else:
                const = VBool(impl.is_signed(ty.kind))
            return lambda ev, fr, _v=const: _v
        if name == "not_bool" and len(pe.args) == 1:
            arg = self._pure(pe.args[0], scope, falloc)
            return lambda ev, fr, _a=arg: VBool(not truthy(_a(ev, fr)))
        return None

    # ==================== effect lowering ==================================
    #
    # ``self.code`` is the instruction list being emitted.  ``dest`` is
    # the slot an expression's value goes to (None: dropped); ``rec``
    # says an enclosing race check reads the records its actions make.

    def _fact(self, kind: int, e: K.Expr) -> bool:
        """A static fact of ``e``: :data:`_PURE` — it lowers to one pure
        closure; :data:`_RECORDS` — it performs a non-lifetime action
        outside any call; :data:`_NEG` — it performs a negative one.
        Computed for a whole subtree at once, children first, with an
        explicit stack (statement spines are as long as the function)."""
        facts = self._facts.get(id(e))
        if facts is None:
            order = []
            stack = [e]
            while stack:
                node = stack.pop()
                order.append(node)
                stack += _children(node)
            for node in reversed(order):
                kids = [self._facts[id(c)] for c in _children(node)]
                acts = _actions(node)
                self._facts[id(node)] = (
                    isinstance(node, _PURE_FORMS)
                    and all(k[_PURE] for k in kids),
                    any(a.kind not in _LIFETIME for a in acts)
                    or any(k[_RECORDS] for k in kids),
                    any(a.polarity == "neg" for a in acts)
                    or any(k[_NEG] for k in kids))
            facts = self._facts[id(e)]
        return facts[kind]

    def _hole(self) -> int:
        self.code.append(None)
        return len(self.code) - 1

    def _emit(self, e: K.Expr, scope: Dict[str, int],
              falloc: _FrameAlloc, dest: Optional[int],
              rec: bool) -> None:
        while isinstance(e, (K.EIndet, K.EBound)):
            e = e.body
        code = self.code
        if self._fact(_PURE, e):
            code.append(_store(self._pure_expr(e, scope, falloc), dest,
                               len(code) + 1))
        elif isinstance(e, K.EAction):
            a = e.action
            code.append(_act(a.kind, self._pure_list(a.args, scope,
                                                     falloc),
                             a.polarity, a.order, a.loc, dest,
                             rec and a.kind not in _LIFETIME,
                             len(code) + 1))
        elif isinstance(e, (K.ESseq, K.EWseq)):
            self._seq(e, scope, falloc, dest, rec)
        elif isinstance(e, K.EUnseq):
            self._unseq(e, scope, falloc, dest, rec)
        elif isinstance(e, (K.ECcall, K.EProc)):
            self._call(e, scope, falloc, dest)
        elif isinstance(e, K.ELet):
            s2 = dict(scope)
            self._bind(self._pure(e.bound, scope, falloc), e.pat, s2,
                       falloc, "refutable let pattern", e.loc,
                       _alias(e.bound, scope))
            self._emit(e.body, s2, falloc, dest, rec)
        elif isinstance(e, K.EIf):
            cond = self._pure(e.cond, scope, falloc)
            at = self._hole()
            then, els = self._branches([(e.then, scope), (e.els, scope)],
                                       falloc, dest, rec)

            def i_if(ev, fr, _c=cond, _t=then, _e=els):
                return _t if truthy(_c(ev, fr)) else _e

            code[at] = i_if
        elif isinstance(e, K.ECase):
            scrut = self._pure(e.scrutinee, scope, falloc)
            at = self._hole()
            matchers = []
            bodies = []
            for pat, body in e.branches:
                s2 = dict(scope)
                matchers.append(self._pattern(pat, s2, falloc))
                bodies.append((body, s2))
            starts = self._branches(bodies, falloc, dest, rec)

            def i_case(ev, fr, _s=scrut, _l=e.loc,
                       _arms=tuple(zip(matchers, starts))):
                v = _s(ev, fr)
                for m, pc in _arms:
                    if m(v, fr):
                        return pc
                raise InternalError(f"no matching case branch for {v!r}",
                                    _l)

            code[at] = i_case
        elif isinstance(e, K.ENd) and len(e.exprs) > 1:
            at = self._hole()
            starts = self._branches([(sub, scope) for sub in e.exprs],
                                    falloc, dest, rec)

            def i_nd(ev, fr, _starts=tuple(starts), _n=len(starts)):
                return _starts[ev.handle(("choose", "nd", _n),
                                         ev.thread)]

            code[at] = i_nd
        elif isinstance(e, K.ENd):
            self._emit(e.exprs[0], scope, falloc, dest, rec)
        elif isinstance(e, K.ESave):
            self._save(e, scope, falloc, dest, rec)
        elif isinstance(e, K.ERun):
            self._run(e, scope, falloc)
        elif isinstance(e, K.EReturn):
            slot = falloc.alloc()
            code.append(_store(self._pure(e.pe, scope, falloc), slot,
                               len(code) + 1))
            if self._in_par:
                def i_escape(ev, fr, _s=slot):
                    raise ProcReturn(fr[_s])

                code.append(i_escape)
                return
            for cslot, loc in reversed(self._scopes):
                self._kill(cslot, loc)
            code.append(_ret(slot))
        elif isinstance(e, K.EScope):
            self._scope(e, scope, falloc, dest, rec)
        elif isinstance(e, K.EVlaCreate):
            self._vla(e, scope, falloc, dest)
        elif isinstance(e, K.EPtrOp):
            args = self._pure_list(e.args, scope, falloc)

            def i_ptrop(ev, fr, _op=e.op, _args=args, _aux=e.aux,
                        _l=e.loc, _d=dest, _n=len(code) + 1):
                v = ev.handle(("ptrop", _op, [a(ev, fr) for a in _args],
                               _aux, _l), ev.thread)
                if _d is not None:
                    fr[_d] = v
                return _n

            code.append(i_ptrop)
        elif isinstance(e, K.EAtomicSeq):
            self._atomic(e, scope, falloc, dest, rec)
        elif isinstance(e, K.EPar):
            self._par(e, scope, falloc, dest)
        elif isinstance(e, K.EWait):
            th = self._pure(e.thread, scope, falloc)

            def i_wait(ev, fr, _th=th, _l=e.loc, _d=dest,
                       _n=len(code) + 1):
                tid = ev._as_integer(_th(ev, fr), _l).value
                return ev.drive(_wait(tid), _d, _n, 0)

            code.append(i_wait)
        else:
            raise InternalError(
                f"lower: unhandled expr {type(e).__name__}", e.loc)

    def _branches(self, bodies, falloc, dest, rec) -> List[int]:
        """Emit alternative ``(body, scope)`` pairs one after another,
        each but the last jumping past the rest; their start pcs."""
        code = self.code
        starts = []
        jumps = []
        for k, (body, scope) in enumerate(bodies):
            starts.append(len(code))
            self._emit(body, scope, falloc, dest, rec)
            if k + 1 < len(bodies):
                jumps.append(self._hole())
        for j in jumps:
            code[j] = _jump(len(code))
        return starts

    def _pure_expr(self, e: K.Expr, scope, falloc):
        """The closure of an effectful form whose ``"pure"`` fact
        holds."""
        while isinstance(e, (K.EIndet, K.EBound)):
            e = e.body
        if isinstance(e, K.EPure):
            return self._pure(e.pe, scope, falloc)
        if isinstance(e, K.ESkip):
            return _unit
        if isinstance(e, K.ELet):
            bound = self._pure(e.bound, scope, falloc)
            s2 = dict(scope)
            m = self._pattern(e.pat, s2, falloc)
            body = self._pure_expr(e.body, s2, falloc)

            def p_let(ev, fr, _b=bound, _m=m, _body=body, _l=e.loc):
                if not _m(_b(ev, fr), fr):
                    raise InternalError("refutable let pattern", _l)
                return _body(ev, fr)

            return p_let
        if isinstance(e, K.EIf):
            cond = self._pure(e.cond, scope, falloc)
            then = self._pure_expr(e.then, scope, falloc)
            els = self._pure_expr(e.els, scope, falloc)
            return lambda ev, fr, _c=cond, _t=then, _e=els: \
                _t(ev, fr) if truthy(_c(ev, fr)) else _e(ev, fr)
        if isinstance(e, K.ECase):
            scrut = self._pure(e.scrutinee, scope, falloc)
            arms = []
            for pat, body in e.branches:
                s2 = dict(scope)
                m = self._pattern(pat, s2, falloc)
                arms.append((m, self._pure_expr(body, s2, falloc)))

            def p_ecase(ev, fr, _s=scrut, _arms=tuple(arms), _l=e.loc):
                v = _s(ev, fr)
                for m, body in _arms:
                    if m(v, fr):
                        return body(ev, fr)
                raise InternalError(f"no matching case branch for {v!r}",
                                    _l)

            return p_ecase
        steps = []
        while isinstance(e, (K.ESseq, K.EWseq)):
            first = self._pure_expr(e.first, scope, falloc)
            scope = dict(scope)
            m = self._pattern(e.pat, scope, falloc)
            steps.append((first, m, _let_msg(e), e.loc))
            e = e.second
        tail = self._pure_expr(e, scope, falloc)

        def p_spine(ev, fr, _steps=tuple(steps), _tail=tail):
            for p, m, msg, lc in _steps:
                if not m(p(ev, fr), fr):
                    raise InternalError(msg, lc)
            return _tail(ev, fr)

        return p_spine

    def _bind(self, p, pat, s2, falloc, msg, loc, alias=None) -> None:
        """Emit the binding of pure closure ``p``'s value to ``pat``
        (binders land in ``s2``).  ``alias`` is the slot ``p`` merely
        reads: a plain binder then shares it — sound because a slot is
        only rebound by re-running its binder, which leaves every scope
        the alias lives in."""
        code = self.code
        if isinstance(pat, K.PatSym):
            if alias is not None:
                s2[pat.name] = alias
                self.fused["slot_alias"] += 1
                return
            slot = falloc.alloc()
            s2[pat.name] = slot
            code.append(_store(p, slot, len(code) + 1))
        elif isinstance(pat, K.PatWild):
            code.append(_store(p, None, len(code) + 1))
        else:
            m = self._pattern(pat, s2, falloc)

            def i_bind(ev, fr, _p=p, _m=m, _msg=msg, _l=loc,
                       _n=len(code) + 1):
                if not _m(_p(ev, fr), fr):
                    raise InternalError(_msg, _l)
                return _n

            code.append(i_bind)

    # ---- sequencing ------------------------------------------------------

    def _seq(self, e, scope, falloc, dest, rec) -> None:
        """A right-nested ``sseq``/``wseq`` spine (every statement list),
        emitted step by step.  A weak step whose first half performs a
        negative action is checked against the rest of the spine after
        the tail has run, innermost first — the order nested
        evaluation checks in."""
        checks = []
        while isinstance(e, (K.ESseq, K.EWseq)):
            check = isinstance(e, K.EWseq) and \
                self._fact(_NEG, e.first) and \
                self._fact(_RECORDS, e.second)
            if check:
                marks = (falloc.alloc(), falloc.alloc())
                self.code.append(_mark(marks[0], len(self.code) + 1))
                checks.append((marks, rec, e.loc))
                rec = True
            s2 = dict(scope)
            self._emit_bound(e.first, e.pat, scope, s2, falloc, rec,
                             _let_msg(e), e.loc)
            if check:
                self.code.append(_mark(marks[1], len(self.code) + 1))
            scope = s2
            e = e.second
        self._emit(e, scope, falloc, dest, rec)
        for marks, outer, loc in reversed(checks):
            self.code.append(_weak_check(marks, not outer, loc,
                                         len(self.code) + 1))

    def _emit_bound(self, first, pat, scope, s2, falloc, rec, msg,
                    loc) -> None:
        """Emit ``first`` with its value bound to ``pat``."""
        while isinstance(first, (K.EIndet, K.EBound)):
            first = first.body
        if self._fact(_PURE, first):
            alias = _alias(first.pe, scope) \
                if isinstance(first, K.EPure) else None
            self._bind(self._pure_expr(first, scope, falloc), pat, s2,
                       falloc, msg, loc, alias)
        elif isinstance(first, K.EUnseq) and \
                isinstance(pat, K.PatCtor) and pat.ctor == "Tuple" and \
                len(pat.args) == len(first.exprs) and \
                all(isinstance(a, (K.PatSym, K.PatWild))
                    for a in pat.args):
            # The elaborated operand shape: the children write straight
            # into the binders' slots, no tuple is built or matched.
            binds = []
            for a in pat.args:
                slot = None
                if isinstance(a, K.PatSym):
                    slot = falloc.alloc()
                    s2[a.name] = slot
                binds.append(slot)
            self.fused["unseq_bind"] += 1
            self._unseq(first, scope, falloc, None, rec, binds)
        elif isinstance(pat, K.PatSym):
            slot = falloc.alloc()
            s2[pat.name] = slot
            self._emit(first, scope, falloc, slot, rec)
        elif isinstance(pat, K.PatWild):
            self._emit(first, scope, falloc, None, rec)
        else:
            tmp = falloc.alloc()
            self._emit(first, scope, falloc, tmp, rec)
            self._bind(_slot_reader(tmp), pat, s2, falloc, msg, loc)

    def _unseq(self, e, scope, falloc, dest, rec, binds=None) -> None:
        """``unseq``: the children's code regions in order, bracketed by
        a begin instruction, one end instruction per effectful child,
        and a join.  When the oracle cannot tell interleavings apart
        (a plain run, or a statically commuting node) the regions run
        one after the other and the pure children are evaluated in
        between, in program order; otherwise the begin hands the
        children to :meth:`CompiledEvaluator.interleave` (the
        scheduling algorithm and choice metadata of the tree
        evaluator's ``_unseq``), each end finishes its child, and the
        parent continues at the join.  The unsequenced-race check runs
        in both modes over the children's records in child order."""
        kids = list(e.exprs)
        n = len(kids)
        pure = [self._fact(_PURE, c) for c in kids]
        check = sum(1 for c, p in zip(kids, pure)
                    if not p and self._fact(_RECORDS, c)) >= 2
        inner = rec or check
        rs = list(binds) if binds is not None \
            else [falloc.alloc() for _ in kids]
        us = falloc.alloc()
        ms = falloc.alloc() if check else None
        pures = [self._pure_expr(c, scope, falloc) if p else None
                 for c, p in zip(kids, pure)]
        code = self.code
        begin = self._hole()
        starts: List[Optional[int]] = [None] * n
        ends = []
        for i, c in enumerate(kids):
            if not pure[i]:
                starts[i] = len(code)
                self._emit(c, scope, falloc, rs[i], inner)
                ends.append(self._hole())
        join = self._hole()
        eff = [i for i in range(n) if not pure[i]]
        cuts = [-1] + eff + [n]
        # Sequential mode: after the begin and after each effectful
        # child, the pure children up to the next effectful one, and
        # where to go next (-1: finish the unseq).
        segs = [(tuple((pures[i], rs[i])
                       for i in range(cuts[k] + 1, cuts[k + 1])),
                 starts[eff[k]] if k < len(eff) else -1)
                for k in range(len(eff) + 1)]
        tup = dest if binds is None else None
        site = UnseqSite(self._unseq_ids.get(id(e), -1),
                         tuple((pures[i], rs[i]) if pure[i] else starts[i]
                               for i in range(n)),
                         us, join, dict(scope))

        def finish(ev, fr, _ms=ms, _rec=rec, _rs=rs, _d=tup, _l=e.loc,
                   _after=join + 1):
            if _ms is not None:
                recs = ev.ctx.recs
                marks = fr[_ms]
                _race([recs[marks[j]:marks[j + 1]]
                       for j in range(len(marks) - 1)], _l)
                if not _rec:
                    del recs[marks[0]:]
            if _d is not None:
                fr[_d] = VTuple(tuple([fr[r] for r in _rs]))
            return _after

        def i_unseq(ev, fr, _site=site, _us=us, _ms=ms, _seg=segs[0],
                    _fin=finish):
            if not ev.seq or ev.static_prune:
                pc = ev.interleave(_site, fr)
                if pc is not None:
                    return pc
            fr[_us] = None
            if _ms is not None:
                fr[_ms] = [len(ev.ctx.recs)]
            evals, target = _seg
            for p, s in evals:
                v = p(ev, fr)
                if s is not None:
                    fr[s] = v
            return target if target >= 0 else _fin(ev, fr)

        code[begin] = i_unseq
        for k, at in enumerate(ends):
            def i_end(ev, fr, _us=us, _ms=ms, _seg=segs[k + 1],
                      _fin=finish, _join=join):
                lv = fr[_us]
                if lv is not None:      # an interleaved child is done
                    return ev.end_child(lv, fr, _us, _join)
                if _ms is not None:
                    fr[_ms].append(len(ev.ctx.recs))
                evals, target = _seg
                for p, s in evals:
                    v = p(ev, fr)
                    if s is not None:
                        fr[s] = v
                return target if target >= 0 else _fin(ev, fr)

            code[at] = i_end

        def i_join(ev, fr, _us=us, _check=check, _rec=rec, _rs=rs,
                   _d=tup, _l=e.loc, _after=join + 1):
            kids = fr[_us].ctxs
            fr[_us] = None
            if _check:
                _race([c.recs for c in kids], _l)
            if _rec:
                recs = ev.ctx.recs
                for c in kids:
                    recs.extend(c.recs)
            if _d is not None:
                fr[_d] = VTuple(tuple([fr[r] for r in _rs]))
            return _after

        code[join] = i_join

    def _atomic(self, e: K.EAtomicSeq, scope, falloc, dest, rec) -> None:
        """``let atomic``: a lock bracket around two actions, so no
        enclosing ``unseq`` schedules between them (§5.6); the value is
        the first action's."""
        a1, a2 = e.first, e.second
        args1 = self._pure_list(a1.args, scope, falloc)
        s2 = dict(scope)
        sym = falloc.alloc()
        s2[e.sym] = sym
        args2 = self._pure_list(a2.args, s2, falloc)
        code = self.code
        act1 = _act(a1.kind, args1, a1.polarity, a1.order, a1.loc, sym,
                    rec and a1.kind not in _LIFETIME, len(code) + 1)

        def i_atomic(ev, fr, _act1=act1):
            ev.ctx.lock += 1
            return _act1(ev, fr)

        code.append(i_atomic)
        unlock = len(code) + 1

        def i_unlock(ev, fr, _s=sym, _d=dest, _n=unlock + 1):
            ev.ctx.lock -= 1
            if _d is not None:
                fr[_d] = fr[_s]
            return _n

        act2 = _act(a2.kind, args2, a2.polarity, a2.order, a2.loc, None,
                    rec and a2.kind not in _LIFETIME, unlock)

        def i_atomic2(ev, fr, _act2=act2, _unlock=i_unlock):
            pc = _act2(ev, fr)
            return pc if pc < 0 else _unlock(ev, fr)

        code.append(i_atomic2)
        code.append(i_unlock)

    # ---- calls -----------------------------------------------------------

    def _call(self, e, scope, falloc, dest) -> None:
        """A C call (``ECcall``, lock-bracketed) or a Core procedure
        call (``EProc``): the callee resolves through a one-element
        per-site cache (function values are per-driver objects, so a
        fresh run re-primes it once); a lowered callee gets a heap
        frame pushed by :meth:`CompiledEvaluator.enter`, a native is
        driven as a request generator."""
        args = self._pure_list(e.args, scope, falloc)
        procs = self.out.procs
        code = self.code
        nxt = len(code) + 1
        if isinstance(e, K.EProc):
            def i_proc(ev, fr, _name=e.name, _args=args, _l=e.loc,
                       _procs=procs, _code=code, _d=dest, _n=nxt):
                vals = [a(ev, fr) for a in _args]
                lp = _procs.get(_name)
                if lp is None:
                    return ev.call_native(_name, vals, _l, _d, _n, 0)
                return ev.enter(lp, vals, _l, _code, _d, _n, fr, 0)

            code.append(i_proc)
            return
        fn = self._pure(e.fn, scope, falloc)

        def i_ccall(ev, fr, _fn=fn, _args=args, _l=e.loc,
                    _site=[None, None, None], _procs=procs, _code=code,
                    _d=dest, _n=nxt):
            f = _fn(ev, fr)
            vals = [a(ev, fr) for a in _args]
            if f is _site[0]:
                name = _site[1]
                lp = _site[2]
            else:
                name = ev._function_name(f, _l)
                lp = _procs.get(name)
                _site[0] = f
                _site[1] = name
                _site[2] = lp
            if lp is None:
                ev.call_generic += 1
                return ev.call_native(name, vals, _l, _d, _n, 1)
            ev.call_fast += 1
            return ev.enter(lp, vals, _l, _code, _d, _n, fr, 1)

        code.append(i_ccall)

    def _par(self, e: K.EPar, scope, falloc, dest) -> None:
        """``par``: one thread per branch; each branch is a code region
        ending in a return (the end of its thread's root context)."""
        code = self.code
        at = self._hole()
        starts = []
        saves, scopes = self._saves, self._scopes
        self._saves, self._scopes = [], []
        self._in_par += 1
        for sub in e.exprs:
            starts.append(len(code))
            slot = falloc.alloc()
            self._emit(sub, scope, falloc, slot, False)
            code.append(_ret(slot))
        self._in_par -= 1
        self._saves, self._scopes = saves, scopes
        code[at] = lambda ev, fr, _s=tuple(starts), _d=dest, \
            _n=len(code): ev.par(_s, fr, _d, _n)

    # ---- save / run ------------------------------------------------------

    def _save(self, e: K.ESave, scope, falloc, dest, rec) -> None:
        defaults = [self._pure(d, scope, falloc) for _, d in e.params]
        s2 = dict(scope)
        slots = []
        for name, _ in e.params:
            slot = falloc.alloc()
            s2[name] = slot
            slots.append(slot)
        code = self.code
        if slots:
            def i_save(ev, fr, _slots=tuple(zip(slots, defaults)),
                       _n=len(code) + 1):
                for s, d in _slots:
                    fr[s] = d(ev, fr)
                return _n

            code.append(i_save)
        self._saves.append((e.label, slots, len(code), len(self._scopes),
                            e.loc))
        self._emit(e.body, s2, falloc, dest, rec)
        self._saves.pop()

    def _run(self, e: K.ERun, scope, falloc) -> None:
        """``run``: evaluate the arguments, kill the objects of every
        scope left on the way out (innermost first), rebind the save's
        parameters, account a step (so effect-free loops still meet
        the step budget) and jump to the save's body."""
        args = self._pure_list(e.args, scope, falloc)
        code = self.code
        for label, slots, body, depth, save_loc in reversed(self._saves):
            if label == e.label:
                break
        else:
            def i_escape(ev, fr, _label=e.label, _args=args):
                raise RunSignal(_label, [a(ev, fr) for a in _args])

            code.append(i_escape)
            return
        if len(slots) != len(args):
            def i_arity(ev, fr, _m=f"run {e.label} arity mismatch",
                        _l=save_loc):
                raise InternalError(_m, _l)

            code.append(i_arity)
            return
        kills = self._scopes[depth:]
        if kills:
            tmps = [falloc.alloc() for _ in args]

            def i_stash(ev, fr, _w=tuple(zip(tmps, args)),
                        _n=len(code) + 1):
                for t, a in _w:
                    fr[t] = a(ev, fr)
                return _n

            code.append(i_stash)
            for cslot, loc in reversed(kills):
                self._kill(cslot, loc)
            args = [_slot_reader(t) for t in tmps]

        def i_run(ev, fr, _args=tuple(args), _slots=tuple(slots),
                  _to=body):
            if _args:
                vals = [a(ev, fr) for a in _args]
                for s, v in zip(_slots, vals):
                    fr[s] = v
            ev.handle(_TICK, ev.thread)
            return _to

        code.append(i_run)

    # ---- scoped lifetimes ------------------------------------------------

    def _scope(self, e: K.EScope, scope, falloc, dest, rec) -> None:
        s2 = dict(scope)
        cslot = falloc.alloc()
        s2[_SCOPE_CREATED] = cslot
        code = self.code

        def i_open(ev, fr, _c=cslot, _n=len(code) + 1):
            fr[_c] = VScopeList([])
            return _n

        code.append(i_open)
        for sc in e.creates:
            slot = falloc.alloc()
            s2[sc.sym] = slot
            args = [VInteger(IntegerValue(self.impl.alignof(sc.ty,
                                                            self.tags))),
                    VCtype(sc.ty), sc.prefix, sc.readonly]

            def i_create(ev, fr, _a=args, _l=sc.loc, _s=slot, _c=cslot,
                         _n=len(code) + 1):
                value, _record = ev.handle(
                    ("action", "create", _a, "pos", "na", _l, ev.chain),
                    ev.thread)
                fr[_s] = value
                fr[_c].items.append(value)
                if ev.preempt:
                    ev.ctx.pc = _n
                    return YIELD
                return _n

            code.append(i_create)
        self._scopes.append((cslot, e.loc))
        self._emit(e.body, s2, falloc, dest, rec)
        self._scopes.pop()
        self._kill(cslot, e.loc)

    def _kill(self, cslot: int, loc) -> None:
        """Kill a scope's objects, last created first: one kill per
        dispatch, so each is a scheduling point of its own."""
        me = len(self.code)

        def i_kill(ev, fr, _c=cslot, _l=loc, _me=me, _n=me + 1):
            items = fr[_c].items
            if not items:
                return _n
            ev.handle(("action", "kill", [items.pop(), FALSE], "pos",
                       "na", _l, ev.chain), ev.thread)
            if ev.preempt:
                ev.ctx.pc = _me
                return YIELD
            return _me

        self.code.append(i_kill)

    def _vla(self, e: K.EVlaCreate, scope, falloc, dest) -> None:
        """Create a runtime-sized array and register it with the
        innermost scope's kill list."""
        size = self._pure(e.size, scope, falloc)
        align_v = VInteger(IntegerValue(self.impl.alignof(e.elem_ty,
                                                          self.tags)))

        def i_vla(ev, fr, _size=size, _av=align_v, _cv=VCtype(e.elem_ty),
                  _prefix=e.prefix, _cs=scope.get(_SCOPE_CREATED),
                  _l=e.loc, _d=dest, _n=len(self.code) + 1):
            n = ev._as_integer(_size(ev, fr), _l)
            value, _record = ev.handle(
                ("action", "create_vla", [_av, _cv, VInteger(n), _prefix],
                 "pos", "na", _l, ev.chain), ev.thread)
            if _cs is not None:
                holder = fr[_cs]
                if isinstance(holder, VScopeList):
                    holder.items.append(value)
            if _d is not None:
                fr[_d] = value
            if ev.preempt:
                ev.ctx.pc = _n
                return YIELD
            return _n

        self.code.append(i_vla)


# ---- instruction builders ---------------------------------------------------


def _match_any(value, fr) -> bool:
    return True


def _unit(ev, fr):
    return UNIT


def _let_msg(e) -> str:
    return "refutable weak-let pattern" if isinstance(e, K.EWseq) \
        else "refutable strong-let pattern"


def _alias(pe, scope) -> Optional[int]:
    return scope.get(pe.name) if isinstance(pe, K.PSym) else None


def _slot_reader(slot):
    return lambda ev, fr, _s=slot: fr[_s]


# The effectful forms a statically pure expression is built from.
_PURE_FORMS = (K.EPure, K.ESkip, K.ELet, K.EIndet, K.EBound, K.EIf,
               K.ECase, K.ESseq, K.EWseq)

# Indices of the static facts (see ``_Lowerer._fact``).
_PURE, _RECORDS, _NEG = 0, 1, 2


def _children(e) -> tuple:
    """The effectful sub-expressions of ``e`` (``par`` branches are
    other threads: left out)."""
    if isinstance(e, (K.ELet, K.EIndet, K.EBound, K.ESave, K.EScope)):
        return (e.body,)
    if isinstance(e, K.EIf):
        return (e.then, e.els)
    if isinstance(e, K.ECase):
        return tuple(b for _, b in e.branches)
    if isinstance(e, (K.ESseq, K.EWseq)):
        return (e.first, e.second)
    if isinstance(e, (K.EUnseq, K.ENd)):
        return tuple(e.exprs)
    return ()


def _actions(e) -> tuple:
    if isinstance(e, K.EAction):
        return (e.action,)
    if isinstance(e, K.EAtomicSeq):
        return (e.first, e.second)
    return ()


def _store(p, dest, nxt):
    if dest is None:
        def i_eval(ev, fr, _p=p, _n=nxt):
            _p(ev, fr)
            return _n

        return i_eval

    def i_pure(ev, fr, _p=p, _d=dest, _n=nxt):
        fr[_d] = _p(ev, fr)
        return _n

    return i_pure


def _act(kind, args, pol, order, loc, dest, keep, nxt):
    """One action: a direct call into the driver's request service,
    its record kept when ``keep``, then a scheduling point when the
    machine is preemptible."""
    def i_act(ev, fr, _args=args, _k=kind, _p=pol, _o=order, _l=loc,
              _d=dest, _keep=keep, _n=nxt):
        value, record = ev.handle(
            ("action", _k, [a(ev, fr) for a in _args], _p, _o, _l,
             ev.chain), ev.thread)
        if _d is not None:
            fr[_d] = value
        if _keep:
            ev.ctx.recs.append(record)
        if ev.preempt:
            ev.ctx.pc = _n
            return YIELD
        return _n

    return i_act


def _jump(to):
    return lambda ev, fr, _to=to: _to


def _ret(slot):
    """Return the value in ``slot`` from the current frame: pop the
    caller's frame, or finish the context at its base."""
    def i_ret(ev, fr, _s=slot):
        v = fr[_s]
        ctx = ev.ctx
        if not ctx.stack:
            ctx.value = v
            return DONE
        ctx.ins, ctx.pc, cfr, d, lk = ctx.stack.pop()
        ev.frames -= 1
        ctx.lock -= lk
        if d is not None:
            cfr[d] = v
        ctx.fr = cfr
        return RELOAD

    return i_ret


def _mark(slot, nxt):
    def i_mark(ev, fr, _s=slot, _n=nxt):
        fr[_s] = len(ev.ctx.recs)
        return _n

    return i_mark


def _race(groups, loc) -> None:
    race = find_unsequenced_race(groups)
    if race is not None:
        a, b = race
        raise UndefinedBehaviour(
            UB.UNSEQUENCED_RACE, loc,
            f"unsequenced {a.kind} and {b.kind} on overlapping "
            f"footprints at 0x{a.footprint.addr:x}")


def _weak_check(marks, outermost, loc, nxt):
    """``let weak``: the first half's negative actions are unsequenced
    with everything the second half did."""
    def i_weak(ev, fr, _m=marks, _outer=outermost, _l=loc, _n=nxt):
        recs = ev.ctx.recs
        a = fr[_m[0]]
        b = fr[_m[1]]
        negs = [r for r in recs[a:b] if r.polarity == "neg"]
        if negs and len(recs) > b:
            race = find_unsequenced_race([negs, recs[b:]])
            if race is not None:
                later = race[1]
                raise UndefinedBehaviour(
                    UB.UNSEQUENCED_RACE, _l,
                    f"store side effect unsequenced with {later.kind} "
                    f"at 0x{later.footprint.addr:x}")
        if _outer:
            del recs[a:]
        return _n

    return i_weak


def _wait(tid):
    return (yield ("wait", tid))
