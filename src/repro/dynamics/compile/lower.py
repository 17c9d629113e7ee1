"""Core → slotted, closure-threaded linear code (the compiled back
end's lowering pass).

One pass over an elaborated :class:`repro.core.ast.Program` flattens
every procedure, pure function, and global initialiser into
pre-resolved closures:

* **Pure expressions** become plain closures ``p(ev, fr) -> Value``:
  per-node ``isinstance`` dispatch is resolved at lower time (each
  AST node becomes exactly the code it needs), and every name is
  resolved to a **frame slot** — frames are flat Python lists, one
  per procedure/function invocation, with a fresh slot allocated per
  binder (compile-time alpha-renaming), so shadowing is safe and no
  ``dict(env)`` copy ever happens at a ``let``/``case``/``sseq``
  boundary.  Names with no lexical binder compile to a
  ``global_env`` lookup, matching the tree evaluator's
  env-then-global fallback.
* **Effectful expressions** become generator closures ``e(ev, fr)``
  yielding the *exact* request protocol of
  :class:`repro.dynamics.evaluator.Evaluator` — ``("action", ...)``
  with scheduling chains, ``("choose", "unseq", n, (frame, cands[,
  hulls]))`` metadata, locks, ticks, spawns — so the driver, the
  explorer, and partial-order reduction consume compiled code with
  byte-identical traces and behaviour sets.  Statically effect-free
  subtrees additionally carry a non-generator fast path (``LE.pure``)
  that the sequencing combinators use to skip generator construction
  entirely on the hot ``let strong <pure>`` spine.
* **Run mode** (``LE.run``): every effectful form *also* carries a
  direct, non-generator executor ``run(ev, fr) -> (value, summary)``
  that services requests through the driver's inline callback
  (``ev._inline``) instead of suspending a generator stack.  The
  driver enters it through :meth:`CompiledEvaluator.call_proc` only
  on plain single-path runs of **thread-free** programs
  (``LoweredProgram.threads_possible`` is the lower-time gate: any
  ``par``/``wait`` node or any reference to a thread native keeps
  the program on the generator protocol).  Exploration always
  records events, so run mode never touches behaviour sets, path
  accounting, or the POR machinery — it is exactly the single-path
  hot loop.

**The specialized call protocol.**  Every C call elaborates to
``ECcall``; its lowering resolves the callee through a one-element
per-site inline cache (function value identity → lowered callee),
pre-builds the callee frame by direct slot writes — no generic
``call_proc`` dispatch, no intermediate generator — and, for
statically pure callee bodies, completes the call entirely on the
closure fast path with no suspension at all.  Generic fallbacks
(natives, unknown/indirect targets the cache misses on) are counted
against the fast path via ``ev.call_fast`` / ``ev.call_generic`` —
surfaced as ``compile.call_fast`` / ``compile.call_generic`` obs
counters.

**The fusion pass.**  During lowering, recurring sequences collapse
into single pre-resolved instructions, counted in
``LoweredProgram.fused``: comparison and arithmetic operands that
are frame slots or constants are read directly (no operand-closure
calls — the compare half of every compare-branch), spine steps with
irrefutable patterns become direct slot-writing instructions, and
the ``load → compute → store`` triple every C assignment elaborates
to becomes one fused load-op-store instruction in the run-mode
spine plan (the generator path keeps the unfused step list — the
explorer's request protocol is untouched).

Static-analysis annotations (:mod:`repro.statics`) are re-keyed from
AST node identity onto **stable instruction ids**: every ``unseq``
instruction captures its positional index in
:func:`repro.statics.collect_unseqs` order (the same positional basis
the persisted ``"statics"`` tables use), and resolves footprint hulls
through a slot-backed environment view at run time.

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
from ..actions import ActionSummary, find_unsequenced_race
from ..evaluator import (
    ProcReturn, RunSignal, _SCOPE_CREATED, _region_counter,
)
from ..values import (
    FALSE, TRUE, UNIT, VBool, VCtype, VFloating, VInteger, VList,
    VMemStruct, VPointer, VScopeList, VSpecified, VTuple, VUnit,
    VUnspecified, core_to_mem, truthy,
)

# Version of the lowering scheme itself, folded into warm-closure
# keys: bump when the slot layout, instruction-id basis, or closure
# protocol changes.
#   1: PR 8 — slotted closure-threaded linear code.
#   2: PR 9 — specialized call protocol, fusion counters and the
#      threads_possible gate join the serialized layout.
LOWERED_VERSION = 2

# Natives that suspend into the thread scheduler (spawn / wait
# requests).  Any lexical reference to one of these names — or any
# `par`/`wait` Core node — marks the program "threads possible" and
# keeps it off run mode: run-mode execution cannot suspend.
_THREAD_NATIVES = frozenset(("thrd_create", "thrd_join"))

# Shared singleton request for loop-tick accounting.
_TICK = ("tick",)

# One shared empty summary for compiled fast paths.  ActionSummary is
# never mutated in place anywhere (union / tag_region build new
# objects), so sharing the empty is safe — the tree evaluator already
# relies on this with its `[empty()] * n` unseq seeding.
_EMPTY = ActionSummary()

_CMP_OPS = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}

# The statics resolver is imported lazily (statics itself lazily
# imports the dynamics package) and only when an annotation is
# actually consumed.
_resolve_hull = None


def _hull_resolver():
    global _resolve_hull
    if _resolve_hull is None:
        from ...statics import resolve_hull
        _resolve_hull = resolve_hull
    return _resolve_hull


class _SlotEnvView:
    """A read-only ``env.get(name)`` adapter over a slot frame, fed to
    :func:`repro.statics.resolve_hull` so static footprint hulls
    resolve against live frame values exactly as they would against
    the tree evaluator's dict environment."""

    __slots__ = ("fr", "slots")

    def __init__(self, fr, slots):
        self.fr = fr
        self.slots = slots

    def get(self, name):
        i = self.slots.get(name)
        return None if i is None else self.fr[i]


class LE:
    """One lowered effectful expression: ``gen(ev, fr)`` builds the
    request generator; ``pure`` (when the subtree is statically
    effect-free — it cannot yield) evaluates directly to the value;
    ``run(ev, fr) -> (value, summary)`` executes directly through the
    driver's inline request service (only entered when ``ev._inline``
    is installed and the program is thread-free — see the module
    docstring's run-mode contract)."""

    __slots__ = ("gen", "pure", "run")

    def __init__(self, gen, pure=None, run=None):
        self.gen = gen
        self.pure = pure
        self.run = run


def _pure_le(p) -> LE:
    def gen(ev, fr):
        return p(ev, fr), _EMPTY
        yield  # pragma: no cover - makes this a generator function

    def run(ev, fr, _p=p):
        return _p(ev, fr), _EMPTY

    return LE(gen, p, run)


def _drive_inline(ev, gen):
    """Run-mode pump for request generators that stay generic (native
    procedures, the generic ``call_proc`` path): every yielded request
    is serviced by the driver's inline callback — same step
    accounting, same deadline checks as a scheduler round-trip."""
    inline = ev._inline
    response = None
    started = False
    while True:
        try:
            request = gen.send(response) if started else next(gen)
            started = True
        except StopIteration as stop:
            return stop.value
        response = inline(request)


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
                 "variadic", "frame_size", "body", "n_instr")

    def __init__(self, name, params, variadic):
        self.name = name
        self.params = params
        self.variadic = variadic
        self.param_slots: List[int] = []
        self.varargs_slot: Optional[int] = None
        self.frame_size = 0
        self.body: Optional[LE] = None
        self.n_instr = 0


class LoweredFun:
    __slots__ = ("name", "params", "param_slots", "frame_size", "body")

    def __init__(self, name, params):
        self.name = name
        self.params = params
        self.param_slots: List[int] = []
        self.frame_size = 0
        self.body: Optional[Callable] = None


class LoweredGlob:
    __slots__ = ("name", "frame_size", "body")

    def __init__(self, name):
        self.name = name
        self.frame_size = 0
        self.body: Optional[LE] = None


class LoweredProgram:
    """The compiled back end of one Core program: slot-threaded
    closures per procedure / pure function / global initialiser, plus
    the positional ``unseq`` instruction table that re-keys static
    annotations onto stable ids."""

    __slots__ = ("procs", "funs", "globs", "unseq_nodes",
                 "threads_possible", "fused")

    def __init__(self):
        self.procs: Dict[str, LoweredProc] = {}
        self.funs: Dict[str, LoweredFun] = {}
        self.globs: Dict[str, LoweredGlob] = {}
        #: ``collect_unseqs`` order: position == stable instruction id.
        self.unseq_nodes: List[K.EUnseq] = []
        #: Lower-time gate for run mode: True when any ``par``/``wait``
        #: node or any lexical reference to a thread native exists —
        #: such a program can suspend into the thread scheduler, which
        #: direct (non-generator) execution cannot do.
        self.threads_possible = False
        #: Fusion-pass hit counts (lower-time): how many recurring
        #: sequences collapsed into single pre-resolved instructions.
        self.fused: Dict[str, int] = {}

    def layout(self) -> dict:
        """The positional layout (frame sizes, arity, instruction
        counts): two lowerings of one Core program agree on it, which
        pins stable instruction ids and frame shapes."""
        return {
            "procs": {name: (p.frame_size, p.n_instr, len(p.params),
                             p.variadic)
                      for name, p in sorted(self.procs.items())},
            "funs": {name: (f.frame_size, len(f.params))
                     for name, f in sorted(self.funs.items())},
            "globs": {name: g.frame_size
                      for name, g in sorted(self.globs.items())},
            "n_unseqs": len(self.unseq_nodes),
            "threads_possible": self.threads_possible,
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
        self._n_instr = 0
        self._threads = False
        self.fused: Dict[str, int] = {
            "cmp_operand": 0, "arith_operand": 0, "slot_instr": 0,
            "load_op_store": 0,
        }

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
            self._n_instr = 0
            lp.body = self._expr(proc.body, scope, falloc)
            lp.frame_size = falloc.n
            lp.n_instr = self._n_instr
        for g in self.program.globs:
            if g.init is None:
                continue
            lg = LoweredGlob(g.name)
            falloc = _FrameAlloc()
            self._n_instr = 0
            lg.body = self._expr(g.init, {}, falloc)
            lg.frame_size = falloc.n
            out.globs[g.name] = lg
        out.threads_possible = self._threads
        out.fused = self.fused
        return out

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
            if pe.name in _THREAD_NATIVES:
                # A lexical reference to a thread native: the only way
                # spawn/wait requests can ever be reached (natives are
                # invoked by name or through a function value taken
                # from that name).  Keeps the program off run mode.
                self._threads = True
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

    def _expr_list(self, exprs, scope, falloc):
        return [self._expr(e, scope, falloc) for e in exprs]

    def _expr(self, e: K.Expr, scope: Dict[str, int],
              falloc: _FrameAlloc) -> LE:
        self._n_instr += 1
        if isinstance(e, K.EPure):
            return _pure_le(self._pure(e.pe, scope, falloc))
        if isinstance(e, K.ESkip):
            return _pure_le(lambda ev, fr: UNIT)
        if isinstance(e, K.EReturn):
            p = self._pure(e.pe, scope, falloc)

            def p_ret(ev, fr, _p=p):
                raise ProcReturn(_p(ev, fr))

            return _pure_le(p_ret)
        if isinstance(e, K.ERun):
            args = self._pure_list(e.args, scope, falloc)

            def p_run(ev, fr, _label=e.label, _args=args):
                raise RunSignal(_label, [a(ev, fr) for a in _args])

            return _pure_le(p_run)
        if isinstance(e, K.EAction):
            return self._action(e.action, scope, falloc)
        if isinstance(e, K.EPtrOp):
            args = self._pure_list(e.args, scope, falloc)

            def g_ptrop(ev, fr, _op=e.op, _args=args, _aux=e.aux,
                        _l=e.loc):
                vals = [a(ev, fr) for a in _args]
                inline = ev._inline
                if inline is not None:
                    value = inline(("ptrop", _op, vals, _aux, _l))
                else:
                    value = yield ("ptrop", _op, vals, _aux, _l)
                return value, _EMPTY

            def r_ptrop(ev, fr, _op=e.op, _args=args, _aux=e.aux,
                        _l=e.loc):
                vals = [a(ev, fr) for a in _args]
                return ev._inline(("ptrop", _op, vals, _aux, _l)), \
                    _EMPTY

            return LE(g_ptrop, run=r_ptrop)
        if isinstance(e, K.ECase):
            return self._ecase(e, scope, falloc)
        if isinstance(e, K.ELet):
            return self._elet(e, scope, falloc)
        if isinstance(e, K.EIf):
            return self._eif(e, scope, falloc)
        if isinstance(e, K.EProc):
            if e.name in _THREAD_NATIVES:
                self._threads = True
            args = self._pure_list(e.args, scope, falloc)

            def g_proc(ev, fr, _n=e.name, _args=args, _l=e.loc):
                vals = [a(ev, fr) for a in _args]
                return (yield from ev.call_proc(_n, vals, _l))

            def r_proc(ev, fr, _n=e.name, _args=args, _l=e.loc):
                vals = [a(ev, fr) for a in _args]
                # call_proc itself takes the direct path when the
                # callee is lowered; the pump only turns for natives.
                return _drive_inline(ev, ev.call_proc(_n, vals, _l))

            return LE(g_proc, run=r_proc)
        if isinstance(e, K.ECcall):
            return self._ccall(e, scope, falloc)
        if isinstance(e, K.EUnseq):
            return self._unseq(e, scope, falloc)
        if isinstance(e, (K.EWseq, K.ESseq)):
            return self._spine(e, scope, falloc)
        if isinstance(e, K.EAtomicSeq):
            return self._atomic_seq(e, scope, falloc)
        if isinstance(e, (K.EIndet, K.EBound)):
            return self._expr(e.body, scope, falloc)
        if isinstance(e, K.ENd):
            les = self._expr_list(e.exprs, scope, falloc)

            def g_nd(ev, fr, _les=les, _n=len(les)):
                idx = 0
                if _n > 1:
                    idx = yield ("choose", "nd", _n)
                le = _les[idx]
                if le.pure is not None:
                    return le.pure(ev, fr), _EMPTY
                return (yield from le.gen(ev, fr))

            def r_nd(ev, fr, _les=les, _n=len(les)):
                idx = 0
                if _n > 1:
                    idx = ev._inline(("choose", "nd", _n))
                le = _les[idx]
                if le.pure is not None:
                    return le.pure(ev, fr), _EMPTY
                return le.run(ev, fr)

            return LE(g_nd, run=r_nd)
        if isinstance(e, K.ESave):
            return self._save(e, scope, falloc)
        if isinstance(e, K.EScope):
            return self._scope(e, scope, falloc)
        if isinstance(e, K.EVlaCreate):
            return self._vla_create(e, scope, falloc)
        if isinstance(e, K.EPar):
            # par spawns threads: the whole program stays off run mode.
            self._threads = True
            les = self._expr_list(e.exprs, scope, falloc)

            def g_par(ev, fr, _les=les):
                tids = []
                for le in _les:
                    tid = yield ("spawn", le.gen(ev, fr))
                    tids.append(tid)
                results = []
                for tid in tids:
                    value = yield ("wait", tid)
                    results.append(value)
                return VTuple(tuple(results)), _EMPTY

            return LE(g_par)
        if isinstance(e, K.EWait):
            # wait suspends into the thread scheduler: no run mode.
            self._threads = True
            th = self._pure(e.thread, scope, falloc)

            def g_wait(ev, fr, _th=th, _l=e.loc):
                tid = ev._as_integer(_th(ev, fr), _l).value
                value = yield ("wait", tid)
                return value, _EMPTY

            return LE(g_wait)
        raise InternalError(
            f"lower: unhandled expr {type(e).__name__}", e.loc)

    # ---- actions ---------------------------------------------------------

    def _action(self, action: K.Action, scope, falloc) -> LE:
        args = self._pure_list(action.args, scope, falloc)
        # Lifetime actions (create / kill / alloc) can never be one
        # side of an unsequenced race — ``conflicting`` exempts them
        # unconditionally — so their summaries are statically empty:
        # no per-action ActionSummary allocation, and every enclosing
        # union / tag_region walks fewer records.  The driver still
        # logs the full record (POR barriers need it when exploring).
        lifetime = action.kind in ("create", "create_vla", "kill",
                                   "alloc")

        def g_action(ev, fr, _args=args, _k=action.kind,
                     _p=action.polarity, _o=action.order,
                     _l=action.loc, _life=lifetime):
            vals = [a(ev, fr) for a in _args]
            # Single-threaded plain runs service hot requests through
            # the driver's inline callback instead of suspending the
            # whole generator stack (see CompiledEvaluator._inline).
            inline = ev._inline
            if inline is not None:
                value, record = inline(("action", _k, vals, _p, _o,
                                        _l, ()))
            else:
                value, record = yield ("action", _k, vals, _p, _o,
                                       _l, ())
            return value, _EMPTY if _life else ActionSummary([record])

        def r_action(ev, fr, _args=args, _k=action.kind,
                     _p=action.polarity, _o=action.order,
                     _l=action.loc, _life=lifetime):
            vals = [a(ev, fr) for a in _args]
            value, record = ev._inline(("action", _k, vals, _p, _o,
                                        _l, ()))
            return value, _EMPTY if _life else ActionSummary([record])

        return LE(g_action, run=r_action)

    # ---- C function calls (the specialized call protocol) ----------------

    def _ccall(self, e: K.ECcall, scope, falloc) -> LE:
        """Every C call elaborates to ``ECcall``; this lowering
        replaces the generic ``call_proc`` path with a specialized
        protocol: a one-element per-site inline cache resolves the
        function value to its lowered callee (function values are
        per-driver objects, so a fresh run's first call through a
        site re-resolves once and re-primes), arguments are written
        directly into a preallocated callee frame, and a statically
        pure callee body completes with no generator suspension at
        all.  Natives and cache-missing indirect targets fall back to
        the generic path; both sides are counted (``ev.call_fast`` /
        ``ev.call_generic``).  The lock bracket and region tagging
        are byte-identical to the tree evaluator's ``_ccall``."""
        fn = self._pure(e.fn, scope, falloc)
        args = self._pure_list(e.args, scope, falloc)
        procs = self.out.procs
        site: list = [None, None, None]  # f, name, lowered-or-None

        def g_ccall(ev, fr, _fn=fn, _args=args, _l=e.loc,
                    _site=site, _procs=procs):
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
            region = next(_region_counter)
            # The lock bracket only gates unseq interleaving, and
            # the driver's per-thread lock counter is write-only:
            # on the inline fast path the bracket is vacuous.
            locked = ev._inline is None
            if locked:
                yield ("lock", 1)
            # No unlock on exception — same teardown contract as
            # the tree evaluator's _ccall.
            if lp is None:
                # Native or unknown name: the generic protocol
                # (call_proc raises the canonical diagnostic).
                ev.call_generic += 1
                value, summary = yield from ev.call_proc(name, vals,
                                                         _l)
            else:
                ev.call_fast += 1
                nparams = len(lp.params)
                if len(vals) != nparams and not lp.variadic:
                    raise InternalError(
                        f"arity mismatch calling {name}: {len(vals)} "
                        f"args for {nparams} params", _l)
                ffr = [None] * lp.frame_size
                for slot, v in zip(lp.param_slots, vals):
                    ffr[slot] = v
                if lp.variadic:
                    ffr[lp.varargs_slot] = VList(
                        tuple(vals[nparams:]))
                body = lp.body
                try:
                    if body.pure is not None:
                        value = body.pure(ev, ffr)
                        summary = _EMPTY
                    else:
                        value, summary = yield from body.gen(ev, ffr)
                except ProcReturn as r:
                    value = r.value
                    summary = _EMPTY
            if locked:
                yield ("lock", -1)
            return value, summary.tag_region(region)

        def r_ccall(ev, fr, _fn=fn, _args=args, _l=e.loc,
                    _site=site, _procs=procs):
            # No region tagging on this path: a tagged record is inert
            # in every later race check (cross-group pairs from
            # *different* calls carry different chains and the
            # indeterminate-sequencing exemption skips them; records of
            # one dynamic call can never straddle two groups), so the
            # callee summary is dropped here instead of being rebuilt
            # record-by-record only to be exempted.  The generator path
            # keeps the tagging — the tree evaluator is the oracle for
            # exploration and the two must stay structurally aligned.
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
                value, _ = _drive_inline(
                    ev, ev.call_proc(name, vals, _l))
            else:
                ev.call_fast += 1
                nparams = len(lp.params)
                if len(vals) != nparams and not lp.variadic:
                    raise InternalError(
                        f"arity mismatch calling {name}: {len(vals)} "
                        f"args for {nparams} params", _l)
                ffr = [None] * lp.frame_size
                for slot, v in zip(lp.param_slots, vals):
                    ffr[slot] = v
                if lp.variadic:
                    ffr[lp.varargs_slot] = VList(
                        tuple(vals[nparams:]))
                body = lp.body
                try:
                    if body.pure is not None:
                        value = body.pure(ev, ffr)
                    else:
                        value, _ = body.run(ev, ffr)
                except ProcReturn as r:
                    value = r.value
            return value, _EMPTY

        return LE(g_ccall, run=r_ccall)

    # ---- binding combinators ---------------------------------------------

    def _ecase(self, e: K.ECase, scope, falloc) -> LE:
        scrut = self._pure(e.scrutinee, scope, falloc)
        branches = []
        for pat, body in e.branches:
            s2 = dict(scope)
            m = self._pattern(pat, s2, falloc)
            branches.append((m, self._expr(body, s2, falloc)))
        if all(le.pure is not None for _, le in branches):
            pure_branches = [(m, le.pure) for m, le in branches]

            def p_case(ev, fr, _s=scrut, _b=pure_branches, _l=e.loc):
                v = _s(ev, fr)
                for m, body in _b:
                    if m(v, fr):
                        return body(ev, fr)
                raise InternalError(
                    f"no matching case branch for {v!r}", _l)

            return _pure_le(p_case)

        def g_case(ev, fr, _s=scrut, _b=branches, _l=e.loc):
            v = _s(ev, fr)
            for m, le in _b:
                if m(v, fr):
                    if le.pure is not None:
                        return le.pure(ev, fr), _EMPTY
                    return (yield from le.gen(ev, fr))
            raise InternalError(f"no matching case branch for {v!r}",
                                _l)

        def r_case(ev, fr, _s=scrut, _b=branches, _l=e.loc):
            v = _s(ev, fr)
            for m, le in _b:
                if m(v, fr):
                    if le.pure is not None:
                        return le.pure(ev, fr), _EMPTY
                    return le.run(ev, fr)
            raise InternalError(f"no matching case branch for {v!r}",
                                _l)

        return LE(g_case, run=r_case)

    def _elet(self, e: K.ELet, scope, falloc) -> LE:
        bound = self._pure(e.bound, scope, falloc)
        s2 = dict(scope)
        m = self._pattern(e.pat, s2, falloc)
        body = self._expr(e.body, s2, falloc)
        if body.pure is not None:
            def p_let(ev, fr, _b=bound, _m=m, _body=body.pure,
                      _l=e.loc):
                v = _b(ev, fr)
                if not _m(v, fr):
                    raise InternalError("refutable let pattern", _l)
                return _body(ev, fr)

            return _pure_le(p_let)

        def g_let(ev, fr, _b=bound, _m=m, _body=body.gen, _l=e.loc):
            v = _b(ev, fr)
            if not _m(v, fr):
                raise InternalError("refutable let pattern", _l)
            return (yield from _body(ev, fr))

        def r_let(ev, fr, _b=bound, _m=m, _body=body, _l=e.loc):
            v = _b(ev, fr)
            if not _m(v, fr):
                raise InternalError("refutable let pattern", _l)
            return _body.run(ev, fr)

        return LE(g_let, run=r_let)

    def _eif(self, e: K.EIf, scope, falloc) -> LE:
        cond = self._pure(e.cond, scope, falloc)
        then = self._expr(e.then, scope, falloc)
        els = self._expr(e.els, scope, falloc)
        if then.pure is not None and els.pure is not None:
            def p_if(ev, fr, _c=cond, _t=then.pure, _e=els.pure):
                return _t(ev, fr) if truthy(_c(ev, fr)) \
                    else _e(ev, fr)

            return _pure_le(p_if)

        def g_if(ev, fr, _c=cond, _t=then, _e=els):
            le = _t if truthy(_c(ev, fr)) else _e
            if le.pure is not None:
                return le.pure(ev, fr), _EMPTY
            return (yield from le.gen(ev, fr))

        def r_if(ev, fr, _c=cond, _t=then, _e=els):
            le = _t if truthy(_c(ev, fr)) else _e
            if le.pure is not None:
                return le.pure(ev, fr), _EMPTY
            return le.run(ev, fr)

        return LE(g_if, run=r_if)

    # ---- sequencing ------------------------------------------------------

    def _spine(self, e: K.Expr, scope, falloc) -> LE:
        """Flatten a right-nested ``sseq``/``wseq`` chain — the spine
        every C statement list elaborates to — into ONE generator
        running a linear step list, instead of one nested generator
        frame per sequencing node.  Evaluation order, refutable-pattern
        errors, record order, and weak-sequencing race checks (which
        nested evaluation performs innermost-first, after the whole
        spine has run) are all preserved exactly."""
        steps = []
        meta = []
        while isinstance(e, (K.ESseq, K.EWseq)):
            weak = isinstance(e, K.EWseq)
            self._n_instr += 1
            node = e.first
            # Run-plan metadata: actions get their request parts
            # re-lowered against the *pre-pattern* scope (pure
            # lowering is deterministic and allocates no step slots)
            # so the plan can issue the request without the generator
            # wrapper; patterns record their single target slot when
            # irrefutable.
            act = None
            if isinstance(node, K.EAction):
                a = node.action
                act = (a.kind,
                       self._pure_list(a.args, scope, falloc),
                       a.polarity, a.order, a.loc)
            first = self._expr(node, scope, falloc)
            scope = dict(scope)
            pat = e.pat
            m = self._pattern(pat, scope, falloc)
            slot = scope[pat.name] if isinstance(pat, K.PatSym) \
                else None
            wild = isinstance(pat, K.PatWild)
            msg = "refutable weak-let pattern" if weak \
                else "refutable strong-let pattern"
            steps.append((first, m, msg, e.loc, weak))
            meta.append((act, slot, wild))
            e = e.second
        tail = self._expr(e, scope, falloc)
        if tail.pure is not None and \
                all(st[0].pure is not None for st in steps):
            pure_steps = tuple((st[0].pure, st[1], st[2], st[3])
                               for st in steps)

            def p_spine(ev, fr, _steps=pure_steps, _tail=tail.pure):
                for p, m, msg, lc in _steps:
                    if not m(p(ev, fr), fr):
                        raise InternalError(msg, lc)
                return _tail(ev, fr)

            return _pure_le(p_spine)
        plan = self._spine_plan(steps, meta) \
            if not any(st[4] for st in steps) else None
        steps = tuple(steps)
        if plan is not None:
            # All-strong spine (the dominant shape): no weak race
            # checks, so the summary is just the step records
            # concatenated in evaluation order.
            def g_spine_strong(ev, fr, _steps=steps, _tail=tail):
                recs = None
                for le, m, msg, lc, _weak in _steps:
                    if le.pure is not None:
                        v = le.pure(ev, fr)
                    else:
                        v, s = yield from le.gen(ev, fr)
                        if s.records:
                            if recs is None:
                                recs = list(s.records)
                            else:
                                recs.extend(s.records)
                    if not m(v, fr):
                        raise InternalError(msg, lc)
                if _tail.pure is not None:
                    v = _tail.pure(ev, fr)
                else:
                    v, ts = yield from _tail.gen(ev, fr)
                    if ts.records:
                        if recs is None:
                            return v, ts
                        recs.extend(ts.records)
                if recs is None:
                    return v, _EMPTY
                return v, ActionSummary(recs)

            def r_spine_strong(ev, fr, _plan=plan, _tail=tail):
                recs = []
                for instr in _plan:
                    instr(ev, fr, recs)
                if _tail.pure is not None:
                    v = _tail.pure(ev, fr)
                else:
                    v, ts = _tail.run(ev, fr)
                    if ts.records:
                        recs.extend(ts.records)
                if not recs:
                    return v, _EMPTY
                return v, ActionSummary(recs)

            return LE(g_spine_strong, run=r_spine_strong)

        def g_spine(ev, fr, _steps=steps, _tail=tail):
            eff = None
            i = 0
            for le, m, msg, lc, weak in _steps:
                if le.pure is not None:
                    v = le.pure(ev, fr)
                else:
                    v, s = yield from le.gen(ev, fr)
                    if s.records:
                        if eff is None:
                            eff = [(i, s)]
                        else:
                            eff.append((i, s))
                if not m(v, fr):
                    raise InternalError(msg, lc)
                i += 1
            if _tail.pure is not None:
                v = _tail.pure(ev, fr)
                tail_s = None
            else:
                v, tail_s = yield from _tail.gen(ev, fr)
                if not tail_s.records:
                    tail_s = None
            if eff is None and tail_s is None:
                return v, _EMPTY
            # Weak-sequencing race checks, innermost (latest) first —
            # the order nested evaluation performs them in.
            later = tail_s.records if tail_s is not None else []
            parts = [] if tail_s is None else [tail_s]
            if eff is not None:
                for j in range(len(eff) - 1, -1, -1):
                    i, s = eff[j]
                    st = _steps[i]
                    if st[4] and later:
                        negs = s.negatives()
                        if negs:
                            race = find_unsequenced_race([negs, later])
                            if race is not None:
                                a, b = race
                                raise UndefinedBehaviour(
                                    UB.UNSEQUENCED_RACE, st[3],
                                    f"store side effect unsequenced "
                                    f"with {b.kind} at "
                                    f"0x{b.footprint.addr:x}")
                    later = s.records + later
                    parts.append(s)
            if len(parts) == 1:
                return v, parts[0]
            return v, ActionSummary(later)

        def r_spine(ev, fr, _steps=steps, _tail=tail):
            # The weak spine keeps the unfused step walk in run mode
            # too: the innermost-first race checks below can raise
            # UNSEQUENCED_RACE, a real verdict, and must see the same
            # per-step summaries as the generator path.
            eff = None
            i = 0
            for le, m, msg, lc, weak in _steps:
                if le.pure is not None:
                    v = le.pure(ev, fr)
                else:
                    v, s = le.run(ev, fr)
                    if s.records:
                        if eff is None:
                            eff = [(i, s)]
                        else:
                            eff.append((i, s))
                if not m(v, fr):
                    raise InternalError(msg, lc)
                i += 1
            if _tail.pure is not None:
                v = _tail.pure(ev, fr)
                tail_s = None
            else:
                v, tail_s = _tail.run(ev, fr)
                if not tail_s.records:
                    tail_s = None
            if eff is None and tail_s is None:
                return v, _EMPTY
            later = tail_s.records if tail_s is not None else []
            parts = [] if tail_s is None else [tail_s]
            if eff is not None:
                for j in range(len(eff) - 1, -1, -1):
                    i, s = eff[j]
                    st = _steps[i]
                    if st[4] and later:
                        negs = s.negatives()
                        if negs:
                            race = find_unsequenced_race([negs, later])
                            if race is not None:
                                a, b = race
                                raise UndefinedBehaviour(
                                    UB.UNSEQUENCED_RACE, st[3],
                                    f"store side effect unsequenced "
                                    f"with {b.kind} at "
                                    f"0x{b.footprint.addr:x}")
                    later = s.records + later
                    parts.append(s)
            if len(parts) == 1:
                return v, parts[0]
            return v, ActionSummary(later)

        return LE(g_spine, run=r_spine)

    def _spine_plan(self, steps, meta):
        """The run-mode instruction plan for an all-strong spine: one
        pre-resolved instruction ``instr(ev, fr, recs)`` per step (or
        per *fused* step group), appending action records to ``recs``
        in evaluation order.  Fusions (lower-time, counted in
        ``self.fused``):

        * ``load_op_store`` — the ``let old = load; let new = <pure>;
          let _ = store`` triple every C compound assignment /
          increment elaborates to becomes ONE instruction: load
          request, slot write, pure compute, slot write, store
          request, two records — no pattern matchers, no per-step
          dispatch.
        * ``slot_instr`` — a step whose pattern is a plain binder or
          wildcard becomes a direct slot-write (or value-drop)
          instruction: the compiled matcher call disappears.

        Steps the plan can't specialize run their generic
        ``pure``/``run`` closure plus matcher, exactly like the
        generator spine."""
        plan = []
        i = 0
        n = len(steps)
        while i < n:
            le, m, msg, lc, _weak = steps[i]
            act, slot, wild = meta[i]
            if act is not None and act[0] == "load" and \
                    slot is not None and i + 2 < n:
                le2 = steps[i + 1][0]
                act2, slot2, _w2 = meta[i + 1]
                act3, _s3, wild3 = meta[i + 2]
                if le2.pure is not None and act2 is None and \
                        slot2 is not None and act3 is not None and \
                        act3[0] == "store" and wild3:
                    self.fused["load_op_store"] += 1
                    plan.append(self._i_load_op_store(
                        act, slot, le2.pure, slot2, act3))
                    i += 3
                    continue
            if le.pure is not None and slot is not None:
                self.fused["slot_instr"] += 1

                def i_pure_slot(ev, fr, recs, _p=le.pure, _s=slot):
                    fr[_s] = _p(ev, fr)

                plan.append(i_pure_slot)
            elif le.pure is not None and wild:
                self.fused["slot_instr"] += 1

                def i_pure_drop(ev, fr, recs, _p=le.pure):
                    _p(ev, fr)

                plan.append(i_pure_drop)
            elif act is not None and (slot is not None or wild):
                self.fused["slot_instr"] += 1
                plan.append(self._i_action_slot(act, slot))
            else:
                def i_generic(ev, fr, recs, _le=le, _m=m, _msg=msg,
                              _lc=lc):
                    if _le.pure is not None:
                        v = _le.pure(ev, fr)
                    else:
                        v, s = _le.run(ev, fr)
                        if s.records:
                            recs.extend(s.records)
                    if not _m(v, fr):
                        raise InternalError(_msg, _lc)

                plan.append(i_generic)
            i += 1
        return tuple(plan)

    @staticmethod
    def _i_action_slot(act, slot):
        kind, args, pol, order, loc = act
        if slot is None:
            def i_act_drop(ev, fr, recs, _args=args, _k=kind, _p=pol,
                           _o=order, _l=loc):
                vals = [a(ev, fr) for a in _args]
                _v, record = ev._inline(("action", _k, vals, _p, _o,
                                         _l, ()))
                recs.append(record)

            return i_act_drop

        def i_act_slot(ev, fr, recs, _args=args, _k=kind, _p=pol,
                       _o=order, _l=loc, _s=slot):
            vals = [a(ev, fr) for a in _args]
            v, record = ev._inline(("action", _k, vals, _p, _o, _l,
                                    ()))
            recs.append(record)
            fr[_s] = v

        return i_act_slot

    @staticmethod
    def _i_load_op_store(lact, lslot, pure, pslot, sact):
        _lk, largs, lp, lo, ll = lact
        _sk, sargs, sp, so, sl = sact

        def i_los(ev, fr, recs, _largs=largs, _lp=lp, _lo=lo, _ll=ll,
                  _ls=lslot, _pure=pure, _ps=pslot, _sargs=sargs,
                  _sp=sp, _so=so, _sl=sl):
            inline = ev._inline
            vals = [a(ev, fr) for a in _largs]
            v, rec1 = inline(("action", "load", vals, _lp, _lo, _ll,
                              ()))
            fr[_ls] = v
            fr[_ps] = _pure(ev, fr)
            svals = [a(ev, fr) for a in _sargs]
            _v2, rec2 = inline(("action", "store", svals, _sp, _so,
                                _sl, ()))
            recs.append(rec1)
            recs.append(rec2)

        return i_los

    def _atomic_seq(self, e: K.EAtomicSeq, scope, falloc) -> LE:
        a1 = e.first
        a2 = e.second
        args1 = self._pure_list(a1.args, scope, falloc)
        s2 = dict(scope)
        sym_slot = falloc.alloc()
        s2[e.sym] = sym_slot
        args2 = self._pure_list(a2.args, s2, falloc)

        def g_atomic(ev, fr, _a1=args1, _a2=args2, _slot=sym_slot,
                     _k1=a1.kind, _p1=a1.polarity, _o1=a1.order,
                     _l1=a1.loc, _k2=a2.kind, _p2=a2.polarity,
                     _o2=a2.order, _l2=a2.loc):
            inline = ev._inline
            if inline is not None:
                # Single-threaded plain run: nothing can interleave
                # with the pair, so the lock bracket is vacuous.
                vals1 = [a(ev, fr) for a in _a1]
                v1, rec1 = inline(("action", _k1, vals1, _p1, _o1,
                                   _l1, ()))
                fr[_slot] = v1
                vals2 = [a(ev, fr) for a in _a2]
                _v2, rec2 = inline(("action", _k2, vals2, _p2, _o2,
                                    _l2, ()))
                return v1, ActionSummary([rec1, rec2])
            yield ("lock", 1)
            vals1 = [a(ev, fr) for a in _a1]
            v1, rec1 = yield ("action", _k1, vals1, _p1, _o1, _l1, ())
            fr[_slot] = v1
            vals2 = [a(ev, fr) for a in _a2]
            _v2, rec2 = yield ("action", _k2, vals2, _p2, _o2, _l2, ())
            yield ("lock", -1)
            # The value of the atomic pair is the first action's (the
            # loaded pre-increment value, which is the value of x++).
            return v1, ActionSummary([rec1, rec2])

        def r_atomic(ev, fr, _a1=args1, _a2=args2, _slot=sym_slot,
                     _k1=a1.kind, _p1=a1.polarity, _o1=a1.order,
                     _l1=a1.loc, _k2=a2.kind, _p2=a2.polarity,
                     _o2=a2.order, _l2=a2.loc):
            inline = ev._inline
            vals1 = [a(ev, fr) for a in _a1]
            v1, rec1 = inline(("action", _k1, vals1, _p1, _o1, _l1,
                               ()))
            fr[_slot] = v1
            vals2 = [a(ev, fr) for a in _a2]
            _v2, rec2 = inline(("action", _k2, vals2, _p2, _o2, _l2,
                                ()))
            return v1, ActionSummary([rec1, rec2])

        return LE(g_atomic, run=r_atomic)

    # ---- unseq -----------------------------------------------------------

    def _unseq(self, e: K.EUnseq, scope, falloc) -> LE:
        """Interleaving at action granularity — the same algorithm,
        protocol, and metadata as the tree evaluator's ``_unseq``
        (q.v. for the full scheduling commentary).  The static
        annotation is read through the node's stable instruction id
        (``collect_unseqs`` position) rather than AST identity, and
        footprint hulls resolve through a slot-backed env view."""
        children = self._expr_list(e.exprs, scope, falloc)
        uidx = self._unseq_ids.get(id(e), -1)
        env_slots = dict(scope)
        loc = e.loc
        n = len(children)

        def g_unseq(ev, fr, _children=children, _uidx=uidx,
                    _slots=env_slots, _n=n, _l=loc):
            static = ev._static_info(_uidx) if ev.static_prune \
                else None
            if (static is not None and static[0]) or ev._fast_sched:
                # Sequential fast path: either the statics proved all
                # interleavings equivalent, or the driver marked the
                # oracle plain (always picks candidate 0, which *is*
                # program-order sequential execution).  Race detection
                # below still runs in both cases.
                if static is not None and static[0]:
                    ev.static_unseq_skips += 1
                results = []
                first = None
                groups = None
                for child in _children:
                    if child.pure is not None:
                        results.append(child.pure(ev, fr))
                    else:
                        value, summary = yield from child.gen(ev, fr)
                        results.append(value)
                        if summary.records:
                            if first is None:
                                first = summary
                            elif groups is None:
                                groups = [first.records,
                                          summary.records]
                            else:
                                groups.append(summary.records)
                if groups is None:
                    # At most one child performed actions: no
                    # cross-child race is possible and its summary
                    # passes through unchanged.
                    return VTuple(tuple(results)), \
                        first if first is not None else _EMPTY
                race = find_unsequenced_race(groups)
                if race is not None:
                    a, b = race
                    raise UndefinedBehaviour(
                        UB.UNSEQUENCED_RACE, _l,
                        f"unsequenced {a.kind} and {b.kind} on "
                        f"overlapping footprints at "
                        f"0x{a.footprint.addr:x}")
                recs = []
                for g in groups:
                    recs.extend(g)
                return VTuple(tuple(results)), ActionSummary(recs)
            hulls = None
            if static is not None:
                resolve = _hull_resolver()
                env_view = _SlotEnvView(fr, _slots)
                hulls = tuple(
                    resolve(info, env_view, ev.global_env, ev.model)
                    for info in static[1])
            gens = [c.gen(ev, fr) for c in _children]
            frame = next(ev._unseq_counter)
            done = [False] * _n
            started = [False] * _n
            results = [None] * _n
            summaries = [_EMPTY] * _n
            responses = [None] * _n
            locks = [0] * _n
            current = None
            while not all(done):
                locked = [i for i in range(_n) if locks[i] > 0]
                if locked:
                    candidates = locked
                else:
                    candidates = [i for i in range(_n) if not done[i]]
                if current is None or done[current] or \
                        current not in candidates:
                    cand = tuple(candidates)
                    meta = (frame, cand) if hulls is None else \
                        (frame, cand, tuple(hulls[i] for i in cand))
                    pick = yield ("choose", "unseq", len(candidates),
                                  meta)
                    current = candidates[pick]
                idx = current
                gen = gens[idx]
                try:
                    if not started[idx]:
                        started[idx] = True
                        request = next(gen)
                    else:
                        request = gen.send(responses[idx])
                except StopIteration as stop:
                    done[idx] = True
                    current = None
                    value, summary = stop.value
                    results[idx] = value
                    summaries[idx] = summary
                    continue
                if request[0] == "lock":
                    locks[idx] += request[1]
                elif request[0] == "action":
                    chain = request[6] if len(request) > 6 else ()
                    request = request[:6] + (chain + ((frame, idx),),)
                responses[idx] = yield request
                if request[0] in ("action", "raw", "stdout") and \
                        locks[idx] == 0:
                    current = None  # scheduling point after each action
            race = find_unsequenced_race(
                [s.records for s in summaries])
            if race is not None:
                a, b = race
                raise UndefinedBehaviour(
                    UB.UNSEQUENCED_RACE, _l,
                    f"unsequenced {a.kind} and {b.kind} on overlapping "
                    f"footprints at 0x{a.footprint.addr:x}")
            total = _EMPTY.union(*summaries)
            return VTuple(tuple(results)), total

        def r_unseq(ev, fr, _children=children, _uidx=uidx, _l=loc):
            # Run mode implies the plain oracle (`_fast_sched` and
            # `_inline` are installed together), so only the
            # sequential fast path exists here; the static-prune skip
            # counter and the race check are kept identical.
            static = ev._static_info(_uidx) if ev.static_prune \
                else None
            if static is not None and static[0]:
                ev.static_unseq_skips += 1
            results = []
            first = None
            groups = None
            for child in _children:
                if child.pure is not None:
                    results.append(child.pure(ev, fr))
                else:
                    value, summary = child.run(ev, fr)
                    results.append(value)
                    if summary.records:
                        if first is None:
                            first = summary
                        elif groups is None:
                            groups = [first.records, summary.records]
                        else:
                            groups.append(summary.records)
            if groups is None:
                return VTuple(tuple(results)), \
                    first if first is not None else _EMPTY
            race = find_unsequenced_race(groups)
            if race is not None:
                a, b = race
                raise UndefinedBehaviour(
                    UB.UNSEQUENCED_RACE, _l,
                    f"unsequenced {a.kind} and {b.kind} on "
                    f"overlapping footprints at "
                    f"0x{a.footprint.addr:x}")
            recs = []
            for g in groups:
                recs.extend(g)
            return VTuple(tuple(results)), ActionSummary(recs)

        return LE(g_unseq, run=r_unseq)

    # ---- save / run ------------------------------------------------------

    def _save(self, e: K.ESave, scope, falloc) -> LE:
        defaults = [self._pure(d, scope, falloc) for _, d in e.params]
        s2 = dict(scope)
        slots = []
        for name, _ in e.params:
            slot = falloc.alloc()
            s2[name] = slot
            slots.append(slot)
        body = self._expr(e.body, s2, falloc)

        def g_save(ev, fr, _defaults=defaults, _slots=slots,
                   _body=body, _label=e.label, _l=e.loc):
            values = [d(ev, fr) for d in _defaults]
            total = _EMPTY
            bp = _body.pure
            bg = _body.gen
            while True:
                for s, v in zip(_slots, values):
                    fr[s] = v
                try:
                    if bp is not None:
                        return bp(ev, fr), total
                    value, summary = yield from bg(ev, fr)
                    return value, total.union(summary)
                except RunSignal as r:
                    if r.label != _label:
                        raise
                    if len(r.run_args) != len(_slots):
                        raise InternalError(
                            f"run {_label} arity mismatch",
                            _l) from None
                    values = r.run_args
                    # Account a step per loop re-establishment so that
                    # effect-free infinite loops still hit the
                    # driver's step budget.
                    if ev._inline is not None:
                        ev._inline(_TICK)
                    else:
                        yield _TICK

        def r_save(ev, fr, _defaults=defaults, _slots=slots,
                   _body=body, _label=e.label, _l=e.loc):
            values = [d(ev, fr) for d in _defaults]
            total = _EMPTY
            bp = _body.pure
            br = _body.run
            inline = ev._inline
            while True:
                for s, v in zip(_slots, values):
                    fr[s] = v
                try:
                    if bp is not None:
                        return bp(ev, fr), total
                    value, summary = br(ev, fr)
                    return value, total.union(summary)
                except RunSignal as r:
                    if r.label != _label:
                        raise
                    if len(r.run_args) != len(_slots):
                        raise InternalError(
                            f"run {_label} arity mismatch",
                            _l) from None
                    values = r.run_args
                    inline(_TICK)

        return LE(g_save, run=r_save)

    # ---- scoped lifetimes ------------------------------------------------

    def _scope(self, e: K.EScope, scope, falloc) -> LE:
        s2 = dict(scope)
        created_slot = falloc.alloc()
        s2[_SCOPE_CREATED] = created_slot
        specs = []
        for sc in e.creates:
            slot = falloc.alloc()
            s2[sc.sym] = slot
            align = self.impl.alignof(sc.ty, self.tags)
            args = [VInteger(IntegerValue(align)), VCtype(sc.ty),
                    sc.prefix, sc.readonly]
            specs.append((slot, args, sc.loc))
        body = self._expr(e.body, s2, falloc)

        def g_scope(ev, fr, _cslot=created_slot, _specs=specs,
                    _body=body, _l=e.loc):
            created = []
            fr[_cslot] = VScopeList(created)
            summary = _EMPTY
            for slot, args, sloc in _specs:
                req = ("action", "create", args, "pos", "na", sloc,
                       ())
                inline = ev._inline
                if inline is not None:
                    value, record = inline(req)
                else:
                    value, record = yield req
                fr[slot] = value
                created.append(value)
                summary = summary.union(ActionSummary.single(record))
            try:
                if _body.pure is not None:
                    value = _body.pure(ev, fr)
                    body_summary = _EMPTY
                else:
                    value, body_summary = yield from _body.gen(ev, fr)
            except (RunSignal, ProcReturn) as signal:
                yield from _kill_scope(ev, created, _l)
                raise signal
            kill_summary = yield from _kill_scope(ev, created, _l)
            return value, summary.union(body_summary, kill_summary)

        def r_scope(ev, fr, _cslot=created_slot, _specs=specs,
                    _body=body, _l=e.loc):
            inline = ev._inline
            created = []
            fr[_cslot] = VScopeList(created)
            summary = _EMPTY
            for slot, args, sloc in _specs:
                value, record = inline(("action", "create", args,
                                        "pos", "na", sloc, ()))
                fr[slot] = value
                created.append(value)
                summary = summary.union(ActionSummary.single(record))
            try:
                if _body.pure is not None:
                    value = _body.pure(ev, fr)
                    body_summary = _EMPTY
                else:
                    value, body_summary = _body.run(ev, fr)
            except (RunSignal, ProcReturn) as signal:
                _kill_scope_run(ev, created, _l)
                raise signal
            kill_summary = _kill_scope_run(ev, created, _l)
            return value, summary.union(body_summary, kill_summary)

        return LE(g_scope, run=r_scope)

    def _vla_create(self, e: K.EVlaCreate, scope, falloc) -> LE:
        size = self._pure(e.size, scope, falloc)
        align = self.impl.alignof(e.elem_ty, self.tags)
        align_v = VInteger(IntegerValue(align))
        cty_v = VCtype(e.elem_ty)
        created_slot = scope.get(_SCOPE_CREATED)

        def g_vla(ev, fr, _size=size, _av=align_v, _cv=cty_v,
                  _prefix=e.prefix, _cslot=created_slot, _l=e.loc):
            n = ev._as_integer(_size(ev, fr), _l)
            req = ("action", "create_vla",
                   [_av, _cv, VInteger(n), _prefix],
                   "pos", "na", _l, ())
            inline = ev._inline
            if inline is not None:
                value, record = inline(req)
            else:
                value, record = yield req
            if _cslot is not None:
                holder = fr[_cslot]
                if isinstance(holder, VScopeList):
                    holder.items.append(value)
            return value, ActionSummary.single(record)

        def r_vla(ev, fr, _size=size, _av=align_v, _cv=cty_v,
                  _prefix=e.prefix, _cslot=created_slot, _l=e.loc):
            n = ev._as_integer(_size(ev, fr), _l)
            value, record = ev._inline(
                ("action", "create_vla",
                 [_av, _cv, VInteger(n), _prefix], "pos", "na", _l,
                 ()))
            if _cslot is not None:
                holder = fr[_cslot]
                if isinstance(holder, VScopeList):
                    holder.items.append(value)
            return value, ActionSummary.single(record)

        return LE(g_vla, run=r_vla)


def _match_any(value, fr) -> bool:
    return True


def _kill_scope(ev, created, loc):
    summary = _EMPTY
    for v in reversed(created):
        req = ("action", "kill", [v, VBool(False)], "pos", "na", loc,
               ())
        inline = ev._inline
        if inline is not None:
            _, record = inline(req)
        else:
            _, record = yield req
        summary = summary.union(ActionSummary.single(record))
    return summary


def _kill_scope_run(ev, created, loc):
    inline = ev._inline
    summary = _EMPTY
    for v in reversed(created):
        _, record = inline(("action", "kill", [v, VBool(False)],
                            "pos", "na", loc, ()))
        summary = summary.union(ActionSummary.single(record))
    return summary
