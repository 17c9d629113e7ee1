"""The Core evaluator (paper §5.2).

``eval_pure`` is a big-step evaluator for pure Core expressions; it may
raise :class:`UndefinedBehaviour` (reaching ``undef``) but touches no
memory state.

``eval_expr`` is a Python *generator*: every interaction with the memory
object model (actions, ptrops), every nondeterministic choice, and every
I/O is yielded as a request to the driver, which owns the memory model
and the oracle. Scheduling of ``unseq`` interleavings happens inside the
``EUnseq`` frame itself by advancing child generators one request at a
time, with oracle-chosen orders; atomic pairs and indeterminately
sequenced function bodies temporarily lock scheduling to one child
(paper §5.6: "let atomic ... prevents indeterminate sequencing putting
other memory actions between them").

Evaluation of every effectful sub-expression returns ``(value,
ActionSummary)``; the sequencing combinators compose the summaries and
detect unsequenced races (§6.5p2) as described in
:mod:`repro.dynamics.actions`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Tuple

from ..core import ast as K
from ..ctypes import convert
from ..ctypes.types import CType, Integer, IntKind
from ..errors import InternalError, StaticError
from ..memory.base import MemoryError_, MemoryModel
from ..memory.values import (
    FloatingValue, IntegerValue, PointerValue, combine_provenance,
)
from .. import ub as UB
from ..ub import UndefinedBehaviour
from .actions import ActionSummary, find_unsequenced_race
from .values import (
    FALSE, TRUE, UNIT, Value, VBool, VCtype, VFloating, VFunction, VInteger,
    VList, VPointer, VScopeList, VSpecified, VTuple, VUnspecified,
    match_pattern, truthy,
)

# The Core-environment key under which the innermost EScope exposes its
# created-object list (VLA creates register for scope-exit kills).
_SCOPE_CREATED = "__scope.created__"

_region_counter = itertools.count(1)


class RunSignal(Exception):
    """Control transfer to a dynamically enclosing ``save``.

    (Note: ``run_args``, not ``args`` — the latter is Exception's own.)
    """

    def __init__(self, label: str, run_args: List[Value]):
        super().__init__(label)
        self.label = label
        self.run_args = run_args


class ProcReturn(Exception):
    """Core ``return(pe)`` unwinding to the procedure-call boundary."""

    def __init__(self, value: Value):
        self.value = value
        super().__init__("return")


#: The C call depth at which a run ends in a frame-limit ``error``
#: outcome instead of exhausting memory (the compiled back end keeps
#: C frames on the heap; the tree evaluator, which recurses in Python,
#: reports its ``RecursionError`` as the same outcome).
FRAME_LIMIT = 2 ** 14


class FrameLimit(Exception):
    """The C call depth went past :data:`FRAME_LIMIT`."""

    MESSAGE = (f"C call depth exceeded the frame limit of "
               f"{FRAME_LIMIT} frames")


class ProgramExit(Exception):
    """C ``exit()`` / ``abort()``."""

    def __init__(self, code: int, aborted: bool = False):
        self.code = code
        self.aborted = aborted
        super().__init__(f"exit({code})")


EffGen = Generator[tuple, object, Tuple[Value, ActionSummary]]


class Evaluator:
    def __init__(self, program: K.Program, model: MemoryModel,
                 static_prune: bool = False):
        self.program = program
        self.model = model
        self.impl = program.impl
        self.tags = program.tags
        self.static_prune = static_prune
        # Unseq nodes executed sequentially because static analysis
        # proved every interleaving equivalent — read by the driver's
        # obs wrapper after each run (never reported per step).
        self.static_unseq_skips = 0
        self.global_env: Dict[str, Value] = {}
        # Unseq frames are numbered so scheduling choices and the
        # actions they schedule can be attributed to (frame, child)
        # pairs — the metadata channel partial-order reduction feeds
        # on.  The counter is per-evaluator (not global) so that a
        # deterministic replay reproduces identical frame ids.
        self._unseq_counter = itertools.count(1)
        from ..libc.builtins import NATIVE_PROCS
        self.native_procs = dict(NATIVE_PROCS)

    # ==================== pure evaluation ==================================

    def eval_pure(self, pe: K.Pexpr, env: Dict[str, Value]) -> Value:
        if isinstance(pe, K.PSym):
            if pe.name in env:
                return env[pe.name]
            if pe.name in self.global_env:
                return self.global_env[pe.name]
            raise InternalError(f"unbound Core symbol {pe.name}", pe.loc)
        if isinstance(pe, K.PVal):
            return pe.value  # type: ignore[return-value]
        if isinstance(pe, K.PImpl):
            value = self.program.impl_constants.get(pe.name)
            if value is None:
                raise InternalError(f"unknown impl constant {pe.name}",
                                    pe.loc)
            return value  # type: ignore[return-value]
        if isinstance(pe, K.PUndef):
            raise UndefinedBehaviour(pe.ub, pe.loc)
        if isinstance(pe, K.PError):
            raise StaticError(pe.msg, pe.loc)
        if isinstance(pe, K.PCtor):
            return self._ctor(pe, env)
        if isinstance(pe, K.PCase):
            scrut = self.eval_pure(pe.scrutinee, env)
            for pat, body in pe.branches:
                bindings = match_pattern(pat, scrut)
                if bindings is not None:
                    env2 = dict(env)
                    env2.update(bindings)
                    return self.eval_pure(body, env2)
            raise InternalError(f"no matching case branch for {scrut!r}",
                                pe.loc)
        if isinstance(pe, K.PArrayShift):
            ptr = self._as_pointer(self.eval_pure(pe.ptr, env), pe.loc)
            idx = self._as_integer(self.eval_pure(pe.index, env), pe.loc)
            try:
                return VPointer(self.model.array_shift(ptr, pe.elem_ty,
                                                       idx))
            except MemoryError_ as me:
                raise UndefinedBehaviour(me.entry, pe.loc,
                                         me.detail) from None
        if isinstance(pe, K.PMemberShift):
            ptr = self._as_pointer(self.eval_pure(pe.ptr, env), pe.loc)
            try:
                return VPointer(self.model.member_shift(ptr, pe.tag,
                                                        pe.member))
            except MemoryError_ as me:
                raise UndefinedBehaviour(me.entry, pe.loc,
                                         me.detail) from None
        if isinstance(pe, K.PNot):
            return VBool(not truthy(self.eval_pure(pe.operand, env)))
        if isinstance(pe, K.PBinop):
            return self._binop(pe, env)
        if isinstance(pe, K.PLet):
            bound = self.eval_pure(pe.bound, env)
            bindings = match_pattern(pe.pat, bound)
            if bindings is None:
                raise InternalError("refutable pure let pattern", pe.loc)
            env2 = dict(env)
            env2.update(bindings)
            return self.eval_pure(pe.body, env2)
        if isinstance(pe, K.PIf):
            cond = self.eval_pure(pe.cond, env)
            branch = pe.then if truthy(cond) else pe.els
            return self.eval_pure(branch, env)
        if isinstance(pe, K.PCall):
            return self._pure_call(pe, env)
        if isinstance(pe, K.PStruct):
            from ..memory.values import MVStruct
            from .values import VMemStruct, core_to_mem
            members = []
            defn = self.tags.require(pe.tag)
            for name, sub in pe.members:
                v = self.eval_pure(sub, env)
                m = defn.member(name)
                members.append((name, core_to_mem(m.qty.ty, v)))
            return VMemStruct(MVStruct(pe.tag, tuple(members)))
        if isinstance(pe, K.PUnion):
            from ..memory.values import MVUnion
            from .values import VMemStruct, core_to_mem
            defn = self.tags.require(pe.tag)
            m = defn.member(pe.member)
            v = self.eval_pure(pe.value, env)
            return VMemStruct(MVUnion(pe.tag, pe.member,
                                      core_to_mem(m.qty.ty, v)))
        raise InternalError(f"eval_pure: unhandled {type(pe).__name__}",
                            pe.loc)

    def _ctor(self, pe: K.PCtor, env: Dict[str, Value]) -> Value:
        args = [self.eval_pure(a, env) for a in pe.args]
        ctor = pe.ctor
        if ctor == "Specified":
            return VSpecified(args[0])
        if ctor == "Unspecified":
            ty = args[0]
            assert isinstance(ty, VCtype)
            return VUnspecified(ty.ty)
        if ctor == "Tuple":
            return VTuple(tuple(args))
        if ctor == "Nil":
            return VList(())
        if ctor == "Cons":
            tail = args[1]
            assert isinstance(tail, VList)
            return VList((args[0],) + tail.items)
        if ctor == "Unit":
            return UNIT
        if ctor == "True":
            return TRUE
        if ctor == "False":
            return FALSE
        raise InternalError(f"unknown constructor {ctor}", pe.loc)

    # ---- integer / boolean binops ---------------------------------------------

    def _binop(self, pe: K.PBinop, env: Dict[str, Value]) -> Value:
        op = pe.op
        a = self.eval_pure(pe.lhs, env)
        if op == "/\\":
            if not truthy(a):
                return FALSE
            return VBool(truthy(self.eval_pure(pe.rhs, env)))
        if op == "\\/":
            if truthy(a):
                return TRUE
            return VBool(truthy(self.eval_pure(pe.rhs, env)))
        b = self.eval_pure(pe.rhs, env)
        if isinstance(a, VBool) or isinstance(b, VBool):
            if op == "==":
                return VBool(a == b)
            if op == "!=":
                return VBool(a != b)
            raise InternalError(f"boolean binop {op}", pe.loc)
        if isinstance(a, VFloating) or isinstance(b, VFloating):
            return self._float_binop(op, a, b, pe)
        ia = self._as_integer(a, pe.loc)
        ib = self._as_integer(b, pe.loc)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            table = {
                "==": ia.value == ib.value, "!=": ia.value != ib.value,
                "<": ia.value < ib.value, "<=": ia.value <= ib.value,
                ">": ia.value > ib.value, ">=": ia.value >= ib.value,
            }
            return VBool(table[op])
        math = self._int_math(op, ia.value, ib.value, pe.loc)
        # Model hook (CHERI capability-offset arithmetic, §4).
        hooked = getattr(self.model, "int_binop", None)
        if hooked is not None:
            special = self.model.int_binop(op, ia, ib, math)
            if special is not None:
                return VInteger(special)
        prov = combine_provenance(ia.prov, ib.prov)
        if op == "-" and ia.prov is not None and ia.prov == ib.prov:
            prov = None  # intra-object difference is a pure offset (§5.9)
        return VInteger(IntegerValue(math, prov))

    def _int_math(self, op: str, a: int, b: int, loc) -> int:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "^":
            return a ** b
        if op in ("/", "rem_t"):
            if b == 0:
                raise UndefinedBehaviour(UB.DIVISION_BY_ZERO, loc)
            q = abs(a) // abs(b)
            q = q if (a < 0) == (b < 0) else -q
            return q if op == "/" else a - b * q
        if op == "rem_f":
            if b == 0:
                raise UndefinedBehaviour(UB.DIVISION_BY_ZERO, loc)
            return a % b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        raise InternalError(f"unknown integer binop {op}", loc)

    def _float_binop(self, op: str, a: Value, b: Value,
                     pe: K.PBinop) -> Value:
        fa = a.fval.value if isinstance(a, VFloating) else \
            float(self._as_integer(a, pe.loc).value)
        fb = b.fval.value if isinstance(b, VFloating) else \
            float(self._as_integer(b, pe.loc).value)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            table = {"==": fa == fb, "!=": fa != fb, "<": fa < fb,
                     "<=": fa <= fb, ">": fa > fb, ">=": fa >= fb}
            return VBool(table[op])
        try:
            table = {"+": fa + fb, "-": fa - fb, "*": fa * fb,
                     "/": fa / fb if fb != 0.0 else _float_div(fa, fb)}
            return VFloating(FloatingValue(table[op]))
        except KeyError:
            raise InternalError(f"float binop {op}", pe.loc) from None

    # ---- native pure auxiliary functions (Fig. 3's helpers) ----------------------

    def _pure_call(self, pe: K.PCall, env: Dict[str, Value]) -> Value:
        name = pe.name
        fun = self.program.funs.get(name)
        if fun is not None:
            args = [self.eval_pure(a, env) for a in pe.args]
            env2 = dict(zip(fun.params, args))
            return self.eval_pure(fun.body, env2)
        args = [self.eval_pure(a, env) for a in pe.args]
        return self._native_pure(name, args, pe)

    def _native_pure(self, name: str, args: List[Value],
                     pe: K.PCall) -> Value:
        impl = self.impl
        if name == "conv_int":
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            iv = self._as_integer(args[1], pe.loc)
            converted, _ = convert.convert_integer_value(iv.value, ty,
                                                         impl)
            return VInteger(IntegerValue(converted, iv.prov, iv.meta))
        if name == "wrapI":
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            iv = self._as_integer(args[1], pe.loc)
            w = impl.width(ty.kind)
            return VInteger(IntegerValue(iv.value & ((1 << w) - 1),
                                         iv.prov, iv.meta))
        if name == "is_representable":
            iv = self._as_integer(args[0], pe.loc)
            ty = self._as_ctype(args[1], pe.loc)
            assert isinstance(ty, Integer)
            return VBool(convert.is_representable(iv.value, ty, impl))
        if name == "ctype_width":
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            return VInteger(IntegerValue(impl.width(ty.kind)))
        if name == "ivmax":
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            return VInteger(IntegerValue(impl.int_max(ty.kind)))
        if name == "ivmin":
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            return VInteger(IntegerValue(impl.int_min(ty.kind)))
        if name == "is_unsigned":
            ty = self._as_ctype(args[0], pe.loc)
            return VBool(isinstance(ty, Integer)
                         and not impl.is_signed(ty.kind))
        if name == "is_signed":
            ty = self._as_ctype(args[0], pe.loc)
            return VBool(isinstance(ty, Integer)
                         and impl.is_signed(ty.kind))
        if name == "sizeof":
            ty = self._as_ctype(args[0], pe.loc)
            return VInteger(IntegerValue(impl.sizeof(ty, self.tags)))
        if name == "alignof":
            ty = self._as_ctype(args[0], pe.loc)
            return VInteger(IntegerValue(impl.alignof(ty, self.tags)))
        if name == "int_to_float":
            iv = self._as_integer(args[0], pe.loc)
            return VFloating(FloatingValue(float(iv.value)))
        if name == "float_to_int":
            fv = args[0]
            assert isinstance(fv, VFloating)
            return VInteger(IntegerValue(int(fv.fval.value)))
        if name == "float_of":
            v = args[0]
            if isinstance(v, VFloating):
                return v
            return VFloating(FloatingValue(
                float(self._as_integer(v, pe.loc).value)))
        if name == "conv_bits":
            # The value a bit-field holds after a store: truncate the
            # loaded value to the field width, sign-extending when the
            # declared type is signed (GCC/Clang semantics for the
            # implementation-defined signed case, §6.3.1.3p3).
            ty = self._as_ctype(args[0], pe.loc)
            assert isinstance(ty, Integer)
            width = self._as_integer(args[1], pe.loc).value
            loaded = args[2]
            if isinstance(loaded, VUnspecified):
                return loaded
            iv = self._as_integer(loaded, pe.loc)
            raw = iv.value & ((1 << width) - 1)
            if impl.is_signed(ty.kind) and ty.kind is not IntKind.BOOL \
                    and (raw >> (width - 1)) & 1:
                raw -= 1 << width
            return VSpecified(VInteger(IntegerValue(raw, iv.prov)))
        if name == "not_bool":
            return VBool(not truthy(args[0]))
        if name == "ptr_nonnull":
            ptr = self._as_pointer(args[0], pe.loc)
            return VBool(ptr.addr != 0)
        if name == "mem_array":
            from ..memory.values import MVArray
            from .values import VMemStruct, core_to_mem
            elem_ty = self._as_ctype(args[0], pe.loc)
            elems = tuple(core_to_mem(elem_ty, a) for a in args[1:])
            return VMemStruct(MVArray(elem_ty, elems))
        raise InternalError(f"unknown pure function {name}", pe.loc)

    # ---- coercions --------------------------------------------------------------

    @staticmethod
    def _as_integer(v: Value, loc) -> IntegerValue:
        if isinstance(v, VInteger):
            return v.ival
        if isinstance(v, VSpecified):
            return Evaluator._as_integer(v.value, loc)
        raise InternalError(f"expected integer value, got {v!r}", loc)

    @staticmethod
    def _as_pointer(v: Value, loc) -> PointerValue:
        if isinstance(v, VPointer):
            return v.ptr
        if isinstance(v, VSpecified):
            return Evaluator._as_pointer(v.value, loc)
        raise InternalError(f"expected pointer value, got {v!r}", loc)

    @staticmethod
    def _as_ctype(v: Value, loc) -> CType:
        if isinstance(v, VCtype):
            return v.ty
        raise InternalError(f"expected ctype value, got {v!r}", loc)

    # ==================== effectful evaluation ================================

    def eval_expr(self, e: K.Expr, env: Dict[str, Value]) -> EffGen:
        if isinstance(e, K.EPure):
            return (self.eval_pure(e.pe, env), ActionSummary.empty())
        if isinstance(e, K.EPtrOp):
            return (yield from self._ptrop(e, env))
        if isinstance(e, K.EAction):
            value, record = yield from self._action(e.action, env)
            return value, ActionSummary.single(record)
        if isinstance(e, K.ECase):
            scrut = self.eval_pure(e.scrutinee, env)
            for pat, body in e.branches:
                bindings = match_pattern(pat, scrut)
                if bindings is not None:
                    env2 = dict(env)
                    env2.update(bindings)
                    return (yield from self.eval_expr(body, env2))
            raise InternalError(f"no matching case branch for {scrut!r}",
                                e.loc)
        if isinstance(e, K.ELet):
            bound = self.eval_pure(e.bound, env)
            bindings = match_pattern(e.pat, bound)
            if bindings is None:
                raise InternalError("refutable let pattern", e.loc)
            env2 = dict(env)
            env2.update(bindings)
            return (yield from self.eval_expr(e.body, env2))
        if isinstance(e, K.EIf):
            cond = self.eval_pure(e.cond, env)
            branch = e.then if truthy(cond) else e.els
            return (yield from self.eval_expr(branch, env))
        if isinstance(e, K.ESkip):
            return UNIT, ActionSummary.empty()
        if isinstance(e, K.EProc):
            return (yield from self._proc_call(e, env))
        if isinstance(e, K.ECcall):
            return (yield from self._ccall(e, env))
        if isinstance(e, K.EUnseq):
            return (yield from self._unseq(e, env))
        if isinstance(e, K.EWseq):
            return (yield from self._wseq(e, env))
        if isinstance(e, K.ESseq):
            v1, s1 = yield from self.eval_expr(e.first, env)
            bindings = match_pattern(e.pat, v1)
            if bindings is None:
                raise InternalError("refutable strong-let pattern", e.loc)
            env2 = dict(env)
            env2.update(bindings)
            v2, s2 = yield from self.eval_expr(e.second, env2)
            return v2, s1.union(s2)
        if isinstance(e, K.EAtomicSeq):
            return (yield from self._atomic_seq(e, env))
        if isinstance(e, (K.EIndet, K.EBound)):
            return (yield from self.eval_expr(e.body, env))
        if isinstance(e, K.ENd):
            idx = 0
            if len(e.exprs) > 1:
                idx = yield ("choose", "nd", len(e.exprs))
            return (yield from self.eval_expr(e.exprs[idx], env))
        if isinstance(e, K.ESave):
            return (yield from self._save(e, env))
        if isinstance(e, K.ERun):
            args = [self.eval_pure(a, env) for a in e.args]
            raise RunSignal(e.label, args)
        if isinstance(e, K.EReturn):
            raise ProcReturn(self.eval_pure(e.pe, env))
        if isinstance(e, K.EScope):
            return (yield from self._scope(e, env))
        if isinstance(e, K.EVlaCreate):
            return (yield from self._vla_create(e, env))
        if isinstance(e, K.EPar):
            return (yield from self._par(e, env))
        if isinstance(e, K.EWait):
            tid = self._as_integer(self.eval_pure(e.thread, env),
                                   e.loc).value
            value = yield ("wait", tid)
            return value, ActionSummary.empty()
        raise InternalError(f"eval_expr: unhandled {type(e).__name__}",
                            e.loc)

    # ---- actions and ptrops -----------------------------------------------------

    def _action(self, action: K.Action, env: Dict[str, Value]):
        args = [self.eval_pure(a, env) for a in action.args]
        # The trailing () is the scheduling chain: each enclosing unseq
        # frame appends its (frame, child) pair as the request bubbles
        # up, so the driver can attribute the action for POR.
        result = yield ("action", action.kind, args, action.polarity,
                        action.order, action.loc, ())
        return result  # (value, ActionRecord)

    def _ptrop(self, e: K.EPtrOp, env: Dict[str, Value]) -> EffGen:
        args = [self.eval_pure(a, env) for a in e.args]
        value = yield ("ptrop", e.op, args, e.aux, e.loc)
        return value, ActionSummary.empty()

    # ---- procedure and C function calls --------------------------------------------

    def _proc_call(self, e: K.EProc, env: Dict[str, Value]) -> EffGen:
        args = [self.eval_pure(a, env) for a in e.args]
        return (yield from self.call_proc(e.name, args, e.loc))

    def call_proc(self, name: str, args: List[Value], loc) -> EffGen:
        proc = self.program.procs.get(name)
        if proc is None:
            native = self.native_procs.get(name)
            if native is None:
                raise InternalError(f"unknown procedure {name}", loc)
            value = yield from native(self, args, loc)
            return value, ActionSummary.empty()
        env = dict(self.global_env)
        if len(proc.params) != len(args) and not proc.variadic:
            raise InternalError(
                f"arity mismatch calling {name}: {len(args)} args for "
                f"{len(proc.params)} params", loc)
        env.update(zip(proc.params, args))
        if proc.variadic:
            env["__varargs__"] = VList(tuple(args[len(proc.params):]))
        try:
            value, summary = yield from self.eval_expr(proc.body, env)
        except ProcReturn as r:
            return r.value, ActionSummary.empty()
        return value, summary

    def run_glob_init(self, g: K.GlobDef) -> EffGen:
        """The generator evaluating one global's initialiser (the
        backend-neutral entry point the driver drains at startup)."""
        return self.eval_expr(g.init, {})

    def _ccall(self, e: K.ECcall, env: Dict[str, Value]) -> EffGen:
        fn = self.eval_pure(e.fn, env)
        args = [self.eval_pure(a, env) for a in e.args]
        name = self._function_name(fn, e.loc)
        region = next(_region_counter)
        yield ("lock", 1)
        # No unlock on exception: an exception here is a whole-execution
        # teardown (UB/exit) or a generator close — yielding during
        # either is illegal.
        value, summary = yield from self.call_proc(name, args, e.loc)
        yield ("lock", -1)
        return value, summary.tag_region(region)

    def _function_name(self, fn: Value, loc) -> str:
        if isinstance(fn, VFunction):
            return fn.name
        if isinstance(fn, VSpecified):
            return self._function_name(fn.value, loc)
        if isinstance(fn, VPointer):
            meta = fn.ptr.meta
            if isinstance(meta, tuple) and meta and meta[0] == "func":
                return meta[1]
            raise UndefinedBehaviour(
                UB.INDIRECTION_INVALID_FUNCTION_POINTER, loc,
                f"call through {fn.ptr!r}")
        raise UndefinedBehaviour(UB.INDIRECTION_INVALID_FUNCTION_POINTER,
                                 loc, f"call of non-function {fn!r}")

    # ---- sequencing ------------------------------------------------------------------

    def _unseq(self, e: K.EUnseq, env: Dict[str, Value]) -> EffGen:
        """Interleave the children at action granularity (§5.6).

        Scheduling decisions are made only at *action* boundaries: all
        other requests (nested choices, locks, raw services) commute,
        so re-choosing after each of them would multiply choice points
        exponentially in nested unseqs without adding behaviours.

        Every scheduling choice (even arity-1, which the sleep-set
        scheduler may still need to veto) is yielded with a metadata
        channel ``(frame, candidates)``, and every action request is
        annotated with this frame's ``(frame, child)`` pair on its way
        up — together they let the explorer recover each candidate's
        pending action footprint for partial-order reduction.  When a
        child may call (:func:`~repro.core.ast.calling_children`), the
        channel carries those children as a fourth component: a call
        runs whole, so its first action is not the child's transition.

        With ``static_prune`` on and a ``_static_unseq`` annotation
        present (:mod:`repro.statics`), two refinements apply ahead of
        the dynamic machinery: a statically-commuting node is not a
        choice point at all (children run in program order — every
        interleaving is equivalent), and otherwise each child's
        statically-resolved footprint hull rides along as a third
        metadata component, from which the POR scheduler seeds sleep
        decisions when the event log has no exact footprint yet.
        """
        static = getattr(e, "_static_unseq", None) \
            if self.static_prune else None
        if static is not None and static[0]:
            self.static_unseq_skips += 1
            results = []
            summaries = []
            for child in e.exprs:
                value, summary = yield from self.eval_expr(child, env)
                results.append(value)
                summaries.append(summary)
            # Safety net: the commuting claim promises equivalence of
            # interleavings, not absence of races — a race here would
            # mean an analysis bug, but must still surface as UB.
            race = find_unsequenced_race(
                [s.records for s in summaries])
            if race is not None:
                a, b = race
                raise UndefinedBehaviour(
                    UB.UNSEQUENCED_RACE, e.loc,
                    f"unsequenced {a.kind} and {b.kind} on "
                    f"overlapping footprints at "
                    f"0x{a.footprint.addr:x}")
            total = ActionSummary.empty().union(*summaries)
            return VTuple(tuple(results)), total
        hulls = None
        if static is not None:
            from ..statics import resolve_hull
            hulls = tuple(
                resolve_hull(info, env, self.global_env, self.model)
                for info in static[1])
        calls = K.calling_children(e)
        gens = [self.eval_expr(c, env) for c in e.exprs]
        n = len(gens)
        frame = next(self._unseq_counter)
        done: List[bool] = [False] * n
        started: List[bool] = [False] * n
        results: List[Optional[Value]] = [None] * n
        summaries: List[ActionSummary] = [ActionSummary.empty()] * n
        responses: List[object] = [None] * n
        locks: List[int] = [0] * n
        current: Optional[int] = None
        while not all(done):
            locked = [i for i in range(n) if locks[i] > 0]
            if locked:
                candidates = locked
            else:
                candidates = [i for i in range(n) if not done[i]]
            if current is None or done[current] or \
                    current not in candidates:
                cand = tuple(candidates)
                meta = (frame, cand)
                if hulls is not None or calls:
                    meta += (None if hulls is None
                             else tuple(hulls[i] for i in cand), calls)
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
        race = find_unsequenced_race([s.records for s in summaries])
        if race is not None:
            a, b = race
            raise UndefinedBehaviour(
                UB.UNSEQUENCED_RACE, e.loc,
                f"unsequenced {a.kind} and {b.kind} on overlapping "
                f"footprints at 0x{a.footprint.addr:x}")
        total = ActionSummary.empty().union(*summaries)
        return VTuple(tuple(results)), total  # type: ignore[arg-type]

    def _wseq(self, e: K.EWseq, env: Dict[str, Value]) -> EffGen:
        v1, s1 = yield from self.eval_expr(e.first, env)
        bindings = match_pattern(e.pat, v1)
        if bindings is None:
            raise InternalError("refutable weak-let pattern", e.loc)
        env2 = dict(env)
        env2.update(bindings)
        v2, s2 = yield from self.eval_expr(e.second, env2)
        # Negative actions of e1 are unsequenced w.r.t. all of e2.
        race = find_unsequenced_race([s1.negatives(), s2.records])
        if race is not None:
            a, b = race
            raise UndefinedBehaviour(
                UB.UNSEQUENCED_RACE, e.loc,
                f"store side effect unsequenced with {b.kind} at "
                f"0x{b.footprint.addr:x}")
        return v2, s1.union(s2)

    def _atomic_seq(self, e: K.EAtomicSeq, env: Dict[str, Value]) -> EffGen:
        yield ("lock", 1)
        v1, rec1 = yield from self._action(e.first, env)
        env2 = dict(env)
        env2[e.sym] = v1
        _v2, rec2 = yield from self._action(e.second, env2)
        yield ("lock", -1)
        summary = ActionSummary([rec1, rec2])
        # The value of the atomic pair is the first action's (the loaded
        # pre-increment value, which is the value of x++).
        return v1, summary

    # ---- save / run -------------------------------------------------------------------

    def _save(self, e: K.ESave, env: Dict[str, Value]) -> EffGen:
        values = [self.eval_pure(d, env) for _, d in e.params]
        names = [name for name, _ in e.params]
        total = ActionSummary.empty()
        while True:
            env2 = dict(env)
            env2.update(zip(names, values))
            try:
                value, summary = yield from self.eval_expr(e.body, env2)
                return value, total.union(summary)
            except RunSignal as r:
                if r.label != e.label:
                    raise
                if len(r.run_args) != len(names):
                    raise InternalError(
                        f"run {e.label} arity mismatch", e.loc) from None
                values = r.run_args
                # Account a step per loop re-establishment so that
                # effect-free infinite loops (`while (1) ;`) still hit
                # the driver's step budget.
                yield ("tick",)

    # ---- scoped lifetimes ----------------------------------------------------------------

    def _vla_create(self, e: K.EVlaCreate, env: Dict[str, Value]) -> \
            EffGen:
        """Create a runtime-sized array object (the VLA declaration
        point) and register it with the innermost scope's kill set."""
        n = self._as_integer(self.eval_pure(e.size, env), e.loc)
        align = self.impl.alignof(e.elem_ty, self.tags)
        value, record = yield ("action", "create_vla",
                               [VInteger(IntegerValue(align)),
                                VCtype(e.elem_ty), VInteger(n),
                                e.prefix],
                               "pos", "na", e.loc, ())
        holder = env.get(_SCOPE_CREATED)
        if isinstance(holder, VScopeList):
            holder.items.append(value)
        return value, ActionSummary.single(record)

    def _scope(self, e: K.EScope, env: Dict[str, Value]) -> EffGen:
        env2 = dict(env)
        created: List[Value] = []
        env2[_SCOPE_CREATED] = VScopeList(created)
        summary = ActionSummary.empty()
        for sc in e.creates:
            align = self.impl.alignof(sc.ty, self.tags)
            value, record = yield ("action", "create",
                                   [VInteger(IntegerValue(align)),
                                    VCtype(sc.ty),
                                    sc.prefix, sc.readonly],
                                   "pos", "na", sc.loc, ())
            env2[sc.sym] = value
            created.append(value)
            summary = summary.union(ActionSummary.single(record))
        try:
            value, body_summary = yield from self.eval_expr(e.body, env2)
        except (RunSignal, ProcReturn) as signal:
            yield from self._kill_scope(created, e)
            raise signal
        kill_summary = yield from self._kill_scope(created, e)
        return value, summary.union(body_summary, kill_summary)

    def _kill_scope(self, created: List[Value], e: K.EScope):
        summary = ActionSummary.empty()
        for v in reversed(created):
            _, record = yield ("action", "kill", [v, VBool(False)],
                               "pos", "na", e.loc, ())
            summary = summary.union(ActionSummary.single(record))
        return summary

    # ---- threads ------------------------------------------------------------------------------

    def _par(self, e: K.EPar, env: Dict[str, Value]) -> EffGen:
        tids = []
        for sub in e.exprs:
            tid = yield ("spawn", self.eval_expr(sub, env))
            tids.append(tid)
        results = []
        for tid in tids:
            value = yield ("wait", tid)
            results.append(value)
        return VTuple(tuple(results)), ActionSummary.empty()


def _float_div(a: float, b: float) -> float:
    if a == 0.0:
        return float("nan")
    return float("inf") if a > 0 else float("-inf")
