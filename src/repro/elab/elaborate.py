"""The elaboration: a compositional translation from Typed Ail into Core
(paper §5.1-5.8).

Every C expression elaborates to an *effectful* Core expression whose
value is a loaded value (``Specified``/``Unspecified``); every C lvalue
elaborates to an expression computing a pointer value. The evaluation
order constraints of §6.5 are expressed with ``unseq`` / ``let weak`` /
``let strong`` / ``let atomic`` exactly as in the paper's Fig. 3 and
§5.6; undefined behaviour of primitive operations becomes explicit
``undef(...)`` tests in the generated Core (§5.4); unspecified values
are treated daemonically and propagated through (unsigned) arithmetic.

Control flow uses ``save``/``run`` with guard parameters (the
deviation from the paper that the module docstring of
:mod:`repro.core.ast` documents): loops re-enter via a backward
``run``; ``break``/``continue``/``return``/``goto`` escape by
re-entering an enclosing ``save`` with a guard that short-circuits the
body. C block lifetimes map to ``EScope`` (create-at-block-entry /
kill-at-exit, §5.7-5.8).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ail import ast as A
from ..core import ast as K
from ..core.ast import PatCtor, PatSym, PatWild, Pattern
from ..ctypes import convert
from ..ctypes.implementation import Implementation
from ..ctypes.implementation import FieldLayout
from ..ctypes.types import (
    Array, CType, Floating, Function, Integer, IntKind, Pointer, QualType,
    StructRef, UnionRef, VarArray, Void, is_integer,
)
from ..memory.base import VLA_CAP_BYTES
from ..errors import InternalError, UnsupportedError
from ..memory.values import (
    FloatingValue, IntegerValue, MemValue, MVArray, MVInteger, zero_value,
)
from ..source import Loc
from .. import ub as UB
from ..dynamics.values import (
    FALSE, TRUE, UNIT, VCtype, VFloating, VInteger, VMemStruct, VPointer,
    VSpecified, VUnit, VUnspecified,
)

_INT = Integer(IntKind.INT)
_CHAR = Integer(IntKind.CHAR)
_SIZE_T = Integer(IntKind.ULONG)
_PTRDIFF_T = Integer(IntKind.LONG)


def _pv(value) -> K.PVal:
    return K.PVal(value)


def _specified_int(n: int, prov=None) -> K.PVal:
    return _pv(VSpecified(VInteger(IntegerValue(n, prov))))


def _ctype(ty: CType) -> K.PVal:
    return _pv(VCtype(ty))


def _pure(pe: K.Pexpr, loc: Loc = Loc.unknown()) -> K.Expr:
    return K.EPure(pe, loc=loc)


def _sseq(pat: Pattern, first: K.Expr, second: K.Expr,
          loc: Loc = Loc.unknown()) -> K.Expr:
    return K.ESseq(pat, first, second, loc=loc)


def _wseq(pat: Pattern, first: K.Expr, second: K.Expr,
          loc: Loc = Loc.unknown()) -> K.Expr:
    return K.EWseq(pat, first, second, loc=loc)


#: Why a label below the top level of a function body is unsupported.
_NESTED_LABEL = (
    "goto label nested inside a sub-statement (only labels at the top "
    "level of a function body are supported: a goto re-enters the "
    "function's one label dispatcher, which runs the top-level "
    "statements from the label on)")


def _seq_all(exprs: List[K.Expr], last: K.Expr) -> K.Expr:
    out = last
    for e in reversed(exprs):
        out = _sseq(PatWild(), e, out)
    return out


@dataclass
class _FnCtx:
    """Per-function elaboration context."""

    ret_ty: QualType
    ret_label: str
    break_label: Optional[str] = None
    continue_label: Optional[str] = None
    goto_label: Optional[str] = None
    label_indices: Dict[str, int] = field(default_factory=dict)
    is_main: bool = False


class Elaborator:
    def __init__(self, ail: A.Program, impl: Implementation):
        self.ail = ail
        self.impl = impl
        self.tags = ail.tags
        self.core = K.Program(ail.tags, impl)
        self._fn: Optional[_FnCtx] = None
        # Function symbols -> Core proc names.
        self.fn_names: Dict[A.Symbol, str] = {
            sym: sym.name for sym in ail.functions}
        self._names = itertools.count(1)
        # The temporaries of the full expression being elaborated.
        self._temps: Optional[List[K.ScopedCreate]] = None

    def fresh_name(self, base: str) -> str:
        """E.fresh_symbol of the paper's elaboration monad (Fig. 3),
        numbered per translation unit so Core is a deterministic
        function of its source."""
        return f"{base}.{next(self._names)}"

    # ================== program structure ==================================

    def run(self) -> K.Program:
        for obj in self.ail.objects:
            self.core.globs.append(self._glob(obj))
        for sym, fdef in self.ail.functions.items():
            if fdef.body is None:
                continue
            self.core.procs[self.fn_names[sym]] = self._proc(fdef)
        if self.ail.main is not None:
            self.core.main = self.fn_names[self.ail.main]
        return self.core

    def _glob(self, obj: A.ObjectDef) -> K.GlobDef:
        name = str(obj.sym)
        init: Optional[K.Expr] = None
        if obj.init is not None:
            stores = self.initialise(K.PSym(name), obj.qty, obj.init,
                                     zero_first=True)
            init = _seq_all(stores, _pure(_pv(UNIT)))
        readonly = obj.qty.quals.const or isinstance(obj.init,
                                                     A.InitString)
        return K.GlobDef(name, obj.qty, init, readonly=readonly,
                         loc=obj.loc)

    def _proc(self, fdef: A.FunctionDef) -> K.ProcDef:
        fty = fdef.qty.ty
        assert isinstance(fty, Function)
        if fdef.variadic:
            raise UnsupportedError(
                f"user-defined variadic function '{fdef.sym.name}' "
                "(paper §1: only printf-style library variadics)",
                fdef.loc)
        is_main = fdef.sym.name == "main"
        ret_label = self.fresh_name("ret")
        self._fn = _FnCtx(ret_ty=fty.ret, ret_label=ret_label,
                          is_main=is_main)
        # Parameter objects: create & store the argument values (§5.6
        # point 4 happens at the call site for temporaries; the callee's
        # named parameters are fresh objects).
        param_args = [f"{psym}.arg" for psym in fdef.param_syms]
        creates = [K.ScopedCreate(str(psym), pqty.ty, psym.name,
                                  loc=fdef.loc)
                   for psym, pqty in zip(fdef.param_syms, fty.params)]
        stores = [self.act_store(pqty.ty, K.PSym(str(psym)),
                                 K.PSym(arg), fdef.loc)
                  for psym, pqty, arg in zip(fdef.param_syms, fty.params,
                                             param_args)]
        assert fdef.body is not None
        body_stmt = self._function_body(fdef)
        default_rv: K.Pexpr
        if is_main and not isinstance(fty.ret.ty, Void):
            default_rv = _specified_int(0)  # §5.1.2.2.3: implicit 0
        else:
            # Reaching } returns Unit: a call that uses the value of a
            # non-void callee rejects it (§6.9.1p12, see _call).
            default_rv = _pv(UNIT)
        ret_save = K.ESave(
            ret_label,
            [("ret.done", _pv(FALSE)), ("ret.value", default_rv)],
            K.EIf(K.PSym("ret.done"),
                  _pure(K.PSym("ret.value")),
                  _sseq(PatWild(), body_stmt,
                        K.ERun(ret_label,
                               [_pv(TRUE), default_rv]))),
            loc=fdef.loc)
        body = K.EScope(creates, _seq_all(stores, ret_save))
        proc = K.ProcDef(self.fn_names[fdef.sym], param_args, body,
                         ret_ty=fty.ret, param_tys=list(fty.params),
                         variadic=False, loc=fdef.loc)
        self._fn = None
        return proc

    def _function_body(self, fdef: A.FunctionDef) -> K.Expr:
        """Elaborate the function body; if it contains labels, build the
        goto dispatcher: one ``save`` around the body's label segments,
        which a ``goto`` re-enters with its segment's index, so labels
        must sit at the top level of the function body block."""
        body = fdef.body
        assert body is not None
        has_labels = _contains_label(body)
        if not has_labels:
            return self.stmt(body)
        segments: List[Tuple[Optional[A.Symbol], List[A.Stmt]]] = [(None,
                                                                    [])]
        for item in body.items:
            if isinstance(item, A.SLabel):
                segments.append((item.sym, [item.body]))
            else:
                if _contains_label(item):
                    raise UnsupportedError(_NESTED_LABEL, item.loc)
                segments[-1][1].append(item)
        fn = self._fn
        assert fn is not None
        fn.goto_label = self.fresh_name("goto")
        for i, (sym, _) in enumerate(segments):
            if sym is not None:
                fn.label_indices[str(sym)] = i
        decls: List[K.ScopedCreate] = []
        seg_exprs: List[K.Expr] = []
        for i, (_, stmts) in enumerate(segments):
            seg_body = self._stmt_seq(stmts, decls)
            guard = K.PBinop("<=", K.PSym("goto.target"),
                             _pv(VInteger(IntegerValue(i))))
            seg_exprs.append(K.EIf(guard, seg_body, K.ESkip()))
        dispatch = K.ESave(
            fn.goto_label,
            [("goto.target", _pv(VInteger(IntegerValue(0))))],
            _seq_all(seg_exprs[:-1], seg_exprs[-1]) if seg_exprs
            else K.ESkip(),
            loc=body.loc)
        return K.EScope(decls, dispatch)

    # ================== statements ==========================================

    def stmt(self, s: A.Stmt) -> K.Expr:
        if isinstance(s, A.SBlock):
            decls: List[K.ScopedCreate] = []
            body = self._stmt_seq(list(s.items), decls)
            if decls:
                return K.EScope(decls, body)
            return body
        if isinstance(s, A.SDecl):
            raise InternalError("SDecl outside block", s.loc)
        if isinstance(s, A.SExpr):
            if s.expr is None:
                return K.ESkip(loc=s.loc)
            return _sseq(PatWild(), self.full(self.discard, s.expr),
                         K.ESkip(), loc=s.loc)
        if isinstance(s, A.SIf):
            return self._if(s)
        if isinstance(s, A.SWhile):
            return self._while(s)
        if isinstance(s, A.SSwitch):
            return self._switch(s)
        if isinstance(s, A.SLabel):
            raise UnsupportedError(_NESTED_LABEL, s.loc)
        if isinstance(s, A.SGoto):
            fn = self._fn
            assert fn is not None
            if fn.goto_label is None or str(s.sym) not in \
                    fn.label_indices:
                raise InternalError(f"goto to unknown label {s.sym}",
                                    s.loc)
            idx = fn.label_indices[str(s.sym)]
            return K.ERun(fn.goto_label,
                          [_pv(VInteger(IntegerValue(idx)))], loc=s.loc)
        if isinstance(s, A.SBreak):
            fn = self._fn
            assert fn is not None and fn.break_label is not None, \
                "break outside loop/switch"
            return K.ERun(fn.break_label, [_pv(TRUE)], loc=s.loc)
        if isinstance(s, A.SContinue):
            fn = self._fn
            assert fn is not None and fn.continue_label is not None, \
                "continue outside loop"
            return K.ERun(fn.continue_label, [_pv(TRUE)], loc=s.loc)
        if isinstance(s, A.SReturn):
            return self._return(s)
        if isinstance(s, A.SCaseMarker):
            return K.ESkip(loc=s.loc)
        if isinstance(s, A.SPar):
            return K.EPar([self.stmt(b) for b in s.branches], loc=s.loc)
        raise InternalError(f"unhandled statement {type(s).__name__}",
                            s.loc)

    def _stmt_seq(self, items: List, decls: List[K.ScopedCreate]) -> \
            K.Expr:
        """Elaborate a block-item sequence; object declarations
        contribute creates (at block entry, §6.2.4p5) and initialising
        stores (at declaration position).  A VLA declaration instead
        creates its object *at the declaration point* (§6.2.4p7) and
        scopes the rest of the sequence under the pointer binding."""
        exprs: List[K.Expr] = []
        for idx, item in enumerate(items):
            self._pending_compounds = decls
            if isinstance(item, A.SDecl):
                if isinstance(item.qty.ty, VarArray):
                    rest = self._stmt_seq(items[idx + 1:], decls)
                    exprs.append(self._vla_decl(item, rest))
                    break
                decls.append(K.ScopedCreate(str(item.sym), item.qty.ty,
                                            item.sym.name, loc=item.loc))
                if item.init is not None:
                    zero = not isinstance(item.init, A.InitScalar)
                    exprs.extend(self.initialise(
                        K.PSym(str(item.sym)), item.qty, item.init,
                        zero_first=zero))
            else:
                self._pending_compounds = decls
                exprs.append(self.stmt(item))
        if not exprs:
            return K.ESkip()
        return _seq_all(exprs[:-1], exprs[-1])

    def _vla_decl(self, item: A.SDecl, rest: K.Expr) -> K.Expr:
        """Elaborate ``T a[n];``: load the hidden size variable (stored
        just before by the desugarer's hidden declaration), test the
        §6.7.6.2p5 constraints as explicit ``undef``s in the generated
        Core (paper §5.4), create the runtime-sized object, and bind
        its pointer over the rest of the block."""
        vty = item.qty.ty
        assert isinstance(vty, VarArray)
        fn = self._fn
        if fn is not None and fn.goto_label is not None:
            raise UnsupportedError(
                "variable length array in a function with labels "
                "(goto may not jump into the scope of a VLA, "
                "§6.8.6.1p1; see ROADMAP.md 'Fragment gaps')", item.loc)
        esize = self.impl.sizeof(vty.of.ty, self.tags)
        max_elems = max(VLA_CAP_BYTES // esize, 1)
        nv = self.fresh_name("vla.n")
        n = nv + ".v"
        create = K.EVlaCreate(vty.of.ty, K.PSym(n), item.sym.name,
                              loc=item.loc)
        checked = K.EIf(
            K.PBinop("<", _pv(VInteger(IntegerValue(0))), K.PSym(n)),
            K.EIf(K.PBinop("<=", K.PSym(n),
                           _pv(VInteger(IntegerValue(max_elems)))),
                  _sseq(PatSym(str(item.sym)), create, rest,
                        loc=item.loc),
                  _pure(K.PUndef(UB.VLA_SIZE_TOO_LARGE, loc=item.loc))),
            _pure(K.PUndef(UB.VLA_SIZE_NOT_POSITIVE, loc=item.loc)))
        size_load = self.act_load(Integer(IntKind.LONG),
                                  K.PSym(str(vty.size_sym)), item.loc)
        return _sseq(PatSym(nv), size_load, K.ECase(K.PSym(nv), [
            (PatCtor("Unspecified", (PatWild(),)),
             _pure(K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=item.loc))),
            (PatCtor("Specified", (PatSym(n),)), checked),
        ], loc=item.loc), loc=item.loc)

    def _if(self, s: A.SIf) -> K.Expr:
        cond = self.full(self.rv, s.cond)
        then = self.stmt(s.then)
        els = self.stmt(s.els) if s.els is not None else K.ESkip()
        v = self.fresh_name("if.cond")
        return _sseq(
            PatSym(v), cond,
            K.ECase(K.PSym(v), [
                (PatCtor("Unspecified", (PatWild(),)),
                 _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                                loc=s.loc))),
                (PatCtor("Specified", (PatSym(v + ".v"),)),
                 K.EIf(self._nonzero(K.PSym(v + ".v"), s.cond),
                       then, els)),
            ], loc=s.loc), loc=s.loc)

    def _nonzero(self, pe: K.Pexpr, e: A.Expr) -> K.Pexpr:
        """v != 0 over the scalar kinds."""
        assert e.ty is not None
        ty = e.ty.ty
        if isinstance(ty, Pointer):
            # Null test without consulting the memory state.
            return K.PCall("ptr_nonnull", [pe])
        if isinstance(ty, Floating):
            return K.PBinop("!=", pe, _pv(VFloating(FloatingValue(0.0))))
        return K.PBinop("!=", pe, _pv(VInteger(IntegerValue(0))))

    def _while(self, s: A.SWhile) -> K.Expr:
        fn = self._fn
        assert fn is not None
        saved = (fn.break_label, fn.continue_label)
        brk = self.fresh_name("brk")
        cont = self.fresh_name("cont")
        loop = self.fresh_name("loop")
        fn.break_label, fn.continue_label = brk, cont
        body = self.stmt(s.body)
        fn.break_label, fn.continue_label = saved

        cond_v = self.fresh_name("while.cond")
        body_wrap = K.ESave(cont, [("cont.skip", _pv(FALSE))],
                            K.EIf(K.PSym("cont.skip"), K.ESkip(), body),
                            loc=s.loc)
        step = _sseq(PatWild(), self.full(self.discard, s.step),
                     K.ESkip()) \
            if s.step is not None else K.ESkip()
        iteration = _sseq(PatWild(), body_wrap,
                          _sseq(PatWild(), step,
                                K.ERun(loop, [], loc=s.loc)))
        test_then_iterate = _sseq(
            PatSym(cond_v), self.full(self.rv, s.cond),
            K.ECase(K.PSym(cond_v), [
                (PatCtor("Unspecified", (PatWild(),)),
                 _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                                loc=s.loc))),
                (PatCtor("Specified", (PatSym(cond_v + ".v"),)),
                 K.EIf(self._nonzero(K.PSym(cond_v + ".v"), s.cond),
                       iteration, K.ESkip())),
            ]), loc=s.loc)
        if s.loc_hint == "do":
            loop_body = _sseq(PatWild(), body_wrap, _sseq(
                PatSym(cond_v), self.full(self.rv, s.cond),
                K.ECase(K.PSym(cond_v), [
                    (PatCtor("Unspecified", (PatWild(),)),
                     _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                                    loc=s.loc))),
                    (PatCtor("Specified", (PatSym(cond_v + ".v"),)),
                     K.EIf(self._nonzero(K.PSym(cond_v + ".v"), s.cond),
                           K.ERun(loop, [], loc=s.loc), K.ESkip())),
                ])))
        else:
            loop_body = test_then_iterate
        loop_save = K.ESave(loop, [], loop_body, loc=s.loc)
        return K.ESave(brk, [("brk.done", _pv(FALSE))],
                       K.EIf(K.PSym("brk.done"), K.ESkip(), loop_save),
                       loc=s.loc)

    def _switch(self, s: A.SSwitch) -> K.Expr:
        """Elaborate switch with the precomputed case-label list (paper
        §5.1): compute the segment start index from the controlling
        value, then run the guarded segment chain."""
        fn = self._fn
        assert fn is not None
        segments: List[Tuple[Optional[A.Symbol], List[A.Stmt]]] = []
        decls: List[K.ScopedCreate] = []
        body = s.body
        items = body.items if isinstance(body, A.SBlock) else [body]
        segments.append((None, []))
        for item in items:
            flat = _flatten_case_block(item)
            for sub in flat:
                if isinstance(sub, A.SCaseMarker):
                    segments.append((sub.sym, []))
                else:
                    segments[-1][1].append(sub)
        marker_index = {str(sym): i for i, (sym, _) in
                        enumerate(segments) if sym is not None}
        saved_brk = fn.break_label
        brk = self.fresh_name("swbrk")
        fn.break_label = brk
        seg_exprs = []
        for i, (_, stmts) in enumerate(segments):
            for sub in stmts:
                if isinstance(sub, A.SDecl) and \
                        isinstance(sub.qty.ty, VarArray):
                    # A case label may not jump into the scope of a
                    # VLA (§6.8.4.2p2); a VLA inside a nested block
                    # wholly within one case is fine.
                    raise UnsupportedError(
                        "variable length array declared among switch "
                        "case labels (a case label may not jump into "
                        "a VLA's scope, §6.8.4.2p2; wrap it in a "
                        "braced block)", sub.loc)
            seg_body = self._stmt_seq(stmts, decls)
            guard = K.PBinop("<=", K.PSym("sw.target"),
                             _pv(VInteger(IntegerValue(i))))
            seg_exprs.append(K.EIf(guard, seg_body, K.ESkip()))
        fn.break_label = saved_brk
        # Match the controlling value against case constants, converted
        # to the promoted controlling type (§6.8.4.2p5).
        assert s.cond.ty is not None
        cty = s.cond.ty.ty
        assert isinstance(cty, Integer)
        prom = convert.integer_promotion(cty, self.impl)
        sentinel = len(segments)  # "skip everything"
        match_pe: K.Pexpr = _pv(VInteger(IntegerValue(
            marker_index[str(s.default)] if s.default is not None
            else sentinel)))
        for value, sym in reversed(s.cases):
            converted, _ = convert.convert_integer_value(value, prom,
                                                         self.impl)
            match_pe = K.PIf(
                K.PBinop("==", K.PSym("sw.v"),
                         _pv(VInteger(IntegerValue(converted)))),
                _pv(VInteger(IntegerValue(marker_index[str(sym)]))),
                match_pe)
        v = self.fresh_name("sw.cond")
        segs = _seq_all(seg_exprs[:-1], seg_exprs[-1]) if seg_exprs \
            else K.ESkip()
        if decls:
            segs = K.EScope(decls, segs)
        dispatch = K.ESave(
            "sw.dispatch." + self.fresh_name("n"),
            [("sw.target", K.PLet(PatSym("sw.v.raw"), K.PSym(v),
                                  K.PCase(K.PSym("sw.v.raw"), [
                                      (PatCtor("Specified",
                                               (PatSym("sw.v"),)),
                                       match_pe),
                                  ])))],
            segs, loc=s.loc)
        body_with_brk = K.ESave(brk, [("brk.done", _pv(FALSE))],
                                K.EIf(K.PSym("brk.done"), K.ESkip(),
                                      dispatch), loc=s.loc)
        return _sseq(
            PatSym(v), self.full(self.rv, s.cond),
            K.ECase(K.PSym(v), [
                (PatCtor("Unspecified", (PatWild(),)),
                 _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                                loc=s.loc))),
                (PatCtor("Specified", (PatWild(),)), body_with_brk),
            ]), loc=s.loc)

    def _return(self, s: A.SReturn) -> K.Expr:
        fn = self._fn
        assert fn is not None
        if s.expr is None:
            rv: K.Expr = _pure(_pv(VUnit()) if isinstance(
                fn.ret_ty.ty, Void) else _pv(VUnspecified(fn.ret_ty.ty)))
        else:
            rv = self.full(self.rv, s.expr)
        v = self.fresh_name("ret.v")
        return _sseq(PatSym(v), rv,
                     K.ERun(fn.ret_label, [_pv(TRUE), K.PSym(v)],
                            loc=s.loc), loc=s.loc)

    # ================== initialisers =========================================

    def init_stores(self, ptr: K.Pexpr, qty: QualType, init: A.Init,
                    zero_first: bool) -> List[K.Expr]:
        out: List[K.Expr] = []
        if zero_first and not isinstance(init, A.InitScalar):
            zv = zero_value(qty.ty, self.impl, self.tags)
            out.append(self.act_store(qty.ty, ptr,
                                      _pv(VSpecified(VMemStruct(zv)))
                                      if not _is_scalar_mem(zv)
                                      else _pv(VSpecified(
                                          _scalar_of(zv))), init.loc))
        out.extend(self._init_stores_inner(ptr, qty, init))
        return out

    def _init_stores_inner(self, ptr: K.Pexpr, qty: QualType,
                           init: A.Init) -> List[K.Expr]:
        ty = qty.ty
        if isinstance(init, A.InitScalar):
            v = self.fresh_name("init.v")
            return [_sseq(PatSym(v), self.rv(init.expr),
                          self.act_store(ty, ptr, K.PSym(v), init.loc),
                          loc=init.loc)]
        if isinstance(init, A.InitString):
            assert isinstance(ty, Array)
            data = list(init.value[:init.size])
            elems: List[MemValue] = [
                MVInteger(_CHAR, IntegerValue(
                    b if b < 128 or not self.impl.char_is_signed
                    else b - 256)) for b in data]
            while len(elems) < init.size:
                elems.append(MVInteger(_CHAR, IntegerValue(0)))
            mv = MVArray(_CHAR, tuple(elems))
            return [self.act_store(ty, ptr,
                                   _pv(VSpecified(VMemStruct(mv))),
                                   init.loc)]
        if isinstance(init, A.InitArray):
            assert isinstance(ty, Array)
            out = []
            for idx, sub in init.elems:
                eptr = K.PArrayShift(ptr, ty.of.ty,
                                     _pv(VInteger(IntegerValue(idx))),
                                     loc=sub.loc)
                out.extend(self._init_stores_inner(eptr, ty.of, sub))
            return out
        if isinstance(init, A.InitStruct):
            assert isinstance(ty, StructRef)
            defn = self.tags.require(ty.tag)
            out = []
            for name, sub in init.members:
                member = defn.member(name)
                assert member is not None
                mptr = K.PMemberShift(ptr, ty.tag, name, loc=sub.loc)
                if member.bit_width is not None:
                    out.append(self._init_store_bits(ty.tag, name, mptr,
                                                     sub))
                    continue
                out.extend(self._init_stores_inner(mptr, member.qty,
                                                   sub))
            return out
        if isinstance(init, A.InitUnion):
            assert isinstance(ty, UnionRef)
            defn = self.tags.require(ty.tag)
            member = defn.member(init.member)
            assert member is not None
            mptr = K.PMemberShift(ptr, ty.tag, init.member, loc=init.loc)
            if member.bit_width is not None:
                return [self._init_store_bits(ty.tag, init.member, mptr,
                                              init.init)]
            return self._init_stores_inner(mptr, member.qty, init.init)
        raise InternalError(f"unhandled init {type(init).__name__}",
                            init.loc)

    def _init_store_bits(self, tag: str, name: str, mptr: K.Pexpr,
                         sub: A.Init) -> K.Expr:
        if not isinstance(sub, A.InitScalar):
            raise InternalError("non-scalar bit-field initialiser",
                                sub.loc)
        f = self.impl.field_layout(tag, name, self.tags)
        v = self.fresh_name("init.bf")
        return _sseq(PatSym(v), self.rv(sub.expr),
                     self.act_store_bits(f, mptr, K.PSym(v), sub.loc),
                     loc=sub.loc)

    # ================== actions ================================================

    def act_store(self, ty: CType, ptr: K.Pexpr, value: K.Pexpr,
                  loc: Loc, polarity: str = "pos") -> K.Expr:
        return K.EAction(K.Action("store", [_ctype(ty), ptr, value],
                                  polarity, "na", loc), loc=loc)

    def act_load(self, ty: CType, ptr: K.Pexpr, loc: Loc) -> K.Expr:
        return K.EAction(K.Action("load", [_ctype(ty), ptr], "pos",
                                  "na", loc), loc=loc)

    # ---- bit-field member actions -------------------------------------------

    def _member_bitfield(self, e: A.Expr) -> Optional[FieldLayout]:
        """When ``e`` designates a bit-field member lvalue, its layout
        record (declared type, bit offset within the byte the member
        shift addresses, width) under this implementation environment."""
        if not isinstance(e, A.EMember) or e.base.ty is None:
            return None
        bty = e.base.ty.ty
        rec = bty.to.ty if e.arrow and isinstance(bty, Pointer) else bty
        if not isinstance(rec, (StructRef, UnionRef)):
            return None
        member = self.tags.require(rec.tag).member(e.member)
        if member is None or member.bit_width is None:
            return None
        return self.impl.field_layout(rec.tag, e.member, self.tags)

    def _bf_action(self, kind: str, f: FieldLayout, ptr: K.Pexpr,
                   loc: Loc, value: Optional[K.Pexpr] = None,
                   polarity: str = "pos") -> K.Action:
        args: List[K.Pexpr] = [
            _ctype(f.qty.ty), ptr,
            _pv(VInteger(IntegerValue(f.bit_offset))),
            _pv(VInteger(IntegerValue(f.bit_width)))]
        if value is not None:
            args.append(value)
        return K.Action(kind, args, polarity, "na", loc)

    def act_load_bits(self, f: FieldLayout, ptr: K.Pexpr,
                      loc: Loc) -> K.Expr:
        return K.EAction(self._bf_action("loadbf", f, ptr, loc),
                         loc=loc)

    def act_store_bits(self, f: FieldLayout, ptr: K.Pexpr,
                       value: K.Pexpr, loc: Loc) -> K.Expr:
        return K.EAction(self._bf_action("storebf", f, ptr, loc, value),
                         loc=loc)

    def _conv_bits(self, f: FieldLayout, loaded: K.Pexpr) -> K.Pexpr:
        """The value a bit-field holds after a store of ``loaded``:
        truncated to the field width (sign-extended when the declared
        type is signed) — the value of ``s.f = x`` (§6.5.16p3)."""
        return K.PCall("conv_bits", [
            _ctype(f.qty.ty),
            _pv(VInteger(IntegerValue(f.bit_width))), loaded])

    # ================== expressions: rvalues ====================================

    def rv(self, e: A.Expr) -> K.Expr:
        """Elaborate a (typechecked) C expression to an effectful Core
        expression computing its loaded value."""
        method = getattr(self, "_rv_" + type(e).__name__, None)
        if method is None:
            raise InternalError(
                f"rv: unhandled expression {type(e).__name__}", e.loc)
        return method(e)

    @contextmanager
    def _temporaries(self):
        """Collect the temporaries of one full expression (§6.8p4):
        those holding array members of rvalues (see :meth:`lv`), which
        are created around it and die when it ends (§6.2.4p8)."""
        outer, self._temps = self._temps, []
        try:
            yield self._temps
        finally:
            self._temps = outer

    def full(self, elaborate, e: A.Expr) -> K.Expr:
        """``elaborate(e)`` for the full expression ``e``, inside the
        scope of its temporaries."""
        with self._temporaries() as temps:
            core = elaborate(e)
        return K.EScope(temps, core) if temps else core

    def initialise(self, ptr: K.Pexpr, qty: QualType, init: A.Init,
                   zero_first: bool) -> List[K.Expr]:
        """:meth:`init_stores` for a declaration's initialiser, a full
        expression: its stores, inside the scope of its temporaries."""
        with self._temporaries() as temps:
            stores = self.init_stores(ptr, qty, init, zero_first)
        if temps:
            return [K.EScope(temps, _seq_all(stores[:-1], stores[-1]))]
        return stores

    def discard(self, e: A.Expr) -> K.Expr:
        """Elaborate an expression evaluated as a void expression
        (§6.8.3p2, §6.5.17p2): its value is never used, so a call in
        it may return from a callee that reached its ``}``."""
        if isinstance(e, A.ECall):
            return self._call(e, used=False)
        if isinstance(e, A.EComma):
            return _sseq(PatWild(), self.discard(e.lhs),
                         self.discard(e.rhs), loc=e.loc)
        return self.rv(e)

    def _rv_EConv(self, e: A.EConv) -> K.Expr:
        if e.kind == "lvalue":
            p = self.fresh_name("lv")
            assert e.operand.ty is not None
            bf = self._member_bitfield(e.operand)
            if bf is not None:
                return _wseq(PatSym(p), self.lv(e.operand),
                             self.act_load_bits(bf, K.PSym(p), e.loc),
                             loc=e.loc)
            return _wseq(PatSym(p), self.lv(e.operand),
                         self.act_load(e.operand.ty.ty, K.PSym(p),
                                       e.loc), loc=e.loc)
        if e.kind in ("decay", "fn-decay"):
            p = self.fresh_name("decay")
            return _sseq(PatSym(p), self.lv(e.operand),
                         _pure(K.PCtor("Specified", [K.PSym(p)]),
                               e.loc), loc=e.loc)
        if e.kind == "assign":
            assert e.operand.ty is not None
            return self.conv(self.rv(e.operand), e.operand.ty, e.to,
                             e.loc)
        raise InternalError(f"unknown conversion kind {e.kind}", e.loc)

    def _rv_EConstInt(self, e: A.EConstInt) -> K.Expr:
        return _pure(_specified_int(e.value), e.loc)

    def _rv_EConstFloat(self, e: A.EConstFloat) -> K.Expr:
        return _pure(_pv(VSpecified(VFloating(FloatingValue(e.value)))),
                     e.loc)

    def _rv_EId(self, e: A.EId) -> K.Expr:
        # Only function designators reach rv() unwrapped (fn-decay wraps
        # them); object ids come through EConv("lvalue").
        assert e.ty is not None
        if isinstance(e.ty.ty, Function):
            return _pure(K.PSym(self.fn_names[e.sym]), e.loc)
        raise InternalError("object id in rvalue position without "
                            "lvalue conversion", e.loc)

    def _rv_ESizeofType(self, e: A.ESizeofType) -> K.Expr:
        size = self.impl.sizeof(e.of.ty, self.tags)
        return _pure(_specified_int(size), e.loc)

    def _rv_EAlignofType(self, e: A.EAlignofType) -> K.Expr:
        return _pure(_specified_int(
            self.impl.alignof(e.of.ty, self.tags)), e.loc)

    def _rv_EOffsetof(self, e: A.EOffsetof) -> K.Expr:
        return _pure(_specified_int(
            self.impl.offsetof(e.record.ty, e.member, self.tags)), e.loc)

    def _rv_EUnary(self, e: A.EUnary) -> K.Expr:
        if e.op == "&":
            assert e.operand.ty is not None
            if isinstance(e.operand.ty.ty, Function):
                return _sseq(PatSym("f"), self.rv(e.operand),
                             _pure(K.PCtor("Specified", [K.PSym("f")])),
                             loc=e.loc)
            p = self.fresh_name("addr")
            return _sseq(PatSym(p), self.lv(e.operand),
                         _pure(K.PCtor("Specified", [K.PSym(p)])),
                         loc=e.loc)
        if e.op == "*":
            # The lvalue conversion wrapping this node does the load;
            # bare `*` in rvalue position only appears via EConv.
            raise InternalError("indirection outside lvalue conversion",
                                e.loc)
        if e.op == "sizeof":
            assert e.operand.ty is not None
            oty = e.operand.ty.ty
            if isinstance(oty, VarArray):
                # §6.5.3.4p2: sizeof of a VLA is a runtime value — the
                # element count lives in the hidden size variable.
                esize = self.impl.sizeof(oty.of.ty, self.tags)
                v = self.fresh_name("vla.sz")
                load = self.act_load(Integer(IntKind.LONG),
                                     K.PSym(str(oty.size_sym)), e.loc)
                return _sseq(PatSym(v), load, self._case_specified(
                    K.PSym(v), _SIZE_T,
                    lambda pv: K.PCtor("Specified", [
                        K.PBinop("*", pv, _pv(VInteger(
                            IntegerValue(esize))))]),
                    unspec_is_ub=True, loc=e.loc), loc=e.loc)
            size = self.impl.sizeof(oty, self.tags)
            return _pure(_specified_int(size), e.loc)
        assert e.ty is not None and e.operand.ty is not None
        oty = e.operand.ty.ty
        rty = e.ty.ty
        operand = self.rv(e.operand)
        if e.op == "!":
            v = self.fresh_name("not")
            return _sseq(PatSym(v), operand, self._case_specified(
                K.PSym(v), rty, lambda pv: K.PCtor("Specified", [
                    K.PIf(self._nonzero_pe(pv, oty),
                          _pv(VInteger(IntegerValue(0))),
                          _pv(VInteger(IntegerValue(1))))]),
                unspec_is_ub=True, loc=e.loc), loc=e.loc)
        if isinstance(rty, Floating):
            v = self.fresh_name("funop")
            ops = {"+": lambda pv: pv,
                   "-": lambda pv: K.PBinop(
                       "-", _pv(VFloating(FloatingValue(0.0))), pv)}
            return _sseq(PatSym(v), operand, self._case_specified(
                K.PSym(v), rty,
                lambda pv: K.PCtor("Specified", [ops[e.op](pv)]),
                unspec_is_ub=True, loc=e.loc), loc=e.loc)
        assert isinstance(rty, Integer)
        v = self.fresh_name("unop")

        def build(pv: K.Pexpr) -> K.Pexpr:
            prom = K.PCall("conv_int", [_ctype(rty), pv])
            if e.op == "+":
                return K.PCtor("Specified", [prom])
            if e.op == "-":
                zero = _pv(VInteger(IntegerValue(0)))
                return self._arith_result(
                    K.PBinop("-", zero, prom), rty, e.loc)
            if e.op == "~":
                minus1 = _pv(VInteger(IntegerValue(-1)))
                return self._arith_result(
                    K.PBinop("xor", prom, minus1), rty, e.loc)
            raise InternalError(f"unary {e.op}", e.loc)

        return _sseq(PatSym(v), operand, self._case_specified(
            K.PSym(v), rty, build,
            unspec_is_ub=self.impl.is_signed(rty.kind), loc=e.loc),
            loc=e.loc)

    def _nonzero_pe(self, pv: K.Pexpr, ty: CType) -> K.Pexpr:
        if isinstance(ty, Pointer):
            return K.PCall("ptr_nonnull", [pv])
        if isinstance(ty, Floating):
            return K.PBinop("!=", pv, _pv(VFloating(FloatingValue(0.0))))
        return K.PBinop("!=", pv, _pv(VInteger(IntegerValue(0))))

    def _arith_result(self, pe: K.Pexpr, ty: Integer,
                      loc: Loc) -> K.Pexpr:
        """Wrap a mathematical result into type ty: unsigned wrap
        (§6.2.5p9), signed representability check (§6.5p5)."""
        if self.impl.is_signed(ty.kind):
            tmp = self.fresh_name("r")
            return K.PLet(
                PatSym(tmp), pe,
                K.PIf(K.PCall("is_representable",
                              [K.PSym(tmp), _ctype(ty)]),
                      K.PCtor("Specified", [K.PSym(tmp)]),
                      K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=loc)))
        return K.PCtor("Specified", [K.PCall("wrapI",
                                             [_ctype(ty), pe])])

    def _case_specified(self, scrut: K.Pexpr, result_ty: CType,
                        build, unspec_is_ub: bool,
                        loc: Loc) -> K.Expr:
        """case scrut of Specified(v) => build(v) | Unspecified =>
        undef or propagate (§2.4 daemonic treatment, Fig. 3)."""
        v = self.fresh_name("sv")
        unspec: K.Pexpr
        if unspec_is_ub:
            unspec = K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=loc)
        else:
            unspec = K.PCtor("Unspecified", [_ctype(result_ty)])
        return _pure(K.PCase(scrut, [
            (PatCtor("Specified", (PatSym(v),)), build(K.PSym(v))),
            (PatCtor("Unspecified", (PatWild(),)), unspec),
        ]), loc)

    # ---- binary operators ------------------------------------------------------

    def _rv_EBinary(self, e: A.EBinary) -> K.Expr:
        if e.op in ("&&", "||"):
            return self._logical(e)
        assert e.lhs.ty is not None and e.rhs.ty is not None
        lt, rt = e.lhs.ty.ty, e.rhs.ty.ty
        a, b = self.fresh_name("e1"), self.fresh_name("e2")
        pair = K.EUnseq([self.rv(e.lhs), self.rv(e.rhs)], loc=e.loc)
        body = self._binary_body(e, K.PSym(a), K.PSym(b), lt, rt)
        return _wseq(PatCtor("Tuple", (PatSym(a), PatSym(b))), pair,
                     body, loc=e.loc)

    def _binary_body(self, e: A.EBinary, pa: K.Pexpr, pb: K.Pexpr,
                     lt: CType, rt: CType) -> K.Expr:
        op = e.op
        assert e.ty is not None
        rty = e.ty.ty
        # pointer arithmetic / comparison cases
        if isinstance(lt, Pointer) or isinstance(rt, Pointer):
            return self._pointer_binary(e, pa, pb, lt, rt)
        if isinstance(lt, Floating) or isinstance(rt, Floating):
            return self._float_binary(e, pa, pb, lt, rt)
        assert isinstance(lt, Integer) and isinstance(rt, Integer)
        if op in ("<<", ">>"):
            return self._shift(e, pa, pb, lt, rt)
        common = convert.usual_arithmetic_conversions(lt, rt, self.impl)
        va, vb = self.fresh_name("v1"), self.fresh_name("v2")

        def specified_case() -> K.Pexpr:
            ca = K.PCall("conv_int", [_ctype(common), K.PSym(va)])
            cb = K.PCall("conv_int", [_ctype(common), K.PSym(vb)])
            if op in ("==", "!=", "<", ">", "<=", ">="):
                cmp = K.PBinop(op, ca, cb)
                return K.PCtor("Specified", [
                    K.PIf(cmp, _pv(VInteger(IntegerValue(1))),
                          _pv(VInteger(IntegerValue(0))))])
            if op in ("/", "%"):
                zero_check = K.PBinop("==", cb,
                                      _pv(VInteger(IntegerValue(0))))
                math_op = "/" if op == "/" else "rem_t"
                return K.PIf(zero_check,
                             K.PUndef(UB.DIVISION_BY_ZERO, loc=e.loc),
                             self._arith_result(
                                 K.PBinop(math_op, ca, cb),
                                 common, e.loc))
            core_op = {"+": "+", "-": "-", "*": "*", "&": "&",
                       "|": "|", "^": "xor"}[op]
            return self._arith_result(K.PBinop(core_op, ca, cb), common,
                                      e.loc)

        result_int_ty = common if op not in ("==", "!=", "<", ">", "<=",
                                             ">=") else _INT
        unspec_is_ub = self.impl.is_signed(common.kind) or op in (
            "==", "!=", "<", ">", "<=", ">=", "/", "%")
        v_unspec: K.Pexpr = K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc) \
            if unspec_is_ub else K.PCtor("Unspecified",
                                         [_ctype(result_int_ty)])
        return _pure(K.PCase(K.PCtor("Tuple", [pa, pb]), [
            (PatCtor("Tuple", (PatWild(),
                               PatCtor("Unspecified", (PatWild(),)))),
             v_unspec),
            (PatCtor("Tuple", (PatCtor("Unspecified", (PatWild(),)),
                               PatWild())), v_unspec),
            (PatCtor("Tuple", (PatCtor("Specified", (PatSym(va),)),
                               PatCtor("Specified", (PatSym(vb),)))),
             specified_case()),
        ]), e.loc)

    def _shift(self, e: A.EBinary, pa: K.Pexpr, pb: K.Pexpr,
               lt: Integer, rt: Integer) -> K.Expr:
        """ISO C11 §6.5.7, following the paper's Fig. 3 point-by-point."""
        impl = self.impl
        result_ty = convert.integer_promotion(lt, impl)
        prm_rt = convert.integer_promotion(rt, impl)
        va, vb = self.fresh_name("obj1"), self.fresh_name("obj2")
        prm1 = K.PCall("conv_int", [_ctype(result_ty), K.PSym(va)])
        prm2 = K.PCall("conv_int", [_ctype(prm_rt), K.PSym(vb)])
        p1, p2 = self.fresh_name("prm1"), self.fresh_name("prm2")
        res = self.fresh_name("res")
        unsigned = not impl.is_signed(result_ty.kind)
        if e.op == "<<":
            if unsigned:
                # E1 x 2^E2 reduced modulo one more than the max value.
                compute: K.Pexpr = K.PCtor("Specified", [
                    K.PBinop("rem_t",
                             K.PBinop("*", K.PSym(p1),
                                      K.PBinop("^",
                                               _pv(VInteger(
                                                   IntegerValue(2))),
                                               K.PSym(p2))),
                             K.PBinop("+", K.PCall("ivmax",
                                                   [_ctype(result_ty)]),
                                      _pv(VInteger(IntegerValue(1)))))])
            else:
                compute = K.PIf(
                    K.PBinop("<", K.PSym(p1),
                             _pv(VInteger(IntegerValue(0)))),
                    K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc),
                    K.PLet(PatSym(res),
                           K.PBinop("*", K.PSym(p1),
                                    K.PBinop("^",
                                             _pv(VInteger(
                                                 IntegerValue(2))),
                                             K.PSym(p2))),
                           K.PIf(K.PCall("is_representable",
                                         [K.PSym(res),
                                          _ctype(result_ty)]),
                                 K.PCtor("Specified", [K.PSym(res)]),
                                 K.PUndef(UB.EXCEPTIONAL_CONDITION,
                                          loc=e.loc))))
        else:  # >>
            if unsigned:
                compute = K.PCtor("Specified", [
                    K.PBinop("/", K.PSym(p1),
                             K.PBinop("^", _pv(VInteger(IntegerValue(2))),
                                      K.PSym(p2)))])
            else:
                # Negative E1 >> is implementation-defined (§6.5.7p5);
                # we follow GCC/Clang: arithmetic shift.
                compute = K.PCtor("Specified", [
                    K.PCall("conv_int", [_ctype(result_ty),
                                         K.PBinop(">>", K.PSym(p1),
                                                  K.PSym(p2))])])
        guarded = K.PLet(
            PatSym(p1), prm1,
            K.PLet(PatSym(p2), prm2,
                   K.PIf(K.PBinop("<", K.PSym(p2),
                                  _pv(VInteger(IntegerValue(0)))),
                         K.PUndef(UB.NEGATIVE_SHIFT, loc=e.loc),
                         K.PIf(K.PBinop("<=",
                                        K.PCall("ctype_width",
                                                [_ctype(result_ty)]),
                                        K.PSym(p2)),
                               K.PUndef(UB.SHIFT_TOO_LARGE, loc=e.loc),
                               compute))))
        unspec_left: K.Pexpr = K.PCtor("Unspecified",
                                       [_ctype(result_ty)]) \
            if unsigned else K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)
        return _pure(K.PCase(K.PCtor("Tuple", [pa, pb]), [
            (PatCtor("Tuple", (PatWild(),
                               PatCtor("Unspecified", (PatWild(),)))),
             K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)),
            (PatCtor("Tuple", (PatCtor("Unspecified", (PatWild(),)),
                               PatWild())), unspec_left),
            (PatCtor("Tuple", (PatCtor("Specified", (PatSym(va),)),
                               PatCtor("Specified", (PatSym(vb),)))),
             guarded),
        ]), e.loc)

    def _float_binary(self, e: A.EBinary, pa: K.Pexpr, pb: K.Pexpr,
                      lt: CType, rt: CType) -> K.Expr:
        op = e.op
        va, vb = self.fresh_name("f1"), self.fresh_name("f2")
        fa = K.PCall("float_of", [K.PSym(va)])
        fb = K.PCall("float_of", [K.PSym(vb)])
        if op in ("==", "!=", "<", ">", "<=", ">="):
            body: K.Pexpr = K.PCtor("Specified", [
                K.PIf(K.PBinop(op, fa, fb),
                      _pv(VInteger(IntegerValue(1))),
                      _pv(VInteger(IntegerValue(0))))])
        else:
            body = K.PCtor("Specified", [K.PBinop(op, fa, fb)])
        return _pure(K.PCase(K.PCtor("Tuple", [pa, pb]), [
            (PatCtor("Tuple", (PatCtor("Specified", (PatSym(va),)),
                               PatCtor("Specified", (PatSym(vb),)))),
             body),
            (PatWild(), K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)),
        ]), e.loc)

    def _pointer_binary(self, e: A.EBinary, pa: K.Pexpr, pb: K.Pexpr,
                        lt: CType, rt: CType) -> K.Expr:
        op = e.op
        va, vb = self.fresh_name("p1"), self.fresh_name("p2")
        both = K.PCase(K.PCtor("Tuple", [pa, pb]), [
            (PatCtor("Tuple", (PatCtor("Specified", (PatSym(va),)),
                               PatCtor("Specified", (PatSym(vb),)))),
             K.PCtor("Tuple", [K.PSym(va), K.PSym(vb)])),
            (PatWild(), K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)),
        ])
        x, y = self.fresh_name("x"), self.fresh_name("y")

        def with_both(body: K.Expr) -> K.Expr:
            return K.ELet(PatCtor("Tuple", (PatSym(x), PatSym(y))),
                          both, body, loc=e.loc)

        px, py = K.PSym(x), K.PSym(y)
        # p + n / n + p / p - n
        if op in ("+", "-") and isinstance(lt, Pointer) and \
                is_integer(rt):
            elem = lt.to.ty
            idx = py if op == "+" else K.PBinop(
                "-", _pv(VInteger(IntegerValue(0))), py)
            return with_both(_pure(K.PCtor("Specified", [
                K.PArrayShift(px, elem, idx, loc=e.loc)]), e.loc))
        if op == "+" and is_integer(lt) and isinstance(rt, Pointer):
            elem = rt.to.ty
            return with_both(_pure(K.PCtor("Specified", [
                K.PArrayShift(py, elem, px, loc=e.loc)]), e.loc))
        if op == "-" and isinstance(lt, Pointer) and \
                isinstance(rt, Pointer):
            elem = lt.to.ty
            d = self.fresh_name("diff")
            return with_both(_sseq(
                PatSym(d),
                K.EPtrOp("ptrdiff", [px, py], aux=elem, loc=e.loc),
                _pure(K.PCtor("Specified", [K.PSym(d)]), e.loc)))
        # comparisons
        ops = {"==": "eq", "!=": "ne", "<": "lt", ">": "gt",
               "<=": "le", ">=": "ge"}
        if op in ops:
            # An integer operand (a null pointer constant) converts.
            def as_ptr(pe: K.Pexpr, ty: CType, body_fn):
                if isinstance(ty, Pointer):
                    return body_fn(pe)
                q = self.fresh_name("np")
                return _sseq(PatSym(q),
                             K.EPtrOp("ptrFromInt", [pe], loc=e.loc),
                             body_fn(K.PSym(q)))

            r = self.fresh_name("cmp")

            def finish(pl: K.Pexpr):
                def finish2(pr: K.Pexpr):
                    return _sseq(
                        PatSym(r),
                        K.EPtrOp(ops[op], [pl, pr], loc=e.loc),
                        _pure(K.PCtor("Specified", [K.PSym(r)]), e.loc))
                return as_ptr(py, rt, finish2)

            return with_both(as_ptr(px, lt, finish))
        raise InternalError(f"pointer binary {op}", e.loc)

    def _logical(self, e: A.EBinary) -> K.Expr:
        """&& and || (§6.5.13-14): sequence point after the first
        operand; result is int 0/1."""
        assert e.lhs.ty is not None and e.rhs.ty is not None
        a = self.fresh_name("land1")
        b = self.fresh_name("land2")
        one = _pv(VInteger(IntegerValue(1)))
        zero = _pv(VInteger(IntegerValue(0)))
        rhs_eval = _sseq(PatSym(b), self.rv(e.rhs), self._case_specified(
            K.PSym(b), _INT,
            lambda pv: K.PCtor("Specified", [
                K.PIf(self._nonzero_pe(pv, e.rhs.ty.ty), one, zero)]),
            unspec_is_ub=True, loc=e.loc))
        v = self.fresh_name("lv1")
        return _sseq(PatSym(a), self.rv(e.lhs), K.ECase(K.PSym(a), [
            (PatCtor("Unspecified", (PatWild(),)),
             _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                            loc=e.loc))),
            (PatCtor("Specified", (PatSym(v),)),
             K.EIf(self._nonzero_pe(K.PSym(v), e.lhs.ty.ty),
                   rhs_eval if e.op == "&&" else _pure(
                       K.PCtor("Specified", [one]), e.loc),
                   _pure(K.PCtor("Specified", [zero]), e.loc)
                   if e.op == "&&" else rhs_eval)),
        ]), loc=e.loc)

    # ---- assignment, increment, call, &c. -----------------------------------------

    def _rv_EAssign(self, e: A.EAssign) -> K.Expr:
        assert e.lhs.ty is not None
        lty = e.lhs.ty
        bf = self._member_bitfield(e.lhs)
        if e.op == "=":
            p, v = self.fresh_name("ap"), self.fresh_name("av")
            pair = K.EUnseq([self.lv(e.lhs), self.rv(e.rhs)], loc=e.loc)
            if bf is not None:
                # The assignment's value is the value *stored in* the
                # bit-field: truncated to the field width (§6.5.16p3).
                return _wseq(
                    PatCtor("Tuple", (PatSym(p), PatSym(v))), pair,
                    _sseq(PatWild(),
                          self.act_store_bits(bf, K.PSym(p), K.PSym(v),
                                              e.loc),
                          _pure(self._conv_bits(bf, K.PSym(v)), e.loc)),
                    loc=e.loc)
            return _wseq(
                PatCtor("Tuple", (PatSym(p), PatSym(v))), pair,
                _sseq(PatWild(),
                      self.act_store(lty.ty, K.PSym(p), K.PSym(v),
                                     e.loc),
                      _pure(K.PSym(v), e.loc)), loc=e.loc)
        # compound assignment: lv once, load, op, store (§6.5.16.2p3)
        binop = e.op[:-1]
        p = self.fresh_name("cp")
        old = self.fresh_name("cold")
        new = self.fresh_name("cnew")
        fake = A.EBinary(binop,
                         _typed_hole(e.lhs.ty.unqualified(), old),
                         _typed_hole(e.rhs.ty, "__rhs_hole__"),
                         loc=e.loc)
        fake.ty = None
        # compute result type like the typechecker did
        from ..typing.typecheck import TypeChecker
        checker = TypeChecker(self.ail, self.impl)
        fake_lhs = _typed_hole(e.lhs.ty.unqualified(), old)
        fake_rhs = _typed_hole(e.rhs.ty, "rhs")
        res_qty = checker.binary_result(binop, fake_lhs, fake_rhs, e.loc)
        fakeb = A.EBinary(binop, fake_lhs, fake_rhs, loc=e.loc)
        fakeb.ty = res_qty
        body = self._binary_body(fakeb, K.PSym(old), K.PSym("crhs"),
                                 e.lhs.ty.ty, e.rhs.ty.ty)
        # convert result back to the lhs type (§6.5.16.2p3)
        conv_back = self.conv(body, res_qty, e.lhs.ty.unqualified(),
                              e.loc)
        rhs = self.rv(e.rhs)
        if bf is not None:
            return _wseq(
                PatCtor("Tuple", (PatSym(p), PatSym("crhs"))),
                K.EUnseq([self.lv(e.lhs), rhs], loc=e.loc),
                _sseq(PatSym(old),
                      self.act_load_bits(bf, K.PSym(p), e.loc),
                      _sseq(PatSym(new), conv_back,
                            _sseq(PatWild(),
                                  self.act_store_bits(bf, K.PSym(p),
                                                      K.PSym(new),
                                                      e.loc),
                                  _pure(self._conv_bits(bf,
                                                        K.PSym(new)),
                                        e.loc)))), loc=e.loc)
        return _wseq(
            PatCtor("Tuple", (PatSym(p), PatSym("crhs"))),
            K.EUnseq([self.lv(e.lhs), rhs], loc=e.loc),
            _sseq(PatSym(old), self.act_load(lty.ty, K.PSym(p), e.loc),
                  _sseq(PatSym(new), conv_back,
                        _sseq(PatWild(),
                              self.act_store(lty.ty, K.PSym(p),
                                             K.PSym(new), e.loc),
                              _pure(K.PSym(new), e.loc)))), loc=e.loc)

    def _rv_EIncrDecr(self, e: A.EIncrDecr) -> K.Expr:
        assert e.base.ty is not None
        ty = e.base.ty.ty
        delta = 1 if e.op == "++" else -1
        p = self.fresh_name("ip")
        old = self.fresh_name("iold")
        if isinstance(ty, Pointer):
            new_pe: K.Pexpr = K.PCase(K.PSym(old), [
                (PatCtor("Specified", (PatSym("ipv"),)),
                 K.PCtor("Specified", [K.PArrayShift(
                     K.PSym("ipv"), ty.to.ty,
                     _pv(VInteger(IntegerValue(delta))), loc=e.loc)])),
                (PatCtor("Unspecified", (PatWild(),)),
                 K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)),
            ])
        else:
            assert isinstance(ty, Integer)
            common = convert.usual_arithmetic_conversions(ty, _INT,
                                                          self.impl)
            step = self._arith_result(
                K.PBinop("+",
                         K.PCall("conv_int", [_ctype(common),
                                              K.PSym("iiv")]),
                         _pv(VInteger(IntegerValue(delta)))),
                common, e.loc)
            back = K.PCase(step, [
                (PatCtor("Specified", (PatSym("istep"),)),
                 K.PCtor("Specified", [
                     K.PCall("conv_int", [_ctype(ty),
                                          K.PSym("istep")])])),
                (PatCtor("Unspecified", (PatWild(),)),
                 K.PCtor("Unspecified", [_ctype(ty)])),
            ])
            new_pe = K.PCase(K.PSym(old), [
                (PatCtor("Specified", (PatSym("iiv"),)), back),
                (PatCtor("Unspecified", (PatWild(),)),
                 K.PUndef(UB.EXCEPTIONAL_CONDITION, loc=e.loc)
                 if self.impl.is_signed(ty.kind)
                 else K.PCtor("Unspecified", [_ctype(ty)])),
            ])
        bf = self._member_bitfield(e.base)
        if e.is_postfix:
            # let atomic: the load/store pair is indivisible (§5.6) and
            # the store is *negative* — not part of the value
            # computation (§6.5.2.4).
            if bf is not None:
                load_act = self._bf_action("loadbf", bf, K.PSym(p),
                                           e.loc)
                store_act = self._bf_action("storebf", bf, K.PSym(p),
                                            e.loc, value=new_pe,
                                            polarity="neg")
            else:
                load_act = K.Action("load", [_ctype(ty), K.PSym(p)],
                                    "pos", "na", e.loc)
                store_act = K.Action("store", [_ctype(ty), K.PSym(p),
                                               new_pe], "neg", "na",
                                     e.loc)
            atomic = K.EAtomicSeq(old, load_act, store_act, loc=e.loc)
            return _wseq(PatSym(p), self.lv(e.base), atomic, loc=e.loc)
        new = self.fresh_name("inew")
        if bf is not None:
            return _wseq(
                PatSym(p), self.lv(e.base),
                _sseq(PatSym(old),
                      self.act_load_bits(bf, K.PSym(p), e.loc),
                      _sseq(PatSym(new), _pure(new_pe, e.loc),
                            _sseq(PatWild(),
                                  self.act_store_bits(bf, K.PSym(p),
                                                      K.PSym(new),
                                                      e.loc),
                                  _pure(self._conv_bits(bf,
                                                        K.PSym(new)),
                                        e.loc)))), loc=e.loc)
        return _wseq(
            PatSym(p), self.lv(e.base),
            _sseq(PatSym(old), self.act_load(ty, K.PSym(p), e.loc),
                  _sseq(PatSym(new), _pure(new_pe, e.loc),
                        _sseq(PatWild(),
                              self.act_store(ty, K.PSym(p), K.PSym(new),
                                             e.loc),
                              _pure(K.PSym(new), e.loc)))), loc=e.loc)

    def _rv_ECall(self, e: A.ECall) -> K.Expr:
        return self._call(e, used=True)

    def _call(self, e: A.ECall, used: bool) -> K.Expr:
        assert e.func.ty is not None
        fty = e.func.ty.ty
        assert isinstance(fty, Pointer) and isinstance(fty.to.ty,
                                                       Function)
        fn = fty.to.ty
        f = self.fresh_name("fn")
        arg_syms = [self.fresh_name(f"arg{i}") for i in range(len(e.args))]
        arg_exprs = []
        for i, a in enumerate(e.args):
            ae = self.rv(a)
            if i >= len(fn.params):
                # default argument promotions (§6.5.2.2p6-7)
                assert a.ty is not None
                ae = self._default_promote(ae, a.ty)
            arg_exprs.append(ae)
        call: K.Expr = K.ECcall(K.PSym(f), [K.PSym(s) for s in arg_syms],
                                ret_ty=fn.ret, loc=e.loc)
        if used and not isinstance(fn.ret.ty, Void) \
                and not self._always_returns(e.func):
            # §6.9.1p12: using the value of a call whose callee reached
            # its } (which returned Unit, see _proc) is undefined.
            r = self.fresh_name("call")
            call = _sseq(PatSym(r), call, K.ECase(K.PSym(r), [
                (PatCtor("Unit", ()),
                 _pure(K.PUndef(UB.FUNCTION_NO_RETURN_VALUE_USED,
                                loc=e.loc))),
                (PatWild(), _pure(K.PSym(r))),
            ]), loc=e.loc)
        if not arg_exprs:
            return _wseq(PatSym(f), self.rv(e.func), call, loc=e.loc)
        pair = K.EUnseq([self.rv(e.func)] + arg_exprs, loc=e.loc)
        pat = PatCtor("Tuple", tuple([PatSym(f)] +
                                     [PatSym(s) for s in arg_syms]))
        return _wseq(pat, pair, call, loc=e.loc)

    def _always_returns(self, func: A.Expr) -> bool:
        """Whether a call through ``func`` never comes back from its
        callee's ``}``: the callee is a library function (declared,
        never defined) or its body ends in a ``return``."""
        if isinstance(func, A.EConv) and func.kind == "fn-decay" \
                and isinstance(func.operand, A.EId):
            fdef = self.ail.functions.get(func.operand.sym)
            return fdef is not None and (fdef.body is None
                                         or _ends_in_return(fdef.body))
        return False

    def _default_promote(self, ae: K.Expr, qty: QualType) -> K.Expr:
        ty = qty.ty
        if isinstance(ty, Integer):
            prom = convert.integer_promotion(ty, self.impl)
            if prom != ty:
                return self.conv(ae, qty, QualType(prom), Loc.unknown())
        if isinstance(ty, Floating) and ty.kind.value == "float":
            from ..ctypes.types import FloatKind
            return self.conv(ae, qty,
                             QualType(Floating(FloatKind.DOUBLE)),
                             Loc.unknown())
        return ae

    def _rv_ECast(self, e: A.ECast) -> K.Expr:
        assert e.operand.ty is not None
        if isinstance(e.to.ty, Void):
            return _sseq(PatWild(), self.discard(e.operand),
                         _pure(_pv(VUnit()), e.loc), loc=e.loc)
        return self.conv(self.rv(e.operand), e.operand.ty, e.to, e.loc)

    def _rv_ECond(self, e: A.ECond) -> K.Expr:
        assert e.cond.ty is not None and e.ty is not None
        then = self.conv(self.rv(e.then), e.then.ty, e.ty, e.loc) \
            if e.then.ty is not None and not isinstance(e.ty.ty, Void) \
            else self.rv(e.then)
        els = self.conv(self.rv(e.els), e.els.ty, e.ty, e.loc) \
            if e.els.ty is not None and not isinstance(e.ty.ty, Void) \
            else self.rv(e.els)
        v = self.fresh_name("cond")
        return _sseq(PatSym(v), self.rv(e.cond), K.ECase(K.PSym(v), [
            (PatCtor("Unspecified", (PatWild(),)),
             _pure(K.PUndef(UB.UNSPECIFIED_VALUE_CONTROL_FLOW,
                            loc=e.loc))),
            (PatCtor("Specified", (PatSym(v + ".v"),)),
             K.EIf(self._nonzero_pe(K.PSym(v + ".v"), e.cond.ty.ty),
                   then, els)),
        ]), loc=e.loc)

    def _rv_EComma(self, e: A.EComma) -> K.Expr:
        return _sseq(PatWild(), self.discard(e.lhs), self.rv(e.rhs),
                     loc=e.loc)

    def _rv_EString(self, e: A.EString) -> K.Expr:
        return _pure(K.PCtor("Specified", [K.PSym(str(e.sym))]), e.loc)

    def _rv_EIndex(self, e: A.EIndex) -> K.Expr:
        raise InternalError("index outside lvalue conversion", e.loc)

    def _rv_EMember(self, e: A.EMember) -> K.Expr:
        # A member of a struct or union rvalue (§6.5.2.3p3), e.g. a
        # call's result: the value goes to a temporary object that dies
        # with the expression (§6.2.4p8), the member is loaded from it.
        assert e.base.ty is not None and e.ty is not None
        rec = e.base.ty.ty
        tmp, v = self.fresh_name("rvtmp"), self.fresh_name("rv")
        ptr = K.PMemberShift(K.PSym(tmp), rec.tag, e.member, loc=e.loc)
        bf = self._member_bitfield(e)
        load = self.act_load_bits(bf, ptr, e.loc) if bf is not None \
            else self.act_load(e.ty.ty, ptr, e.loc)
        store = self.act_store(rec, K.PSym(tmp), K.PSym(v), e.loc)
        return K.EScope(
            [K.ScopedCreate(tmp, rec, "rvalue", loc=e.loc)],
            _sseq(PatSym(v), self.rv(e.base),
                  _sseq(PatWild(), store, load), loc=e.loc))

    def _rv_ECompound(self, e: A.ECompound) -> K.Expr:
        raise InternalError("compound literal outside lvalue conversion",
                            e.loc)

    # ================== conversions ==============================================

    def conv(self, core_e: K.Expr, fr: QualType, to: QualType,
             loc: Loc) -> K.Expr:
        """Value conversion (§6.3): wraps an effectful expression
        computing a loaded value of type ``fr`` into one of type ``to``.
        """
        fty, tty = fr.ty, to.ty
        if fty == tty:
            return core_e
        v = self.fresh_name("cv")
        if isinstance(tty, Integer) and isinstance(fty, Integer):
            if tty.kind is IntKind.BOOL:
                build = lambda pv: K.PCtor("Specified", [
                    K.PIf(K.PBinop("!=", pv,
                                   _pv(VInteger(IntegerValue(0)))),
                          _pv(VInteger(IntegerValue(1))),
                          _pv(VInteger(IntegerValue(0))))])
            else:
                build = lambda pv: K.PCtor("Specified", [
                    K.PCall("conv_int", [_ctype(tty), pv])])
            return _sseq(PatSym(v), core_e, self._case_specified(
                K.PSym(v), tty, build, unspec_is_ub=False, loc=loc),
                loc=loc)
        if isinstance(tty, Pointer) and isinstance(fty, Pointer):
            return core_e  # representation unchanged; checks at access
        if isinstance(tty, Pointer) and isinstance(fty, Integer):
            q = self.fresh_name("p")
            return _sseq(PatSym(v), core_e, K.ECase(K.PSym(v), [
                (PatCtor("Specified", (PatSym(v + ".i"),)),
                 _sseq(PatSym(q),
                       K.EPtrOp("ptrFromInt", [K.PSym(v + ".i")],
                                loc=loc),
                       _pure(K.PCtor("Specified", [K.PSym(q)]), loc))),
                (PatCtor("Unspecified", (PatWild(),)),
                 _pure(K.PCtor("Unspecified", [_ctype(tty)]), loc)),
            ]), loc=loc)
        if isinstance(tty, Integer) and isinstance(fty, Pointer):
            q = self.fresh_name("i")
            if tty.kind is IntKind.BOOL:
                return _sseq(PatSym(v), core_e, self._case_specified(
                    K.PSym(v), tty,
                    lambda pv: K.PCtor("Specified", [
                        K.PIf(K.PCall("ptr_nonnull", [pv]),
                              _pv(VInteger(IntegerValue(1))),
                              _pv(VInteger(IntegerValue(0))))]),
                    unspec_is_ub=False, loc=loc), loc=loc)
            return _sseq(PatSym(v), core_e, K.ECase(K.PSym(v), [
                (PatCtor("Specified", (PatSym(v + ".p"),)),
                 _sseq(PatSym(q),
                       K.EPtrOp("intFromPtr", [K.PSym(v + ".p")],
                                aux=tty, loc=loc),
                       _pure(K.PCtor("Specified", [
                           K.PCall("conv_int", [_ctype(tty),
                                                K.PSym(q)])]), loc))),
                (PatCtor("Unspecified", (PatWild(),)),
                 _pure(K.PCtor("Unspecified", [_ctype(tty)]), loc)),
            ]), loc=loc)
        if isinstance(tty, Floating) and isinstance(fty, Integer):
            return _sseq(PatSym(v), core_e, self._case_specified(
                K.PSym(v), tty,
                lambda pv: K.PCtor("Specified", [
                    K.PCall("int_to_float", [pv])]),
                unspec_is_ub=False, loc=loc), loc=loc)
        if isinstance(tty, Integer) and isinstance(fty, Floating):
            return _sseq(PatSym(v), core_e, self._case_specified(
                K.PSym(v), tty,
                lambda pv: K.PCtor("Specified", [
                    K.PCall("conv_int", [_ctype(tty),
                                         K.PCall("float_to_int",
                                                 [pv])])]),
                unspec_is_ub=False, loc=loc), loc=loc)
        if isinstance(tty, Floating) and isinstance(fty, Floating):
            return core_e
        if isinstance(tty, (StructRef, UnionRef)):
            return core_e
        raise InternalError(f"conversion {fr} -> {to}", loc)

    # ================== lvalues ==================================================

    def lv(self, e: A.Expr) -> K.Expr:
        """Elaborate an lvalue to an expression computing a pointer."""
        if isinstance(e, A.EId):
            if e.sym in self.fn_names:
                return _pure(K.PSym(self.fn_names[e.sym]), e.loc)
            return _pure(K.PSym(str(e.sym)), e.loc)
        if isinstance(e, A.EString):
            return _pure(K.PSym(str(e.sym)), e.loc)
        if isinstance(e, A.EUnary) and e.op == "*":
            v = self.fresh_name("deref")
            return _sseq(PatSym(v), self.rv(e.operand),
                         _pure(K.PCase(K.PSym(v), [
                             (PatCtor("Specified", (PatSym(v + ".p"),)),
                              K.PSym(v + ".p")),
                             (PatCtor("Unspecified", (PatWild(),)),
                              K.PUndef(UB.EXCEPTIONAL_CONDITION,
                                       loc=e.loc)),
                         ]), e.loc), loc=e.loc)
        if isinstance(e, A.EIndex):
            assert e.base.ty is not None
            bty = e.base.ty.ty
            assert isinstance(bty, Pointer)
            p, i = self.fresh_name("bp"), self.fresh_name("bi")
            pair = K.EUnseq([self.rv(e.base), self.rv(e.index)],
                            loc=e.loc)
            body = _pure(K.PCase(K.PCtor("Tuple", [K.PSym(p),
                                                   K.PSym(i)]), [
                (PatCtor("Tuple", (PatCtor("Specified",
                                           (PatSym(p + ".v"),)),
                                   PatCtor("Specified",
                                           (PatSym(i + ".v"),)))),
                 K.PArrayShift(K.PSym(p + ".v"), bty.to.ty,
                               K.PSym(i + ".v"), loc=e.loc)),
                (PatWild(), K.PUndef(UB.EXCEPTIONAL_CONDITION,
                                     loc=e.loc)),
            ]), e.loc)
            return _wseq(PatCtor("Tuple", (PatSym(p), PatSym(i))), pair,
                         body, loc=e.loc)
        if isinstance(e, A.EMember):
            assert e.base.ty is not None
            if e.arrow:
                bty = e.base.ty.ty
                assert isinstance(bty, Pointer)
                rec = bty.to.ty
                v = self.fresh_name("mb")
                return _sseq(PatSym(v), self.rv(e.base),
                             _pure(K.PCase(K.PSym(v), [
                                 (PatCtor("Specified",
                                          (PatSym(v + ".p"),)),
                                  K.PMemberShift(K.PSym(v + ".p"),
                                                 rec.tag, e.member,
                                                 loc=e.loc)),
                                 (PatWild(),
                                  K.PUndef(UB.EXCEPTIONAL_CONDITION,
                                           loc=e.loc)),
                             ]), e.loc), loc=e.loc)
            rec = e.base.ty.ty
            assert isinstance(rec, (StructRef, UnionRef))
            p = self.fresh_name("mv")
            if not e.base.is_lvalue:
                # An array member of a struct or union rvalue, e.g.
                # ``mk().a[1]`` (it decays, §6.3.2.1p3): the value goes
                # to a temporary that lives to the end of the full
                # expression (§6.2.4p8).
                if self._temps is None:
                    raise InternalError("rvalue member outside a full "
                                        "expression", e.loc)
                v = self.fresh_name("rv")
                self._temps.append(K.ScopedCreate(p, rec, "rvalue",
                                                  loc=e.loc))
                return _sseq(PatSym(v), self.rv(e.base), _sseq(
                    PatWild(), self.act_store(rec, K.PSym(p), K.PSym(v),
                                              e.loc),
                    _pure(K.PMemberShift(K.PSym(p), rec.tag, e.member,
                                         loc=e.loc), e.loc)), loc=e.loc)
            return _sseq(PatSym(p), self.lv(e.base),
                         _pure(K.PMemberShift(K.PSym(p), rec.tag,
                                              e.member, loc=e.loc),
                               e.loc), loc=e.loc)
        if isinstance(e, A.ECompound):
            # The object lives until the enclosing block exits (§6.5.2.5
            # p5); its create is registered with the enclosing EScope.
            creates = getattr(self, "_pending_compounds", None)
            if creates is None:
                raise InternalError("compound literal outside a block",
                                    e.loc)
            creates.append(K.ScopedCreate(str(e.sym), e.of.ty,
                                          "compound-literal", loc=e.loc))
            zero = not isinstance(e.init, A.InitScalar)
            stores = self.init_stores(K.PSym(str(e.sym)), e.of, e.init,
                                      zero_first=zero)
            return _seq_all(stores, _pure(K.PSym(str(e.sym)), e.loc))
        if isinstance(e, A.EConv):
            # An lvalue never has conversions applied in lvalue context.
            return self.lv(e.operand)
        raise InternalError(f"lv: not an lvalue "
                            f"({type(e).__name__})", e.loc)


def _typed_hole(qty: QualType, name: str) -> A.Expr:
    hole = A.EId(A.Symbol(name, 0))
    hole.ty = qty
    return hole


def _ends_in_return(s: A.Stmt) -> bool:
    """Whether control never runs off the end of ``s``: it ends in a
    ``return``, or in an ``if`` both of whose branches do."""
    if isinstance(s, A.SBlock):
        return bool(s.items) and _ends_in_return(s.items[-1])
    if isinstance(s, A.SLabel):
        return _ends_in_return(s.body)
    if isinstance(s, A.SIf):
        return s.els is not None and _ends_in_return(s.then) \
            and _ends_in_return(s.els)
    return isinstance(s, A.SReturn)


def _contains_label(s) -> bool:
    if isinstance(s, A.SLabel):
        return True
    if isinstance(s, A.SBlock):
        return any(_contains_label(i) for i in s.items)
    if isinstance(s, A.SIf):
        return _contains_label(s.then) or (
            s.els is not None and _contains_label(s.els))
    if isinstance(s, A.SWhile):
        return _contains_label(s.body)
    if isinstance(s, A.SSwitch):
        return _contains_label(s.body)
    return False


def _flatten_case_block(item) -> List:
    """Flatten the desugarer's [marker, stmt] wrapper blocks so switch
    segments line up; real blocks stay intact."""
    if isinstance(item, A.SBlock) and item.items and \
            isinstance(item.items[0], A.SCaseMarker):
        out = [item.items[0]]
        for rest in item.items[1:]:
            out.extend(_flatten_case_block(rest))
        return out
    return [item]


def _is_scalar_mem(mv: MemValue) -> bool:
    from ..memory.values import MVFloating, MVInteger, MVPointer
    return isinstance(mv, (MVInteger, MVFloating, MVPointer))


def _scalar_of(mv: MemValue):
    from ..memory.values import MVFloating, MVInteger, MVPointer
    if isinstance(mv, MVInteger):
        return VInteger(mv.ival)
    if isinstance(mv, MVFloating):
        return VFloating(mv.fval)
    if isinstance(mv, MVPointer):
        return VPointer(mv.ptr)
    raise InternalError("not a scalar memory value")


def elaborate(ail: A.Program, impl: Implementation) -> K.Program:
    """Elaborate a Typed Ail program into Core."""
    return Elaborator(ail, impl).run()
