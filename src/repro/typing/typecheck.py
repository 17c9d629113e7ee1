"""Type inference/checking over Ail, producing Typed Ail.

Adds explicit type annotations to every expression (``ty`` / ``is_lvalue``)
and inserts explicit conversion nodes (:class:`repro.ail.ast.EConv`) for
lvalue conversion, array-to-pointer decay and function designator decay
(§6.3.2.1), so that the elaboration never has to guess whether an operand
denotes an object or a value. On failure it identifies the violated
constraint of the standard (paper §5.1).

The usual arithmetic conversions themselves are *not* applied here as
tree rewrites: as in Cerberus, the elaboration re-derives them from the
annotated operand types, keeping this phase free of commitments about
implementation-defined behaviour where possible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ail import ast as A
from ..ctypes import convert
from ..ctypes.implementation import Implementation
from ..ctypes.types import (
    Array, CType, Floating, FloatKind, Function, Integer, IntKind, Pointer,
    QualType, StructRef, UnionRef, VarArray, Void, is_arithmetic, is_integer,
    is_scalar,
)
from ..errors import TypeCheckError, UnsupportedError
from ..source import Loc

_INT = Integer(IntKind.INT)
_SIZE_T = Integer(IntKind.ULONG)
_PTRDIFF_T = Integer(IntKind.LONG)


def _qt(ty: CType) -> QualType:
    return QualType(ty)


class TypeChecker:
    def __init__(self, program: A.Program, impl: Implementation):
        self.program = program
        self.impl = impl
        self.tags = program.tags
        # Symbol -> declared type, built from the program.
        self.env: Dict[A.Symbol, QualType] = {}
        self._current_ret: Optional[QualType] = None
        for obj in program.objects:
            self.env[obj.sym] = obj.qty
        for sym, fdef in program.functions.items():
            self.env[sym] = fdef.qty

    # -- entry ----------------------------------------------------------------

    def run(self) -> A.Program:
        for obj in self.program.objects:
            if obj.init is not None:
                self.check_init(obj.qty, obj.init)
        for fdef in self.program.functions.values():
            if fdef.body is None:
                continue
            fty = fdef.qty.ty
            assert isinstance(fty, Function)
            for psym, pqty in zip(fdef.param_syms, fty.params):
                self.env[psym] = pqty
            self._current_ret = fty.ret
            self.stmt(fdef.body)
        return self.program

    # -- helpers ------------------------------------------------------------------

    def error(self, message: str, loc: Loc, iso: str) -> TypeCheckError:
        return TypeCheckError(message, loc, iso=iso)

    def rvalue(self, e: A.Expr) -> A.Expr:
        """Apply lvalue conversion / decay (§6.3.2.1), wrapping in EConv."""
        assert e.ty is not None
        ty = e.ty.ty
        if isinstance(ty, (Array, VarArray)):
            conv = A.EConv("decay", _qt(Pointer(ty.of)), e, loc=e.loc)
            conv.ty = conv.to
            return conv
        if isinstance(ty, Function):
            conv = A.EConv("fn-decay", _qt(Pointer(e.ty)), e, loc=e.loc)
            conv.ty = conv.to
            return conv
        if e.is_lvalue:
            conv = A.EConv("lvalue", e.ty.unqualified(), e, loc=e.loc)
            conv.ty = conv.to
            return conv
        return e

    def require_modifiable(self, e: A.Expr, what: str) -> None:
        assert e.ty is not None
        if not e.is_lvalue:
            raise self.error(f"{what} requires an lvalue", e.loc,
                             iso="6.5.16p2")
        if e.ty.quals.const:
            raise self.error(
                f"{what} of const-qualified object", e.loc, iso="6.5.16p2")
        if isinstance(e.ty.ty, (Array, VarArray)):
            raise self.error(f"{what} of array", e.loc, iso="6.5.16p2")
        if not e.ty.ty.is_complete(self.tags) and \
                not isinstance(e.ty.ty, Pointer) and \
                not is_arithmetic(e.ty.ty):
            raise self.error(f"{what} of incomplete type", e.loc,
                             iso="6.5.16p2")

    def int_const_type(self, e: A.EConstInt) -> Integer:
        """§6.4.4.1p5: the type of an integer constant."""
        decimal = e.base == 10
        suffix = e.suffix
        candidates: List[IntKind]
        if suffix == "":
            candidates = [IntKind.INT, IntKind.LONG, IntKind.LLONG] \
                if decimal else [IntKind.INT, IntKind.UINT, IntKind.LONG,
                                 IntKind.ULONG, IntKind.LLONG,
                                 IntKind.ULLONG]
        elif suffix == "u":
            candidates = [IntKind.UINT, IntKind.ULONG, IntKind.ULLONG]
        elif suffix == "l":
            candidates = [IntKind.LONG, IntKind.LLONG] if decimal else \
                [IntKind.LONG, IntKind.ULONG, IntKind.LLONG, IntKind.ULLONG]
        elif suffix == "ul":
            candidates = [IntKind.ULONG, IntKind.ULLONG]
        elif suffix == "ll":
            candidates = [IntKind.LLONG] if decimal else \
                [IntKind.LLONG, IntKind.ULLONG]
        else:  # "ull"
            candidates = [IntKind.ULLONG]
        for kind in candidates:
            ty = Integer(kind)
            if convert.is_representable(e.value, ty, self.impl):
                return ty
        raise self.error(
            f"integer constant {e.value} too large for any type", e.loc,
            iso="6.4.4.1p6")

    # -- expression checking ----------------------------------------------------------

    def expr(self, e: A.Expr) -> A.Expr:
        """Annotate ``e`` (returning a possibly-wrapped node)."""
        method = getattr(self, "_e_" + type(e).__name__, None)
        if method is None:
            raise self.error(f"unhandled expression {type(e).__name__}",
                             e.loc, iso="6.5")
        return method(e)

    def _e_EId(self, e: A.EId) -> A.Expr:
        qty = self.env.get(e.sym)
        if qty is None:
            raise self.error(f"untyped symbol {e.sym}", e.loc, iso="6.5.1")
        e.ty = qty
        e.is_lvalue = not isinstance(qty.ty, Function)
        return e

    def _e_EConstInt(self, e: A.EConstInt) -> A.Expr:
        e.ty = _qt(self.int_const_type(e))
        return e

    def _e_EConstFloat(self, e: A.EConstFloat) -> A.Expr:
        kind = {"f": FloatKind.FLOAT, "l": FloatKind.LDOUBLE}.get(
            e.suffix, FloatKind.DOUBLE)
        e.ty = _qt(Floating(kind))
        return e

    def _e_EString(self, e: A.EString) -> A.Expr:
        char = Integer(IntKind.CHAR)
        e.ty = _qt(Array(_qt(char), len(e.value) + 1))
        e.is_lvalue = True
        return e

    def _e_EIndex(self, e: A.EIndex) -> A.Expr:
        e.base = self.rvalue(self.expr(e.base))
        e.index = self.rvalue(self.expr(e.index))
        bty, ity = e.base.ty.ty, e.index.ty.ty
        if is_integer(bty) and isinstance(ity, Pointer):
            e.base, e.index = e.index, e.base  # a[i] == i[a] (§6.5.2.1p2)
            bty, ity = ity, bty
        if not isinstance(bty, Pointer):
            raise self.error("subscripted value is not a pointer (after "
                             "decay)", e.loc, iso="6.5.2.1p1")
        if not is_integer(ity):
            raise self.error("array subscript is not an integer", e.loc,
                             iso="6.5.2.1p1")
        if not bty.to.ty.is_complete(self.tags):
            raise self.error("subscript of pointer to incomplete type",
                             e.loc, iso="6.5.2.1p1")
        e.ty = bty.to
        e.is_lvalue = True
        return e

    def _e_ECall(self, e: A.ECall) -> A.Expr:
        e.func = self.rvalue(self.expr(e.func))
        fty = e.func.ty.ty
        if not (isinstance(fty, Pointer)
                and isinstance(fty.to.ty, Function)):
            raise self.error("called object is not a function", e.loc,
                             iso="6.5.2.2p1")
        fn = fty.to.ty
        args = [self.rvalue(self.expr(a)) for a in e.args]
        if not fn.no_proto:
            if len(args) < len(fn.params) or \
                    (len(args) > len(fn.params) and not fn.variadic):
                raise self.error(
                    f"wrong number of arguments ({len(args)} for "
                    f"{len(fn.params)})", e.loc, iso="6.5.2.2p2")
            for i, (arg, pqty) in enumerate(zip(args, fn.params)):
                args[i] = self.check_assignable(
                    pqty, arg, f"argument {i + 1}")
        # Default argument promotions for variadic/no-proto tails
        # (§6.5.2.2p6-7) are applied by the elaboration.
        e.args = args
        e.ty = fn.ret
        return e

    def _e_EMember(self, e: A.EMember) -> A.Expr:
        e.base = self.expr(e.base)
        if e.arrow:
            e.base = self.rvalue(e.base)
            bty = e.base.ty.ty
            if not isinstance(bty, Pointer) or not isinstance(
                    bty.to.ty, (StructRef, UnionRef)):
                raise self.error("-> on non-pointer-to-record", e.loc,
                                 iso="6.5.2.3p2")
            rec = bty.to
        else:
            bty = e.base.ty.ty
            if not isinstance(bty, (StructRef, UnionRef)):
                raise self.error(". on non-record", e.loc, iso="6.5.2.3p1")
            rec = e.base.ty
        defn = self.tags.require(rec.ty.tag)  # type: ignore[union-attr]
        if not defn.complete:
            raise self.error(f"member access on incomplete type {rec.ty}",
                             e.loc, iso="6.5.2.3")
        member = defn.member(e.member)
        if member is None:
            raise self.error(f"no member named '{e.member}' in {rec.ty}",
                             e.loc, iso="6.5.2.3p1")
        e.ty = member.qty.with_quals(rec.quals)
        e.is_lvalue = e.arrow or e.base.is_lvalue
        return e

    def _bitfield_member(self, e: A.Expr):
        """The :class:`Member` when ``e`` designates a bit-field
        (§6.5.3.2p1, §6.5.3.4p1 forbid ``&`` and ``sizeof`` on them)."""
        if not isinstance(e, A.EMember) or e.base.ty is None:
            return None
        bty = e.base.ty.ty
        rec = bty.to.ty if e.arrow and isinstance(bty, Pointer) else bty
        if not isinstance(rec, (StructRef, UnionRef)):
            return None
        member = self.tags.require(rec.tag).member(e.member)
        if member is not None and member.bit_width is not None:
            return member
        return None

    def _e_EUnary(self, e: A.EUnary) -> A.Expr:
        if e.op == "&":
            e.operand = self.expr(e.operand)
            oty = e.operand.ty
            if isinstance(oty.ty, Function):
                e.ty = _qt(Pointer(oty))
                return e
            if not e.operand.is_lvalue:
                raise self.error("& requires an lvalue", e.loc,
                                 iso="6.5.3.2p1")
            if self._bitfield_member(e.operand) is not None:
                raise self.error("& applied to a bit-field", e.loc,
                                 iso="6.5.3.2p1")
            if isinstance(oty.ty, VarArray):
                raise UnsupportedError(
                    "address of a variable length array (pointers to "
                    "VLA types are outside the fragment)", e.loc)
            e.ty = _qt(Pointer(oty))
            return e
        if e.op == "sizeof":
            e.operand = self.expr(e.operand)  # unevaluated, no decay
            if isinstance(e.operand.ty.ty, Function):
                raise self.error("sizeof function type", e.loc,
                                 iso="6.5.3.4p1")
            if not e.operand.ty.ty.is_complete(self.tags):
                raise self.error("sizeof incomplete type", e.loc,
                                 iso="6.5.3.4p1")
            if self._bitfield_member(e.operand) is not None:
                raise self.error("sizeof applied to a bit-field",
                                 e.loc, iso="6.5.3.4p1")
            e.ty = _qt(_SIZE_T)
            return e
        e.operand = self.rvalue(self.expr(e.operand))
        oty = e.operand.ty.ty
        if e.op == "*":
            if not isinstance(oty, Pointer):
                raise self.error("indirection of non-pointer", e.loc,
                                 iso="6.5.3.2p2")
            e.ty = oty.to
            e.is_lvalue = not isinstance(oty.to.ty, Function)
            return e
        if e.op in ("+", "-"):
            if not is_arithmetic(oty):
                raise self.error(f"unary {e.op} of non-arithmetic type",
                                 e.loc, iso="6.5.3.3p1")
            e.ty = _qt(convert.integer_promotion(oty, self.impl)
                       if is_integer(oty) else oty)
            return e
        if e.op == "~":
            if not is_integer(oty):
                raise self.error("~ of non-integer type", e.loc,
                                 iso="6.5.3.3p1")
            e.ty = _qt(convert.integer_promotion(oty, self.impl))
            return e
        if e.op == "!":
            if not is_scalar(oty):
                raise self.error("! of non-scalar type", e.loc,
                                 iso="6.5.3.3p1")
            e.ty = _qt(_INT)
            return e
        raise self.error(f"unhandled unary '{e.op}'", e.loc, iso="6.5.3")

    def _e_EBinary(self, e: A.EBinary) -> A.Expr:
        e.lhs = self.rvalue(self.expr(e.lhs))
        e.rhs = self.rvalue(self.expr(e.rhs))
        e.ty = self.binary_result(e.op, e.lhs, e.rhs, e.loc)
        return e

    def binary_result(self, op: str, lhs: A.Expr, rhs: A.Expr,
                      loc: Loc) -> QualType:
        lt, rt = lhs.ty.ty, rhs.ty.ty
        if op in ("*", "/"):
            if not (is_arithmetic(lt) and is_arithmetic(rt)):
                raise self.error(f"invalid operands to '{op}'", loc,
                                 iso="6.5.5p2")
            return _qt(convert.arithmetic_result_type(lt, rt, self.impl))
        if op == "%":
            if not (is_integer(lt) and is_integer(rt)):
                raise self.error("invalid operands to '%'", loc,
                                 iso="6.5.5p2")
            return _qt(convert.arithmetic_result_type(lt, rt, self.impl))
        if op == "+":
            if isinstance(lt, Pointer) and is_integer(rt):
                self._check_ptr_arith(lt, loc)
                return lhs.ty
            if is_integer(lt) and isinstance(rt, Pointer):
                self._check_ptr_arith(rt, loc)
                return rhs.ty
            if is_arithmetic(lt) and is_arithmetic(rt):
                return _qt(convert.arithmetic_result_type(lt, rt,
                                                          self.impl))
            raise self.error("invalid operands to '+'", loc, iso="6.5.6p2")
        if op == "-":
            if isinstance(lt, Pointer) and isinstance(rt, Pointer):
                self._check_ptr_arith(lt, loc)
                return _qt(_PTRDIFF_T)
            if isinstance(lt, Pointer) and is_integer(rt):
                self._check_ptr_arith(lt, loc)
                return lhs.ty
            if is_arithmetic(lt) and is_arithmetic(rt):
                return _qt(convert.arithmetic_result_type(lt, rt,
                                                          self.impl))
            raise self.error("invalid operands to '-'", loc, iso="6.5.6p3")
        if op in ("<<", ">>"):
            if not (is_integer(lt) and is_integer(rt)):
                raise self.error(f"invalid operands to '{op}'", loc,
                                 iso="6.5.7p2")
            return _qt(convert.integer_promotion(lt, self.impl))
        if op in ("<", ">", "<=", ">=", "==", "!="):
            if is_arithmetic(lt) and is_arithmetic(rt):
                return _qt(_INT)
            if isinstance(lt, Pointer) or isinstance(rt, Pointer):
                # Null pointer constants and void* mixes are permitted
                # for ==/!= (§6.5.9p2); relational needs object pointers
                # (§6.5.8p2). Deeper compatibility left to the memory
                # model at runtime (this is where the de facto questions
                # live — Q2, Q25).
                return _qt(_INT)
            raise self.error(f"invalid operands to '{op}'", loc,
                             iso="6.5.8p2")
        if op in ("&", "^", "|"):
            if not (is_integer(lt) and is_integer(rt)):
                raise self.error(f"invalid operands to '{op}'", loc,
                                 iso="6.5.10p2")
            return _qt(convert.arithmetic_result_type(lt, rt, self.impl))
        if op in ("&&", "||"):
            if not (is_scalar(lt) and is_scalar(rt)):
                raise self.error(f"invalid operands to '{op}'", loc,
                                 iso="6.5.13p2")
            return _qt(_INT)
        raise self.error(f"unhandled binary '{op}'", loc, iso="6.5")

    def _check_ptr_arith(self, ty: Pointer, loc: Loc) -> None:
        to = ty.to.ty
        if isinstance(to, Void):
            raise self.error("arithmetic on void*", loc, iso="6.5.6p2")
        if isinstance(to, Function):
            raise self.error("arithmetic on function pointer", loc,
                             iso="6.5.6p2")
        if not to.is_complete(self.tags):
            raise self.error("arithmetic on pointer to incomplete type",
                             loc, iso="6.5.6p2")

    def _e_ECast(self, e: A.ECast) -> A.Expr:
        e.operand = self.rvalue(self.expr(e.operand))
        to = e.to.ty
        fr = e.operand.ty.ty
        if isinstance(to, Void):
            e.ty = e.to
            return e
        if not is_scalar(to):
            raise self.error(f"cast to non-scalar type {to}", e.loc,
                             iso="6.5.4p2")
        if not is_scalar(fr):
            raise self.error(f"cast of non-scalar type {fr}", e.loc,
                             iso="6.5.4p2")
        if isinstance(to, Pointer) and isinstance(fr, Floating):
            raise self.error("cast of floating value to pointer", e.loc,
                             iso="6.5.4p4")
        if isinstance(fr, Pointer) and isinstance(to, Floating):
            raise self.error("cast of pointer to floating type", e.loc,
                             iso="6.5.4p4")
        e.ty = _qt(to)
        return e

    def _e_EAssign(self, e: A.EAssign) -> A.Expr:
        e.lhs = self.expr(e.lhs)
        self.require_modifiable(e.lhs, "assignment")
        e.rhs = self.rvalue(self.expr(e.rhs))
        if e.op == "=":
            e.rhs = self.check_assignable(e.lhs.ty, e.rhs, "assignment")
        else:
            # Validate the compound operator against the operand types by
            # treating the lhs as an already-loaded value (§6.5.16.2p3).
            binop = e.op[:-1]
            fake_lhs = A.EConv("lvalue", e.lhs.ty.unqualified(), e.lhs,
                               loc=e.loc)
            fake_lhs.ty = fake_lhs.to
            self.binary_result(binop, fake_lhs, e.rhs, e.loc)
        e.ty = e.lhs.ty.unqualified()
        return e

    def _e_ECond(self, e: A.ECond) -> A.Expr:
        e.cond = self.rvalue(self.expr(e.cond))
        if not is_scalar(e.cond.ty.ty):
            raise self.error("?: condition is not scalar", e.loc,
                             iso="6.5.15p2")
        e.then = self.rvalue(self.expr(e.then))
        e.els = self.rvalue(self.expr(e.els))
        tt, et = e.then.ty.ty, e.els.ty.ty
        if is_arithmetic(tt) and is_arithmetic(et):
            e.ty = _qt(convert.arithmetic_result_type(tt, et, self.impl))
        elif isinstance(tt, Void) and isinstance(et, Void):
            e.ty = _qt(Void())
        elif isinstance(tt, Pointer) and isinstance(et, Pointer):
            # Composite (§6.5.15p6): prefer void* if either side is.
            if isinstance(tt.to.ty, Void):
                e.ty = e.then.ty
            elif isinstance(et.to.ty, Void):
                e.ty = e.els.ty
            else:
                e.ty = e.then.ty
        elif isinstance(tt, Pointer) and _is_null_const(e.els):
            e.ty = e.then.ty
        elif isinstance(et, Pointer) and _is_null_const(e.then):
            e.ty = e.els.ty
        elif isinstance(tt, (StructRef, UnionRef)) and tt == et:
            e.ty = e.then.ty
        else:
            raise self.error("incompatible ?: branches", e.loc,
                             iso="6.5.15p3")
        return e

    def _e_EComma(self, e: A.EComma) -> A.Expr:
        e.lhs = self.rvalue(self.expr(e.lhs))
        e.rhs = self.rvalue(self.expr(e.rhs))
        e.ty = e.rhs.ty
        return e

    def _e_EIncrDecr(self, e: A.EIncrDecr) -> A.Expr:
        e.base = self.expr(e.base)
        self.require_modifiable(e.base, f"'{e.op}'")
        bty = e.base.ty.ty
        if not (is_arithmetic(bty) or isinstance(bty, Pointer)):
            raise self.error(f"'{e.op}' requires arithmetic or pointer "
                             "type", e.loc, iso="6.5.2.4p1")
        if isinstance(bty, Pointer):
            self._check_ptr_arith(bty, e.loc)
        e.ty = e.base.ty.unqualified()
        return e

    def _e_ESizeofType(self, e: A.ESizeofType) -> A.Expr:
        if not e.of.ty.is_complete(self.tags):
            raise self.error("sizeof incomplete type", e.loc,
                             iso="6.5.3.4p1")
        e.ty = _qt(_SIZE_T)
        return e

    def _e_EAlignofType(self, e: A.EAlignofType) -> A.Expr:
        e.ty = _qt(_SIZE_T)
        return e

    def _e_EOffsetof(self, e: A.EOffsetof) -> A.Expr:
        if not isinstance(e.record.ty, (StructRef, UnionRef)):
            raise self.error("offsetof on non-record type", e.loc,
                             iso="7.19p3")
        member = self.tags.require(e.record.ty.tag).member(e.member)
        if member is not None and member.bit_width is not None:
            raise self.error("offsetof of a bit-field member", e.loc,
                             iso="7.19p3")
        e.ty = _qt(_SIZE_T)
        return e

    def _e_ECompound(self, e: A.ECompound) -> A.Expr:
        self.check_init(e.of, e.init)
        e.ty = e.of
        e.is_lvalue = True
        return e

    def _e_EConv(self, e: A.EConv) -> A.Expr:
        e.operand = self.expr(e.operand)
        e.ty = e.to
        return e

    # -- assignment compatibility -------------------------------------------------------

    def check_assignable(self, to: QualType, rhs: A.Expr,
                         what: str) -> A.Expr:
        """§6.5.16.1p1 constraints; wraps the rhs in an "assign"
        conversion to the target type."""
        tt = to.ty
        rt = rhs.ty.ty
        ok = False
        if is_arithmetic(tt) and is_arithmetic(rt):
            ok = True
        elif isinstance(tt, Pointer) and isinstance(rt, Pointer):
            a, b = tt.to.ty, rt.to.ty
            ok = (_compatible(a, b) or isinstance(a, Void)
                  or isinstance(b, Void))
        elif isinstance(tt, Pointer) and _is_null_const(rhs):
            ok = True
        elif isinstance(tt, Integer) and tt.kind is IntKind.BOOL and \
                isinstance(rt, Pointer):
            ok = True
        elif isinstance(tt, (StructRef, UnionRef)) and tt == rt:
            ok = True
        if not ok:
            raise self.error(
                f"{what}: incompatible types ({rhs.ty} -> {to})",
                rhs.loc, iso="6.5.16.1p1")
        conv = A.EConv("assign", to.unqualified(), rhs, loc=rhs.loc)
        conv.ty = conv.to
        return conv

    # -- initialisers ----------------------------------------------------------------------

    def check_init(self, qty: QualType, init: A.Init) -> None:
        if isinstance(init, A.InitScalar):
            init.expr = self.rvalue(self.expr(init.expr))
            init.expr = self.check_assignable(qty, init.expr,
                                              "initialisation")
            return
        if isinstance(init, A.InitString):
            return
        if isinstance(init, A.InitArray):
            assert isinstance(qty.ty, Array)
            for _, sub in init.elems:
                self.check_init(qty.ty.of, sub)
            return
        if isinstance(init, A.InitStruct):
            assert isinstance(qty.ty, StructRef)
            defn = self.tags.require(qty.ty.tag)
            for name, sub in init.members:
                member = defn.member(name)
                assert member is not None
                self.check_init(member.qty, sub)
            return
        if isinstance(init, A.InitUnion):
            assert isinstance(qty.ty, UnionRef)
            defn = self.tags.require(qty.ty.tag)
            member = defn.member(init.member)
            assert member is not None
            self.check_init(member.qty, init.init)
            return
        raise self.error(f"unhandled init {type(init).__name__}", init.loc,
                         iso="6.7.9")

    # -- statements -------------------------------------------------------------------------

    def stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.SBlock):
            for item in s.items:
                self.stmt(item)
        elif isinstance(s, A.SDecl):
            self.env[s.sym] = s.qty
            if s.init is not None:
                self.check_init(s.qty, s.init)
        elif isinstance(s, A.SExpr):
            if s.expr is not None:
                s.expr = self.rvalue(self.expr(s.expr))
        elif isinstance(s, A.SIf):
            s.cond = self.rvalue(self.expr(s.cond))
            self._require_scalar(s.cond, "if condition", "6.8.4.1p1")
            self.stmt(s.then)
            if s.els is not None:
                self.stmt(s.els)
        elif isinstance(s, A.SWhile):
            s.cond = self.rvalue(self.expr(s.cond))
            self._require_scalar(s.cond, "loop condition", "6.8.5p2")
            if s.step is not None:
                s.step = self.rvalue(self.expr(s.step))
            self.stmt(s.body)
        elif isinstance(s, A.SSwitch):
            s.cond = self.rvalue(self.expr(s.cond))
            if not is_integer(s.cond.ty.ty):
                raise self.error("switch condition is not an integer",
                                 s.loc, iso="6.8.4.2p1")
            self.stmt(s.body)
        elif isinstance(s, A.SLabel):
            self.stmt(s.body)
        elif isinstance(s, A.SReturn):
            assert self._current_ret is not None
            if s.expr is not None:
                if isinstance(self._current_ret.ty, Void):
                    raise self.error("return with value in void function",
                                     s.loc, iso="6.8.6.4p1")
                s.expr = self.rvalue(self.expr(s.expr))
                s.expr = self.check_assignable(self._current_ret, s.expr,
                                               "return")
            elif not isinstance(self._current_ret.ty, Void):
                raise self.error("return without value in non-void "
                                 "function", s.loc, iso="6.8.6.4p1")
        elif isinstance(s, (A.SGoto, A.SBreak, A.SContinue,
                            A.SCaseMarker)):
            pass
        elif isinstance(s, A.SPar):
            for b in s.branches:
                self.stmt(b)
        else:
            raise self.error(f"unhandled statement {type(s).__name__}",
                             s.loc, iso="6.8")

    def _require_scalar(self, e: A.Expr, what: str, iso: str) -> None:
        if not is_scalar(e.ty.ty):
            raise self.error(f"{what} is not scalar", e.loc, iso=iso)


def _is_null_const(e: A.Expr) -> bool:
    """A null pointer constant (§6.3.2.3p3): integer constant 0, possibly
    cast to void*."""
    if isinstance(e, A.EConstInt) and e.value == 0:
        return True
    if isinstance(e, A.ECast) and isinstance(e.to.ty, Pointer) and \
            isinstance(e.to.ty.to.ty, Void):
        return _is_null_const(e.operand)
    if isinstance(e, A.EConv):
        return _is_null_const(e.operand)
    return False


def _compatible(a: CType, b: CType) -> bool:
    """Type compatibility (§6.2.7), structurally and ignoring top quals."""
    if isinstance(a, Pointer) and isinstance(b, Pointer):
        return _compatible(a.to.ty, b.to.ty)
    if isinstance(a, Array) and isinstance(b, Array):
        return _compatible(a.of.ty, b.of.ty) and \
            (a.size is None or b.size is None or a.size == b.size)
    if isinstance(a, Function) and isinstance(b, Function):
        if a.no_proto or b.no_proto:
            return _compatible(a.ret.ty, b.ret.ty)
        return (_compatible(a.ret.ty, b.ret.ty)
                and len(a.params) == len(b.params)
                and a.variadic == b.variadic
                and all(_compatible(pa.ty, pb.ty)
                        for pa, pb in zip(a.params, b.params)))
    return a == b


def typecheck(program: A.Program, impl: Implementation) -> A.Program:
    """Type-check an Ail program in place, producing Typed Ail."""
    return TypeChecker(program, impl).run()
