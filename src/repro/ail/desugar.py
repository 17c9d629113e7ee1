"""Cabs -> Ail desugaring (paper §5.1, "Cabs_to_Ail").

Handles identifier scoping (linkage, namespaces, identifier kinds),
function prototypes and definitions (merging, hiding), normalisation of
syntactic C types into canonical forms, string literals (implicitly
allocated objects), enums (replaced by integers), and desugaring of
``for``/``do``-``while`` loops into a unified while form. Where the
program is ill-formed it reports which constraint of the standard is
violated.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from ..cabs import ast as C
from ..ctypes import convert
from ..ctypes.implementation import Implementation
from ..ctypes.types import (
    Array, CType, Floating, FloatKind, Function, Integer, IntKind, Pointer,
    Qualifiers, QualType, StructRef, TagEnv, Member, UnionRef, VarArray,
    Void, NO_QUALS,
)
from ..errors import DesugarError, UnsupportedError
from ..source import Loc
from . import ast as A

class _NotConstantError(DesugarError):
    """An expression whose *form* is not a constant expression (§6.6)
    — as opposed to a constant expression with an erroneous value
    (division by zero, non-integer result).  Array declarators use the
    distinction: a well-formed but non-constant size declares a VLA."""


# The valid multisets of type-specifier keywords (§6.7.2p2), mapped to
# canonical types.
_KEYWORD_TYPES: Dict[Tuple[str, ...], CType] = {}


def _kw(spelling: str, ty: CType) -> None:
    key = tuple(sorted(spelling.split()))
    _KEYWORD_TYPES[key] = ty


_kw("void", Void())
_kw("char", Integer(IntKind.CHAR))
_kw("signed char", Integer(IntKind.SCHAR))
_kw("unsigned char", Integer(IntKind.UCHAR))
_kw("short", Integer(IntKind.SHORT))
_kw("signed short", Integer(IntKind.SHORT))
_kw("short int", Integer(IntKind.SHORT))
_kw("signed short int", Integer(IntKind.SHORT))
_kw("unsigned short", Integer(IntKind.USHORT))
_kw("unsigned short int", Integer(IntKind.USHORT))
_kw("int", Integer(IntKind.INT))
_kw("signed", Integer(IntKind.INT))
_kw("signed int", Integer(IntKind.INT))
_kw("unsigned", Integer(IntKind.UINT))
_kw("unsigned int", Integer(IntKind.UINT))
_kw("long", Integer(IntKind.LONG))
_kw("signed long", Integer(IntKind.LONG))
_kw("long int", Integer(IntKind.LONG))
_kw("signed long int", Integer(IntKind.LONG))
_kw("unsigned long", Integer(IntKind.ULONG))
_kw("unsigned long int", Integer(IntKind.ULONG))
_kw("long long", Integer(IntKind.LLONG))
_kw("signed long long", Integer(IntKind.LLONG))
_kw("long long int", Integer(IntKind.LLONG))
_kw("signed long long int", Integer(IntKind.LLONG))
_kw("unsigned long long", Integer(IntKind.ULLONG))
_kw("unsigned long long int", Integer(IntKind.ULLONG))
_kw("_Bool", Integer(IntKind.BOOL))
_kw("float", Floating(FloatKind.FLOAT))
_kw("double", Floating(FloatKind.DOUBLE))
_kw("long double", Floating(FloatKind.LDOUBLE))


class _Scope:
    """One lexical scope of the ordinary namespace plus the tag
    namespace."""

    def __init__(self) -> None:
        # name -> ("object"|"function", Symbol, QualType)
        #       | ("typedef", QualType) | ("enumconst", int)
        self.ordinary: Dict[str, tuple] = {}
        self.tags: Dict[str, str] = {}


class Desugarer:
    def __init__(self, impl: Implementation):
        self.impl = impl
        self.tags = TagEnv()
        self.scopes: List[_Scope] = [_Scope()]
        self.program = A.Program(self.tags)
        self._string_cache: Dict[bytes, A.Symbol] = {}
        # per-function state
        self._labels: Dict[str, A.Symbol] = {}
        self._defined_labels: set = set()
        self._gotos: List[Tuple[str, Loc]] = []
        self._switch_stack: List[A.SSwitch] = []
        self._file_scope_objects: Dict[str, A.ObjectDef] = {}
        # Symbol -> declared type (for sizeof in constant expressions).
        self._sym_types: Dict[A.Symbol, QualType] = {}
        # Hidden VLA size declarations produced while winding
        # declarators: (size symbol, desugared size expression, loc).
        # Flushed into the statement stream by _declare_object; other
        # declarator contexts must reject or discard them.
        self._vla_pending: List[Tuple[A.Symbol, A.Expr, Loc]] = []
        self._uids = itertools.count(1)

    def _fresh(self, name: str) -> A.Symbol:
        """A symbol unique within this translation unit."""
        return A.Symbol(name, next(self._uids))

    # -- scope helpers --------------------------------------------------------

    def push(self) -> None:
        self.scopes.append(_Scope())

    def pop(self) -> None:
        self.scopes.pop()

    def lookup(self, name: str) -> Optional[tuple]:
        for scope in reversed(self.scopes):
            if name in scope.ordinary:
                return scope.ordinary[name]
        return None

    def lookup_tag(self, name: str) -> Optional[str]:
        for scope in reversed(self.scopes):
            if name in scope.tags:
                return scope.tags[name]
        return None

    def bind(self, name: str, entry: tuple) -> None:
        self.scopes[-1].ordinary[name] = entry
        if entry[0] in ("object", "function"):
            self._sym_types[entry[1]] = entry[2]

    # -- entry point ------------------------------------------------------------

    def run(self, unit: C.TranslationUnit) -> A.Program:
        for decl in unit.decls:
            if isinstance(decl, C.StaticAssert):
                self._static_assert(decl)
            elif isinstance(decl, C.FunctionDef):
                self._function_def(decl)
            else:
                self._declaration(decl, file_scope=True)
        main = self.lookup("main")
        if main is not None and main[0] == "function":
            self.program.main = main[1]
        return self.program

    def _static_assert(self, sa: C.StaticAssert) -> None:
        value = self.const_expr(self.expr(sa.cond))
        if value == 0:
            msg = sa.message or "static assertion failed"
            raise DesugarError(f"_Static_assert: {msg}", sa.loc,
                               iso="6.7.10p2")

    # -- declarations -------------------------------------------------------------

    def _declaration(self, decl: C.Declaration,
                     file_scope: bool) -> List[A.SDecl]:
        base_qty, storage = self.base_type(decl.specs)
        out: List[A.SDecl] = []
        if not decl.declarators:
            return out
        is_typedef = "typedef" in storage
        for idecl in decl.declarators:
            name, qty = self.apply_declarator(base_qty, idecl.declarator)
            if name is None:
                raise DesugarError("declarator without identifier",
                                   idecl.loc, iso="6.7.6")
            if is_typedef:
                if idecl.init is not None:
                    raise DesugarError("typedef with initialiser", idecl.loc,
                                       iso="6.7p4")
                if isinstance(qty.ty, VarArray):
                    self._vla_pending.clear()
                    raise UnsupportedError(
                        "variably modified typedef (see ROADMAP.md "
                        "'Fragment gaps')", idecl.loc)
                self.bind(name, ("typedef", qty))
                continue
            if isinstance(qty.ty, Function):
                self._declare_function(name, qty, idecl.loc)
                continue
            out.extend(self._declare_object(name, qty, idecl, storage,
                                            file_scope))
        return out

    def _declare_function(self, name: str, qty: QualType, loc: Loc) -> None:
        existing = self.lookup(name)
        if existing is not None and existing[0] == "function":
            sym = existing[1]
            old = self.program.functions.get(sym)
            if old is not None and isinstance(old.qty.ty, Function) \
                    and old.qty.ty.no_proto:
                old.qty = qty  # a prototype refines an old-style decl
            return
        sym = self._fresh(name)
        self.bind(name, ("function", sym, qty))
        assert isinstance(qty.ty, Function)
        self.program.functions[sym] = A.FunctionDef(
            sym, qty, [], None, loc, variadic=qty.ty.variadic)

    def _declare_object(self, name: str, qty: QualType,
                        idecl: C.InitDeclarator, storage: List[str],
                        file_scope: bool) -> List[A.SDecl]:
        pendings = list(self._vla_pending)
        self._vla_pending.clear()
        if isinstance(qty.ty, VarArray):
            if file_scope or "static" in storage or "extern" in storage:
                raise DesugarError(
                    f"variable length array '{name}' must have "
                    "automatic storage duration", idecl.loc,
                    iso="6.7.6.2p2")
            if idecl.init is not None:
                raise DesugarError(
                    f"variable length array '{name}' may not be "
                    "initialised", idecl.loc, iso="6.7.9p3")
            sym = self._fresh(name)
            self.bind(name, ("object", sym, qty))
            out = [A.SDecl(psym, QualType(Integer(IntKind.LONG)),
                           A.InitScalar(size_expr, loc=loc), loc=loc)
                   for psym, size_expr, loc in pendings]
            out.append(A.SDecl(sym, qty, None, loc=idecl.loc))
            return out
        # §6.2.1p7: the identifier is in scope from the end of its
        # declarator, so its initialiser may name it (``sizeof *p``,
        # ``&p``).  Complete the type from the initialiser (``int a[]
        # = {...}``), bind, and only then normalise the initialiser.
        if idecl.init is not None:
            qty = self._complete_from_init(qty, idecl.init)
        elif "extern" in storage and not file_scope:
            # §6.2.2p4: a block-scope extern names the file-scope
            # object, declared at file scope first if none is yet (a
            # later definition merges into it, §6.9.2).
            obj = self._file_scope_objects.get(name)
            if obj is None:
                obj = A.ObjectDef(self._fresh(name), qty, None, "static",
                                  idecl.loc)
                self.program.objects.append(obj)
                self._file_scope_objects[name] = obj
                self.scopes[0].ordinary[name] = ("object", obj.sym, qty)
            self.bind(name, ("object", obj.sym, obj.qty))
            return []
        merged = file_scope and name in self._file_scope_objects
        if not merged:
            sym = self._fresh(name)
            self.bind(name, ("object", sym, qty))
        init: Optional[A.Init] = None
        if idecl.init is not None:
            init = self.normalize_init(qty, idecl.init)
            if file_scope or "static" in storage:
                _check_static_init(name, init)
        if merged:
            # Tentative definitions merge (§6.9.2).
            obj = self._file_scope_objects[name]
            if init is not None:
                obj.init = init
            if isinstance(obj.qty.ty, Array) and obj.qty.ty.size is None:
                obj.qty = qty
            return []
        if file_scope or "static" in storage:
            is_extern_decl = "extern" in storage and init is None
            if not is_extern_decl:
                obj = A.ObjectDef(sym, qty, init, "static", idecl.loc)
                self.program.objects.append(obj)
                if file_scope:
                    self._file_scope_objects[name] = obj
            return []
        if isinstance(qty.ty, Array) and qty.ty.size is None:
            raise DesugarError(f"array '{name}' has incomplete type",
                               idecl.loc, iso="6.7p7")
        return [A.SDecl(sym, qty, init, loc=idecl.loc)]

    def _complete_from_init(self, qty: QualType,
                            init: C.Initializer) -> QualType:
        """`int a[] = {...}` — complete the array size from the init."""
        ty = qty.ty
        if not (isinstance(ty, Array) and ty.size is None):
            return qty
        if isinstance(init, C.InitExpr) and \
                isinstance(init.expr, C.EStringLit):
            return QualType(Array(ty.of, len(init.expr.value) + 1),
                            qty.quals)
        if isinstance(init, C.InitList):
            if (len(init.items) == 1 and not init.items[0][0]
                    and isinstance(init.items[0][1], C.InitExpr)
                    and isinstance(init.items[0][1].expr, C.EStringLit)):
                return QualType(
                    Array(ty.of, len(init.items[0][1].expr.value) + 1),
                    qty.quals)
            # Highest index mentioned (designators included).
            idx = -1
            highest = -1
            for designators, _ in init.items:
                if designators and isinstance(designators[0],
                                              C.DesignIndex):
                    idx = self.const_expr(self.expr(designators[0].index))
                else:
                    idx += 1
                highest = max(highest, idx)
            return QualType(Array(ty.of, highest + 1), qty.quals)
        raise DesugarError("cannot complete array type from initialiser",
                           init.loc, iso="6.7.9")

    # -- types ---------------------------------------------------------------------

    def base_type(self, specs: C.DeclSpecs) -> Tuple[QualType, List[str]]:
        """Interpret declaration specifiers: canonical base type plus the
        storage-class list."""
        quals = Qualifiers(
            const="const" in specs.qualifiers,
            volatile="volatile" in specs.qualifiers,
            restrict="restrict" in specs.qualifiers,
            atomic="_Atomic" in specs.qualifiers,
        )
        keywords: List[str] = []
        other: List[C.TypeSpec] = []
        for ts in specs.type_specs:
            if isinstance(ts, C.TSKeyword):
                keywords.append(ts.name)
            else:
                other.append(ts)
        if keywords and other:
            raise DesugarError("invalid type specifier combination",
                               specs.loc, iso="6.7.2p2")
        if len(other) > 1:
            raise DesugarError("multiple type specifiers", specs.loc,
                               iso="6.7.2p2")
        if other:
            ts = other[0]
            if isinstance(ts, C.TSTypedefName):
                entry = self.lookup(ts.name)
                if entry is None or entry[0] != "typedef":
                    raise DesugarError(f"unknown type name '{ts.name}'",
                                       ts.loc, iso="6.7.8")
                base = entry[1]
                return QualType(base.ty, base.quals | quals), specs.storage
            if isinstance(ts, C.TSStructOrUnion):
                return (QualType(self.struct_or_union(ts), quals),
                        specs.storage)
            if isinstance(ts, C.TSEnum):
                return QualType(self.enum(ts), quals), specs.storage
            if isinstance(ts, C.TSAtomic):
                inner = self.type_name(ts.type_name)
                return (QualType(inner.ty,
                                 inner.quals | quals
                                 | Qualifiers(atomic=True)),
                        specs.storage)
            raise DesugarError("unhandled type specifier", specs.loc)
        if not keywords:
            # C89 implicit int is not C11; reject.
            raise DesugarError("declaration with no type specifier",
                               specs.loc, iso="6.7.2p2")
        if "_Complex" in keywords or "_Imaginary" in keywords:
            raise UnsupportedError("complex types are not supported",
                                   specs.loc)
        key = tuple(sorted(keywords))
        ty = _KEYWORD_TYPES.get(key)
        if ty is None:
            raise DesugarError(
                f"invalid type specifier combination: {' '.join(keywords)}",
                specs.loc, iso="6.7.2p2")
        return QualType(ty, quals), specs.storage

    def struct_or_union(self, ts: C.TSStructOrUnion) -> CType:
        ref_cls = UnionRef if ts.is_union else StructRef
        if ts.members is None:
            assert ts.tag is not None
            tag_id = self.lookup_tag(ts.tag)
            if tag_id is None:
                tag_id = self.tags.fresh_tag(ts.tag, ts.is_union)
                self.scopes[-1].tags[ts.tag] = tag_id
            defn = self.tags.require(tag_id)
            if defn.is_union != ts.is_union:
                raise DesugarError(
                    f"tag '{ts.tag}' used as both struct and union", ts.loc,
                    iso="6.7.2.3p3")
            return ref_cls(tag_id)
        # A definition: declare the tag in the current scope first so
        # self-referential pointers resolve (§6.7.2.3p8).
        if ts.tag is not None and ts.tag in self.scopes[-1].tags:
            tag_id = self.scopes[-1].tags[ts.tag]
            if self.tags.require(tag_id).complete:
                raise DesugarError(f"redefinition of tag '{ts.tag}'", ts.loc,
                                   iso="6.7.2.3p1")
        else:
            tag_id = self.tags.fresh_tag(ts.tag, ts.is_union)
            if ts.tag is not None:
                self.scopes[-1].tags[ts.tag] = tag_id
        members: List[Member] = []
        seen = set()
        for sdecl in ts.members:
            base_qty, storage = self.base_type(sdecl.specs)
            if storage:
                raise DesugarError("storage class in struct member",
                                   sdecl.loc, iso="6.7.2.1p1")
            if not sdecl.declarators:
                # Anonymous struct/union member (§6.7.2.1p13),
                # implemented by splicing the inner members into the
                # outer list.  Splicing loses the sub-object boundary,
                # which is fine for ordinary members (the offsets
                # coincide) but NOT for bit-fields: the inner record's
                # own allocation units and tail padding would be
                # merged into the outer packing, diverging from the
                # SysV layout — keep that corner a named gap.
                if isinstance(base_qty.ty, (StructRef, UnionRef)):
                    inner = self.tags.require(base_qty.ty.tag)
                    if any(m.bit_width is not None
                           for m in inner.members):
                        raise UnsupportedError(
                            "bit-field inside an anonymous "
                            "struct/union member (its allocation "
                            "units would merge into the enclosing "
                            "record's packing; see ROADMAP.md "
                            "'Fragment gaps')", sdecl.loc)
                    for m in inner.members:
                        members.append(m)
                    continue
                raise DesugarError("useless member declaration", sdecl.loc,
                                   iso="6.7.2.1p2")
            for declarator, width in sdecl.declarators:
                if width is not None:
                    members.append(self._bitfield_member(
                        base_qty, declarator, width, sdecl.loc, seen))
                    continue
                assert declarator is not None
                name, qty = self.apply_declarator(base_qty, declarator)
                if name is None:
                    raise DesugarError("unnamed struct member", sdecl.loc,
                                       iso="6.7.2.1")
                if name in seen:
                    raise DesugarError(f"duplicate member '{name}'",
                                       sdecl.loc, iso="6.7.2.1")
                seen.add(name)
                if isinstance(qty.ty, Function):
                    raise DesugarError("member with function type",
                                       sdecl.loc, iso="6.7.2.1p3")
                if isinstance(qty.ty, VarArray):
                    raise DesugarError(
                        "member with variably modified type",
                        sdecl.loc, iso="6.7.2.1p9")
                members.append(Member(name, qty))
        self.tags.define(tag_id, members)
        return ref_cls(tag_id)

    def _bitfield_member(self, base_qty: QualType,
                         declarator: Optional[C.Declarator],
                         width: C.Expr, loc: Loc, seen: set) -> Member:
        """A bit-field member declaration ``T name : width`` /
        ``T : width`` (§6.7.2.1p4-5, p11-12)."""
        name: Optional[str] = None
        qty = base_qty
        if declarator is not None:
            name, qty = self.apply_declarator(base_qty, declarator)
        if not isinstance(qty.ty, Integer):
            raise DesugarError(
                f"bit-field has non-integer type {qty.ty}", loc,
                iso="6.7.2.1p5")
        w = self.const_expr(self.expr(width))
        if w < 0:
            raise DesugarError("negative bit-field width", loc,
                               iso="6.7.2.1p4")
        max_w = self.impl.width(qty.ty.kind)
        if w > max_w:
            raise DesugarError(
                f"bit-field width {w} exceeds the width of its type "
                f"({qty.ty}: {max_w} bits)", loc, iso="6.7.2.1p4")
        if w == 0 and name is not None:
            raise DesugarError(
                f"named bit-field '{name}' has zero width", loc,
                iso="6.7.2.1p3")
        if name is not None:
            if name in seen:
                raise DesugarError(f"duplicate member '{name}'", loc,
                                   iso="6.7.2.1")
            seen.add(name)
        return Member(name, qty, bit_width=w)

    def enum(self, ts: C.TSEnum) -> CType:
        if ts.enumerators is None:
            # A reference; enums desugar to int (§6.7.2.2p4 — the paper's
            # Ail replaces enums by integers).
            return Integer(IntKind.INT)
        value = 0
        for name, expr in ts.enumerators:
            if expr is not None:
                value = self.const_expr(self.expr(expr))
            if not convert.is_representable(value, Integer(IntKind.INT),
                                            self.impl):
                raise DesugarError(
                    f"enumerator '{name}' value not representable in int",
                    ts.loc, iso="6.7.2.2p2")
            self.bind(name, ("enumconst", value))
            value += 1
        return Integer(IntKind.INT)

    def apply_declarator(self, base: QualType,
                         decl: C.Declarator) -> Tuple[Optional[str],
                                                      QualType]:
        """Wind a declarator chain around the base type (§6.7.6)."""
        if isinstance(decl, C.DIdent):
            return decl.name, base
        if isinstance(decl, C.DPointer):
            if isinstance(base.ty, VarArray):
                raise UnsupportedError(
                    "pointer to variable length array (runtime element "
                    "strides are outside the fragment; see ROADMAP.md "
                    "'Fragment gaps')", decl.loc)
            quals = Qualifiers(
                const="const" in decl.qualifiers,
                volatile="volatile" in decl.qualifiers,
                restrict="restrict" in decl.qualifiers,
                atomic="_Atomic" in decl.qualifiers,
            )
            return self.apply_declarator(
                QualType(Pointer(base), quals), decl.inner)
        if isinstance(decl, C.DArray):
            if decl.is_star:
                raise UnsupportedError(
                    "'[*]' (VLA of unspecified size) is only meaningful "
                    "in function prototypes and is outside the fragment "
                    "(see ROADMAP.md 'Fragment gaps')", decl.loc)
            if isinstance(base.ty, VarArray):
                raise UnsupportedError(
                    "array of variable length arrays (only the "
                    "outermost dimension may be variable; see "
                    "ROADMAP.md 'Fragment gaps')", decl.loc)
            size: Optional[int] = None
            if decl.size is not None:
                size_expr = self.expr(decl.size)
                try:
                    size = self.const_expr(size_expr)
                except _NotConstantError:
                    # A well-formed size expression whose form is not
                    # an integer constant expression declares a VLA
                    # (§6.7.6.2p4): introduce the hidden size variable
                    # the elaboration will load.  Erroneous *constant*
                    # sizes (division by zero, a float size) keep
                    # their specific DesugarError.
                    sym = self._fresh("vla.size")
                    self._vla_pending.append((sym, size_expr, decl.loc))
                    self._sym_types[sym] = QualType(
                        Integer(IntKind.LONG))
                    return self.apply_declarator(
                        QualType(VarArray(base, sym), NO_QUALS),
                        decl.inner)
                if size < 0:
                    raise DesugarError("array size is negative", decl.loc,
                                       iso="6.7.6.2p1")
            elem = base
            return self.apply_declarator(
                QualType(Array(elem, size), NO_QUALS), decl.inner)
        if isinstance(decl, C.DFunction):
            if decl.ident_list:
                raise UnsupportedError(
                    "K&R-style function definitions are not supported",
                    decl.loc)
            if isinstance(base.ty, VarArray):
                raise DesugarError("function returning an array",
                                   decl.loc, iso="6.7.6.3p1")
            params: List[QualType] = []
            no_proto = False
            if decl.ident_list is not None and not decl.params:
                no_proto = True  # `()` — unspecified parameters
            pending_mark = len(self._vla_pending)
            for p in decl.params:
                pqty, pstorage = self.base_type(p.specs)
                if p.declarator is not None:
                    _, pqty = self.apply_declarator(pqty, p.declarator)
                params.append(self.adjust_param(pqty))
            # VLA parameters decay to pointers (§6.7.6.3p7); their size
            # expressions are not evaluated at runtime — drop the
            # hidden declarations created while winding them.
            del self._vla_pending[pending_mark:]
            if len(params) == 1 and isinstance(params[0].ty, Void) \
                    and params[0].quals.is_empty():
                params = []
            fn = Function(base, tuple(params), decl.variadic, no_proto)
            return self.apply_declarator(QualType(fn), decl.inner)
        raise DesugarError("unhandled declarator form", decl.loc)

    @staticmethod
    def adjust_param(qty: QualType) -> QualType:
        """§6.7.6.3p7-8: array parameters decay to pointers, function
        parameters to function pointers."""
        if isinstance(qty.ty, (Array, VarArray)):
            return QualType(Pointer(qty.ty.of), qty.quals)
        if isinstance(qty.ty, Function):
            return QualType(Pointer(QualType(qty.ty)))
        return qty

    def type_name(self, tn: C.TypeName) -> QualType:
        pending_mark = len(self._vla_pending)
        base, storage = self.base_type(tn.specs)
        if storage:
            raise DesugarError("storage class in type name", tn.loc,
                               iso="6.7.7")
        if tn.declarator is None:
            return base
        name, qty = self.apply_declarator(base, tn.declarator)
        if len(self._vla_pending) > pending_mark:
            # A VLA type in a cast / sizeof(type) / offsetof / compound
            # literal: the size expression would need a statement
            # context to evaluate into.
            del self._vla_pending[pending_mark:]
            raise UnsupportedError(
                "variably modified type in a type name (sizeof/cast/"
                "compound literal of a VLA type; see ROADMAP.md "
                "'Fragment gaps')", tn.loc)
        if name is not None:
            raise DesugarError("type name with identifier", tn.loc,
                               iso="6.7.7")
        return qty

    # -- initialisers ----------------------------------------------------------------

    def normalize_init(self, qty: QualType, init: C.Initializer) -> A.Init:
        ty = qty.ty
        if isinstance(init, C.InitExpr):
            if isinstance(ty, Array):
                if isinstance(init.expr, C.EStringLit) and \
                        _is_char_array(ty):
                    assert ty.size is not None
                    return A.InitString(init.expr.value, ty.size,
                                        loc=init.loc)
                raise DesugarError("array initialised from expression",
                                   init.loc, iso="6.7.9p14")
            return A.InitScalar(self.expr(init.expr), loc=init.loc)
        assert isinstance(init, C.InitList)
        if isinstance(ty, Array) and _is_char_array(ty) and \
                len(init.items) == 1 and not init.items[0][0] and \
                isinstance(init.items[0][1], C.InitExpr) and \
                isinstance(init.items[0][1].expr, C.EStringLit):
            assert ty.size is not None
            return A.InitString(init.items[0][1].expr.value, ty.size,
                                loc=init.loc)
        if isinstance(ty, (Integer, Floating, Pointer)):
            # Scalar in braces (§6.7.9p11).
            if len(init.items) != 1 or init.items[0][0]:
                raise DesugarError("bad scalar initialiser", init.loc,
                                   iso="6.7.9p11")
            return self.normalize_init(qty, init.items[0][1])
        stream = _InitStream(init.items)
        result = self._fill_aggregate(qty, stream, top=True)
        if not stream.done():
            raise DesugarError("excess elements in initialiser", init.loc,
                               iso="6.7.9p2")
        return result

    def _fill_aggregate(self, qty: QualType, stream: "_InitStream",
                        top: bool) -> A.Init:
        ty = qty.ty
        if isinstance(ty, Array):
            return self._fill_array(qty, stream)
        if isinstance(ty, StructRef):
            return self._fill_struct(qty, stream)
        if isinstance(ty, UnionRef):
            return self._fill_union(qty, stream)
        item = stream.next_item()
        if item is None:
            raise DesugarError("missing initialiser", Loc.unknown(),
                               iso="6.7.9")
        designators, sub = item
        if designators:
            raise DesugarError("designator on scalar", sub.loc,
                               iso="6.7.9p7")
        return self.normalize_init(qty, sub)

    def _fill_array(self, qty: QualType, stream: "_InitStream") -> A.Init:
        ty = qty.ty
        assert isinstance(ty, Array) and ty.size is not None
        elems: List[Tuple[int, A.Init]] = []
        idx = 0
        while not stream.done():
            item = stream.peek_item()
            assert item is not None
            designators, sub = item
            if designators:
                d0 = designators[0]
                if not isinstance(d0, C.DesignIndex):
                    break  # a member designator: belongs to our parent
                idx = self.const_expr(self.expr(d0.index))
                if idx < 0 or idx >= ty.size:
                    raise DesugarError("array designator out of range",
                                       d0.loc, iso="6.7.9p33")
                stream.consume()
                rest = designators[1:]
                elems.append((idx, self._fill_designated(
                    ty.of, rest, sub)))
                idx += 1
                continue
            if idx >= ty.size:
                break
            stream.consume()
            if isinstance(sub, C.InitList):
                elems.append((idx, self.normalize_init(ty.of, sub)))
            elif _is_aggregate(ty.of.ty):
                # Brace elision: the expression initialises the first
                # scalar of the nested aggregate; re-feed it (§6.7.9p20).
                stream.push_back(([], sub))
                elems.append((idx, self._fill_aggregate(ty.of, stream,
                                                        top=False)))
            else:
                elems.append((idx, self.normalize_init(ty.of, sub)))
            idx += 1
        return A.InitArray(elems, ty.size)

    def _fill_struct(self, qty: QualType, stream: "_InitStream") -> A.Init:
        ty = qty.ty
        assert isinstance(ty, StructRef)
        defn = self.tags.require(ty.tag)
        if not defn.complete:
            raise DesugarError(f"initialising incomplete type {ty}",
                               Loc.unknown(), iso="6.7.9p3")
        members: List[Tuple[str, A.Init]] = []
        mi = 0
        while not stream.done():
            item = stream.peek_item()
            assert item is not None
            designators, sub = item
            if designators:
                d0 = designators[0]
                if not isinstance(d0, C.DesignMember):
                    break
                names = [m.name for m in defn.members]
                if d0.name not in names:
                    break  # belongs to an enclosing aggregate
                mi = names.index(d0.name)
                stream.consume()
                members.append((d0.name, self._fill_designated(
                    defn.members[mi].qty, designators[1:], sub)))
                mi += 1
                continue
            # Unnamed bit-field members do not take part in positional
            # initialisation (§6.7.9p9).
            while mi < len(defn.members) and \
                    defn.members[mi].name is None:
                mi += 1
            if mi >= len(defn.members):
                break
            member = defn.members[mi]
            stream.consume()
            if isinstance(sub, C.InitList):
                members.append((member.name,
                                self.normalize_init(member.qty, sub)))
            elif isinstance(sub, C.InitExpr) and \
                    isinstance(sub.expr, C.EStringLit) and \
                    isinstance(member.qty.ty, Array) and \
                    _is_char_array(member.qty.ty):
                members.append((member.name,
                                self.normalize_init(member.qty, sub)))
            elif _is_aggregate(member.qty.ty):
                stream.push_back(([], sub))
                members.append((member.name, self._fill_aggregate(
                    member.qty, stream, top=False)))
            else:
                members.append((member.name,
                                self.normalize_init(member.qty, sub)))
            mi += 1
        return A.InitStruct(members)

    def _fill_union(self, qty: QualType, stream: "_InitStream") -> A.Init:
        ty = qty.ty
        assert isinstance(ty, UnionRef)
        defn = self.tags.require(ty.tag)
        item = stream.peek_item()
        if item is None:
            raise DesugarError("empty union initialiser", Loc.unknown(),
                               iso="6.7.9")
        designators, sub = item
        if designators and isinstance(designators[0], C.DesignMember):
            d0 = designators[0]
            member = defn.member(d0.name)
            if member is None:
                raise DesugarError(f"no union member '{d0.name}'", d0.loc,
                                   iso="6.7.9p7")
            stream.consume()
            return A.InitUnion(d0.name, self._fill_designated(
                member.qty, designators[1:], sub))
        if not defn.members:
            raise DesugarError("initialising empty union", Loc.unknown())
        member = defn.members[0]
        stream.consume()
        if isinstance(sub, C.InitList):
            return A.InitUnion(member.name,
                               self.normalize_init(member.qty, sub))
        if _is_aggregate(member.qty.ty):
            stream.push_back(([], sub))
            return A.InitUnion(member.name, self._fill_aggregate(
                member.qty, stream, top=False))
        return A.InitUnion(member.name,
                           self.normalize_init(member.qty, sub))

    def _fill_designated(self, qty: QualType,
                         rest: List[C.Designator],
                         sub: C.Initializer) -> A.Init:
        """Apply remaining designators `.a[3].b = init` recursively."""
        if not rest:
            if isinstance(sub, C.InitList):
                return self.normalize_init(qty, sub)
            if _is_aggregate(qty.ty) and isinstance(sub, C.InitExpr) and \
                    not isinstance(sub.expr, C.EStringLit):
                stream = _InitStream([([], sub)])
                return self._fill_aggregate(qty, stream, top=False)
            return self.normalize_init(qty, sub)
        d0, drest = rest[0], rest[1:]
        if isinstance(d0, C.DesignIndex):
            if not isinstance(qty.ty, Array):
                raise DesugarError("index designator on non-array", d0.loc,
                                   iso="6.7.9p6")
            idx = self.const_expr(self.expr(d0.index))
            inner = self._fill_designated(qty.ty.of, drest, sub)
            assert qty.ty.size is not None
            return A.InitArray([(idx, inner)], qty.ty.size)
        assert isinstance(d0, C.DesignMember)
        if isinstance(qty.ty, StructRef):
            defn = self.tags.require(qty.ty.tag)
            member = defn.member(d0.name)
            if member is None:
                raise DesugarError(f"no member '{d0.name}'", d0.loc,
                                   iso="6.7.9p7")
            return A.InitStruct([(d0.name, self._fill_designated(
                member.qty, drest, sub))])
        if isinstance(qty.ty, UnionRef):
            defn = self.tags.require(qty.ty.tag)
            member = defn.member(d0.name)
            if member is None:
                raise DesugarError(f"no member '{d0.name}'", d0.loc,
                                   iso="6.7.9p7")
            return A.InitUnion(d0.name, self._fill_designated(
                member.qty, drest, sub))
        raise DesugarError("member designator on non-record", d0.loc,
                           iso="6.7.9p7")

    # -- functions ----------------------------------------------------------------

    def _function_def(self, fdef: C.FunctionDef) -> None:
        base_qty, storage = self.base_type(fdef.specs)
        name, qty = self.apply_declarator(base_qty, fdef.declarator)
        if name is None or not isinstance(qty.ty, Function):
            raise DesugarError("bad function definition",
                               fdef.loc, iso="6.9.1")
        existing = self.lookup(name)
        if existing is not None and existing[0] == "function":
            sym = existing[1]
        else:
            sym = self._fresh(name)
        self.bind(name, ("function", sym, qty))
        # Parameter scope.
        self.push()
        param_syms: List[A.Symbol] = []
        params = _declarator_params(fdef.declarator)
        fty = qty.ty
        if not fty.params:
            params = []  # (void) or () — no named parameters
        for i, p in enumerate(params):
            pname = None
            if p.declarator is not None:
                pname, _ = self.apply_declarator(
                    QualType(Void()), p.declarator)
            if pname is None:
                raise DesugarError("unnamed parameter in definition",
                                   fdef.loc, iso="6.9.1p5")
            psym = self._fresh(pname)
            self.bind(pname, ("object", psym, fty.params[i]))
            param_syms.append(psym)
        self._labels = {}
        self._defined_labels = set()
        self._gotos = []
        body = self.block(fdef.body)
        for label, loc in self._gotos:
            if label not in self._defined_labels:
                raise DesugarError(f"goto undefined label '{label}'", loc,
                                   iso="6.8.6.1p1")
        self.pop()
        self.program.functions[sym] = A.FunctionDef(
            sym, qty, param_syms, body, fdef.loc, variadic=fty.variadic)

    # -- statements ------------------------------------------------------------------

    def block(self, block: C.SCompound) -> A.SBlock:
        self.push()
        items: List[Union[A.SDecl, A.Stmt]] = []
        for item in block.items:
            if isinstance(item, C.StaticAssert):
                self._static_assert(item)
            elif isinstance(item, C.Declaration):
                items.extend(self._declaration(item, file_scope=False))
            else:
                items.append(self.stmt(item))
        self.pop()
        return A.SBlock(items, loc=block.loc)

    def stmt(self, s: C.Stmt) -> A.Stmt:
        if isinstance(s, C.SCompound):
            return self.block(s)
        if isinstance(s, C.SExpr):
            return A.SExpr(self.expr(s.expr) if s.expr else None, loc=s.loc)
        if isinstance(s, C.SIf):
            return A.SIf(self.expr(s.cond), self.stmt(s.then),
                         self.stmt(s.els) if s.els else None, loc=s.loc)
        if isinstance(s, C.SWhile):
            return A.SWhile(self.expr(s.cond), self.stmt(s.body),
                            loc=s.loc)
        if isinstance(s, C.SDoWhile):
            w = A.SWhile(self.expr(s.cond), self.stmt(s.body), loc=s.loc)
            w.loc_hint = "do"
            return w
        if isinstance(s, C.SFor):
            return self._for(s)
        if isinstance(s, C.SSwitch):
            return self._switch(s)
        if isinstance(s, C.SCase):
            if not self._switch_stack:
                raise DesugarError("case outside switch", s.loc,
                                   iso="6.8.4.2p2")
            value = self.const_expr(self.expr(s.expr))
            sym = self._fresh(f"case_{value}")
            sw = self._switch_stack[-1]
            if any(v == value for v, _ in sw.cases):
                raise DesugarError(f"duplicate case value {value}", s.loc,
                                   iso="6.8.4.2p3")
            sw.cases.append((value, sym))
            return A.SBlock([A.SCaseMarker(sym, loc=s.loc),
                             self.stmt(s.body)], loc=s.loc)
        if isinstance(s, C.SDefault):
            if not self._switch_stack:
                raise DesugarError("default outside switch", s.loc,
                                   iso="6.8.4.2p2")
            sw = self._switch_stack[-1]
            if sw.default is not None:
                raise DesugarError("duplicate default label", s.loc,
                                   iso="6.8.4.2p3")
            sym = self._fresh("default")
            sw.default = sym
            return A.SBlock([A.SCaseMarker(sym, loc=s.loc),
                             self.stmt(s.body)], loc=s.loc)
        if isinstance(s, C.SLabeled):
            if s.label in self._defined_labels:
                raise DesugarError(f"duplicate label '{s.label}'", s.loc,
                                   iso="6.8.1p3")
            sym = self._labels.setdefault(s.label, self._fresh(s.label))
            self._defined_labels.add(s.label)
            return A.SLabel(sym, self.stmt(s.body), loc=s.loc)
        if isinstance(s, C.SGoto):
            self._gotos.append((s.label, s.loc))
            sym = self._labels.setdefault(s.label, self._fresh(s.label))
            return A.SGoto(sym, loc=s.loc)
        if isinstance(s, C.SBreak):
            return A.SBreak(loc=s.loc)
        if isinstance(s, C.SContinue):
            return A.SContinue(loc=s.loc)
        if isinstance(s, C.SReturn):
            return A.SReturn(self.expr(s.expr) if s.expr else None,
                             loc=s.loc)
        raise DesugarError(f"unhandled statement {type(s).__name__}", s.loc)

    def _for(self, s: C.SFor) -> A.Stmt:
        self.push()
        items: List[Union[A.SDecl, A.Stmt]] = []
        if isinstance(s.init, C.Declaration):
            items.extend(self._declaration(s.init, file_scope=False))
        elif s.init is not None:
            items.append(A.SExpr(self.expr(s.init), loc=s.loc))
        cond = self.expr(s.cond) if s.cond is not None \
            else A.EConstInt(1, loc=s.loc)
        body = self.stmt(s.body)
        loop = A.SWhile(cond, body, loc=s.loc)
        loop.loc_hint = "for"
        # Attach the step: elaboration runs it after the body and at
        # `continue` (§6.8.5.3p1).
        loop.step = self.expr(s.step) if s.step is not None else None
        items.append(loop)
        self.pop()
        return A.SBlock(items, loc=s.loc)

    def _switch(self, s: C.SSwitch) -> A.Stmt:
        sw = A.SSwitch(self.expr(s.cond), A.SBlock([]), loc=s.loc)
        self._switch_stack.append(sw)
        sw.body = self.stmt(s.body)
        self._switch_stack.pop()
        return sw

    # -- expressions ---------------------------------------------------------------

    def expr(self, e: C.Expr) -> A.Expr:
        if isinstance(e, C.EParen):
            return self.expr(e.inner)
        if isinstance(e, C.EIdent):
            entry = self.lookup(e.name)
            if entry is None:
                raise DesugarError(f"use of undeclared identifier "
                                   f"'{e.name}'", e.loc, iso="6.5.1p2")
            if entry[0] == "enumconst":
                return A.EConstInt(entry[1], loc=e.loc)
            if entry[0] in ("object", "function"):
                return A.EId(entry[1], loc=e.loc)
            raise DesugarError(f"'{e.name}' is a type name, not a value",
                               e.loc, iso="6.5.1")
        if isinstance(e, C.EIntConst):
            return A.EConstInt(e.value, e.base, e.suffix, loc=e.loc)
        if isinstance(e, C.EFloatConst):
            return A.EConstFloat(e.value, e.suffix, loc=e.loc)
        if isinstance(e, C.ECharConst):
            return A.EConstInt(e.value, loc=e.loc)
        if isinstance(e, C.EStringLit):
            return self._string_literal(e)
        if isinstance(e, C.EIndex):
            return A.EIndex(self.expr(e.base), self.expr(e.index),
                            loc=e.loc)
        if isinstance(e, C.ECall):
            return A.ECall(self.expr(e.func),
                           [self.expr(a) for a in e.args], loc=e.loc)
        if isinstance(e, C.EMember):
            return A.EMember(self.expr(e.base), e.member, e.arrow,
                             loc=e.loc)
        if isinstance(e, C.EPostIncr):
            return A.EIncrDecr(e.op, True, self.expr(e.base), loc=e.loc)
        if isinstance(e, C.EPreIncr):
            return A.EIncrDecr(e.op, False, self.expr(e.base), loc=e.loc)
        if isinstance(e, C.EUnary):
            return A.EUnary(e.op, self.expr(e.operand), loc=e.loc)
        if isinstance(e, C.ESizeofExpr):
            # sizeof(expr): type computed by the type checker; keep the
            # operand unevaluated per §6.5.3.4p2.
            return A.EUnary("sizeof", self.expr(e.operand), loc=e.loc)
        if isinstance(e, C.ESizeofType):
            return A.ESizeofType(self.type_name(e.type_name), loc=e.loc)
        if isinstance(e, C.EAlignofType):
            return A.EAlignofType(self.type_name(e.type_name), loc=e.loc)
        if isinstance(e, C.ECast):
            return A.ECast(self.type_name(e.type_name),
                           self.expr(e.operand), loc=e.loc)
        if isinstance(e, C.EBinary):
            return A.EBinary(e.op, self.expr(e.lhs), self.expr(e.rhs),
                             loc=e.loc)
        if isinstance(e, C.EConditional):
            if e.then is None:
                raise UnsupportedError("GNU a ?: b extension", e.loc)
            return A.ECond(self.expr(e.cond), self.expr(e.then),
                           self.expr(e.els), loc=e.loc)
        if isinstance(e, C.EAssign):
            return A.EAssign(e.op, self.expr(e.lhs), self.expr(e.rhs),
                             loc=e.loc)
        if isinstance(e, C.EComma):
            return A.EComma(self.expr(e.lhs), self.expr(e.rhs), loc=e.loc)
        if isinstance(e, C.EOffsetof):
            return A.EOffsetof(self.type_name(e.type_name), e.member,
                               loc=e.loc)
        if isinstance(e, C.ECompoundLiteral):
            qty = self.type_name(e.type_name)
            qty = self._complete_from_init(qty, e.init)
            init = self.normalize_init(qty, e.init)
            sym = self._fresh("compound_literal")
            return A.ECompound(sym, qty, init, loc=e.loc)
        if isinstance(e, C.EGeneric):
            raise UnsupportedError(
                "generic selection is out of the supported fragment "
                "(paper §1)", e.loc)
        raise DesugarError(f"unhandled expression {type(e).__name__}",
                           e.loc)

    def _string_literal(self, e: C.EStringLit) -> A.Expr:
        if e.wide:
            raise UnsupportedError("wide string literals", e.loc)
        sym = self._string_cache.get(e.value)
        if sym is None:
            sym = self._fresh("string_literal")
            self._string_cache[e.value] = sym
            char = Integer(IntKind.CHAR)
            qty = QualType(Array(QualType(char), len(e.value) + 1))
            self.program.objects.append(A.ObjectDef(
                sym, qty, A.InitString(e.value, len(e.value) + 1),
                "static", e.loc))
        return A.EString(sym, e.value, loc=e.loc)

    # -- constant expressions --------------------------------------------------------

    def const_expr(self, e: A.Expr) -> int:
        """Integer constant expressions (§6.6)."""
        value = self._const(e)
        if not isinstance(value, int):
            raise DesugarError("expression is not an integer constant",
                               e.loc, iso="6.6p6")
        return value

    def _const(self, e: A.Expr) -> Union[int, float]:
        if isinstance(e, A.EConstInt):
            return e.value
        if isinstance(e, A.EConstFloat):
            return e.value
        if isinstance(e, A.EUnary) and e.op == "sizeof":
            # sizeof(expr) in a constant expression: supported for
            # expressions whose type is directly known to the scoper.
            qty = self._type_of_simple(e.operand)
            if qty is None:
                raise DesugarError(
                    "sizeof of this expression form is not supported "
                    "in constant expressions", e.loc, iso="6.6")
            if isinstance(qty.ty, VarArray):
                # sizeof of a VLA is a runtime value (§6.5.3.4p2); in
                # an array-size position this declares another VLA.
                raise _NotConstantError(
                    "sizeof of a variable length array is not a "
                    "constant expression", e.loc, iso="6.6")
            return self.impl.sizeof(qty.ty, self.tags)
        if isinstance(e, A.EUnary):
            v = self._const(e.operand)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == "~":
                return ~int(v)
            if e.op == "!":
                return int(not v)
            raise _NotConstantError(f"'{e.op}' in constant expression",
                                    e.loc, iso="6.6")
        if isinstance(e, A.EBinary):
            a = self._const(e.lhs)
            if e.op == "&&":
                return int(bool(a) and bool(self._const(e.rhs)))
            if e.op == "||":
                return int(bool(a) or bool(self._const(e.rhs)))
            b = self._const(e.rhs)
            try:
                return _const_binop(e.op, a, b)
            except ZeroDivisionError:
                raise DesugarError("division by zero in constant "
                                   "expression", e.loc, iso="6.6") from None
        if isinstance(e, A.ECond):
            return self._const(e.then) if self._const(e.cond) \
                else self._const(e.els)
        if isinstance(e, A.ECast):
            v = self._const(e.operand)
            if isinstance(e.to.ty, Integer):
                converted, _ = convert.convert_integer_value(
                    int(v), e.to.ty, self.impl)
                return converted
            if isinstance(e.to.ty, Floating):
                return float(v)
            raise DesugarError("non-arithmetic cast in constant expression",
                               e.loc, iso="6.6")
        if isinstance(e, A.ESizeofType):
            return self.impl.sizeof(_decayed(e.of).ty, self.tags)
        if isinstance(e, A.EAlignofType):
            return self.impl.alignof(e.of.ty, self.tags)
        if isinstance(e, A.EOffsetof):
            return self.impl.offsetof(e.record.ty, e.member, self.tags)
        raise _NotConstantError(
            f"{type(e).__name__} is not permitted in a constant expression",
            e.loc, iso="6.6")

    def _type_of_simple(self, e: A.Expr) -> Optional[QualType]:
        """Best-effort type synthesis for sizeof in constant
        expressions (identifiers, dereferences, indexing, members)."""
        if isinstance(e, A.EId):
            qty = self._sym_types.get(e.sym)
            return qty
        if isinstance(e, A.EString):
            char = Integer(IntKind.CHAR)
            return QualType(Array(QualType(char), len(e.value) + 1))
        if isinstance(e, A.EUnary) and e.op == "*":
            inner = self._type_of_simple(e.operand)
            if inner is not None and isinstance(inner.ty, Pointer):
                return inner.ty.to
            return None
        if isinstance(e, A.EIndex):
            base = self._type_of_simple(e.base)
            if base is None:
                return None
            if isinstance(base.ty, (Array, VarArray)):
                return base.ty.of
            if isinstance(base.ty, Pointer):
                return base.ty.to
            return None
        if isinstance(e, A.EMember):
            base = self._type_of_simple(e.base)
            if base is None:
                return None
            ty = base.ty
            if e.arrow and isinstance(ty, Pointer):
                ty = ty.to.ty
            if isinstance(ty, (StructRef, UnionRef)):
                member = self.tags.require(ty.tag).member(e.member)
                return member.qty if member else None
            return None
        return None


class _InitStream:
    """A cursor over initialiser items supporting push-back, for brace
    elision (§6.7.9p20)."""

    def __init__(self, items: List[Tuple[List[C.Designator],
                                         C.Initializer]]):
        self.items = list(items)
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def peek_item(self):
        if self.done():
            return None
        return self.items[self.pos]

    def next_item(self):
        item = self.peek_item()
        if item is not None:
            self.pos += 1
        return item

    def consume(self) -> None:
        self.pos += 1

    def push_back(self, item) -> None:
        self.items.insert(self.pos, item)


def _const_binop(op: str, a, b):
    if op in ("/", "%") and b == 0:
        raise ZeroDivisionError
    if op == "/":
        if isinstance(a, float) or isinstance(b, float):
            return a / b
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q
    if op == "%":
        q = _const_binop("/", a, b)
        return a - b * q
    table = {
        "*": lambda: a * b, "+": lambda: a + b, "-": lambda: a - b,
        "<<": lambda: int(a) << int(b), ">>": lambda: int(a) >> int(b),
        "<": lambda: int(a < b), ">": lambda: int(a > b),
        "<=": lambda: int(a <= b), ">=": lambda: int(a >= b),
        "==": lambda: int(a == b), "!=": lambda: int(a != b),
        "&": lambda: int(a) & int(b), "^": lambda: int(a) ^ int(b),
        "|": lambda: int(a) | int(b),
    }
    return table[op]()


#: The operators a constant expression may not contain (§6.6p3).
_NOT_CONSTANT = {A.ECall: "a function call", A.EAssign: "an assignment",
                 A.EIncrDecr: "an increment or decrement",
                 A.EComma: "a comma operator"}


def _check_static_init(name: str, node) -> None:
    """§6.7.9p4: an initialiser of an object with static storage
    duration holds only constant expressions, so none of these
    operators outside the (unevaluated) operand of ``sizeof``."""
    if isinstance(node, (list, tuple)):
        for item in node:
            _check_static_init(name, item)
    elif isinstance(node, (A.Expr, A.Init)):
        what = _NOT_CONSTANT.get(type(node))
        if what:
            raise DesugarError(f"initializer of static object '{name}' is not "
                               f"a constant expression: it contains {what} "
                               f"(§6.6p3)", node.loc, iso="6.7.9p4")
        if not (isinstance(node, A.EUnary) and node.op == "sizeof"):
            _check_static_init(name, list(vars(node).values()))


def _is_char_array(ty: Array) -> bool:
    of = ty.of.ty
    return isinstance(of, Integer) and of.kind in (
        IntKind.CHAR, IntKind.SCHAR, IntKind.UCHAR)


def _is_aggregate(ty: CType) -> bool:
    return isinstance(ty, (Array, StructRef, UnionRef))


def _decayed(qty: QualType) -> QualType:
    if isinstance(qty.ty, Array):
        return qty  # sizeof(array) is the array size, no decay
    return qty


def _declarator_params(decl: C.Declarator) -> List[C.ParamDecl]:
    d = decl
    while not isinstance(d, C.DIdent):
        if isinstance(d, C.DFunction):
            return d.params
        d = d.inner  # type: ignore[attr-defined]
    return []


def desugar(unit: C.TranslationUnit, impl: Implementation) -> A.Program:
    """Desugar a Cabs translation unit into an Ail program."""
    return Desugarer(impl).run(unit)
