"""Cabs — the C abstract syntax produced by the parser.

Cabs mirrors the concrete ISO C11 grammar (§6.5-6.9) with almost no
interpretation: declaration specifiers are kept as token-ish lists,
declarators are a syntax tree, and expressions record the operator
spellings. All interpretation (scoping, type normalisation, enum
replacement, loop desugaring, ...) happens in Cabs_to_Ail (paper §5.1).
"""

from __future__ import annotations

from dataclasses import field
from typing import List, Optional, Tuple, Union

from ..nodeclass import nodeclass
from ..source import Loc


# --------------------------------------------------------------------------
# Expressions (§6.5)
# --------------------------------------------------------------------------

@nodeclass
class Expr:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class EIdent(Expr):
    name: str


@nodeclass
class EIntConst(Expr):
    """An integer constant with its spelling (type determined per
    §6.4.4.1p5 during desugaring)."""

    text: str
    value: int
    base: int            # 8, 10 or 16
    suffix: str          # normalised, e.g. "", "u", "l", "ull"


@nodeclass
class EFloatConst(Expr):
    text: str
    value: float
    suffix: str          # "", "f", "l"


@nodeclass
class ECharConst(Expr):
    text: str
    value: int
    wide: bool


@nodeclass
class EStringLit(Expr):
    """Adjacent string literals already concatenated (phase 6)."""

    text: str
    value: bytes
    wide: bool


@nodeclass
class EParen(Expr):
    inner: Expr


@nodeclass
class EIndex(Expr):
    base: Expr
    index: Expr


@nodeclass
class ECall(Expr):
    func: Expr
    args: List[Expr]


@nodeclass
class EMember(Expr):
    base: Expr
    member: str
    arrow: bool          # True for ->


@nodeclass
class EPostIncr(Expr):
    base: Expr
    op: str              # "++" or "--"


@nodeclass
class ECompoundLiteral(Expr):
    type_name: "TypeName"
    init: "Initializer"


@nodeclass
class EPreIncr(Expr):
    base: Expr
    op: str              # "++" or "--"


@nodeclass
class EUnary(Expr):
    op: str              # & * + - ~ !
    operand: Expr


@nodeclass
class ESizeofExpr(Expr):
    operand: Expr


@nodeclass
class ESizeofType(Expr):
    type_name: "TypeName"


@nodeclass
class EAlignofType(Expr):
    type_name: "TypeName"


@nodeclass
class ECast(Expr):
    type_name: "TypeName"
    operand: Expr


@nodeclass
class EBinary(Expr):
    op: str              # * / % + - << >> < > <= >= == != & ^ | && ||
    lhs: Expr
    rhs: Expr


@nodeclass
class EConditional(Expr):
    cond: Expr
    then: Optional[Expr]  # None for the GNU a ?: b extension (unsupported)
    els: Expr


@nodeclass
class EAssign(Expr):
    op: str              # = *= /= %= += -= <<= >>= &= ^= |=
    lhs: Expr
    rhs: Expr


@nodeclass
class EComma(Expr):
    lhs: Expr
    rhs: Expr


@nodeclass
class EOffsetof(Expr):
    """__cerberus_offsetof(type, member) — what <stddef.h> expands to."""

    type_name: "TypeName"
    member: str


@nodeclass
class EGeneric(Expr):
    """_Generic (§6.5.1.1) — parsed, rejected later as unsupported."""

    control: Expr
    assocs: List[Tuple[Optional["TypeName"], Expr]]


# --------------------------------------------------------------------------
# Declarations (§6.7)
# --------------------------------------------------------------------------

@nodeclass
class TypeSpec:
    """One declaration specifier."""

    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class TSKeyword(TypeSpec):
    """void/char/int/short/long/signed/unsigned/float/double/_Bool/
    _Complex."""

    name: str


@nodeclass
class TSTypedefName(TypeSpec):
    name: str


@nodeclass
class TSStructOrUnion(TypeSpec):
    is_union: bool
    tag: Optional[str]
    # None when this is a reference, a list for a definition.
    members: Optional[List["StructDeclaration"]]


@nodeclass
class TSEnum(TypeSpec):
    tag: Optional[str]
    # (name, optional constant expression); None for a reference.
    enumerators: Optional[List[Tuple[str, Optional[Expr]]]]


@nodeclass
class TSAtomic(TypeSpec):
    """_Atomic(type-name)."""

    type_name: "TypeName"


@nodeclass
class StructDeclaration:
    specs: "DeclSpecs"
    # Each declarator optionally with a bitfield width expression.
    declarators: List[Tuple[Optional["Declarator"], Optional[Expr]]]
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class DeclSpecs:
    """Separated declaration specifiers (§6.7p1)."""

    storage: List[str] = field(default_factory=list)       # typedef extern...
    type_specs: List[TypeSpec] = field(default_factory=list)
    qualifiers: List[str] = field(default_factory=list)    # const ...
    functions: List[str] = field(default_factory=list)     # inline _Noreturn
    alignment: List[Union["TypeName", Expr]] = field(default_factory=list)
    loc: Loc = field(default_factory=Loc.unknown)


# Declarators (§6.7.6): a chain from the identifier outwards.

@nodeclass
class Declarator:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class DIdent(Declarator):
    name: Optional[str]  # None for abstract declarators


@nodeclass
class DPointer(Declarator):
    qualifiers: List[str]
    inner: Declarator


@nodeclass
class DArray(Declarator):
    inner: Declarator
    size: Optional[Expr]
    qualifiers: List[str] = field(default_factory=list)
    is_static: bool = False
    is_star: bool = False


@nodeclass
class ParamDecl:
    specs: DeclSpecs
    declarator: Optional[Declarator]
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class DFunction(Declarator):
    inner: Declarator
    params: List[ParamDecl]
    variadic: bool
    # K&R-style identifier list (non-prototype); we only accept empty ().
    ident_list: Optional[List[str]] = None


@nodeclass
class TypeName:
    specs: DeclSpecs
    declarator: Optional[Declarator]  # abstract
    loc: Loc = field(default_factory=Loc.unknown)


# Initializers (§6.7.9)

@nodeclass
class Designator:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class DesignMember(Designator):
    name: str


@nodeclass
class DesignIndex(Designator):
    index: Expr


@nodeclass
class Initializer:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class InitExpr(Initializer):
    expr: Expr


@nodeclass
class InitList(Initializer):
    items: List[Tuple[List[Designator], Initializer]]


@nodeclass
class InitDeclarator:
    declarator: Declarator
    init: Optional[Initializer]
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class Declaration:
    specs: DeclSpecs
    declarators: List[InitDeclarator]
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class StaticAssert:
    cond: Expr
    message: Optional[str]
    loc: Loc = field(default_factory=Loc.unknown)


# --------------------------------------------------------------------------
# Statements (§6.8)
# --------------------------------------------------------------------------

@nodeclass
class Stmt:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class SLabeled(Stmt):
    label: str
    body: Stmt


@nodeclass
class SCase(Stmt):
    expr: Expr
    body: Stmt


@nodeclass
class SDefault(Stmt):
    body: Stmt


@nodeclass
class SCompound(Stmt):
    # block-items: declarations, statements or static asserts
    items: List[Union[Declaration, Stmt, StaticAssert]] = \
        field(default_factory=list)


@nodeclass
class SExpr(Stmt):
    expr: Optional[Expr]  # None for the null statement ';'


@nodeclass
class SIf(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]


@nodeclass
class SSwitch(Stmt):
    cond: Expr
    body: Stmt


@nodeclass
class SWhile(Stmt):
    cond: Expr
    body: Stmt


@nodeclass
class SDoWhile(Stmt):
    body: Stmt
    cond: Expr


@nodeclass
class SFor(Stmt):
    init: Optional[Union[Declaration, Expr]]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@nodeclass
class SGoto(Stmt):
    label: str


@nodeclass
class SContinue(Stmt):
    pass


@nodeclass
class SBreak(Stmt):
    pass


@nodeclass
class SReturn(Stmt):
    expr: Optional[Expr]


# --------------------------------------------------------------------------
# External definitions (§6.9)
# --------------------------------------------------------------------------

@nodeclass
class FunctionDef:
    specs: DeclSpecs
    declarator: Declarator
    body: SCompound
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class TranslationUnit:
    decls: List[Union[Declaration, FunctionDef, StaticAssert]] = \
        field(default_factory=list)
