"""Ail — the desugared C AST.

Compared with Cabs (paper §5.1), Ail has:

* identifier scoping resolved — every name is a unique :class:`Symbol`
  (linkage merging done; object/function/typedef/enum namespaces split);
* syntactic C types normalised into the canonical `repro.ctypes` forms;
* enums replaced by their integer types, enumerators by constants;
* ``for`` and ``do``-``while`` loops desugared into ``while``;
* string literals replaced by references to implicitly-allocated objects;
* initialisers normalised against the declared type.

Expression nodes carry a ``ty`` annotation slot which the type checker
(:mod:`repro.typing.typecheck`) fills to make *Typed Ail*.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Optional, Tuple, Union

from ..ctypes.types import QualType, TagEnv
from ..nodeclass import nodeclass
from ..source import Loc

@nodeclass(frozen=True)
class Symbol:
    """A resolved identifier: source name plus an id unique within its
    translation unit (numbered by the desugarer, so one source always
    gets the same symbols)."""

    name: str
    uid: int

    def __str__(self) -> str:
        return f"{self.name}_{self.uid}"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@nodeclass
class Expr:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)
    # Filled by the type checker: the expression's C type and whether the
    # node denotes an lvalue (§6.3.2.1).
    ty: Optional[QualType] = field(default=None, kw_only=True)
    is_lvalue: bool = field(default=False, kw_only=True)


@nodeclass
class EId(Expr):
    sym: Symbol


@nodeclass
class EConstInt(Expr):
    """An integer constant; ``base`` and ``suffix`` drive its C type
    (§6.4.4.1p5)."""

    value: int
    base: int = 10
    suffix: str = ""


@nodeclass
class EConstFloat(Expr):
    value: float
    suffix: str = ""


@nodeclass
class EString(Expr):
    """A string literal, referring to its implicitly allocated object."""

    sym: Symbol
    value: bytes


@nodeclass
class ECall(Expr):
    func: Expr
    args: List[Expr]


@nodeclass
class EMember(Expr):
    base: Expr
    member: str
    arrow: bool


@nodeclass
class EUnary(Expr):
    op: str              # & * + - ~ !
    operand: Expr


@nodeclass
class EBinary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@nodeclass
class EIndex(Expr):
    base: Expr
    index: Expr


@nodeclass
class ECast(Expr):
    to: QualType
    operand: Expr


@nodeclass
class EAssign(Expr):
    op: str              # = or compound (*=, ...)
    lhs: Expr
    rhs: Expr


@nodeclass
class ECond(Expr):
    cond: Expr
    then: Expr
    els: Expr


@nodeclass
class EComma(Expr):
    lhs: Expr
    rhs: Expr


@nodeclass
class EIncrDecr(Expr):
    op: str              # "++" / "--"
    is_postfix: bool
    base: Expr


@nodeclass
class ESizeofType(Expr):
    of: QualType


@nodeclass
class EAlignofType(Expr):
    of: QualType


@nodeclass
class EOffsetof(Expr):
    record: QualType
    member: str


@nodeclass
class ECompound(Expr):
    """A compound literal: an unnamed object with the given init."""

    sym: Symbol
    of: QualType
    init: "Init"


# An implicit-conversion wrapper inserted by the type checker (lvalue
# conversion, array/function decay, arithmetic conversions, ...).
@nodeclass
class EConv(Expr):
    kind: str            # "lvalue", "decay", "fn-decay", "arith", "assign"
    to: QualType
    operand: Expr


# --------------------------------------------------------------------------
# Initialisers (normalised against the declared type)
# --------------------------------------------------------------------------

@nodeclass
class Init:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class InitScalar(Init):
    expr: Expr


@nodeclass
class InitArray(Init):
    # Element inits by index; missing indices are zero-initialised.
    elems: List[Tuple[int, Init]]
    size: int


@nodeclass
class InitStruct(Init):
    # Member inits by name (in member order); missing ones zeroed.
    members: List[Tuple[str, Init]]


@nodeclass
class InitUnion(Init):
    member: str
    init: Init


@nodeclass
class InitString(Init):
    """char array initialised from a string literal."""

    value: bytes
    size: int


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@nodeclass
class Stmt:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class SBlock(Stmt):
    items: List[Union["SDecl", Stmt]] = field(default_factory=list)


@nodeclass
class SDecl(Stmt):
    """A block-scope object declaration (one declarator)."""

    sym: Symbol
    qty: QualType
    init: Optional[Init]
    is_static: bool = False


@nodeclass
class SExpr(Stmt):
    expr: Optional[Expr]


@nodeclass
class SIf(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]


@nodeclass
class SWhile(Stmt):
    """The unified loop form: ``for`` and ``do``-``while`` desugar into
    this (paper §5.1 — "desugaring for- and do-while loops into while").

    * ``loc_hint == "do"``: the body runs before the first condition test.
    * ``step``: the for-loop step expression, run after the body and at
      every ``continue``.
    """

    cond: Expr
    body: Stmt
    step: Optional[Expr] = None
    loc_hint: str = "while"


@nodeclass
class SSwitch(Stmt):
    cond: Expr
    body: Stmt
    # Precomputed case labels (paper §5.1): (value, label-symbol) plus
    # optional default label. Filled by the desugarer.
    cases: List[Tuple[int, Symbol]] = field(default_factory=list)
    default: Optional[Symbol] = None
    break_sym: Optional[Symbol] = None


@nodeclass
class SCaseMarker(Stmt):
    """Marks where a case/default label sits inside a switch body."""

    sym: Symbol


@nodeclass
class SLabel(Stmt):
    sym: Symbol
    body: Stmt


@nodeclass
class SGoto(Stmt):
    sym: Symbol


@nodeclass
class SBreak(Stmt):
    pass


@nodeclass
class SContinue(Stmt):
    pass


@nodeclass
class SReturn(Stmt):
    expr: Optional[Expr]


@nodeclass
class SPar(Stmt):
    """cppmem-style thread creation {{{ e1 ||| e2 }}} — only produced by
    the concurrency test helpers, not by C desugaring."""

    branches: List[Stmt]


# --------------------------------------------------------------------------
# Declarations and programs
# --------------------------------------------------------------------------

@nodeclass
class ObjectDef:
    """A file-scope object (or string-literal / compound-literal object)."""

    sym: Symbol
    qty: QualType
    init: Optional[Init]
    storage: str = "static"          # "static" | "extern-def"
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class FunctionDef:
    sym: Symbol
    qty: QualType                     # a Function type
    param_syms: List[Symbol]
    body: Optional[SBlock]            # None for declarations
    loc: Loc = field(default_factory=Loc.unknown)
    variadic: bool = False


@nodeclass
class Program:
    tags: TagEnv
    objects: List[ObjectDef] = field(default_factory=list)
    functions: Dict[Symbol, FunctionDef] = field(default_factory=dict)
    main: Optional[Symbol] = None
