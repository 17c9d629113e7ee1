"""The Core language abstract syntax (paper Fig. 2).

Core is "a typed call-by-value language of function definitions and
expressions, with first-order recursive functions, lists, tuples,
booleans, mathematical integers, a type of the values of C pointers, and
a type of C function designators". It includes a type ``ctype`` of
first-class values representing C type AST terms, and the novel
sequencing constructs (unseq / let weak / let strong / let atomic /
indet / bound / nd / save / run / par / wait).

Deviation from the paper: ``save``/``run`` are given
*dynamically-enclosing re-establishment* semantics — ``run l(args)``
re-enters the dynamically enclosing ``save l`` with rebound parameters —
and the elaboration encodes break/continue/return/goto with guard
parameters accordingly.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Optional, Tuple

from ..ctypes.types import CType, QualType, TagEnv
from ..ctypes.implementation import Implementation
from ..nodeclass import nodeclass
from ..source import Loc
from ..ub import UBName

# --------------------------------------------------------------------------
# Patterns
# --------------------------------------------------------------------------

@nodeclass(frozen=True)
class Pattern:
    pass


@nodeclass(frozen=True)
class PatWild(Pattern):
    def __str__(self) -> str:
        return "_"


@nodeclass(frozen=True)
class PatSym(Pattern):
    name: str

    def __str__(self) -> str:
        return self.name


@nodeclass(frozen=True)
class PatCtor(Pattern):
    """Constructor patterns: Specified/Unspecified/Tuple/Cons/Nil/
    True/False/IVmax-style value constructors."""

    ctor: str
    args: Tuple[Pattern, ...] = ()

    def __str__(self) -> str:
        if self.ctor == "Tuple":
            return "(" + ", ".join(str(a) for a in self.args) + ")"
        if not self.args:
            return self.ctor
        return f"{self.ctor}({', '.join(str(a) for a in self.args)})"


# --------------------------------------------------------------------------
# Pure expressions (pe of Fig. 2)
# --------------------------------------------------------------------------

@nodeclass
class Pexpr:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class PSym(Pexpr):
    name: str


@nodeclass
class PVal(Pexpr):
    value: object  # a runtime value (see dynamics.evaluator)


@nodeclass
class PImpl(Pexpr):
    """<impl-const>: an implementation-defined constant."""

    name: str


@nodeclass
class PUndef(Pexpr):
    """undef(ub-name): reaching this is undefined behaviour (§5.4)."""

    ub: UBName


@nodeclass
class PError(Pexpr):
    """error(msg): an implementation-defined static error."""

    msg: str


@nodeclass
class PCtor(Pexpr):
    """Constructor application: Specified/Unspecified/Tuple/Cons/Nil/
    Array/IVmax..."""

    ctor: str
    args: List[Pexpr]


@nodeclass
class PCase(Pexpr):
    scrutinee: Pexpr
    branches: List[Tuple[Pattern, Pexpr]]


@nodeclass
class PArrayShift(Pexpr):
    ptr: Pexpr
    elem_ty: CType
    index: Pexpr


@nodeclass
class PMemberShift(Pexpr):
    ptr: Pexpr
    tag: str
    member: str


@nodeclass
class PNot(Pexpr):
    operand: Pexpr


@nodeclass
class PBinop(Pexpr):
    """Core binary operators over mathematical integers / booleans:
    + - * / rem_t rem_f ^ (exponentiation) == != < <= > >= /\\ \\/ ."""

    op: str
    lhs: Pexpr
    rhs: Pexpr


@nodeclass
class PStruct(Pexpr):
    tag: str
    members: List[Tuple[str, Pexpr]]


@nodeclass
class PUnion(Pexpr):
    tag: str
    member: str
    value: Pexpr


@nodeclass
class PCall(Pexpr):
    """Pure Core function call — either a Core-defined fun or one of the
    native auxiliary functions the elaboration uses (integer_promotion,
    ctype_width, is_representable, conv_int, catch_exceptional_condition,
    is_unsigned, ...)."""

    name: str
    args: List[Pexpr]


@nodeclass
class PLet(Pexpr):
    pat: Pattern
    bound: Pexpr
    body: Pexpr


@nodeclass
class PIf(Pexpr):
    cond: Pexpr
    then: Pexpr
    els: Pexpr


# --------------------------------------------------------------------------
# Memory actions (a / pa of Fig. 2)
# --------------------------------------------------------------------------

@nodeclass
class Action:
    """One memory action; ``polarity`` is positive by default — negative
    actions (``neg``) are sequenced only by ``let strong`` (§5.6)."""

    kind: str  # "create"|"alloc"|"kill"|"store"|"load"|"rmw"|"fence"
    # create: (align, ctype, prefix)     alloc: (align, size)
    # kill: (ptr, dyn)  store: (ctype, ptr, value, order)
    # load: (ctype, ptr, order)  rmw: (ctype, ptr, expected, desired, ...)
    args: List[Pexpr]
    polarity: str = "pos"  # "pos" | "neg"
    order: str = "na"      # memory order for atomics ("na" non-atomic)
    loc: Loc = field(default_factory=Loc.unknown)


# --------------------------------------------------------------------------
# Effectful expressions (e of Fig. 2)
# --------------------------------------------------------------------------

@nodeclass
class Expr:
    loc: Loc = field(default_factory=Loc.unknown, kw_only=True)


@nodeclass
class EPure(Expr):
    pe: Pexpr


@nodeclass
class EPtrOp(Expr):
    """ptrop: pointer operations involving the memory state."""

    op: str  # "eq"|"ne"|"lt"|"gt"|"le"|"ge"|"ptrdiff"|"intFromPtr"|
    #          "ptrFromInt"|"ptrValidForDeref"
    args: List[Pexpr]
    # auxiliary static payload (e.g. the element ctype for ptrdiff,
    # target integer ctype for intFromPtr)
    aux: Optional[object] = None


@nodeclass
class EAction(Expr):
    action: Action


@nodeclass
class ECase(Expr):
    scrutinee: Pexpr
    branches: List[Tuple[Pattern, Expr]]


@nodeclass
class ELet(Expr):
    pat: Pattern
    bound: Pexpr
    body: Expr


@nodeclass
class EIf(Expr):
    cond: Pexpr
    then: Expr
    els: Expr


@nodeclass
class ESkip(Expr):
    pass


@nodeclass
class EProc(Expr):
    """pcall of a named Core procedure."""

    name: str
    args: List[Pexpr]


@nodeclass
class ECcall(Expr):
    """Call of a C function through a function-designator value; the
    body is indeterminately sequenced w.r.t. the enclosing expression
    (§5.6 point 6)."""

    fn: Pexpr
    args: List[Pexpr]
    ret_ty: Optional[QualType] = None


@nodeclass
class EUnseq(Expr):
    """unseq(e1..en): arbitrary interleaving, reduces to a tuple."""

    exprs: List[Expr]


@nodeclass
class EWseq(Expr):
    """let weak pat = e1 in e2: positive actions of e1 sequence before
    e2."""

    pat: Pattern
    first: Expr
    second: Expr


@nodeclass
class ESseq(Expr):
    """let strong pat = e1 in e2: all actions of e1 sequence before e2."""

    pat: Pattern
    first: Expr
    second: Expr


@nodeclass
class EAtomicSeq(Expr):
    """let atomic (sym : oTy) = a1 in pa2: the two actions are
    sequenced and form an atomic unit no other action may come between
    (postfix ++/--)."""

    sym: str
    first: Action
    second: Action


@nodeclass
class EIndet(Expr):
    """indet[n](e): e is indeterminately sequenced w.r.t. its context."""

    n: int
    body: Expr


@nodeclass
class EBound(Expr):
    """bound[n](e): delimits the context of indet[n]."""

    n: int
    body: Expr


@nodeclass
class ENd(Expr):
    """nd(e1..en): nondeterministic choice."""

    exprs: List[Expr]


@nodeclass
class ESave(Expr):
    """save label(x_i := default_i) in e  (see module docstring for the
    re-establishment semantics used here)."""

    label: str
    params: List[Tuple[str, Pexpr]]
    body: Expr


@nodeclass
class ERun(Expr):
    label: str
    args: List[Pexpr]


@nodeclass
class EPar(Expr):
    exprs: List[Expr]


@nodeclass
class EWait(Expr):
    thread: Pexpr


@nodeclass
class EReturn(Expr):
    """return(pe): return from the current Core procedure."""

    pe: Pexpr


@nodeclass
class EScope(Expr):
    """Block-structured object lifetime (an addition to the paper's
    Core): on entry, a ``create`` is performed for every declared object
    of the C block (§6.2.4p5-6: lifetimes start at block entry) and the
    resulting pointers are bound to the given Core symbols; on any exit
    — normal, ``run``, or procedure return — the objects are killed.
    Equivalent to Cerberus's save/run annotations carrying scope
    create/kill sets (paper §5.8)."""

    creates: List["ScopedCreate"]
    body: Expr


@nodeclass
class ScopedCreate:
    sym: str
    ty: CType
    prefix: str            # human-readable object name
    readonly: bool = False
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class EVlaCreate(Expr):
    """Create a variable length array object at its declaration point
    (§6.2.4p7: a VLA's lifetime starts at the declaration, not at block
    entry).  ``size`` is a pure expression computing the (already
    positivity- and bound-checked) element count; the resulting pointer
    is the expression's value, and the object is registered with the
    dynamically innermost :class:`EScope` so every exit path kills it."""

    elem_ty: CType
    size: Pexpr
    prefix: str


# --------------------------------------------------------------------------
# Definitions and programs
# --------------------------------------------------------------------------

@nodeclass
class FunDef:
    """A pure Core function definition."""

    name: str
    params: List[str]
    body: Pexpr


@nodeclass
class ProcDef:
    """An effectful Core procedure definition."""

    name: str
    params: List[str]
    body: Expr
    # C-level metadata for procedures elaborated from C functions:
    ret_ty: Optional[QualType] = None
    param_tys: List[QualType] = field(default_factory=list)
    variadic: bool = False
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class GlobDef:
    """A C object with static storage duration: name, ctype, and the
    Core expression computing its initial value (or None for
    zero/unspecified initialisation)."""

    name: str
    qty: QualType
    init: Optional[Expr]
    readonly: bool = False
    loc: Loc = field(default_factory=Loc.unknown)


@nodeclass
class Program:
    """The result of elaborating a C program (paper Fig. 2 caption)."""

    tags: TagEnv
    impl: Implementation
    funs: Dict[str, FunDef] = field(default_factory=dict)
    procs: Dict[str, ProcDef] = field(default_factory=dict)
    globs: List[GlobDef] = field(default_factory=list)
    main: Optional[str] = None
    # implementation-defined constants
    impl_constants: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Traversals
# --------------------------------------------------------------------------

def _subexprs(node: Expr) -> List[Expr]:
    """The effectful sub-expressions of ``node``, in program order."""
    if isinstance(node, (EUnseq, ENd, EPar)):
        return node.exprs
    if isinstance(node, ECase):
        return [body for _, body in node.branches]
    if isinstance(node, EIf):
        return [node.then, node.els]
    if isinstance(node, (EWseq, ESseq)):
        return [node.first, node.second]
    if isinstance(node, (ELet, EIndet, EBound, ESave, EScope)):
        return [node.body]
    return []


def _walk(e: Expr) -> List[Expr]:
    """``e`` and all its effectful sub-expressions, in pre-order."""
    out: List[Expr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(_subexprs(node)))
    return out


def collect_unseqs(program: Program) -> List[EUnseq]:
    """Every ``unseq`` node of a program in one deterministic DFS
    order — the positional basis for serialized annotation tables."""
    roots = [g.init for g in program.globs if g.init is not None]
    roots.extend(proc.body for proc in program.procs.values())
    return [node for root in roots for node in _walk(root)
            if isinstance(node, EUnseq)]


def calling_children(node: EUnseq) -> frozenset:
    """The indices of the children of ``node`` that may call a
    procedure or a C function (cached on the node).  Such a call runs
    whole before another child resumes, so its first action does not
    stand for what the child does at its next scheduling point."""
    calls = node.__dict__.get("_calling")
    if calls is None:
        calls = node._calling = frozenset(
            i for i, child in enumerate(node.exprs) if _may_call(child))
    return calls


def _may_call(e: Expr) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (EProc, ECcall)):
            return True
        if isinstance(node, EUnseq):
            # Nested unseqs answer from their own cache: one walk over
            # the program in all.
            if calling_children(node):
                return True
        else:
            stack.extend(_subexprs(node))
    return False
