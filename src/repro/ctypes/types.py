"""C type ASTs (ISO C11 §6.2.5).

Types are immutable and hashable. Struct and union types are *references*
to entries of a :class:`TagEnv` (definitions are interned by tag id), which
keeps recursive types finite and lets two phases share one definition
table, mirroring Ail's normalised canonical type forms (paper §5.1).
"""

from __future__ import annotations

import enum
from dataclasses import field
from typing import Dict, List, Optional, Tuple

from ..nodeclass import nodeclass


class IntKind(enum.Enum):
    """The standard integer type kinds (§6.2.5p4-7). ``CHAR`` is the
    distinct type ``char`` (§6.2.5p15); its signedness is
    implementation-defined."""

    BOOL = "_Bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LLONG = "long long"
    ULLONG = "unsigned long long"


_SIGNED_OF = {
    IntKind.UCHAR: IntKind.SCHAR, IntKind.USHORT: IntKind.SHORT,
    IntKind.UINT: IntKind.INT, IntKind.ULONG: IntKind.LONG,
    IntKind.ULLONG: IntKind.LLONG,
}
_UNSIGNED_OF = {v: k for k, v in _SIGNED_OF.items()}


class FloatKind(enum.Enum):
    FLOAT = "float"
    DOUBLE = "double"
    LDOUBLE = "long double"


class CType:
    """Base class of all C types (unqualified)."""

    def is_complete(self, tags: "TagEnv") -> bool:
        return True


@nodeclass(frozen=True)
class Void(CType):
    def __str__(self) -> str:
        return "void"

    def is_complete(self, tags: "TagEnv") -> bool:
        return False


@nodeclass(frozen=True)
class Integer(CType):
    kind: IntKind

    def __str__(self) -> str:
        return self.kind.value

    def signed_variant(self) -> "Integer":
        if self.kind in (IntKind.CHAR, IntKind.SCHAR):
            return Integer(IntKind.SCHAR)
        return Integer(_SIGNED_OF.get(self.kind, self.kind))

    def unsigned_variant(self) -> "Integer":
        if self.kind in (IntKind.CHAR, IntKind.SCHAR):
            return Integer(IntKind.UCHAR)
        return Integer(_UNSIGNED_OF.get(self.kind, self.kind))


@nodeclass(frozen=True)
class Floating(CType):
    kind: FloatKind

    def __str__(self) -> str:
        return self.kind.value


@nodeclass(frozen=True)
class Qualifiers:
    const: bool = False
    volatile: bool = False
    restrict: bool = False
    atomic: bool = False

    def __or__(self, other: "Qualifiers") -> "Qualifiers":
        return Qualifiers(self.const or other.const,
                          self.volatile or other.volatile,
                          self.restrict or other.restrict,
                          self.atomic or other.atomic)

    def __str__(self) -> str:
        parts = []
        if self.const:
            parts.append("const")
        if self.volatile:
            parts.append("volatile")
        if self.restrict:
            parts.append("restrict")
        if self.atomic:
            parts.append("_Atomic")
        return " ".join(parts)

    def is_empty(self) -> bool:
        return not (self.const or self.volatile or self.restrict
                    or self.atomic)


NO_QUALS = Qualifiers()
CONST = Qualifiers(const=True)


@nodeclass(frozen=True)
class QualType:
    """A possibly-qualified type — the thing declarations bind."""

    ty: CType
    quals: Qualifiers = NO_QUALS

    def __str__(self) -> str:
        q = str(self.quals)
        return f"{q} {self.ty}".strip()

    def with_quals(self, quals: Qualifiers) -> "QualType":
        return QualType(self.ty, self.quals | quals)

    def unqualified(self) -> "QualType":
        return QualType(self.ty, NO_QUALS)


@nodeclass(frozen=True)
class Pointer(CType):
    to: QualType

    def __str__(self) -> str:
        return f"{self.to}*"


@nodeclass(frozen=True)
class Array(CType):
    of: QualType
    size: Optional[int]  # None for incomplete array types

    def __str__(self) -> str:
        n = "" if self.size is None else str(self.size)
        return f"{self.of}[{n}]"

    def is_complete(self, tags: "TagEnv") -> bool:
        return self.size is not None


@nodeclass(frozen=True)
class VarArray(CType):
    """A variable length array type (§6.7.6.2p4): element type plus the
    desugarer-introduced *hidden size variable* holding the runtime
    element count.  ``size_sym`` is the Ail symbol of that variable
    (an ``A.Symbol``; typed as ``object`` to avoid a circular import) —
    the elaboration loads it wherever the size is needed (the
    declaration's ``create``, ``sizeof``).  Only the outermost array
    dimension of a declarator may be variable in this fragment."""

    of: QualType
    size_sym: object  # repro.ail.ast.Symbol (hashable, picklable)

    def __str__(self) -> str:
        return f"{self.of}[{self.size_sym}]"

    def is_complete(self, tags: "TagEnv") -> bool:
        # Complete in the variable sense: the size exists at runtime.
        return True


@nodeclass(frozen=True)
class Function(CType):
    ret: QualType
    params: Tuple[QualType, ...]
    variadic: bool = False
    # True for old-style () declarations with unspecified parameters.
    no_proto: bool = False

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        if self.variadic:
            ps += ", ..."
        if self.no_proto:
            ps = ""
        return f"{self.ret}({ps})"


@nodeclass(frozen=True)
class StructRef(CType):
    tag: str  # unique tag id issued by the TagEnv

    def __str__(self) -> str:
        return f"struct {self.tag}"

    def is_complete(self, tags: "TagEnv") -> bool:
        defn = tags.get(self.tag)
        return defn is not None and defn.complete


@nodeclass(frozen=True)
class UnionRef(CType):
    tag: str

    def __str__(self) -> str:
        return f"union {self.tag}"

    def is_complete(self, tags: "TagEnv") -> bool:
        defn = tags.get(self.tag)
        return defn is not None and defn.complete


@nodeclass
class Member:
    """One struct/union member.  ``bit_width`` is None for ordinary
    members; a bit-field member carries its declared width in bits.
    Anonymous bit-fields (``int : 4``, ``int : 0``) have ``name is
    None`` — they participate in layout but are not accessible, are
    skipped by positional initialisation (§6.7.9p9), and never match a
    member lookup."""

    name: Optional[str]
    qty: QualType
    bit_width: Optional[int] = None


@nodeclass
class TagDef:
    """Definition of a struct or union tag."""

    tag: str
    is_union: bool
    members: List[Member] = field(default_factory=list)
    complete: bool = False

    def member(self, name: str) -> Optional[Member]:
        for m in self.members:
            if m.name == name:
                return m
        return None


class TagEnv:
    """The program-wide struct/union definition table.

    Tag ids are globally unique strings (``name#k`` for source tag `name`,
    ``anon#k`` for anonymous ones); scoping is resolved during desugaring,
    so later phases can treat tags as global.
    """

    def __init__(self) -> None:
        self._defs: Dict[str, TagDef] = {}
        self._counter = 0

    def fresh_tag(self, source_name: Optional[str], is_union: bool) -> str:
        self._counter += 1
        base = source_name if source_name else "anon"
        tag = f"{base}#{self._counter}"
        self._defs[tag] = TagDef(tag, is_union)
        return tag

    def get(self, tag: str) -> Optional[TagDef]:
        return self._defs.get(tag)

    def require(self, tag: str) -> TagDef:
        defn = self._defs.get(tag)
        if defn is None:
            raise KeyError(f"unknown tag {tag}")
        return defn

    def define(self, tag: str, members: List[Member]) -> None:
        defn = self.require(tag)
        defn.members = members
        defn.complete = True

    def all_tags(self) -> Dict[str, TagDef]:
        return dict(self._defs)


# ---- convenience constructors ----------------------------------------------

def q(ty: CType, quals: Qualifiers = NO_QUALS) -> QualType:
    return QualType(ty, quals)


VOID = Void()
BOOL = Integer(IntKind.BOOL)
CHAR = Integer(IntKind.CHAR)
SCHAR = Integer(IntKind.SCHAR)
UCHAR = Integer(IntKind.UCHAR)
SHORT = Integer(IntKind.SHORT)
USHORT = Integer(IntKind.USHORT)
INT = Integer(IntKind.INT)
UINT = Integer(IntKind.UINT)
LONG = Integer(IntKind.LONG)
ULONG = Integer(IntKind.ULONG)
LLONG = Integer(IntKind.LLONG)
ULLONG = Integer(IntKind.ULLONG)
FLOAT = Floating(FloatKind.FLOAT)
DOUBLE = Floating(FloatKind.DOUBLE)
LDOUBLE = Floating(FloatKind.LDOUBLE)

CHAR_PTR = Pointer(q(CHAR))
VOID_PTR = Pointer(q(VOID))


def is_integer(ty: CType) -> bool:
    return isinstance(ty, Integer)


def is_arithmetic(ty: CType) -> bool:
    return isinstance(ty, (Integer, Floating))


def is_scalar(ty: CType) -> bool:
    return isinstance(ty, (Integer, Floating, Pointer))


def is_character(ty: CType) -> bool:
    return isinstance(ty, Integer) and ty.kind in (
        IntKind.CHAR, IntKind.SCHAR, IntKind.UCHAR)
