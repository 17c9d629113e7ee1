"""Core runtime values (the ``value`` production of paper Fig. 2) and
pattern matching over them."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.ast import Pattern, PatCtor, PatSym, PatWild
from ..ctypes.types import CType, Floating, Integer, Pointer
from ..errors import InternalError
from ..memory.values import (
    FloatingValue, IntegerValue, MemValue, MVArray, MVFloating, MVInteger,
    MVPointer, MVStruct, MVUnion, MVUnspecified, PointerValue,
)
from ..nodeclass import nodeclass


class Value:
    """Base class of Core runtime values."""


@nodeclass(frozen=True)
class VUnit(Value):
    def __repr__(self) -> str:
        return "Unit"


UNIT = VUnit()


@nodeclass(frozen=True)
class VBool(Value):
    b: bool

    def __repr__(self) -> str:
        return "True" if self.b else "False"


TRUE = VBool(True)
FALSE = VBool(False)


@nodeclass(frozen=True)
class VCtype(Value):
    ty: CType

    def __repr__(self) -> str:
        return f"'{self.ty}'"


@nodeclass(frozen=True)
class VTuple(Value):
    items: Tuple[Value, ...]

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(v) for v in self.items) + ")"


@nodeclass(frozen=True)
class VList(Value):
    items: Tuple[Value, ...]


@nodeclass(frozen=True)
class VInteger(Value):
    ival: IntegerValue

    def __repr__(self) -> str:
        return repr(self.ival)


@nodeclass(frozen=True)
class VFloating(Value):
    fval: FloatingValue


@nodeclass(frozen=True)
class VPointer(Value):
    ptr: PointerValue

    def __repr__(self) -> str:
        return repr(self.ptr)


@nodeclass(frozen=True)
class VFunction(Value):
    """A C function designator value."""

    name: str

    def __repr__(self) -> str:
        return f"cfunction({self.name})"


@nodeclass(frozen=True)
class VSpecified(Value):
    """Specified(object_value): a non-unspecified loaded value."""

    value: Value

    def __repr__(self) -> str:
        return f"Specified({self.value!r})"


@nodeclass(frozen=True)
class VUnspecified(Value):
    """Unspecified(ctype) (§2.4: unspecified values propagate
    daemonically through the elaborated arithmetic)."""

    ty: CType

    def __repr__(self) -> str:
        return f"Unspecified({self.ty})"


@nodeclass(frozen=True)
class VMemStruct(Value):
    """A loaded aggregate value, kept in memory-value form."""

    mv: MemValue


@nodeclass
class VScopeList(Value):
    """The mutable list of objects created in the dynamically innermost
    ``EScope`` — VLA creates append their pointers so every scope exit
    path kills them (the list object is shared with the scope's kill
    set, not copied)."""

    items: List[Value]


# --------------------------------------------------------------------------
# memory value <-> Core value conversion
# --------------------------------------------------------------------------

def mem_to_core(mv: MemValue) -> Value:
    """Convert a loaded memory value to a Core *loaded* value."""
    if isinstance(mv, MVInteger):
        return VSpecified(VInteger(mv.ival))
    if isinstance(mv, MVUnspecified):
        return VUnspecified(mv.ty)
    if isinstance(mv, MVFloating):
        return VSpecified(VFloating(mv.fval))
    if isinstance(mv, MVPointer):
        return VSpecified(VPointer(mv.ptr))
    if isinstance(mv, (MVArray, MVStruct, MVUnion)):
        return VSpecified(VMemStruct(mv))
    raise InternalError(f"mem_to_core: {type(mv).__name__}")


def core_to_mem(ty: CType, value: Value) -> MemValue:
    """Convert a Core loaded value back to a memory value for a store of
    C type ``ty``."""
    if isinstance(value, VSpecified):
        value = value.value
    elif isinstance(value, VUnspecified):
        return MVUnspecified(value.ty)
    if isinstance(value, VInteger):
        assert isinstance(ty, Integer), f"integer store at {ty}"
        return MVInteger(ty, value.ival)
    if isinstance(value, VFloating):
        assert isinstance(ty, Floating)
        return MVFloating(ty, value.fval)
    if isinstance(value, VPointer):
        assert isinstance(ty, Pointer), f"pointer store at {ty}"
        return MVPointer(ty.to, value.ptr)
    if isinstance(value, VMemStruct):
        return value.mv
    raise InternalError(
        f"core_to_mem: cannot store {type(value).__name__} at {ty}")


# --------------------------------------------------------------------------
# pattern matching
# --------------------------------------------------------------------------

def match_pattern(pat: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Match a Core pattern against a value; returns bindings or None."""
    if isinstance(pat, PatWild):
        return {}
    if isinstance(pat, PatSym):
        return {pat.name: value}
    assert isinstance(pat, PatCtor)
    ctor = pat.ctor
    if ctor == "Tuple":
        if not isinstance(value, VTuple) or \
                len(value.items) != len(pat.args):
            return None
        bindings: Dict[str, Value] = {}
        for sub, item in zip(pat.args, value.items):
            b = match_pattern(sub, item)
            if b is None:
                return None
            bindings.update(b)
        return bindings
    if ctor == "Specified":
        if not isinstance(value, VSpecified):
            return None
        return match_pattern(pat.args[0], value.value)
    if ctor == "Unspecified":
        if not isinstance(value, VUnspecified):
            return None
        return match_pattern(pat.args[0], VCtype(value.ty))
    if ctor == "True":
        return {} if value == TRUE else None
    if ctor == "False":
        return {} if value == FALSE else None
    if ctor == "Unit":
        return {} if isinstance(value, VUnit) else None
    if ctor == "Nil":
        return {} if isinstance(value, VList) and not value.items else None
    if ctor == "Cons":
        if not isinstance(value, VList) or not value.items:
            return None
        head = match_pattern(pat.args[0], value.items[0])
        if head is None:
            return None
        tail = match_pattern(pat.args[1], VList(value.items[1:]))
        if tail is None:
            return None
        head.update(tail)
        return head
    raise InternalError(f"match_pattern: unknown constructor {ctor}")


def truthy(value: Value) -> bool:
    """Core booleans only; anything else is an internal error."""
    if isinstance(value, VBool):
        return value.b
    raise InternalError(f"expected boolean, got {value!r}")
