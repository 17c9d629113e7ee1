"""Implementation-defined environments (ISO C11 §J.3).

The paper's elaboration consults "definitions of implementation-defined
constants" (Fig. 2 caption); we package those as an
:class:`Implementation` object: integer sizes and alignments, char
signedness, endianness, and struct/union layout. Three environments are
provided: LP64 (the mainstream x86-64 ABI — the default), ILP32, and
CHERI128 (capability pointers of 16 bytes, as on the CHERI processor of
paper §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import InternalError
from .types import (
    Array, CType, Floating, FloatKind, Function, Integer, IntKind, Pointer,
    QualType, StructRef, TagEnv, UnionRef, VarArray, Void,
)


@dataclass(frozen=True)
class Implementation:
    """One implementation-defined environment.

    All mainstream assumptions the paper highlights (§1: 8-bit bytes,
    two's complement, non-segmented memory) are baked in; what varies is
    parameterised here.
    """

    name: str
    int_sizes: Dict[IntKind, int] = field(default_factory=dict)
    int_aligns: Dict[IntKind, int] = field(default_factory=dict)
    float_sizes: Dict[FloatKind, int] = field(default_factory=dict)
    pointer_size: int = 8
    pointer_align: int = 8
    char_is_signed: bool = True
    little_endian: bool = True
    # Whether plain `int` bitwise ops on uintptr_t act on the capability
    # offset (the CHERI misbehaviour of paper §4); only CHERI sets this.
    capability_pointers: bool = False

    # -- integer ranges ------------------------------------------------------

    def sizeof_int(self, kind: IntKind) -> int:
        return self.int_sizes[kind]

    def alignof_int(self, kind: IntKind) -> int:
        return self.int_aligns[kind]

    def is_signed(self, kind: IntKind) -> bool:
        if kind is IntKind.CHAR:
            return self.char_is_signed
        return kind in (IntKind.SCHAR, IntKind.SHORT, IntKind.INT,
                        IntKind.LONG, IntKind.LLONG)

    def width(self, kind: IntKind) -> int:
        if kind is IntKind.BOOL:
            return 1
        return self.sizeof_int(kind) * 8

    def int_min(self, kind: IntKind) -> int:
        if not self.is_signed(kind):
            return 0
        return -(1 << (self.width(kind) - 1))

    def int_max(self, kind: IntKind) -> int:
        if kind is IntKind.BOOL:
            return 1
        w = self.width(kind)
        if self.is_signed(kind):
            return (1 << (w - 1)) - 1
        return (1 << w) - 1

    # -- sizeof / alignof over full types ------------------------------------

    def sizeof(self, ty: CType, tags: TagEnv) -> int:
        if isinstance(ty, Integer):
            return self.sizeof_int(ty.kind)
        if isinstance(ty, Floating):
            return self.float_sizes[ty.kind]
        if isinstance(ty, Pointer):
            return self.pointer_size
        if isinstance(ty, Array):
            if ty.size is None:
                raise InternalError("sizeof incomplete array type")
            return ty.size * self.sizeof(ty.of.ty, tags)
        if isinstance(ty, VarArray):
            raise InternalError(
                "sizeof of a variable length array type is a runtime "
                "value (the elaboration loads its hidden size variable)")
        if isinstance(ty, (StructRef, UnionRef)):
            return self.layout(ty, tags).size
        if isinstance(ty, Void):
            raise InternalError("sizeof void")
        if isinstance(ty, Function):
            raise InternalError("sizeof function type")
        raise InternalError(f"sizeof: unhandled type {ty}")

    def alignof(self, ty: CType, tags: TagEnv) -> int:
        if isinstance(ty, Integer):
            return self.alignof_int(ty.kind)
        if isinstance(ty, Floating):
            return self.float_sizes[ty.kind] if ty.kind is not \
                FloatKind.LDOUBLE else 16
        if isinstance(ty, Pointer):
            return self.pointer_align
        if isinstance(ty, (Array, VarArray)):
            return self.alignof(ty.of.ty, tags)
        if isinstance(ty, (StructRef, UnionRef)):
            return self.layout(ty, tags).align
        raise InternalError(f"alignof: unhandled type {ty}")

    def layout(self, ty: CType, tags: TagEnv) -> "RecordLayout":
        """Compute the layout of a struct/union, including bit-field
        allocation-unit packing (§6.7.2.1p11, the SysV-style rules all
        four LP64 environments and CHERI128 share): consecutive
        bit-fields pack into the storage units of their declared types,
        a bit-field never straddles a storage-unit boundary of its
        declared type, a zero-width bit-field closes the current unit,
        and (unlike GCC's ``-mms-bitfields``) a non-zero-width
        bit-field contributes its declared type's alignment to the
        struct."""
        assert isinstance(ty, (StructRef, UnionRef))
        defn = tags.require(ty.tag)
        if not defn.complete:
            raise InternalError(f"layout of incomplete type {ty}")
        fields: List[FieldLayout] = []
        if isinstance(ty, UnionRef):
            size = 0
            align = 1
            for m in defn.members:
                if m.bit_width is not None and (m.name is None
                                                or m.bit_width == 0):
                    continue  # anonymous bit-fields do not pack unions
                msize = self.sizeof(m.qty.ty, tags)
                malign = self.alignof(m.qty.ty, tags)
                if m.bit_width is not None:
                    fields.append(FieldLayout(m.name, 0, m.qty,
                                              bit_offset=0,
                                              bit_width=m.bit_width))
                else:
                    fields.append(FieldLayout(m.name, 0, m.qty))
                size = max(size, msize)
                align = max(align, malign)
            size = _round_up(max(size, 1), align)
            return RecordLayout(size, align, fields)
        bit = 0  # running offset in *bits* from the start of the struct
        align = 1
        for m in defn.members:
            if m.bit_width is not None:
                unit_bits = self.sizeof(m.qty.ty, tags) * 8
                if m.bit_width == 0:
                    # §6.7.2.1p12: close the current allocation unit.
                    bit = _round_up(bit, unit_bits)
                    continue
                if bit // unit_bits != \
                        (bit + m.bit_width - 1) // unit_bits:
                    # Would straddle a storage-unit boundary of the
                    # declared type: start a fresh unit.
                    bit = _round_up(bit, unit_bits)
                if m.name is not None:
                    fields.append(FieldLayout(m.name, bit // 8, m.qty,
                                              bit_offset=bit % 8,
                                              bit_width=m.bit_width))
                align = max(align, self.alignof(m.qty.ty, tags))
                bit += m.bit_width
                continue
            malign = self.alignof(m.qty.ty, tags)
            msize = self.sizeof(m.qty.ty, tags)
            off = _round_up(_round_up(bit, 8) // 8, malign)
            fields.append(FieldLayout(m.name, off, m.qty))
            bit = (off + msize) * 8
            align = max(align, malign)
        size = _round_up(max((bit + 7) // 8, 1), align)
        return RecordLayout(size, align, fields)

    def offsetof(self, ty: CType, member: str, tags: TagEnv) -> int:
        """Byte offset of a member.  For a bit-field this is the offset
        of the first byte its bits occupy (the target of
        ``member_shift``; user-level ``offsetof`` of a bit-field is
        rejected by the type checker, §7.19p3)."""
        lay = self.layout(ty, tags)
        for f in lay.fields:
            if f.name == member:
                return f.offset
        raise InternalError(f"offsetof: no member {member} in {ty}")

    def field_layout(self, tag: str, member: str,
                     tags: TagEnv) -> "FieldLayout":
        """The full layout record of one member of a tagged type."""
        defn = tags.require(tag)
        ref: CType = UnionRef(tag) if defn.is_union else StructRef(tag)
        for f in self.layout(ref, tags).fields:
            if f.name == member:
                return f
        raise InternalError(f"no member {member} in {ref}")

    def padding_bytes(self, ty: CType, tags: TagEnv) -> List[int]:
        """Offsets (within the record) of bytes that are entirely
        padding — used by the padding-semantics experiments (paper
        §2.5, Q37-Q49).  Recurses into nested structs/unions and array
        elements so interior and trailing padding of nested records is
        reported at its element offsets, and treats the bytes of
        bit-field storage units as covered when any member's bits touch
        them."""
        size = self.sizeof(ty, tags)
        covered = [False] * size
        self._mark_covered(ty, 0, covered, tags)
        return [i for i, c in enumerate(covered) if not c]

    def _mark_covered(self, ty: CType, base: int, covered: List[bool],
                      tags: TagEnv) -> None:
        if isinstance(ty, Array):
            assert ty.size is not None
            esize = self.sizeof(ty.of.ty, tags)
            for i in range(ty.size):
                self._mark_covered(ty.of.ty, base + i * esize, covered,
                                   tags)
            return
        if isinstance(ty, (StructRef, UnionRef)):
            for f in self.layout(ty, tags).fields:
                if f.bit_width is not None:
                    first = base + f.offset
                    last = base + f.offset + \
                        (f.bit_offset + f.bit_width - 1) // 8
                    for i in range(first, last + 1):
                        covered[i] = True
                    continue
                self._mark_covered(f.qty.ty, base + f.offset, covered,
                                   tags)
            return
        for i in range(base, base + self.sizeof(ty, tags)):
            covered[i] = True


@dataclass(frozen=True)
class FieldLayout:
    """Layout of one member.  Ordinary members have ``bit_offset is
    None``; a bit-field member occupies ``bit_width`` bits starting
    ``bit_offset`` bits (0-7) into the byte at ``offset``.  Iterating
    yields the historical ``(name, offset, qty)`` triple so existing
    ``for name, off, qty in lay.fields`` loops keep working."""

    name: str
    offset: int
    qty: QualType
    bit_offset: Optional[int] = None
    bit_width: Optional[int] = None

    def __iter__(self):
        return iter((self.name, self.offset, self.qty))


@dataclass(frozen=True)
class RecordLayout:
    size: int
    align: int
    fields: List[FieldLayout]


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def _sizes(char=1, short=2, int_=4, long=8, llong=8) -> Dict[IntKind, int]:
    return {
        IntKind.BOOL: 1, IntKind.CHAR: char, IntKind.SCHAR: char,
        IntKind.UCHAR: char, IntKind.SHORT: short, IntKind.USHORT: short,
        IntKind.INT: int_, IntKind.UINT: int_, IntKind.LONG: long,
        IntKind.ULONG: long, IntKind.LLONG: llong, IntKind.ULLONG: llong,
    }


LP64 = Implementation(
    name="LP64",
    int_sizes=_sizes(long=8),
    int_aligns=_sizes(long=8),
    float_sizes={FloatKind.FLOAT: 4, FloatKind.DOUBLE: 8,
                 FloatKind.LDOUBLE: 16},
    pointer_size=8,
    pointer_align=8,
    char_is_signed=True,
    little_endian=True,
)

ILP32 = Implementation(
    name="ILP32",
    int_sizes=_sizes(long=4),
    int_aligns=_sizes(long=4),
    float_sizes={FloatKind.FLOAT: 4, FloatKind.DOUBLE: 8,
                 FloatKind.LDOUBLE: 12},
    pointer_size=4,
    pointer_align=4,
    char_is_signed=True,
    little_endian=True,
)

# CHERI-128: integer sizes as LP64 but pointers are 16-byte capabilities
# (the concentrate compression of the real hardware is not modelled; the
# capability metadata lives beside the 8 address bytes).
CHERI128 = Implementation(
    name="CHERI128",
    int_sizes=_sizes(long=8),
    int_aligns=_sizes(long=8),
    float_sizes={FloatKind.FLOAT: 4, FloatKind.DOUBLE: 8,
                 FloatKind.LDOUBLE: 16},
    pointer_size=16,
    pointer_align=16,
    char_is_signed=True,
    little_endian=True,
    capability_pointers=True,
)
