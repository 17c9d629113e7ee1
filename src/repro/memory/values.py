"""Memory-model value representations (paper §5.9).

"Pointer values and integer values all contain a provenance, either empty
(for the NULL pointer and pure integer values), the original allocation ID
of the object the value was derived from, or a wildcard (for pointers from
IO)." Memory values are trees (unspecified / integer / floating / pointer
/ array / struct / union), and the representation-byte form used in the
store is a sequence of :class:`AByte` — each byte carries its own
provenance so that user code copying pointer representation bytes
("directly or indirectly") preserves the original provenance (Q13-Q16,
§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from ..ctypes.implementation import Implementation
from ..ctypes.types import (
    Array, CType, Floating, Integer, IntKind, Pointer, QualType, StructRef,
    TagEnv, UnionRef,
)
from ..errors import InternalError
from ..nodeclass import nodeclass


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------

class _Wildcard:
    """Wildcard provenance (pointers from IO / opted-out pointers)."""

    _instance: Optional["_Wildcard"] = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "@wildcard"


# A provenance is: None (empty), an allocation id (int), or the wildcard.
Provenance = Union[None, int, _Wildcard]
PROV_EMPTY: Provenance = None
PROV_WILDCARD: Provenance = _Wildcard()


def combine_provenance(a: Provenance, b: Provenance) -> Provenance:
    """The at-most-one-provenance combination rule (§5.9): arithmetic of a
    provenanced value with a pure value keeps the provenance; two values
    with *distinct* provenances yield a pure value."""
    if a is PROV_EMPTY:
        return b
    if b is PROV_EMPTY:
        return a
    if a == b:
        return a
    return PROV_EMPTY


# --------------------------------------------------------------------------
# Scalar values
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntegerValue:
    """An integer value: a mathematical integer plus a provenance (Q5:
    "Our formal model associates provenances with all integer values")."""

    value: int
    prov: Provenance = PROV_EMPTY
    # CHERI: an integer that still carries full capability metadata
    # (uintptr_t); see memory/cheri.py.
    meta: Optional[object] = None

    def pure(self) -> "IntegerValue":
        return IntegerValue(self.value)

    def __repr__(self) -> str:
        p = "" if self.prov is PROV_EMPTY else f"@{self.prov}"
        return f"{self.value}{p}"


@dataclass(frozen=True, slots=True)
class FloatingValue:
    value: float

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class PointerValue:
    """A pointer value: concrete address plus provenance (§2.1: "Abstract
    pointer values must also contain concrete addresses").

    ``meta`` carries model-specific payload (the CHERI capability)."""

    addr: int
    prov: Provenance = PROV_EMPTY
    meta: Optional[object] = None

    @property
    def is_null(self) -> bool:
        return self.addr == 0 and self.prov is PROV_EMPTY

    def with_addr(self, addr: int) -> "PointerValue":
        return replace(self, addr=addr)

    def __repr__(self) -> str:
        if self.is_null:
            return "NULL"
        p = "" if self.prov is PROV_EMPTY else f"@{self.prov}"
        return f"ptr(0x{self.addr:x}{p})"


NULL_POINTER = PointerValue(0, PROV_EMPTY)


# --------------------------------------------------------------------------
# Memory values (the trees stored/loaded by typed accesses)
# --------------------------------------------------------------------------

@nodeclass(frozen=True)
class MemValue:
    pass


@nodeclass(frozen=True)
class MVUnspecified(MemValue):
    ty: CType

    def __repr__(self) -> str:
        return f"unspec({self.ty})"


@nodeclass(frozen=True)
class MVInteger(MemValue):
    ty: Integer
    ival: IntegerValue

    def __repr__(self) -> str:
        return f"{self.ival!r}:{self.ty}"


@nodeclass(frozen=True)
class MVFloating(MemValue):
    ty: Floating
    fval: FloatingValue


@nodeclass(frozen=True)
class MVPointer(MemValue):
    to: QualType
    ptr: PointerValue

    def __repr__(self) -> str:
        return f"{self.ptr!r}"


@nodeclass(frozen=True)
class MVArray(MemValue):
    elem_ty: CType
    elems: Tuple[MemValue, ...]


@nodeclass(frozen=True)
class MVStruct(MemValue):
    tag: str
    members: Tuple[Tuple[str, MemValue], ...]


@nodeclass(frozen=True)
class MVUnion(MemValue):
    tag: str
    member: str
    value: MemValue


# --------------------------------------------------------------------------
# Abstract bytes
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AByte:
    """One byte of the object representation.

    * ``value`` — the concrete byte, or None when unspecified
      (uninitialised memory / padding, §2.4-2.5);
    * ``prov`` — the provenance carried by this byte (per-byte so that
      byte-wise pointer copying works, §2.3);
    * ``ptr_frag`` — if this byte came from a pointer representation:
      (pointer value, byte index), letting models that cannot fabricate
      capabilities from raw bytes (CHERI) rebuild the pointer exactly.
    """

    value: Optional[int] = None
    prov: Provenance = PROV_EMPTY
    ptr_frag: Optional[Tuple[PointerValue, int]] = None

    @property
    def is_unspecified(self) -> bool:
        return self.value is None


UNSPEC_BYTE = AByte()

#: Interned pure bytes (no provenance, no fragment) — the common case
#: for every integer store; AByte is frozen, so sharing is safe.
_PURE_BYTES = tuple(AByte(i) for i in range(256))


# --------------------------------------------------------------------------
# repify / abstify: memory values <-> abstract bytes
# --------------------------------------------------------------------------

class ValueCodec:
    """Encoding/decoding of memory values to abstract byte sequences for a
    given implementation environment and tag table."""

    def __init__(self, impl: Implementation, tags: TagEnv):
        self.impl = impl
        self.tags = tags
        # Per-pointer-object representation cache: storing the same
        # (frozen) PointerValue repeatedly — a pointer argument passed
        # in a loop — re-creates identical fragment bytes each time.
        # The cached entry keeps the pointer alive so its id is stable;
        # callers never mutate repify results in place.
        self._ptr_rep: Dict[int, Tuple[PointerValue, List[AByte]]] = {}

    # -- encoding ------------------------------------------------------------

    def repify(self, ty: CType, value: MemValue) -> List[AByte]:
        """Object representation of ``value`` at type ``ty`` (§6.2.6.1)."""
        size = self.impl.sizeof(ty, self.tags)
        if isinstance(value, MVUnspecified):
            return [UNSPEC_BYTE] * size
        if isinstance(value, MVInteger):
            return self._rep_integer(value.ival, size)
        if isinstance(value, MVFloating):
            return self._rep_float(value.fval, size)
        if isinstance(value, MVPointer):
            return self._rep_pointer(value.ptr, size)
        if isinstance(value, MVArray):
            assert isinstance(ty, Array)
            out: List[AByte] = []
            for elem in value.elems:
                out.extend(self.repify(ty.of.ty, elem))
            if len(out) < size:
                out.extend([UNSPEC_BYTE] * (size - len(out)))
            return out
        if isinstance(value, MVStruct):
            assert isinstance(ty, StructRef)
            lay = self.impl.layout(ty, self.tags)
            out = [UNSPEC_BYTE] * size  # padding bytes unspecified
            values = dict(value.members)
            for f in lay.fields:
                if f.name not in values:
                    continue
                mv = values[f.name]
                if f.bit_width is not None:
                    if not isinstance(mv, MVInteger):
                        continue  # unspecified bit-field: bytes stay so
                    _insert_bits(out, f.offset * 8 + f.bit_offset,
                                 f.bit_width, mv.ival.value)
                    continue
                enc = self.repify(f.qty.ty, mv)
                out[f.offset:f.offset + len(enc)] = enc
            return out
        if isinstance(value, MVUnion):
            assert isinstance(ty, UnionRef)
            defn = self.tags.require(ty.tag)
            member = defn.member(value.member)
            if member is None:
                raise InternalError(f"union member {value.member} missing")
            if member.bit_width is not None:
                out = [UNSPEC_BYTE] * size
                if isinstance(value.value, MVInteger):
                    _insert_bits(out, 0, member.bit_width,
                                 value.value.ival.value)
                return out
            enc = self.repify(member.qty.ty, value.value)
            return enc + [UNSPEC_BYTE] * (size - len(enc))
        raise InternalError(f"repify: unhandled {type(value).__name__}")

    def _rep_integer(self, ival: IntegerValue, size: int) -> List[AByte]:
        w = size * 8
        raw = ival.value & ((1 << w) - 1)
        data = raw.to_bytes(size, "little" if self.impl.little_endian
                            else "big")
        if ival.meta is not None:
            # A capability-carrying integer (CHERI uintptr_t): keep the
            # metadata alive across the byte round-trip via a carrier
            # fragment, as the hardware does via tagged memory.
            carrier = PointerValue(ival.value, ival.prov,
                                   meta=ival.meta)
            return [AByte(b, ival.prov, (carrier, i))
                    for i, b in enumerate(data)]
        if ival.prov is PROV_EMPTY:
            pure = _PURE_BYTES
            return [pure[b] for b in data]
        return [AByte(b, ival.prov) for b in data]

    def _rep_float(self, fval: FloatingValue, size: int) -> List[AByte]:
        import struct
        if size == 4:
            data = struct.pack("<f", fval.value)
        elif size == 8:
            data = struct.pack("<d", fval.value)
        else:  # long double: stored as 8-byte double + unspecified pad
            data = struct.pack("<d", fval.value) + b"\x00" * (size - 8)
        return [AByte(b) for b in data]

    def _rep_pointer(self, ptr: PointerValue, size: int) -> List[AByte]:
        hit = self._ptr_rep.get(id(ptr))
        if hit is not None and hit[0] is ptr and len(hit[1]) == size:
            return hit[1]
        addr_size = min(size, 8)
        data = (ptr.addr & ((1 << (addr_size * 8)) - 1)).to_bytes(
            addr_size, "little" if self.impl.little_endian else "big")
        out = [AByte(b, ptr.prov, (ptr, i)) for i, b in enumerate(data)]
        # Capability pointers are wider than the address: metadata bytes.
        for i in range(addr_size, size):
            out.append(AByte(0, ptr.prov, (ptr, i)))
        if len(self._ptr_rep) > 4096:
            self._ptr_rep.clear()
        self._ptr_rep[id(ptr)] = (ptr, out)
        return out

    # -- decoding ------------------------------------------------------------

    def abstify(self, ty: CType, data: List[AByte]) -> MemValue:
        """Recover a memory value of type ``ty`` from representation
        bytes; unspecified bytes poison scalars to MVUnspecified."""
        if isinstance(ty, Integer):
            return self._abst_integer(ty, data)
        if isinstance(ty, Floating):
            return self._abst_float(ty, data)
        if isinstance(ty, Pointer):
            return self._abst_pointer(ty, data)
        if isinstance(ty, Array):
            assert ty.size is not None
            esize = self.impl.sizeof(ty.of.ty, self.tags)
            elems = tuple(
                self.abstify(ty.of.ty, data[i * esize:(i + 1) * esize])
                for i in range(ty.size))
            return MVArray(ty.of.ty, elems)
        if isinstance(ty, StructRef):
            lay = self.impl.layout(ty, self.tags)
            members = []
            for f in lay.fields:
                if f.bit_width is not None:
                    members.append((f.name, self._abst_bits(
                        f.qty.ty, data,
                        f.offset * 8 + f.bit_offset, f.bit_width)))
                    continue
                msize = self.impl.sizeof(f.qty.ty, self.tags)
                members.append((f.name, self.abstify(
                    f.qty.ty, data[f.offset:f.offset + msize])))
            return MVStruct(ty.tag, tuple(members))
        if isinstance(ty, UnionRef):
            defn = self.tags.require(ty.tag)
            member = next((m for m in defn.members
                           if m.name is not None), None)
            if member is None:
                return MVUnspecified(ty)
            if member.bit_width is not None:
                return MVUnion(ty.tag, member.name, self._abst_bits(
                    member.qty.ty, data, 0, member.bit_width))
            msize = self.impl.sizeof(member.qty.ty, self.tags)
            return MVUnion(ty.tag, member.name,
                           self.abstify(member.qty.ty, data[:msize]))
        raise InternalError(f"abstify: unhandled type {ty}")

    def _abst_bits(self, ty: CType, data: List[AByte], bit_pos: int,
                   width: int) -> MemValue:
        """Decode one bit-field from representation bytes."""
        assert isinstance(ty, Integer)
        raw = _extract_bits(data, bit_pos, width)
        if raw is None:
            return MVUnspecified(ty)
        if self.impl.is_signed(ty.kind) and \
                ty.kind is not IntKind.BOOL and (raw >> (width - 1)) & 1:
            raw -= 1 << width
        return MVInteger(ty, IntegerValue(raw))

    def _abst_integer(self, ty: Integer, data: List[AByte]) -> MemValue:
        # Hot path (one call per integer load): the unspecified check,
        # byte extraction, and purity test are fused into one pass so
        # the provenance/fragment scans only run when a byte carries
        # either.
        vals = []
        pure = True
        for b in data:
            if b.value is None:
                return MVUnspecified(ty)
            vals.append(b.value)
            if b.prov is not PROV_EMPTY or b.ptr_frag is not None:
                pure = False
        value = int.from_bytes(bytes(vals),
                               "little" if self.impl.little_endian
                               else "big")
        if self.impl.is_signed(ty.kind):
            w = len(data) * 8
            if value >= (1 << (w - 1)):
                value -= 1 << w
        if pure:
            return MVInteger(ty, IntegerValue(value))
        prov = _combined_byte_provenance(data)
        meta = None
        frag = _whole_pointer_fragment(data)
        if frag is not None:
            # A bytewise-copied pointer read at integer type: carry the
            # capability (CHERI) or the pointer fragment itself.
            if frag.meta is not None and not isinstance(frag.meta,
                                                        tuple):
                meta = frag.meta
            else:
                meta = frag
        return MVInteger(ty, IntegerValue(value, prov, meta))

    def _abst_float(self, ty: Floating, data: List[AByte]) -> MemValue:
        import struct
        if any(b.is_unspecified for b in data):
            return MVUnspecified(ty)
        raw = bytes(b.value for b in data)  # type: ignore[misc]
        if len(raw) == 4:
            value = struct.unpack("<f", raw)[0]
        else:
            value = struct.unpack("<d", raw[:8])[0]
        return MVFloating(ty, FloatingValue(value))

    def _abst_pointer(self, ty: Pointer, data: List[AByte]) -> MemValue:
        for b in data:
            if b.value is None:
                return MVUnspecified(ty)
        frag = _whole_pointer_fragment(data)
        if frag is not None:
            return MVPointer(ty.to, frag)
        addr_size = min(len(data), 8)
        raw = bytes(b.value for b in data[:addr_size])  # type: ignore[misc]
        addr = int.from_bytes(raw, "little" if self.impl.little_endian
                              else "big")
        prov = _combined_byte_provenance(data)
        return MVPointer(ty.to, PointerValue(addr, prov))


def _insert_bits(out: List[AByte], bit_pos: int, width: int,
                 value: int) -> None:
    """Read-modify-write ``width`` bits of ``value`` into the byte list
    at absolute (little-endian) bit position ``bit_pos``, preserving
    every other bit.  An unspecified target byte materialises with its
    non-field bits zero (the byte-granular representation cannot keep
    individual bits indeterminate)."""
    field = value & ((1 << width) - 1)
    first = bit_pos // 8
    last = (bit_pos + width - 1) // 8
    for i in range(first, last + 1):
        lo = max(bit_pos, i * 8)
        hi = min(bit_pos + width, (i + 1) * 8)
        byte_mask = ((1 << (hi - i * 8)) - 1) ^ ((1 << (lo - i * 8)) - 1)
        cur = out[i]
        base = 0 if cur.is_unspecified else cur.value
        chunk = ((field >> (lo - bit_pos)) << (lo - i * 8)) & byte_mask
        out[i] = AByte((base & ~byte_mask) | chunk)


def _extract_bits(data: List[AByte], bit_pos: int,
                  width: int) -> Optional[int]:
    """Read ``width`` bits at ``bit_pos`` from representation bytes;
    None when any byte the field's bits touch is unspecified."""
    first = bit_pos // 8
    last = (bit_pos + width - 1) // 8
    if any(b.is_unspecified for b in data[first:last + 1]):
        return None
    raw = 0
    for i in range(first, last + 1):
        raw |= data[i].value << ((i - first) * 8)  # type: ignore[operator]
    return (raw >> (bit_pos - first * 8)) & ((1 << width) - 1)


def _combined_byte_provenance(data: List[AByte]) -> Provenance:
    """All bytes agreeing on one allocation id -> that id; any mixture ->
    empty (the access-time check will then fail in provenance models)."""
    prov = PROV_EMPTY
    for b in data:
        p = b.prov
        if p is PROV_EMPTY or p is prov:
            continue
        if prov is PROV_EMPTY:
            prov = p
        elif p != prov:
            return PROV_EMPTY
    return prov


def _whole_pointer_fragment(data: List[AByte]) -> Optional[PointerValue]:
    """If the bytes are exactly the in-order fragments of one pointer
    value, return it (exact bytewise pointer copy)."""
    if not data or data[0].ptr_frag is None:
        return None
    ptr, idx0 = data[0].ptr_frag
    if idx0 != 0:
        return None
    for i, b in enumerate(data):
        if b.ptr_frag is None:
            return None
        p, idx = b.ptr_frag
        if idx != i or p is not ptr and p != ptr:
            return None
    return ptr


def zero_value(ty: CType, impl: Implementation, tags: TagEnv) -> MemValue:
    """The static zero-initialisation value for a type (§6.7.9p10)."""
    if isinstance(ty, Integer):
        return MVInteger(ty, IntegerValue(0))
    if isinstance(ty, Floating):
        return MVFloating(ty, FloatingValue(0.0))
    if isinstance(ty, Pointer):
        return MVPointer(ty.to, NULL_POINTER)
    if isinstance(ty, Array):
        assert ty.size is not None
        elem = zero_value(ty.of.ty, impl, tags)
        return MVArray(ty.of.ty, tuple(elem for _ in range(ty.size)))
    if isinstance(ty, StructRef):
        defn = tags.require(ty.tag)
        return MVStruct(ty.tag, tuple(
            (m.name, zero_value(m.qty.ty, impl, tags))
            for m in defn.members if m.name is not None))
    if isinstance(ty, UnionRef):
        defn = tags.require(ty.tag)
        m = next((m for m in defn.members if m.name is not None), None)
        if m is None:
            return MVUnspecified(ty)
        return MVUnion(ty.tag, m.name, zero_value(m.qty.ty, impl, tags))
    raise InternalError(f"zero_value: unhandled type {ty}")
