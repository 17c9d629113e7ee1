"""The memory object model interface and its reference machinery.

The Core dynamics calls into a :class:`MemoryModel` for every create /
kill / load / store action and for every pointer operation that involves
the memory state (paper Fig. 2: ``ptrop``). All four concrete models in
this package share this machinery and differ mostly in their
:class:`MemoryOptions` — the knobs correspond directly to the de facto
questions of paper §2 (Q2, Q5, Q9, Q25, Q31, Q48-Q59, Q62, Q73-Q81...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ctypes.implementation import Implementation
from ..ctypes.types import (
    Array, CType, Integer, IntKind, Pointer, QualType, StructRef, TagEnv,
    UnionRef, is_character,
)
from ..errors import InternalError
from .. import ub
from .values import (
    AByte, IntegerValue, MemValue, MVInteger, MVUnspecified, NULL_POINTER,
    PointerValue, PROV_EMPTY, PROV_WILDCARD, UNSPEC_BYTE, ValueCodec,
)


# The model's allocation bound for one variable length array object:
# a VLA whose byte size exceeds this is reported as the dedicated
# VLA_size_too_large undefined behaviour (the de facto stack-overflow
# outcome) rather than materialising an absurd byte store.
VLA_CAP_BYTES = 1 << 26


class MemoryError_(Exception):
    """An undefined behaviour detected by the memory model; the driver
    re-raises it as :class:`repro.ub.UndefinedBehaviour` with the C
    source location attached."""

    def __init__(self, entry: ub.UBName, detail: str = ""):
        self.entry = entry
        self.detail = detail
        super().__init__(f"{entry.name}: {detail}")


@dataclass(frozen=True, slots=True)
class Footprint:
    """The byte footprint of one memory action."""

    addr: int
    size: int

    def overlaps(self, other: "Footprint") -> bool:
        return (self.addr < other.addr + other.size
                and other.addr < self.addr + self.size)


class AllocationKind:
    STATIC = "static"
    AUTOMATIC = "automatic"
    DYNAMIC = "dynamic"


@dataclass(slots=True)
class Allocation:
    aid: int
    base: int
    size: int
    kind: str
    name: str
    align: int
    declared_ty: Optional[CType]
    alive: bool = True
    readonly: bool = False
    data: List[AByte] = field(default_factory=list)
    # Effective-type tracking (§6.5p6-7), used by the strict model: the
    # effective type of the whole allocation or of sub-ranges, recorded as
    # offset -> type of the last non-character store.
    effective: Dict[int, CType] = field(default_factory=dict)

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.base + self.size


@dataclass
class MemoryOptions:
    """Semantic knobs, each tied to design-space questions of §2."""

    # Q48/Q49 (§2.4): reading an uninitialised object —
    # "ub" (option 1), "unspecified" (options 2/3: propagate an
    # unspecified value daemonically), or "stable" (option 4: materialise
    # an arbitrary-but-stable concrete value on first read).
    uninit_read: str = "unspecified"
    # §2.5 padding: what a *member* store does to subsequent padding —
    # "keep" (option 4), "unspec" (option 2), "zero" (option 3).
    padding_on_member_store: str = "keep"
    # Q25 [7/15]: relational comparison of pointers to different objects.
    allow_inter_object_relational: bool = True
    # Q9: pointer subtraction across objects.
    allow_inter_object_ptrdiff: bool = False
    # Q31 [9/15]: transient out-of-bounds pointer construction.
    allow_oob_construction: bool = True
    # Q2: may == take provenance into account (nondeterministically)?
    provenance_sensitive_equality: bool = False
    # Q5: track provenance through integers (GCC-documented cast rule).
    track_int_provenance: bool = True
    # Whether access-time checks consult provenance at all (the concrete
    # model turns this off: raw address semantics).
    check_provenance: bool = False
    # Effective types (§2.6, Q73-Q81): TBAA-style checking. The candidate
    # de facto model keeps this off (-fno-strict-aliasing world).
    check_effective_types: bool = False
    # Whether reads through pointers with empty provenance trap.
    reject_empty_provenance: bool = False
    # Null/invalid-address accesses always trap (all models).
    # Lay out file-scope objects in reverse declaration order (matching
    # the GCC placement observed for the paper's DR260 example, where
    # `int y=2, x=1;` puts x immediately below y).
    globals_reversed: bool = True
    # Address bases per storage kind (quasi-realistic split layout).
    static_base: int = 0x1000
    stack_base: int = 0x7FFF_0000
    heap_base: int = 0x4000_0000


class MemoryModel:
    """The shared reference implementation; subclasses tune options and
    override hooks."""

    name = "base"

    def __init__(self, impl: Implementation, tags: TagEnv,
                 options: Optional[MemoryOptions] = None):
        self.impl = impl
        self.tags = tags
        self.options = options or MemoryOptions()
        self.codec = ValueCodec(impl, tags)
        self.allocations: Dict[int, Allocation] = {}
        # Live subset of ``allocations``: address-based lookups must not
        # scan the (ever-growing) dead majority on every access.
        self._live: Dict[int, Allocation] = {}
        # Most-recently-hit allocation: accesses cluster heavily on one
        # object (loop counters, accumulators), so check it first.
        self._last_hit: Optional[Allocation] = None
        self._next_aid = 1
        self._static_top = self.options.static_base
        self._stack_top = self.options.stack_base
        self._heap_top = self.options.heap_base
        # Oracle for model-level nondeterminism (set by the driver).
        self.choose: Callable[[str, int], int] = lambda tag, n: 0
        # "stable" uninit materialisation counter (deterministic pattern).
        self._stable_seed = 0xA5
        # Per-type-object size/align cache for the access hot path; the
        # cached entry keeps the type alive so its id cannot be reused.
        self._ty_cache: Dict[int, tuple] = {}
        # Access fast-path flags, fixed at construction (options are
        # never mutated after init).  A model that neither checks
        # provenance nor overrides ``_locate`` lets load/store resolve
        # the target allocation straight from the MRU hit; the other
        # two skip the per-access calls into checks their options turn
        # into no-ops.
        self._plain_locate = (
            type(self)._locate is MemoryModel._locate
            and not self.options.check_provenance)
        self._check_et = self.options.check_effective_types
        self._pad_keep = self.options.padding_on_member_store == "keep"

    def _size_align(self, ty: CType) -> Tuple[int, int]:
        hit = self._ty_cache.get(id(ty))
        if hit is None:
            hit = (ty, self.impl.sizeof(ty, self.tags),
                   self.impl.alignof(ty, self.tags))
            self._ty_cache[id(ty)] = hit
        return hit[1], hit[2]

    # -- allocation --------------------------------------------------------------

    def _align_up(self, addr: int, align: int) -> int:
        return (addr + align - 1) // align * align

    def create(self, ty: CType, align: int, name: str,
               kind: str = AllocationKind.AUTOMATIC,
               readonly: bool = False,
               initial: Optional[MemValue] = None) -> PointerValue:
        """The Core ``create`` action: a typed object allocation."""
        size = self.impl.sizeof(ty, self.tags)
        return self._allocate(size, align, name, kind, ty, readonly,
                              initial)

    def alloc_region(self, size: int, align: int,
                     name: str = "malloc") -> PointerValue:
        """The Core ``alloc`` action (malloc-style untyped region)."""
        return self._allocate(size, align, name, AllocationKind.DYNAMIC,
                              None, False, None)

    def _allocate(self, size: int, align: int, name: str, kind: str,
                  ty: Optional[CType], readonly: bool,
                  initial: Optional[MemValue]) -> PointerValue:
        aid = self._next_aid
        self._next_aid += 1
        align = max(align, 1)
        if size >= 16:
            # De facto: linkers and allocators align largeish objects to
            # 16 bytes, which is what lets the Q75 char-array-as-heap
            # idiom work on real implementations.
            align = max(align, 16)
        if kind == AllocationKind.STATIC:
            base = self._align_up(self._static_top, align)
            self._static_top = base + max(size, 1)
        elif kind == AllocationKind.DYNAMIC:
            base = self._align_up(self._heap_top, align)
            self._heap_top = base + max(size, 1) + 16  # red zone
        else:
            base = self._align_up(self._stack_top, align)
            self._stack_top = base + max(size, 1)
        data: List[AByte]
        if initial is not None and ty is not None:
            # Copy: repify may return a cached (shared) byte list, and
            # this list becomes the allocation's mutable buffer.
            data = list(self.codec.repify(ty, initial))
        else:
            data = [UNSPEC_BYTE] * size
        alloc = Allocation(aid, base, size, kind, name, align, ty,
                           data=data, readonly=readonly)
        self.allocations[aid] = alloc
        self._live[aid] = alloc
        if ty is not None:
            alloc.effective[0] = ty
        return self.make_pointer(alloc)

    def make_pointer(self, alloc: Allocation) -> PointerValue:
        return PointerValue(alloc.base, alloc.aid
                            if self._models_provenance() else alloc.aid)

    def _models_provenance(self) -> bool:
        return True  # provenance is always *recorded*; checking varies

    def kill(self, ptr: PointerValue, dyn: bool) -> None:
        """End an object's lifetime (Core ``kill``)."""
        alloc = self._find_allocation_for_kill(ptr, dyn)
        if dyn:
            if alloc is None:
                if ptr.is_null:
                    return  # free(NULL) is a no-op (§7.22.3.3p2)
                raise MemoryError_(ub.FREE_INVALID_POINTER,
                                   f"free of {ptr!r}")
            if alloc.kind != AllocationKind.DYNAMIC or \
                    alloc.base != ptr.addr:
                raise MemoryError_(ub.FREE_INVALID_POINTER,
                                   f"free of {ptr!r}")
            if not alloc.alive:
                raise MemoryError_(ub.FREE_INVALID_POINTER,
                                   f"double free of {ptr!r}")
        if alloc is None:
            raise MemoryError_(ub.ACCESS_DEAD_OBJECT,
                               f"kill of unknown object {ptr!r}")
        alloc.alive = False
        self._live.pop(alloc.aid, None)

    def _find_allocation_for_kill(self, ptr: PointerValue,
                                  dyn: bool) -> Optional[Allocation]:
        if isinstance(ptr.prov, int):
            return self.allocations.get(ptr.prov)
        for alloc in self._live.values():
            if alloc.base == ptr.addr:
                return alloc
        return None

    # -- access checking -----------------------------------------------------------

    def _locate(self, ptr: PointerValue, size: int,
                writing: bool) -> Allocation:
        """Find the allocation an access goes to, applying the model's
        checking discipline."""
        if ptr.addr == 0:
            raise MemoryError_(ub.NULL_POINTER_DEREF,
                               "access through null pointer")
        opts = self.options
        if opts.check_provenance:
            prov = ptr.prov
            if prov is PROV_WILDCARD:
                alloc = self._find_live_by_address(ptr.addr, size)
                if alloc is None:
                    raise MemoryError_(
                        ub.ACCESS_OUT_OF_BOUNDS,
                        f"wildcard access at 0x{ptr.addr:x} hits no live "
                        "object")
                return alloc
            if prov is PROV_EMPTY:
                if opts.reject_empty_provenance:
                    raise MemoryError_(
                        ub.ACCESS_EMPTY_PROVENANCE,
                        f"access at 0x{ptr.addr:x} through pointer with "
                        "empty provenance")
                alloc = self._find_live_by_address(ptr.addr, size)
                if alloc is None:
                    raise MemoryError_(
                        ub.ACCESS_OUT_OF_BOUNDS,
                        f"access at 0x{ptr.addr:x} hits no live object")
                return alloc
            alloc = self.allocations.get(prov)
            if alloc is None or not alloc.alive:
                raise MemoryError_(
                    ub.ACCESS_DEAD_OBJECT,
                    f"access to dead/unknown allocation @{prov}")
            if not alloc.contains(ptr.addr, size):
                # The DR260 licence: address not consistent with the
                # pointer's original allocation (paper §2.1).
                raise MemoryError_(
                    ub.ACCESS_WRONG_PROVENANCE,
                    f"access at 0x{ptr.addr:x} (size {size}) outside "
                    f"allocation '{alloc.name}' "
                    f"[0x{alloc.base:x}..0x{alloc.base + alloc.size:x})")
            return alloc
        alloc = self._find_live_by_address(ptr.addr, size)
        if alloc is None:
            raise MemoryError_(
                ub.ACCESS_OUT_OF_BOUNDS,
                f"access at 0x{ptr.addr:x} (size {size}) hits no live "
                "object")
        return alloc

    def _find_live_by_address(self, addr: int,
                              size: int) -> Optional[Allocation]:
        hit = self._last_hit
        if hit is not None and hit.alive and hit.contains(addr, size):
            return hit
        # Newest-first: accesses cluster on recently created
        # allocations (stack locality — parameters and locals of the
        # active call), which sit at the end of the insertion-ordered
        # live index.
        for alloc in reversed(self._live.values()):
            if alloc.contains(addr, size):
                self._last_hit = alloc
                return alloc
        return None

    def _check_alignment(self, ptr: PointerValue, ty: CType) -> None:
        align = self.impl.alignof(ty, self.tags)
        if ptr.addr % align != 0:
            raise MemoryError_(
                ub.MISALIGNED_ACCESS,
                f"address 0x{ptr.addr:x} not {align}-byte aligned "
                f"for {ty}")

    def _check_effective(self, alloc: Allocation, ptr: PointerValue,
                         ty: CType, writing: bool) -> None:
        """Strict-model TBAA discipline (§2.6). Character-typed accesses
        are always permitted (§6.5p7); otherwise the lvalue type must
        match the recorded effective type at this offset."""
        if not self.options.check_effective_types:
            return
        if is_character(ty):
            return
        off = ptr.addr - alloc.base
        if alloc.declared_ty is not None:
            expected = self._subobject_type_at(alloc.declared_ty, off, ty)
            if expected is None:
                raise MemoryError_(
                    ub.EFFECTIVE_TYPE_MISMATCH,
                    f"{ty} access at offset {off} of object declared "
                    f"{alloc.declared_ty}")
            return
        if writing:
            alloc.effective[off] = ty
            return
        recorded = alloc.effective.get(off)
        if recorded is None:
            return  # reading uninitialised handled elsewhere
        if not _types_alias(recorded, ty):
            raise MemoryError_(
                ub.EFFECTIVE_TYPE_MISMATCH,
                f"{ty} read of object with effective type {recorded}")

    def _subobject_type_at(self, declared: CType, off: int,
                           want: CType) -> Optional[CType]:
        """Does `declared` contain a subobject of (alias-compatible
        type) `want` at offset `off`?"""
        if off == 0 and _types_alias(declared, want):
            return declared
        if isinstance(declared, Array):
            esize = self.impl.sizeof(declared.of.ty, self.tags)
            if esize == 0:
                return None
            return self._subobject_type_at(declared.of.ty, off % esize,
                                            want)
        if isinstance(declared, StructRef):
            lay = self.impl.layout(declared, self.tags)
            for _, foff, qty in lay.fields:
                fsize = self.impl.sizeof(qty.ty, self.tags)
                if foff <= off < foff + fsize:
                    found = self._subobject_type_at(qty.ty, off - foff,
                                                    want)
                    if found is not None:
                        return found
            return None
        if isinstance(declared, UnionRef):
            defn = self.tags.require(declared.tag)
            for m in defn.members:
                msize = self.impl.sizeof(m.qty.ty, self.tags)
                if off < msize:
                    found = self._subobject_type_at(m.qty.ty, off, want)
                    if found is not None:
                        return found
            return None
        return None

    # -- load / store ------------------------------------------------------------------

    def load(self, qty: QualType, ptr: PointerValue) -> Tuple[Footprint,
                                                              MemValue]:
        ty = qty.ty
        size, align = self._size_align(ty)
        addr = ptr.addr
        hit = self._last_hit
        if self._plain_locate and addr and hit is not None and \
                hit.alive and hit.contains(addr, size):
            alloc = hit
        else:
            alloc = self._locate(ptr, size, writing=False)
        if addr % align != 0:
            self._check_alignment(ptr, ty)
        if self._check_et:
            self._check_effective(alloc, ptr, ty, writing=False)
        off = addr - alloc.base
        data = alloc.data[off:off + size]
        value = self.codec.abstify(ty, data)
        if isinstance(value, MVUnspecified):
            value = self._uninit_policy(qty, ptr, alloc, off, size, value)
        return Footprint(ptr.addr, size), value

    def _uninit_policy(self, qty: QualType, ptr: PointerValue,
                       alloc: Allocation, off: int, size: int,
                       value: MemValue) -> MemValue:
        mode = self.options.uninit_read
        if mode == "ub":
            raise MemoryError_(
                ub.READ_UNINITIALISED,
                f"read of uninitialised object '{alloc.name}'")
        if mode == "stable" and isinstance(qty.ty, Integer):
            # Option (4) of §2.4: arbitrary but stable — materialise a
            # deterministic pattern byte into memory on first read.
            pattern = self._stable_seed & 0xFF
            for i in range(size):
                if alloc.data[off + i].is_unspecified:
                    alloc.data[off + i] = AByte(pattern)
            return self.codec.abstify(qty.ty, alloc.data[off:off + size])
        return value

    def store(self, qty: QualType, ptr: PointerValue,
              value: MemValue) -> Footprint:
        ty = qty.ty
        size, align = self._size_align(ty)
        addr = ptr.addr
        hit = self._last_hit
        if self._plain_locate and addr and hit is not None and \
                hit.alive and hit.contains(addr, size):
            alloc = hit
        else:
            alloc = self._locate(ptr, size, writing=True)
        if addr % align != 0:
            self._check_alignment(ptr, ty)
        if alloc.readonly:
            raise MemoryError_(
                ub.MODIFYING_CONST,
                f"store to read-only object '{alloc.name}'")
        if self._check_et:
            self._check_effective(alloc, ptr, ty, writing=True)
        off = addr - alloc.base
        data = self.codec.repify(ty, value)
        alloc.data[off:off + size] = data
        if not self._pad_keep:
            self._apply_padding_policy(alloc, off, ty)
        return Footprint(addr, size)

    def _apply_padding_policy(self, alloc: Allocation, off: int,
                              ty: CType) -> None:
        """§2.5: a *member* store may also clobber the padding that
        follows the member inside its enclosing struct. We apply the
        policy when the store's footprint is a strict sub-range of a
        struct-typed allocation."""
        mode = self.options.padding_on_member_store
        if mode == "keep":
            return
        decl = alloc.declared_ty
        if decl is None or not isinstance(decl, StructRef):
            return
        if isinstance(ty, StructRef):
            return  # whole-struct store: repify already set padding
        size = self.impl.sizeof(ty, self.tags)
        pad_offsets = self.impl.padding_bytes(decl, self.tags)
        # Padding bytes immediately following the stored member.
        end = off + size
        for p in pad_offsets:
            if p >= end and all(q in pad_offsets
                                for q in range(end, p + 1)):
                alloc.data[p] = UNSPEC_BYTE if mode == "unspec" \
                    else AByte(0)

    # -- bit-granular access (bit-field members, §6.7.2.1) ---------------------------

    def _locate_bits(self, ptr: PointerValue, bit_offset: int,
                     width: int, writing: bool) -> Tuple[Allocation, int,
                                                         int]:
        """Locate the byte range a bit-field access touches.  Bit-field
        accesses skip the alignment and effective-type checks: the
        access is by construction through the declared member, and the
        C11 memory-location granularity treats the whole allocation
        unit as one location (§3.14p2)."""
        if not self.impl.little_endian:
            raise InternalError("bit-field access on a big-endian "
                                "environment is not modelled")
        nbytes = (bit_offset + width + 7) // 8
        alloc = self._locate(ptr, nbytes, writing=writing)
        return alloc, ptr.addr - alloc.base, nbytes

    def load_bits(self, ty: CType, ptr: PointerValue, bit_offset: int,
                  width: int) -> Tuple[Footprint, MemValue]:
        """Load a bit-field member: ``width`` bits starting
        ``bit_offset`` bits into the byte ``ptr`` addresses, decoded at
        the declared type ``ty`` (sign-extended for signed fields)."""
        assert isinstance(ty, Integer)
        alloc, off, nbytes = self._locate_bits(ptr, bit_offset, width,
                                               writing=False)
        data = alloc.data[off:off + nbytes]
        footprint = Footprint(ptr.addr, nbytes)
        if any(b.is_unspecified for b in data):
            mode = self.options.uninit_read
            if mode == "ub":
                raise MemoryError_(
                    ub.READ_UNINITIALISED,
                    f"read of uninitialised bit-field in "
                    f"'{alloc.name}'")
            if mode == "stable":
                pattern = self._stable_seed & 0xFF
                for i in range(nbytes):
                    if alloc.data[off + i].is_unspecified:
                        alloc.data[off + i] = AByte(pattern)
                data = alloc.data[off:off + nbytes]
            else:
                return footprint, MVUnspecified(ty)
        from .values import _extract_bits
        raw = _extract_bits(data, bit_offset, width)
        assert raw is not None
        if self.impl.is_signed(ty.kind) and ty.kind is not IntKind.BOOL \
                and (raw >> (width - 1)) & 1:
            raw -= 1 << width
        return footprint, MVInteger(ty, IntegerValue(raw))

    def store_bits(self, ty: CType, ptr: PointerValue, bit_offset: int,
                   width: int, value: MemValue) -> Footprint:
        """Store to a bit-field member, preserving every adjacent bit
        of the storage unit (read-modify-write of the touched bytes).
        Storing an unspecified value makes the touched bytes
        unspecified — the byte-granular representation cannot keep the
        member's bits alone indeterminate."""
        assert isinstance(ty, Integer)
        alloc, off, nbytes = self._locate_bits(ptr, bit_offset, width,
                                               writing=True)
        if alloc.readonly:
            raise MemoryError_(
                ub.MODIFYING_CONST,
                f"store to read-only object '{alloc.name}'")
        footprint = Footprint(ptr.addr, nbytes)
        if isinstance(value, MVUnspecified):
            for i in range(nbytes):
                alloc.data[off + i] = UNSPEC_BYTE
            return footprint
        assert isinstance(value, MVInteger)
        from .values import _insert_bits
        window = alloc.data[off:off + nbytes]
        _insert_bits(window, bit_offset, width, value.ival.value)
        alloc.data[off:off + nbytes] = window
        return footprint

    # -- raw byte access (memcpy/memcmp/printf %s etc.) ------------------------------

    def load_bytes(self, ptr: PointerValue, n: int) -> List[AByte]:
        alloc = self._locate(ptr, n, writing=False)
        off = ptr.addr - alloc.base
        return list(alloc.data[off:off + n])

    def store_bytes(self, ptr: PointerValue, data: List[AByte]) -> None:
        alloc = self._locate(ptr, len(data), writing=True)
        if alloc.readonly:
            raise MemoryError_(ub.MODIFYING_CONST,
                               f"store to read-only object '{alloc.name}'")
        off = ptr.addr - alloc.base
        alloc.data[off:off + len(data)] = data

    # -- pointer operations (ptrop) --------------------------------------------------

    def eq(self, a: PointerValue, b: PointerValue) -> int:
        """Pointer ==; Q2: models may nondeterministically consult
        provenance when the representations are equal."""
        if a.addr != b.addr:
            return 0
        if (self.options.provenance_sensitive_equality
                and a.prov is not PROV_EMPTY and b.prov is not PROV_EMPTY
                and a.prov != b.prov):
            # GCC-style: same representation, different provenance —
            # the result may go either way (paper §2.1 Q2).
            return 1 - self.choose("ptr-eq-provenance", 2)
        return 1

    def relational(self, op: str, a: PointerValue,
                   b: PointerValue) -> int:
        if not self.options.allow_inter_object_relational:
            if (isinstance(a.prov, int) and isinstance(b.prov, int)
                    and a.prov != b.prov):
                raise MemoryError_(
                    ub.RELATIONAL_DISTINCT_OBJECTS,
                    f"{op} between pointers into different objects")
        table = {"<": a.addr < b.addr, ">": a.addr > b.addr,
                 "<=": a.addr <= b.addr, ">=": a.addr >= b.addr}
        return int(table[op])

    def ptrdiff(self, elem_ty: CType, a: PointerValue,
                b: PointerValue) -> IntegerValue:
        if not self.options.allow_inter_object_ptrdiff:
            if (isinstance(a.prov, int) and isinstance(b.prov, int)
                    and a.prov != b.prov):
                raise MemoryError_(
                    ub.PTRDIFF_DISTINCT_OBJECTS,
                    "subtraction of pointers into different objects")
        esize = self.impl.sizeof(elem_ty, self.tags)
        diff = (a.addr - b.addr) // esize
        return IntegerValue(diff)  # a pure integer offset (§5.9)

    def int_from_ptr(self, ptr: PointerValue,
                     to: Integer) -> IntegerValue:
        value = ptr.addr
        prov = ptr.prov if self.options.track_int_provenance \
            else PROV_EMPTY
        return IntegerValue(value, prov)

    def ptr_from_int(self, iv: IntegerValue) -> PointerValue:
        if iv.value == 0 and iv.prov is PROV_EMPTY:
            return NULL_POINTER
        # Q5: with integer provenance tracking, a round-tripped pointer
        # recovers its original provenance; without it, the cast
        # produces an empty-provenance pointer (usable only under
        # models that don't check, where it behaves as a wildcard).
        prov = iv.prov if self.options.track_int_provenance \
            else PROV_EMPTY
        if prov is PROV_EMPTY and not self.options.check_provenance:
            prov = PROV_WILDCARD
        return PointerValue(iv.value, prov)

    def array_shift(self, ptr: PointerValue, elem_ty: CType,
                    index: IntegerValue) -> PointerValue:
        esize = self.impl.sizeof(elem_ty, self.tags)
        new_addr = ptr.addr + esize * index.value
        out = ptr.with_addr(new_addr)
        if not self.options.allow_oob_construction:
            self._check_in_bounds_or_one_past(out)
        return out

    def member_shift(self, ptr: PointerValue, tag: str,
                     member: str) -> PointerValue:
        ref: CType
        defn = self.tags.require(tag)
        ref = UnionRef(tag) if defn.is_union else StructRef(tag)
        off = self.impl.offsetof(ref, member, self.tags)
        return ptr.with_addr(ptr.addr + off)

    def _check_in_bounds_or_one_past(self, ptr: PointerValue) -> None:
        if not isinstance(ptr.prov, int):
            return
        alloc = self.allocations.get(ptr.prov)
        if alloc is None:
            return
        if alloc.base <= ptr.addr <= alloc.base + alloc.size:
            return
        raise MemoryError_(
            ub.OUT_OF_BOUNDS_POINTER_ARITHMETIC,
            f"pointer arithmetic produced 0x{ptr.addr:x}, outside "
            f"'{alloc.name}' and not one-past")

    def valid_for_deref(self, ptr: PointerValue, ty: CType) -> bool:
        size = self.impl.sizeof(ty, self.tags)
        try:
            self._locate(ptr, size, writing=False)
            return True
        except MemoryError_:
            return False


def _types_alias(a: CType, b: CType) -> bool:
    """May an lvalue of type ``b`` access an object of effective type
    ``a`` (§6.5p7)? Signed/unsigned siblings and qualifier differences
    are permitted."""
    if a == b:
        return True
    if isinstance(a, Integer) and isinstance(b, Integer):
        return a.signed_variant() == b.signed_variant()
    if isinstance(a, Pointer) and isinstance(b, Pointer):
        return True  # all pointer-to-object types alias each other here
    if isinstance(a, Array):
        return _types_alias(a.of.ty, b)
    return False
